//! # delayguard-sim
//!
//! Virtual-time simulation of the paper's evaluation (§4). Time is a plain
//! `f64` of seconds passed to each model, so delays are accounted, not
//! slept:
//!
//! * [`metrics`] — online mean/stdev (Welford) and exact quantiles; the
//!   paper reports *medians* for users and totals for adversaries.
//! * [`replay`] — replay a workload trace through the learn→rank→delay
//!   pipeline (Tables 1–4).
//! * [`extraction`] — full-database extraction under either policy,
//!   producing delay totals and retrieval schedules (Figures 4–5).
//! * [`staleness`] — expected / simulated stale fractions of an extracted
//!   copy (Figure 6).
//! * [`overhead`] — the §4.4 mechanism-cost methodology (Table 5).
//! * [`registry`] — lock-free counters/gauges shared with
//!   `delayguard-server`'s `STATS` endpoint.
//! * [`guardstats`] — publishes the guard's snapshot-machinery health
//!   (snapshot age, pending events, rebuilds) into a [`Registry`].
//! * [`report`] — plain-text table rendering for the harness.

#![forbid(unsafe_code)]

pub mod extraction;
pub mod guardstats;
pub mod metrics;
pub mod overhead;
pub mod registry;
pub mod replay;
pub mod report;
pub mod staleness;

pub use extraction::{
    extract_access_based, extract_update_based, uniform_user_median_delay, ExtractionReport,
};
pub use guardstats::GuardStatsPublisher;
pub use metrics::{median_of, OnlineStats, Quantiles};
pub use overhead::{measure_overhead, OverheadConfig, OverheadReport};
pub use registry::{Counter, Gauge, MetricValue, Registry};
pub use replay::{replay, replay_keys, DecayMode, ReplayConfig, ReplayResult};
pub use report::{fmt_dollars, fmt_pct, fmt_secs, TableBuilder};
pub use staleness::ExtractionSchedule;
