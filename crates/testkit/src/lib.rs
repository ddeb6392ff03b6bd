//! # delayguard-testkit
//!
//! Deterministic simulation testing for the whole front door.
//!
//! The testkit runs the **real** server stack — the wire codec
//! ([`delayguard_server::protocol`]), the gatekeeper, the
//! [`FrontDoor`](delayguard_server::gate::FrontDoor), the
//! [`DelayScheduler`](delayguard_server::scheduler::DelayScheduler) and
//! its timer wheel, and the
//! [`GuardedDatabase`](delayguard_core::GuardedDatabase) snapshot path —
//! on a virtual clock and an in-memory transport, with every source of
//! nondeterminism (latency, drops, partitions, resets, reordering,
//! workload sampling) driven by one seed:
//!
//! * [`world::SimWorld`] — the simulated deployment, one event loop for
//!   both of its modes: a single server (the default) or an N-node
//!   sharded cluster behind a router, with popularity aggregates
//!   replicated by `DELTA` gossip and nodes cut off and healed on
//!   demand. Clients connect over an in-memory channel mesh, frames
//!   travel through the real codec, time advances only to the next
//!   scheduled thing (a wheel deadline, a frame arrival or a gossip
//!   tick), and months of simulated delay cost milliseconds of wall
//!   clock.
//! * [`partition::PartitionMap`] — the cluster's round-robin key
//!   ownership (`id mod N`) and point-query/write routing.
//! * [`net`] — the transport seam: [`net::SimNet`] / [`net::NetLink`]
//!   are implemented by both the in-memory mesh and real TCP
//!   ([`net::TcpNet`]), so the same generic client code drives either;
//!   [`net::FaultPlan`] is the seeded per-link fault model.
//! * [`campaign`] — §2.4 adversary campaigns in virtual time: sequential
//!   crawlers, Sybil swarms racing the registration interval, subnet
//!   swarms, popularity-aware crawlers — with closed-form expectations
//!   from [`delayguard_core::analysis`] (Eq. 4) to assert against.
//! * [`seed`] — the replay harness: every failing test prints its seed
//!   and a `TESTKIT_REPLAY=<seed>` command that reruns the exact
//!   execution; [`world::SimWorld::digest`] folds every delivered frame
//!   (with its delivery time) into an order-sensitive hash, so
//!   bit-identical reruns are checkable with one comparison.
//!
//! Determinism holds because the simulation is single-threaded and every
//! component reads time through the injected
//! [`Clock`](delayguard_core::clock::Clock): the complete execution is a
//! pure function of (seed, script). The repo lint
//! (`cargo run -p xtask -- lint`) keeps wall-clock reads off the
//! simulated path; this crate itself may read the wall only to *budget*
//! tests (asserting that simulated months finish in wall seconds).

#![forbid(unsafe_code)]

pub mod campaign;
pub mod net;
pub mod partition;
pub mod seed;
pub mod staleness;
pub mod world;

pub use campaign::{
    kendall_tau, tail_recall, theil_sen_slope, AdaptiveReport, Campaign, CampaignParams,
    CrawlReport, Observation, ObservationReport, RankInferenceReport, SybilReport,
};
pub use net::{
    Arrival, FaultPlan, LinkError, MutationOutcome, NetLink, QueryOutcome, SimNet, TcpNet,
};
pub use partition::PartitionMap;
pub use seed::{check, check_in, check_seeds, check_seeds_in, replay_seed};
pub use staleness::{StalenessCampaign, StalenessParams, StalenessReport};
pub use world::{ConnId, MeshLink, SimConfig, SimWorld};
