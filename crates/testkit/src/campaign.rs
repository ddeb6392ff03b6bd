//! §2.4 adversary campaigns in virtual time.
//!
//! A [`Campaign`] is a simulated deployment seeded as the paper's
//! running example: a directory of `n` tuples whose popularity follows a
//! Zipf distribution with exponent α, warmed into the tracker in bulk
//! (so `fmax` and the rank order are known in closed form), guarded by
//! the access-rate delay policy `d(i) = i^(α+β) / (n·fmax)`.
//!
//! The drivers replay the paper's attacks end to end over the wire —
//! registration, refusal hints, per-tuple delay enforcement — and return
//! reports whose numbers can be asserted against
//! [`delayguard_core::analysis`] (Eq. 4 and the Sybil economics):
//!
//! * [`Campaign::sequential_crawl`] — one identity walks a rank list;
//!   months of simulated delay, seconds of wall clock.
//! * [`Campaign::swarm_crawl`] — k identities crawl stripes of the rank
//!   space concurrently (work-conserving, virtual-time parallel); with
//!   [`Campaign::sybil_ips`] this is the Sybil attack racing the
//!   registration interval, with [`Campaign::clustered_ips`] it is the
//!   same swarm collapsed onto one /24 for the subnet aggregation
//!   defense.
//! * [`Campaign::zipf_ranks`] — a popularity-aware workload (the
//!   *user*'s side of Eq. 4, or a smart crawler that goes for the
//!   popular head first).
//! * [`Campaign::rank_inference_crawl`] / [`Campaign::adaptive_probe_attack`]
//!   — the timing side-channel adversaries: one sorts tuples by observed
//!   response time to recover the popularity rank order (scored by
//!   Kendall tau and tail recall), the other probes a small sample to
//!   fit the delay-vs-rank curve and then aims its budget at the
//!   slow-looking (actually high-value) tail. Run them against a
//!   [`CampaignParams::sidechannel`] world with shaping off (control)
//!   and on (defended) to measure the crossover.

use crate::net::{self, NetLink, QueryOutcome};
use crate::world::{MeshLink, SimConfig, SimWorld};
use delayguard_core::access::{AccessDelayPolicy, FmaxMode};
use delayguard_core::analysis;
use delayguard_core::gatekeeper::{GatekeeperConfig, RegistrationPolicy};
use delayguard_core::policy::GuardPolicy;
use delayguard_core::shaping::DelayShaping;
use delayguard_core::{GuardConfig, GuardedDatabase};
use delayguard_query::StatementOutput;
use delayguard_server::gate::GateConfig;
use delayguard_server::protocol::Frame;
use delayguard_storage::RowId;
use delayguard_workload::{generalized_harmonic, Rng, Zipf};
use std::time::Duration;

/// Per-attempt timeout for a registration exchange (virtual seconds).
const REGISTER_TIMEOUT_SECS: f64 = 600.0;

/// Timeout for a single query: must exceed the largest per-tuple delay a
/// campaign can be charged (rank n at n²-ish seconds).
const QUERY_TIMEOUT_SECS: f64 = 50.0 * 86_400.0;

/// The paper's running example, parameterized.
#[derive(Debug, Clone)]
pub struct CampaignParams {
    /// Database size (tuples), ranked 1 (most popular) to `n`.
    pub n: u64,
    /// Zipf exponent of the seeded popularity distribution.
    pub alpha: f64,
    /// Delay-policy exponent: `d(i) ∝ i^(α+β)`.
    pub beta: f64,
    /// Per-tuple delay cap; `f64::INFINITY` is the uncapped §2.1 policy.
    pub cap_secs: f64,
    /// Access count of the rank-1 tuple when the campaign starts
    /// (`c_i = seed_scale · i^(−α)`). Large values make the crawl's own
    /// accesses a negligible perturbation of `fmax`.
    pub seed_scale: f64,
    /// Gatekeeper configuration (defaults to wide-open so the delay
    /// policy is the only brake; override for Sybil / subnet scenarios).
    pub gatekeeper: GatekeeperConfig,
    /// Timer-wheel tick. Campaign delays are seconds-to-hours, so a
    /// coarse tick keeps the event count proportional to queries.
    pub tick: Duration,
    /// Per-connection send-queue row cap.
    pub send_queue_rows: usize,
    /// Timing side-channel defense. Off by default so every pre-existing
    /// campaign reproduces bit-for-bit; [`Campaign::new`] folds the world
    /// seed into the jitter seed when enabled, so `TESTKIT_REPLAY`
    /// replays the exact shaped schedule too.
    pub shaping: DelayShaping,
}

impl CampaignParams {
    /// The timing side-channel world: a full-database timing sweep per
    /// test (`n = 1024` — large enough that within-bucket Kendall-τ
    /// noise, ~2/(3√n), stays well under the collapse bound), α = β = 1,
    /// a finite cap *above* the rank-`n` delay (so the unshaped control
    /// leaks every rank — no cap ties), a 200 ms wheel tick (observed
    /// times resolve individual ranks), and — when `shaped` — a geometry
    /// with edges at 8 ms / 8 s / 8000 s (γ = 1000): the ~33 hottest
    /// ranks land in the fast buckets (the median rank, ≈ 24, among
    /// them, so honest Eq. 3 costs stay bounded) and the other ~991
    /// share the slow bucket, with 10% multiplicative jitter on top.
    pub fn sidechannel(shaped: bool) -> CampaignParams {
        CampaignParams {
            n: 1024,
            alpha: 1.0,
            beta: 1.0,
            cap_secs: 8000.0,
            tick: Duration::from_millis(200),
            shaping: if shaped {
                DelayShaping::new(8000.0, 1000.0, 0.1, 0x51DE_C4A7)
            } else {
                DelayShaping::off()
            },
            // Deep-tail seeded counts must differ by ≫ 1 (the gap is
            // `seed_scale/i²` ≈ 950 at rank 1024) or the campaign's own
            // unit accesses reorder adjacent ranks mid-sweep and blur
            // the very channel under test.
            seed_scale: 1e9,
            ..CampaignParams::default()
        }
    }

    /// The one-node world these parameters describe: the access-rate
    /// policy with the `DecayedTotal` fmax, shaping with the world seed
    /// folded into its jitter seed (so `TESTKIT_REPLAY` replays the
    /// exact shaped schedule), and the configured gatekeeper and tick.
    pub fn sim_config(&self, seed: u64) -> SimConfig {
        let policy = AccessDelayPolicy::new(self.alpha, self.beta)
            .with_cap(self.cap_secs)
            .with_fmax_mode(FmaxMode::DecayedTotal);
        let mut shaping = self.shaping;
        if shaping.enabled {
            shaping.seed ^= seed;
        }
        SimConfig {
            guard: GuardConfig::paper_default()
                .with_policy(GuardPolicy::AccessRate(policy))
                .with_shaping(shaping),
            gate: GateConfig {
                gatekeeper: self.gatekeeper,
                ..GateConfig::default()
            },
            tick: self.tick,
            send_queue_rows: self.send_queue_rows,
            ..SimConfig::default()
        }
    }
}

impl Default for CampaignParams {
    fn default() -> CampaignParams {
        CampaignParams {
            n: 1100,
            alpha: 1.0,
            beta: 1.0,
            cap_secs: f64::INFINITY,
            seed_scale: 1e6,
            gatekeeper: GatekeeperConfig {
                per_user_rate: 1e9,
                per_user_burst: 1e9,
                per_subnet_rate: 1e9,
                per_subnet_burst: 1e9,
                registration: RegistrationPolicy::interval(0.0),
                storefront_query_threshold: 0,
            },
            tick: Duration::from_secs(1),
            send_queue_rows: 4096,
            shaping: DelayShaping::off(),
        }
    }
}

/// What one crawling identity observed.
#[derive(Debug, Clone)]
pub struct CrawlReport {
    /// Queries answered with rows.
    pub queries: u64,
    /// Refusals absorbed (each followed by honoring the retry hint).
    pub refused: u64,
    /// Tuples charged across all answered queries.
    pub tuples: u64,
    /// Sum of charged delays (the server's `DONE` accounting).
    pub total_delay_secs: f64,
    /// Virtual time when the crawl started (before registration).
    pub started_secs: f64,
    /// Virtual time when the last `DONE` arrived.
    pub finished_secs: f64,
    /// Minimum over all queries of `(done − sent) − charged delay`:
    /// negative means some tuple was released early.
    pub min_margin_secs: f64,
}

impl CrawlReport {
    /// End-to-end campaign wall time in virtual seconds.
    pub fn wall_secs(&self) -> f64 {
        self.finished_secs - self.started_secs
    }
}

/// What a k-identity swarm observed.
#[derive(Debug, Clone)]
pub struct SybilReport {
    /// Identities that completed registration.
    pub identities: u64,
    /// `RegistrationTooSoon` refusals absorbed while registering.
    pub registration_refusals: u64,
    /// Virtual time when the swarm started registering.
    pub started_secs: f64,
    /// Virtual time when the last identity was admitted.
    pub registration_done_secs: f64,
    /// Virtual time when the last stripe finished.
    pub finished_secs: f64,
    /// Sum of charged delays across the whole swarm.
    pub total_delay_secs: f64,
    /// Tuples charged across the whole swarm.
    pub tuples: u64,
    /// Query refusals absorbed during the crawl.
    pub refused_queries: u64,
    /// Minimum never-early margin across every query (see
    /// [`CrawlReport::min_margin_secs`]).
    pub min_margin_secs: f64,
}

impl SybilReport {
    /// End-to-end campaign wall time (registration + crawl).
    pub fn wall_secs(&self) -> f64 {
        self.finished_secs - self.started_secs
    }

    /// Time spent serially registering the swarm.
    pub fn registration_wall_secs(&self) -> f64 {
        self.registration_done_secs - self.started_secs
    }
}

/// One timed query: the true popularity rank it touched, what the server
/// *charged* (its own `DONE` accounting) and what the client *observed*
/// (`DONE` arrival minus send — the only signal a timing adversary has).
#[derive(Debug, Clone, Copy)]
pub struct Observation {
    /// True popularity rank of the queried tuple (1 = most popular).
    pub rank: u64,
    /// Server-accounted delay, in seconds (the economics signal).
    pub charged_secs: f64,
    /// Client-observed response time, in seconds (the attack signal).
    pub observed_secs: f64,
}

/// A crawl that kept per-query timing observations.
#[derive(Debug, Clone)]
pub struct ObservationReport {
    /// One entry per answered query, in issue order.
    pub observations: Vec<Observation>,
    /// Refusals absorbed (each followed by honoring the retry hint).
    pub refused: u64,
    /// Sum of charged delays across all answered queries.
    pub total_charged_secs: f64,
    /// Minimum over all queries of `observed − charged`: negative means
    /// some tuple was released early.
    pub min_margin_secs: f64,
}

impl ObservationReport {
    /// Median of the charged per-query delays (the honest-user cost
    /// statistic Eq. 3 speaks about).
    pub fn median_charged_secs(&self) -> f64 {
        assert!(!self.observations.is_empty());
        let mut d: Vec<f64> = self.observations.iter().map(|o| o.charged_secs).collect();
        d.sort_by(|a, b| a.partial_cmp(b).expect("finite delays"));
        d[d.len() / 2]
    }
}

/// What the rank-inference crawler recovered.
#[derive(Debug, Clone)]
pub struct RankInferenceReport {
    /// The timing sweep, one observation per rank (shuffled issue order).
    pub sweep: ObservationReport,
    /// Kendall tau-a between true rank order and observed response time:
    /// 1.0 = the timing channel leaks the full rank order, ~0 = chance.
    pub tau: f64,
    /// Fraction of the true `k` least-popular (highest-value) tuples the
    /// attacker finds among its `k` slowest-observed — its ability to aim
    /// extraction at the tail.
    pub tail_recall: f64,
    /// The `k` used for [`RankInferenceReport::tail_recall`].
    pub tail_k: usize,
}

/// What the adaptive (probe-then-target) attacker achieved.
#[derive(Debug, Clone)]
pub struct AdaptiveReport {
    /// Least-squares slope of `ln(observed)` vs `ln(assumed rank)` over
    /// the probe set: against the unshaped policy this recovers `α + β`.
    pub fitted_exponent: f64,
    /// Ranks probed in the fitting phase.
    pub probe_count: usize,
    /// Of the `k` tuples the attacker targets (slowest-observed in its
    /// full sweep), the fraction that truly belong to the value tail.
    pub tail_capture: f64,
    /// The targeting sweep (for economics accounting).
    pub sweep: ObservationReport,
}

/// Kendall tau-a between true rank and observed time over all pairs:
/// `Σ sign(Δrank)·sign(Δobserved) / C(n,2)`. Ties in either coordinate
/// contribute 0 — deterministically, with no tie-breaking heuristics to
/// smuggle rank information back in. O(n²), fine at campaign sizes.
pub fn kendall_tau(obs: &[Observation]) -> f64 {
    let n = obs.len();
    assert!(n >= 2, "tau needs at least two observations");
    let mut s: i64 = 0;
    for i in 0..n {
        for j in (i + 1)..n {
            let dr = (obs[j].rank as i64 - obs[i].rank as i64).signum();
            let dt = match obs[j]
                .observed_secs
                .partial_cmp(&obs[i].observed_secs)
                .expect("finite observations")
            {
                std::cmp::Ordering::Greater => 1,
                std::cmp::Ordering::Less => -1,
                std::cmp::Ordering::Equal => 0,
            };
            s += dr * dt;
        }
    }
    s as f64 / (n as f64 * (n - 1) as f64 / 2.0)
}

/// Tail recall: sort observations by observed time (stable, so ties keep
/// the — shuffled — issue order and cannot leak rank), take the `k`
/// slowest as the attacker's predicted value-tail, and score the overlap
/// with the true `k` largest ranks present in the sweep.
pub fn tail_recall(obs: &[Observation], k: usize) -> f64 {
    assert!(k >= 1 && k <= obs.len());
    let mut by_time: Vec<&Observation> = obs.iter().collect();
    by_time.sort_by(|a, b| {
        b.observed_secs
            .partial_cmp(&a.observed_secs)
            .expect("finite observations")
    });
    let mut ranks: Vec<u64> = obs.iter().map(|o| o.rank).collect();
    ranks.sort_unstable();
    let cutoff = ranks[ranks.len() - k];
    let hit = by_time[..k].iter().filter(|o| o.rank >= cutoff).count();
    hit as f64 / k as f64
}

/// Theil–Sen slope through `(x, y)` points — the adaptive attacker's
/// estimate of the policy exponent from a log-log fit. The median of all
/// pairwise slopes shrugs off the heavy log-scale noise in the smallest
/// rank order statistics that wrecks an ordinary least-squares fit.
pub fn theil_sen_slope(pts: &[(f64, f64)]) -> f64 {
    assert!(pts.len() >= 2, "slope needs at least two points");
    let mut slopes = Vec::with_capacity(pts.len() * (pts.len() - 1) / 2);
    for i in 0..pts.len() {
        for j in (i + 1)..pts.len() {
            let (dx, dy) = (pts[j].0 - pts[i].0, pts[j].1 - pts[i].1);
            if dx != 0.0 {
                slopes.push(dy / dx);
            }
        }
    }
    slopes.sort_by(|a, b| a.partial_cmp(b).expect("finite slopes"));
    slopes[slopes.len() / 2]
}

/// Create the `directory` table on `db` and insert the rows with `ids`
/// at virtual time zero, then warm each with the Zipf count of its rank
/// (`c_i = seed_scale · i^(−α)`, rank `i` is the row with `id = i − 1`).
/// Returns the row ids in `ids` order.
pub fn seed_directory(
    db: &GuardedDatabase,
    ids: impl IntoIterator<Item = u64>,
    params: &CampaignParams,
) -> Vec<RowId> {
    db.execute_at(
        "CREATE TABLE directory (id INT NOT NULL, entry TEXT NOT NULL)",
        0.0,
    )
    .expect("create table");
    db.execute_at("CREATE UNIQUE INDEX directory_pk ON directory (id)", 0.0)
        .expect("create index");
    let mut rids = Vec::new();
    let mut counts: Vec<(RowId, f64)> = Vec::new();
    for id in ids {
        let resp = db
            .execute_at(
                &format!("INSERT INTO directory VALUES ({id}, 'entry-{id}')"),
                0.0,
            )
            .expect("insert row");
        let rid = match resp.output {
            StatementOutput::Inserted { rids: mut r } => r.pop().expect("one rid per insert"),
            other => panic!("unexpected insert output: {other:?}"),
        };
        let rank = (id + 1) as f64;
        rids.push(rid);
        counts.push((rid, params.seed_scale * rank.powf(-params.alpha)));
    }
    db.warm_accesses("directory", &counts, 0.0);
    rids
}

/// The point query that touches exactly the rank-`i` tuple.
pub fn sql_for_rank(rank: u64) -> String {
    format!("SELECT * FROM directory WHERE id = {}", rank - 1)
}

/// One registered identity crawls `ranks` in order over `link`, honoring
/// refusal hints, accumulating the server's own delay accounting. Query
/// ids come from `next_query_id`; `started_secs` is the caller's start
/// of the crawl (before or after registration).
pub fn crawl(
    world: &SimWorld,
    link: &mut MeshLink,
    user: u64,
    ranks: &[u64],
    next_query_id: &mut u32,
    started_secs: f64,
) -> CrawlReport {
    let mut report = CrawlReport {
        queries: 0,
        refused: 0,
        tuples: 0,
        total_delay_secs: 0.0,
        started_secs,
        finished_secs: started_secs,
        min_margin_secs: f64::INFINITY,
    };
    for &rank in ranks {
        let sql = sql_for_rank(rank);
        loop {
            let qid = *next_query_id;
            *next_query_id += 1;
            match net::run_query(link, qid, user, &sql, QUERY_TIMEOUT_SECS).expect("link alive") {
                QueryOutcome::Rows {
                    rows,
                    delay_secs,
                    tuples,
                    sent_at_secs,
                    done_at_secs,
                    ..
                } => {
                    assert_eq!(rows.len(), 1, "rank {rank} must be a point lookup");
                    report.queries += 1;
                    report.tuples += tuples as u64;
                    report.total_delay_secs += delay_secs;
                    let margin = (done_at_secs - sent_at_secs) - delay_secs;
                    report.min_margin_secs = report.min_margin_secs.min(margin);
                    break;
                }
                QueryOutcome::Refused {
                    retry_after_secs, ..
                } => {
                    report.refused += 1;
                    world.run_for(retry_after_secs + 1e-6);
                }
                QueryOutcome::Error { message } => panic!("rank {rank}: {message}"),
                QueryOutcome::TimedOut => panic!("rank {rank}: query timed out"),
            }
        }
    }
    report.finished_secs = world.now_secs();
    report
}

/// A simulated deployment seeded as the paper's running example.
pub struct Campaign {
    world: SimWorld,
    params: CampaignParams,
    rids: Vec<RowId>,
    rng: Rng,
    next_query_id: u32,
}

impl Campaign {
    /// Build the world, create and populate the directory table, and
    /// warm the popularity tracker with `c_i = seed_scale · i^(−α)`
    /// accesses per rank — all at virtual time zero, before any client
    /// connects. Rank `i` is the row with `id = i − 1`.
    pub fn new(seed: u64, params: CampaignParams) -> Campaign {
        let world = SimWorld::new(seed, params.sim_config(seed));
        let rids = seed_directory(&world.db(0), 0..params.n, &params);
        Campaign {
            world,
            // Independent stream from the world's fault RNG.
            rng: Rng::new(seed ^ 0x9e37_79b9_7f4a_7c15),
            params,
            rids,
            next_query_id: 1,
        }
    }

    /// The underlying world (digest, metrics, fault control).
    pub fn world(&self) -> &SimWorld {
        &self.world
    }

    /// The campaign parameters.
    pub fn params(&self) -> &CampaignParams {
        &self.params
    }

    /// The `RowId` of rank `i` (1-based).
    pub fn rid_of_rank(&self, rank: u64) -> RowId {
        self.rids[(rank - 1) as usize]
    }

    // ---- closed-form expectations (Eq. 4 inputs) --------------------------

    /// The warmed tracker's max relative access frequency:
    /// `fmax = c_1 / Σ c_i = 1 / H(n, α)` exactly.
    pub fn fmax(&self) -> f64 {
        1.0 / generalized_harmonic(self.params.n, self.params.alpha)
    }

    /// The policy's delay for rank `i` (with the cap applied).
    pub fn analytic_delay_at_rank(&self, rank: u64) -> f64 {
        analysis::delay_at_rank(
            self.params.n,
            self.params.alpha,
            self.params.beta,
            self.fmax(),
            rank,
        )
        .min(self.params.cap_secs)
    }

    /// Total delay a full-crawl adversary pays (Eq. 3 / capped variant).
    pub fn analytic_total(&self) -> f64 {
        let p = &self.params;
        if p.cap_secs.is_finite() {
            analysis::adversary_total_capped(p.n, p.alpha, p.beta, self.fmax(), p.cap_secs)
        } else {
            analysis::adversary_total(p.n, p.alpha, p.beta, self.fmax())
        }
    }

    /// Eq. 4: adversary total over the median user's delay.
    pub fn analytic_ratio(&self) -> f64 {
        let p = &self.params;
        let dmax = p.cap_secs.is_finite().then_some(p.cap_secs);
        analysis::delay_ratio(p.n, p.alpha, p.beta, self.fmax(), dmax)
    }

    /// The rank the median user query lands on.
    pub fn median_rank(&self) -> u64 {
        analysis::median_rank_exact(self.params.n, self.params.alpha)
    }

    /// The shaping policy the world actually prices under (the params'
    /// policy with the world seed folded into the jitter seed).
    pub fn effective_shaping(&self) -> DelayShaping {
        self.world.db(0).config().shaping
    }

    /// Expected shaped delay for rank `i` (the raw capped Eq. 1 price
    /// through the quantization/noise term; raw when shaping is off).
    pub fn analytic_shaped_delay_at_rank(&self, rank: u64) -> f64 {
        let p = &self.params;
        analysis::shaped_delay_at_rank(
            p.n,
            p.alpha,
            p.beta,
            self.fmax(),
            p.cap_secs,
            &self.effective_shaping(),
            rank,
        )
    }

    /// Eq. 4's numerator under shaping: expected total a full-sweep
    /// adversary is charged (equals [`Campaign::analytic_total`] when
    /// shaping is off).
    pub fn analytic_shaped_total(&self) -> f64 {
        let p = &self.params;
        analysis::shaped_adversary_total(
            p.n,
            p.alpha,
            p.beta,
            self.fmax(),
            p.cap_secs,
            &self.effective_shaping(),
        )
    }

    /// Eq. 3's median-user delay under shaping: expected charge of the
    /// median Zipf request.
    pub fn analytic_shaped_median_user_delay(&self) -> f64 {
        let p = &self.params;
        analysis::shaped_median_user_delay(
            p.n,
            p.alpha,
            p.beta,
            self.fmax(),
            p.cap_secs,
            &self.effective_shaping(),
        )
    }

    /// The information-theoretic tau ceiling under this world's shaping:
    /// the fraction of tuple pairs whose bucket still orders them.
    pub fn analytic_tau_ceiling(&self) -> f64 {
        let p = &self.params;
        analysis::shaping_tau_ceiling(
            p.n,
            p.alpha,
            p.beta,
            self.fmax(),
            p.cap_secs,
            &self.effective_shaping(),
        )
    }

    /// Every rank, in crawl order `1..=n`.
    pub fn all_ranks(&self) -> Vec<u64> {
        (1..=self.params.n).collect()
    }

    /// `count` ranks sampled from the user's Zipf(α) popularity
    /// distribution — the workload honest users (or a popularity-aware
    /// crawler) generate. Deterministic per campaign seed.
    pub fn zipf_ranks(&mut self, count: u64) -> Vec<u64> {
        let zipf = Zipf::new(self.params.n, self.params.alpha);
        (0..count).map(|_| zipf.sample(&mut self.rng)).collect()
    }

    /// Distinct-/24 source addresses for a Sybil swarm of `k`.
    pub fn sybil_ips(k: u64) -> Vec<[u8; 4]> {
        (0..k).map(|j| [10, (j >> 8) as u8, j as u8, 1]).collect()
    }

    /// `k` addresses on one /24 (the subnet-aggregation worst case).
    pub fn clustered_ips(k: u64) -> Vec<[u8; 4]> {
        (0..k).map(|j| [10, 0, 0, (j + 1) as u8]).collect()
    }

    // ---- drivers ----------------------------------------------------------

    fn register_link(&mut self, ip: [u8; 4]) -> (MeshLink, u64, u64) {
        let mut link = self.world.connect_link(ip);
        let (user, refusals) =
            net::register_until_admitted(&mut self.world, &mut link, [0; 4], REGISTER_TIMEOUT_SECS)
                .expect("registration");
        (link, user, refusals)
    }

    fn fresh_query_id(&mut self) -> u32 {
        let id = self.next_query_id;
        self.next_query_id += 1;
        id
    }

    /// One identity from `ip` crawls `ranks` in order, honoring refusal
    /// hints, accumulating the server's own delay accounting.
    pub fn sequential_crawl(&mut self, ip: [u8; 4], ranks: &[u64]) -> CrawlReport {
        let started_secs = self.world.now_secs();
        let (mut link, user, _) = self.register_link(ip);
        crawl(
            &self.world,
            &mut link,
            user,
            ranks,
            &mut self.next_query_id,
            started_secs,
        )
    }

    /// One identity from `ip` queries `ranks` in the given order, keeping
    /// a per-query [`Observation`] (true rank, server-charged delay,
    /// client-observed response time). The timing-adversary primitive:
    /// everything the attacker learns is in `observed_secs`.
    pub fn crawl_observations(&mut self, ip: [u8; 4], ranks: &[u64]) -> ObservationReport {
        let (mut link, user, _) = self.register_link(ip);
        let mut report = ObservationReport {
            observations: Vec::with_capacity(ranks.len()),
            refused: 0,
            total_charged_secs: 0.0,
            min_margin_secs: f64::INFINITY,
        };
        for &rank in ranks {
            let sql = sql_for_rank(rank);
            loop {
                let qid = self.fresh_query_id();
                match net::run_query(&mut link, qid, user, &sql, QUERY_TIMEOUT_SECS)
                    .expect("link alive")
                {
                    QueryOutcome::Rows {
                        rows,
                        delay_secs,
                        sent_at_secs,
                        done_at_secs,
                        ..
                    } => {
                        assert_eq!(rows.len(), 1, "rank {rank} must be a point lookup");
                        let observed = done_at_secs - sent_at_secs;
                        report.observations.push(Observation {
                            rank,
                            charged_secs: delay_secs,
                            observed_secs: observed,
                        });
                        report.total_charged_secs += delay_secs;
                        report.min_margin_secs = report.min_margin_secs.min(observed - delay_secs);
                        break;
                    }
                    QueryOutcome::Refused {
                        retry_after_secs, ..
                    } => {
                        report.refused += 1;
                        self.world.run_for(retry_after_secs + 1e-6);
                    }
                    QueryOutcome::Error { message } => panic!("rank {rank}: {message}"),
                    QueryOutcome::TimedOut => panic!("rank {rank}: query timed out"),
                }
            }
        }
        report
    }

    /// The rank-inference crawler: time every tuple once (in a shuffled
    /// order, so nothing but the timing channel carries rank), then sort
    /// by observed response time and score the recovered order against
    /// the true popularity ranks with Kendall tau and tail recall
    /// (`tail_k` = the least-popular eighth of the table).
    pub fn rank_inference_crawl(&mut self, ip: [u8; 4]) -> RankInferenceReport {
        let mut order = self.all_ranks();
        self.rng.shuffle(&mut order);
        let sweep = self.crawl_observations(ip, &order);
        let tau = kendall_tau(&sweep.observations);
        let tail_k = (self.params.n as usize / 8).max(1);
        let recall = tail_recall(&sweep.observations, tail_k);
        RankInferenceReport {
            sweep,
            tau,
            tail_recall: recall,
            tail_k,
        }
    }

    /// The adaptive attacker: probe `probes` random tuples to fit the
    /// delay-vs-rank power law (log-log least squares, probes' sorted
    /// delays matched to their expected order statistics), then sweep and
    /// spend the budget on the `tail_k` slowest-looking tuples. Against
    /// the unshaped policy the fit recovers `α + β` and the targeted set
    /// is the true value tail; under shaping both collapse.
    pub fn adaptive_probe_attack(
        &mut self,
        ip: [u8; 4],
        probes: usize,
        tail_k: usize,
    ) -> AdaptiveReport {
        assert!(probes >= 2 && (probes as u64) <= self.params.n);
        let mut pool = self.all_ranks();
        self.rng.shuffle(&mut pool);
        let probe_ranks: Vec<u64> = pool[..probes].to_vec();
        let probe_obs = self.crawl_observations(ip, &probe_ranks);
        let mut sorted: Vec<f64> = probe_obs
            .observations
            .iter()
            .map(|o| o.observed_secs)
            .collect();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite observations"));
        // The j-th smallest probed delay estimates the j-th order
        // statistic of a uniform rank sample: rank ≈ j·(n+1)/(s+1).
        let n = self.params.n as f64;
        let pts: Vec<(f64, f64)> = sorted
            .iter()
            .enumerate()
            .map(|(j, &d)| {
                let assumed_rank = (j as f64 + 1.0) * (n + 1.0) / (probes as f64 + 1.0);
                (assumed_rank.ln(), d.max(1e-9).ln())
            })
            .collect();
        let fitted_exponent = theil_sen_slope(&pts);
        // Targeting phase: full timing sweep, aim at the slowest-looking.
        let mut order = self.all_ranks();
        self.rng.shuffle(&mut order);
        let sweep = self.crawl_observations(ip, &order);
        let tail_capture = tail_recall(&sweep.observations, tail_k);
        AdaptiveReport {
            fitted_exponent,
            probe_count: probes,
            tail_capture,
            sweep,
        }
    }

    /// An honest user session: `count` queries sampled from the Zipf(α)
    /// popularity distribution, with per-query charge observations (for
    /// the Eq. 3 median-user economics under shaping).
    pub fn honest_zipf_session(&mut self, ip: [u8; 4], count: u64) -> ObservationReport {
        let ranks = self.zipf_ranks(count);
        self.crawl_observations(ip, &ranks)
    }

    /// `ips.len()` identities register serially (honoring the
    /// registration-interval hints — the Sybil cost), then crawl `ranks`
    /// striped round-robin: identity `j` takes `ranks[j]`,
    /// `ranks[j + k]`, ... All stripes run concurrently in virtual time;
    /// the driver is work-conserving (an identity issues its next query
    /// the instant its previous `DONE` arrives).
    pub fn swarm_crawl(&mut self, ips: &[[u8; 4]], ranks: &[u64]) -> SybilReport {
        let k = ips.len();
        assert!(k > 0, "swarm needs at least one identity");
        let started_secs = self.world.now_secs();
        let mut links = Vec::with_capacity(k);
        let mut registration_refusals = 0;
        for &ip in ips {
            let (link, user, refusals) = self.register_link(ip);
            registration_refusals += refusals;
            links.push((link, user));
        }
        let registration_done_secs = self.world.now_secs();

        let mut report = SybilReport {
            identities: k as u64,
            registration_refusals,
            started_secs,
            registration_done_secs,
            finished_secs: registration_done_secs,
            total_delay_secs: 0.0,
            tuples: 0,
            refused_queries: 0,
            min_margin_secs: f64::INFINITY,
        };
        let mut states: Vec<StripeState> = (0..k)
            .map(|j| StripeState {
                next: j,
                inflight: None,
                resume_at: 0.0,
            })
            .collect();
        // Iterations since something last happened. A healthy pass either
        // sends, consumes an arrival, or advances virtual time; if none of
        // those occur for this long, the driver is livelocked — panic with
        // the full stripe/world state instead of spinning silently.
        let mut stalled: u32 = 0;
        loop {
            if stalled > 10_000 {
                let now = self.world.now_secs();
                let snapshot: Vec<String> = states
                    .iter()
                    .enumerate()
                    .map(|(j, s)| {
                        format!(
                            "id{j}: next={} inflight={} resume_at={:.9}",
                            s.next,
                            s.inflight.is_some(),
                            s.resume_at
                        )
                    })
                    .collect();
                panic!(
                    "swarm driver livelocked at virtual t={now:.9}s:\n{}\nworld: {}",
                    snapshot.join("\n"),
                    self.world.debug_snapshot()
                );
            }
            let mut active = false;
            let mut progressed = false;
            for (j, state) in states.iter_mut().enumerate() {
                let (link, user) = &mut links[j];
                // Issue the next query if this identity is idle.
                if state.inflight.is_none()
                    && state.next < ranks.len()
                    && self.world.now_secs() >= state.resume_at
                {
                    let rank = ranks[state.next];
                    let qid = self.next_query_id;
                    self.next_query_id += 1;
                    link.send(&Frame::Query {
                        query_id: qid,
                        user: *user,
                        sql: sql_for_rank(rank),
                    })
                    .expect("link alive");
                    state.inflight = Some(Pending {
                        qid,
                        rank,
                        sent_at_secs: self.world.now_secs(),
                    });
                    progressed = true;
                }
                if state.inflight.is_some() || state.next < ranks.len() {
                    active = true;
                }
                // Drain whatever has already arrived, without waiting.
                while let Some(arrival) = link.recv(0.0).expect("link alive") {
                    let Some(pending) = state.inflight.as_ref() else {
                        continue;
                    };
                    match arrival.frame {
                        Frame::Done {
                            query_id,
                            delay_secs,
                            tuples,
                        } if query_id == pending.qid => {
                            report.total_delay_secs += delay_secs;
                            report.tuples += tuples as u64;
                            let margin = (arrival.at_secs - pending.sent_at_secs) - delay_secs;
                            report.min_margin_secs = report.min_margin_secs.min(margin);
                            state.next += k;
                            state.inflight = None;
                            progressed = true;
                        }
                        Frame::Refused {
                            query_id,
                            retry_after_secs,
                            ..
                        } if query_id == pending.qid || query_id == 0 => {
                            report.refused_queries += 1;
                            state.resume_at = self.world.now_secs() + retry_after_secs + 1e-6;
                            state.inflight = None;
                            progressed = true;
                        }
                        Frame::Error { message, .. } => {
                            panic!("rank {}: {message}", pending.rank)
                        }
                        _ => {} // RowsBegin / Row frames
                    }
                }
            }
            if !active {
                break;
            }
            stalled = if progressed { 0 } else { stalled + 1 };
            if !progressed {
                // Nothing arrived and nobody could send: advance virtual
                // time to the next scheduled instant, or to the earliest
                // retry if the whole swarm is backing off.
                if !self.world.step_once() {
                    let now = self.world.now_secs();
                    let resume = states
                        .iter()
                        .filter(|s| s.inflight.is_none() && s.next < ranks.len())
                        .map(|s| s.resume_at)
                        .fold(f64::INFINITY, f64::min);
                    assert!(
                        resume.is_finite() && resume > now,
                        "swarm deadlocked: queries in flight but world idle"
                    );
                    self.world.run_for(resume - now);
                }
            }
        }
        report.finished_secs = self.world.now_secs();
        report
    }
}

struct Pending {
    qid: u32,
    rank: u64,
    sent_at_secs: f64,
}

struct StripeState {
    /// Index into the shared rank list of this identity's next query.
    next: usize,
    inflight: Option<Pending>,
    /// Earliest virtual time this identity may send (refusal backoff).
    resume_at: f64,
}
