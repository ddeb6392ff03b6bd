//! §2.4 adversary campaigns against the cluster.
//!
//! A [`ClusterCampaign`] is the paper's running example sharded over N
//! nodes: the `n`-tuple directory is split round-robin by key, each
//! node's shard is warmed with its slice of the Zipf counts
//! (`c_i = seed_scale · i^(−α)`), and — when replication is on — one
//! gossip round converges every node to the global distribution before
//! any client connects.
//!
//! Closed-form expectations:
//!
//! * **Replicated** (`sync_interval_secs > 0`): every node prices from
//!   the merged global aggregates, so both the sequential crawl and the
//!   shard-aware crawl pay the single-node Eq. 3 total and the median
//!   user sees the single-node Eq. 1 delay — up to the replication-lag
//!   slack ([`analysis::replication_lag_slack`]).
//! * **Un-replicated** (`sync_interval_secs == 0`): each node prices
//!   from its local shard only, and the adversary total collapses to
//!   [`analysis::sharded_unreplicated_total`] ≈ 1/N of the closed form
//!   — the negative control that motivates the delta-sync protocol.
//!
//! Charged totals are a function of the warmed popularity state (the
//! crawl's own accesses are a `1/seed_scale` perturbation), so they are
//! invariant to crawl order; the drivers still offer both the paper's
//! sequential order and the shard-grouped order a partition-aware
//! adversary would use.

use delayguard_core::analysis;
use delayguard_storage::RowId;
use delayguard_testkit::campaign::{self, CampaignParams, CrawlReport};
use delayguard_testkit::net::{self, QueryOutcome};
use delayguard_testkit::{MeshLink, SimConfig, SimWorld};
use delayguard_workload::{generalized_harmonic, Rng, Zipf};

/// Per-attempt timeout for a registration exchange (virtual seconds).
const REGISTER_TIMEOUT_SECS: f64 = 600.0;

/// Timeout for a single query: must exceed the largest per-tuple delay.
const QUERY_TIMEOUT_SECS: f64 = 50.0 * 86_400.0;

/// The sharded running example, parameterized.
#[derive(Debug, Clone)]
pub struct ClusterCampaignParams {
    /// The single-node campaign parameters (database size, skew, policy
    /// exponents, gatekeeper, tick).
    pub base: CampaignParams,
    /// Number of nodes the directory is sharded over.
    pub nodes: usize,
    /// Gossip cadence in virtual seconds; `0.0` disables replication
    /// (the negative control).
    pub sync_interval_secs: f64,
}

impl Default for ClusterCampaignParams {
    fn default() -> ClusterCampaignParams {
        ClusterCampaignParams {
            base: CampaignParams::default(),
            nodes: 4,
            // One virtual hour: sparse enough that a 35-day campaign
            // costs hundreds of gossip rounds, tight enough that the
            // lag slack is far below the closed-form tolerance.
            sync_interval_secs: 3600.0,
        }
    }
}

/// A simulated cluster seeded as the sharded running example.
pub struct ClusterCampaign {
    world: SimWorld,
    params: ClusterCampaignParams,
    /// Row id of the rank-`i` tuple (index `i − 1`), on its owning node.
    rids: Vec<RowId>,
    rng: Rng,
    next_query_id: u32,
}

impl ClusterCampaign {
    /// Build the cluster, create each node's `directory` shard, warm
    /// each shard with its slice of the Zipf counts — all at virtual
    /// time zero — and, when replication is on, run one gossip round so
    /// the warm state converges before any client connects.
    pub fn new(seed: u64, params: ClusterCampaignParams) -> ClusterCampaign {
        // Every node shares the folded shaping seed — a query must price
        // identically wherever its shard lives.
        let world = SimWorld::new(
            seed,
            SimConfig {
                nodes: params.nodes,
                sync_interval_secs: params.sync_interval_secs,
                ..params.base.sim_config(seed)
            },
        );
        let map = world.partition_map();
        let mut by_id: Vec<(u64, RowId)> = Vec::with_capacity(params.base.n as usize);
        for j in 0..params.nodes {
            let ids = map.ids_of(j, params.base.n);
            let rids = campaign::seed_directory(&world.db(j), ids.iter().copied(), &params.base);
            by_id.extend(ids.into_iter().zip(rids));
        }
        if params.sync_interval_secs > 0.0 {
            world.sync_now();
        }
        by_id.sort_unstable_by_key(|&(id, _)| id);
        ClusterCampaign {
            world,
            rids: by_id.into_iter().map(|(_, rid)| rid).collect(),
            rng: Rng::new(seed ^ 0x9e37_79b9_7f4a_7c15),
            params,
            next_query_id: 1,
        }
    }

    /// The underlying cluster (digest, metrics, partition control).
    pub fn world(&self) -> &SimWorld {
        &self.world
    }

    /// The campaign parameters.
    pub fn params(&self) -> &ClusterCampaignParams {
        &self.params
    }

    // ---- closed-form expectations -----------------------------------------

    /// The global `fmax` of the warmed distribution: `1 / H(n, α)`.
    pub fn fmax(&self) -> f64 {
        1.0 / generalized_harmonic(self.params.base.n, self.params.base.alpha)
    }

    /// The replicated policy's delay for global rank `i` (cap applied).
    pub fn analytic_delay_at_rank(&self, rank: u64) -> f64 {
        let b = &self.params.base;
        analysis::delay_at_rank(b.n, b.alpha, b.beta, self.fmax(), rank).min(b.cap_secs)
    }

    /// Eq. 3: total delay a full-crawl adversary pays against the
    /// *replicated* cluster (= the single-node closed form).
    pub fn analytic_total(&self) -> f64 {
        let b = &self.params.base;
        if b.cap_secs.is_finite() {
            analysis::adversary_total_capped(b.n, b.alpha, b.beta, self.fmax(), b.cap_secs)
        } else {
            analysis::adversary_total(b.n, b.alpha, b.beta, self.fmax())
        }
    }

    /// The total the same crawl pays against the *un-replicated*
    /// cluster: each shard prices from its local slice only.
    pub fn analytic_unreplicated_total(&self) -> f64 {
        let b = &self.params.base;
        analysis::sharded_unreplicated_total(b.n, self.params.nodes as u64, b.alpha, b.beta)
    }

    /// The rank the median user query lands on.
    pub fn median_rank(&self) -> u64 {
        analysis::median_rank_exact(self.params.base.n, self.params.base.alpha)
    }

    /// Relative tolerance for closed-form assertions: the paper's 10%
    /// plus the replication-lag slack — between gossip rounds, up to
    /// `rate · sync_interval` crawl accesses are priced before they
    /// replicate, a perturbation relative to the weakest warm count.
    pub fn tolerance(&self) -> f64 {
        let b = &self.params.base;
        if self.params.sync_interval_secs <= 0.0 {
            return 0.10;
        }
        let weakest_warm = b.seed_scale * (b.n as f64).powf(-b.alpha);
        let crawl_rate = b.n as f64 / self.analytic_total();
        0.10 + analysis::replication_lag_slack(
            weakest_warm,
            crawl_rate,
            self.params.sync_interval_secs,
        )
    }

    /// Every rank in the paper's sequential crawl order `1..=n` — which
    /// already round-robins across shards (rank `i` lives on node
    /// `(i−1) mod N`).
    pub fn all_ranks(&self) -> Vec<u64> {
        (1..=self.params.base.n).collect()
    }

    /// Every rank grouped by owning shard (node 0's ranks ascending,
    /// then node 1's, ...): the order a partition-aware adversary uses
    /// to drain one shard at a time.
    pub fn shard_grouped_ranks(&self) -> Vec<u64> {
        let map = self.world.partition_map();
        (0..map.nodes())
            .flat_map(|j| map.ids_of(j, self.params.base.n))
            .map(|id| id + 1)
            .collect()
    }

    /// `count` ranks sampled from the user's Zipf(α) distribution,
    /// deterministic per campaign seed.
    pub fn zipf_ranks(&mut self, count: u64) -> Vec<u64> {
        let zipf = Zipf::new(self.params.base.n, self.params.base.alpha);
        (0..count).map(|_| zipf.sample(&mut self.rng)).collect()
    }

    // ---- drivers ----------------------------------------------------------

    fn register_link(&mut self, ip: [u8; 4]) -> (MeshLink, u64) {
        let mut link = self.world.connect_link(ip);
        let (user, _) =
            net::register_until_admitted(&mut self.world, &mut link, [0; 4], REGISTER_TIMEOUT_SECS)
                .expect("registration");
        (link, user)
    }

    fn fresh_query_id(&mut self) -> u32 {
        let id = self.next_query_id;
        self.next_query_id += 1;
        id
    }

    /// One identity from `ip` crawls `ranks` in order through the
    /// router, honoring refusal hints, accumulating the owning node's
    /// own delay accounting.
    pub fn sequential_crawl(&mut self, ip: [u8; 4], ranks: &[u64]) -> CrawlReport {
        let (link, user) = self.register_link(ip);
        self.run_crawl(link, user, ranks)
    }

    /// [`ClusterCampaign::sequential_crawl`] over a connection pinned
    /// straight to `node`, bypassing the router — the direct-node
    /// baseline the router hop is benchmarked against. Every rank in
    /// `ranks` must be owned by `node` (the pinned node refuses nothing,
    /// but only its own shard's rows exist there).
    pub fn direct_crawl(&mut self, node: usize, ip: [u8; 4], ranks: &[u64]) -> CrawlReport {
        let mut link = self.world.connect_node_link(node, ip);
        let (user, _) =
            net::register_until_admitted(&mut self.world, &mut link, [0; 4], REGISTER_TIMEOUT_SECS)
                .expect("registration");
        self.run_crawl(link, user, ranks)
    }

    fn run_crawl(&mut self, mut link: MeshLink, user: u64, ranks: &[u64]) -> CrawlReport {
        let started_secs = self.world.now_secs();
        campaign::crawl(
            &self.world,
            &mut link,
            user,
            ranks,
            &mut self.next_query_id,
            started_secs,
        )
    }

    /// One fresh identity queries the median rank once and returns the
    /// charged delay (the median legitimate user's experience).
    pub fn median_user_delay(&mut self, ip: [u8; 4]) -> f64 {
        let rank = self.median_rank();
        self.probe_delay(ip, rank)
    }

    /// One fresh identity queries `rank` once and returns the charged
    /// delay — the pricing currently in force on the owning node.
    pub fn probe_delay(&mut self, ip: [u8; 4], rank: u64) -> f64 {
        let (mut link, user) = self.register_link(ip);
        let sql = campaign::sql_for_rank(rank);
        let qid = self.fresh_query_id();
        match net::run_query(&mut link, qid, user, &sql, QUERY_TIMEOUT_SECS).expect("link alive") {
            QueryOutcome::Rows { delay_secs, .. } => delay_secs,
            other => panic!("probe did not stream rows: {other:?}"),
        }
    }

    /// Add `extra` decayed accesses to the rank-`rank` tuple on its
    /// owning node at the current virtual time — a traffic shift whose
    /// effect reaches every other node only through delta-sync.
    pub fn shift_traffic(&self, rank: u64, extra: f64) {
        let id = rank - 1;
        let node = self.world.partition_map().node_for_id(id);
        let rid = self.rids[id as usize];
        self.world
            .db(node)
            .warm_accesses("directory", &[(rid, extra)], self.world.now_secs());
    }
}
