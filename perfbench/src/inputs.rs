//! Seeded inputs: table contents, the popularity rank order, and the
//! operation stream of each workload.
//!
//! Everything here is a pure function of `--seed` and the frozen
//! parameters below, which each workload's `why` in `BENCHMARK.json`
//! records (N, α, cap, window, rate, write share). The server only ever
//! sees the SQL these generators produce; every expectation the output
//! checks use is derived here too.

use delayguard_workload::rng::splitmix64;
use delayguard_workload::{Rng, Zipf};
use std::collections::HashMap;

/// Table rows.
pub const N: u64 = 131_072;
/// Zipf parameter of the traffic and `α` of the access-rate policy.
pub const ALPHA: f64 = 1.5;
/// Per-tuple delay cap, seconds (both policy terms).
pub const CAP: f64 = 0.05;
/// Rows a `range_scan` query covers.
pub const RANGE_ROWS: u64 = 1024;
/// Total warm-up accesses spread over the table by Zipf weight.
pub const WARM_ACCESSES: f64 = 4_194_304.0;
/// Total warm-up updates spread over the table by Zipf weight
/// (`mixed_rw` only): enough that every key's update term prices below
/// the cap, so the access term decides the charged delay.
pub const WARM_UPDATES: f64 = 65_536.0;

/// The three traffic mixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PointZipf,
    RangeScan,
    MixedRw,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "point_zipf" => Some(Workload::PointZipf),
            "range_scan" => Some(Workload::RangeScan),
            "mixed_rw" => Some(Workload::MixedRw),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::PointZipf => "point_zipf",
            Workload::RangeScan => "range_scan",
            Workload::MixedRw => "mixed_rw",
        }
    }

    /// Whether the workload's own stream carries writes.
    pub fn writes(self) -> bool {
        self == Workload::MixedRw
    }

    /// Closed-loop window: operations outstanding on the connection.
    pub fn window(self) -> usize {
        match self {
            Workload::RangeScan => 256,
            _ => 4096,
        }
    }

    /// Open-loop rate, operations per second.
    pub fn rate(self) -> f64 {
        match self {
            Workload::RangeScan => 250.0,
            _ => 12_500.0,
        }
    }

    /// Share of the workload's own operations that are UPDATEs.
    pub fn write_share(self) -> f64 {
        match self {
            Workload::MixedRw => 0.1,
            _ => 0.0,
        }
    }

    /// Rows each operation of the workload's own stream returns.
    pub fn rows_per_op(self) -> usize {
        match self {
            Workload::RangeScan => RANGE_ROWS as usize,
            _ => 1,
        }
    }
}

/// What a reply to one operation must look like.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// `SELECT * FROM t WHERE id = key`: one row.
    Point,
    /// `SELECT * FROM t WHERE id >= key AND id < key + RANGE_ROWS`.
    Range,
    /// `UPDATE t SET body = body_of(version) WHERE id = key`.
    Write,
}

/// One generated operation.
#[derive(Debug, Clone, Copy)]
pub struct Op {
    pub kind: OpKind,
    pub key: u64,
    /// Reads: the body version the row must carry (0 = as seeded).
    /// Writes: the version this write installs.
    pub version: u64,
}

impl Op {
    /// Rows a correct reply carries.
    pub fn expected_rows(&self) -> u32 {
        match self.kind {
            OpKind::Point => 1,
            OpKind::Range => RANGE_ROWS as u32,
            OpKind::Write => 0,
        }
    }

    pub fn sql(&self, data: &Dataset) -> String {
        match self.kind {
            OpKind::Point => format!("SELECT * FROM t WHERE id = {}", self.key),
            OpKind::Range => format!(
                "SELECT * FROM t WHERE id >= {} AND id < {}",
                self.key,
                self.key + RANGE_ROWS
            ),
            OpKind::Write => format!(
                "UPDATE t SET body = '{}' WHERE id = {}",
                data.body(self.key, self.version),
                self.key
            ),
        }
    }
}

/// The seeded table and its popularity order.
pub struct Dataset {
    pub n: u64,
    seed: u64,
    /// `by_rank[r - 1]` is the id of the tuple at popularity rank `r`.
    pub by_rank: Vec<u64>,
    zipf: Zipf,
    /// Seeded bodies, indexed by id.
    initial: Vec<String>,
}

impl Dataset {
    pub fn new(seed: u64) -> Dataset {
        let n = N;
        let mut rng = Rng::new(seed ^ 0x0074_6162_6c65);
        // Fisher-Yates: hot tuples are scattered over the id space, so a
        // range scan meets them at their natural density.
        let mut by_rank: Vec<u64> = (0..n).collect();
        for i in (1..by_rank.len()).rev() {
            let j = rng.below(i as u64 + 1) as usize;
            by_rank.swap(i, j);
        }
        let initial = (0..n)
            .map(|id| {
                let mut s = seed ^ id.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                format!("b{:016x}", splitmix64(&mut s))
            })
            .collect();
        Dataset {
            n,
            seed,
            by_rank,
            zipf: Zipf::new(n, ALPHA),
            initial,
        }
    }

    /// The body of `id` after the write that installed `version`
    /// (0 = the seeded body).
    pub fn body(&self, id: u64, version: u64) -> String {
        if version == 0 {
            return self.initial[id as usize].clone();
        }
        let mut s = self.seed ^ version.wrapping_mul(0xD1B5_4A32_D192_ED03);
        format!("u{:016x}", splitmix64(&mut s))
    }

    /// Whether `body` is what `id` holds at `version`, without building
    /// the seeded body.
    pub fn body_matches(&self, id: u64, version: u64, body: &str) -> bool {
        if version == 0 {
            return self.initial.get(id as usize).is_some_and(|b| b == body);
        }
        body == self.body(id, version)
    }

    /// The `INSERT` statements that seed the table, 256 rows each.
    pub fn insert_batches(&self) -> Vec<String> {
        let mut out = Vec::new();
        let mut id = 0;
        while id < self.n {
            let end = (id + 256).min(self.n);
            let values: Vec<String> = (id..end)
                .map(|k| format!("({k}, '{}')", self.initial[k as usize]))
                .collect();
            out.push(format!("INSERT INTO t VALUES {}", values.join(", ")));
            id = end;
        }
        out
    }

    /// Zipf weight of each rank, scaled to `total` units, keyed by id.
    pub fn zipf_counts(&self, total: f64) -> Vec<(u64, f64)> {
        (1..=self.n)
            .map(|rank| {
                (
                    self.by_rank[rank as usize - 1],
                    total * self.zipf.probability(rank),
                )
            })
            .collect()
    }

    fn zipf_key(&self, rng: &mut Rng) -> u64 {
        self.by_rank[self.zipf.sample(rng) as usize - 1]
    }
}

/// Sequential generator of one run's operations. Expected bodies follow
/// the order operations are sent in: one connection, and the server
/// executes a connection's frames in order.
pub struct OpGen {
    rng: Rng,
    /// Last version written per key.
    written: HashMap<u64, u64>,
    /// Versions handed out so far.
    versions: u64,
}

impl OpGen {
    pub fn new(seed: u64) -> OpGen {
        OpGen {
            rng: Rng::new(seed ^ 0x6f70_7300),
            written: HashMap::new(),
            versions: 0,
        }
    }

    /// The next operation of `workload`'s own stream.
    pub fn next(&mut self, workload: Workload, data: &Dataset) -> Op {
        match workload {
            Workload::PointZipf => self.point(data),
            Workload::RangeScan => {
                let key = self.rng.below(data.n - RANGE_ROWS + 1);
                Op {
                    kind: OpKind::Range,
                    key,
                    version: 0,
                }
            }
            Workload::MixedRw => {
                if self.rng.next_f64() < workload.write_share() {
                    self.write(data)
                } else {
                    self.point(data)
                }
            }
        }
    }

    /// A Zipf point read.
    pub fn point(&mut self, data: &Dataset) -> Op {
        let key = data.zipf_key(&mut self.rng);
        self.read(key)
    }

    /// A point read of `key`, expecting its latest written body.
    pub fn read(&self, key: u64) -> Op {
        Op {
            kind: OpKind::Point,
            key,
            version: self.written.get(&key).copied().unwrap_or(0),
        }
    }

    /// A Zipf-keyed UPDATE installing a fresh version.
    pub fn write(&mut self, data: &Dataset) -> Op {
        let key = data.zipf_key(&mut self.rng);
        self.versions += 1;
        self.written.insert(key, self.versions);
        Op {
            kind: OpKind::Write,
            key,
            version: self.versions,
        }
    }

    /// Every key written so far, sorted.
    pub fn written_keys(&self) -> Vec<u64> {
        let mut keys: Vec<u64> = self.written.keys().copied().collect();
        keys.sort_unstable();
        keys
    }
}
