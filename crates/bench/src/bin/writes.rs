//! Write-path bench: mutation throughput through the front door, the
//! read-side price of the combined access+update policy, and the
//! measured §3 stale fraction against the Eq. 11/12 closed form.
//! Writes `BENCH_writes.json` at the repo root.
//!
//! ```text
//! cargo run -p delayguard-bench --release --bin writes
//! cargo run -p delayguard-bench --release --bin writes -- --smoke
//! ```
//!
//! Three numbers summarize the write path:
//!
//! * **Mutation qps.** Wall-clock throughput of INSERT/UPDATE/DELETE
//!   frames through the full stack — codec, gatekeeper, reserve-before-
//!   apply admission, engine, index maintenance, `MUTATED` reply.
//!   Mutations are never delayed, so this is pure processing cost.
//! * **Read overhead.** The same seeded point-read workload through the
//!   wire under the plain access-rate policy and under the combined
//!   `Hybrid(access, update)` policy with a live, warmed update term.
//!   The hybrid read path adds one update-tracker lookup and a
//!   max-combine per priced tuple; the gate holds the wall-clock ratio
//!   to ≤ 1.1x on full runs (timing ratios on shared CI runners are
//!   noise, so smoke records but does not enforce).
//! * **Stale fraction.** The [`StalenessCampaign`] race — a live UPDATE
//!   stream against a hottest-first extraction crawl in virtual time —
//!   must land within 10% of `stale_fraction_exact`. The race is
//!   virtual-clock deterministic, so this gate holds even in smoke.

use delayguard_core::access::AccessDelayPolicy;
use delayguard_core::gatekeeper::{GatekeeperConfig, RegistrationPolicy};
use delayguard_core::policy::GuardPolicy;
use delayguard_core::update::UpdateDelayPolicy;
use delayguard_core::GuardConfig;
use delayguard_query::StatementOutput;
use delayguard_server::gate::{GateConfig, MutationVerb};
use delayguard_storage::RowId;
use delayguard_testkit::net::{self, MutationOutcome, QueryOutcome};
use delayguard_testkit::world::{MeshLink, SimConfig, SimWorld};
use delayguard_testkit::{StalenessCampaign, StalenessParams, StalenessReport};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Pinned seed: the bench is a measurement, not a property sweep; the
/// campaign suites cover random seeds.
const SEED: u64 = 2004;

/// Full-run gate on the combined-policy read path.
const READ_OVERHEAD_MAX: f64 = 1.1;
/// Relative tolerance on the measured stale fraction (both modes).
const STALE_TOLERANCE: f64 = 0.10;

fn wide_open() -> GatekeeperConfig {
    GatekeeperConfig {
        per_user_rate: 1e9,
        per_user_burst: 1e9,
        per_subnet_rate: 1e9,
        per_subnet_burst: 1e9,
        registration: RegistrationPolicy::interval(0.0),
        storefront_query_threshold: 0,
    }
}

/// A simulated deployment with `rows` directory entries, a registered
/// client link, and (for hybrid worlds) a warmed update tracker so the
/// update term prices from real rates instead of the cap.
struct Bench {
    _world: SimWorld,
    link: MeshLink,
    user: u64,
    next_qid: u32,
}

impl Bench {
    fn new(policy: GuardPolicy, rows: u64, warm_secs: f64) -> Bench {
        let world = SimWorld::new(
            SEED,
            SimConfig {
                guard: GuardConfig::paper_default().with_policy(policy),
                gate: GateConfig {
                    gatekeeper: wide_open(),
                    ..GateConfig::default()
                },
                tick: Duration::from_millis(1),
                send_queue_rows: 4096,
                ..SimConfig::default()
            },
        );
        let db = world.db(0);
        db.execute_at(
            "CREATE TABLE directory (id INT NOT NULL, entry TEXT NOT NULL)",
            0.0,
        )
        .expect("create table");
        db.execute_at("CREATE UNIQUE INDEX directory_pk ON directory (id)", 0.0)
            .expect("create index");
        let mut rids: Vec<RowId> = Vec::with_capacity(rows as usize);
        for id in 0..rows {
            let resp = db
                .execute_at(
                    &format!("INSERT INTO directory VALUES ({id}, 'entry-{id}')"),
                    0.0,
                )
                .expect("insert row");
            match resp.output {
                StatementOutput::Inserted { rids: mut r } => {
                    rids.push(r.pop().expect("one rid per insert"))
                }
                other => panic!("unexpected insert output: {other:?}"),
            }
        }
        if warm_secs > 0.0 && !rids.is_empty() {
            // Zipf(1) update history: both worlds get identical warm
            // counts so the only difference is the pricing policy.
            let counts: Vec<(RowId, f64)> = rids
                .iter()
                .enumerate()
                .map(|(i, &rid)| (rid, 2.0 / (i + 1) as f64 * warm_secs))
                .collect();
            db.warm_updates("directory", &counts, 0.0);
        }
        world.run_for(warm_secs.max(1.0));
        let mut world = world;
        let mut link = world.connect_link([10, 0, 0, 1]);
        let (user, _) = net::register_until_admitted(&mut world, &mut link, [0; 4], 600.0)
            .expect("registration");
        Bench {
            _world: world,
            link,
            user,
            next_qid: 1,
        }
    }

    fn qid(&mut self) -> u32 {
        let q = self.next_qid;
        self.next_qid += 1;
        q
    }

    fn mutate(&mut self, verb: MutationVerb, sql: &str) -> u32 {
        let qid = self.qid();
        match net::run_mutation(&mut self.link, qid, self.user, verb, sql, 60.0)
            .expect("link alive")
        {
            MutationOutcome::Mutated { rows, .. } => rows,
            other => panic!("{sql}: {other:?}"),
        }
    }

    fn read(&mut self, id: u64) -> f64 {
        let qid = self.qid();
        let sql = format!("SELECT * FROM directory WHERE id = {id}");
        match net::run_query(&mut self.link, qid, self.user, &sql, 365.0 * 86400.0)
            .expect("link alive")
        {
            QueryOutcome::Rows { delay_secs, .. } => delay_secs,
            other => panic!("id {id}: {other:?}"),
        }
    }
}

/// Wall-clock throughput of the mutation pipeline: `inserts` fresh rows,
/// one UPDATE per row, then DELETE of every even id — all through the
/// wire under the production hybrid policy.
struct MutationRun {
    mutations: u64,
    elapsed_secs: f64,
    qps: f64,
}

fn measure_mutations(inserts: u64) -> MutationRun {
    let policy = GuardPolicy::Hybrid(
        AccessDelayPolicy::new(1.0, 1.0),
        UpdateDelayPolicy::new(0.3).with_cap(10.0),
    );
    // Start empty: the insert leg is part of the measurement.
    let mut bench = Bench::new(policy, 0, 0.0);
    let deletes = inserts / 2;
    let wall = Instant::now();
    for id in 0..inserts {
        let rows = bench.mutate(
            MutationVerb::Insert,
            &format!("INSERT INTO directory VALUES ({id}, 'entry-{id}')"),
        );
        assert_eq!(rows, 1, "insert {id}");
    }
    for id in 0..inserts {
        let rows = bench.mutate(
            MutationVerb::Update,
            &format!("UPDATE directory SET entry = 'touched' WHERE id = {id}"),
        );
        assert_eq!(rows, 1, "update {id}");
    }
    for id in (0..inserts).filter(|id| id % 2 == 0).take(deletes as usize) {
        let rows = bench.mutate(
            MutationVerb::Delete,
            &format!("DELETE FROM directory WHERE id = {id}"),
        );
        assert_eq!(rows, 1, "delete {id}");
    }
    let elapsed_secs = wall.elapsed().as_secs_f64();
    let mutations = inserts * 2 + deletes;
    MutationRun {
        mutations,
        elapsed_secs,
        qps: mutations as f64 / elapsed_secs,
    }
}

/// One policy's read measurement: `batches` timed batches of
/// `passes × rows` point reads; the best batch is the comparison basis
/// (minimum filters scheduler noise the same way on both worlds).
struct ReadRun {
    queries: u64,
    best_batch_secs: f64,
    qps: f64,
    virtual_delay_secs: f64,
}

fn measure_reads(policy: GuardPolicy, rows: u64, passes: u32, batches: u32) -> ReadRun {
    let mut bench = Bench::new(policy, rows, 10_000.0);
    let per_batch = passes as u64 * rows;
    let mut best = f64::INFINITY;
    let mut virtual_delay_secs = 0.0;
    for _ in 0..batches {
        let wall = Instant::now();
        for _ in 0..passes {
            for id in 0..rows {
                virtual_delay_secs += bench.read(id);
            }
        }
        best = best.min(wall.elapsed().as_secs_f64());
    }
    ReadRun {
        queries: per_batch * batches as u64,
        best_batch_secs: best,
        qps: per_batch as f64 / best,
        virtual_delay_secs,
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let wall = Instant::now();

    let (inserts, rows, passes, batches) = if smoke {
        (256u64, 64u64, 2u32, 3u32)
    } else {
        (2048, 128, 8, 3)
    };

    eprintln!(
        "mutation pipeline, hybrid policy ({} inserts + updates + deletes{})",
        inserts,
        if smoke { ", smoke" } else { "" }
    );
    let mutation = measure_mutations(inserts);
    eprintln!(
        "  {} mutations in {:.3}s wall: {:.0} qps",
        mutation.mutations, mutation.elapsed_secs, mutation.qps
    );

    let access = AccessDelayPolicy::new(1.5, 1.0);
    eprintln!(
        "read path, plain access-rate policy ({rows} rows x {passes} passes x {batches} batches)"
    );
    let plain = measure_reads(GuardPolicy::AccessRate(access), rows, passes, batches);
    eprintln!(
        "  best batch {:.4}s ({:.0} qps), {:.2} virtual delay-seconds charged",
        plain.best_batch_secs, plain.qps, plain.virtual_delay_secs
    );
    eprintln!("read path, combined access+update policy (live warmed update term)");
    let hybrid = measure_reads(
        GuardPolicy::Hybrid(access, UpdateDelayPolicy::new(0.3).with_cap(10.0)),
        rows,
        passes,
        batches,
    );
    eprintln!(
        "  best batch {:.4}s ({:.0} qps), {:.2} virtual delay-seconds charged",
        hybrid.best_batch_secs, hybrid.qps, hybrid.virtual_delay_secs
    );
    let overhead = hybrid.best_batch_secs / plain.best_batch_secs;
    eprintln!("  combined-policy read overhead: {overhead:.3}x (gate <= {READ_OVERHEAD_MAX}x on full runs)");

    eprintln!("§3 staleness race (n = 512, alpha = 1, c = 0.3)");
    let mut campaign = StalenessCampaign::new(SEED, StalenessParams::default());
    let report = campaign.run();
    eprintln!(
        "  stale {}/{} = {:.4} (exact form {:.4}, S_max {:.4}); {} updates, crawl {:.1}s virtual, mean age {:.1}s",
        report.stale,
        report.n,
        report.stale_fraction,
        report.expected_fraction,
        report.smax,
        report.updates_issued,
        report.crawl_secs,
        report.mean_age_secs
    );

    let elapsed = wall.elapsed().as_secs_f64();
    eprintln!("{elapsed:.2}s wall total");

    let path = output_path();
    std::fs::write(
        &path,
        render_json(
            smoke, &mutation, &plain, &hybrid, overhead, &report, elapsed,
        ),
    )
    .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    eprintln!("wrote {}", path.display());

    let fail = |cond: bool, msg: &str| {
        if cond {
            eprintln!("FAIL: {msg}");
            std::process::exit(1);
        }
    };
    // The staleness race runs on the virtual clock: deterministic, so
    // enforced even in smoke.
    let stale_err =
        (report.stale_fraction - report.expected_fraction).abs() / report.expected_fraction;
    fail(
        stale_err > STALE_TOLERANCE,
        &format!(
            "stale fraction {:.4} is {:.1}% off the closed form {:.4}",
            report.stale_fraction,
            stale_err * 100.0,
            report.expected_fraction
        ),
    );
    fail(
        report.min_margin_secs < -1e-6,
        &format!("early release: margin {}", report.min_margin_secs),
    );
    // Wall-clock ratios are noise on shared runners: full runs only.
    if !smoke {
        fail(
            overhead > READ_OVERHEAD_MAX,
            &format!("combined-policy read overhead {overhead:.3}x > {READ_OVERHEAD_MAX}x"),
        );
    }
}

/// `BENCH_writes.json` at the repository root.
fn output_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_writes.json")
}

fn render_json(
    smoke: bool,
    mutation: &MutationRun,
    plain: &ReadRun,
    hybrid: &ReadRun,
    overhead: f64,
    report: &StalenessReport,
    wall_secs: f64,
) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"writes\",\n");
    out.push_str(&format!("  \"smoke\": {smoke},\n"));
    out.push_str(&format!("  \"seed\": {SEED},\n"));
    out.push_str("  \"mutations\": {\n");
    out.push_str(&format!("    \"count\": {},\n", mutation.mutations));
    out.push_str(&format!(
        "    \"elapsed_secs\": {:.6},\n",
        mutation.elapsed_secs
    ));
    out.push_str(&format!("    \"qps\": {:.2}\n", mutation.qps));
    out.push_str("  },\n");
    out.push_str("  \"reads\": {\n");
    out.push_str(&format!(
        "    \"access_rate\": {{\"queries\": {}, \"best_batch_secs\": {:.6}, \"qps\": {:.2}, \"virtual_delay_secs\": {:.4}}},\n",
        plain.queries, plain.best_batch_secs, plain.qps, plain.virtual_delay_secs
    ));
    out.push_str(&format!(
        "    \"hybrid\": {{\"queries\": {}, \"best_batch_secs\": {:.6}, \"qps\": {:.2}, \"virtual_delay_secs\": {:.4}}},\n",
        hybrid.queries, hybrid.best_batch_secs, hybrid.qps, hybrid.virtual_delay_secs
    ));
    out.push_str(&format!("    \"overhead\": {overhead:.4},\n"));
    out.push_str(&format!("    \"overhead_max\": {READ_OVERHEAD_MAX}\n"));
    out.push_str("  },\n");
    out.push_str("  \"staleness\": {\n");
    out.push_str(&format!("    \"n\": {},\n", report.n));
    out.push_str(&format!(
        "    \"stale_fraction\": {:.6},\n",
        report.stale_fraction
    ));
    out.push_str(&format!(
        "    \"expected_fraction\": {:.6},\n",
        report.expected_fraction
    ));
    out.push_str(&format!("    \"smax\": {:.6},\n", report.smax));
    out.push_str(&format!(
        "    \"updates_issued\": {},\n",
        report.updates_issued
    ));
    out.push_str(&format!("    \"crawl_secs\": {:.4},\n", report.crawl_secs));
    out.push_str(&format!(
        "    \"total_delay_secs\": {:.4},\n",
        report.total_delay_secs
    ));
    out.push_str(&format!(
        "    \"mean_age_secs\": {:.4},\n",
        report.mean_age_secs
    ));
    out.push_str(&format!(
        "    \"max_age_secs\": {:.4},\n",
        report.max_age_secs
    ));
    out.push_str(&format!(
        "    \"min_margin_secs\": {:.6}\n",
        report.min_margin_secs
    ));
    out.push_str("  },\n");
    out.push_str(&format!("  \"wall_secs\": {wall_secs:.3},\n"));
    out.push_str(
        "  \"acceptance\": \"measured stale fraction within 10% of the Eq. 11/12 closed form \
         and no early release (enforced on every run: the race is virtual-clock \
         deterministic); combined-policy read path <= 1.1x the plain access-rate wall cost \
         (full runs only: wall ratios on shared runners are noise)\"\n",
    );
    out.push('}');
    out.push('\n');
    out
}
