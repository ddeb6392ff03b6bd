//! Concurrent-throughput sweep runner: measures guarded-query qps at
//! 1/2/4/8 threads on the lock-free snapshot path and the prepared
//! zero-copy pipeline, and writes `BENCH_throughput.json` at the repo
//! root.
//!
//! ```text
//! cargo run -p delayguard-bench --release --bin throughput
//! cargo run -p delayguard-bench --release --bin throughput -- --smoke
//! ```
//!
//! `--smoke` runs a tiny shape for CI: it checks the harness end to end
//! and still enforces the allocation budget (allocation counts are exact,
//! not load-dependent), but skips the timing gates (qps on shared CI
//! runners is noise; the acceptance numbers come from the full run).

use delayguard_bench::throughput::{
    measure_hot_path, run_with_stats_storm, seeded_db, sweep, sweep_prepared, HotPathMeters,
    ThroughputConfig, ThroughputSample,
};
use std::path::PathBuf;

#[path = "../alloc_count.rs"]
mod alloc_count;

const THREADS: &[usize] = &[1, 2, 4, 8];

/// Committed pre-PR single-thread qps of the then-best path
/// (`snapshot_sharded`, ad-hoc statements through
/// `execute_stmt_with_deadline`), from `BENCH_throughput.json` as of the
/// streaming-executor PR. The zero-copy gate measures against this fixed
/// snapshot, so a regression in the new pipeline cannot hide behind a
/// faster machine re-measuring its own baseline.
const PRE_PR_SINGLE_THREAD_QPS: f64 = 51_798.19;
/// Committed 8-thread qps of the retired global-mutex design (exact
/// pricing behind one guard mutex), from `BENCH_throughput.json` as of
/// the last build that still had it. The parallel-scaling gate measures
/// `snapshot_sharded` against this fixed figure.
const LOCKED_8_THREAD_QPS: f64 = 44_306.27;
/// Full runs on >= 8 hardware threads must beat the recorded locked
/// baseline by at least this factor at 8 threads.
const EIGHT_THREAD_SPEEDUP_MIN: f64 = 3.0;
/// Full runs must beat the recorded baseline by at least this factor on
/// one thread. Single-thread speedup needs no hardware parallelism, so
/// unlike the 8-thread scaling gate it is enforced on every full run.
const SINGLE_THREAD_SPEEDUP_MIN: f64 = 3.0;
/// Steady-state allocations per query through the prepared pipeline.
/// Currently: one queue node for the recorded access event and one keys
/// vector inside it. Enforced even in smoke — counts are exact.
const ALLOCS_PER_QUERY_MAX: f64 = 2.0;

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let shape = if smoke {
        ThroughputConfig::smoke()
    } else {
        ThroughputConfig::default()
    };
    let hardware_threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    eprintln!(
        "concurrent throughput sweep: {} rows, {} rows/query, {} queries/thread, \
         {hardware_threads} hardware threads{}",
        shape.rows,
        shape.rows_per_query,
        shape.queries_per_thread,
        if smoke { " (smoke)" } else { "" }
    );

    eprintln!("-- snapshot_sharded (lock-free read path) --");
    let snapshot = sweep(&shape, THREADS);
    print_samples(&snapshot);
    eprintln!("-- prepared_zero_copy (allocation-free hot path) --");
    let prepared = sweep_prepared(&shape, THREADS);
    print_samples(&prepared);

    let speedup_at_8 = at_threads(&snapshot, 8).qps / LOCKED_8_THREAD_QPS;
    eprintln!(
        "snapshot at 8 threads: {speedup_at_8:.2}x the recorded {LOCKED_8_THREAD_QPS:.0} qps \
         locked baseline"
    );

    let prepared_1t = at_threads(&prepared, 1);
    let single_thread_speedup = prepared_1t.qps / PRE_PR_SINGLE_THREAD_QPS;
    eprintln!(
        "zero-copy single-thread: {:.0} qps, {single_thread_speedup:.2}x the recorded \
         {PRE_PR_SINGLE_THREAD_QPS:.0} qps baseline (gate: >= {SINGLE_THREAD_SPEEDUP_MIN}x{})",
        prepared_1t.qps,
        if smoke { ", not enforced in smoke" } else { "" }
    );

    // Steady-state allocation and copy accounting on the measuring
    // thread, via the counting global allocator this binary installs.
    let meters = measure_hot_path(&seeded_db(&shape), &shape, &alloc_count::count);
    eprintln!(
        "hot path: {:.3} allocs/query (budget {ALLOCS_PER_QUERY_MAX}), \
         {:.1} bytes copied/row",
        meters.allocs_per_query, meters.bytes_copied_per_row
    );

    // Satellite experiment: 4 query workers racing a stats storm. The
    // exact inspection path takes the refresh and shard locks the
    // refresher uses; the snapshot path's reads never touch them.
    eprintln!("-- stats storm interference (4 workers + 1 stats thread) --");
    let storm_exact = run_with_stats_storm(&seeded_db(&shape), 4, &shape, true);
    eprintln!("  exact tuple_delay:    {:>10.0} qps", storm_exact.qps);
    let storm_snapshot = run_with_stats_storm(&seeded_db(&shape), 4, &shape, false);
    eprintln!("  snapshot_tuple_delay: {:>10.0} qps", storm_snapshot.qps);

    let path = output_path();
    std::fs::write(
        &path,
        render_json(
            &shape,
            &snapshot,
            &prepared,
            &meters,
            single_thread_speedup,
            speedup_at_8,
            &storm_exact,
            &storm_snapshot,
            hardware_threads,
            smoke,
        ),
    )
    .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    eprintln!("wrote {}", path.display());

    // Allocation counts are exact and machine-independent: enforced on
    // every run, smoke included.
    if meters.allocs_per_query > ALLOCS_PER_QUERY_MAX {
        eprintln!(
            "FAIL: hot path allocates {:.3} per query, budget is {ALLOCS_PER_QUERY_MAX}",
            meters.allocs_per_query
        );
        std::process::exit(1);
    }
    // The single-thread zero-copy gate needs no parallelism: enforced on
    // every full run regardless of hardware_threads.
    if !smoke && single_thread_speedup < SINGLE_THREAD_SPEEDUP_MIN {
        eprintln!(
            "FAIL: zero-copy path is {single_thread_speedup:.2}x the recorded single-thread \
             baseline, need >= {SINGLE_THREAD_SPEEDUP_MIN}x"
        );
        std::process::exit(1);
    }
    // The >= 3x parallel-scaling gate measures contention, which needs
    // real hardware parallelism: on a machine that cannot run 8 workers
    // concurrently the sweep degenerates to time-slicing the cores it
    // has. Record the numbers either way, enforce only where the
    // measurement is meaningful.
    if !smoke && hardware_threads >= 8 && speedup_at_8 < EIGHT_THREAD_SPEEDUP_MIN {
        eprintln!(
            "FAIL: snapshot path is {speedup_at_8:.2}x the recorded locked baseline at 8 \
             threads, need >= {EIGHT_THREAD_SPEEDUP_MIN}x"
        );
        std::process::exit(1);
    }
    if hardware_threads < 8 {
        eprintln!(
            "note: {hardware_threads} hardware thread(s); the 8-thread speedup gate needs >= 8 \
             and was recorded but not enforced"
        );
    }
}

fn print_samples(samples: &[ThroughputSample]) {
    for s in samples {
        eprintln!(
            "  {:>2} threads: {:>10.0} qps ({:>12.0} tuples/s, {:.3}s)",
            s.threads, s.qps, s.tuples_per_sec, s.elapsed_secs
        );
    }
}

fn at_threads(samples: &[ThroughputSample], threads: usize) -> &ThroughputSample {
    samples
        .iter()
        .find(|s| s.threads == threads)
        .expect("swept thread count")
}

/// `BENCH_throughput.json` at the repository root (two levels above this
/// crate's manifest).
fn output_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_throughput.json")
}

#[allow(clippy::too_many_arguments)]
fn render_json(
    shape: &ThroughputConfig,
    snapshot: &[ThroughputSample],
    prepared: &[ThroughputSample],
    meters: &HotPathMeters,
    single_thread_speedup: f64,
    speedup_at_8: f64,
    storm_exact: &ThroughputSample,
    storm_snapshot: &ThroughputSample,
    hardware_threads: usize,
    smoke: bool,
) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"concurrent_throughput\",\n");
    out.push_str(&format!("  \"smoke\": {smoke},\n"));
    out.push_str(&format!("  \"hardware_threads\": {hardware_threads},\n"));
    out.push_str("  \"workload\": {\n");
    out.push_str(&format!("    \"rows\": {},\n", shape.rows));
    out.push_str(&format!(
        "    \"rows_per_query\": {},\n",
        shape.rows_per_query
    ));
    out.push_str(&format!(
        "    \"queries_per_thread\": {},\n",
        shape.queries_per_thread
    ));
    out.push_str(&format!(
        "    \"warmup_queries\": {}\n",
        shape.warmup_queries
    ));
    out.push_str("  },\n");
    out.push_str("  \"results\": {\n");
    out.push_str(&format!(
        "    \"snapshot_sharded\": {},\n",
        samples_json(snapshot)
    ));
    out.push_str(&format!(
        "    \"prepared_zero_copy\": {}\n",
        samples_json(prepared)
    ));
    out.push_str("  },\n");
    out.push_str(&format!(
        "  \"speedup_at_8_threads_vs_recorded_locked\": {speedup_at_8:.4},\n"
    ));
    out.push_str("  \"hot_path\": {\n");
    out.push_str(&format!(
        "    \"allocs_per_query\": {:.4},\n",
        meters.allocs_per_query
    ));
    out.push_str(&format!(
        "    \"bytes_copied_per_row\": {:.2},\n",
        meters.bytes_copied_per_row
    ));
    out.push_str(&format!(
        "    \"single_thread_speedup_vs_recorded_baseline\": {single_thread_speedup:.4}\n"
    ));
    out.push_str("  },\n");
    out.push_str("  \"budget\": {\n");
    out.push_str(&format!(
        "    \"allocs_per_query_max\": {ALLOCS_PER_QUERY_MAX},\n"
    ));
    out.push_str(&format!(
        "    \"single_thread_speedup_min\": {SINGLE_THREAD_SPEEDUP_MIN},\n"
    ));
    out.push_str(&format!(
        "    \"baseline_single_thread_qps\": {PRE_PR_SINGLE_THREAD_QPS},\n"
    ));
    out.push_str(&format!(
        "    \"eight_thread_speedup_min\": {EIGHT_THREAD_SPEEDUP_MIN},\n"
    ));
    out.push_str(&format!(
        "    \"baseline_locked_8_thread_qps\": {LOCKED_8_THREAD_QPS}\n"
    ));
    out.push_str("  },\n");
    out.push_str("  \"stats_storm\": {\n");
    out.push_str(&format!(
        "    \"exact_tuple_delay_qps\": {:.2},\n",
        storm_exact.qps
    ));
    out.push_str(&format!(
        "    \"snapshot_tuple_delay_qps\": {:.2},\n",
        storm_snapshot.qps
    ));
    out.push_str(&format!(
        "    \"ratio\": {:.4}\n",
        storm_snapshot.qps / storm_exact.qps
    ));
    out.push_str("  },\n");
    out.push_str(
        "  \"acceptance\": \"prepared_zero_copy single-thread qps >= 3x the recorded pre-PR \
         baseline and allocs_per_query <= budget (both enforced on every full run; the \
         allocation budget also holds in smoke); snapshot_sharded qps at 8 threads >= 3x \
         the recorded locked baseline (enforced when hardware_threads >= 8; parallel \
         scaling cannot be observed on fewer)\"\n",
    );
    out.push('}');
    out.push('\n');
    out
}

fn samples_json(samples: &[ThroughputSample]) -> String {
    let entries: Vec<String> = samples
        .iter()
        .map(|s| {
            format!(
                "      {{\"threads\": {}, \"queries\": {}, \"elapsed_secs\": {:.6}, \"qps\": {:.2}, \"tuples_per_sec\": {:.2}}}",
                s.threads, s.queries, s.elapsed_secs, s.qps, s.tuples_per_sec
            )
        })
        .collect();
    format!("[\n{}\n    ]", entries.join(",\n"))
}
