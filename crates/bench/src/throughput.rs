//! Multithreaded guarded-query throughput: the experiment behind
//! `benches/concurrent_throughput.rs` and the `throughput` binary.
//!
//! Measures end-to-end guarded `SELECT` throughput (execute + price +
//! record) at increasing thread counts on the wall-clock read path:
//! pricing from the immutable snapshot, recording through the lock-free
//! queue. Two pipelines are swept:
//!
//! * **`snapshot_sharded`** — ad-hoc pre-parsed statements through
//!   `execute_stmt_with_deadline`.
//! * **`prepared_zero_copy`** — prepared statements through
//!   `execute_prepared_streaming` with recycled buffers.
//!
//! Queries are multi-row range scans so per-tuple charging dominates —
//! the work the pre-snapshot global-mutex design did under its lock.
//! That design is gone; its recorded 8-thread qps is the baseline the
//! `throughput` binary's scaling gate compares against.

use delayguard_core::{
    AccessDelayPolicy, ChargedChunk, GuardConfig, GuardPolicy, GuardedDatabase, PreparedQuery,
};
use delayguard_query::ast::Statement;
use delayguard_query::{parse, ExecScratch, RowBuf};
use delayguard_storage::copymeter;
use delayguard_workload::Rng;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::Instant;

/// Workload shape shared by every measurement.
#[derive(Debug, Clone, Copy)]
pub struct ThroughputConfig {
    /// Table size.
    pub rows: u64,
    /// Rows returned per query (range width).
    pub rows_per_query: u64,
    /// Queries each worker thread issues during the measured phase.
    pub queries_per_thread: u64,
    /// Warm-up traffic (per table, sequential) before measuring, so the
    /// guard prices learned popularity rather than the all-at-cap
    /// start-up transient.
    pub warmup_queries: u64,
}

impl Default for ThroughputConfig {
    fn default() -> ThroughputConfig {
        ThroughputConfig {
            rows: 8192,
            rows_per_query: 32,
            queries_per_thread: 2_000,
            warmup_queries: 2_000,
        }
    }
}

impl ThroughputConfig {
    /// A fast variant for CI smoke runs.
    pub fn smoke() -> ThroughputConfig {
        ThroughputConfig {
            rows: 1024,
            rows_per_query: 16,
            queries_per_thread: 200,
            warmup_queries: 200,
        }
    }
}

/// One measured point.
#[derive(Debug, Clone, Copy)]
pub struct ThroughputSample {
    /// Worker threads issuing queries concurrently.
    pub threads: usize,
    /// Total queries completed across all threads.
    pub queries: u64,
    /// Wall-clock time for the measured phase, in seconds.
    pub elapsed_secs: f64,
    /// Queries per second.
    pub qps: f64,
    /// Tuples priced and recorded per second.
    pub tuples_per_sec: f64,
}

fn bench_config() -> GuardConfig {
    // The paper's canonical policy with a finite cap; no decay so the
    // warm-up's learned distribution is stable across the run.
    GuardConfig::paper_default().with_policy(GuardPolicy::AccessRate(
        AccessDelayPolicy::new(1.5, 1.0).with_cap(10.0),
    ))
}

/// Build and seed a guarded database for the workload: `rows` tuples,
/// indexed id column, plus sequential warm-up traffic (through the exact
/// virtual-time path) and an initial snapshot refresh.
pub fn seeded_db(shape: &ThroughputConfig) -> Arc<GuardedDatabase> {
    let db = GuardedDatabase::new(bench_config());
    db.execute_at("CREATE TABLE t (id INT NOT NULL, body TEXT)", 0.0)
        .unwrap();
    db.execute_at("CREATE UNIQUE INDEX t_pk ON t (id)", 0.0)
        .unwrap();
    // Multi-row inserts keep seeding cheap.
    let mut i = 0;
    while i < shape.rows {
        let end = (i + 256).min(shape.rows);
        let values: Vec<String> = (i..end).map(|k| format!("({k}, 'row-{k}')")).collect();
        db.execute_at(&format!("INSERT INTO t VALUES {}", values.join(", ")), 0.0)
            .unwrap();
        i = end;
    }
    // Warm-up traffic so the measured phase prices a learned (non-cap)
    // distribution.
    let mut rng = Rng::new(0x5eed);
    for q in 0..shape.warmup_queries {
        let start = rng.below(shape.rows.saturating_sub(shape.rows_per_query).max(1));
        db.execute_at(
            &format!(
                "SELECT * FROM t WHERE id >= {start} AND id < {}",
                start + shape.rows_per_query
            ),
            1.0 + q as f64,
        )
        .unwrap();
    }
    db.refresh();
    Arc::new(db)
}

/// Each worker's query mix: 64 distinct range scans, cycled.
fn worker_sql(tid: u64, shape: &ThroughputConfig) -> Vec<String> {
    let mut rng = Rng::new(0xbadc0de + tid);
    (0..64)
        .map(|_| {
            let start = rng.below(shape.rows.saturating_sub(shape.rows_per_query).max(1));
            format!(
                "SELECT * FROM t WHERE id >= {start} AND id < {}",
                start + shape.rows_per_query
            )
        })
        .collect()
}

/// Pre-parse each worker's query mix, so the measured phase is execute +
/// price + record, not SQL parsing.
fn worker_statements(tid: u64, shape: &ThroughputConfig) -> Vec<Statement> {
    worker_sql(tid, shape)
        .iter()
        .map(|sql| parse(sql).unwrap())
        .collect()
}

/// Prepare each worker's query mix for the zero-copy hot path.
fn worker_prepared(db: &GuardedDatabase, tid: u64, shape: &ThroughputConfig) -> Vec<PreparedQuery> {
    worker_sql(tid, shape)
        .iter()
        .map(|sql| db.prepare(sql).unwrap())
        .collect()
}

/// Run one prepared query through the streaming hot path, draining it in
/// `chunk_rows`-sized pulls through recycled buffers — the exact shape of
/// the server gate's per-connection loop. Returns the rows seen.
#[inline]
fn drain_prepared(
    db: &GuardedDatabase,
    prep: &mut PreparedQuery,
    scratch: &mut ExecScratch,
    buf: &mut RowBuf,
    charged: &mut ChargedChunk,
    chunk_rows: usize,
) -> u64 {
    db.execute_prepared_streaming(prep, scratch, |mut stream| {
        let mut rows = 0u64;
        loop {
            let n = stream.next_chunk_into(chunk_rows, buf).unwrap();
            if n == 0 {
                break;
            }
            stream.charge_into(buf.rows(), charged);
            rows += n as u64;
            // A short chunk means the cursor is exhausted; skip the
            // empty re-probe the trailing `Ok(0)` round would cost.
            if n < chunk_rows {
                break;
            }
        }
        rows
    })
    .unwrap()
}

/// Run the measured phase: `threads` workers each issuing
/// `queries_per_thread` pre-parsed range scans through
/// `execute_stmt_with_deadline`.
pub fn run(
    db: &Arc<GuardedDatabase>,
    threads: usize,
    shape: &ThroughputConfig,
) -> ThroughputSample {
    let barrier = Arc::new(Barrier::new(threads + 1));
    let failed = Arc::new(AtomicBool::new(false));
    let workers: Vec<_> = (0..threads)
        .map(|tid| {
            let db = Arc::clone(db);
            let barrier = Arc::clone(&barrier);
            let failed = Arc::clone(&failed);
            let stmts = worker_statements(tid as u64, shape);
            let queries = shape.queries_per_thread;
            thread::spawn(move || {
                barrier.wait();
                for q in 0..queries {
                    let stmt = &stmts[(q % stmts.len() as u64) as usize];
                    if db.execute_stmt_with_deadline(stmt).is_err() {
                        failed.store(true, Ordering::Relaxed);
                        return;
                    }
                }
            })
        })
        .collect();
    barrier.wait();
    let started = Instant::now();
    for w in workers {
        w.join().unwrap();
    }
    let elapsed_secs = started.elapsed().as_secs_f64().max(1e-9);
    assert!(!failed.load(Ordering::Relaxed), "worker query failed");
    let queries = threads as u64 * shape.queries_per_thread;
    ThroughputSample {
        threads,
        queries,
        elapsed_secs,
        qps: queries as f64 / elapsed_secs,
        tuples_per_sec: (queries * shape.rows_per_query) as f64 / elapsed_secs,
    }
}

/// Run the measured phase through the allocation-free pipeline:
/// `threads` workers, each with its own prepared query mix and recycled
/// scratch/row/pricing buffers, issuing `queries_per_thread` queries via
/// `execute_prepared_streaming`.
pub fn run_prepared(
    db: &Arc<GuardedDatabase>,
    threads: usize,
    shape: &ThroughputConfig,
) -> ThroughputSample {
    let barrier = Arc::new(Barrier::new(threads + 1));
    let workers: Vec<_> = (0..threads)
        .map(|tid| {
            let db = Arc::clone(db);
            let barrier = Arc::clone(&barrier);
            let mut preps = worker_prepared(&db, tid as u64, shape);
            let queries = shape.queries_per_thread;
            let rows_per_query = shape.rows_per_query;
            // One row more than a full result, so the last (only) chunk
            // comes back short and the drain ends without an empty probe.
            let chunk_rows = rows_per_query as usize + 1;
            thread::spawn(move || {
                let mut scratch = ExecScratch::new();
                let mut buf = RowBuf::new();
                let mut charged = ChargedChunk::default();
                barrier.wait();
                let mut rows = 0u64;
                for q in 0..queries {
                    let i = (q % preps.len() as u64) as usize;
                    rows += drain_prepared(
                        &db,
                        &mut preps[i],
                        &mut scratch,
                        &mut buf,
                        &mut charged,
                        chunk_rows,
                    );
                }
                assert_eq!(rows, queries * rows_per_query, "short result set");
            })
        })
        .collect();
    barrier.wait();
    let started = Instant::now();
    for w in workers {
        w.join().unwrap();
    }
    let elapsed_secs = started.elapsed().as_secs_f64().max(1e-9);
    let queries = threads as u64 * shape.queries_per_thread;
    ThroughputSample {
        threads,
        queries,
        elapsed_secs,
        qps: queries as f64 / elapsed_secs,
        tuples_per_sec: (queries * shape.rows_per_query) as f64 / elapsed_secs,
    }
}

/// Steady-state instrumentation of the prepared hot path.
#[derive(Debug, Clone, Copy)]
pub struct HotPathMeters {
    /// Queries in the measured span.
    pub queries: u64,
    /// Heap allocations per query (counting allocator delta / queries).
    pub allocs_per_query: f64,
    /// Payload bytes memcpy'd per row ([`copymeter`] delta / rows).
    pub bytes_copied_per_row: f64,
}

/// Measure `allocs_per_query` and `bytes_copied_per_row` over a
/// steady-state single-thread span of the prepared pipeline.
///
/// `alloc_probe` reads the calling thread's allocation counter — the
/// bench binaries pass their counting `#[global_allocator]`'s reader (the
/// library itself is `forbid(unsafe_code)` and cannot own the allocator).
/// A long warm-up first gets every recycled buffer to its high-water
/// mark, so the measured span sees only the allocations the pipeline
/// makes *per query*, not one-time growth.
pub fn measure_hot_path(
    db: &Arc<GuardedDatabase>,
    shape: &ThroughputConfig,
    alloc_probe: &dyn Fn() -> u64,
) -> HotPathMeters {
    let mut preps = worker_prepared(db, 0, shape);
    let mut scratch = ExecScratch::new();
    let mut buf = RowBuf::new();
    let mut charged = ChargedChunk::default();
    let chunk_rows = shape.rows_per_query as usize + 1;
    let warmup = 256u64;
    let measured = 1024u64;
    let mut rows = 0u64;
    for q in 0..warmup {
        let i = (q % preps.len() as u64) as usize;
        drain_prepared(
            db,
            &mut preps[i],
            &mut scratch,
            &mut buf,
            &mut charged,
            chunk_rows,
        );
    }
    let allocs_before = alloc_probe();
    let copied_before = copymeter::read();
    for q in 0..measured {
        let i = (q % preps.len() as u64) as usize;
        rows += drain_prepared(
            db,
            &mut preps[i],
            &mut scratch,
            &mut buf,
            &mut charged,
            chunk_rows,
        );
    }
    let allocs = alloc_probe() - allocs_before;
    let copied = copymeter::read() - copied_before;
    HotPathMeters {
        queries: measured,
        allocs_per_query: allocs as f64 / measured as f64,
        bytes_copied_per_row: copied as f64 / rows.max(1) as f64,
    }
}

/// Sweep thread counts over a freshly seeded database per point (so no
/// run inherits another's learned state).
pub fn sweep(shape: &ThroughputConfig, thread_counts: &[usize]) -> Vec<ThroughputSample> {
    thread_counts
        .iter()
        .map(|&threads| run(&seeded_db(shape), threads, shape))
        .collect()
}

/// [`sweep`], but through the prepared zero-copy pipeline.
pub fn sweep_prepared(shape: &ThroughputConfig, thread_counts: &[usize]) -> Vec<ThroughputSample> {
    thread_counts
        .iter()
        .map(|&threads| run_prepared(&seeded_db(shape), threads, shape))
        .collect()
}

/// The satellite experiment behind "STATS traffic can't stall queries":
/// measure worker qps while one storm thread continuously inspects
/// per-tuple delays. With `exact_stats` the storm uses
/// `GuardedDatabase::tuple_delay`, which applies pending events under
/// the refresh lock and reads the live trackers under their shard lock;
/// otherwise it uses the lock-free `snapshot_tuple_delay` read.
pub fn run_with_stats_storm(
    db: &Arc<GuardedDatabase>,
    threads: usize,
    shape: &ThroughputConfig,
    exact_stats: bool,
) -> ThroughputSample {
    let rids: Vec<_> = {
        let stmt = parse("SELECT * FROM t WHERE id >= 0").unwrap();
        match db.engine().execute_stmt(&stmt).unwrap() {
            delayguard_query::StatementOutput::Rows(rows) => rows.row_ids().collect(),
            other => panic!("unexpected output {other:?}"),
        }
    };
    let stop = Arc::new(AtomicBool::new(false));
    let storm = {
        let db = Arc::clone(db);
        let stop = Arc::clone(&stop);
        thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                for &rid in &rids {
                    if exact_stats {
                        db.tuple_delay("t", rid, db.now_secs()).unwrap();
                    } else {
                        db.snapshot_tuple_delay("t", rid, db.now_secs()).unwrap();
                    }
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                }
            }
        })
    };
    let sample = run(db, threads, shape);
    stop.store(true, Ordering::Relaxed);
    storm.join().unwrap();
    sample
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_runs_both_stats_storms() {
        let shape = ThroughputConfig {
            rows: 256,
            rows_per_query: 8,
            queries_per_thread: 50,
            warmup_queries: 50,
        };
        for exact_stats in [true, false] {
            let db = seeded_db(&shape);
            let sample = run_with_stats_storm(&db, 2, &shape, exact_stats);
            assert_eq!(sample.queries, 100);
            assert!(sample.qps > 0.0);
        }
    }

    #[test]
    fn prepared_path_accounts_every_tuple() {
        let shape = ThroughputConfig {
            rows: 128,
            rows_per_query: 4,
            queries_per_thread: 25,
            warmup_queries: 10,
        };
        let db = seeded_db(&shape);
        let sample = run_prepared(&db, 2, &shape);
        assert_eq!(sample.queries, 50);
        db.refresh();
        let expected = (shape.warmup_queries + sample.queries) * shape.rows_per_query;
        assert_eq!(db.access_events("t"), expected);
    }

    #[test]
    fn hot_path_meters_report_finite_numbers() {
        let shape = ThroughputConfig {
            rows: 256,
            rows_per_query: 8,
            queries_per_thread: 50,
            warmup_queries: 50,
        };
        let db = seeded_db(&shape);
        // The test harness has no counting allocator; a constant probe
        // still exercises the measurement plumbing end to end.
        let meters = measure_hot_path(&db, &shape, &|| 0);
        assert_eq!(meters.queries, 1024);
        assert_eq!(meters.allocs_per_query, 0.0);
        assert!(
            meters.bytes_copied_per_row > 0.0,
            "rows decode through the copymeter"
        );
    }

    #[test]
    fn samples_account_every_tuple() {
        let shape = ThroughputConfig {
            rows: 128,
            rows_per_query: 4,
            queries_per_thread: 25,
            warmup_queries: 10,
        };
        let db = seeded_db(&shape);
        let sample = run(&db, 4, &shape);
        db.refresh();
        // warmup + measured tuples all recorded, none lost.
        let expected = (shape.warmup_queries + sample.queries) * shape.rows_per_query;
        assert_eq!(db.access_events("t"), expected);
    }
}
