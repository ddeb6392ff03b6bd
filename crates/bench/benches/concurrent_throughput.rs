//! Multithreaded guarded-query throughput on the lock-free snapshot read
//! path, at 1/2/4/8 worker threads.
//!
//! The machine-readable sweep (and the ≥3x acceptance check at 8
//! threads against the recorded global-mutex baseline) lives in the
//! `throughput` binary, which writes `BENCH_throughput.json`:
//!
//! ```text
//! cargo run -p delayguard-bench --release --bin throughput
//! ```

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use delayguard_bench::throughput::{run, seeded_db, ThroughputConfig};
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("concurrent_throughput");
    group.sample_size(10);
    let shape = ThroughputConfig {
        queries_per_thread: 500,
        ..ThroughputConfig::default()
    };
    for threads in [1usize, 2, 4, 8] {
        let snapshot = seeded_db(&shape);
        group.bench_with_input(
            BenchmarkId::new("snapshot_sharded", threads),
            &threads,
            |b, &threads| b.iter(|| black_box(run(&snapshot, threads, &shape).qps)),
        );
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
