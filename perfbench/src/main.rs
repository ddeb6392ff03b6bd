//! `perfbench`: the loopback end-to-end benchmark of the delayguard
//! server, with a per-layer cost table.
//!
//! ```text
//! perfbench --workload point_zipf --seed 1 --seconds 30 --trace 0
//! ```
//!
//! `--trace 0` runs the real `Server::start` on 127.0.0.1 and reports
//! the end-to-end metrics; `--trace 1` reports the per-layer metrics
//! (see `layers`). Each workload's parameters are fixed in `inputs`
//! and recorded in its `why` in `BENCHMARK.json`. The last line of
//! standard output is the JSON result; the exit code is 0 only for a
//! correct, valid run.

mod client;
mod e2e;
mod inputs;
mod layers;
mod procstat;
mod report;
mod setup;
mod spans;
mod stats;

#[path = "../../crates/bench/src/alloc_count.rs"]
mod alloc_count;

use inputs::Workload;
use std::collections::HashMap;

/// Hardware threads available to this process.
pub fn hw_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn usage(why: &str) -> ! {
    eprintln!("perfbench: {why}");
    eprintln!(
        "usage: perfbench --workload <point_zipf|range_scan|mixed_rw> --seed <n> --seconds <s> \
         --trace <0|1>"
    );
    std::process::exit(64);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut flags: HashMap<String, String> = HashMap::new();
    for pair in args.chunks(2) {
        match pair {
            [flag, value] if flag.starts_with("--") => {
                flags.insert(flag[2..].to_string(), value.clone());
            }
            _ => usage(&format!("unexpected arguments {pair:?}")),
        }
    }
    let get = |name: &str| -> String {
        flags
            .get(name)
            .cloned()
            .unwrap_or_else(|| usage(&format!("missing --{name}")))
    };
    fn num<T: std::str::FromStr>(name: &str, v: String) -> T {
        v.parse()
            .unwrap_or_else(|_| usage(&format!("bad value for --{name}: {v}")))
    }
    let workload = Workload::parse(&get("workload"))
        .unwrap_or_else(|| usage(&format!("unknown workload {}", get("workload"))));
    let seed: u64 = num("seed", get("seed"));
    let seconds: f64 = num("seconds", get("seconds"));
    let trace: u8 = num("trace", get("trace"));
    if seconds <= 0.0 {
        usage("--seconds must be positive");
    }
    let outcome = match trace {
        0 => e2e::run(workload, seed, seconds),
        1 => layers::run(workload, seed, seconds),
        _ => usage("--trace must be 0 or 1"),
    };
    std::process::exit(outcome.finish());
}
