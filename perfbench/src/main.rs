//! The repository's benchmark: three workloads, each a closed loop with one
//! job in flight on one thread, checked against oracles kept apart from the
//! program.  Run through `perfbench/run.py`; see `perfbench/README.md`.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--trace-file <path>]
//! ```
//!
//! The last line of standard output is the run's result as one JSON object.
//! A line before it, starting `meta `, carries host facts the program knows.

mod alloc;
mod frontier;
mod gossip;
mod harness;
mod oracle;
mod paper;
mod protocols;
mod trace;
mod wire;

use harness::Config;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

pub const WORKLOADS: [&str; 3] = ["gossip_dense", "paper_k16", "frontier_churn"];

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--trace-file <path>]",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Config {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut trace_file = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let Some(value) = args.next() else {
            usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse::<u64>().ok().or_else(|| usage("bad --seed")),
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .or_else(|| usage("bad --seconds"))
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            "--trace-file" => trace_file = Some(std::path::PathBuf::from(value)),
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    if !WORKLOADS.contains(&workload.as_str()) {
        usage(&format!("unknown workload {workload}"));
    }
    Config {
        workload,
        seed: seed.unwrap_or_else(|| usage("--seed is required")),
        seconds: seconds.unwrap_or_else(|| usage("--seconds is required")),
        trace: trace.unwrap_or_else(|| usage("--trace is required")),
        trace_file,
    }
}

/// Writes a traced run's spans, once, at the end of the run.
pub fn finish_trace(cfg: &Config, tr: &trace::Tracer) {
    if let (true, Some(path)) = (cfg.trace, &cfg.trace_file) {
        if let Err(e) = tr.write_csv(path) {
            eprintln!("perfbench: writing {}: {e}", path.display());
        }
    }
}

fn main() {
    let cfg = parse_args();
    println!(
        "meta {{\"block_shift\": {}}}",
        netsim_sim::tuned_block_shift()
    );
    let (tally, layers) = match cfg.workload.as_str() {
        "gossip_dense" => gossip::run(&cfg),
        "paper_k16" => paper::run(&cfg),
        "frontier_churn" => frontier::run(&cfg),
        _ => unreachable!("workload validated by parse_args"),
    };
    harness::print_result(&cfg, &tally, layers.as_ref());
}
