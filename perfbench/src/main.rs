//! modgemm's repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <dgemm_ragged|pooled_1024|batch_small|service_open> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`. With
//! `--trace 0` the metrics are the end-to-end ones ([`END_TO_END`]); with
//! `--trace 1` they are the per-layer ones ([`PER_LAYER`]) and a Chrome
//! trace of the run is written under `perfbench/traces/`. Diagnostics go
//! to standard error. See `perfbench/README.md` for what each workload and
//! metric is for.

mod check;
mod layers;
mod rng;
mod stats;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

/// End-to-end metrics, each reported by every workload with `--trace 0`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("gflops", "GF/s"),
    ("call_ms_p50", "ms"),
    ("call_ms_p90", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("success_rate", "ratio"),
];

/// Per-layer metrics, each reported by every workload with `--trace 1`.
/// A layer a workload bypasses reports 0.
pub const PER_LAYER: [(&str, &str); 36] = [
    ("mat.leaf_gflops", "GF/s"),
    ("mat.leaf_share", "ratio"),
    ("mat.leaf_vs_peak", "ratio"),
    ("mat.addsub_gbps", "GB/s"),
    ("mat.addsub_share", "ratio"),
    ("mat.addsub_mb", "MiB"),
    ("mat.addsub_vs_copy", "ratio"),
    ("exec.compute_ms", "ms"),
    ("exec.arena_mb", "MiB"),
    ("exec.strassen_levels", "count"),
    ("exec.padded_flops_ratio", "ratio"),
    ("morton.convert_ms", "ms"),
    ("morton.share", "ratio"),
    ("morton.to_morton_gbps", "GB/s"),
    ("plan.compile_us", "us"),
    ("plan.share", "ratio"),
    ("pool.tasks", "count"),
    ("pool.steals", "count"),
    ("pool.idle_frac", "ratio"),
    ("pool.slab_mb", "MiB"),
    ("pool.speedup_vs_serial", "x"),
    ("batch.overlap_frac", "ratio"),
    ("batch.window", "count"),
    ("batch.speedup_vs_loop", "x"),
    ("service.queue_wait_ms_p50", "ms"),
    ("service.queue_wait_ms_p90", "ms"),
    ("service.plan_cache_hit_rate", "ratio"),
    ("service.peak_queue_depth", "count"),
    ("service.rejected", "count"),
    ("service.ledger_peak_mb", "MiB"),
    ("gen.late_ms_p90", "ms"),
    ("trace.overhead", "ratio"),
    ("trace.spans", "count"),
    ("host.leaf_peak_gflops", "GF/s"),
    ("host.copy_gbps", "GB/s"),
    ("host.llc_mb", "MiB"),
];

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Set up the workload, report `setup_s` alone and exit: how a run
    /// times its set-ups after the first, each in a fresh process.
    pub setup_only: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut setup_only = false;
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| bad(&e))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err(bad(&"must be in (0, 120]"));
                }
                seconds = Some(s);
            }
            "--trace" | "--setup-only" => {
                let on = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                };
                if flag == "--trace" {
                    trace = Some(on);
                } else {
                    setup_only = on;
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(20.0),
        trace: trace.unwrap_or(false),
        setup_only,
    })
}

/// One run's result line.
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            // JSON has no infinities; a percentile landing on failed calls
            // (which count as infinitely late) prints as the largest f64.
            let v = if value.is_finite() { *value } else { f64::MAX };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(out, "{sep}\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}");
        }
        out.push_str("}}");
        out
    }
}

fn main() -> ExitCode {
    let start = Instant::now();
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                workloads::NAMES.join("|")
            );
            return ExitCode::from(2);
        }
    };
    match workloads::run(&args, start) {
        Ok(report) => {
            println!("{}", report.json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args("--workload batch_small --seed 42 --seconds 10 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("batch_small", 42, 10.0, true)
        );
        assert!(args("--workload x --seconds 0").is_err());
        assert!(args("--workload x --trace 2").is_err());
        assert!(args("--workload x --setup-only 1").unwrap().setup_only);
        assert!(args("--seed 1").is_err());
        assert!(args("--workload x --bogus 1").is_err());
    }

    #[test]
    fn report_line_is_json_with_units() {
        let r = Report {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: vec![("gflops", 8.25, "GF/s"), ("call_ms_p90", f64::INFINITY, "ms")],
        };
        assert_eq!(
            r.json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"gflops\": \
             {\"value\": 8.25, \"unit\": \"GF/s\"}, \"call_ms_p90\": {\"value\": \
             1.7976931348623157e308, \"unit\": \"ms\"}}}"
        );
    }

    /// `BENCHMARK.json` at the repository root lists exactly the metrics
    /// and workloads this program reports.
    #[test]
    fn benchmark_json_matches_the_program() {
        let spec = include_str!("../../BENCHMARK.json");
        let names = END_TO_END.iter().chain(PER_LAYER.iter()).map(|(n, _)| *n);
        for name in names.chain(workloads::NAMES) {
            assert!(spec.contains(&format!("\"name\": \"{name}\"")), "{name} missing");
        }
        let listed = spec.matches("\"name\":").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len() + workloads::NAMES.len());
    }
}
