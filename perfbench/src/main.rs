//! The repository's benchmark: three workloads, each timed end to end
//! and, in a separate traced invocation, layer by layer from outside
//! the crates under test.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload mp4|paper-matrix|serve-mixed --seed N --seconds S --trace 0|1
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: every end-to-end metric with
//! `--trace 0`, every per-layer metric with `--trace 1`. Metrics that do
//! not apply to a workload's layers read 0 in the traced run.

mod control;
mod layers;
mod matrix;
mod mp4;
mod serve;
mod spans;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;

use stats::Outcome;

/// The seed whose output digests are committed.
pub const DEFAULT_SEED: u64 = 1989;

/// The workloads, by name.
pub const WORKLOADS: [&str; 3] = ["mp4", "paper-matrix", "serve-mixed"];

/// End-to-end metrics, reported by every workload with `--trace 0`.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("sim_refs_per_s", "1/s"),
    ("cold_p50_ms", "ms"),
    ("cold_p90_ms", "ms"),
    ("cached_p50_ms", "ms"),
    ("max_jobs_per_s", "1/s"),
];

/// Per-layer metrics that are not per served-job phase.
const LAYERS: [(&str, &str); 31] = [
    ("host.control_ms", "ms"),
    ("trace.gen_ns_per_ref", "ns"),
    ("mp.sched_ns_per_ref", "ns"),
    ("mp.snoop_filter_entries", "count"),
    ("core.sim_ns_per_ref", "ns"),
    ("core.sim_ns_per_ref.mem5", "ns"),
    ("core.sim_ns_per_ref.mem8", "ns"),
    ("core.cycles_per_ref", "cycles"),
    ("cache.miss_ratio", "ratio"),
    ("cache.pte_miss_per_kref", "1/kref"),
    ("cache.evictions_per_kref", "1/kref"),
    ("cache.invalidations_per_kref", "1/kref"),
    ("cache.owner_supply_per_kref", "1/kref"),
    ("vm.page_faults_per_kref", "1/kref"),
    ("vm.page_ins", "count"),
    ("vm.zero_fills", "count"),
    ("vm.daemon_scans_per_kref", "1/kref"),
    ("vm.ref_flushes", "count"),
    ("vm.dirty_faults", "count"),
    ("obs.ns_per_ref", "ns"),
    ("obs.finish_ms", "ms"),
    ("obs.events_per_ref", "1/ref"),
    ("harness.pool_efficiency", "ratio"),
    ("harness.persist_ms", "ms"),
    ("scenario.expand_ms", "ms"),
    ("scenario.assert_ms", "ms"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.coalesced_share", "ratio"),
    ("serve.rejected_share", "ratio"),
    ("client.late_tail_ms", "ms"),
    ("client.cached_tail_ms", "ms"),
];

/// Every per-layer metric, reported by every workload with `--trace 1`.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut all: Vec<(String, &'static str)> =
        LAYERS.iter().map(|&(n, u)| (n.to_string(), u)).collect();
    for class in ["fresh", "coalesced", "cached"] {
        all.push((format!("serve.jobs.{class}"), "count"));
    }
    for phase in [
        "accept",
        "parse",
        "route",
        "cache_lookup",
        "coalesce_wait",
        "queue_wait",
        "run",
        "serialize",
        "respond",
    ] {
        for class in ["fresh", "coalesced", "cached"] {
            for stat in ["p50", "tail"] {
                all.push((format!("serve.{phase}_ms.{class}.{stat}"), "ms"));
            }
        }
    }
    all.push(("trace.overhead_pct".to_string(), "%"));
    all.push(("trace.unattributed_pct".to_string(), "%"));
    all
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag}: missing value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => {
                seed = value
                    .parse()
                    .map_err(|_| format!("--seed: bad value {value:?}"))?
            }
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s >= 1.0 && s.is_finite())
                    .ok_or_else(|| format!("--seconds: bad value {value:?}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace: expected 0 or 1, got {value:?}")),
                }
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (expected one of {WORKLOADS:?})"
        ));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Where scenario artifacts are persisted: inside the build directory,
/// removed on exit.
fn results_dir() -> PathBuf {
    let base = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("perfbench/target"));
    base.join(format!("perfbench-results-{}", std::process::id()))
}

fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = match args.workload.as_str() {
        "mp4" => mp4::run(args.seed, args.seconds, args.trace)?,
        "paper-matrix" => matrix::run(args.seed, args.seconds, args.trace)?,
        _ => serve::run(args.seed, args.seconds, args.trace)?,
    };
    let expected: Vec<(String, &str)> = if args.trace {
        per_layer()
    } else {
        END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    };
    if let Some(extra) = out.names().find(|n| !expected.iter().any(|(e, _)| e == n)) {
        return Err(format!(
            "{} reported the undeclared metric {extra:?}",
            args.workload
        ));
    }
    // Layers a workload does not load read 0; a missing end-to-end
    // metric is an error.
    let mut complete = Outcome::default();
    for (name, unit) in expected {
        match out.take(&name) {
            Some(v) => complete.metric(name, v, unit),
            None if args.trace => complete.metric(name, 0.0, unit),
            None => return Err(format!("{} did not report {name}", args.workload)),
        }
    }
    complete.attempted = out.attempted;
    complete.failed = out.failed;
    complete.check_failures = std::mem::take(&mut out.check_failures);
    Ok(complete)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let dir = results_dir();
    std::env::set_var("SPUR_RESULTS_DIR", &dir);
    let result = run(&args);
    let _ = std::fs::remove_dir_all(&dir);
    let out = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    for f in &out.check_failures {
        eprintln!("perfbench: check failed: {f}");
    }
    match out.result_line() {
        Ok(line) => {
            println!("{line}");
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

    /// `BENCHMARK.json` declares exactly the metrics this program
    /// reports, with the same units, under valid names.
    #[test]
    fn benchmark_json_matches_the_reported_metrics() {
        use spur_harness::Json;
        use spur_obs::validate::{get_field, parse};

        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let text = |v: &Json, key: &str| match get_field(v, key) {
            Some(Json::Str(s)) => s.clone(),
            other => panic!("{key}: {other:?}"),
        };
        let items = |key: &str| match get_field(&doc, key) {
            Some(Json::Arr(items)) => items.clone(),
            _ => panic!("{key} missing"),
        };
        let declared = |key: &str| -> Vec<(String, String)> {
            items(key)
                .iter()
                .map(|m| (text(m, "name"), text(m, "unit")))
                .collect()
        };
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(declared("end_to_end"), e2e);
        let layers: Vec<(String, String)> = per_layer()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(declared("per_layer"), layers);
        for (name, _) in e2e.iter().chain(&layers) {
            assert!(stats::valid_metric_name(name), "{name}");
        }
        let workloads: Vec<String> = items("workloads").iter().map(|w| text(w, "name")).collect();
        assert_eq!(workloads, WORKLOADS);
    }
}
