//! `paper-matrix`: a 12-cell `sim` scenario on SLC — `mem_mb` [5, 8] ×
//! `dirty` [SPUR, FAULT, WRITE] × `ref` [MISS, REF] — run through the
//! `spur_scenario` library as `spur-scenario run` runs it: two harness
//! workers, observability at its default (on), artifacts persisted.
//!
//! Loads obs, the harness pool and artifact writing, and the scenario
//! engine, on top of the simulator layers; the 5 MB cells load the VM
//! daemon, page-ins and REF flushes, the 8 MB cells barely do.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use spur_core::{DirtyPolicy, SimConfig};
use spur_harness::artifacts::sanitize_key;
use spur_harness::{default_root, job_artifact_json, run_jobs, RunReport};
use spur_scenario::asserts::evaluate;
use spur_scenario::cells::expand;
use spur_scenario::run::{effective_obs, persist_run};
use spur_scenario::{run_scenario, scale_name, CellResult, CellValue, RunnerOptions, Scenario};
use spur_trace::stream::TraceRef;
use spur_trace::workloads::slc;
use spur_types::MemSize;
use spur_vm::policy::RefPolicy;

use crate::control::Control;
use crate::layers::{cold_ms, emit_probe_means, probe, replay_ms, CellProbe, ProbeCell, SimCounts};
use crate::spans::{check_reconciles, Tracer};
use crate::stats::{median, reported, Digest, Outcome};
use crate::DEFAULT_SEED;

/// References per cell: enough that every 5 MB cell comes under memory
/// pressure, so its VM daemon runs and REF cells make REF flushes (at
/// 500k refs, 2 of 300 seeds never reached the daemon).
const CELL_REFS: u64 = 750_000;
/// Harness workers (the host has two cores).
const WORKERS: usize = 2;
/// `setup_s` is the median of blocks of `SETUP_BLOCK` set-ups, one
/// before the first pass and one after each pass: a set-up takes
/// microseconds and the host's state changes over tens of milliseconds,
/// so a single block would catch a single state. The traced run times
/// `EXPAND_BLOCKS` blocks at once for `scenario.expand_ms`.
const SETUP_BLOCK: usize = 50;
const EXPAND_BLOCKS: usize = 20;
/// Cold runs needed for `cold_p90_ms`, and replays for
/// `cached_p50_ms`; cold runs and replays made after each pass.
const MIN_COLD: usize = 100;
const MIN_REPLAYS: usize = 20;
const COLD_PER_PASS: usize = 5;
const REPLAYS_PER_PASS: usize = 2;
const MEMS: [u32; 2] = [5, 8];
const DIRTY: [DirtyPolicy; 3] = [DirtyPolicy::Spur, DirtyPolicy::Fault, DirtyPolicy::Write];
const REFS: [RefPolicy; 2] = [RefPolicy::Miss, RefPolicy::Ref];
/// Committed digest of the twelve artifacts at `DEFAULT_SEED`.
const EXPECTED_DIGEST: u64 = 0x0873_69a9_8550_5a8a;

/// The scenario document for `seed`.
pub fn scenario_text(seed: u64) -> String {
    format!(
        r#"{{
  "schema_version": 1,
  "name": "perfbench_paper_matrix",
  "description": "Benchmark matrix: SLC over memory x dirty-bit x reference-bit policy.",
  "experiment": "sim",
  "workload": "SLC",
  "scale": {{"refs": {CELL_REFS}, "seed": {seed}, "reps": 1}},
  "matrix": {{
    "mem_mb": [5, 8],
    "dirty": ["SPUR", "FAULT", "WRITE"],
    "ref": ["MISS", "REF"]
  }},
  "assertions": [
    {{"check": "relation", "name": "write_dirty_cycles_ge_spur", "metric": "data.events.elapsed_cycles",
      "op": ">=", "left": {{"dirty": "WRITE"}}, "right": {{"dirty": "SPUR"}}, "over": ["mem_mb", "ref"]}},
    {{"check": "monotonic", "name": "more_memory_never_pages_more", "metric": "data.page_ins",
      "axis": "mem_mb", "direction": "nonincreasing"}}
  ]
}}"#
    )
}

fn options() -> RunnerOptions {
    RunnerOptions {
        workers: WORKERS,
        progress: false,
        persist: true,
        ..RunnerOptions::default()
    }
}

/// Digest of every artifact, in report order.
fn artifact_digest(report: &RunReport<CellValue>) -> u64 {
    let mut d = Digest::default();
    for job in report.jobs() {
        d.bytes(job.key.as_bytes());
        d.bytes(job_artifact_json(job).encode_pretty().as_bytes());
    }
    d.finish()
}

fn cell_refs(report: &RunReport<CellValue>) -> u64 {
    report
        .jobs()
        .iter()
        .filter_map(|j| match j.value() {
            Some(CellValue::Sim(cell)) => Some(cell.events.refs),
            _ => None,
        })
        .sum()
}

/// Checks one pass: every cell ran, every assertion held, the artifacts
/// match the first pass (and the committed digest at the default seed).
fn check_pass(
    out: &mut Outcome,
    seed: u64,
    report: &RunReport<CellValue>,
    verdicts: &[spur_scenario::Verdict],
    first: &mut Option<u64>,
) {
    out.attempted += report.len() as u64;
    out.failed += report.failures().count() as u64;
    for v in verdicts.iter().filter(|v| !v.passed) {
        out.check(false, || {
            format!(
                "paper-matrix: assertion {} failed: {:?}",
                v.name, v.failures
            )
        });
    }
    let digest = artifact_digest(report);
    match *first {
        None => {
            eprintln!("paper-matrix: artifact digest = {digest:#018x}");
            *first = Some(digest);
            if seed == DEFAULT_SEED {
                out.check(digest == EXPECTED_DIGEST, || {
                    format!("paper-matrix: artifact digest {digest:#018x} != committed {EXPECTED_DIGEST:#018x}")
                });
            }
        }
        Some(d) => out.check(digest == d, || {
            format!("paper-matrix: artifact digest {digest:#018x} differs from the first pass {d:#018x}")
        }),
    }
}

/// Checks that every persisted artifact of the last pass reads back
/// byte-equal to the run's own.
fn read_back(
    out: &mut Outcome,
    scenario: &Scenario,
    run_scale: &spur_core::experiments::Scale,
    report: &RunReport<CellValue>,
) {
    let dir: PathBuf = default_root().join(format!("{}-{}", scenario.name, scale_name(run_scale)));
    for j in report.jobs() {
        let path = dir.join(format!("{}.json", sanitize_key(&j.key)));
        let expected = job_artifact_json(j).encode_pretty();
        match std::fs::read(&path) {
            Ok(bytes) => out.check(bytes == expected.as_bytes(), || {
                format!(
                    "paper-matrix: {} differs from the run's artifact",
                    path.display()
                )
            }),
            Err(e) => out.check(false, || {
                format!("paper-matrix: reading {}: {e}", path.display())
            }),
        }
    }
}

/// The twelve cells' coordinates and simulator configurations.
fn cell_configs(seed: u64) -> Vec<((u32, DirtyPolicy, RefPolicy), ProbeCell)> {
    let mut cells = Vec::new();
    for mb in MEMS {
        for dirty in DIRTY {
            for policy in REFS {
                let config = SimConfig {
                    mem: MemSize::new(mb),
                    dirty,
                    ref_policy: policy,
                    ..SimConfig::default()
                };
                cells.push((
                    (mb, dirty, policy),
                    ProbeCell {
                        workload: slc(),
                        config,
                        seed,
                        refs: CELL_REFS,
                    },
                ));
            }
        }
    }
    cells
}

/// The twelve cells as direct simulator runs (generator, simulator and
/// obs timed apart), checked against the scenario's own artifacts.
fn probe_cells(
    out: &mut Outcome,
    seed: u64,
    report: &RunReport<CellValue>,
) -> Result<Vec<(u32, DirtyPolicy, RefPolicy, CellProbe)>, String> {
    let (coords, cells): (Vec<_>, Vec<_>) = cell_configs(seed).into_iter().unzip();
    let probes = probe(&cells)?;
    let mut rows = Vec::new();
    for ((mb, dirty, policy), p) in coords.into_iter().zip(probes) {
        let key = format!("sim/SLC/{mb}MB/{dirty}/{policy}/1cpu");
        let artifact_events = report
            .get(&key)
            .and_then(|j| j.outcome.as_ref().ok())
            .and_then(|o| match &o.artifact {
                spur_harness::Json::Obj(fields) => fields
                    .iter()
                    .find(|(k, _)| k == "events")
                    .map(|(_, v)| v.encode()),
                _ => None,
            });
        out.check(artifact_events.as_deref() == Some(p.events_json.as_str()), || {
            format!("paper-matrix: direct run of {key} disagrees with its artifact: {artifact_events:?} vs {}", p.events_json)
        });
        match policy {
            RefPolicy::Ref if mb == 5 => out.check(p.counts.ref_flushes > 0, || {
                format!("paper-matrix: {key} made no REF flushes")
            }),
            RefPolicy::Miss => out.check(p.counts.ref_flushes == 0, || {
                format!(
                    "paper-matrix: {key} made {} REF flushes under MISS",
                    p.counts.ref_flushes
                )
            }),
            _ => {}
        }
        rows.push((mb, dirty, policy, p));
    }
    Ok(rows)
}

/// Runs the workload for `seconds`; traced when `trace` is set.
///
/// # Errors
///
/// Propagates parse, expansion and simulator errors.
pub fn run(seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let text = scenario_text(seed);
    let scenario = Scenario::parse_str(&text)?;
    let mut setups = Setups::default();
    if trace {
        for _ in 0..EXPAND_BLOCKS {
            setups.block(&text)?;
        }
        traced(&mut out, &scenario, seed, seconds, median(&setups.expand))?;
    } else {
        untraced(&mut out, &scenario, seed, seconds, &text, &mut setups)?;
        out.metric("setup_s", median(&setups.setup), "s");
    }
    Ok(out)
}

/// Set-up times: parse plus expand, and expand alone, in seconds.
#[derive(Default)]
struct Setups {
    setup: Vec<f64>,
    expand: Vec<f64>,
}

impl Setups {
    /// Times one block of set-ups of the scenario `text`.
    fn block(&mut self, text: &str) -> Result<(), String> {
        let opts = options();
        for _ in 0..SETUP_BLOCK {
            let t = Instant::now();
            let s = Scenario::parse_str(text)?;
            let t_expand = Instant::now();
            let cells = expand(&s, s.resolve_scale(None), effective_obs(&s, &opts))?;
            self.expand.push(t_expand.elapsed().as_secs_f64());
            self.setup.push(t.elapsed().as_secs_f64());
            drop(std::hint::black_box(cells));
        }
        Ok(())
    }
}

/// One untraced pass of `run_scenario`, checked. Returns its wall time
/// in seconds.
fn untraced_pass(
    out: &mut Outcome,
    scenario: &Scenario,
    seed: u64,
    first: &mut Option<u64>,
) -> Result<(f64, spur_scenario::ScenarioRun), String> {
    let t = Instant::now();
    let run = run_scenario(scenario, &options())?;
    let wall = t.elapsed().as_secs_f64();
    check_pass(out, seed, &run.report, &run.verdicts, first);
    Ok((wall, run))
}

fn untraced(
    out: &mut Outcome,
    scenario: &Scenario,
    seed: u64,
    seconds: f64,
    text: &str,
    setups: &mut Setups,
) -> Result<(), String> {
    let mut first = None;
    let budget = Duration::from_secs_f64(seconds * 0.85);
    let (mut busy, mut refs, mut passed_cells) = (0.0, 0, 0);
    // cold_* and cached_*: after each pass, the next cells run as the
    // scenario runs them (obs on) on this thread alone, from scratch
    // (cold) or fed their recorded stream so the generator's work is
    // reused (cached). Spread over the run, they see the same host as
    // the passes; run on one thread, they are not slowed by the other
    // core's work, and, as for `mp4`, their times are scaled by a
    // control timed next to them.
    let mut ctl = Control::default();
    let cells = cell_configs(seed);
    let stream: Vec<TraceRef> = slc().generator(seed).take(CELL_REFS as usize).collect();
    let (mut cold, mut replays) = (Vec::new(), Vec::new());
    let start = Instant::now();
    setups.block(text)?;
    let run = loop {
        let (wall, run) = untraced_pass(out, scenario, seed, &mut first)?;
        setups.block(text)?;
        busy += wall;
        passed_cells += run.report.len();
        refs += cell_refs(&run.report);
        ctl.sample();
        for _ in 0..COLD_PER_PASS {
            cold.push(cold_ms(&cells[cold.len() % cells.len()].1)?);
            out.attempted += 1;
        }
        for _ in 0..REPLAYS_PER_PASS {
            let cell = &cells[replays.len() % cells.len()].1;
            replays.push(replay_ms(cell, &stream)?);
            out.attempted += 1;
        }
        if start.elapsed() >= budget && cold.len() >= MIN_COLD && replays.len() >= MIN_REPLAYS {
            break run;
        }
    };
    read_back(out, scenario, &run.scale, &run.report);
    probe_cells(out, seed, &run.report)?;
    out.metric("peak_rss_mib", crate::stats::peak_rss_mib()?, "MiB");
    out.metric("sim_refs_per_s", refs as f64 / busy, "1/s");
    let cold_p50 = reported("paper-matrix cold cells", &cold, 50.0)?;
    let cold_p90 = reported("paper-matrix cold cells", &cold, 90.0)?;
    let cached_p50 = reported("paper-matrix replays", &replays, 50.0)?;
    eprintln!(
        "paper-matrix: as measured: cold_p50_ms {cold_p50:.3} cold_p90_ms {cold_p90:.3} \
         cached_p50_ms {cached_p50:.3}; control {:.3} ms",
        ctl.median()
    );
    let f = ctl.time_factor();
    out.metric("cold_p50_ms", cold_p50 * f, "ms");
    out.metric("cold_p90_ms", cold_p90 * f, "ms");
    out.metric("cached_p50_ms", cached_p50 * f, "ms");
    // Derived: cells per second is sim_refs_per_s / CELL_REFS.
    out.metric("max_jobs_per_s", passed_cells as f64 / busy, "1/s");
    Ok(())
}

fn traced(
    out: &mut Outcome,
    scenario: &Scenario,
    seed: u64,
    seconds: f64,
    expand_s: f64,
) -> Result<(), String> {
    let mut first = None;
    let mut ctl = Control::default();
    // Traced passes — the steps of `run_scenario`, each in a span —
    // alternate with untraced ones, for the tracing overhead.
    let opts = options();
    let scale = scenario.resolve_scale(None);
    let obs = effective_obs(scenario, &opts);
    let mut tracer = Tracer::default();
    let mut efficiency = Vec::new();
    let mut traced_walls = Vec::new();
    let mut untraced_walls = Vec::new();
    let budget = Duration::from_secs_f64(seconds * 0.65);
    let start = Instant::now();
    let mut last = None;
    while start.elapsed() < budget || last.is_none() {
        ctl.sample();
        untraced_walls.push(untraced_pass(out, scenario, seed, &mut first)?.0);
        let root = tracer.begin("matrix.pass", None);
        let expanded = tracer.span("scenario.expand", Some(root), || {
            expand(scenario, scale, obs)
        })?;
        let (cells, jobs): (Vec<_>, Vec<_>) = expanded.into_iter().unzip();
        let pool = tracer.begin("harness.pool", Some(root));
        let report = run_jobs(jobs, WORKERS);
        tracer.end(pool);
        let pool_s = {
            let s = &tracer.spans()[pool];
            (s.end_ns - s.start_ns) as f64 / 1e9
        };
        let job_s: f64 = report.jobs().iter().map(|j| j.wall.as_secs_f64()).sum();
        efficiency.push(job_s / (WORKERS as f64 * pool_s));
        tracer.span("harness.persist", Some(root), || {
            persist_run(&scenario.name, &scale, &report, None)
        });
        let verdicts = tracer.span("scenario.assert", Some(root), || {
            let results: Vec<CellResult> = cells
                .iter()
                .filter_map(|cell| {
                    report
                        .get(&cell.key)
                        .filter(|j| j.outcome.is_ok())
                        .map(|j| CellResult {
                            key: cell.key.clone(),
                            coords: cell.coords.clone(),
                            doc: job_artifact_json(j),
                        })
                })
                .collect();
            evaluate(&scenario.assertions, &results)
        });
        tracer.end(root);
        traced_walls
            .push((tracer.spans()[root].end_ns - tracer.spans()[root].start_ns) as f64 / 1e9);
        check_pass(out, seed, &report, &verdicts, &mut first);
        last = Some(report);
    }
    let report = last.expect("at least one traced pass");
    let probes = probe_cells(out, seed, &report)?;

    let passes = traced_walls.len() as f64;
    let per_pass_ms = |name: &str| tracer.total_ns(name) as f64 / 1e6 / passes;
    out.metric("scenario.expand_ms", expand_s * 1e3, "ms");
    out.metric("scenario.assert_ms", per_pass_ms("scenario.assert"), "ms");
    out.metric("harness.persist_ms", per_pass_ms("harness.persist"), "ms");
    out.metric("harness.pool_efficiency", median(&efficiency), "ratio");
    let mean_sim = |mb: u32| {
        let v: Vec<f64> = probes
            .iter()
            .filter(|r| r.0 == mb)
            .map(|r| r.3.sim_ns_per_ref)
            .collect();
        v.iter().sum::<f64>() / v.len() as f64
    };
    out.metric("core.sim_ns_per_ref.mem5", mean_sim(5), "ns");
    out.metric("core.sim_ns_per_ref.mem8", mean_sim(8), "ns");
    let cell_probes: Vec<CellProbe> = probes.iter().map(|r| r.3.clone()).collect();
    out.metric(
        "core.sim_ns_per_ref",
        cell_probes.iter().map(|p| p.sim_ns_per_ref).sum::<f64>() / cell_probes.len() as f64,
        "ns",
    );
    emit_probe_means(out, &cell_probes);
    let mut mem5 = SimCounts::default();
    for r in probes.iter().filter(|r| r.0 == 5) {
        mem5.absorb(&r.3.counts);
    }
    mem5.emit(out);
    let traced_pass_s = median(&traced_walls);
    let untraced_pass_s = median(&untraced_walls);
    out.metric("host.control_ms", ctl.median(), "ms");
    out.metric(
        "trace.overhead_pct",
        (traced_pass_s - untraced_pass_s) / untraced_pass_s * 100.0,
        "%",
    );
    out.metric(
        "trace.unattributed_pct",
        tracer.unattributed_share() * 100.0,
        "%",
    );
    let layer_ms: Vec<f64> = tracer
        .layer_ns_per_root()
        .iter()
        .map(|&ns| ns as f64 / 1e6)
        .collect();
    check_reconciles(
        out,
        "paper-matrix",
        "ms/pass",
        &[
            ("scenario.expand", per_pass_ms("scenario.expand")),
            ("harness.pool", per_pass_ms("harness.pool")),
            ("harness.persist", per_pass_ms("harness.persist")),
            ("scenario.assert", per_pass_ms("scenario.assert")),
        ],
        median(&layer_ms),
        untraced_pass_s * 1e3,
    );
    Ok(())
}
