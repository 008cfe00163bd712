//! `mp4`: a 4-CPU `MpSystem` on MP-WORKERS(8, 256), 8 MB, SPUR/MISS,
//! observability off, in one long run.
//!
//! Loads the trace generator, the epoch scheduler and the coherence and
//! snoop-filter path; little VM work; no obs, harness, scenario or
//! serve work.

use std::time::{Duration, Instant};

use spur_core::{DirtyPolicy, SimConfig, SpurSystem};
use spur_mp::{shard_seed, MpParams, MpScheduler, MpSystem};
use spur_trace::stream::TraceRef;
use spur_trace::workloads::{mp_workers, Workload};
use spur_trace::TraceGenerator;
use spur_types::MemSize;
use spur_vm::policy::RefPolicy;

use crate::control::Control;
use crate::layers::{system_digest, SimCounts};
use crate::spans::{check_reconciles, Tracer};
use crate::stats::{median, reported, Outcome};
use crate::DEFAULT_SEED;

const CPUS: usize = 4;
/// References per timed slice of the long run (one `cold_*` sample).
const SLICE: u64 = 1 << 19;
/// The digest is taken when the run has executed exactly this many
/// references, so it does not depend on how fast the host is.
const CHECK_REFS: u64 = 1 << 23;
/// Recorded prefix replayed for the `cached_*` samples, slices between
/// replays, and the replays needed (p50 needs 20).
const PREFIX: usize = 1 << 20;
const REPLAY_EVERY: usize = 16;
const MIN_REPLAYS: usize = 24;
/// Batch of the traced run: one generate/schedule fill, then one
/// `SpurSystem::run` over it.
const BATCH: usize = 1 << 16;
/// `setup_s` is the median of blocks of `SETUP_BLOCK` set-ups, one
/// before the long run and one after every `SETUP_EVERY`-th slice: a
/// set-up takes microseconds and the host's state changes over tens of
/// milliseconds, so a single block would catch a single state.
const SETUP_BLOCK: usize = 25;
const SETUP_EVERY: usize = 8;
/// Committed digest of the first `CHECK_REFS` references at
/// `DEFAULT_SEED`.
const EXPECTED_DIGEST: u64 = 0xb99f_b00b_6c51_45d5;

fn config() -> SimConfig {
    SimConfig {
        mem: MemSize::MB8,
        cpus: CPUS,
        dirty: DirtyPolicy::Spur,
        ref_policy: RefPolicy::Miss,
        ..SimConfig::default()
    }
}

fn workload() -> Workload {
    mp_workers(8, 256)
}

fn node(w: &Workload, seed: u64) -> Result<MpSystem, String> {
    MpSystem::new(config(), w, seed, MpParams::default())
}

/// `cached_*` samples: a fresh node fed a recorded prefix of the same
/// stream, so the generator's work is reused.
struct Replays {
    prefix: Vec<TraceRef>,
    ms: Vec<f64>,
}

impl Replays {
    fn new(w: &Workload, seed: u64) -> Result<Self, String> {
        Ok(Replays {
            prefix: MpScheduler::new(w, CPUS, seed)?.take(PREFIX).collect(),
            ms: Vec::new(),
        })
    }

    fn one(&mut self, out: &mut Outcome, w: &Workload) -> Result<(), String> {
        let mut sys = SpurSystem::new(config()).map_err(|e| e.to_string())?;
        sys.load_workload(w).map_err(|e| e.to_string())?;
        let t = Instant::now();
        sys.run(&mut self.prefix.iter().copied(), PREFIX as u64)
            .map_err(|e| e.to_string())?;
        self.ms.push(t.elapsed().as_secs_f64() * 1e3);
        out.attempted += 1;
        check_end(out, &sys);
        Ok(())
    }
}

/// Where a node stands against the digest checkpoint.
struct Checkpoint {
    digest: Option<u64>,
}

impl Checkpoint {
    /// Takes the digest and checks invariants once `sys` has executed
    /// exactly `CHECK_REFS` references.
    fn at(&mut self, out: &mut Outcome, sys: &SpurSystem) {
        if sys.refs() == CHECK_REFS {
            self.digest = Some(system_digest(sys));
            let inv = sys.check_invariants();
            out.check(inv.is_ok(), || {
                format!("mp4: invariants at {CHECK_REFS} refs: {inv:?}")
            });
        }
    }
}

/// One untraced slice of `SLICE` references; returns its time in
/// seconds.
fn slice(out: &mut Outcome, node: &mut MpSystem, at: &mut Checkpoint) -> Result<f64, String> {
    let before = node.refs();
    let t = Instant::now();
    node.run(SLICE)?;
    let s = t.elapsed().as_secs_f64();
    out.attempted += 1;
    if node.refs() != before + SLICE {
        return Err(format!(
            "slice ran {} references, not {SLICE}",
            node.refs() - before
        ));
    }
    at.at(out, node.system());
    Ok(s)
}

/// The untraced long run: slices until `budget` has passed and the
/// checkpoint is reached, with a control sample every fourth slice, a
/// replay every `REPLAY_EVERY` slices and a set-up block every
/// `SETUP_EVERY` slices, so all see the same host as the slices.
/// Returns the slice times in seconds, the node and the digest at
/// `CHECK_REFS`.
fn long_run(
    out: &mut Outcome,
    ctl: &mut Control,
    w: &Workload,
    seed: u64,
    budget: Duration,
    replays: &mut Replays,
    setups: &mut Vec<f64>,
) -> Result<(Vec<f64>, MpSystem, u64), String> {
    let mut node = node(w, seed)?;
    let mut slices = Vec::new();
    let mut at = Checkpoint { digest: None };
    let start = Instant::now();
    while start.elapsed() < budget || at.digest.is_none() {
        if slices.len().is_multiple_of(4) {
            ctl.sample();
        }
        if slices.len().is_multiple_of(REPLAY_EVERY) {
            replays.one(out, w)?;
        }
        if slices.len().is_multiple_of(SETUP_EVERY) {
            setup_block(w, seed, setups)?;
        }
        slices.push(slice(out, &mut node, &mut at)?);
    }
    let digest = at.digest.expect("loop runs until the checkpoint");
    Ok((slices, node, digest))
}

fn check_digest(out: &mut Outcome, seed: u64, digest: u64, what: &str) {
    eprintln!("mp4: {what} digest at {CHECK_REFS} refs = {digest:#018x}");
    if seed == DEFAULT_SEED {
        out.check(digest == EXPECTED_DIGEST, || {
            format!("mp4: {what} digest {digest:#018x} != committed {EXPECTED_DIGEST:#018x}")
        });
    }
}

fn check_end(out: &mut Outcome, sys: &SpurSystem) {
    let inv = sys.check_invariants();
    out.check(inv.is_ok(), || format!("mp4: invariants at end: {inv:?}"));
}

/// Runs the workload for `seconds`; traced when `trace` is set.
///
/// # Errors
///
/// Propagates simulator errors.
pub fn run(seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let w = workload();
    if trace {
        traced(&mut out, &w, seed, seconds)?;
    } else {
        untraced(&mut out, &w, seed, seconds)?;
    }
    Ok(out)
}

/// Times one block of set-ups: `MpSystem::new`, build plus load.
fn setup_block(w: &Workload, seed: u64, setups: &mut Vec<f64>) -> Result<(), String> {
    for _ in 0..SETUP_BLOCK {
        let t = Instant::now();
        let n = node(w, seed)?;
        setups.push(t.elapsed().as_secs_f64());
        drop(std::hint::black_box(n));
    }
    Ok(())
}

/// `mp4`'s run-time figures from slice times and replay times, both in
/// ms: refs/s, slice p50 and p90, replay p50, slices/s.
fn figures(refs: u64, slice_ms: &[f64], replay_ms: &[f64]) -> Result<[f64; 5], String> {
    let busy_s = slice_ms.iter().sum::<f64>() / 1e3;
    Ok([
        refs as f64 / busy_s,
        reported("mp4 slices", slice_ms, 50.0)?,
        reported("mp4 slices", slice_ms, 90.0)?,
        reported("mp4 replays", replay_ms, 50.0)?,
        slice_ms.len() as f64 / busy_s,
    ])
}

fn untraced(out: &mut Outcome, w: &Workload, seed: u64, seconds: f64) -> Result<(), String> {
    let mut ctl = Control::default();
    let mut replays = Replays::new(w, seed)?;
    let mut setups = Vec::new();
    let (slices, node, digest) = long_run(
        out,
        &mut ctl,
        w,
        seed,
        Duration::from_secs_f64(seconds * 0.85),
        &mut replays,
        &mut setups,
    )?;
    while replays.ms.len() < MIN_REPLAYS {
        ctl.sample();
        replays.one(out, w)?;
    }
    check_digest(out, seed, digest, "untraced");
    check_end(out, node.system());
    let slice_ms: Vec<f64> = slices.iter().map(|s| s * 1e3).collect();
    let raw = figures(node.refs(), &slice_ms, &replays.ms)?;
    eprintln!(
        "mp4: as measured: sim_refs_per_s {:.0} cold_p50_ms {:.3} cold_p90_ms {:.3} \
         cached_p50_ms {:.3} max_jobs_per_s {:.3}; control {:.3} ms",
        raw[0],
        raw[1],
        raw[2],
        raw[3],
        raw[4],
        ctl.median()
    );
    // Reference-host figures: times multiplied, rates divided, by the
    // run's control factor.
    let f = ctl.time_factor();
    let [refs_per_s, cold_p50, cold_p90, cached_p50, jobs_per_s] =
        [raw[0] / f, raw[1] * f, raw[2] * f, raw[3] * f, raw[4] / f];
    out.metric("setup_s", median(&setups), "s");
    out.metric("peak_rss_mib", crate::stats::peak_rss_mib()?, "MiB");
    out.metric("sim_refs_per_s", refs_per_s, "1/s");
    out.metric("cold_p50_ms", cold_p50, "ms");
    out.metric("cold_p90_ms", cold_p90, "ms");
    out.metric("cached_p50_ms", cached_p50, "ms");
    // Derived: slices per second is sim_refs_per_s / SLICE.
    out.metric("max_jobs_per_s", jobs_per_s, "1/s");
    Ok(())
}

fn traced(out: &mut Outcome, w: &Workload, seed: u64, seconds: f64) -> Result<(), String> {
    let mut ctl = Control::default();
    // Untraced slices of an `MpSystem` alternate with traced segments
    // of the same node built from its parts — one span per
    // generate/schedule fill and per simulator run, under one root per
    // segment — so both halves see the same host.
    let mut node = node(w, seed)?;
    let mut untraced_at = Checkpoint { digest: None };
    let mut untraced_s = 0.0;
    let mut tracer = Tracer::default();
    let mut sys = SpurSystem::new(config()).map_err(|e| e.to_string())?;
    sys.load_workload(w).map_err(|e| e.to_string())?;
    let mut sched = MpScheduler::new(w, CPUS, seed)?;
    let mut buf: Vec<TraceRef> = Vec::with_capacity(BATCH);
    let mut traced_at = Checkpoint { digest: None };
    let budget = Duration::from_secs_f64(seconds * 0.75);
    let start = Instant::now();
    let mut segments = 0usize;
    while start.elapsed() < budget || untraced_at.digest.is_none() || traced_at.digest.is_none() {
        if segments.is_multiple_of(4) {
            ctl.sample();
        }
        untraced_s += slice(out, &mut node, &mut untraced_at)?;
        let root = tracer.begin("mp4.segment", None);
        for _ in 0..SLICE as usize / BATCH {
            tracer.span("mp.fill", Some(root), || {
                buf.clear();
                buf.extend(sched.by_ref().take(BATCH));
            });
            let ran = tracer.span("core.run", Some(root), || {
                sys.run(&mut buf.iter().copied(), BATCH as u64)
            });
            ran.map_err(|e| e.to_string())?;
            traced_at.at(out, &sys);
        }
        tracer.end(root);
        out.attempted += 1;
        segments += 1;
    }
    let untraced_digest = untraced_at.digest.expect("loop runs until the checkpoint");
    let traced_digest = traced_at.digest.expect("loop runs until the checkpoint");
    check_digest(out, seed, untraced_digest, "untraced");
    check_digest(out, seed, traced_digest, "traced");
    out.check(traced_digest == untraced_digest, || {
        format!("mp4: traced digest {traced_digest:#018x} != untraced {untraced_digest:#018x}")
    });
    check_end(out, node.system());
    check_end(out, &sys);
    let refs = sys.refs() as f64;
    let untraced_ns = untraced_s * 1e9 / node.refs() as f64;
    drop(node);

    // Generator alone on the same stream: the four shards pulled in
    // commit order, as many references as one third of the traced run.
    let gen_refs = (sys.refs() / 3).max(BATCH as u64) as usize;
    let procs = w.processes().len();
    let mut shards: Vec<TraceGenerator> = (0..CPUS)
        .map(|c| {
            let idx: Vec<usize> = (c..procs).step_by(CPUS).collect();
            TraceGenerator::with_processes(w, &idx, shard_seed(seed, c))
        })
        .collect();
    let t = Instant::now();
    let mut pulled = 0;
    while pulled < gen_refs {
        buf.clear();
        'fill: loop {
            for g in shards.iter_mut() {
                if buf.len() == BATCH {
                    break 'fill;
                }
                buf.push(g.next().ok_or("generator ended")?);
            }
        }
        pulled += std::hint::black_box(&buf).len();
    }
    let gen_ns = t.elapsed().as_nanos() as f64 / pulled as f64;

    let fill_ns = tracer.total_ns("mp.fill") as f64 / refs;
    let sim_ns = tracer.total_ns("core.run") as f64 / refs;
    let traced_ns = tracer.wall_ns() as f64 / refs;
    out.metric("host.control_ms", ctl.median(), "ms");
    out.metric("trace.gen_ns_per_ref", gen_ns, "ns");
    out.metric("mp.sched_ns_per_ref", fill_ns - gen_ns, "ns");
    out.metric(
        "mp.snoop_filter_entries",
        sys.snoop_filter_entries() as f64,
        "count",
    );
    out.metric("core.sim_ns_per_ref", sim_ns, "ns");
    let mut counts = SimCounts::default();
    counts.add(&sys);
    counts.emit(out);
    out.metric(
        "trace.overhead_pct",
        (traced_ns - untraced_ns) / untraced_ns * 100.0,
        "%",
    );
    out.metric(
        "trace.unattributed_pct",
        tracer.unattributed_share() * 100.0,
        "%",
    );
    check_reconciles(
        out,
        "mp4",
        "ns/ref",
        &[
            ("trace.gen", gen_ns),
            ("mp.sched", fill_ns - gen_ns),
            ("core.sim", sim_ns),
        ],
        fill_ns + sim_ns,
        untraced_ns,
    );
    Ok(())
}
