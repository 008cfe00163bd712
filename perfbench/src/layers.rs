//! Simulator-layer measurements shared by the workloads: counter
//! totals from `spur-cache` and `spur-vm`, the run digest, and the
//! probe that times generator, simulator and observability separately
//! on one cell's reference stream.

use std::time::Instant;

use spur_cache::counters::{CounterEvent, CounterMode};
use spur_core::{ObsParams, SimConfig, SpurSystem};
use spur_trace::stream::TraceRef;
use spur_trace::workloads::Workload;

use crate::stats::{Digest, Outcome};

/// Counter totals over one or more simulator runs.
#[derive(Debug, Default, Clone, Copy)]
pub struct SimCounts {
    pub refs: u64,
    pub cycles: u64,
    pub misses: u64,
    pub pte_misses: u64,
    pub evictions: u64,
    pub invalidations: u64,
    pub owner_supplies: u64,
    pub page_faults: u64,
    pub page_ins: u64,
    pub zero_fills: u64,
    pub daemon_scans: u64,
    pub ref_flushes: u64,
    pub dirty_faults: u64,
}

impl SimCounts {
    /// Adds one system's totals.
    pub fn add(&mut self, sys: &SpurSystem) {
        let c = sys.counters();
        let vm = sys.vm().stats();
        self.refs += sys.refs();
        self.cycles += sys.cycles().raw();
        self.misses += sys.misses();
        self.pte_misses += c.total(CounterEvent::PteCacheMiss);
        self.evictions += c.total(CounterEvent::Eviction);
        self.invalidations += c.total(CounterEvent::Invalidation);
        self.owner_supplies += c.total(CounterEvent::OwnerSupply);
        self.page_faults += vm.page_faults;
        self.page_ins += vm.page_ins;
        self.zero_fills += vm.zero_fills;
        self.daemon_scans += vm.daemon_scans;
        self.ref_flushes += vm.ref_flushes;
        self.dirty_faults += c.total(CounterEvent::DirtyFault);
    }

    /// Adds another total.
    pub fn absorb(&mut self, o: &SimCounts) {
        self.refs += o.refs;
        self.cycles += o.cycles;
        self.misses += o.misses;
        self.pte_misses += o.pte_misses;
        self.evictions += o.evictions;
        self.invalidations += o.invalidations;
        self.owner_supplies += o.owner_supplies;
        self.page_faults += o.page_faults;
        self.page_ins += o.page_ins;
        self.zero_fills += o.zero_fills;
        self.daemon_scans += o.daemon_scans;
        self.ref_flushes += o.ref_flushes;
        self.dirty_faults += o.dirty_faults;
    }

    /// Records the `core.cycles_per_ref`, `cache.*` and `vm.*` metrics.
    pub fn emit(&self, out: &mut Outcome) {
        let refs = self.refs.max(1) as f64;
        let per_kref = |n: u64| n as f64 * 1000.0 / refs;
        out.metric("core.cycles_per_ref", self.cycles as f64 / refs, "cycles");
        out.metric("cache.miss_ratio", self.misses as f64 / refs, "ratio");
        out.metric(
            "cache.pte_miss_per_kref",
            per_kref(self.pte_misses),
            "1/kref",
        );
        out.metric(
            "cache.evictions_per_kref",
            per_kref(self.evictions),
            "1/kref",
        );
        out.metric(
            "cache.invalidations_per_kref",
            per_kref(self.invalidations),
            "1/kref",
        );
        out.metric(
            "cache.owner_supply_per_kref",
            per_kref(self.owner_supplies),
            "1/kref",
        );
        out.metric(
            "vm.page_faults_per_kref",
            per_kref(self.page_faults),
            "1/kref",
        );
        out.metric("vm.page_ins", self.page_ins as f64, "count");
        out.metric("vm.zero_fills", self.zero_fills as f64, "count");
        out.metric(
            "vm.daemon_scans_per_kref",
            per_kref(self.daemon_scans),
            "1/kref",
        );
        out.metric("vm.ref_flushes", self.ref_flushes as f64, "count");
        out.metric("vm.dirty_faults", self.dirty_faults as f64, "count");
    }
}

/// Digest of a run's results: references, cycles, every counter,
/// every VM statistic and the snoop-filter size.
pub fn system_digest(sys: &SpurSystem) -> u64 {
    let mut d = Digest::default();
    d.u64(sys.refs());
    d.u64(sys.cycles().raw());
    for mode in CounterMode::ALL {
        for &event in mode.events() {
            d.u64(sys.counters().total(event));
        }
    }
    let vm = sys.vm().stats();
    for v in [
        vm.page_ins,
        vm.zero_fills,
        vm.reclaims,
        vm.daemon_scans,
        vm.ref_clears,
        vm.ref_flushes,
        vm.flush_writebacks,
        vm.soft_faults,
        vm.page_faults,
        vm.sweeps,
        vm.resident_high_water,
    ] {
        d.u64(v);
    }
    d.u64(sys.snoop_filter_entries() as u64);
    d.finish()
}

/// One cell for [`probe`]: a workload stream run under a configuration.
#[derive(Debug, Clone)]
pub struct ProbeCell {
    pub workload: Workload,
    pub config: SimConfig,
    pub seed: u64,
    pub refs: u64,
}

/// What [`probe`] measured for one cell.
#[derive(Debug, Clone)]
pub struct CellProbe {
    /// Generator time per reference for this cell's stream.
    pub gen_ns_per_ref: f64,
    /// `SpurSystem::run` over the pre-generated stream, obs off.
    pub sim_ns_per_ref: f64,
    /// The same run with default `ObsParams`, minus the run without.
    pub obs_ns_per_ref: f64,
    /// `finish_obs` time.
    pub obs_finish_ms: f64,
    /// Events emitted per reference with obs on.
    pub obs_events_per_ref: f64,
    /// Counter totals of the obs-off run.
    pub counts: SimCounts,
    /// The obs-off run's event record, for cross-checks against
    /// artifacts of the same cell.
    pub events_json: String,
}

fn run_timed(
    cell: &ProbeCell,
    stream: &[TraceRef],
    obs: bool,
) -> Result<(SpurSystem, f64, f64, f64), String> {
    let mut sys = SpurSystem::new(cell.config).map_err(|e| e.to_string())?;
    if obs {
        sys.enable_obs(ObsParams::default());
    }
    sys.load_workload(&cell.workload)
        .map_err(|e| e.to_string())?;
    let t = Instant::now();
    sys.run(&mut stream.iter().copied(), cell.refs)
        .map_err(|e| e.to_string())?;
    let run_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let events = sys
        .finish_obs()
        .map_or(0, |r| std::hint::black_box(r).recorder.emitted_total());
    let finish_s = t.elapsed().as_secs_f64();
    Ok((sys, run_s, finish_s, events as f64))
}

/// Runs `cell` as a scenario runs it (observability on) over a recorded
/// stream, so the generator's work is reused; returns the run's time in
/// ms.
///
/// # Errors
///
/// Propagates simulator errors.
pub fn replay_ms(cell: &ProbeCell, stream: &[TraceRef]) -> Result<f64, String> {
    let (_, run_s, _, _) = run_timed(cell, stream, true)?;
    Ok(run_s * 1e3)
}

/// Runs `cell` from scratch as a scenario runs it (observability on),
/// its stream generated as it runs; returns the run's time in ms.
///
/// # Errors
///
/// Propagates simulator errors.
pub fn cold_ms(cell: &ProbeCell) -> Result<f64, String> {
    let mut sys = SpurSystem::new(cell.config).map_err(|e| e.to_string())?;
    sys.enable_obs(ObsParams::default());
    sys.load_workload(&cell.workload)
        .map_err(|e| e.to_string())?;
    let t = Instant::now();
    sys.run(&mut cell.workload.generator(cell.seed), cell.refs)
        .map_err(|e| e.to_string())?;
    Ok(t.elapsed().as_secs_f64() * 1e3)
}

/// Times generator, simulator and observability separately for each
/// cell. Cells sharing a (workload, seed) stream share one generation.
///
/// # Errors
///
/// Propagates simulator errors.
pub fn probe(cells: &[ProbeCell]) -> Result<Vec<CellProbe>, String> {
    let mut streams: Vec<(String, u64, Vec<TraceRef>, f64)> = Vec::new();
    let mut out = Vec::with_capacity(cells.len());
    for cell in cells {
        let name = cell.workload.name().to_string();
        let idx = match streams
            .iter()
            .position(|(n, s, v, _)| *n == name && *s == cell.seed && v.len() as u64 >= cell.refs)
        {
            Some(i) => i,
            None => {
                let t = Instant::now();
                let stream: Vec<TraceRef> = cell
                    .workload
                    .generator(cell.seed)
                    .take(cell.refs as usize)
                    .collect();
                let ns = t.elapsed().as_nanos() as f64 / stream.len().max(1) as f64;
                streams.push((name, cell.seed, stream, ns));
                streams.len() - 1
            }
        };
        let (_, _, stream, gen_ns) = &streams[idx];
        let (off, off_s, _, _) = run_timed(cell, stream, false)?;
        let (_, on_s, finish_s, events) = run_timed(cell, stream, true)?;
        let refs = off.refs().max(1) as f64;
        let mut counts = SimCounts::default();
        counts.add(&off);
        out.push(CellProbe {
            gen_ns_per_ref: *gen_ns,
            sim_ns_per_ref: off_s * 1e9 / refs,
            obs_ns_per_ref: (on_s - off_s) * 1e9 / refs,
            obs_finish_ms: finish_s * 1e3,
            obs_events_per_ref: events / refs,
            counts,
            events_json: off.events().to_json().encode(),
        });
    }
    Ok(out)
}

/// Records the probe-derived layer metrics averaged over `cells`
/// (`trace.gen_ns_per_ref`, `obs.*`).
pub fn emit_probe_means(out: &mut Outcome, cells: &[CellProbe]) {
    let mean = |f: &dyn Fn(&CellProbe) -> f64| {
        cells.iter().map(f).sum::<f64>() / cells.len().max(1) as f64
    };
    out.metric("trace.gen_ns_per_ref", mean(&|c| c.gen_ns_per_ref), "ns");
    out.metric("obs.ns_per_ref", mean(&|c| c.obs_ns_per_ref), "ns");
    out.metric("obs.finish_ms", mean(&|c| c.obs_finish_ms), "ms");
    out.metric(
        "obs.events_per_ref",
        mean(&|c| c.obs_events_per_ref),
        "1/ref",
    );
}
