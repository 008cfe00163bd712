//! Deterministic performance guards for the standing `MpSystem`
//! workload: MP-WORKERS(8, 256), 8 MB, seed 1989, 2,000,000 refs at
//! 1, 2, 4 and 8 CPUs.
//!
//! Two quantities are pure functions of the seed, so they are checked
//! exactly rather than timed:
//!
//! - Total simulated cycles. A results-invisible optimization must
//!   leave every one of them unchanged.
//! - The snoop-filter directory size at exit. It must stay bounded by
//!   the live cache lines (×2 for stale residue). An unbounded
//!   directory was the root cause of the multi-CPU throughput collapse
//!   recorded in `OPTIMIZATION_LOG.md` entry 8, and at this scale that
//!   leak is invisible to timing.
//!
//! The 1-CPU `SpurSystem` needs no row of its own:
//! `uniprocessor_parity.rs` proves a 1-CPU `MpSystem` is counter- and
//! cycle-identical to it.

use spur_core::SimConfig;
use spur_mp::{MpParams, MpSystem};
use spur_trace::workloads::mp_workers;
use spur_types::{MemSize, CACHE_LINES};

const REFS: u64 = 2_000_000;
const SEED: u64 = 1989;

#[test]
fn cycles_and_snoop_filter_size_are_pinned_at_every_cpu_count() {
    let workload = mp_workers(8, 256);
    for (cpus, expected_cycles) in [
        (1, 273_567_000u64),
        (2, 270_128_352),
        (4, 275_220_770),
        (8, 278_747_156),
    ] {
        let config = SimConfig {
            mem: MemSize::MB8,
            cpus,
            ..SimConfig::default()
        };
        let mut node =
            MpSystem::new(config, &workload, SEED, MpParams::default()).expect("valid node");
        node.run(REFS).expect("run completes");

        assert_eq!(node.refs(), REFS, "cpus={cpus}: refs");
        assert_eq!(node.cycles().raw(), expected_cycles, "cpus={cpus}: cycles");

        let entries = node.system().snoop_filter_entries();
        let bound = if cpus > 1 {
            2 * cpus * CACHE_LINES as usize
        } else {
            0
        };
        assert!(
            entries <= bound,
            "cpus={cpus}: snoop filter has {entries} entries, bound {bound} — directory leak"
        );
    }
}
