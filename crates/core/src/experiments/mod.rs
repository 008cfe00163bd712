//! Experiment runners: one per table or figure of the paper.
//!
//! | paper artifact | runner |
//! |---|---|
//! | Table 3.3 (event frequencies) | [`events::table_3_3`] |
//! | Table 3.4 (dirty-bit overheads) | [`overhead::table_3_4`] |
//! | Table 3.5 (dev-machine page-outs) | [`pageout::table_3_5`] |
//! | Table 4.1 (reference-bit policies) | [`refbit::table_4_1`] |
//! | Footnote 3 model | [`overhead::model_vs_measured`] |
//!
//! Every runner takes a [`Scale`] so the same code serves quick CI runs,
//! the benchmark, and full regenerations.

pub mod ablation;
pub mod crossover;
pub mod events;
pub mod mp;
pub mod overhead;
pub mod pageout;
pub mod refbit;
pub mod sweep;

pub use ablation::{
    flush_cost_comparison, handler_tuning, measure_cache_scaling_point,
    miss_approximation_vs_cache_size, sun3_overhead, tdc_sensitivity,
};
pub use crossover::{crossover_sweep, measure_crossover, CrossoverRow};
pub use events::{measure_events, table_3_3, EventRow};
pub use mp::{mp_model, render_mp_model, MpModelRow, MP_MODEL_DAEMON_PERIOD};
pub use overhead::{model_vs_measured, table_3_4, OverheadRow};
pub use pageout::{table_3_5, PageoutRow};
pub use refbit::{table_4_1, RefbitRow};
pub use sweep::{measure_tlb_point, memory_sweep, tlb_size_sweep, MemorySweepRow, TlbSweepRow};

/// How big an experiment run is.
///
/// The paper's runs are ~10⁹ references; the default scale here is ~10⁷,
/// preserving every shape (who wins, where crossovers fall) at a laptop
/// budget. See DESIGN.md §4 "Scaling".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// References per synthetic-workload run.
    pub refs: u64,
    /// Base RNG seed.
    pub seed: u64,
    /// Repetitions per data point (the paper used five, randomized).
    pub reps: u32,
    /// References simulated per hour of dev-machine uptime (Table 3.5).
    pub dev_refs_per_hour: u64,
}

impl Scale {
    /// Quick smoke-test scale (CI, tests).
    pub const fn quick() -> Self {
        Scale {
            refs: 1_500_000,
            seed: 1989,
            reps: 1,
            dev_refs_per_hour: 120_000,
        }
    }

    /// The default regeneration scale.
    pub const fn default_scale() -> Self {
        Scale {
            refs: 12_000_000,
            seed: 1989,
            reps: 3,
            dev_refs_per_hour: 500_000,
        }
    }

    /// A long run for tighter statistics.
    pub const fn full() -> Self {
        Scale {
            refs: 40_000_000,
            seed: 1989,
            reps: 5,
            dev_refs_per_hour: 900_000,
        }
    }
}

impl Default for Scale {
    fn default() -> Self {
        Self::default_scale()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_are_ordered() {
        assert!(Scale::quick().refs < Scale::default_scale().refs);
        assert!(Scale::default_scale().refs < Scale::full().refs);
        assert!(Scale::full().reps >= 5, "paper used five repetitions");
    }
}
