//! Randomized tests for the trace crate: codec round-trips and
//! generator conformance, driven by the repository's deterministic
//! [`SmallRng`] instead of an external property-testing framework.

use spur_trace::record::RecordedTrace;
use spur_trace::stream::{Pid, TraceRef};
use spur_types::rng::SmallRng;
use spur_types::{AccessKind, Error, GlobalAddr};

fn arb_ref(rng: &mut SmallRng) -> TraceRef {
    let pid = rng.random_range(0u32..8);
    let block = rng.random_range(0u64..(1u64 << 33));
    let kind = match rng.random_range(0u8..3) {
        0 => AccessKind::InstrFetch,
        1 => AccessKind::Read,
        _ => AccessKind::Write,
    };
    TraceRef {
        pid: Pid(pid),
        addr: GlobalAddr::new((block << 5) & GlobalAddr::MASK),
        kind,
    }
}

/// Any block-aligned reference stream round-trips through the codec.
#[test]
fn codec_round_trips_arbitrary_streams() {
    let mut rng = SmallRng::seed_from_u64(0x7ace_0001);
    for _ in 0..64 {
        let n = rng.random_range(0usize..500);
        let refs: Vec<TraceRef> = (0..n).map(|_| arb_ref(&mut rng)).collect();
        let trace = RecordedTrace::record(refs.iter().copied());
        assert_eq!(trace.len(), refs.len() as u64);
        let replayed: Vec<_> = trace.iter().collect();
        assert_eq!(&replayed, &refs);

        // And through serialization.
        let back = RecordedTrace::from_bytes(&trace.to_bytes()).unwrap();
        let replayed2: Vec<_> = back.iter().collect();
        assert_eq!(&replayed2, &refs);
    }
}

/// Sequential streams (the common case) encode in ~1-2 bytes/ref.
#[test]
fn sequential_streams_encode_tightly() {
    let mut rng = SmallRng::seed_from_u64(0x7ace_0002);
    for _ in 0..64 {
        let start = rng.random_range(0u64..(1 << 20));
        let n = rng.random_range(100usize..500);
        let refs: Vec<TraceRef> = (0..n as u64)
            .map(|i| TraceRef {
                pid: Pid(0),
                addr: GlobalAddr::new(((start + i) << 5) & GlobalAddr::MASK),
                kind: AccessKind::Read,
            })
            .collect();
        let trace = RecordedTrace::record(refs.iter().copied());
        assert!(
            trace.bytes_per_ref() <= 2.3,
            "bytes/ref {}",
            trace.bytes_per_ref()
        );
        let replayed: Vec<_> = trace.iter().collect();
        assert_eq!(replayed, refs);
    }
}

/// Corrupting the count field, in either direction, or appending bytes
/// after the last record never panics and never silently drops records
/// — it errors.
#[test]
fn corrupted_count_is_detected() {
    let mut rng = SmallRng::seed_from_u64(0x7ace_0003);
    let refs: Vec<TraceRef> = (0..50u64)
        .map(|i| TraceRef {
            pid: Pid(0),
            addr: GlobalAddr::new((i << 5) & GlobalAddr::MASK),
            kind: AccessKind::Read,
        })
        .collect();
    let trace = RecordedTrace::record(refs);
    let rejected =
        |bytes: &[u8]| matches!(RecordedTrace::from_bytes(bytes), Err(Error::BadWorkload(_)));
    for _ in 0..64 {
        let over = 50u64 + rng.random_range(1u64..1000);
        let under = rng.random_range(0u64..50);
        for bad_count in [over, under] {
            let mut bytes = trace.to_bytes();
            bytes[8..16].copy_from_slice(&bad_count.to_le_bytes());
            assert!(rejected(&bytes), "declared {bad_count} of 50 records");
        }

        let mut bytes = trace.to_bytes();
        let garbage = rng.random_range(1usize..16);
        bytes.extend((0..garbage).map(|_| rng.random_range(0u8..=255)));
        assert!(rejected(&bytes), "{garbage} trailing bytes");
    }
}

mod generator_props {
    use spur_trace::process::{ProcessSpec, Schedule};
    use spur_trace::workloads::Workload;
    use spur_types::rng::SmallRng;
    use spur_types::AccessKind;

    /// Any single-process workload keeps every reference inside its
    /// declared regions and roughly honors its reference mix.
    #[test]
    fn generated_refs_conform() {
        let mut rng = SmallRng::seed_from_u64(0x7ace_0004);
        for _ in 0..16 {
            let code = rng.random_range(8u64..64);
            let heap = rng.random_range(64u64..512);
            let file = rng.random_range(8u64..64);
            let seed = rng.random_range(0u64..500);
            let spec = ProcessSpec::new("p", code, heap, 8, file);
            let w = Workload::build("prop", vec![spec]).unwrap();
            let regions = w.regions().to_vec();
            let n = 30_000usize;
            let mut writes = 0u64;
            for r in w.generator(seed).take(n) {
                let vpn = r.addr.vpn().index();
                assert!(
                    regions.iter().any(|reg| {
                        vpn >= reg.start.index() && vpn < reg.start.index() + reg.pages
                    }),
                    "reference escaped its regions"
                );
                if r.kind == AccessKind::Write {
                    writes += 1;
                }
            }
            let wf = writes as f64 / n as f64;
            assert!((0.05..0.30).contains(&wf), "write fraction {wf}");
        }
    }

    /// Periodic schedules never emit references during idle phases.
    #[test]
    fn periodic_processes_respect_their_schedule() {
        let mut rng = SmallRng::seed_from_u64(0x7ace_0005);
        for _ in 0..16 {
            let active = rng.random_range(10_000u64..50_000);
            let idle = rng.random_range(10_000u64..50_000);
            let mut always = ProcessSpec::new("bg", 16, 64, 8, 16);
            always.weight = 1;
            let mut periodic = ProcessSpec::new("burst", 16, 64, 8, 16);
            periodic.schedule = Schedule::Periodic {
                active,
                idle,
                offset: 0,
            };
            let w = Workload::build("sched", vec![always, periodic]).unwrap();
            // Count burst-process references; they must exist but be a
            // minority share consistent with its duty cycle.
            let total = 200_000usize;
            let burst_refs = w
                .generator(3)
                .take(total)
                .filter(|r| r.pid == spur_trace::stream::Pid(1))
                .count();
            let duty = active as f64 / (active + idle) as f64;
            let share = burst_refs as f64 / total as f64;
            // The round-robin gives each active process half the slots;
            // duty-cycling scales that down. Allow generous slack for
            // quantum granularity.
            assert!(share <= duty * 0.75 + 0.15, "share {share} duty {duty}");
        }
    }
}
