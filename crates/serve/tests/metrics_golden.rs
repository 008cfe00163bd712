//! Golden-file test for the `/metrics` Prometheus exposition.
//!
//! The rendered text is an external contract: scrape configs, alert
//! rules, and dashboards key on these exact series names, label
//! spellings, and HELP/TYPE lines. Any drift must show up as a failing
//! diff against `tests/golden/metrics.prom`, reviewed like an API
//! change. To regenerate after an intentional change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p spur-serve --test metrics_golden
//! ```

use std::sync::atomic::Ordering;

use spur_serve::{PhaseSample, ServeMetrics};

fn sample(queue_wait_ms: u64, run_ms: u64, serialize_ms: u64, ok: bool) -> PhaseSample {
    PhaseSample {
        queue_wait_ms,
        run_ms,
        serialize_ms,
        e2e_ms: queue_wait_ms + run_ms + serialize_ms,
        ok,
    }
}

/// A fixed, fully deterministic metrics state covering every series:
/// counters at distinct values, span-derived phase samples across two
/// experiment families (including a zero and a large duration so
/// bucket edges are exercised), submit latencies, one retry, and a
/// non-empty queue.
fn canned_metrics() -> ServeMetrics {
    let m = ServeMetrics::new();
    m.http_requests.store(12, Ordering::Relaxed);
    m.http_client_errors.store(2, Ordering::Relaxed);
    m.jobs_submitted.store(5, Ordering::Relaxed);
    m.jobs_rejected.store(1, Ordering::Relaxed);
    m.jobs_retried.store(1, Ordering::Relaxed);
    m.jobs_coalesced.store(3, Ordering::Relaxed);
    m.cache_hits.store(4, Ordering::Relaxed);
    m.cache_misses.store(6, Ordering::Relaxed);
    m.cache_evictions.store(1, Ordering::Relaxed);
    m.quota_rejected.store(1, Ordering::Relaxed);
    m.observe_submit(0);
    m.observe_submit(2);
    m.observe_phases("refbit", sample(0, 40, 1, true));
    m.observe_phases("refbit", sample(3, 55, 1, true));
    m.observe_phases("events", sample(7, 61, 2, true));
    m.observe_phases("refbit", sample(2, 9_000, 1, false));
    m
}

#[test]
fn metrics_exposition_matches_the_golden_file() {
    // Uptime is pinned: the golden file is byte-exact.
    let rendered = canned_metrics().render_prometheus(2, 64, 128, false, 123);
    let golden_path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/metrics.prom");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(golden_path, &rendered).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(golden_path)
        .expect("tests/golden/metrics.prom missing — run with UPDATE_GOLDEN=1 to create it");
    assert!(
        rendered == golden,
        "/metrics drifted from the golden exposition.\n\
         If intentional, regenerate with UPDATE_GOLDEN=1 and review the diff.\n\
         --- golden ---\n{golden}\n--- rendered ---\n{rendered}"
    );
}
