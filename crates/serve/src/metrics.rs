//! Service-level metrics, exposed at `GET /metrics`.
//!
//! Counters are lock-free atomics bumped on the request path; the
//! latency [`Histogram`]s sit behind one mutex touched only at job
//! completion and submit-response time — a few dozen times a second at
//! most, never per HTTP request. Rendering reuses the
//! `spur_obs::prometheus` text-format helpers, so the service and the
//! simulator speak one exposition dialect.
//!
//! **Single source of truth:** every latency here is derived from the
//! request's span tree ([`spur_obs::span`]) — the worker closes the
//! job's phase spans, snapshots the trace, and feeds the *span*
//! durations to [`ServeMetrics::observe_phases`]. There are no
//! side-channel timers: the histogram a dashboard scrapes and the span
//! tree `GET /v1/jobs/{id}/trace` returns can never disagree, because
//! one is computed from the other.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use spur_obs::prometheus::{
    render_counter, render_gauge, render_gauge_labeled, render_histogram, render_histogram_labeled,
    render_summary,
};
use spur_obs::Histogram;

/// Phase durations for one finished job, all in milliseconds, read off
/// the job's completed span tree.
#[derive(Debug, Clone, Copy)]
pub struct PhaseSample {
    /// `queue_wait` span: admission to worker pickup.
    pub queue_wait_ms: u64,
    /// `run` span: harness execution wall time (summed over retries).
    pub run_ms: u64,
    /// `serialize` span: artifact encode + persist.
    pub serialize_ms: u64,
    /// Root span: accept to serialized artifact.
    pub e2e_ms: u64,
    /// Whether the job completed successfully.
    pub ok: bool,
}

/// Everything the service counts.
#[derive(Debug)]
pub struct ServeMetrics {
    /// HTTP requests accepted for parsing.
    pub http_requests: AtomicU64,
    /// Requests answered 4xx (malformed, unknown route, …).
    pub http_client_errors: AtomicU64,
    /// Jobs accepted onto the queue.
    pub jobs_submitted: AtomicU64,
    /// Submissions shed with 429 (queue full).
    pub jobs_rejected: AtomicU64,
    /// Jobs that ran to a successful completion.
    pub jobs_completed: AtomicU64,
    /// Jobs that ran and failed (error or caught panic).
    pub jobs_failed: AtomicU64,
    /// Panicked job runs that were re-queued for another attempt.
    pub jobs_retried: AtomicU64,
    /// Submissions that joined an identical in-flight run instead of
    /// queuing their own (followers; the leader is counted normally).
    pub jobs_coalesced: AtomicU64,
    /// Submissions answered from the results cache without queuing.
    pub cache_hits: AtomicU64,
    /// Cache lookups that found nothing (including with caching off).
    pub cache_misses: AtomicU64,
    /// Entries evicted from the results cache at capacity.
    pub cache_evictions: AtomicU64,
    /// Submissions shed with 429 because their *client* was over
    /// quota while the queue itself had room.
    pub quota_rejected: AtomicU64,
    latency: Mutex<Latency>,
}

/// The phase names carried by `spur_serve_phase_ms{phase=...}`.
const PHASES: [&str; 3] = ["queue_wait", "run", "serialize"];

/// Per-experiment phase histograms. The label set is closed (the API's
/// experiment families), so cardinality is 3 phases × |experiments|.
#[derive(Debug)]
struct ExperimentLatency {
    experiment: &'static str,
    /// One histogram per entry of [`PHASES`], same order.
    phase_ms: [Histogram; 3],
}

#[derive(Debug)]
struct Latency {
    /// Milliseconds from accept to the 202 being written.
    submit_ms: Histogram,
    /// Milliseconds from accept to serialized artifact (root span).
    e2e_ms: Histogram,
    /// Span-derived phase histograms, one row per experiment family,
    /// in first-seen order (deterministic under a single seed of
    /// traffic; rendering sorts by name for scrape stability).
    per_experiment: Vec<ExperimentLatency>,
}

impl Latency {
    fn experiment_row(&mut self, experiment: &'static str) -> &mut ExperimentLatency {
        if let Some(i) = self
            .per_experiment
            .iter()
            .position(|r| r.experiment == experiment)
        {
            return &mut self.per_experiment[i];
        }
        self.per_experiment.push(ExperimentLatency {
            experiment,
            phase_ms: PHASES.map(Histogram::new),
        });
        self.per_experiment.last_mut().unwrap()
    }
}

impl Default for ServeMetrics {
    fn default() -> Self {
        Self::new()
    }
}

impl ServeMetrics {
    /// Creates zeroed metrics.
    pub fn new() -> Self {
        ServeMetrics {
            http_requests: AtomicU64::new(0),
            http_client_errors: AtomicU64::new(0),
            jobs_submitted: AtomicU64::new(0),
            jobs_rejected: AtomicU64::new(0),
            jobs_completed: AtomicU64::new(0),
            jobs_failed: AtomicU64::new(0),
            jobs_retried: AtomicU64::new(0),
            jobs_coalesced: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            cache_evictions: AtomicU64::new(0),
            quota_rejected: AtomicU64::new(0),
            latency: Mutex::new(Latency {
                submit_ms: Histogram::new("submit_ms"),
                e2e_ms: Histogram::new("e2e_ms"),
                per_experiment: Vec::new(),
            }),
        }
    }

    /// Records one accepted submission's accept→202 latency (the
    /// acceptor's `accept` + `parse` + `respond` spans).
    pub fn observe_submit(&self, submit_ms: u64) {
        let mut latency = self.latency.lock().unwrap_or_else(|e| e.into_inner());
        latency.submit_ms.record(submit_ms);
    }

    /// Records a *logical* completion that ran no simulation of its
    /// own: a coalesced follower or a cache hit. Counts toward the
    /// completion/failure totals and the e2e latency summary, but not
    /// the phase histograms — those measure actual work, and a
    /// follower's queue_wait/run phases would be fiction.
    pub fn observe_logical(&self, e2e_ms: u64, ok: bool) {
        if ok {
            self.jobs_completed.fetch_add(1, Ordering::Relaxed);
        } else {
            self.jobs_failed.fetch_add(1, Ordering::Relaxed);
        }
        let mut latency = self.latency.lock().unwrap_or_else(|e| e.into_inner());
        latency.e2e_ms.record(e2e_ms);
    }

    /// Records one finished job's span-derived phase durations.
    pub fn observe_phases(&self, experiment: &'static str, sample: PhaseSample) {
        if sample.ok {
            self.jobs_completed.fetch_add(1, Ordering::Relaxed);
        } else {
            self.jobs_failed.fetch_add(1, Ordering::Relaxed);
        }
        let mut latency = self.latency.lock().unwrap_or_else(|e| e.into_inner());
        latency.e2e_ms.record(sample.e2e_ms);
        let row = latency.experiment_row(experiment);
        for (h, v) in
            row.phase_ms
                .iter_mut()
                .zip([sample.queue_wait_ms, sample.run_ms, sample.serialize_ms])
        {
            h.record(v);
        }
    }

    /// Renders the Prometheus text exposition. `queue_depth`,
    /// `draining`, and the shape gauges (`queue_bound`, `cache_entries`)
    /// come from the queue and config; `uptime_seconds` from the
    /// server's start instant.
    pub fn render_prometheus(
        &self,
        queue_depth: usize,
        queue_bound: usize,
        cache_entries: usize,
        draining: bool,
        uptime_seconds: u64,
    ) -> String {
        let mut out = String::with_capacity(4096);
        render_gauge_labeled(
            &mut out,
            "spur_serve_build_info",
            "Build metadata; the value is always 1.",
            &[("version", env!("CARGO_PKG_VERSION"))],
            1,
        );
        render_gauge(
            &mut out,
            "spur_serve_uptime_seconds",
            "Seconds since the server started.",
            uptime_seconds,
        );
        render_counter(
            &mut out,
            "spur_serve_http_requests_total",
            "HTTP requests accepted for parsing.",
            self.http_requests.load(Ordering::Relaxed),
        );
        render_counter(
            &mut out,
            "spur_serve_http_client_errors_total",
            "Requests answered with a 4xx status.",
            self.http_client_errors.load(Ordering::Relaxed),
        );
        render_counter(
            &mut out,
            "spur_serve_jobs_submitted_total",
            "Jobs accepted onto the queue.",
            self.jobs_submitted.load(Ordering::Relaxed),
        );
        render_counter(
            &mut out,
            "spur_serve_jobs_rejected_total",
            "Submissions shed with 429 because the queue was full.",
            self.jobs_rejected.load(Ordering::Relaxed),
        );
        render_counter(
            &mut out,
            "spur_serve_jobs_completed_total",
            "Jobs that ran to successful completion.",
            self.jobs_completed.load(Ordering::Relaxed),
        );
        render_counter(
            &mut out,
            "spur_serve_jobs_failed_total",
            "Jobs that ran and failed (error or caught panic).",
            self.jobs_failed.load(Ordering::Relaxed),
        );
        render_counter(
            &mut out,
            "spur_serve_jobs_retried_total",
            "Panicked job runs re-queued for another attempt.",
            self.jobs_retried.load(Ordering::Relaxed),
        );
        render_counter(
            &mut out,
            "spur_serve_jobs_coalesced_total",
            "Submissions that joined an identical in-flight run.",
            self.jobs_coalesced.load(Ordering::Relaxed),
        );
        render_counter(
            &mut out,
            "spur_serve_cache_hits_total",
            "Submissions answered from the results cache.",
            self.cache_hits.load(Ordering::Relaxed),
        );
        render_counter(
            &mut out,
            "spur_serve_cache_misses_total",
            "Results-cache lookups that found nothing.",
            self.cache_misses.load(Ordering::Relaxed),
        );
        render_counter(
            &mut out,
            "spur_serve_cache_evictions_total",
            "Entries evicted from the results cache at capacity.",
            self.cache_evictions.load(Ordering::Relaxed),
        );
        render_counter(
            &mut out,
            "spur_serve_quota_rejected_total",
            "Submissions shed with 429 because their client was over quota.",
            self.quota_rejected.load(Ordering::Relaxed),
        );
        render_gauge(
            &mut out,
            "spur_serve_queue_depth",
            "Jobs currently waiting in the queue.",
            queue_depth as u64,
        );
        render_gauge(
            &mut out,
            "spur_serve_queue_bound",
            "Configured queue capacity.",
            queue_bound as u64,
        );
        render_gauge(
            &mut out,
            "spur_serve_cache_entries",
            "Configured results-cache capacity in entries.",
            cache_entries as u64,
        );
        render_gauge(
            &mut out,
            "spur_serve_draining",
            "1 while the service is draining toward exit.",
            draining as u64,
        );

        let latency = self.latency.lock().unwrap_or_else(|e| e.into_inner());
        // Aggregate views first (stable names the smoke tests grep):
        // queue wait across experiments, run-time summary quantiles.
        let mut queue_all = Histogram::new("queue_wait_ms");
        let mut run_all = Histogram::new("job_run_ms");
        let mut rows: Vec<&ExperimentLatency> = latency.per_experiment.iter().collect();
        rows.sort_by_key(|r| r.experiment);
        for row in &rows {
            queue_all.merge(&row.phase_ms[0]);
            run_all.merge(&row.phase_ms[1]);
        }
        render_histogram(
            &mut out,
            "spur_serve_queue_wait_ms",
            "Milliseconds jobs waited in the queue (queue_wait span).",
            &queue_all,
        );
        render_summary(
            &mut out,
            "spur_serve_job_run_ms",
            "Job execution wall time in milliseconds (run span).",
            &run_all,
        );
        render_summary(
            &mut out,
            "spur_serve_submit_ms",
            "Milliseconds from accept to the 202 response being written.",
            &latency.submit_ms,
        );
        render_summary(
            &mut out,
            "spur_serve_e2e_ms",
            "Milliseconds from accept to serialized artifact (root span).",
            &latency.e2e_ms,
        );
        // Per-phase, per-experiment histograms derived from spans.
        let mut first = true;
        for row in &rows {
            for (phase, h) in PHASES.iter().zip(&row.phase_ms) {
                render_histogram_labeled(
                    &mut out,
                    "spur_serve_phase_ms",
                    "Span-derived phase latency in milliseconds.",
                    &[("phase", phase), ("experiment", row.experiment)],
                    h,
                    first,
                );
                first = false;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(queue: u64, run: u64, serialize: u64, ok: bool) -> PhaseSample {
        PhaseSample {
            queue_wait_ms: queue,
            run_ms: run,
            serialize_ms: serialize,
            e2e_ms: queue + run + serialize,
            ok,
        }
    }

    #[test]
    fn exposition_has_the_contractual_series() {
        let m = ServeMetrics::new();
        m.http_requests.fetch_add(5, Ordering::Relaxed);
        m.jobs_submitted.fetch_add(3, Ordering::Relaxed);
        m.jobs_rejected.fetch_add(1, Ordering::Relaxed);
        m.observe_submit(1);
        m.observe_phases("refbit", sample(2, 40, 1, true));
        m.observe_phases("refbit", sample(3, 60, 1, true));
        m.observe_phases("mp", sample(1, 50, 1, false));
        let text = m.render_prometheus(2, 16, 128, false, 7);
        assert!(text.contains("spur_serve_build_info{version=\""));
        assert!(text.contains("spur_serve_uptime_seconds 7\n"));
        assert!(text.contains("spur_serve_http_requests_total 5\n"));
        assert!(text.contains("spur_serve_jobs_submitted_total 3\n"));
        assert!(text.contains("spur_serve_jobs_rejected_total 1\n"));
        assert!(text.contains("spur_serve_jobs_completed_total 2\n"));
        assert!(text.contains("spur_serve_jobs_failed_total 1\n"));
        assert!(text.contains("spur_serve_queue_depth 2\n"));
        assert!(text.contains("spur_serve_queue_bound 16\n"));
        assert!(text.contains("spur_serve_cache_entries 128\n"));
        assert!(text.contains("spur_serve_draining 0\n"));
        assert!(text.contains("spur_serve_jobs_coalesced_total 0\n"));
        assert!(text.contains("spur_serve_cache_hits_total 0\n"));
        assert!(text.contains("spur_serve_cache_misses_total 0\n"));
        assert!(text.contains("spur_serve_cache_evictions_total 0\n"));
        assert!(text.contains("spur_serve_quota_rejected_total 0\n"));
        // The acceptance-criteria quantiles survive the span rework.
        assert!(text.contains("spur_serve_job_run_ms{quantile=\"0.5\"}"));
        assert!(text.contains("spur_serve_job_run_ms{quantile=\"0.9\"}"));
        assert!(text.contains("spur_serve_job_run_ms{quantile=\"0.99\"}"));
        assert!(text.contains("spur_serve_queue_wait_ms_bucket"));
        assert!(text.contains("spur_serve_submit_ms{quantile=\"0.99\"}"));
        assert!(text.contains("spur_serve_e2e_ms_count 3\n"));
    }

    #[test]
    fn phase_histograms_are_labeled_by_experiment() {
        let m = ServeMetrics::new();
        m.observe_phases("refbit", sample(2, 40, 1, true));
        m.observe_phases("mp", sample(8, 200, 2, true));
        let text = m.render_prometheus(0, 16, 0, false, 0);
        assert!(text.contains("spur_serve_phase_ms_count{phase=\"run\",experiment=\"refbit\"} 1\n"));
        assert!(
            text.contains("spur_serve_phase_ms_count{phase=\"queue_wait\",experiment=\"mp\"} 1\n")
        );
        assert!(
            text.contains("spur_serve_phase_ms_count{phase=\"serialize\",experiment=\"mp\"} 1\n")
        );
        // One family header regardless of label-set count.
        assert_eq!(
            text.matches("# TYPE spur_serve_phase_ms histogram").count(),
            1
        );
        // The aggregate run summary folds both experiments.
        assert!(text.contains("spur_serve_job_run_ms_count 2\n"));
    }

    #[test]
    fn experiment_rows_render_sorted_regardless_of_arrival_order() {
        let m = ServeMetrics::new();
        m.observe_phases("mp", sample(1, 1, 1, true));
        m.observe_phases("events", sample(1, 1, 1, true));
        let text = m.render_prometheus(0, 16, 0, false, 0);
        let events_at = text.find("experiment=\"events\"").unwrap();
        let mp_at = text.find("experiment=\"mp\"").unwrap();
        assert!(events_at < mp_at, "rows sort by experiment name");
    }
}
