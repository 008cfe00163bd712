//! In-memory spans for the traced runs.
//!
//! Spans are recorded only in the benchmark's own code, around calls
//! into the crates under test, and kept in memory until the process
//! exits. A layer's self time is its span's duration minus the part of
//! that interval its child spans cover.

use std::time::Instant;

use crate::stats::Outcome;

/// Largest gap, as a share of the untraced figure, between a traced
/// run's summed layer self times and the untraced end-to-end figure.
pub const RECONCILE_TOLERANCE: f64 = 0.15;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name.
    pub name: &'static str,
    /// Index of the parent span, `None` for a root.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer's origin.
    pub end_ns: u64,
}

/// A span recorder.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let now = self.now_ns();
        self.push(name, parent, now, now)
    }

    /// Closes a span at the current instant.
    pub fn end(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Records a span whose interval was measured elsewhere.
    pub fn push(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        start_ns: u64,
        end_ns: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            parent,
            start_ns,
            end_ns: end_ns.max(start_ns),
        });
        self.spans.len() - 1
    }

    /// Runs `f` inside a span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, parent);
        let out = f();
        self.end(id);
        out
    }

    /// All spans, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total duration of the spans named `name`, in nanoseconds.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .sum()
    }

    /// Self time of span `id`: its duration minus the union of its
    /// children's intervals, clipped to it.
    pub fn self_ns(&self, id: usize) -> u64 {
        let span = &self.spans[id];
        let mut children: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| (s.start_ns.max(span.start_ns), s.end_ns.min(span.end_ns)))
            .filter(|(a, b)| a < b)
            .collect();
        children.sort_unstable();
        let mut covered = 0;
        let mut cursor = span.start_ns;
        for (a, b) in children {
            let a = a.max(cursor);
            if b > a {
                covered += b - a;
                cursor = b;
            }
        }
        (span.end_ns - span.start_ns) - covered
    }

    /// Wall time of the root spans, in nanoseconds.
    pub fn wall_ns(&self) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.end_ns - s.start_ns)
            .sum()
    }

    /// Share of wall time left in the roots' own self time, that is
    /// attributed to no layer.
    pub fn unattributed_share(&self) -> f64 {
        let wall = self.wall_ns();
        if wall == 0 {
            return 0.0;
        }
        let root_self: u64 = (0..self.spans.len())
            .filter(|&id| self.spans[id].parent.is_none())
            .map(|id| self.self_ns(id))
            .sum();
        root_self as f64 / wall as f64
    }

    /// Summed layer self time under each root span (its duration minus
    /// its own self time), in root order.
    pub fn layer_ns_per_root(&self) -> Vec<u64> {
        (0..self.spans.len())
            .filter(|&id| self.spans[id].parent.is_none())
            .map(|id| (self.spans[id].end_ns - self.spans[id].start_ns) - self.self_ns(id))
            .collect()
    }
}

/// Whether a traced run's layer self times, summed (`traced`),
/// reconcile with the untraced end-to-end figure they explain: the two
/// differ by at most `tolerance` as a share of `untraced`.
pub fn reconciles(traced: f64, untraced: f64, tolerance: f64) -> bool {
    untraced > 0.0 && (traced - untraced).abs() <= tolerance * untraced
}

/// Prints a traced run's layer table (`layers`, in `unit`) and checks
/// that `traced`, the layers' summed self time per operation, reconciles
/// with `untraced`, the same figure from the untraced operations of the
/// same run. A breach counts as a failed check.
pub fn check_reconciles(
    out: &mut Outcome,
    what: &str,
    unit: &str,
    layers: &[(&str, f64)],
    traced: f64,
    untraced: f64,
) {
    for (name, v) in layers {
        eprintln!("{what}: layer {name:<22} {v:>12.3} {unit}");
    }
    eprintln!(
        "{what}: layers sum to {traced:.3} {unit} per operation traced, {untraced:.3} {unit} untraced"
    );
    out.check(reconciles(traced, untraced, RECONCILE_TOLERANCE), || {
        format!(
            "{what}: traced layers sum to {traced:.3} {unit}, untraced {untraced:.3} {unit}: \
             more than {:.0}% apart",
            RECONCILE_TOLERANCE * 100.0
        )
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tracer(spans: &[(&'static str, Option<usize>, u64, u64)]) -> Tracer {
        let mut t = Tracer::default();
        for &(name, parent, a, b) in spans {
            t.push(name, parent, a, b);
        }
        t
    }

    #[test]
    fn self_times_sum_to_wall_time() {
        let t = tracer(&[
            ("run", None, 0, 1_000),
            ("fill", Some(0), 0, 300),
            ("sim", Some(0), 300, 980),
            ("fill", Some(0), 980, 995),
            ("inner", Some(2), 400, 500),
        ]);
        let selfs: Vec<u64> = (0..5).map(|id| t.self_ns(id)).collect();
        assert_eq!(selfs, vec![5, 300, 580, 15, 100]);
        assert_eq!(selfs.iter().sum::<u64>(), t.wall_ns());
        assert_eq!(t.layer_ns_per_root(), vec![995]);
        assert!((t.unattributed_share() - 0.005).abs() < 1e-12);
    }

    #[test]
    fn overlapping_children_count_once() {
        let t = tracer(&[
            ("pool", None, 0, 100),
            ("job", Some(0), 0, 60),
            ("job", Some(0), 10, 50),
            ("job", Some(0), 90, 120),
        ]);
        assert_eq!(t.self_ns(0), 30);
        assert_eq!(t.layer_ns_per_root(), vec![70]);
        assert!((t.unattributed_share() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn traced_layers_reconcile_with_the_untraced_figure_within_the_tolerance() {
        assert!(reconciles(100.0, 100.0, 0.0));
        assert!(reconciles(114.0, 100.0, RECONCILE_TOLERANCE));
        assert!(reconciles(86.0, 100.0, RECONCILE_TOLERANCE));
        assert!(!reconciles(116.0, 100.0, RECONCILE_TOLERANCE));
        assert!(!reconciles(84.0, 100.0, RECONCILE_TOLERANCE));
        assert!(!reconciles(1.0, 0.0, RECONCILE_TOLERANCE));
        let mut out = Outcome::default();
        check_reconciles(
            &mut out,
            "t",
            "ms",
            &[("a", 60.0), ("b", 50.0)],
            110.0,
            100.0,
        );
        assert_eq!(out.failed, 0);
        check_reconciles(&mut out, "t", "ms", &[("a", 60.0)], 60.0, 100.0);
        assert_eq!(out.failed, 1);
        assert_eq!(out.check_failures.len(), 1);
    }

    #[test]
    fn live_spans_nest_in_time() {
        let mut t = Tracer::default();
        let root = t.begin("root", None);
        t.span("child", Some(root), || {
            std::hint::black_box((0..1000).sum::<u64>())
        });
        t.end(root);
        assert!(t.self_ns(root) <= t.wall_ns());
        assert_eq!(t.total_ns("child") + t.self_ns(root), t.wall_ns());
    }
}
