//! The benchmark's own span recorder.
//!
//! Spans are recorded around calls into each layer's public functions —
//! the program itself is not instrumented. Each span has a name, start,
//! end, parent and request id; spans stay in memory and are written out
//! when the run ends. A span's self time is its duration minus the part
//! of it covered by its children.

use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

use mandipass_util::json::Value;

/// One recorded span; times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer call name, e.g. `template.transform`.
    pub name: &'static str,
    /// The request (or operation) this span belongs to.
    pub request: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records nested spans on one thread.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer whose timestamps count from `epoch` (share one epoch
    /// between tracers whose spans are merged).
    pub fn new(epoch: Instant) -> Self {
        Tracer {
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span that started at `start`, nested in the innermost
    /// open span.
    pub fn begin_at(&mut self, name: &'static str, request: u64, start: Instant) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            request,
            parent: self.open.last().copied(),
            start_ns: self.ns(start),
            end_ns: 0,
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span `id` now.
    ///
    /// # Panics
    ///
    /// Panics when `id` is not the innermost open span — a nesting bug
    /// in the benchmark.
    pub fn end(&mut self, id: usize) {
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end_ns = self.ns(Instant::now());
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        request: u64,
        f: impl FnOnce(&mut Self) -> T,
    ) -> T {
        let id = self.begin_at(name, request, Instant::now());
        let out = f(self);
        self.end(id);
        out
    }

    /// Records a closed span `[start, end]` nested in the innermost
    /// open span.
    pub fn record(&mut self, name: &'static str, request: u64, start: Instant, end: Instant) {
        let id = self.begin_at(name, request, start);
        self.open.pop();
        self.spans[id].end_ns = self.ns(end);
    }

    /// Moves every span of `other` into this tracer, keeping parents.
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as a JSON array (`name`, `request`, `parent`,
    /// `start_ns`, `end_ns`).
    pub fn to_json(&self) -> Value {
        let num = |v: u64| Value::Number(v as f64);
        Value::Array(
            self.spans
                .iter()
                .map(|s| {
                    Value::Object(vec![
                        ("name".to_string(), Value::String(s.name.to_string())),
                        ("request".to_string(), num(s.request)),
                        (
                            "parent".to_string(),
                            s.parent.map_or(Value::Null, |p| num(p as u64)),
                        ),
                        ("start_ns".to_string(), num(s.start_ns)),
                        ("end_ns".to_string(), num(s.end_ns)),
                    ])
                })
                .collect(),
        )
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals (clipped to the span).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p].push(i);
        }
    }
    spans
        .iter()
        .zip(&children)
        .map(|(span, kids)| {
            let mut intervals: Vec<(u64, u64)> = kids
                .iter()
                .map(|&k| {
                    let c = &spans[k];
                    (c.start_ns.max(span.start_ns), c.end_ns.min(span.end_ns))
                })
                .filter(|(a, b)| a < b)
                .collect();
            intervals.sort_unstable();
            let mut covered = 0u64;
            let mut reach = span.start_ns;
            for (a, b) in intervals {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            span.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// How much of the in-process totals the named layers account for.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Coverage {
    /// Sum of the `total` spans' durations over every request.
    pub total_ns: u64,
    /// Sum of the layer spans' self times over covered requests.
    pub layers_ns: u64,
    /// Requests whose totals were counted.
    pub requests: usize,
    /// Requests whose layers were not counted (not reproduced).
    pub uncovered_requests: usize,
}

impl Coverage {
    /// `layers / total`.
    pub fn ratio(&self) -> f64 {
        if self.total_ns == 0 {
            0.0
        } else {
            self.layers_ns as f64 / self.total_ns as f64
        }
    }

    /// The part of the totals no named layer accounts for, per request,
    /// in nanoseconds (negative when the layers add up to more).
    pub fn uncovered_ns_per_request(&self) -> f64 {
        (self.total_ns as f64 - self.layers_ns as f64) / self.requests.max(1) as f64
    }
}

/// Coverage of the spans named in `totals` (the in-process entry points)
/// by the self times of the spans named in `layers`, per request id.
/// Requests in `uncovered` keep their totals but contribute no layer
/// time: their decomposition did not reproduce the real call.
pub fn coverage(
    spans: &[Span],
    totals: &[&str],
    layers: &[&str],
    uncovered: &BTreeSet<u64>,
) -> Coverage {
    let selfs = self_times(spans);
    let mut per_request: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
    for (span, own) in spans.iter().zip(selfs) {
        if totals.contains(&span.name) {
            per_request.entry(span.request).or_default().0 += span.duration_ns();
        } else if layers.contains(&span.name) && !uncovered.contains(&span.request) {
            per_request.entry(span.request).or_default().1 += own;
        }
    }
    per_request.retain(|_, (total, _)| *total > 0);
    Coverage {
        total_ns: per_request.values().map(|(t, _)| t).sum(),
        layers_ns: per_request.values().map(|(_, l)| l).sum(),
        requests: per_request.len(),
        uncovered_requests: per_request.keys().filter(|r| uncovered.contains(r)).count(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, request: u64, parent: Option<usize>, start: u64, end: u64) -> Span {
        Span {
            name,
            request,
            parent,
            start_ns: start,
            end_ns: end,
        }
    }

    /// Request 1: the real call took 1000 ns; its decomposition covers
    /// 750 ns of layer self time (the transform's nested helper is not
    /// a layer and comes out of its self time). Request 2: a policy call
    /// of 500 ns whose decomposition did not reproduce it.
    fn tree() -> Vec<Span> {
        vec![
            span("request", 1, None, 0, 5000),
            span("authenticator.verify", 1, Some(0), 0, 1000),
            span("decomposed", 1, Some(0), 2000, 2950),
            span("preprocess", 1, Some(2), 2000, 2300),
            span("gradient_array", 1, Some(2), 2300, 2400),
            span("extractor.extract", 1, Some(2), 2400, 2500),
            span("template.transform", 1, Some(2), 2500, 2850),
            span("helper", 1, Some(6), 2600, 2700),
            span("request", 2, None, 6000, 8000),
            span("authenticator.policy", 2, Some(8), 6000, 6500),
            span("decomposed", 2, Some(8), 7000, 7400),
            span("preprocess", 2, Some(10), 7000, 7400),
        ]
    }

    const LAYERS: [&str; 4] = [
        "preprocess",
        "gradient_array",
        "extractor.extract",
        "template.transform",
    ];
    const TOTALS: [&str; 2] = ["authenticator.verify", "authenticator.policy"];

    #[test]
    fn self_time_subtracts_children() {
        let selfs = self_times(&tree());
        assert_eq!(selfs[0], 5000 - 1000 - 950);
        assert_eq!(selfs[2], 950 - 300 - 100 - 100 - 350);
        assert_eq!(selfs[6], 350 - 100);
        assert_eq!(selfs[7], 100);
        assert_eq!(selfs[3], 300);
    }

    #[test]
    fn overlapping_children_are_not_double_counted() {
        let spans = vec![
            span("p", 0, None, 0, 100),
            span("a", 0, Some(0), 10, 60),
            span("b", 0, Some(0), 40, 80),
            span("c", 0, Some(0), 90, 150),
        ];
        // Union of children inside [0, 100]: [10, 80] + [90, 100].
        assert_eq!(self_times(&spans)[0], 100 - 70 - 10);
    }

    #[test]
    fn coverage_sums_layer_self_time_over_totals() {
        let none = BTreeSet::new();
        let all = coverage(&tree(), &TOTALS, &LAYERS, &none);
        assert_eq!(all.total_ns, 1500);
        assert_eq!(all.layers_ns, 300 + 100 + 100 + 250 + 400);
        assert_eq!(all.requests, 2);
        assert_eq!(all.uncovered_requests, 0);

        let skip2 = BTreeSet::from([2u64]);
        let c = coverage(&tree(), &TOTALS, &LAYERS, &skip2);
        assert_eq!(c.layers_ns, 750);
        assert_eq!(c.total_ns, 1500);
        assert_eq!(c.uncovered_requests, 1);
        assert!((c.ratio() - 0.5).abs() < 1e-12);
        assert!((c.uncovered_ns_per_request() - 375.0).abs() < 1e-12);
    }

    #[test]
    fn tracer_nests_and_merges() {
        let epoch = Instant::now();
        let mut a = Tracer::new(epoch);
        a.span("outer", 7, |t| {
            t.span("inner", 7, |_| ());
            t.record("explicit", 7, Instant::now(), Instant::now());
        });
        let mut b = Tracer::new(epoch);
        b.span("solo", 8, |t| t.span("child", 8, |_| ()));
        a.absorb(b);
        let names: Vec<_> = a.spans().iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            names,
            [
                ("outer", None),
                ("inner", Some(0)),
                ("explicit", Some(0)),
                ("solo", None),
                ("child", Some(3)),
            ]
        );
        assert!(a.spans().iter().all(|s| s.end_ns >= s.start_ns));
    }
}
