//! In-memory spans recorded around calls into the system's modules.
//!
//! Every timed call goes through [`Tracer::time`], which always measures
//! the call (the end-to-end metrics need the duration either way) and,
//! when tracing is on, also records a [`Span`]. Spans are kept in memory
//! and written out once, when the run ends.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Identifies a recorded span; children name their parent by it.
pub type SpanId = u64;

/// One timed call: `[start_ns, end_ns)` relative to the tracer's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: SpanId,
    pub parent: Option<SpanId>,
    /// `<layer>.<call>`, e.g. `engine.forward`.
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Shared by every span of one serve request.
    pub request: Option<u64>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Tracer {
    on: bool,
    epoch: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Runs `f` and returns its result with the call's duration. When
    /// tracing is on, `f` receives the new span's id (to parent its own
    /// children) and the span is recorded; otherwise `f` receives `None`.
    pub fn time<R>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce(Option<SpanId>) -> R,
    ) -> (R, Duration) {
        let id = self.on.then(|| self.next.fetch_add(1, Ordering::Relaxed));
        let start = Instant::now();
        let out = f(id);
        let end = Instant::now();
        if let Some(id) = id {
            self.push(Span {
                id,
                parent,
                name,
                start_ns: self.ns(start),
                end_ns: self.ns(end),
                request: None,
            });
        }
        (out, end - start)
    }

    /// Records a span whose bounds were taken elsewhere (for example a
    /// request's due time, which no call brackets). Returns its id, or
    /// `None` when tracing is off.
    pub fn record(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        start: Instant,
        end: Instant,
        request: Option<u64>,
    ) -> Option<SpanId> {
        let id = self.on.then(|| self.next.fetch_add(1, Ordering::Relaxed))?;
        self.push(Span {
            id,
            parent,
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            request,
        });
        Some(id)
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("no span writer panics").clone()
    }

    fn push(&self, span: Span) {
        self.spans.lock().expect("no span writer panics").push(span);
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }
}

/// Each span's self time: its duration minus the part of its interval
/// that the union of its children's intervals covers.
pub fn self_times(spans: &[Span]) -> BTreeMap<SpanId, u64> {
    let mut children: BTreeMap<SpanId, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut kids = children.remove(&s.id).unwrap_or_default();
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.id, s.duration_ns() - covered)
        })
        .collect()
}

/// Total self time in nanoseconds and span count per span name.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, usize)> {
    let own = self_times(spans);
    let mut out: BTreeMap<&'static str, (u64, usize)> = BTreeMap::new();
    for s in spans {
        let e = out.entry(s.name).or_default();
        e.0 += own[&s.id];
        e.1 += 1;
    }
    out
}

/// Total self time in nanoseconds per layer, the part of a span's name
/// before its first `.`.
pub fn self_time_by_layer(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut out: BTreeMap<&'static str, u64> = BTreeMap::new();
    for (name, (ns, _)) in self_time_by_name(spans) {
        let layer = name.split_once('.').map_or(name, |(layer, _)| layer);
        *out.entry(layer).or_default() += ns;
    }
    out
}

/// The spans as a JSON array.
pub fn to_json(spans: &[Span]) -> String {
    let rows: Vec<String> = spans
        .iter()
        .map(|s| {
            let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
            format!(
                "{{\"id\": {}, \"parent\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"request\": {}}}",
                s.id,
                opt(s.parent),
                s.name,
                s.start_ns,
                s.end_ns,
                opt(s.request)
            )
        })
        .collect();
    format!("[\n{}\n]\n", rows.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: SpanId, parent: Option<SpanId>, name: &'static str, a: u64, b: u64) -> Span {
        Span {
            id,
            parent,
            name,
            start_ns: a,
            end_ns: b,
            request: None,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(1, None, "bench.setup", 0, 100),
            // Children overlap (10..40 and 30..50 cover 40 ns, not 50) and
            // one pokes past the parent's end (90..120 counts 10 ns).
            span(2, Some(1), "nn.build", 10, 40),
            span(3, Some(1), "exec.load", 30, 50),
            span(4, Some(1), "exec.prepare", 90, 120),
            span(5, Some(4), "inner", 95, 100),
        ];
        let own = self_times(&spans);
        assert_eq!(own[&1], 100 - 40 - 10);
        assert_eq!(own[&2], 30);
        assert_eq!(own[&3], 20);
        assert_eq!(own[&4], 30 - 5);
        assert_eq!(own[&5], 5);
    }

    #[test]
    fn self_times_sum_to_root_duration_when_children_nest() {
        let spans = [
            span(1, None, "training.step", 0, 1000),
            span(2, Some(1), "engine.train_forward", 0, 400),
            span(3, Some(1), "nn.backward", 450, 900),
            span(4, Some(1), "nn.optim", 900, 950),
        ];
        let by_name = self_time_by_name(&spans);
        let total: u64 = by_name.values().map(|(ns, _)| ns).sum();
        assert_eq!(total, 1000);
        assert_eq!(by_name["training.step"], (100, 1));
        let by_layer = self_time_by_layer(&spans);
        assert_eq!(by_layer["nn"], 450 + 50);
        assert_eq!(by_layer["engine"], 400);
        assert_eq!(by_layer["training"], 100);
    }

    #[test]
    fn tracer_off_records_nothing_but_still_times() {
        let t = Tracer::new(false);
        let (v, d) = t.time("nn.build", None, |id| {
            assert_eq!(id, None);
            7
        });
        assert_eq!(v, 7);
        assert!(d >= Duration::ZERO);
        assert!(t.spans().is_empty());
        assert_eq!(
            t.record("x", None, Instant::now(), Instant::now(), Some(1)),
            None
        );
    }

    #[test]
    fn tracer_on_links_children_to_parents() {
        let t = Tracer::new(true);
        let ((), _) = t.time("bench.setup", None, |p| {
            t.time("nn.build", p, |_| ());
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        let child = spans.iter().find(|s| s.name == "nn.build").unwrap();
        let root = spans.iter().find(|s| s.name == "bench.setup").unwrap();
        assert_eq!(child.parent, Some(root.id));
        assert!(root.start_ns <= child.start_ns && child.end_ns <= root.end_ns);
    }
}
