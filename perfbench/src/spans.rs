//! In-memory span recorder for the traced run.
//!
//! A span is one timed call the benchmark makes into a layer: its name,
//! start and end (nanoseconds since the recorder was created), its
//! parent span and the run id of the burst, frame or round it belongs
//! to. Spans stay in memory and are written out once, at the end.
//!
//! A layer's **self time** is its span's duration minus the durations
//! of its child spans. The benchmark drives every layer from one
//! caller thread, so the children of a span never overlap one another.
//! Children are either calls made inside the parent's interval (a
//! control-plane round and its ops) or replays of the parent's work one
//! layer down (the node calls replaying a domain burst); in both cases
//! their summed duration is the part of the parent they account for.
//! A replay can take longer than the call it explains, so a self time
//! may be negative; it is kept signed, never clamped, so that the self
//! times of a tree always add up to its root's duration.

use std::collections::BTreeMap;
use std::time::Instant;

/// Identifier of a recorded span (its index).
pub type SpanId = usize;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer call name, e.g. `core.node.inject_batch`.
    pub name: &'static str,
    /// Start, ns since the recorder's epoch.
    pub start_ns: u64,
    /// End, ns since the recorder's epoch.
    pub end_ns: u64,
    /// Parent span, if any.
    pub parent: Option<SpanId>,
    /// The burst, frame or round this span belongs to.
    pub run_id: u64,
    /// Frames (or ops) the call carried; per-frame figures divide by it.
    pub items: u64,
}

impl Span {
    /// Duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The recorder.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty recorder whose epoch is now.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Time `f` as one span and return its result.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        run_id: u64,
        items: u64,
        f: impl FnOnce() -> T,
    ) -> (SpanId, T) {
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        (
            self.push(Span {
                name,
                start_ns,
                end_ns,
                parent,
                run_id,
                items,
            }),
            out,
        )
    }

    /// Open a span whose end is set later by [`Tracer::close`] (for a
    /// parent whose children are recorded while it runs).
    pub fn open(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        run_id: u64,
        items: u64,
    ) -> SpanId {
        let start_ns = self.now_ns();
        self.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            run_id,
            items,
        })
    }

    /// Close a span opened with [`Tracer::open`].
    pub fn close(&mut self, id: SpanId) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Append a finished span.
    pub fn push(&mut self, span: Span) -> SpanId {
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: duration minus its children's (signed).
    pub fn self_times(&self) -> Vec<i64> {
        let mut child_sum = vec![0i64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_sum[p] += s.dur_ns() as i64;
            }
        }
        self.spans
            .iter()
            .zip(child_sum)
            .map(|(s, c)| s.dur_ns() as i64 - c)
            .collect()
    }

    /// Per span name: (summed self time ns, summed items, span count).
    pub fn self_time_by_name(&self) -> BTreeMap<&'static str, (i64, u64, u64)> {
        let mut out: BTreeMap<&'static str, (i64, u64, u64)> = BTreeMap::new();
        for (s, self_ns) in self.spans.iter().zip(self.self_times()) {
            let e = out.entry(s.name).or_default();
            e.0 += self_ns;
            e.1 += s.items;
            e.2 += 1;
        }
        out
    }

    /// Render the first `limit` spans as one JSON object per line.
    pub fn to_jsonl(&self, run: &str, limit: usize) -> String {
        let self_ns = self.self_times();
        let mut out = String::new();
        for (id, (s, own)) in self.spans.iter().zip(self_ns).enumerate().take(limit) {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"run\":\"{run}\",\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\
                 \"parent\":{parent},\"run_id\":{},\"items\":{},\"self_ns\":{own}}}\n",
                s.name, s.start_ns, s.end_ns, s.run_id, s.items
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            run_id: 0,
            items: 1,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut t = Tracer::new();
        let root = t.push(span("root", 0, 100, None));
        let a = t.push(span("a", 10, 40, Some(root)));
        t.push(span("a.x", 15, 25, Some(a)));
        t.push(span("b", 50, 90, Some(root)));
        // root 100 - (30 + 40); a 30 - 10; leaves keep their duration.
        assert_eq!(t.self_times(), vec![30, 20, 10, 40]);
        // Self times of a tree add up to the root's duration.
        assert_eq!(t.self_times().iter().sum::<i64>(), 100);
    }

    #[test]
    fn replayed_children_account_for_their_parent() {
        // A replay child runs after its parent; its duration still
        // counts against the parent. Replays slower than the call they
        // explain leave a negative self time, and the tree still sums
        // to the root.
        let mut t = Tracer::new();
        let root = t.push(span("domain", 0, 50, None));
        t.push(span("node", 60, 90, Some(root)));
        t.push(span("node", 95, 125, Some(root)));
        assert_eq!(t.self_times(), vec![-10, 30, 30]);
        assert_eq!(t.self_times().iter().sum::<i64>(), 50);
        let by = t.self_time_by_name();
        assert_eq!(by["node"], (60, 2, 2));
    }

    #[test]
    fn open_close_and_closure_spans_nest() {
        let mut t = Tracer::new();
        let root = t.open("round", None, 7, 1);
        let (child, v) = t.span("op", Some(root), 7, 1, || 41 + 1);
        t.close(root);
        assert_eq!(v, 42);
        let s = t.spans();
        assert!(s[root].start_ns <= s[child].start_ns);
        assert!(s[child].end_ns <= s[root].end_ns);
        assert_eq!(t.to_jsonl("x", 10).lines().count(), 2);
        assert_eq!(t.to_jsonl("x", 1).lines().count(), 1);
    }
}
