//! In-memory span recording at the layer boundaries the benchmark can
//! reach from outside.
//!
//! A span is `(name, start_ns, end_ns, parent, query_id)`. Spans live in
//! one pre-sized vector and are written out only when the benchmark ends.
//! The span that is open on a thread when another one starts there is the
//! new span's parent, so the delegating wrappers in [`crate::wrappers`]
//! nest under the benchmark's per-query root span without the engine
//! knowing about either. A layer's self time is its span minus the part
//! of that interval its children cover.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Marks "no parent span" / "no query id".
pub const NONE: u32 = u32::MAX;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open on this thread, or [`NONE`].
    pub parent: u32,
    /// The measured query this span belongs to, or [`NONE`] when the
    /// thread cannot know it (server handler and follower threads).
    pub query_id: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

thread_local! {
    /// `(open span index, query id)` of the innermost span on this thread.
    static CURRENT: Cell<(u32, u32)> = const { Cell::new((NONE, NONE)) };
}

/// The span sink. Recording is off until [`Tracer::enable`]; a disabled
/// tracer costs one relaxed load per boundary crossing, so the wrappers
/// stay in place for the untraced pass too.
#[derive(Debug)]
pub struct Tracer {
    on: AtomicBool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            on: AtomicBool::new(false),
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Starts recording into a vector pre-sized for `capacity` spans.
    pub fn enable(&self, capacity: usize) {
        self.lock().reserve(capacity);
        self.on.store(true, Ordering::Relaxed);
    }

    pub fn disable(&self) {
        self.on.store(false, Ordering::Relaxed);
    }

    pub fn is_on(&self) -> bool {
        self.on.load(Ordering::Relaxed)
    }

    /// Opens a span nested under whatever is open on this thread.
    pub fn span(&self, name: &'static str) -> Option<SpanGuard<'_>> {
        let (parent, query_id) = CURRENT.with(Cell::get);
        self.open(name, parent, query_id)
    }

    /// Opens the per-query root span: no parent, and every span opened on
    /// this thread until it closes inherits `query_id`.
    pub fn root(&self, name: &'static str, query_id: u32) -> Option<SpanGuard<'_>> {
        self.open(name, NONE, query_id)
    }

    fn open(&self, name: &'static str, parent: u32, query_id: u32) -> Option<SpanGuard<'_>> {
        if !self.is_on() {
            return None;
        }
        let previous = CURRENT.with(Cell::get);
        let index = {
            let mut spans = self.lock();
            spans.push(Span {
                name,
                start_ns: self.now_ns(),
                end_ns: 0,
                parent,
                query_id,
            });
            (spans.len() - 1) as u32
        };
        CURRENT.with(|c| c.set((index, query_id)));
        Some(SpanGuard {
            tracer: self,
            index,
            previous,
        })
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        // A panic while the lock is held leaves at worst one span open;
        // the vector itself is always valid.
        self.spans.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Takes every recorded span, leaving the tracer empty.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.lock())
    }
}

/// Closes its span when dropped.
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    index: u32,
    previous: (u32, u32),
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let end = self.tracer.now_ns();
        if let Some(span) = self.tracer.lock().get_mut(self.index as usize) {
            span.end_ns = end;
        }
        CURRENT.with(|c| c.set(self.previous));
    }
}

/// Per-span self time: the span's duration minus the part of its interval
/// covered by its direct children (clamped to the parent, so a child that
/// outlives its parent cannot push self time below zero).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(parent) = spans.get(s.parent as usize) {
            let start = s.start_ns.max(parent.start_ns);
            let end = s.end_ns.min(parent.end_ns);
            covered[s.parent as usize] += end.saturating_sub(start);
        }
    }
    spans
        .iter()
        .zip(covered)
        .map(|(s, c)| s.duration_ns().saturating_sub(c))
        .collect()
}

/// Count, total time and total self time of the spans of one name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Totals grouped by span name.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.duration_ns();
        t.self_ns += self_ns;
    }
    out
}

/// Writes one JSON object per span.
pub fn dump_jsonl(spans: &[Span], mut out: impl Write) -> std::io::Result<()> {
    let id = |v: u32| {
        if v == NONE {
            "null".to_owned()
        } else {
            v.to_string()
        }
    };
    for s in spans {
        writeln!(
            out,
            "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"query_id\":{}}}",
            s.name,
            s.start_ns,
            s.end_ns,
            id(s.parent),
            id(s.query_id)
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            query_id: 0,
        }
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let spans = vec![
            span("engine", 0, 100, NONE),
            span("filter", 10, 30, 0),
            span("verify", 40, 90, 0),
            span("screen", 50, 60, 2),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 40, 10]);
        let totals = totals_by_name(&spans);
        assert_eq!(
            totals["engine"],
            NameTotals {
                count: 1,
                total_ns: 100,
                self_ns: 30
            }
        );
        assert_eq!(totals["verify"].self_ns, 40);
    }

    #[test]
    fn child_outliving_its_parent_is_clamped() {
        let spans = vec![span("parent", 10, 20, NONE), span("child", 15, 40, 0)];
        assert_eq!(self_times(&spans), vec![5, 25]);
    }

    #[test]
    fn nested_spans_record_parent_and_query_id() {
        let tracer = Tracer::new();
        assert!(
            tracer.span("ignored").is_none(),
            "disabled tracer records nothing"
        );
        tracer.enable(8);
        {
            let _root = tracer.root("root", 7);
            {
                let _child = tracer.span("child");
                let _grandchild = tracer.span("grandchild");
            }
            let _sibling = tracer.span("sibling");
        }
        let _orphan = tracer.span("orphan");
        drop(_orphan);
        let spans = tracer.take();
        let by_name = |n: &str| spans.iter().find(|s| s.name == n).expect("recorded");
        assert_eq!(by_name("root").parent, NONE);
        assert_eq!(by_name("child").parent, 0);
        assert_eq!(by_name("grandchild").parent, 1);
        assert_eq!(by_name("sibling").parent, 0);
        assert_eq!(by_name("grandchild").query_id, 7);
        assert_eq!(by_name("orphan").parent, NONE);
        assert_eq!(by_name("orphan").query_id, NONE);
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
    }

    #[test]
    fn jsonl_has_one_line_per_span() {
        let mut buf = Vec::new();
        dump_jsonl(&[span("a", 1, 2, NONE), span("b", 3, 4, 0)], &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text.starts_with("{\"name\":\"a\",\"start_ns\":1,\"end_ns\":2,\"parent\":null,"));
    }
}
