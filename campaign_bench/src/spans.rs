//! In-memory spans recorded by the traced replay, and the self-time
//! arithmetic over them.
//!
//! A span has a name, a start, an end and the span that caused it. Spans of
//! one cell-repetition share a cell id. Worker threads adopt their parent
//! explicitly ([`Recorder::adopt`]), so the tree crosses threads and a
//! parent can have children that overlap in time. A span's self time is its
//! duration minus the part of that interval its children cover, counting
//! overlapping children once.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Unique id (1-based).
    pub id: u64,
    /// The span that caused this one, if any.
    pub parent: Option<u64>,
    /// Cell-repetition id shared by every span of one cell-repetition
    /// (0 outside any cell).
    pub cell: u64,
    /// Dotted name; the part before the first `.` names the layer.
    pub name: String,
    /// Recording thread (dense ids in order of first use).
    pub thread: u64,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created.
    pub end_ns: u64,
}

impl SpanRecord {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The layer this span belongs to (its name up to the first `.`).
    pub fn layer(&self) -> &str {
        self.name.split('.').next().unwrap_or("")
    }
}

/// The open-span context a new span attaches to: (span id, cell id).
pub type Context = (u64, u64);

thread_local! {
    static STACK: RefCell<Vec<Context>> = const { RefCell::new(Vec::new()) };
    static THREAD_ID: RefCell<Option<u64>> = const { RefCell::new(None) };
}

/// Collects spans from any number of threads.
pub struct Recorder {
    epoch: Instant,
    next_id: AtomicU64,
    next_cell: AtomicU64,
    next_thread: AtomicU64,
    spans: Mutex<Vec<SpanRecord>>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Self {
            epoch: crate::sys::clock(),
            next_id: AtomicU64::new(1),
            next_cell: AtomicU64::new(1),
            next_thread: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn thread(&self) -> u64 {
        THREAD_ID.with(|t| {
            *t.borrow_mut()
                .get_or_insert_with(|| self.next_thread.fetch_add(1, Ordering::Relaxed))
        })
    }

    /// The innermost open span on this thread.
    pub fn current(&self) -> Option<Context> {
        STACK.with(|s| s.borrow().last().copied())
    }

    /// Runs `f` under `name`, a child of this thread's innermost open span
    /// and part of its cell.
    pub fn span<T>(&self, name: &str, f: impl FnOnce() -> T) -> T {
        let cell = self.current().map_or(0, |(_, cell)| cell);
        self.enter(name, cell, f)
    }

    /// Runs `f` under `name` as a new cell-repetition: the span and every
    /// span opened inside it get a fresh cell id.
    pub fn cell<T>(&self, name: &str, f: impl FnOnce() -> T) -> T {
        let cell = self.next_cell.fetch_add(1, Ordering::Relaxed);
        self.enter(name, cell, f)
    }

    /// Runs `f` on this thread as if `parent` were its innermost open span
    /// — how a worker thread attaches its spans to the span that spawned
    /// it.
    pub fn adopt<T>(&self, parent: Option<Context>, f: impl FnOnce() -> T) -> T {
        let Some(ctx) = parent else { return f() };
        STACK.with(|s| s.borrow_mut().push(ctx));
        let out = f();
        STACK.with(|s| s.borrow_mut().pop());
        out
    }

    fn enter<T>(&self, name: &str, cell: u64, f: impl FnOnce() -> T) -> T {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = self.current().map(|(p, _)| p);
        let thread = self.thread();
        STACK.with(|s| s.borrow_mut().push((id, cell)));
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        STACK.with(|s| s.borrow_mut().pop());
        self.spans
            .lock()
            .expect("span list poisoned")
            .push(SpanRecord {
                id,
                parent,
                cell,
                name: name.to_string(),
                thread,
                start_ns,
                end_ns,
            });
        out
    }

    /// Every closed span, ordered by id.
    pub fn finish(self) -> Vec<SpanRecord> {
        let mut spans = self.spans.into_inner().expect("span list poisoned");
        spans.sort_by_key(|s| s.id);
        spans
    }
}

/// Total length of the union of half-open intervals `[start, end)`.
pub fn union_ns(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut open: Option<(u64, u64)> = None;
    for &(lo, hi) in intervals.iter().filter(|(lo, hi)| hi > lo) {
        open = match open {
            Some((a, b)) if lo <= b => Some((a, b.max(hi))),
            Some((a, b)) => {
                total += b - a;
                Some((lo, hi))
            }
            None => Some((lo, hi)),
        };
    }
    total + open.map_or(0, |(a, b)| b - a)
}

/// Self time of every span, in nanoseconds, parallel to `spans`: its
/// duration minus the union of its children's intervals clipped to it.
pub fn self_times_ns(spans: &[SpanRecord]) -> Vec<u64> {
    let mut children: HashMap<u64, Vec<&SpanRecord>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push(s);
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut covered: Vec<(u64, u64)> = children
                .get(&s.id)
                .map(|kids| {
                    kids.iter()
                        .map(|c| (c.start_ns.max(s.start_ns), c.end_ns.min(s.end_ns)))
                        .collect()
                })
                .unwrap_or_default();
            s.duration_ns() - union_ns(&mut covered)
        })
        .collect()
}

/// Per-name totals: (self seconds, span count), sorted by name.
pub fn by_name(spans: &[SpanRecord]) -> Vec<(String, f64, u64)> {
    let selfs = self_times_ns(spans);
    let mut totals: std::collections::BTreeMap<&str, (u64, u64)> = Default::default();
    for (s, &own) in spans.iter().zip(&selfs) {
        let e = totals.entry(&s.name).or_default();
        e.0 += own;
        e.1 += 1;
    }
    totals
        .into_iter()
        .map(|(name, (ns, n))| (name.to_string(), ns as f64 * 1e-9, n))
        .collect()
}

/// Self seconds summed per layer, sorted by layer.
pub fn by_layer(spans: &[SpanRecord]) -> Vec<(String, f64)> {
    let selfs = self_times_ns(spans);
    let mut totals: std::collections::BTreeMap<&str, u64> = Default::default();
    for (s, &own) in spans.iter().zip(&selfs) {
        *totals.entry(s.layer()).or_default() += own;
    }
    totals
        .into_iter()
        .map(|(layer, ns)| (layer.to_string(), ns as f64 * 1e-9))
        .collect()
}

/// One JSON object per span, one per line.
pub fn to_jsonl(spans: &[SpanRecord]) -> String {
    use tdfm_json::{Number, Value};
    let num = |n: u64| Value::Num(Number::UInt(n));
    spans
        .iter()
        .map(|s| {
            let v = Value::Object(vec![
                ("id".into(), num(s.id)),
                ("parent".into(), s.parent.map_or(Value::Null, num)),
                ("cell".into(), num(s.cell)),
                ("name".into(), Value::Str(s.name.clone())),
                ("thread".into(), num(s.thread)),
                ("start_ns".into(), num(s.start_ns)),
                ("end_ns".into(), num(s.end_ns)),
            ]);
            tdfm_json::to_string(&v) + "\n"
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(
        id: u64,
        parent: Option<u64>,
        name: &str,
        thread: u64,
        start: u64,
        end: u64,
    ) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            cell: 0,
            name: name.into(),
            thread,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn union_merges_overlaps_and_touching_intervals() {
        assert_eq!(union_ns(&mut []), 0);
        assert_eq!(union_ns(&mut [(0, 10), (5, 15)]), 15);
        assert_eq!(union_ns(&mut [(20, 30), (0, 10), (10, 12)]), 22);
        assert_eq!(union_ns(&mut [(0, 100), (10, 20), (30, 40)]), 100);
        // Empty intervals cover nothing.
        assert_eq!(union_ns(&mut [(5, 5), (7, 3)]), 0);
    }

    #[test]
    fn self_time_subtracts_sequential_children() {
        let spans = vec![
            rec(1, None, "core.cell", 0, 0, 100),
            rec(2, Some(1), "data.generate", 0, 0, 10),
            rec(3, Some(1), "core.fit.Base", 0, 10, 90),
        ];
        assert_eq!(self_times_ns(&spans), vec![10, 10, 80]);
    }

    #[test]
    fn overlapping_children_from_two_workers_count_once() {
        // The grid's root waits while two workers run cells concurrently:
        // worker 0 covers [5, 60) and [60, 80), worker 1 covers [10, 90).
        let spans = vec![
            rec(1, None, "campaign", 0, 0, 100),
            rec(2, Some(1), "core.cell", 1, 5, 60),
            rec(3, Some(1), "core.cell", 1, 60, 80),
            rec(4, Some(1), "core.cell", 2, 10, 90),
        ];
        let selfs = self_times_ns(&spans);
        // Children cover [5, 90): 85 ns. Summing them would give 155 and a
        // negative self time.
        assert_eq!(selfs[0], 15);
        assert_eq!(&selfs[1..], &[55, 20, 80]);
    }

    #[test]
    fn children_outside_the_parent_are_clipped() {
        let spans = vec![
            rec(1, None, "core.fit_sharded", 0, 10, 50),
            rec(2, Some(1), "core.aggregate.Mean", 0, 0, 20),
            rec(3, Some(1), "core.aggregate.Mean", 0, 45, 70),
        ];
        assert_eq!(self_times_ns(&spans)[0], 40 - 10 - 5);
    }

    #[test]
    fn layers_and_names_aggregate_self_time() {
        let spans = vec![
            rec(1, None, "core.cell", 0, 0, 100),
            rec(2, Some(1), "data.generate", 0, 0, 10),
            rec(3, Some(1), "nn.predict", 0, 10, 30),
            rec(4, Some(1), "nn.predict", 0, 30, 35),
        ];
        let ns = |s: f64| (s * 1e9).round() as u64;
        let layers: Vec<(String, u64)> = by_layer(&spans)
            .into_iter()
            .map(|(l, s)| (l, ns(s)))
            .collect();
        assert_eq!(
            layers,
            vec![
                ("core".to_string(), 65),
                ("data".to_string(), 10),
                ("nn".to_string(), 25)
            ]
        );
        let (name, secs, count) = &by_name(&spans)[2];
        assert_eq!((name.as_str(), ns(*secs), *count), ("nn.predict", 25, 2));
    }

    #[test]
    fn recorder_links_parents_cells_and_adopted_threads() {
        let r = Recorder::new();
        r.span("campaign", || {
            let root = r.current();
            r.cell("core.cell", || r.span("data.generate", || ()));
            std::thread::scope(|s| {
                s.spawn(|| r.adopt(root, || r.cell("core.cell", || ())));
            });
        });
        let spans = r.finish();
        let find = |name: &str| spans.iter().filter(|s| s.name == name).collect::<Vec<_>>();
        let root = find("campaign")[0];
        let cells = find("core.cell");
        let generate = find("data.generate")[0];
        assert_eq!(root.parent, None);
        assert!(cells.iter().all(|c| c.parent == Some(root.id)));
        assert_ne!(cells[0].cell, cells[1].cell);
        assert_ne!(cells[0].thread, cells[1].thread);
        let first_cell = cells.iter().find(|c| c.thread == root.thread).unwrap();
        assert_eq!(generate.parent, Some(first_cell.id));
        assert_eq!(generate.cell, first_cell.cell);
        assert!(to_jsonl(&spans).lines().count() == spans.len());
    }
}
