//! In-memory span recorder for the traced replay.
//!
//! Spans are recorded by the benchmark around each public call it makes
//! into a layer; nothing inside the program is instrumented. A span
//! carries its parent span and a job id, so work fanned out to engine
//! threads still nests under the call that issued it. Spans stay in
//! memory until the run ends and are written out once.
//!
//! Self time of a span is its duration minus the part of its interval
//! covered by the union of its children. Children running in parallel
//! on engine threads therefore cover the parent once, not once per
//! thread. Per-layer totals add self time over every thread, so they
//! are thread-seconds and may exceed wall-clock when the engine runs
//! two workers; the attributed fraction uses the union of intervals
//! instead, so it never exceeds 1.

use std::cell::Cell;
use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// The span and job a new span nests under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Ctx {
    /// Parent span id (0 = none).
    pub span: u64,
    /// Job id shared by every span of one job (0 = outside any job).
    pub job: u64,
}

/// One closed span. Times are nanoseconds since the tracer was made.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRec {
    /// Unique id (never 0).
    pub id: u64,
    /// Parent span id (0 = root).
    pub parent: u64,
    /// Job id.
    pub job: u64,
    /// Layer-qualified name, e.g. `netlist.map`.
    pub name: &'static str,
    /// Small per-thread number.
    pub thread: u64,
    /// Start time.
    pub start_ns: u64,
    /// End time.
    pub end_ns: u64,
}

impl SpanRec {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static CURRENT: Cell<Ctx> = const { Cell::new(Ctx { span: 0, job: 0 }) };
    static THREAD: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

/// Records spans into memory.
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<SpanRec>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// The calling thread's current context: capture it before handing
    /// work to other threads and pass it to [`Tracer::span_under`].
    pub fn ctx(&self) -> Ctx {
        CURRENT.with(Cell::get)
    }

    /// Runs `f` inside a span nested under the calling thread's current
    /// span.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.span_under(self.ctx(), name, f)
    }

    /// Runs `f` inside a root span of job `job`.
    pub fn job<R>(&self, job: u64, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.span_under(Ctx { span: 0, job }, name, f)
    }

    /// Runs `f` inside a span nested under `parent`, which may belong to
    /// another thread.
    pub fn span_under<R>(&self, parent: Ctx, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let prev = CURRENT.with(|c| {
            c.replace(Ctx {
                span: id,
                job: parent.job,
            })
        });
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        CURRENT.with(|c| c.set(prev));
        let rec = SpanRec {
            id,
            parent: parent.span,
            job: parent.job,
            name,
            thread: THREAD.with(|t| *t),
            start_ns,
            end_ns,
        };
        self.spans
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(rec);
        out
    }

    /// A copy of every closed span.
    pub fn spans(&self) -> Vec<SpanRec> {
        self.spans.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }

    /// Writes every span as one JSON object per line.
    ///
    /// # Errors
    ///
    /// Propagates file-system errors.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"job\":{},\"name\":\"{}\",\"thread\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.job, s.name, s.thread, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Total length of the union of half-open intervals.
pub fn union_len(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(s, e) in intervals.iter() {
        if e <= s {
            continue;
        }
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// Indices of each span's children, by parent id.
fn children_of(spans: &[SpanRec]) -> HashMap<u64, Vec<usize>> {
    let mut children: HashMap<u64, Vec<usize>> = HashMap::new();
    for (i, s) in spans.iter().enumerate() {
        if s.parent != 0 {
            children.entry(s.parent).or_default().push(i);
        }
    }
    children
}

/// Self time of every span (same order as `spans`): duration minus the
/// union of its children's intervals clipped to the span.
pub fn self_times(spans: &[SpanRec]) -> Vec<u64> {
    let children = children_of(spans);
    spans
        .iter()
        .map(|s| {
            let mut covered: Vec<(u64, u64)> = children
                .get(&s.id)
                .map(|kids| {
                    kids.iter()
                        .map(|&k| {
                            let c = &spans[k];
                            (c.start_ns.max(s.start_ns), c.end_ns.min(s.end_ns))
                        })
                        .collect()
                })
                .unwrap_or_default();
            s.dur_ns().saturating_sub(union_len(&mut covered))
        })
        .collect()
}

/// Per-name totals: (self-time seconds summed over threads, span count).
pub fn layer_totals(spans: &[SpanRec]) -> BTreeMap<&'static str, (f64, u64)> {
    let mut ns: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        let e = ns.entry(s.name).or_insert((0, 0));
        e.0 += self_ns;
        e.1 += 1;
    }
    ns.into_iter()
        .map(|(name, (t, n))| (name, (t as f64 / 1e9, n)))
        .collect()
}

/// Share of the root spans' wall-clock during which at least one
/// descendant span accepted by `is_layer` was open, over all roots
/// named `root_name`.
pub fn attributed_frac(spans: &[SpanRec], root_name: &str, is_layer: impl Fn(&str) -> bool) -> f64 {
    let children = children_of(spans);
    let mut wall = 0u64;
    let mut covered = 0u64;
    for root in spans.iter().filter(|s| s.name == root_name) {
        wall += root.dur_ns();
        let mut layer: Vec<(u64, u64)> = Vec::new();
        let mut stack = vec![root.id];
        while let Some(id) = stack.pop() {
            for &k in children.get(&id).map(Vec::as_slice).unwrap_or(&[]) {
                let c = &spans[k];
                if is_layer(c.name) {
                    layer.push((c.start_ns.max(root.start_ns), c.end_ns.min(root.end_ns)));
                }
                stack.push(c.id);
            }
        }
        covered += union_len(&mut layer);
    }
    if wall == 0 {
        0.0
    } else {
        covered as f64 / wall as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, parent: u64, name: &'static str, thread: u64, s: u64, e: u64) -> SpanRec {
        SpanRec {
            id,
            parent,
            job: 1,
            name,
            thread,
            start_ns: s,
            end_ns: e,
        }
    }

    #[test]
    fn union_merges_overlaps_and_gaps() {
        assert_eq!(union_len(&mut [(0, 10), (5, 15), (20, 25)]), 20);
        assert_eq!(union_len(&mut [(3, 3), (4, 2)]), 0);
        assert_eq!(union_len(&mut []), 0);
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        // root 0..100 > a 10..60 > b 20..40 ; c 70..80 under root.
        let spans = vec![
            rec(1, 0, "bench.job", 1, 0, 100),
            rec(2, 1, "accel.characterize", 1, 10, 60),
            rec(3, 2, "netlist.map", 1, 20, 40),
            rec(4, 1, "mlp.train", 1, 70, 80),
        ];
        assert_eq!(self_times(&spans), vec![100 - 50 - 10, 50 - 20, 20, 10]);
        let totals = layer_totals(&spans);
        assert_eq!(totals["netlist.map"], (20e-9, 1));
        let f = attributed_frac(&spans, "bench.job", |n| !n.starts_with("bench."));
        assert!((f - 0.6).abs() < 1e-12);
    }

    #[test]
    fn parallel_children_cover_the_parent_once() {
        // A batch 0..100 fans out to two engine threads whose spans
        // overlap: 0..80 on thread 2 and 10..100 on thread 3.
        let spans = vec![
            rec(1, 0, "bench.job", 1, 0, 100),
            rec(2, 1, "bench.batch", 1, 0, 100),
            rec(3, 2, "netlist.power", 2, 0, 80),
            rec(4, 2, "netlist.power", 3, 10, 100),
        ];
        let st = self_times(&spans);
        assert_eq!(st[1], 0, "children cover the whole batch");
        // Layer totals are thread-seconds: 170 ns of power in 100 ns.
        assert_eq!(layer_totals(&spans)["netlist.power"].0, 170e-9);
        let f = attributed_frac(&spans, "bench.job", |n| !n.starts_with("bench."));
        assert!((f - 1.0).abs() < 1e-12, "union, not sum: {f}");
    }

    #[test]
    fn children_outside_the_parent_are_clipped() {
        let spans = vec![
            rec(1, 0, "bench.job", 1, 10, 20),
            rec(2, 1, "netlist.map", 2, 0, 15),
        ];
        assert_eq!(self_times(&spans)[0], 5);
        let f = attributed_frac(&spans, "bench.job", |_| true);
        assert!((f - 0.5).abs() < 1e-12);
    }

    #[test]
    fn tracer_links_parents_across_threads() {
        let t = Tracer::new();
        t.job(7, "bench.job", || {
            let ctx = t.ctx();
            std::thread::scope(|s| {
                s.spawn(|| t.span_under(ctx, "netlist.map", || t.span("netlist.power", || ())));
            });
        });
        let spans = t.spans();
        let root = spans.iter().find(|s| s.name == "bench.job").unwrap();
        let map = spans.iter().find(|s| s.name == "netlist.map").unwrap();
        let power = spans.iter().find(|s| s.name == "netlist.power").unwrap();
        assert_eq!((root.parent, root.job), (0, 7));
        assert_eq!((map.parent, map.job), (root.id, 7));
        assert_eq!((power.parent, power.job), (map.id, 7));
        assert_ne!(map.thread, root.thread);
        assert_eq!(t.ctx(), Ctx::default(), "context restored after the job");
    }
}
