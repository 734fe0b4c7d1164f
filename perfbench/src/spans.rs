//! In-memory spans around the benchmark's calls into each layer, and the
//! self-time table built from them.
//!
//! A span has a name whose first dot-separated word is its layer (`core`,
//! `net`, `engine`, `scenario`, `trace`, `predicate`, `obs`; `bench` is the
//! benchmark's own code), a parent, a start and an end, and the session it
//! belongs to. Its self time is its duration minus the part of it that its
//! children cover. Spans on the lanes of a worker pool carry a `share` of
//! `1 / workers`, so that concurrent lanes add up to the pool's wall once,
//! not once per worker; every root's self time is the `unattributed` row,
//! and the rows of a table therefore add up to the roots' wall exactly.
//! A span may also carry `nested` time that the program's own span
//! histograms measured inside it (say, committee draws inside a simulator
//! run); that time moves from the span's layer to the nested layer.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::out::{json_num, json_obj};

/// First Chrome track id of the per-session tracks, above every lane.
const SESSION_TID0: u64 = 1000;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub session: u64,
    pub share: f64,
    pub lane: u64,
    pub nested: Vec<(&'static str, u64)>,
}

impl Span {
    pub fn layer(&self) -> &str {
        self.name.split('.').next().unwrap_or("bench")
    }

    fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Tracer {
    origin: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

/// Fields of a span that is about to be recorded.
pub struct SpanRec<'a> {
    pub id: u64,
    pub parent: u64,
    pub name: &'a str,
    pub start: Instant,
    pub end: Instant,
    pub session: u64,
    pub share: f64,
    pub lane: u64,
    pub nested: Vec<(&'static str, u64)>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// A fresh span id (0 means "no parent").
    pub fn id(&self) -> u64 {
        self.next.fetch_add(1, Ordering::Relaxed)
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    pub fn push(&self, rec: SpanRec<'_>) -> u64 {
        let span = Span {
            id: rec.id,
            parent: rec.parent,
            name: rec.name.to_string(),
            start_ns: self.ns(rec.start),
            end_ns: self.ns(rec.end).max(self.ns(rec.start)),
            session: rec.session,
            share: rec.share,
            lane: rec.lane,
            nested: rec.nested,
        };
        self.spans.lock().expect("span store poisoned").push(span);
        rec.id
    }

    /// Records a serial span on lane 0 with no session.
    pub fn simple(&self, parent: u64, name: &str, start: Instant, end: Instant) -> u64 {
        self.push(SpanRec {
            id: self.id(),
            parent,
            name,
            start,
            end,
            session: 0,
            share: 1.0,
            lane: 0,
            nested: Vec::new(),
        })
    }

    /// Times `f` as a serial span and returns its result.
    pub fn time<T>(&self, parent: u64, name: &str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.simple(parent, name, start, Instant::now());
        out
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span store poisoned").clone()
    }

    /// The self-time table over the trees under the roots named `root`.
    pub fn table(&self, root: &str) -> LayerTable {
        let spans = self.spans();
        let mut children: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
        for (i, s) in spans.iter().enumerate() {
            children.entry(s.parent).or_default().push(i);
        }
        let mut table = LayerTable::default();
        let mut stack: Vec<usize> = spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.parent == 0 && s.name == root)
            .map(|(i, _)| i)
            .collect();
        table.roots = stack.len();
        for &r in &stack {
            table.wall_ms += spans[r].dur_ns() as f64 * spans[r].share / 1e6;
        }
        while let Some(i) = stack.pop() {
            let span = &spans[i];
            let kids = children.get(&span.id).map(Vec::as_slice).unwrap_or(&[]);
            let covered = union_ns(span, kids.iter().map(|&k| &spans[k]));
            let nested: u64 = span.nested.iter().map(|(_, ns)| ns).sum();
            let own = span.dur_ns().saturating_sub(covered).saturating_sub(nested);
            let layer = if span.parent == 0 || span.layer() == "bench" {
                "unattributed"
            } else {
                span.layer()
            };
            *table.rows.entry(layer.to_string()).or_default() += own as f64 * span.share / 1e6;
            for (nested_layer, ns) in &span.nested {
                *table.rows.entry(nested_layer.to_string()).or_default() +=
                    *ns as f64 * span.share / 1e6;
            }
            stack.extend_from_slice(kids);
        }
        table
    }

    /// Chrome trace-event JSON (loadable in Perfetto) of every span. As in
    /// the program's own span export, each session has a track of its own
    /// (`tid` = `SESSION_TID0` + session id); spans outside a session sit
    /// on their lane's track.
    pub fn chrome_json(&self) -> String {
        let mut trace = mpca_obs::ChromeTrace::new();
        for s in self.spans() {
            let tid = match s.session {
                0 => s.lane,
                id => SESSION_TID0 + id,
            };
            trace.complete(
                &s.name,
                s.layer(),
                s.start_ns / 1000,
                s.dur_ns() / 1000,
                tid,
            );
        }
        trace.render()
    }
}

/// Length of the union of the children's intervals, clipped to `parent`.
fn union_ns<'a>(parent: &Span, kids: impl Iterator<Item = &'a Span>) -> u64 {
    let mut intervals: Vec<(u64, u64)> = kids
        .map(|k| (k.start_ns.max(parent.start_ns), k.end_ns.min(parent.end_ns)))
        .filter(|(a, b)| a < b)
        .collect();
    intervals.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for (a, b) in intervals {
        match current {
            Some((ca, cb)) if a <= cb => current = Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                current = Some((a, b));
            }
            None => current = Some((a, b)),
        }
    }
    if let Some((ca, cb)) = current {
        total += cb - ca;
    }
    total
}

/// Self time per layer over a set of root spans, in milliseconds.
#[derive(Debug, Default)]
pub struct LayerTable {
    pub roots: usize,
    pub wall_ms: f64,
    pub rows: BTreeMap<String, f64>,
}

impl LayerTable {
    /// Sum of the rows (equal to `wall_ms` up to rounding).
    pub fn total_ms(&self) -> f64 {
        self.rows.values().sum()
    }

    pub fn render(&self, what: &str) -> String {
        let mut out = format!(
            "self time per layer, {} {what}(s), {:.1} ms wall in all\n",
            self.roots, self.wall_ms
        );
        for (layer, ms) in &self.rows {
            out.push_str(&format!(
                "  {layer:<14} {ms:>12.2} ms  {:>6.2}%\n",
                100.0 * ms / self.wall_ms.max(1e-9)
            ));
        }
        out.push_str(&format!(
            "  {:<14} {:>12.2} ms  (rows sum to {:.4}% of wall)\n",
            "sum",
            self.total_ms(),
            100.0 * self.total_ms() / self.wall_ms.max(1e-9)
        ));
        out
    }

    pub fn to_json(&self) -> String {
        json_obj([
            ("roots", self.roots.to_string()),
            ("wall_ms", json_num(self.wall_ms)),
            ("sum_ms", json_num(self.total_ms())),
            (
                "self_ms",
                json_obj(self.rows.iter().map(|(k, v)| (k.as_str(), json_num(*v)))),
            ),
        ])
    }
}
