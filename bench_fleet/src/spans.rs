//! Wall-clock spans recorded around the benchmark's calls into each
//! layer, kept in memory and written out as Chrome trace-event JSON
//! (loadable in Perfetto or `chrome://tracing`) when the run ends.
//!
//! Spans nest: one begun while another is open becomes its child. A
//! span's *self time* is its duration minus the part of its interval
//! that its children cover.

use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// What was called, e.g. `engine.run`.
    pub name: &'static str,
    /// The layer it belongs to, e.g. `cluster::engine`.
    pub layer: &'static str,
    /// Start, ns since the recorder was created.
    pub start_ns: u64,
    /// Duration, ns.
    pub dur_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
}

/// A span recorder; a recorder made with [`Spans::off`] records nothing
/// and only runs the closures it is handed.
#[derive(Debug)]
pub struct Spans {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    /// A recorder that records.
    pub fn new() -> Self {
        Spans {
            on: true,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A recorder that records nothing.
    pub fn off() -> Self {
        Spans {
            on: false,
            ..Spans::new()
        }
    }

    /// Run `f` inside a span named `name` in `layer`.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        layer: &'static str,
        f: impl FnOnce(&mut Spans) -> T,
    ) -> T {
        if !self.on {
            return f(self);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            layer,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            dur_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        let end_ns = self.origin.elapsed().as_nanos() as u64;
        let span = &mut self.spans[index];
        span.dur_ns = end_ns - span.start_ns;
        out
    }

    /// Forget spans left open by a panic that unwound through them, so
    /// later spans get the right parents.
    pub fn close_abandoned(&mut self) {
        self.open.clear();
    }

    /// Every closed span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations of the spans named `name` among those begun at or
    /// after index `from`, in seconds.
    pub fn durations_s(&self, name: &str, from: usize) -> Vec<f64> {
        self.spans[from.min(self.spans.len())..]
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns as f64 * 1e-9)
            .collect()
    }

    /// The spans as a Chrome trace-event document, with each span's
    /// self time and parent in its `args`.
    pub fn to_chrome_json(&self, meta: serde_json::Value) -> String {
        use serde_json::Value;
        let self_ns = self_times(&self.spans);
        let events = self
            .spans
            .iter()
            .zip(self_ns)
            .enumerate()
            .map(|(i, (s, self_ns))| {
                let mut args = vec![
                    ("id".to_string(), Value::Number(i as f64)),
                    ("self_us".to_string(), Value::Number(self_ns as f64 / 1e3)),
                ];
                if let Some(p) = s.parent {
                    args.push(("parent".to_string(), Value::Number(p as f64)));
                }
                Value::object([
                    ("name".to_string(), Value::String(s.name.to_string())),
                    ("cat".to_string(), Value::String(s.layer.to_string())),
                    ("ph".to_string(), Value::String("X".to_string())),
                    ("ts".to_string(), Value::Number(s.start_ns as f64 / 1e3)),
                    ("dur".to_string(), Value::Number(s.dur_ns as f64 / 1e3)),
                    ("pid".to_string(), Value::Number(1.0)),
                    ("tid".to_string(), Value::Number(1.0)),
                    ("args".to_string(), Value::object(args)),
                ])
            })
            .collect();
        serde_json::to_string(&Value::object([
            ("traceEvents".to_string(), Value::Array(events)),
            (
                "displayTimeUnit".to_string(),
                Value::String("ms".to_string()),
            ),
            ("otherData".to_string(), meta),
        ]))
    }
}

impl Default for Spans {
    fn default() -> Self {
        Spans::new()
    }
}

/// Each span's self time in ns: its duration minus the union of its
/// direct children's intervals, clipped to its own interval.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.start_ns + s.dur_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            let (lo, hi) = (s.start_ns, s.start_ns + s.dur_ns);
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = lo;
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(hi));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur_ns - covered
        })
        .collect()
}
