//! The traced run's span recorder.
//!
//! Spans are recorded from the benchmark's own code, around each call
//! into a layer's public functions: a name, start, end, parent span and
//! request id. They stay in memory and are written out once, when the
//! run ends. A disabled recorder reads no clock and stores nothing, so
//! the same replay code gives the untraced baseline for the tracing
//! overhead.

use crate::stats::Samples;
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `phase1.sweep`.
    pub name: &'static str,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Request (or session, or event) the span belongs to.
    pub req: u64,
}

impl Span {
    fn micros(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e3
    }
}

/// Records nested spans on one thread.
#[derive(Debug)]
pub struct Recorder {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    req: u64,
}

impl Recorder {
    /// A recorder; `on == false` makes every call a no-op.
    pub fn new(on: bool) -> Self {
        Recorder {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            req: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Tags the spans that follow with request id `id`.
    pub fn request(&mut self, id: u64) {
        self.req = id;
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            req: self.req,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        let end_ns = self.now_ns();
        if let Some(span) = self.open.pop().and_then(|i| self.spans.get_mut(i)) {
            span.end_ns = end_ns;
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        self.enter(name);
        let out = f(self);
        self.exit();
        out
    }

    /// Per-name durations and self times (duration minus the time its
    /// child spans cover), in microseconds.
    pub fn profile(&self) -> Profile {
        let mut child_us = vec![0.0f64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_us[p] += s.micros();
            }
        }
        let mut profile = Profile::default();
        for (s, children) in self.spans.iter().zip(child_us) {
            let d = s.micros();
            profile.total.entry(s.name).or_default().push(d);
            profile
                .self_time
                .entry(s.name)
                .or_default()
                .push(d - children);
            profile.children.entry(s.name).or_default().push(children);
        }
        profile
    }

    /// Writes every span as one JSON line to `path`.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{}}}",
                s.name, s.start_ns, s.end_ns, s.req
            )?;
        }
        out.flush()
    }
}

/// Aggregated spans, keyed by span name.
#[derive(Debug, Default)]
pub struct Profile {
    total: BTreeMap<&'static str, Samples>,
    self_time: BTreeMap<&'static str, Samples>,
    children: BTreeMap<&'static str, Samples>,
}

impl Profile {
    /// Durations of every span called `name` (empty when none).
    pub fn total(&self, name: &str) -> Samples {
        self.total.get(name).cloned().unwrap_or_default()
    }

    /// Self times of every span called `name`.
    pub fn self_time(&self, name: &str) -> Samples {
        self.self_time.get(name).cloned().unwrap_or_default()
    }

    /// Share of the time of spans called `name` that their children
    /// explain, in percent.
    pub fn explained_pct(&self, name: &str) -> f64 {
        let total = self.total(name).sum();
        let children = self.children.get(name).map_or(0.0, Samples::sum);
        if total > 0.0 {
            children / total * 100.0
        } else {
            0.0
        }
    }
}
