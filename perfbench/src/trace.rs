//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span records its layer, the span that caused it, and its start and end
//! in nanoseconds since the tracer was made.  Spans stay in memory and are
//! written out once, when the run ends.  A disabled tracer records nothing
//! and reads no clock, so the untraced run times the same code paths.

use std::io::Write;
use std::time::Instant;

/// The modules of the repository a span can be attributed to, plus the
/// benchmark's own harness: `Setup`, `Job`, `Companion` — a job of the
/// wire layer run beside the workload's own in a traced run — and
/// `Baseline` — a job on a comparison configuration (no fault plan, or the
/// flat engine in place of the wire) that the overhead metrics subtract.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    Setup,
    Job,
    Companion,
    Baseline,
    Graph,
    Engine,
    Partition,
    GlobalFn,
    Mst,
    Rebalance,
    Wire,
}

impl Layer {
    pub fn name(self) -> &'static str {
        match self {
            Layer::Setup => "setup",
            Layer::Job => "job",
            Layer::Companion => "companion",
            Layer::Baseline => "baseline",
            Layer::Graph => "graph",
            Layer::Engine => "engine",
            Layer::Partition => "partition",
            Layer::GlobalFn => "global_fn",
            Layer::Mst => "mst",
            Layer::Rebalance => "rebalance",
            Layer::Wire => "wire",
        }
    }
}

const NONE: u32 = u32::MAX;
const SPAN_CAPACITY: usize = 1 << 20;

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub layer: Layer,
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 * 1e-9
    }
}

/// A span opened by [`Tracer::begin`]; close it with [`Tracer::end`].
#[must_use]
pub struct Open(u32);

pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            // Reserved up front so that recording allocates nothing inside
            // the jobs whose allocations are counted.
            spans: Vec::with_capacity(if on { SPAN_CAPACITY } else { 0 }),
            stack: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Switches recording on or off between spans (the traced run
    /// interleaves traced and untraced jobs to measure the overhead).
    pub fn set_on(&mut self, on: bool) {
        assert!(self.stack.is_empty(), "toggled inside an open span");
        self.on = on;
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, layer: Layer) -> Open {
        if !self.on {
            return Open(NONE);
        }
        let id = self.spans.len() as u32;
        let parent = self.stack.last().copied().unwrap_or(NONE);
        let start_ns = self.now();
        self.spans.push(Span {
            layer,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(id);
        Open(id)
    }

    pub fn end(&mut self, open: Open) {
        if open.0 == NONE {
            return;
        }
        let end_ns = self.now();
        assert_eq!(self.stack.pop(), Some(open.0), "spans must nest");
        self.spans[open.0 as usize].end_ns = end_ns;
    }

    /// Runs `f` inside a span of `layer`.
    pub fn span<R>(&mut self, layer: Layer, f: impl FnOnce() -> R) -> R {
        let open = self.begin(layer);
        let r = f();
        self.end(open);
        r
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in seconds of every span of `layer`, in record order.
    pub fn durations(&self, layer: Layer) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.layer == layer)
            .map(Span::secs)
            .collect()
    }

    /// Durations in seconds of the spans of `layer` whose parent span is of
    /// layer `parent`.
    pub fn durations_under(&self, layer: Layer, parent: Layer) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.layer == layer && self.parent_is(s, parent))
            .map(Span::secs)
            .collect()
    }

    fn parent_is(&self, s: &Span, parent: Layer) -> bool {
        s.parent != NONE && self.spans[s.parent as usize].layer == parent
    }

    /// Total self time in seconds of the spans of `layer` (under a parent
    /// of layer `parent`, when given): each span's duration minus the part
    /// of it its child spans cover.
    pub fn self_time(&self, layer: Layer, parent: Option<Layer>) -> f64 {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NONE {
                child[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let ns: u64 = self
            .spans
            .iter()
            .zip(&child)
            .filter(|(s, _)| s.layer == layer && parent.is_none_or(|p| self.parent_is(s, p)))
            .map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(*c))
            .sum();
        ns as f64 * 1e-9
    }

    /// Writes every span as CSV: `id,parent,layer,start_ns,end_ns` (an empty
    /// parent marks a root span).
    pub fn write_csv(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id,parent,layer,start_ns,end_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NONE {
                String::new()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{i},{parent},{},{},{}",
                s.layer.name(),
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}
