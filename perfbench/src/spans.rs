//! Spans recorded around the benchmark's own calls into each layer: name,
//! start, end, parent, and one request id shared by all spans of a
//! request. Kept in memory and written out when the run ends. When tracing
//! is off nothing is recorded.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Request id of spans that belong to no request (setup, probes).
pub const NO_REQ: u64 = u64::MAX;

#[derive(Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index + 1 of the parent span in the same recorder; 0 for none.
    pub parent: usize,
    pub req: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

pub struct Spans {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new(on: bool, t0: Instant) -> Self {
        Spans {
            on,
            t0,
            spans: Vec::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    pub fn origin(&self) -> Instant {
        self.t0
    }

    pub fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens a span; returns its id (0 when tracing is off).
    pub fn open(&mut self, name: &'static str, parent: usize, req: u64) -> usize {
        if !self.on {
            return 0;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            req,
        });
        self.spans.len()
    }

    pub fn close(&mut self, id: usize) {
        if id != 0 {
            let end = self.now_ns();
            self.spans[id - 1].end_ns = end;
        }
    }

    /// Records a span whose interval was measured elsewhere.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: usize,
        req: u64,
    ) {
        if self.on {
            let ns = |t: Instant| t.saturating_duration_since(self.t0).as_nanos() as u64;
            self.spans.push(Span {
                name,
                start_ns: ns(start),
                end_ns: ns(end),
                parent,
                req,
            });
        }
    }

    /// Runs `f` inside a span and returns its result with its duration in
    /// ms; the duration is measured whether or not tracing is on.
    pub fn timed<R>(
        &mut self,
        name: &'static str,
        parent: usize,
        req: u64,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let start = Instant::now();
        let r = f();
        let end = Instant::now();
        self.record(name, start, end, parent, req);
        (r, (end - start).as_secs_f64() * 1e3)
    }

    /// Moves another recorder's spans (same clock origin) into this one.
    pub fn absorb(&mut self, other: Spans) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != 0 {
                s.parent += base;
            }
            s
        }));
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Durations in ms of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// Writes one JSON object per span.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let req = if s.req == NO_REQ {
                "null".to_string()
            } else {
                s.req.to_string()
            };
            writeln!(
                out,
                "{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"req\":{}}}",
                i + 1,
                s.name,
                s.start_ns,
                s.end_ns,
                s.parent,
                req
            )?;
        }
        out.flush()
    }
}
