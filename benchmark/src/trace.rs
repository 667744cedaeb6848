//! Span recording for the traced pass.
//!
//! The benchmark records a span around each call it makes into a layer:
//! `{name, start_ns, end_ns, parent, request}`, one request id per client
//! request. Spans stay in memory (one [`SpanLog`] per thread, merged when
//! the phase ends), are written as JSON lines when the pass ends, and
//! every per-layer timing is derived from them. A disabled log records
//! nothing, so the end-to-end pass shares the client code without paying
//! for spans.

use std::io::Write;
use std::time::Instant;

/// Index of a span in its log; [`SpanId::NONE`] from a disabled log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u32);

impl SpanId {
    /// The id a disabled log hands out (and the parent of a root span).
    pub const NONE: SpanId = SpanId(u32::MAX);
}

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// What was called (`request.interactive`, `client.wait`,
    /// `stages.project_all`, …).
    pub name: &'static str,
    /// Start, ns since the log's epoch.
    pub start_ns: u64,
    /// End, ns since the log's epoch.
    pub end_ns: u64,
    /// The span that caused this one ([`SpanId::NONE`] for a root).
    pub parent: SpanId,
    /// Client request this span belongs to (0 = a probe, no request).
    pub request: u64,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// An in-memory span log.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    on: bool,
    spans: Vec<Span>,
}

impl SpanLog {
    /// A log measuring from `epoch`; `on = false` records nothing.
    pub fn new(epoch: Instant, on: bool) -> Self {
        Self {
            epoch,
            on,
            spans: Vec::new(),
        }
    }

    /// A recording log starting now.
    pub fn recording() -> Self {
        Self::new(Instant::now(), true)
    }

    /// A fresh log with this log's epoch and switch (one per thread).
    pub fn fork(&self) -> Self {
        Self::new(self.epoch, self.on)
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Number of recorded spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// The recorded spans, in open order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Self::close`].
    pub fn open(&mut self, name: &'static str, parent: SpanId, request: u64) -> SpanId {
        if !self.on {
            return SpanId::NONE;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
        });
        SpanId(self.spans.len() as u32 - 1)
    }

    /// Closes a span opened by [`Self::open`].
    pub fn close(&mut self, id: SpanId) {
        if id != SpanId::NONE {
            self.spans[id.0 as usize].end_ns = self.now_ns();
        }
    }

    /// Runs `f` inside a span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        request: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, parent, request);
        let out = f();
        self.close(id);
        out
    }

    /// Appends another thread's log, re-basing its parent links.
    pub fn absorb(&mut self, other: SpanLog) {
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != SpanId::NONE {
                s.parent = SpanId(s.parent.0 + base);
            }
            s
        }));
    }

    /// Durations (ms) of every span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// For every span called `root`, the durations (ms) of its direct
    /// children called `child`, in open order.
    pub fn children_ms(&self, root: &str, child: &str) -> Vec<Vec<f64>> {
        let mut slot = vec![usize::MAX; self.spans.len()];
        let mut out: Vec<Vec<f64>> = Vec::new();
        for (i, s) in self.spans.iter().enumerate() {
            if s.name == root {
                slot[i] = out.len();
                out.push(Vec::new());
            }
        }
        for s in &self.spans {
            if s.name == child && s.parent != SpanId::NONE {
                let k = slot[s.parent.0 as usize];
                if k != usize::MAX {
                    out[k].push(s.ms());
                }
            }
        }
        out
    }

    /// Self time (ms) of every span called `name`: its duration minus
    /// the part its direct children cover.
    pub fn self_ms(&self, name: &str) -> Vec<f64> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != SpanId::NONE {
                covered[s.parent.0 as usize] += s.end_ns - s.start_ns;
            }
        }
        self.spans
            .iter()
            .zip(&covered)
            .filter(|(s, _)| s.name == name)
            .map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(*c) as f64 / 1e6)
            .collect()
    }

    /// Writes the spans as JSON lines.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == SpanId::NONE {
                "null".to_string()
            } else {
                s.parent.0.to_string()
            };
            writeln!(
                w,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"request\": {}}}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_log_records_nothing() {
        let mut log = SpanLog::new(Instant::now(), false);
        let id = log.open("request", SpanId::NONE, 1);
        log.close(id);
        assert_eq!(log.time("x", id, 1, || 7), 7);
        assert!(log.is_empty());
    }

    #[test]
    fn self_time_subtracts_children_and_absorb_rebases_parents() {
        let mut a = SpanLog::recording();
        let mut b = a.fork();
        a.time("other", SpanId::NONE, 0, || ());
        let root = b.open("request", SpanId::NONE, 9);
        b.time("client.wait", root, 9, || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        b.time("client.wait", root, 9, || ());
        b.close(root);
        a.absorb(b);
        assert_eq!(a.len(), 4);
        let waits = a.children_ms("request", "client.wait");
        assert_eq!(waits.len(), 1);
        assert_eq!(waits[0].len(), 2);
        assert!(waits[0][0] >= 5.0);
        let total = a.durations_ms("request")[0];
        let own = a.self_ms("request")[0];
        assert!(own < total - 4.9, "self {own} vs total {total}");
    }
}
