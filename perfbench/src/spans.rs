//! An in-memory span recorder and the self-time table built from it.
//!
//! Spans are recorded from the benchmark's own code, around its calls
//! into each layer's public functions. A disabled recorder reads no
//! clock at all, so the same replay code runs traced and untraced and
//! the difference is the tracing overhead.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::ops::Range;
use std::path::Path;
use std::time::Instant;

/// Marker for "no span" (a root's parent, or a disabled recorder).
pub const NONE: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub request: u32,
}

pub struct Recorder {
    enabled: bool,
    base: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new(base: Instant) -> Recorder {
        Recorder {
            enabled: false,
            base,
            spans: Vec::new(),
        }
    }

    pub fn reserve(&mut self, spans: usize) {
        self.spans.reserve(spans);
    }

    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Open a span; returns its handle ([`NONE`] when disabled).
    #[inline]
    pub fn begin(&mut self, name: &'static str, parent: u32, request: u32) -> u32 {
        if !self.enabled {
            return NONE;
        }
        let start_ns = self.base.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
        });
        self.spans.len() as u32 - 1
    }

    #[inline]
    pub fn end(&mut self, span: u32) {
        if span != NONE {
            self.spans[span as usize].end_ns = self.base.elapsed().as_nanos() as u64;
        }
    }

    /// Close `prev` and open its successor at the same instant, so
    /// consecutive layers tile their parent with no unattributed gap and
    /// one clock read per boundary.
    #[inline]
    pub fn switch(&mut self, prev: u32, name: &'static str, parent: u32, request: u32) -> u32 {
        if !self.enabled {
            return NONE;
        }
        let now = self.base.elapsed().as_nanos() as u64;
        if prev != NONE {
            self.spans[prev as usize].end_ns = now;
        }
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            request,
        });
        self.spans.len() as u32 - 1
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write every span as tab-separated text.
    pub fn write_tsv(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = String::from("index\tname\tstart_ns\tend_ns\tparent\trequest\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NONE {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            let _ = writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{parent}\t{}",
                s.name, s.start_ns, s.end_ns, s.request
            );
        }
        std::fs::write(path, out)
    }
}

/// Per-name totals: how many spans, and their summed self time (a
/// span's duration minus the part its children cover).
#[derive(Debug, Default, Clone, Copy)]
pub struct SelfTime {
    pub count: u64,
    pub self_ns: f64,
}

/// The self-time table of the spans in `range` (parents are indices into
/// the whole of `spans`), each self time multiplied by `scale` (the
/// untraced share of traced time, to report times net of tracing).
pub fn self_times(
    spans: &[Span],
    range: Range<usize>,
    scale: f64,
) -> BTreeMap<&'static str, SelfTime> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != NONE {
            child_ns[s.parent as usize] += s.end_ns - s.start_ns;
        }
    }
    let mut table: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
    for (s, &children) in spans[range.clone()].iter().zip(&child_ns[range]) {
        let e = table.entry(s.name).or_default();
        e.count += 1;
        e.self_ns += (s.end_ns - s.start_ns).saturating_sub(children) as f64 * scale;
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let span = |name, start_ns, end_ns, parent| Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: 0,
        };
        let spans = [
            span("op", 0, 100, NONE),
            span("a", 10, 40, 0),
            span("b", 50, 60, 0),
            span("a", 70, 75, 0),
        ];
        let t = self_times(&spans, 0..spans.len(), 1.0);
        assert_eq!(t["op"].self_ns, 55.0);
        assert_eq!(t["a"].self_ns, 35.0);
        assert_eq!(t["a"].count, 2);
        assert_eq!(t["b"].self_ns, 10.0);
        assert_eq!(self_times(&spans, 2..4, 1.0)["a"].self_ns, 5.0);
        assert_eq!(self_times(&spans, 2..4, 0.5)["b"].self_ns, 5.0);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut r = Recorder::new(Instant::now());
        let s = r.begin("x", NONE, 0);
        r.end(s);
        assert!(r.spans().is_empty());
    }
}
