//! Spans recorded by the client around each call into a layer.
//!
//! Each span has a name, a start, an end, a parent and the id of the
//! client operation it belongs to. Spans stay in memory and are written
//! once, at the end of the run. Self time is a span's duration minus the
//! part its children cover.

use std::collections::HashMap;
use std::io::Write;
use std::time::Instant;

/// "No span": the parent of a root span, and what `begin` returns while
/// tracing is off.
pub const NONE: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub op: u32,
    pub parent: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64
    }
}

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    active: bool,
    t0: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records only when `enabled` and switched active.
    pub fn new(enabled: bool) -> Self {
        Self { enabled, active: false, t0: Instant::now(), spans: Vec::new() }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turns recording on or off (a no-op on a disabled tracer).
    pub fn set_active(&mut self, on: bool) {
        self.active = self.enabled && on;
    }

    pub fn active(&self) -> bool {
        self.active
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span; returns its id, or [`NONE`] while inactive.
    pub fn begin(&mut self, op: u32, parent: u32, name: &'static str) -> u32 {
        if !self.active {
            return NONE;
        }
        let id = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        let now = self.now_ns();
        self.spans.push(Span { op, parent, name, start_ns: now, end_ns: now });
        id
    }

    pub fn end(&mut self, id: u32) {
        if id != NONE {
            let now = self.now_ns();
            self.spans[id as usize].end_ns = now;
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ns) of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(Span::dur_ns).collect()
    }

    /// Durations (ns) of every span called `name`, keyed by op id.
    pub fn by_op(&self, name: &str) -> HashMap<u32, f64> {
        self.spans.iter().filter(|s| s.name == name).map(|s| (s.op, s.dur_ns())).collect()
    }

    /// For every root span called `root`: its duration and the duration
    /// of each direct child, by name.
    pub fn roots(&self, root: &str) -> Vec<(f64, Vec<(&'static str, f64)>)> {
        let mut index: HashMap<u32, usize> = HashMap::new();
        let mut out: Vec<(f64, Vec<(&'static str, f64)>)> = Vec::new();
        for (i, s) in self.spans.iter().enumerate() {
            if s.parent == NONE && s.name == root {
                index.insert(i as u32, out.len());
                out.push((s.dur_ns(), Vec::new()));
            } else if let Some(&at) = index.get(&s.parent) {
                out[at].1.push((s.name, s.dur_ns()));
            }
        }
        out
    }

    /// Writes every span as tab-separated `op parent name start_ns end_ns`.
    pub fn write(&self, path: &str) -> std::io::Result<()> {
        if let Some(dir) = std::path::Path::new(path).parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "op\tparent\tname\tstart_ns\tend_ns")?;
        for s in &self.spans {
            let parent = if s.parent == NONE { -1 } else { i64::from(s.parent) };
            writeln!(w, "{}\t{}\t{}\t{}\t{}", s.op, parent, s.name, s.start_ns, s.end_ns)?;
        }
        w.flush()
    }
}

/// `(duration, self time)` in ns of each root span called `root`; self
/// time is the duration minus what its direct children cover.
pub fn root_self_times(tr: &Tracer, root: &str) -> Vec<(f64, f64)> {
    tr.roots(root)
        .into_iter()
        .map(|(dur, kids)| {
            let covered: f64 = kids.iter().map(|&(_, d)| d).sum();
            (dur, (dur - covered).max(0.0))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inactive_tracer_records_nothing() {
        let mut t = Tracer::new(true);
        assert_eq!(t.begin(0, NONE, "x"), NONE);
        t.set_active(true);
        let r = t.begin(0, NONE, "op");
        let c = t.begin(0, r, "kid");
        t.end(c);
        t.end(r);
        assert_eq!(t.spans().len(), 2);
        let roots = t.roots("op");
        assert_eq!(roots.len(), 1);
        assert_eq!(roots[0].1.len(), 1);
        let mut off = Tracer::new(false);
        off.set_active(true);
        assert!(!off.active());
    }
}
