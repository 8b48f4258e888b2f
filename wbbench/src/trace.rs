//! In-memory span recorder for the traced run.
//!
//! Spans (name, tag, start, end, parent) are recorded by the benchmark's
//! own code around each call into a layer — per offline cell and chunk,
//! per tournament cell, per daemon request, per wire-layer call — and
//! written out as JSON lines when the run ends. Nothing is recorded inside
//! the program under test. A disabled tracer records nothing, so the
//! untraced run pays only for the branch.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// One closed span. `parent == 0` marks a root.
pub struct Span {
    id: u32,
    parent: u32,
    name: &'static str,
    tag: Arc<str>,
    start_ns: u64,
    end_ns: u64,
}

/// A span recorder. [`Tracer::fork`] hands a worker thread its own
/// recorder that shares the epoch and the id sequence, so spans from
/// several threads merge without renumbering.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    ids: Arc<AtomicU32>,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder; `enabled = false` makes every call a no-op.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            ids: Arc::new(AtomicU32::new(1)),
            spans: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// A recorder for another thread, sharing epoch and id sequence.
    pub fn fork(&self) -> Tracer {
        Tracer {
            enabled: self.enabled,
            epoch: self.epoch,
            ids: Arc::clone(&self.ids),
            spans: Vec::new(),
        }
    }

    /// Take back a forked recorder's spans.
    pub fn merge(&mut self, other: Tracer) {
        self.spans.extend(other.spans);
    }

    /// Allocate a span id before the span closes, so children can name
    /// it as their parent. `0` when disabled.
    pub fn id(&self) -> u32 {
        if self.enabled {
            self.ids.fetch_add(1, Ordering::Relaxed)
        } else {
            0
        }
    }

    /// Record span `id` (from [`Tracer::id`]) over `[start, end]`.
    pub fn span(
        &mut self,
        id: u32,
        parent: u32,
        name: &'static str,
        tag: &Arc<str>,
        start: Instant,
        end: Instant,
    ) {
        if !self.enabled {
            return;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            id,
            parent,
            name,
            tag: Arc::clone(tag),
            start_ns: ns(start),
            end_ns: ns(end),
        });
    }

    /// Record a leaf span and return its id.
    pub fn leaf(
        &mut self,
        parent: u32,
        name: &'static str,
        tag: &Arc<str>,
        start: Instant,
        end: Instant,
    ) -> u32 {
        let id = self.id();
        self.span(id, parent, name, tag, start, end);
        id
    }

    /// Per span name: `(count, total ms, self ms)`, where self time is a
    /// span's duration minus the time its direct children cover (children
    /// of one parent are summed, so overlapping pipelined children can
    /// only push self time down to zero, never below).
    pub fn summary(&self) -> BTreeMap<&'static str, (u64, f64, f64)> {
        let mut child_ns: BTreeMap<u32, u64> = BTreeMap::new();
        for s in &self.spans {
            if s.parent != 0 {
                *child_ns.entry(s.parent).or_default() += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, f64, f64)> = BTreeMap::new();
        for s in &self.spans {
            let dur = s.end_ns - s.start_ns;
            let own = dur.saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += dur as f64 / 1e6;
            e.2 += own as f64 / 1e6;
        }
        out
    }

    /// Write every span as one JSON line to `path`.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                r#"{{"id":{},"parent":{},"name":"{}","tag":"{}","start_ns":{},"end_ns":{}}}"#,
                s.id, s.parent, s.name, s.tag, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        let tag: Arc<str> = Arc::from("x");
        let t0 = Instant::now();
        let t1 = t0 + std::time::Duration::from_millis(10);
        let t2 = t0 + std::time::Duration::from_millis(4);
        let parent = t.id();
        t.leaf(parent, "child", &tag, t0, t2);
        t.span(parent, 0, "parent", &tag, t0, t1);
        let s = t.summary();
        assert_eq!(s["parent"].0, 1);
        assert!((s["parent"].2 - 6.0).abs() < 1e-6);
        assert!((s["child"].1 - 4.0).abs() < 1e-6);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let tag: Arc<str> = Arc::from("x");
        let now = Instant::now();
        assert_eq!(t.leaf(0, "a", &tag, now, now), 0);
        assert!(t.summary().is_empty());
    }
}
