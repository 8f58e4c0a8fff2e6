//! Span recording around calls into the layers' public functions.
//!
//! Workloads are generic over [`Probe`]. The untraced binary
//! instantiates them with [`NoProbe`], whose methods are empty and
//! compile away, so end-to-end numbers never carry a timer the
//! workload did not ask for. The traced binary uses [`SpanProbe`],
//! which keeps `{id, parent, op, name, start_ns, end_ns}` records in
//! memory and writes them out when the run ends.
//!
//! Spans wrap whole public calls (a 64-frame batch, one controller
//! handler), never sub-frame work: a 20 ns timer inside a 230 ns frame
//! measures itself. Sub-frame layers are priced by the isolated batch
//! loops in [`crate::layers`].

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded span. `parent` 0 means "no parent" (a root span); ids
/// start at 1.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Span id, unique within a run.
    pub id: u32,
    /// Enclosing span, 0 for a root.
    pub parent: u32,
    /// The op (root span id) this span belongs to; a root names itself.
    pub op: u32,
    /// Layer-qualified name, e.g. `controller.request`.
    pub name: &'static str,
    /// Start, ns since the probe was created.
    pub start_ns: u64,
    /// End, ns since the probe was created.
    pub end_ns: u64,
}

/// Where workloads report layer-boundary crossings.
pub trait Probe {
    /// Open a span under `parent` (0 for a root); returns its id.
    fn begin(&mut self, name: &'static str, parent: u32) -> u32;
    /// Close span `id`.
    fn end(&mut self, id: u32);
}

/// The untraced binary's probe: does nothing, costs nothing.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoProbe;

impl Probe for NoProbe {
    #[inline(always)]
    fn begin(&mut self, _name: &'static str, _parent: u32) -> u32 {
        0
    }
    #[inline(always)]
    fn end(&mut self, _id: u32) {}
}

/// The traced binary's probe: spans kept in memory.
#[derive(Debug)]
pub struct SpanProbe {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for SpanProbe {
    fn default() -> Self {
        SpanProbe::new()
    }
}

impl SpanProbe {
    /// An empty recorder whose clock starts now.
    pub fn new() -> SpanProbe {
        SpanProbe {
            epoch: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
        }
    }

    /// Every span recorded so far, in `begin` order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write one JSON object per span, one per line.
    pub fn write_jsonl(&self, w: &mut impl Write) -> std::io::Result<()> {
        for s in &self.spans {
            writeln!(
                w,
                "{{\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.op, s.name, s.start_ns, s.end_ns
            )?;
        }
        Ok(())
    }

    /// Per-name totals: `(calls, total duration ns, self ns)`, where a
    /// span's self time is its duration minus its direct children's.
    pub fn self_times(&self) -> BTreeMap<&'static str, SelfTime> {
        let mut child_ns = vec![0u64; self.spans.len() + 1];
        for s in &self.spans {
            child_ns[s.parent as usize] += s.end_ns.saturating_sub(s.start_ns);
        }
        let mut by_name: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
        for s in &self.spans {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            let e = by_name.entry(s.name).or_default();
            e.calls += 1;
            e.total_ns += dur;
            e.self_ns += dur.saturating_sub(child_ns[s.id as usize]);
        }
        by_name
    }
}

/// Aggregate of every span sharing a name.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SelfTime {
    /// Spans with this name.
    pub calls: u64,
    /// Sum of their durations, ns.
    pub total_ns: u64,
    /// Sum of their self times, ns.
    pub self_ns: u64,
}

impl SelfTime {
    /// Mean duration per call, ns (0 when never called).
    pub fn mean_ns(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.calls as f64
        }
    }
}

impl Probe for SpanProbe {
    fn begin(&mut self, name: &'static str, parent: u32) -> u32 {
        let id = self.spans.len() as u32 + 1;
        let op = if parent == 0 {
            id
        } else {
            self.spans[parent as usize - 1].op
        };
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            id,
            parent,
            op,
            name,
            start_ns,
            end_ns: start_ns,
        });
        id
    }

    fn end(&mut self, id: u32) {
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans[id as usize - 1].end_ns = end_ns;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_ops_inherit() {
        let mut p = SpanProbe::new();
        let root = p.begin("op", 0);
        let a = p.begin("layer.a", root);
        p.end(a);
        let b = p.begin("layer.b", root);
        let c = p.begin("layer.c", b);
        p.end(c);
        p.end(b);
        p.end(root);
        // Pin the clock so the arithmetic is exact.
        let t = [(0, 100), (10, 30), (40, 90), (50, 70)];
        for (s, &(start, end)) in p.spans.iter_mut().zip(&t) {
            s.start_ns = start;
            s.end_ns = end;
        }
        assert!(p.spans().iter().all(|s| s.op == root));
        let st = p.self_times();
        assert_eq!(st["op"].self_ns, 100 - 20 - 50);
        assert_eq!(st["layer.b"].self_ns, 50 - 20);
        assert_eq!(st["layer.c"].self_ns, 20);
        assert_eq!(st["layer.a"].mean_ns(), 20.0);
        let mut buf = Vec::new();
        p.write_jsonl(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), 4);
        assert!(text
            .lines()
            .next()
            .unwrap()
            .starts_with("{\"id\":1,\"parent\":0,\"op\":1,"));
    }
}
