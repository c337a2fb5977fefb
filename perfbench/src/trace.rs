//! Benchmark-side spans around each public layer call.
//!
//! Every layer call in a workload goes through [`Tracer::span`], which
//! always times the call (the workloads need phase timings for their
//! end-to-end metrics) and, when tracing is on, also keeps a [`Span`]
//! record in memory. Ops are bracketed by [`Tracer::op_begin`] /
//! [`Tracer::op_end`]; a layer span's parent is the op open around it.
//! Spans are written out once, when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Op id of spans recorded outside any timed op (set-up, verification).
pub const NO_OP: u64 = u64::MAX;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer (or `op`) name.
    pub name: &'static str,
    /// Start, ns since the tracer's origin.
    pub start_ns: u64,
    /// End, ns since the tracer's origin.
    pub end_ns: u64,
    /// Index of the enclosing span in the record, if any.
    pub parent: Option<usize>,
    /// The op this span belongs to ([`NO_OP`] outside ops).
    pub op: u64,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An open op returned by [`Tracer::op_begin`].
#[derive(Debug)]
pub struct OpToken {
    start: Instant,
    slot: Option<usize>,
}

/// Span recorder; see the module docs.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open_op: Option<(u64, Option<usize>)>,
}

impl Tracer {
    /// A tracer that records spans iff `on`.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open_op: None,
        }
    }

    /// Switches recording; the traced run alternates ops between the two
    /// states to measure what recording costs.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.origin).as_nanos() as u64
    }

    /// Opens op `op`; its layer spans nest under it until
    /// [`Tracer::op_end`].
    pub fn op_begin(&mut self, op: u64) -> OpToken {
        let start = Instant::now();
        let slot = self.on.then(|| {
            self.spans.push(Span {
                name: "op",
                start_ns: self.ns(start),
                end_ns: self.ns(start),
                parent: None,
                op,
            });
            self.spans.len() - 1
        });
        self.open_op = Some((op, slot));
        OpToken { start, slot }
    }

    /// Closes the open op; returns its latency in ms.
    pub fn op_end(&mut self, token: OpToken) -> f64 {
        let end = Instant::now();
        if let Some(i) = token.slot {
            self.spans[i].end_ns = self.ns(end);
        }
        self.open_op = None;
        ms(end - token.start)
    }

    /// Runs one layer call, returning its result and its duration in ms.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        if self.on {
            let (op, parent) = self.open_op.unwrap_or((NO_OP, None));
            self.spans.push(Span {
                name,
                start_ns: self.ns(start),
                end_ns: self.ns(end),
                parent,
                op,
            });
        }
        (out, ms(end - start))
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-span self time in ms: the span's duration minus the part its
    /// direct children cover (children of one span never overlap — every
    /// workload drives its layers from one thread).
    pub fn self_ms(&self) -> Vec<f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        self.spans
            .iter()
            .zip(child_ns)
            .map(|(s, c)| s.dur_ns().saturating_sub(c) as f64 / 1e6)
            .collect()
    }

    /// Self times grouped by span name; spans inside timed ops are
    /// preferred, and set-up spans stand in for layers that only run
    /// there.
    pub fn self_ms_by_name(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let selfs = self.self_ms();
        let mut in_ops: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        let mut outside: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (s, v) in self.spans.iter().zip(selfs) {
            let map = if s.op == NO_OP {
                &mut outside
            } else {
                &mut in_ops
            };
            map.entry(s.name).or_default().push(v);
        }
        for (name, v) in outside {
            in_ops.entry(name).or_insert(v);
        }
        in_ops
    }

    /// The spans as JSON lines (name, start, end, parent, op).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let op = if s.op == NO_OP {
                "null".to_string()
            } else {
                s.op.to_string()
            };
            // Infallible: writing to a String.
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{op}}}",
                s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

/// A duration in ms.
pub fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn sleep_ms(n: u64) {
        std::thread::sleep(Duration::from_millis(n));
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut tr = Tracer::new(true);
        tr.span("setup.layer", || sleep_ms(1));
        let op = tr.op_begin(0);
        tr.span("a", || sleep_ms(5));
        tr.span("b", || sleep_ms(5));
        sleep_ms(3);
        let total = tr.op_end(op);
        let spans = tr.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].op, NO_OP);
        assert_eq!((spans[2].parent, spans[3].parent), (Some(1), Some(1)));
        let selfs = tr.self_ms();
        let children = selfs[2] + selfs[3];
        assert!(children >= 10.0);
        assert!(
            (selfs[1] + children - total).abs() < 0.5,
            "{selfs:?} {total}"
        );
        assert!(selfs[1] >= 3.0);
        let by = tr.self_ms_by_name();
        assert_eq!(by["op"].len(), 1);
        assert_eq!(by["setup.layer"].len(), 1);
        assert_eq!(tr.to_jsonl().lines().count(), 4);
    }

    #[test]
    fn off_records_nothing_but_still_times() {
        let mut tr = Tracer::new(false);
        let op = tr.op_begin(0);
        let ((), d) = tr.span("a", || sleep_ms(2));
        assert!(d >= 2.0);
        assert!(tr.op_end(op) >= d);
        assert!(tr.spans().is_empty());
    }
}
