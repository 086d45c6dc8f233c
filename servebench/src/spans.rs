//! In-memory spans recorded by the traced run around each call into a
//! layer, and the self times derived from them.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Parent id of a root span.
pub const NO_PARENT: u32 = 0;

/// One timed call. Ids are 1-based positions in the owning log.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer call, e.g. `service.decide`.
    pub name: &'static str,
    /// Stream index of the request the call served.
    pub request: u32,
    /// The enclosing span, or [`NO_PARENT`].
    pub parent: u32,
    /// Start, nanoseconds after the run's origin.
    pub start_ns: u64,
    /// End, nanoseconds after the run's origin.
    pub end_ns: u64,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Spans of one run, kept in memory until written out at the end.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
}

/// Self time of one span name: calls and summed self nanoseconds.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SelfTime {
    /// Spans with this name.
    pub calls: u64,
    /// Their summed duration minus the part their children cover.
    pub self_ns: u64,
}

impl SelfTime {
    /// Mean self time per call in microseconds (0 with no calls).
    pub fn mean_us(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.calls as f64 / 1_000.0
        }
    }
}

impl SpanLog {
    /// An empty log whose timestamps count from `origin`.
    pub fn new(origin: Instant) -> SpanLog {
        SpanLog {
            origin,
            spans: Vec::new(),
        }
    }

    /// Records a finished call and returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        request: u32,
        parent: u32,
        start: Instant,
        end: Instant,
    ) -> u32 {
        let at = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            request,
            parent,
            start_ns: at(start),
            end_ns: at(end).max(at(start)),
        });
        self.spans.len() as u32
    }

    /// Times `f` as a span and returns its result.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        request: u32,
        parent: u32,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        self.record(name, request, parent, start, Instant::now());
        out
    }

    /// Appends another log's spans, renumbering their ids.
    pub fn absorb(&mut self, other: SpanLog) {
        let offset = self.spans.len() as u32;
        let shift = other
            .origin
            .saturating_duration_since(self.origin)
            .as_nanos() as u64;
        self.spans.extend(other.spans.into_iter().map(|s| Span {
            parent: if s.parent == NO_PARENT {
                NO_PARENT
            } else {
                s.parent + offset
            },
            start_ns: s.start_ns + shift,
            end_ns: s.end_ns + shift,
            ..s
        }));
    }

    /// Number of spans held.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Self time per span name.
    pub fn self_times(&self) -> BTreeMap<&'static str, SelfTime> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                covered[s.parent as usize - 1] += s.dur_ns();
            }
        }
        let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(covered) {
            let entry = out.entry(s.name).or_default();
            entry.calls += 1;
            entry.self_ns += s.dur_ns().saturating_sub(child);
        }
        out
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"request\":{},\"start_ns\":{},\"end_ns\":{}}}",
                i + 1,
                s.parent,
                s.name,
                s.request,
                s.start_ns,
                s.end_ns
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children_and_absorb_renumbers() {
        let origin = Instant::now();
        let t = |us: u64| origin + Duration::from_micros(us);
        let mut a = SpanLog::new(origin);
        let root = a.record("req", 7, NO_PARENT, t(0), t(100));
        a.record("parse", 7, root, t(10), t(30));
        a.record("decide", 7, root, t(30), t(90));
        let mut b = SpanLog::new(origin);
        let root_b = b.record("req", 8, NO_PARENT, t(200), t(260));
        b.record("decide", 8, root_b, t(210), t(250));
        a.absorb(b);
        assert_eq!(a.len(), 5);
        let st = a.self_times();
        assert_eq!(
            st["req"],
            SelfTime {
                calls: 2,
                self_ns: 20_000 + 20_000
            }
        );
        assert_eq!(st["decide"].calls, 2);
        assert!((st["decide"].mean_us() - 50.0).abs() < 1e-9);
        let mut text = Vec::new();
        a.write_jsonl(&mut text).unwrap();
        let text = String::from_utf8(text).unwrap();
        assert_eq!(text.lines().count(), 5);
        assert!(text.lines().nth(4).unwrap().contains("\"parent\":4"));
    }
}
