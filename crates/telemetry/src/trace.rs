//! **fg-trace** — deterministic causal span tracing across the defence
//! pipeline.
//!
//! The paper's operational claim is that functional-abuse defence is an
//! *explainability* problem: an analyst must be able to reconstruct why one
//! session was challenged while a near-identical one was allowed. Flat
//! audit records answer *what* was decided; spans answer *why, in what
//! order, through which stages* — and link each decision back to its
//! session.
//!
//! Everything here is a pure function of simulation state:
//!
//! * **Trace ids** come from [`fg_core::hash::trace_id`] (session id ×
//!   per-run request sequence) — no wall clock, no entropy, so exported
//!   traces are byte-identical across `--jobs`.
//! * **Span times** are sim-time microseconds. Pipeline stages inside one
//!   request are instantaneous in sim-time, so each stage is laid out at a
//!   deterministic 1 µs *logical* offset inside its request span; the
//!   request span widens to cover its children. This is what makes the
//!   Chrome trace-event export render as a properly nested flame in
//!   Perfetto.
//! * **Sampling** ([`Tracer::submit`]) is head+tail and hash-keyed: every
//!   non-`allow` decision is kept, every pinned (sentinel-correlated)
//!   session is kept, and `allow` traces are kept when
//!   `splitmix64(trace_id ^ salt)` falls under a fixed 1/32 rate — a
//!   deterministic per-trace coin.
//!
//! Retention is bounded: when the trace budget fills, sampled `allow`
//! traces evict first (oldest first); important traces (non-allow or
//! pinned) only evict each other. A trace a live exemplar cites
//! ([`Tracer::cite`]) is held past the budget until its exemplar moves
//! on, so every exemplar resolves. Eviction counts are exported in the
//! [`TraceSnapshot`] so a truncated export never masquerades as complete.

use fg_core::rng::splitmix64;
use fg_core::time::SimTime;
use serde::{json, Deserialize, Serialize};
use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;
use std::io;
use std::sync::Arc;

/// Probability of keeping an `allow`-decision trace: 1/32. Exact in binary,
/// so the keep/drop threshold arithmetic has no rounding surprises.
const ALLOW_SAMPLE_RATE: f64 = 0.031_25;

/// Default request-trace retention budget.
pub const DEFAULT_TRACE_CAPACITY: usize = 16_384;

/// Auxiliary-span retention budget (sentinel evaluations, team reviews —
/// spans not tied to one request).
const AUX_CAPACITY: usize = 8_192;

/// Salt folded into the sampling hash so the keep/drop coin is independent
/// of any other use of the trace id.
const SAMPLE_SALT: u64 = 0x5AD5_ABE1_7A1E_D00D;

/// Tracer tuning.
#[derive(Clone, Copy, Debug)]
pub struct TraceConfig {
    /// Maximum retained request traces.
    pub capacity: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            capacity: DEFAULT_TRACE_CAPACITY,
        }
    }
}

/// One exported span: a named interval with structured attributes, causally
/// parented inside its trace.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SpanRecord {
    /// Trace this span belongs to (session-root spans carry their own id).
    pub trace_id: u64,
    /// This span's id, unique within the export.
    pub span_id: u64,
    /// Parent span id; `0` for roots.
    pub parent_id: u64,
    /// Span name, e.g. `request /booking/hold` or `detect.ip-velocity`.
    pub name: String,
    /// The session (client id) the span executed under — the export's
    /// thread lane.
    pub session: u64,
    /// Start, in sim-time microseconds (plus the logical stage offset).
    pub start_us: u64,
    /// Duration in microseconds (logical for instantaneous stages).
    pub dur_us: u64,
    /// Structured attributes (signal scores, reason chains, limiter keys).
    pub attrs: Vec<(String, String)>,
}

/// One span attribute value, kept raw while the request runs and
/// formatted only when a retained trace is exported — the sampler drops
/// most `allow` traces, so their attributes are never formatted at all.
#[derive(Clone, Debug, PartialEq)]
pub enum AttrValue {
    /// Text, exported as is.
    Text(Cow<'static, str>),
    /// An unsigned integer, exported in decimal.
    Int(u64),
    /// A flag, exported as `true` or `false`.
    Bool(bool),
    /// A real number, exported with 3 decimals (`0.420`).
    Float3(f64),
    /// An id, exported as 16 lower-case hex digits.
    Hex16(u64),
}

impl From<&'static str> for AttrValue {
    fn from(text: &'static str) -> Self {
        AttrValue::Text(Cow::Borrowed(text))
    }
}

impl From<String> for AttrValue {
    fn from(text: String) -> Self {
        AttrValue::Text(Cow::Owned(text))
    }
}

impl From<u64> for AttrValue {
    fn from(n: u64) -> Self {
        AttrValue::Int(n)
    }
}

impl From<bool> for AttrValue {
    fn from(flag: bool) -> Self {
        AttrValue::Bool(flag)
    }
}

/// One in-flight request trace, built inside `DecisionCore::decide` and
/// handed to [`Tracer::submit`] with the final decision. Names, keys and
/// labels are `&'static str` and values stay [`AttrValue`]s, so building a
/// trace formats nothing; [`TraceSnapshot::write_json`] and
/// [`TraceSnapshot::write_chrome`] format the traces they export.
#[derive(Clone, Debug)]
pub struct RequestTrace {
    trace_id: u64,
    session: u64,
    endpoint: &'static str,
    at: SimTime,
    decision: &'static str,
    /// `(parent, name)` per stage. Parent `0` is the request root; parent
    /// `i > 0` is `stages[i - 1]`.
    stages: Vec<(usize, &'static str)>,
    /// `(stage, key, value)` in record order; `stage` is the handle
    /// [`RequestTrace::stage`] returned.
    attrs: Vec<(usize, &'static str, AttrValue)>,
    pinned: bool,
}

impl RequestTrace {
    /// Opens a request trace rooted at `at` for the given session.
    pub fn new(trace_id: u64, session: u64, endpoint: &'static str, at: SimTime) -> Self {
        RequestTrace {
            trace_id,
            session,
            endpoint,
            at,
            decision: "",
            // Sized for a full decision path (honeypot check, detection,
            // policy, transport) so building the trace grows neither.
            stages: Vec::with_capacity(8),
            attrs: Vec::with_capacity(16),
            pinned: false,
        }
    }

    /// The trace id this request runs under.
    pub fn trace_id(&self) -> u64 {
        self.trace_id
    }

    /// Forces this trace into the always-keep set regardless of its
    /// decision label — the serving layer pins slow requests and 5xx
    /// responses so every exemplar cited in `/metrics` stays retrievable.
    pub fn pin(&mut self) {
        self.pinned = true;
    }

    /// Appends a pipeline-stage span under the request root; returns a
    /// handle usable as a parent for [`RequestTrace::child`] and for
    /// [`RequestTrace::attr`].
    pub fn stage(&mut self, name: &'static str) -> usize {
        self.stages.push((0, name));
        self.stages.len()
    }

    /// Appends a span nested under the stage `parent` (as returned by
    /// [`RequestTrace::stage`]).
    pub fn child(&mut self, parent: usize, name: &'static str) -> usize {
        debug_assert!(parent >= 1 && parent <= self.stages.len());
        self.stages.push((parent, name));
        self.stages.len()
    }

    /// Attaches one attribute to a stage handle; the value is formatted
    /// only if the trace is exported.
    pub fn attr(&mut self, stage: usize, key: &'static str, value: impl Into<AttrValue>) {
        if (1..=self.stages.len()).contains(&stage) {
            self.attrs.push((stage, key, value.into()));
        }
    }

    /// Stamps the final decision label (`allow`, `challenge`, …). The
    /// sampler's head+tail rule keys off this.
    pub fn finish(&mut self, decision: &'static str) {
        self.decision = decision;
    }

    /// Whether the sampler keeps this trace whatever its coin: it is pinned,
    /// or decided anything but `allow`.
    pub fn is_important(&self) -> bool {
        self.pinned || self.decision != "allow"
    }

    /// The id of span `handle` (0 is the request root); never 0, which
    /// marks "no parent".
    fn span_id(&self, handle: usize) -> u64 {
        match splitmix64(self.trace_id ^ (handle as u64 + 1)) {
            0 => 1,
            id => id,
        }
    }

    /// The numeric fields of span `handle`, 0 being the request root. Each
    /// stage takes one deterministic 1 µs slot in record order and widens
    /// over the slots of the stages nested under it, so Chrome-trace
    /// viewers nest by containment; the root spans every slot.
    fn span_head(&self, handle: usize) -> SpanHead {
        let (parent_id, dur_us) = match handle.checked_sub(1).and_then(|i| self.stages.get(i)) {
            None => (0, self.stages.len() as u64 + 2),
            Some(&(parent, _)) => {
                let last = (handle + 1..=self.stages.len())
                    .rfind(|&d| self.nests_under(d, handle))
                    .unwrap_or(handle);
                (self.span_id(parent), (last - handle) as u64 + 1)
            }
        };
        SpanHead {
            trace_id: self.trace_id,
            span_id: self.span_id(handle),
            parent_id,
            session: self.session,
            // Saturating: `at` is the caller's clock, which may be any u64.
            start_us: self
                .at
                .as_millis()
                .saturating_mul(1_000)
                .saturating_add(handle as u64),
            dur_us,
        }
    }

    /// Whether stage `handle` is nested, at any depth, under stage
    /// `ancestor`.
    fn nests_under(&self, mut handle: usize, ancestor: usize) -> bool {
        while handle > ancestor {
            match self.stages.get(handle - 1) {
                // A parent always precedes its child; checking it keeps a
                // malformed parent from looping.
                Some(&(parent, _)) if parent < handle => handle = parent,
                _ => return false,
            }
        }
        handle == ancestor
    }
}

/// The trace and span id of `session`'s root span in an export.
fn session_root_id(session: u64) -> u64 {
    fg_core::hash::trace_id(session, 0)
}

/// An exported span's numeric fields.
#[derive(Clone, Copy, Debug)]
struct SpanHead {
    trace_id: u64,
    span_id: u64,
    parent_id: u64,
    session: u64,
    start_us: u64,
    dur_us: u64,
}

/// Where an exported span comes from. The writers put a span's name and
/// attributes straight into their output as they write that span, so an
/// export never holds a span formatted.
#[derive(Clone, Copy, Debug)]
enum SpanSource<'a> {
    /// Span `handle` of a retained request trace; handle 0 is the request
    /// root.
    Request(&'a RequestTrace, usize),
    /// The root span of one session's retained requests, over
    /// `[start, end)` µs.
    Session { session: u64, start: u64, end: u64 },
    /// A span from the auxiliary ring.
    Aux(&'a SpanRecord),
}

/// An attribute value as the writers see it.
#[derive(Clone, Copy, Debug)]
enum AttrRef<'a> {
    /// Text, exported as is.
    Text(&'a str),
    /// A request trace's raw value, exported in [`AttrValue`]'s form.
    Raw(&'a AttrValue),
    /// A session root's client, exported as `c<session>`.
    Client(u64),
}

impl<'a> SpanSource<'a> {
    fn head(&self) -> SpanHead {
        match *self {
            SpanSource::Request(trace, handle) => trace.span_head(handle),
            SpanSource::Session {
                session,
                start,
                end,
            } => {
                let id = session_root_id(session);
                SpanHead {
                    trace_id: id,
                    span_id: id,
                    parent_id: 0,
                    session,
                    start_us: start,
                    dur_us: end.saturating_sub(start),
                }
            }
            SpanSource::Aux(span) => SpanHead {
                trace_id: span.trace_id,
                span_id: span.span_id,
                parent_id: span.parent_id,
                session: span.session,
                start_us: span.start_us,
                dur_us: span.dur_us,
            },
        }
    }

    /// Writes the span's name, escaped, without its quotes; a request or
    /// session root writes its name in pieces rather than building it.
    fn put_name(&self, out: &mut impl Sink) -> fmt::Result {
        match *self {
            SpanSource::Request(trace, 0) => {
                out.write_str("request ")?;
                json::escape_to(out, trace.endpoint)
            }
            SpanSource::Request(trace, handle) => {
                let stage = handle.checked_sub(1).and_then(|i| trace.stages.get(i));
                json::escape_to(out, stage.map_or("", |&(_, name)| name))
            }
            SpanSource::Session { session, .. } => {
                out.write_str("session c")?;
                put_u64(out, session)
            }
            SpanSource::Aux(span) => json::escape_to(out, &span.name),
        }
    }

    /// Calls `f` on each attribute, in export order, until it fails.
    fn each_attr(&self, mut f: impl FnMut(&str, AttrRef<'a>) -> fmt::Result) -> fmt::Result {
        match *self {
            SpanSource::Request(trace, 0) => {
                f("endpoint", AttrRef::Text(trace.endpoint))?;
                f("decision", AttrRef::Text(trace.decision))
            }
            SpanSource::Request(trace, handle) => trace
                .attrs
                .iter()
                .filter(|(stage, _, _)| *stage == handle)
                .try_for_each(|(_, key, value)| f(key, AttrRef::Raw(value))),
            SpanSource::Session { session, .. } => f("client", AttrRef::Client(session)),
            SpanSource::Aux(span) => span
                .attrs
                .iter()
                .try_for_each(|(key, value)| f(key, AttrRef::Text(value))),
        }
    }

    /// Writes the span as the JSON `serde_json` writes for its
    /// [`SpanRecord`], without building the record.
    fn put_json(&self, head: &SpanHead, out: &mut impl Sink) -> fmt::Result {
        out.write_str("{\"trace_id\":")?;
        put_u64(out, head.trace_id)?;
        out.write_str(",\"span_id\":")?;
        put_u64(out, head.span_id)?;
        out.write_str(",\"parent_id\":")?;
        put_u64(out, head.parent_id)?;
        out.write_str(",\"name\":\"")?;
        self.put_name(out)?;
        out.write_str("\",\"session\":")?;
        put_u64(out, head.session)?;
        out.write_str(",\"start_us\":")?;
        put_u64(out, head.start_us)?;
        out.write_str(",\"dur_us\":")?;
        put_u64(out, head.dur_us)?;
        out.write_str(",\"attrs\":[")?;
        let mut first = true;
        self.each_attr(|key, value| {
            out.write_str(if first { "[\"" } else { ",[\"" })?;
            first = false;
            json::escape_to(out, key)?;
            out.write_str("\",")?;
            put_attr(out, value)?;
            out.write_char(']')
        })?;
        out.write_str("]}")
    }

    /// Writes the span as one pretty-printed Chrome trace-event object at
    /// the indent of an element of `traceEvents`: a complete (`"ph": "X"`)
    /// event on lane (`tid`) `session`, with the span's ids (`0x` and 16
    /// hex digits) and then its attributes as `args`.
    fn put_chrome(&self, head: &SpanHead, out: &mut impl Sink) -> fmt::Result {
        out.write_str("{\n      \"name\": \"")?;
        self.put_name(out)?;
        out.write_str("\",\n      \"cat\": \"fg\",\n      \"ph\": \"X\",\n      \"ts\": ")?;
        put_u64(out, head.start_us)?;
        out.write_str(",\n      \"dur\": ")?;
        put_u64(out, head.dur_us)?;
        out.write_str(",\n      \"pid\": 1,\n      \"tid\": ")?;
        put_u64(out, head.session)?;
        out.write_str(",\n      \"args\": {\n        \"trace_id\": \"0x")?;
        put_hex16(out, head.trace_id)?;
        out.write_str("\",\n        \"span_id\": \"0x")?;
        put_hex16(out, head.span_id)?;
        out.write_str("\",\n        \"parent_id\": \"0x")?;
        put_hex16(out, head.parent_id)?;
        out.write_char('"')?;
        self.each_attr(|key, value| {
            out.write_str(",\n        \"")?;
            json::escape_to(out, key)?;
            out.write_str("\": ")?;
            put_attr(out, value)
        })?;
        out.write_str("\n      }\n    }")
    }
}

/// Writes `value` as a JSON string in its export form.
fn put_attr(out: &mut impl Sink, value: AttrRef<'_>) -> fmt::Result {
    out.write_char('"')?;
    match value {
        AttrRef::Text(text) => json::escape_to(out, text)?,
        AttrRef::Raw(AttrValue::Text(text)) => json::escape_to(out, text)?,
        AttrRef::Raw(&AttrValue::Int(n)) => put_u64(out, n)?,
        AttrRef::Raw(&AttrValue::Bool(flag)) => {
            out.write_str(if flag { "true" } else { "false" })?
        }
        // The one value still formatted by `fmt`. It writes digits, `-`,
        // `.`, `NaN` or `inf`, none of which needs escaping.
        AttrRef::Raw(AttrValue::Float3(x)) => write!(out, "{x:.3}")?,
        AttrRef::Raw(&AttrValue::Hex16(id)) => put_hex16(out, id)?,
        AttrRef::Client(session) => {
            out.write_char('c')?;
            put_u64(out, session)?;
        }
    }
    out.write_char('"')
}

/// Where the writers put an export. Text arrives through `fmt::Write`;
/// digits arrive as ASCII bytes, which only a `String` has to check.
trait Sink: fmt::Write {
    /// Writes `ascii`, which holds ASCII bytes only.
    fn put_ascii(&mut self, ascii: &[u8]) -> fmt::Result;
}

impl Sink for String {
    fn put_ascii(&mut self, ascii: &[u8]) -> fmt::Result {
        self.push_str(std::str::from_utf8(ascii).map_err(|_| fmt::Error)?);
        Ok(())
    }
}

/// The decimal digits of 0 to 99, two to a number.
const DECIMAL_PAIRS: [[u8; 2]; 100] = {
    let mut pairs = [[0; 2]; 100];
    let mut i = 0;
    while i < 100 {
        pairs[i] = [b'0' + (i / 10) as u8, b'0' + (i % 10) as u8];
        i += 1;
    }
    pairs
};

/// The lower-case hex digits of each byte.
const HEX_PAIRS: [[u8; 2]; 256] = {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let mut pairs = [[0; 2]; 256];
    let mut i = 0;
    while i < 256 {
        pairs[i] = [HEX[i >> 4], HEX[i & 0xf]];
        i += 1;
    }
    pairs
};

/// Writes `n` in decimal, two digits at a time, without `fmt`.
fn put_u64(out: &mut impl Sink, mut n: u64) -> fmt::Result {
    // `u64::MAX` has 20 digits; the pairs fill the array from its end.
    let mut digits = [b'0'; 20];
    let mut first = digits.len();
    for (pair, at) in digits.rchunks_exact_mut(2).zip((0..20).step_by(2).rev()) {
        let (rest, last_two) = (n / 100, n % 100);
        pair.copy_from_slice(DECIMAL_PAIRS.get(last_two as usize).unwrap_or(&[b'0'; 2]));
        n = rest;
        first = at;
        if n == 0 {
            break;
        }
    }
    let text = digits.get(first..).unwrap_or_default();
    // The top pair's tens digit is a zero unless the number has an even
    // count of digits; `0` itself keeps one.
    match text {
        [b'0', rest @ ..] if !rest.is_empty() => out.put_ascii(rest),
        _ => out.put_ascii(text),
    }
}

/// Writes `id` as 16 lower-case hex digits, without `fmt`.
fn put_hex16(out: &mut impl Sink, id: u64) -> fmt::Result {
    let mut digits = [b'0'; 16];
    for (pair, byte) in digits.chunks_exact_mut(2).zip(id.to_be_bytes()) {
        pair.copy_from_slice(HEX_PAIRS.get(usize::from(byte)).unwrap_or(&[b'0'; 2]));
    }
    out.put_ascii(&digits)
}

/// A `fmt::Write` that keeps only the number of bytes written to it: the
/// pass that learns a streamed body's length.
struct ByteCount(u64);

impl fmt::Write for ByteCount {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.put_ascii(s.as_bytes())
    }
}

impl Sink for ByteCount {
    fn put_ascii(&mut self, ascii: &[u8]) -> fmt::Result {
        self.0 = self.0.saturating_add(ascii.len() as u64);
        Ok(())
    }
}

/// How many bytes [`Chunked`] gathers before it hands them on.
const CHUNK: usize = 64 * 1024;

/// A `fmt::Write` over an `io::Write`: it gathers text in one buffer of
/// [`CHUNK`] bytes and hands the buffer to `out` whenever the next piece
/// would overflow it, so an export of any size reaches `out` in a few
/// large writes and is never held whole. (A single piece larger than the
/// buffer grows it.) The first error `out` returns is kept and stops the
/// writer.
struct Chunked<'a, W: io::Write + ?Sized> {
    buf: Vec<u8>,
    out: &'a mut W,
    /// Bytes written through `fmt::Write`; the lead is not counted.
    written: u64,
    error: Option<io::Error>,
}

impl<'a, W: io::Write + ?Sized> Chunked<'a, W> {
    /// A sink whose first bytes to `out` are `lead`.
    fn new(lead: &[u8], out: &'a mut W) -> Self {
        let mut buf = Vec::with_capacity(CHUNK.max(lead.len()));
        buf.extend_from_slice(lead);
        Chunked {
            buf,
            out,
            written: 0,
            error: None,
        }
    }

    /// Hands the buffer to `out` and empties it.
    fn hand_on(&mut self) -> fmt::Result {
        match self.out.write_all(&self.buf) {
            Ok(()) => {
                self.buf.clear();
                Ok(())
            }
            Err(e) => {
                self.error = Some(e);
                Err(fmt::Error)
            }
        }
    }

    /// Hands on what is left once `put`, the writer's result, is in, and
    /// returns the bytes written or what stopped the writer.
    fn finish(mut self, put: fmt::Result) -> io::Result<u64> {
        match put.and_then(|()| self.hand_on()) {
            Ok(()) => Ok(self.written),
            Err(_) => Err(self
                .error
                .take()
                .unwrap_or_else(|| io::Error::other("a trace export value failed to format"))),
        }
    }
}

impl<W: io::Write + ?Sized> fmt::Write for Chunked<'_, W> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.put_ascii(s.as_bytes())
    }
}

impl<W: io::Write + ?Sized> Sink for Chunked<'_, W> {
    // Also takes any UTF-8 text, which `write_str` hands it.
    fn put_ascii(&mut self, bytes: &[u8]) -> fmt::Result {
        if self.buf.len().saturating_add(bytes.len()) > CHUNK {
            self.hand_on()?;
        }
        self.buf.extend_from_slice(bytes);
        self.written = self.written.saturating_add(bytes.len() as u64);
        Ok(())
    }
}

/// One span's place in an export, in 32 bytes. Keys order by their fields
/// in declaration order: `(start_us, trace_id, span_id)`, then `pos`, the
/// span's position among the unsorted sources. No two spans share a
/// position, so an unstable sort gives exactly the order a stable sort by
/// the first three fields gives.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct SpanKey {
    start_us: u64,
    trace_id: u64,
    span_id: u64,
    pos: u64,
}

// Sorting a 4,096-trace ring's 22,000 spans takes about 0.7 MB.
const _: () = assert!(std::mem::size_of::<SpanKey>() <= 32);

/// What a snapshot writes, in export order: the retained ids ascending
/// and one key per span. The sources are numbered in the order each
/// retained trace's spans (root first, in snapshot order), then one root
/// per session (by session id), then the auxiliary spans; a key's `pos`
/// finds its source again.
#[derive(Debug)]
struct ExportOrder {
    retained: Vec<u64>,
    /// The position of each trace's root span, ascending.
    first_pos: Vec<u64>,
    /// The number of request and stage spans: the first session root's
    /// position.
    request_spans: u64,
    /// `(session, start, end)` per session root: the session brackets its
    /// retained requests from the first one's start to the last one's end.
    sessions: Vec<(u64, u64, u64)>,
    keys: Vec<SpanKey>,
}

impl ExportOrder {
    /// Orders what `snapshot` writes: every span, or with its `only`, the
    /// spans of that trace.
    fn of(snapshot: &TraceSnapshot) -> Self {
        let mut retained = snapshot.retained_ids.clone();
        retained.sort_unstable();
        retained.dedup();
        let mut sessions: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
        let mut first_pos = Vec::with_capacity(snapshot.traces.len());
        let mut request_spans = 0u64;
        for trace in &snapshot.traces {
            first_pos.push(request_spans);
            let spans = trace.stages.len() as u64;
            request_spans = request_spans.saturating_add(spans).saturating_add(1);
            let root = trace.span_head(0);
            let (start, end) = (root.start_us, root.start_us.saturating_add(root.dur_us));
            sessions
                .entry(trace.session)
                .and_modify(|(s, e)| {
                    *s = (*s).min(start);
                    *e = (*e).max(end);
                })
                .or_insert((start, end));
        }
        let sessions: Vec<(u64, u64, u64)> = sessions
            .into_iter()
            .map(|(session, (start, end))| (session, start, end))
            .collect();
        let sources = snapshot
            .traces
            .iter()
            .flat_map(|trace| {
                (0..=trace.stages.len()).map(move |handle| SpanSource::Request(trace, handle))
            })
            .chain(
                sessions
                    .iter()
                    .map(|&(session, start, end)| SpanSource::Session {
                        session,
                        start,
                        end,
                    }),
            )
            .chain(snapshot.aux.iter().map(|span| SpanSource::Aux(span)));
        // Every span is kept without `only`, so size for all of them.
        let mut keys = Vec::with_capacity(match snapshot.only {
            None => usize::try_from(request_spans)
                .unwrap_or(0)
                .saturating_add(sessions.len())
                .saturating_add(snapshot.aux.len()),
            Some(_) => 0,
        });
        keys.extend(sources.zip(0u64..).filter_map(|(source, pos)| {
            let head = source.head();
            snapshot
                .only
                .is_none_or(|id| head.trace_id == id)
                .then_some(SpanKey {
                    start_us: head.start_us,
                    trace_id: head.trace_id,
                    span_id: head.span_id,
                    pos,
                })
        }));
        keys.sort_unstable();
        ExportOrder {
            retained,
            first_pos,
            request_spans,
            sessions,
            keys,
        }
    }

    /// The source numbered `pos`.
    fn source_at<'s>(&self, snapshot: &'s TraceSnapshot, pos: u64) -> Option<SpanSource<'s>> {
        let Some(rest) = pos.checked_sub(self.request_spans) else {
            // The last trace whose root is at or before `pos`.
            let i = self
                .first_pos
                .partition_point(|&first| first <= pos)
                .checked_sub(1)?;
            let handle = pos.checked_sub(*self.first_pos.get(i)?)?;
            let trace = snapshot.traces.get(i)?;
            return Some(SpanSource::Request(trace, usize::try_from(handle).ok()?));
        };
        let rest = usize::try_from(rest).ok()?;
        match self.sessions.get(rest) {
            Some(&(session, start, end)) => Some(SpanSource::Session {
                session,
                start,
                end,
            }),
            None => {
                let span = snapshot.aux.get(rest.checked_sub(self.sessions.len())?)?;
                Some(SpanSource::Aux(span))
            }
        }
    }

    /// The spans in export order, each with its numeric fields.
    fn in_order<'s>(
        &'s self,
        snapshot: &'s TraceSnapshot,
    ) -> impl Iterator<Item = (SpanHead, SpanSource<'s>)> + 's {
        self.keys
            .iter()
            .filter_map(move |key| self.source_at(snapshot, key.pos))
            .map(|source| (source.head(), source))
    }
}

/// A point-in-time export of the tracer, taken by [`Tracer::snapshot`]: the
/// sampling and retention accounting, the retained request trace ids, and
/// shared handles to the traces and auxiliary spans it writes. Traces the
/// tracer evicts later stay alive until the snapshot is dropped. Each
/// writer sorts 32-byte keys for the spans and writes one span at a time
/// through direct integer, hex and escaping primitives, so writing needs
/// little memory beyond the output, and [`TraceSnapshot::into_json_body`]
/// streams the JSON without holding it.
#[derive(Clone, Debug)]
pub struct TraceSnapshot {
    /// Request traces submitted to the sampler.
    pub submitted: u64,
    /// Traces the sampler kept (before any capacity eviction).
    pub kept: u64,
    /// `allow` traces dropped by the sampling coin.
    pub sampled_out: u64,
    /// Kept traces later evicted by the retention budget (a cited trace
    /// counts once its exemplar has released it).
    pub evicted: u64,
    /// Auxiliary spans dropped by their retention budget.
    pub aux_dropped: u64,
    only: Option<u64>,
    retained_ids: Vec<u64>,
    traces: Vec<Arc<RequestTrace>>,
    aux: Vec<Arc<SpanRecord>>,
}

impl TraceSnapshot {
    /// The request trace ids retained when the snapshot was taken (what
    /// audit records and incident exemplars refer to).
    pub fn request_trace_ids(&self) -> BTreeSet<u64> {
        self.retained_ids.iter().copied().collect()
    }

    /// Appends the snapshot to `out` as one JSON object (the
    /// `/debug/traces` body): `submitted`, `kept`, `sampled_out` and
    /// `evicted`, `retained` (the retained request trace ids as 16 hex
    /// digits, ascending) and `spans` (sorted by `(start_us, trace_id,
    /// span_id)`, then by source), each serialised as its [`SpanRecord`].
    pub fn write_json(&self, out: &mut String) {
        // Writing to a `String` cannot fail.
        let _ = self.put_json(&ExportOrder::of(self), out);
    }

    /// The [`TraceSnapshot::write_json`] body, ready to stream: the spans
    /// are sorted once here, and a first pass of the same writer over a
    /// byte counter measures the body, so a reply can declare its exact
    /// length before the body is written.
    pub fn into_json_body(self) -> JsonBody {
        let order = ExportOrder::of(&self);
        let mut count = ByteCount(0);
        // Counting cannot fail.
        let _ = self.put_json(&order, &mut count);
        JsonBody {
            len: count.0,
            order,
            snapshot: self,
        }
    }

    fn put_json(&self, order: &ExportOrder, out: &mut impl Sink) -> fmt::Result {
        write!(
            out,
            "{{\"submitted\":{},\"kept\":{},\"sampled_out\":{},\"evicted\":{},\"retained\":[",
            self.submitted, self.kept, self.sampled_out, self.evicted
        )?;
        for (i, &id) in order.retained.iter().enumerate() {
            out.write_str(if i > 0 { ",\"" } else { "\"" })?;
            put_hex16(out, id)?;
            out.write_char('"')?;
        }
        out.write_str("],\"spans\":[")?;
        for (i, (head, source)) in order.in_order(self).enumerate() {
            if i > 0 {
                out.write_char(',')?;
            }
            source.put_json(&head, out)?;
        }
        out.write_str("]}")
    }

    /// Writes the snapshot to `out` as a pretty-printed Chrome
    /// trace-event / Perfetto-loadable JSON object (the
    /// `results/<name>.traces.json` artifact): `traceEvents` holds one
    /// complete event per span, lanes (`tid`) are session ids, and
    /// `otherData` carries the run's provenance (`experiment`, `seed`) and
    /// the sampling accounting. The spans are written through one 64 KB
    /// buffer that is handed to `out` each time it fills, so the artifact
    /// is never held in memory at once.
    pub fn write_chrome(
        &self,
        experiment: &str,
        seed: u64,
        out: &mut impl io::Write,
    ) -> io::Result<()> {
        let mut sink = Chunked::new(&[], out);
        let put = self.put_chrome(&ExportOrder::of(self), experiment, seed, &mut sink);
        sink.finish(put).map(drop)
    }

    fn put_chrome(
        &self,
        order: &ExportOrder,
        experiment: &str,
        seed: u64,
        out: &mut impl Sink,
    ) -> fmt::Result {
        out.write_str("{\n  \"traceEvents\": [")?;
        let mut any = false;
        for (head, source) in order.in_order(self) {
            out.write_str(if any { ",\n    " } else { "\n    " })?;
            any = true;
            source.put_chrome(&head, out)?;
        }
        if any {
            out.write_str("\n  ")?;
        }
        out.write_str(
            "],\n  \"displayTimeUnit\": \"ms\",\n  \"otherData\": {\n    \"experiment\": \"",
        )?;
        json::escape_to(out, experiment)?;
        write!(
            out,
            "\",\n    \"seed\": {seed},\n    \"sampling\": {{\n      \"submitted\": {},\
             \n      \"kept\": {},\n      \"sampled_out\": {},\n      \"evicted\": {},\
             \n      \"aux_dropped\": {}\n    }}\n  }}\n}}",
            self.submitted, self.kept, self.sampled_out, self.evicted, self.aux_dropped
        )
    }
}

/// A [`TraceSnapshot`]'s `/debug/traces` body, ready to stream: taken by
/// [`TraceSnapshot::into_json_body`], which sorts the spans and counts the
/// bytes once. A reply declares [`JsonBody::byte_len`] as its length and
/// sends the body with [`JsonBody::write_after`]; the same writer produces
/// both, so the count is exact.
#[derive(Debug)]
pub struct JsonBody {
    snapshot: TraceSnapshot,
    order: ExportOrder,
    len: u64,
}

impl JsonBody {
    /// The number of bytes [`JsonBody::write_after`] writes after its lead.
    pub fn byte_len(&self) -> u64 {
        self.len
    }

    /// Writes `lead` (a reply's head), then the body, to `out`, through
    /// one 64 KB buffer that is handed to `out` each time it fills, so a
    /// body under the buffer's size goes out with its lead in one write.
    /// Returns the number of body bytes written.
    pub fn write_after(&self, lead: &[u8], out: &mut dyn io::Write) -> io::Result<u64> {
        let mut sink = Chunked::new(lead, out);
        let put = self.snapshot.put_json(&self.order, &mut sink);
        sink.finish(put)
    }
}

/// The deterministic span tracer: head+tail sampling over submitted request
/// traces plus an auxiliary span ring, all bounded.
#[derive(Debug, Default)]
pub struct Tracer {
    config: Option<TraceConfig>,
    pinned: BTreeSet<u64>,
    // Retained traces and spans are shared, so an export can take them out
    // of the tracer's lock and format them after releasing it.
    /// Sampled `allow` traces — the first to evict under pressure.
    kept_sampled: VecDeque<Arc<RequestTrace>>,
    /// Non-allow or pinned-session traces — evicted only among themselves.
    kept_important: VecDeque<Arc<RequestTrace>>,
    /// Trace ids an exemplar currently cites.
    cited: BTreeSet<u64>,
    /// Cited traces the retention budget has already evicted, kept until
    /// [`Tracer::cite`] releases them.
    held: BTreeMap<u64, Arc<RequestTrace>>,
    aux: VecDeque<Arc<SpanRecord>>,
    submitted: u64,
    sampled_out: u64,
    evicted: u64,
    aux_dropped: u64,
}

impl Tracer {
    /// Creates a disabled tracer ([`Tracer::submit`] drops everything until
    /// [`Tracer::enable`]).
    pub fn new() -> Self {
        Tracer::default()
    }

    /// Turns tracing on with the given config.
    pub fn enable(&mut self, config: TraceConfig) {
        self.config = Some(config);
    }

    /// Marks a session as sentinel-correlated: its traces bypass the
    /// sampling coin (tail-kept) so incident exemplars always resolve.
    pub fn pin_session(&mut self, session: u64) {
        self.pinned.insert(session);
    }

    /// The deterministic keep/drop coin for an `allow` trace.
    fn sample_keeps(trace_id: u64) -> bool {
        let threshold = (ALLOW_SAMPLE_RATE * u64::MAX as f64) as u64;
        splitmix64(trace_id ^ SAMPLE_SALT) <= threshold
    }

    /// Submits a finished request trace. It is kept when it is important
    /// ([`RequestTrace::is_important`]) or its session is pinned, and
    /// otherwise at a hash-keyed rate of 1/32.
    pub fn submit(&mut self, trace: RequestTrace) {
        let Some(config) = self.config else {
            return;
        };
        self.submitted += 1;
        let important = trace.is_important() || self.pinned.contains(&trace.session);
        if !important && !Self::sample_keeps(trace.trace_id) {
            self.sampled_out += 1;
            return;
        }
        let trace = Arc::new(trace);
        if important {
            self.kept_important.push_back(trace);
        } else {
            self.kept_sampled.push_back(trace);
        }
        while self.kept_sampled.len() + self.kept_important.len() > config.capacity {
            // Sampled allows evict first; important traces only evict each
            // other once no sampled trace remains.
            let oldest = self
                .kept_sampled
                .pop_front()
                .or_else(|| self.kept_important.pop_front());
            match oldest {
                Some(trace) if self.cited.contains(&trace.trace_id) => {
                    self.held.insert(trace.trace_id, trace);
                }
                _ => self.evicted += 1,
            }
        }
    }

    /// Records that an exemplar slot now cites `trace_id` in place of
    /// `displaced` (0 when the slot was empty). The retention budget holds
    /// a cited trace back instead of evicting it; the displaced trace is
    /// released, and if the budget had already reached it, it is dropped
    /// now and counted in `evicted`.
    pub fn cite(&mut self, trace_id: u64, displaced: u64) {
        if displaced == trace_id {
            return;
        }
        self.cited.remove(&displaced);
        if self.held.remove(&displaced).is_some() {
            self.evicted += 1;
        }
        if trace_id != 0 {
            self.cited.insert(trace_id);
        }
    }

    /// Records a span not tied to one request (sentinel rule evaluation,
    /// team review). Bounded at 8,192, oldest dropped first.
    pub fn record_aux(&mut self, span: SpanRecord) {
        if self.config.is_none() {
            return;
        }
        if self.aux.len() == AUX_CAPACITY {
            self.aux.pop_front();
            self.aux_dropped += 1;
        }
        self.aux.push_back(Arc::new(span));
    }

    /// Every retained request trace: the budgeted rings plus held cited
    /// traces.
    fn retained(&self) -> impl Iterator<Item = &Arc<RequestTrace>> + Clone {
        self.kept_important
            .iter()
            .chain(self.kept_sampled.iter())
            .chain(self.held.values())
    }

    /// Trace ids currently retained (what incident exemplars may cite).
    pub fn retained_ids(&self) -> BTreeSet<u64> {
        self.retained().map(|t| t.trace_id).collect()
    }

    /// Traces the sampler kept: those retained plus those evicted since.
    fn kept(&self) -> u64 {
        (self.kept_important.len() + self.kept_sampled.len() + self.held.len()) as u64
            + self.evicted
    }

    /// Takes what [`TraceSnapshot`] writes: the counters, the retained
    /// trace ids, and shared handles to the retained traces and auxiliary
    /// spans (with `only`, just those that can carry a span of that trace
    /// id). It formats and deep-copies nothing, so a caller holding the
    /// tracer's lock can release it before writing, which takes far longer.
    pub fn snapshot(&self, only: Option<u64>) -> TraceSnapshot {
        let wanted = |id: u64| only.is_none_or(|o| o == id);
        TraceSnapshot {
            submitted: self.submitted,
            kept: self.kept(),
            sampled_out: self.sampled_out,
            evicted: self.evicted,
            aux_dropped: self.aux_dropped,
            only,
            retained_ids: self.retained().map(|t| t.trace_id).collect(),
            // A session root's bounds come from every trace of its session.
            traces: self
                .retained()
                .filter(|t| wanted(t.trace_id) || wanted(session_root_id(t.session)))
                .cloned()
                .collect(),
            aux: self
                .aux
                .iter()
                .filter(|s| wanted(s.trace_id))
                .cloned()
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    fn trace(session: u64, seq: u64, decision: &'static str) -> RequestTrace {
        let mut t = RequestTrace::new(
            fg_core::hash::trace_id(session, seq),
            session,
            "/booking/hold",
            SimTime::from_secs(seq),
        );
        let assess = t.stage("detect.assess");
        t.attr(assess, "score", "0.42");
        let sig = t.child(assess, "detect.ip-velocity");
        t.attr(sig, "weight", "0.16");
        let policy = t.stage("policy.decide");
        t.attr(policy, "reasons", "score-challenge:triggered");
        t.finish(decision);
        t
    }

    fn enabled() -> Tracer {
        let mut tr = Tracer::new();
        tr.enable(TraceConfig::default());
        tr
    }

    /// The first sequence number from `from` on at which the sampling coin
    /// keeps (or drops) `session`'s `allow` trace.
    fn coin_seq(session: u64, from: u64, keeps: bool) -> u64 {
        (from..)
            .find(|&seq| Tracer::sample_keeps(fg_core::hash::trace_id(session, seq)) == keeps)
            .expect("the coin lands both ways")
    }

    impl SpanSource<'_> {
        /// The oracle for the writers: the span with its name and
        /// attributes formatted by `fmt` into an owned record.
        fn record(&self, head: &SpanHead) -> SpanRecord {
            let name = match *self {
                SpanSource::Request(trace, 0) => format!("request {}", trace.endpoint),
                SpanSource::Request(trace, handle) => trace.stages[handle - 1].1.to_owned(),
                SpanSource::Session { session, .. } => format!("session c{session}"),
                SpanSource::Aux(span) => span.name.clone(),
            };
            let mut attrs = Vec::new();
            self.each_attr(|key, value| {
                attrs.push((key.to_owned(), value.to_string()));
                Ok(())
            })
            .expect("collecting cannot fail");
            SpanRecord {
                trace_id: head.trace_id,
                span_id: head.span_id,
                parent_id: head.parent_id,
                name,
                session: head.session,
                start_us: head.start_us,
                dur_us: head.dur_us,
                attrs,
            }
        }
    }

    /// The oracle's form of each value, formatted by `fmt`.
    impl fmt::Display for AttrRef<'_> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match *self {
                AttrRef::Text(text) => f.write_str(text),
                AttrRef::Raw(AttrValue::Text(text)) => f.write_str(text),
                AttrRef::Raw(AttrValue::Int(n)) => write!(f, "{n}"),
                AttrRef::Raw(AttrValue::Bool(flag)) => write!(f, "{flag}"),
                AttrRef::Raw(AttrValue::Float3(x)) => write!(f, "{x:.3}"),
                AttrRef::Raw(AttrValue::Hex16(id)) => write!(f, "{id:016x}"),
                AttrRef::Client(session) => write!(f, "c{session}"),
            }
        }
    }

    impl TraceSnapshot {
        /// The oracle for the export order: every span the snapshot
        /// writes, enumerated request spans first, then one root per
        /// session, then the auxiliary spans, and stable-sorted by
        /// `(start_us, trace_id, span_id)`; with `only`, just that trace's.
        fn spans(&self) -> Vec<(SpanHead, SpanSource<'_>)> {
            let mut sessions: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
            for trace in &self.traces {
                let root = trace.span_head(0);
                let end = root.start_us.saturating_add(root.dur_us);
                let bounds = sessions
                    .entry(trace.session)
                    .or_insert((root.start_us, end));
                *bounds = (bounds.0.min(root.start_us), bounds.1.max(end));
            }
            let mut spans: Vec<(SpanHead, SpanSource<'_>)> =
                self.traces
                    .iter()
                    .flat_map(|t| (0..=t.stages.len()).map(move |h| SpanSource::Request(t, h)))
                    .chain(sessions.into_iter().map(|(session, (start, end))| {
                        SpanSource::Session {
                            session,
                            start,
                            end,
                        }
                    }))
                    .chain(self.aux.iter().map(|s| SpanSource::Aux(s)))
                    .map(|source| (source.head(), source))
                    .collect();
            spans.sort_by_key(|(head, _)| (head.start_us, head.trace_id, head.span_id));
            spans.retain(|(head, _)| self.only.is_none_or(|id| head.trace_id == id));
            spans
        }
    }

    /// One request trace's spans, root first, as the export formats them.
    fn spans_of(t: &RequestTrace) -> Vec<SpanRecord> {
        (0..=t.stages.len())
            .map(|handle| {
                let source = SpanSource::Request(t, handle);
                source.record(&source.head())
            })
            .collect()
    }

    /// The spans `snap.write_json` writes, read back.
    fn written_spans(snap: &TraceSnapshot) -> Vec<SpanRecord> {
        let mut body = String::new();
        snap.write_json(&mut body);
        let body: Value = serde_json::from_str(&body).expect("written JSON parses");
        serde_json::from_value(body.get("spans").cloned().expect("spans present"))
            .expect("span records")
    }

    /// What [`TraceSnapshot::write_chrome`] writes, as a string.
    fn chrome(snapshot: &TraceSnapshot, experiment: &str, seed: u64) -> String {
        let mut out = Vec::new();
        snapshot
            .write_chrome(experiment, seed, &mut out)
            .expect("a Vec takes every write");
        String::from_utf8(out).expect("the Chrome artifact is UTF-8")
    }

    #[test]
    fn disabled_tracer_drops_everything() {
        let mut tr = Tracer::new();
        tr.submit(trace(1, 1, "block"));
        let snap = tr.snapshot(None);
        assert_eq!(snap.submitted, 0);
        assert!(written_spans(&snap).is_empty());
    }

    #[test]
    fn non_allow_is_always_kept_and_allows_are_sampled() {
        let mut tr = enabled();
        let dropped = coin_seq(1, 1, false);
        let kept = coin_seq(1, dropped + 3, true);
        tr.submit(trace(1, dropped, "allow"));
        tr.submit(trace(1, dropped + 1, "challenge"));
        tr.submit(trace(1, dropped + 2, "block"));
        tr.submit(trace(1, kept, "allow"));
        let snap = tr.snapshot(None);
        assert_eq!(snap.submitted, 4);
        assert_eq!(snap.sampled_out, 1);
        let ids = snap.request_trace_ids();
        assert_eq!(ids.len(), 3);
        assert!(!ids.contains(&fg_core::hash::trace_id(1, dropped)));
    }

    #[test]
    fn pinned_sessions_bypass_the_sampling_coin() {
        let mut tr = enabled();
        tr.pin_session(7);
        let (pinned, other) = (coin_seq(7, 1, false), coin_seq(8, 1, false));
        tr.submit(trace(7, pinned, "allow"));
        tr.submit(trace(8, other, "allow"));
        assert_eq!(
            tr.snapshot(None).request_trace_ids(),
            BTreeSet::from([fg_core::hash::trace_id(7, pinned)])
        );
    }

    #[test]
    fn pinned_traces_bypass_the_sampling_coin() {
        let mut tr = enabled();
        let slow = coin_seq(9, 1, false);
        let mut slow_allow = trace(9, slow, "allow");
        slow_allow.pin();
        tr.submit(slow_allow);
        tr.submit(trace(9, coin_seq(9, slow + 1, false), "allow"));
        assert_eq!(
            tr.snapshot(None).request_trace_ids(),
            BTreeSet::from([fg_core::hash::trace_id(9, slow)])
        );
    }

    #[test]
    fn sampling_coin_is_deterministic() {
        for seq in 0..1_000u64 {
            let id = fg_core::hash::trace_id(3, seq);
            assert_eq!(Tracer::sample_keeps(id), Tracer::sample_keeps(id));
        }
        let kept = (0..10_000u64)
            .filter(|&seq| Tracer::sample_keeps(fg_core::hash::trace_id(3, seq)))
            .count();
        // 1/32 of 10 000 ≈ 312; allow generous slack for hash variance.
        assert!((150..600).contains(&kept), "kept {kept} of 10000");
    }

    #[test]
    fn capacity_evicts_sampled_allows_before_important_traces() {
        let mut tr = Tracer::new();
        tr.enable(TraceConfig { capacity: 4 });
        let first = coin_seq(1, 1, true);
        let second = coin_seq(1, first + 1, true);
        tr.submit(trace(1, first, "allow"));
        tr.submit(trace(1, second, "allow"));
        let blocks = [second + 1, second + 2, second + 3];
        for seq in blocks {
            tr.submit(trace(1, seq, "block"));
        }
        let snap = tr.snapshot(None);
        assert_eq!(snap.evicted, 1);
        let ids = snap.request_trace_ids();
        for seq in [second].into_iter().chain(blocks) {
            assert!(
                ids.contains(&fg_core::hash::trace_id(1, seq)),
                "sequence {seq} retained"
            );
        }
        assert!(
            !ids.contains(&fg_core::hash::trace_id(1, first)),
            "oldest allow evicted"
        );
    }

    #[test]
    fn cited_traces_outlive_eviction_until_displaced() {
        let mut tr = Tracer::new();
        tr.enable(TraceConfig { capacity: 2 });
        let cited = fg_core::hash::trace_id(1, 1);
        tr.cite(cited, 0);
        for seq in 1..=5 {
            tr.submit(trace(1, seq, "block"));
        }
        // Held past 4 later submissions, and not counted as evicted yet.
        let snap = tr.snapshot(None);
        assert!(snap.request_trace_ids().contains(&cited));
        let retained = snap.request_trace_ids().len();
        assert_eq!((retained, snap.kept, snap.evicted), (3, 5, 2));

        // Displaced: released, and counted as evicted exactly once.
        let next = fg_core::hash::trace_id(1, 5);
        tr.cite(next, cited);
        tr.cite(0, cited);
        for seq in 6..=7 {
            tr.submit(trace(1, seq, "block"));
        }
        let snap = tr.snapshot(None);
        assert!(!snap.request_trace_ids().contains(&cited));
        assert!(snap.request_trace_ids().contains(&next), "held in turn");
        assert_eq!((snap.kept, snap.evicted), (7, 4));
    }

    #[test]
    fn spans_nest_inside_the_request_root() {
        let spans = spans_of(&trace(9, 1, "challenge"));
        assert_eq!(spans.len(), 4, "root + assess + signal + policy");
        let root = &spans[0];
        assert!(root.name.starts_with("request "));
        assert_eq!(root.parent_id, 0);
        for child in &spans[1..] {
            assert!(child.start_us >= root.start_us);
            assert!(child.start_us + child.dur_us <= root.start_us + root.dur_us);
        }
        // The signal span parents into detect.assess, which widens over it.
        let assess = spans.iter().find(|s| s.name == "detect.assess").unwrap();
        let signal = spans
            .iter()
            .find(|s| s.name == "detect.ip-velocity")
            .unwrap();
        assert_eq!(signal.parent_id, assess.span_id);
        assert!(signal.start_us + signal.dur_us <= assess.start_us + assess.dur_us);
    }

    #[test]
    fn raw_attributes_are_formatted_at_export() {
        let mut t = RequestTrace::new(
            fg_core::hash::trace_id(6, 1),
            6,
            "/booking/hold",
            SimTime::from_secs(1),
        );
        let span = t.stage("serve.http");
        t.attr(span, "endpoint", "decide");
        t.attr(span, "wire.trace_id", String::from("4bf92f3577b34da6"));
        t.attr(span, "status", 200u64);
        t.attr(span, "slow", false);
        t.attr(span, "score", AttrValue::Float3(1.0 / 3.0));
        t.attr(
            span,
            "wire.parent_id",
            AttrValue::Hex16(0x00f0_67aa_0ba9_02b7),
        );
        t.attr(span + 1, "dropped", "no such stage");
        t.finish("rate-limited");
        let spans = spans_of(&t);
        let owned = |pairs: &[(&str, &str)]| -> Vec<(String, String)> {
            pairs
                .iter()
                .map(|(k, v)| ((*k).to_owned(), (*v).to_owned()))
                .collect()
        };
        assert_eq!(spans[0].name, "request /booking/hold");
        assert_eq!(
            spans[0].attrs,
            owned(&[("endpoint", "/booking/hold"), ("decision", "rate-limited")])
        );
        assert_eq!(spans[1].name, "serve.http");
        assert_eq!(
            spans[1].attrs,
            owned(&[
                ("endpoint", "decide"),
                ("wire.trace_id", "4bf92f3577b34da6"),
                ("status", "200"),
                ("slow", "false"),
                ("score", "0.333"),
                ("wire.parent_id", "00f067aa0ba902b7"),
            ])
        );
    }

    #[test]
    fn snapshot_emits_session_roots_and_sorts_deterministically() {
        let mut tr = enabled();
        tr.submit(trace(2, 2, "block"));
        tr.submit(trace(2, 1, "block"));
        tr.submit(trace(5, 1, "challenge"));
        let snap = tr.snapshot(None);
        let spans = written_spans(&snap);
        let roots: Vec<&SpanRecord> = spans
            .iter()
            .filter(|s| s.name.starts_with("session "))
            .collect();
        assert_eq!(roots.len(), 2);
        let c2 = roots.iter().find(|s| s.session == 2).unwrap();
        // The session root brackets both of c2's requests.
        assert_eq!(c2.start_us, SimTime::from_secs(1).as_millis() * 1_000);
        let sorted: Vec<u64> = spans.iter().map(|s| s.start_us).collect();
        let mut expected = sorted.clone();
        expected.sort_unstable();
        assert_eq!(sorted, expected, "spans sorted by start time");
        let (mut first, mut again) = (String::new(), String::new());
        snap.write_json(&mut first);
        tr.snapshot(None).write_json(&mut again);
        assert_eq!(first, again, "a snapshot is a pure read");
    }

    #[test]
    fn far_future_request_clocks_export_without_overflow() {
        let mut tr = enabled();
        let mut t = RequestTrace::new(5, 1, "/search", SimTime::from_millis(u64::MAX));
        t.stage("detect.assess");
        t.finish("block");
        tr.submit(t);
        let spans = written_spans(&tr.snapshot(None));
        assert_eq!(spans.len(), 3, "request, stage and session root");
        assert!(spans.iter().all(|s| s.start_us == u64::MAX));
    }

    #[test]
    fn stages_widen_over_every_nested_stage() {
        // Stage trees with deep nesting, a parent that regains a child
        // after a sibling stage, and flat stages.
        let shapes: [&[usize]; 5] = [
            &[],
            &[0, 0, 0],
            &[0, 1, 2, 0, 4],
            &[0, 1, 0, 1, 3, 2],
            &[0, 1, 1, 3, 0, 5, 1],
        ];
        for parents in shapes {
            let mut t = RequestTrace::new(7, 7, "/search", SimTime::from_secs(2));
            for &parent in parents {
                if parent == 0 {
                    t.stage("s");
                } else {
                    t.child(parent, "c");
                }
            }
            // Reference: one reverse pass, each child extending its
            // parent's end to its own (already widened) end.
            let mut end: Vec<u64> = (0..=parents.len() as u64).map(|h| h + 1).collect();
            end[0] = parents.len() as u64 + 2;
            for (i, &parent) in parents.iter().enumerate().rev() {
                if parent > 0 {
                    end[parent] = end[parent].max(end[i + 1]);
                }
            }
            let t0 = SimTime::from_secs(2).as_millis() * 1_000;
            for (handle, span) in spans_of(&t).iter().enumerate() {
                assert_eq!(
                    span.start_us,
                    t0 + handle as u64,
                    "{parents:?} start {handle}"
                );
                assert_eq!(
                    span.start_us + span.dur_us,
                    t0 + end[handle],
                    "{parents:?} end {handle}"
                );
            }
        }
    }

    #[test]
    fn written_json_equals_the_serialised_snapshot() {
        let mut tr = Tracer::new();
        tr.enable(TraceConfig { capacity: 3 });
        let cited = fg_core::hash::trace_id(4, 1);
        tr.cite(cited, 0);
        tr.pin_session(5);
        let sampled = coin_seq(2, 1, true);
        for (session, seq, decision) in [(4, 1, "block"), (2, sampled, "allow"), (5, 3, "allow")] {
            tr.submit(trace(session, seq, decision));
        }
        // Same millisecond as session 4's cited request, so their spans
        // interleave; attribute text that needs escaping.
        let mut odd = RequestTrace::new(
            fg_core::hash::trace_id(3, 1),
            3,
            "/booking/hold",
            SimTime::from_secs(1),
        );
        let stage = odd.stage("serve.http");
        odd.attr(
            stage,
            "quote",
            String::from("a \"b\" \\ c\n\t\r\u{8}\u{c}\u{1} é ✓"),
        );
        odd.attr(stage, "score", AttrValue::Float3(0.5));
        odd.finish("challenge");
        tr.submit(odd);
        tr.submit(trace(6, 2, "block"));
        tr.record_aux(SpanRecord {
            trace_id: fg_core::hash::trace_id(u64::MAX, 1),
            span_id: 1,
            parent_id: 0,
            name: "sentinel.evaluate".to_owned(),
            session: 0,
            start_us: 1_000_000,
            dur_us: 1,
            attrs: vec![("k\"".to_owned(), "v\u{7f}".to_owned())],
        });

        let snap = tr.snapshot(None);
        assert_eq!(snap.evicted, 1, "one trace evicted, the cited one held");
        let records: Vec<SpanRecord> = snap
            .spans()
            .iter()
            .map(|(head, source)| source.record(head))
            .collect();
        let serialised = |spans: &[SpanRecord]| {
            let retained = snap
                .request_trace_ids()
                .iter()
                .map(|id| Value::String(format!("{id:016x}")))
                .collect();
            serde_json::to_string(&Value::Object(vec![
                ("submitted".to_owned(), Value::UInt(snap.submitted)),
                ("kept".to_owned(), Value::UInt(snap.kept)),
                ("sampled_out".to_owned(), Value::UInt(snap.sampled_out)),
                ("evicted".to_owned(), Value::UInt(snap.evicted)),
                ("retained".to_owned(), Value::Array(retained)),
                ("spans".to_owned(), serde_json::to_value(&spans).unwrap()),
            ]))
            .unwrap()
        };
        for only in [
            None,
            Some(cited),
            Some(fg_core::hash::trace_id(3, 1)),
            Some(1),
        ] {
            let expected: Vec<SpanRecord> = records
                .iter()
                .filter(|s| only.is_none_or(|id| s.trace_id == id))
                .cloned()
                .collect();
            let filtered = tr.snapshot(only);
            assert_eq!(written_spans(&filtered), expected, "only {only:?}");
            let mut written = String::new();
            filtered.write_json(&mut written);
            assert_eq!(written, serialised(&expected), "only {only:?}");
        }
    }

    /// The `/debug/traces` body the oracle serialises for `snap`: serde's
    /// form of its counters, retained ids and span records.
    fn serialised_body(snap: &TraceSnapshot) -> String {
        let spans: Vec<SpanRecord> = snap
            .spans()
            .iter()
            .map(|(head, source)| source.record(head))
            .collect();
        let retained = snap
            .request_trace_ids()
            .iter()
            .map(|id| Value::String(format!("{id:016x}")))
            .collect();
        serde_json::to_string(&Value::Object(vec![
            ("submitted".to_owned(), Value::UInt(snap.submitted)),
            ("kept".to_owned(), Value::UInt(snap.kept)),
            ("sampled_out".to_owned(), Value::UInt(snap.sampled_out)),
            ("evicted".to_owned(), Value::UInt(snap.evicted)),
            ("retained".to_owned(), Value::Array(retained)),
            ("spans".to_owned(), serde_json::to_value(&spans).unwrap()),
        ]))
        .unwrap()
    }

    /// Streams `snap` behind a lead and checks the count, the bytes and
    /// what they read back as against the oracle.
    fn assert_streams_the_oracle(snap: TraceSnapshot) {
        let expected = serialised_body(&snap);
        let records: Vec<SpanRecord> = snap
            .spans()
            .iter()
            .map(|(head, source)| source.record(head))
            .collect();
        assert_eq!(written_spans(&snap), records, "spans read back");
        let body = snap.into_json_body();
        let mut out = b"HEAD\r\n\r\n".to_vec();
        let lead = out.clone();
        let sent = body
            .write_after(&lead, &mut out)
            .expect("a Vec takes every write");
        let (head, streamed) = out.split_at(2 * lead.len());
        assert_eq!(
            (head, sent),
            ([&lead[..], &lead[..]].concat().as_slice(), body.byte_len())
        );
        assert_eq!(streamed.len() as u64, body.byte_len(), "counted length");
        assert_eq!(String::from_utf8_lossy(streamed), expected);
    }

    /// Every escape class of the JSON writer, and a multi-byte character.
    const ESCAPES: &str = "q\" b\\ n\n t\t r\r b\u{8} f\u{c} u\u{1} del\u{7f} →";

    #[test]
    fn a_streamed_body_is_as_long_as_counted_and_equals_the_oracle() {
        // Empty rings, on and off.
        assert_streams_the_oracle(Tracer::new().snapshot(None));
        assert_streams_the_oracle(enabled().snapshot(None));

        // Every snapshot `written_json_equals_the_serialised_snapshot`
        // writes: a cited trace held past its budget, a pinned session,
        // interleaved spans, escaped text and an aux span.
        let mut tr = Tracer::new();
        tr.enable(TraceConfig { capacity: 3 });
        let cited = fg_core::hash::trace_id(4, 1);
        tr.cite(cited, 0);
        tr.pin_session(5);
        let sampled = coin_seq(2, 1, true);
        for (session, seq, decision) in [(4, 1, "block"), (2, sampled, "allow"), (5, 3, "allow")] {
            tr.submit(trace(session, seq, decision));
        }
        let mut odd = RequestTrace::new(
            fg_core::hash::trace_id(3, 1),
            3,
            "/booking/hold",
            SimTime::from_secs(1),
        );
        let stage = odd.stage("serve.http");
        odd.attr(
            stage,
            "quote",
            String::from("a \"b\" \\ c\n\t\r\u{8}\u{c}\u{1} é ✓"),
        );
        odd.attr(stage, "score", AttrValue::Float3(0.5));
        odd.finish("challenge");
        tr.submit(odd);
        tr.submit(trace(6, 2, "block"));
        tr.record_aux(SpanRecord {
            trace_id: fg_core::hash::trace_id(u64::MAX, 1),
            span_id: 1,
            parent_id: 0,
            name: "sentinel.evaluate".to_owned(),
            session: 0,
            start_us: 1_000_000,
            dur_us: 1,
            attrs: vec![("k\"".to_owned(), "v\u{7f}".to_owned())],
        });
        for only in [
            None,
            Some(cited),
            Some(fg_core::hash::trace_id(3, 1)),
            Some(1),
        ] {
            assert_streams_the_oracle(tr.snapshot(only));
        }

        // A saturated clock, the extreme values of each kind, and every
        // escape class in an endpoint, a stage name, keys and values.
        let mut tr = enabled();
        let id = fg_core::hash::trace_id(8, 1);
        let mut t = RequestTrace::new(id, 8, ESCAPES, SimTime::from_millis(u64::MAX));
        let stage = t.stage(ESCAPES);
        for (key, value) in [
            ("nan", AttrValue::Float3(f64::NAN)),
            ("inf", AttrValue::Float3(f64::INFINITY)),
            ("-inf", AttrValue::Float3(f64::NEG_INFINITY)),
            ("-0", AttrValue::Float3(-0.0)),
            ("1e300", AttrValue::Float3(1e300)),
            ("max", AttrValue::Int(u64::MAX)),
            ("zero", AttrValue::Hex16(0)),
            ("yes", AttrValue::Bool(true)),
            (ESCAPES, AttrValue::from(ESCAPES)),
        ] {
            t.attr(stage, key, value);
        }
        t.child(stage, ESCAPES);
        t.finish("block");
        tr.submit(t);
        tr.record_aux(SpanRecord {
            trace_id: 9,
            span_id: u64::MAX,
            parent_id: 0,
            name: ESCAPES.to_owned(),
            session: u64::MAX,
            start_us: 0,
            dur_us: u64::MAX,
            attrs: vec![(ESCAPES.to_owned(), ESCAPES.to_owned())],
        });
        // Two spans that tie on every sort key keep their ring order.
        for name in ["tie.first", "tie.second"] {
            tr.record_aux(SpanRecord {
                trace_id: 9,
                span_id: 1,
                parent_id: 0,
                name: name.to_owned(),
                session: 0,
                start_us: 7,
                dur_us: 1,
                attrs: Vec::new(),
            });
        }
        let snap = tr.snapshot(None);
        let mut written = String::new();
        snap.write_json(&mut written);
        for exported in [
            "\"NaN\"",
            "\"inf\"",
            "\"-inf\"",
            "\"-0.000\"",
            "\"18446744073709551615\"",
            "\"0000000000000000\"",
        ] {
            assert!(written.contains(exported), "{exported} in {written}");
        }
        // 1e300 in full: 301 digits before the point.
        let big = format!("\"{:.3}\"", 1e300_f64);
        assert!(big.len() == 307 && written.contains(&big), "{big}");
        for only in [None, Some(id), Some(9)] {
            assert_streams_the_oracle(tr.snapshot(only));
        }
    }

    /// A `Write` that records each `write` call's length, like a socket
    /// that takes everything it is given.
    #[derive(Default)]
    struct Recorder {
        writes: Vec<usize>,
        bytes: Vec<u8>,
    }

    impl io::Write for Recorder {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes.push(buf.len());
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_large_body_reaches_the_writer_in_full_chunks() {
        let mut tr = enabled();
        for seq in 1..=2_000 {
            tr.submit(trace(seq % 50, seq, "block"));
        }
        let snap = tr.snapshot(None);
        let mut expected = String::new();
        snap.write_json(&mut expected);
        assert!(expected.len() > 4 * CHUNK, "{} bytes", expected.len());
        let body = snap.into_json_body();
        let mut sink = Recorder::default();
        let sent = body.write_after(b"HEAD\r\n\r\n", &mut sink).unwrap();
        assert_eq!(sent, body.byte_len());
        assert_eq!(sent, expected.len() as u64);
        assert_eq!(
            sink.bytes,
            [&b"HEAD\r\n\r\n"[..], expected.as_bytes()].concat()
        );
        // Each write but the last hands on a buffer that the next piece,
        // a few dozen bytes, would have overflowed.
        let (last, full) = sink.writes.split_last().unwrap();
        assert!(
            full.iter().all(|&n| n > CHUNK - 256 && n <= CHUNK) && *last <= CHUNK,
            "{:?}",
            sink.writes
        );

        // A small body goes out with its lead in one write.
        let mut sink = Recorder::default();
        let one = enabled().snapshot(None).into_json_body();
        one.write_after(b"HEAD\r\n\r\n", &mut sink).unwrap();
        assert_eq!(sink.writes.len(), 1);
    }

    #[test]
    fn a_refused_write_stops_the_export_with_its_error() {
        struct Refusing;
        impl io::Write for Refusing {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                Err(io::Error::new(io::ErrorKind::BrokenPipe, "peer gone"))
            }

            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut tr = enabled();
        tr.submit(trace(1, 1, "block"));
        let body = tr.snapshot(None).into_json_body();
        let err = body.write_after(b"HEAD", &mut Refusing).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::BrokenPipe);
        let err = tr
            .snapshot(None)
            .write_chrome("t", 1, &mut Refusing)
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::BrokenPipe);
    }

    #[test]
    fn an_export_writes_what_was_retained_when_it_was_taken() {
        let mut tr = Tracer::new();
        tr.enable(TraceConfig { capacity: 2 });
        let sampled = coin_seq(2, 1, true);
        tr.submit(trace(1, 1, "block"));
        tr.submit(trace(2, sampled, "allow"));
        let aux = |trace_id| SpanRecord {
            trace_id,
            span_id: 1,
            parent_id: 0,
            name: "sentinel.evaluate".to_owned(),
            session: 0,
            start_us: 0,
            dur_us: 1,
            attrs: Vec::new(),
        };
        tr.record_aux(aux(7));
        let (mut expected, mut expected_one) = (String::new(), String::new());
        tr.snapshot(None).write_json(&mut expected);
        let one = fg_core::hash::trace_id(2, sampled);
        tr.snapshot(Some(one)).write_json(&mut expected_one);
        let expected_chrome = chrome(&tr.snapshot(None), "t", 1);
        let (snap, snap_one) = (tr.snapshot(None), tr.snapshot(Some(one)));

        // Evict both traces and the auxiliary span.
        for seq in 2..5 {
            tr.submit(trace(3, seq, "block"));
        }
        for id in 8..8 + AUX_CAPACITY as u64 {
            tr.record_aux(aux(id));
        }
        let mut now = String::new();
        tr.snapshot(None).write_json(&mut now);
        assert!(
            !now.contains("{\"trace_id\":7,"),
            "the aux span was evicted"
        );

        let (mut written, mut written_one) = (String::new(), String::new());
        snap.write_json(&mut written);
        snap_one.write_json(&mut written_one);
        assert_eq!(written, expected);
        assert_eq!(written_one, expected_one);
        assert_eq!(chrome(&snap, "t", 1), expected_chrome);
        assert!(written.contains("{\"trace_id\":7,"));
        assert!(written_one.contains(&format!("{{\"trace_id\":{one},")));
    }

    #[test]
    fn aux_ring_is_bounded() {
        let mut tr = enabled();
        for i in 0..AUX_CAPACITY as u64 + 3 {
            tr.record_aux(SpanRecord {
                trace_id: fg_core::hash::trace_id(0, i),
                span_id: i + 1,
                parent_id: 0,
                name: "sentinel.evaluate".to_owned(),
                session: 0,
                start_us: i * 300_000_000,
                dur_us: 1,
                attrs: Vec::new(),
            });
        }
        let snap = tr.snapshot(None);
        assert_eq!(snap.aux_dropped, 3);
        let spans = written_spans(&snap);
        assert_eq!(spans.len(), AUX_CAPACITY);
        assert_eq!(spans[0].span_id, 4, "the oldest three dropped");
    }

    #[test]
    fn chrome_export_of_a_small_tracer_is_pinned() {
        let mut tr = enabled();
        let mut first = RequestTrace::new(
            fg_core::hash::trace_id(2, 1),
            2,
            "/booking/hold",
            SimTime::from_millis(1),
        );
        let assess = first.stage("detect.assess");
        let signal = first.child(assess, "detect.ip-velocity");
        first.attr(signal, "note", String::from("a \"quoted\" \\ path\n"));
        first.attr(assess, "score", AttrValue::Float3(0.75));
        first.finish("challenge");
        tr.submit(first);
        let mut second = RequestTrace::new(
            fg_core::hash::trace_id(3, 1),
            3,
            "/search",
            SimTime::from_millis(2),
        );
        second.finish("block");
        tr.submit(second);
        tr.record_aux(SpanRecord {
            trace_id: 5,
            span_id: 6,
            parent_id: 0,
            name: "sentinel.evaluate".to_owned(),
            session: 0,
            start_us: 1_500,
            dur_us: 1,
            attrs: vec![("transitions".to_owned(), "1".to_owned())],
        });
        let out = chrome(&tr.snapshot(None), "golden", 7);
        assert_eq!(out, GOLDEN_CHROME);
        assert!(serde_json::from_str::<Value>(&out).is_ok());
    }

    #[test]
    fn chrome_export_of_an_empty_tracer_is_pinned() {
        let out = chrome(&enabled().snapshot(None), "empty", 0);
        assert_eq!(out, GOLDEN_EMPTY_CHROME);
    }

    /// The small tracer's Chrome trace-event export, byte for byte.
    const GOLDEN_CHROME: &str = r#"{
  "traceEvents": [
    {
      "name": "session c2",
      "cat": "fg",
      "ph": "X",
      "ts": 1000,
      "dur": 4,
      "pid": 1,
      "tid": 2,
      "args": {
        "trace_id": "0x8c39c2ee4fd2a8cc",
        "span_id": "0x8c39c2ee4fd2a8cc",
        "parent_id": "0x0000000000000000",
        "client": "c2"
      }
    },
    {
      "name": "request /booking/hold",
      "cat": "fg",
      "ph": "X",
      "ts": 1000,
      "dur": 4,
      "pid": 1,
      "tid": 2,
      "args": {
        "trace_id": "0xde96bad4e1e15245",
        "span_id": "0x18a792e79960e920",
        "parent_id": "0x0000000000000000",
        "endpoint": "/booking/hold",
        "decision": "challenge"
      }
    },
    {
      "name": "detect.assess",
      "cat": "fg",
      "ph": "X",
      "ts": 1001,
      "dur": 2,
      "pid": 1,
      "tid": 2,
      "args": {
        "trace_id": "0xde96bad4e1e15245",
        "span_id": "0x2b4056ba10871282",
        "parent_id": "0x18a792e79960e920",
        "score": "0.750"
      }
    },
    {
      "name": "detect.ip-velocity",
      "cat": "fg",
      "ph": "X",
      "ts": 1002,
      "dur": 1,
      "pid": 1,
      "tid": 2,
      "args": {
        "trace_id": "0xde96bad4e1e15245",
        "span_id": "0xe58dae599c311312",
        "parent_id": "0x2b4056ba10871282",
        "note": "a \"quoted\" \\ path\n"
      }
    },
    {
      "name": "sentinel.evaluate",
      "cat": "fg",
      "ph": "X",
      "ts": 1500,
      "dur": 1,
      "pid": 1,
      "tid": 0,
      "args": {
        "trace_id": "0x0000000000000005",
        "span_id": "0x0000000000000006",
        "parent_id": "0x0000000000000000",
        "transitions": "1"
      }
    },
    {
      "name": "session c3",
      "cat": "fg",
      "ph": "X",
      "ts": 2000,
      "dur": 2,
      "pid": 1,
      "tid": 3,
      "args": {
        "trace_id": "0x8b4025d2cc16de7b",
        "span_id": "0x8b4025d2cc16de7b",
        "parent_id": "0x0000000000000000",
        "client": "c3"
      }
    },
    {
      "name": "request /search",
      "cat": "fg",
      "ph": "X",
      "ts": 2000,
      "dur": 2,
      "pid": 1,
      "tid": 3,
      "args": {
        "trace_id": "0xf88f01d8dfa0030f",
        "span_id": "0x98a8155fc711398c",
        "parent_id": "0x0000000000000000",
        "endpoint": "/search",
        "decision": "block"
      }
    }
  ],
  "displayTimeUnit": "ms",
  "otherData": {
    "experiment": "golden",
    "seed": 7,
    "sampling": {
      "submitted": 2,
      "kept": 2,
      "sampled_out": 0,
      "evicted": 0,
      "aux_dropped": 0
    }
  }
}"#;

    /// An empty tracer's Chrome trace-event export, byte for byte.
    const GOLDEN_EMPTY_CHROME: &str = r#"{
  "traceEvents": [],
  "displayTimeUnit": "ms",
  "otherData": {
    "experiment": "empty",
    "seed": 0,
    "sampling": {
      "submitted": 0,
      "kept": 0,
      "sampled_out": 0,
      "evicted": 0,
      "aux_dropped": 0
    }
  }
}"#;
}
