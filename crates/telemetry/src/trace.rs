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
use std::fmt::{self, Write as _};
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

/// The exported form of the value.
impl fmt::Display for AttrValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttrValue::Text(text) => f.write_str(text),
            AttrValue::Int(n) => write!(f, "{n}"),
            AttrValue::Bool(flag) => write!(f, "{flag}"),
            AttrValue::Float3(x) => write!(f, "{x:.3}"),
            AttrValue::Hex16(id) => write!(f, "{id:016x}"),
        }
    }
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

/// Where an exported span comes from. The tracer sorts sources and formats
/// a span's name and attributes only as it writes that span, so an export
/// never holds every span formatted at once.
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
                    dur_us: end - start,
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

    fn name(&self) -> Cow<'a, str> {
        match *self {
            SpanSource::Request(trace, 0) => Cow::Owned(format!("request {}", trace.endpoint)),
            SpanSource::Request(trace, handle) => {
                Cow::Borrowed(trace.stages.get(handle - 1).map_or("", |&(_, name)| name))
            }
            SpanSource::Session { session, .. } => Cow::Owned(format!("session c{session}")),
            SpanSource::Aux(span) => Cow::Borrowed(&span.name),
        }
    }

    /// Calls `f` on each attribute, in export order.
    fn attrs(&self, mut f: impl FnMut(&str, &dyn fmt::Display)) {
        match *self {
            SpanSource::Request(trace, 0) => {
                f("endpoint", &trace.endpoint);
                f("decision", &trace.decision);
            }
            SpanSource::Request(trace, handle) => {
                for (_, key, value) in trace.attrs.iter().filter(|(stage, _, _)| *stage == handle) {
                    f(key, value);
                }
            }
            SpanSource::Session { session, .. } => f("client", &format!("c{session}")),
            SpanSource::Aux(span) => {
                for (key, value) in &span.attrs {
                    f(key, value);
                }
            }
        }
    }

    /// Appends the span to `out` as the JSON `serde_json` writes for its
    /// [`SpanRecord`], without building the record.
    fn write_json(&self, head: &SpanHead, out: &mut String) {
        let _ = write!(
            out,
            "{{\"trace_id\":{},\"span_id\":{},\"parent_id\":{},\"name\":",
            head.trace_id, head.span_id, head.parent_id
        );
        json::write_str(out, &self.name());
        let _ = write!(
            out,
            ",\"session\":{},\"start_us\":{},\"dur_us\":{},\"attrs\":[",
            head.session, head.start_us, head.dur_us
        );
        let mut first = true;
        self.attrs(|key, value| {
            if !first {
                out.push(',');
            }
            first = false;
            out.push('[');
            json::write_str(out, key);
            out.push(',');
            json::write_display(out, value);
            out.push(']');
        });
        out.push_str("]}");
    }

    /// Appends the span to `out` as one pretty-printed Chrome trace-event
    /// object at the indent of an element of `traceEvents`: a complete
    /// (`"ph": "X"`) event on lane (`tid`) `session`, with the span's ids
    /// (`0x` and 16 hex digits) and then its attributes as `args`.
    fn write_chrome(&self, head: &SpanHead, out: &mut String) {
        out.push_str("{\n      \"name\": ");
        json::write_str(out, &self.name());
        let _ = write!(
            out,
            ",\n      \"cat\": \"fg\",\n      \"ph\": \"X\",\n      \"ts\": {},\
             \n      \"dur\": {},\n      \"pid\": 1,\n      \"tid\": {},\
             \n      \"args\": {{\n        \"trace_id\": \"{:#018x}\",\
             \n        \"span_id\": \"{:#018x}\",\n        \"parent_id\": \"{:#018x}\"",
            head.start_us, head.dur_us, head.session, head.trace_id, head.span_id, head.parent_id
        );
        self.attrs(|key, value| {
            out.push_str(",\n        ");
            json::write_str(out, key);
            out.push_str(": ");
            json::write_display(out, value);
        });
        out.push_str("\n      }\n    }");
    }
}

/// A point-in-time export of the tracer, taken by [`Tracer::snapshot`]: the
/// sampling and retention accounting, the retained request trace ids, and
/// shared handles to the traces and auxiliary spans it writes. Traces the
/// tracer evicts later stay alive until the snapshot is dropped. Both
/// writers sort references to the spans and format one span at a time, so
/// writing needs little memory beyond the output itself.
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

    /// Every span the snapshot writes, unformatted and sorted by
    /// `(start_us, trace_id, span_id)`: all of them, or only those of the
    /// trace it was taken for.
    fn spans(&self) -> Vec<(SpanHead, SpanSource<'_>)> {
        let mut spans = sorted_spans(
            self.traces.iter().map(|t| &**t),
            self.aux.iter().map(|s| &**s),
        );
        spans.retain(|(head, _)| self.only.is_none_or(|id| head.trace_id == id));
        spans
    }

    /// Appends the snapshot to `out` as one JSON object (the
    /// `/debug/traces` body): `submitted`, `kept`, `sampled_out` and
    /// `evicted`, `retained` (the retained request trace ids as 16 hex
    /// digits, ascending) and `spans`, each serialised as its
    /// [`SpanRecord`].
    pub fn write_json(&self, out: &mut String) {
        let mut retained = self.retained_ids.clone();
        retained.sort_unstable();
        retained.dedup();
        let _ = write!(
            out,
            "{{\"submitted\":{},\"kept\":{},\"sampled_out\":{},\"evicted\":{},\"retained\":[",
            self.submitted, self.kept, self.sampled_out, self.evicted
        );
        for (i, id) in retained.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{id:016x}\"");
        }
        out.push_str("],\"spans\":[");
        for (i, (head, source)) in self.spans().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            source.write_json(head, out);
        }
        out.push_str("]}");
    }

    /// Writes the snapshot to `out` as a pretty-printed Chrome
    /// trace-event / Perfetto-loadable JSON object (the
    /// `results/<name>.traces.json` artifact): `traceEvents` holds one
    /// complete event per span, lanes (`tid`) are session ids, and
    /// `otherData` carries the run's provenance (`experiment`, `seed`) and
    /// the sampling accounting. Each span is formatted into one reused
    /// buffer and handed to `out` whole, so the artifact is never held in
    /// memory at once.
    pub fn write_chrome(
        &self,
        experiment: &str,
        seed: u64,
        out: &mut impl io::Write,
    ) -> io::Result<()> {
        let mut buf = String::from("{\n  \"traceEvents\": [");
        let spans = self.spans();
        for (i, (head, source)) in spans.iter().enumerate() {
            buf.push_str(if i > 0 { ",\n    " } else { "\n    " });
            source.write_chrome(head, &mut buf);
            out.write_all(buf.as_bytes())?;
            buf.clear();
        }
        if !spans.is_empty() {
            buf.push_str("\n  ");
        }
        buf.push_str(
            "],\n  \"displayTimeUnit\": \"ms\",\n  \"otherData\": {\n    \"experiment\": ",
        );
        json::write_str(&mut buf, experiment);
        let _ = write!(
            buf,
            ",\n    \"seed\": {seed},\n    \"sampling\": {{\n      \"submitted\": {},\
             \n      \"kept\": {},\n      \"sampled_out\": {},\n      \"evicted\": {},\
             \n      \"aux_dropped\": {}\n    }}\n  }}\n}}",
            self.submitted, self.kept, self.sampled_out, self.evicted, self.aux_dropped
        );
        out.write_all(buf.as_bytes())
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

/// Every span of `traces` and `aux`, unformatted: the request and stage
/// spans, one root per session bracketing its requests from the first
/// one's start to the last one's end, and the auxiliary spans — sorted by
/// `(start_us, trace_id, span_id)`.
fn sorted_spans<'a>(
    traces: impl Iterator<Item = &'a RequestTrace> + Clone,
    aux: impl ExactSizeIterator<Item = &'a SpanRecord>,
) -> Vec<(SpanHead, SpanSource<'a>)> {
    let mut sessions: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
    let mut request_spans = 0;
    for trace in traces.clone() {
        let root = trace.span_head(0);
        let (start, end) = (root.start_us, root.start_us.saturating_add(root.dur_us));
        sessions
            .entry(trace.session)
            .and_modify(|(s, e)| {
                *s = (*s).min(start);
                *e = (*e).max(end);
            })
            .or_insert((start, end));
        request_spans += trace.stages.len() + 1;
    }
    let mut spans = Vec::with_capacity(request_spans + sessions.len() + aux.len());
    let sources = traces
        .flat_map(|trace| {
            (0..=trace.stages.len()).map(move |handle| SpanSource::Request(trace, handle))
        })
        .chain(
            sessions
                .into_iter()
                .map(|(session, (start, end))| SpanSource::Session {
                    session,
                    start,
                    end,
                }),
        )
        .chain(aux.map(SpanSource::Aux));
    spans.extend(sources.map(|source| (source.head(), source)));
    spans.sort_by_key(|(head, _)| (head.start_us, head.trace_id, head.span_id));
    spans
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
        /// attributes formatted into an owned record.
        fn record(&self, head: &SpanHead) -> SpanRecord {
            let mut attrs = Vec::new();
            self.attrs(|key, value| attrs.push((key.to_owned(), value.to_string())));
            SpanRecord {
                trace_id: head.trace_id,
                span_id: head.span_id,
                parent_id: head.parent_id,
                name: self.name().into_owned(),
                session: head.session,
                start_us: head.start_us,
                dur_us: head.dur_us,
                attrs,
            }
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
