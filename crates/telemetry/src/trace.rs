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
//!   `splitmix64(trace_id ^ salt)` falls under the configured rate — a
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
use serde::{Deserialize, Serialize};
use serde_json::Value;
use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;

/// Default probability of keeping an `allow`-decision trace: 1/32. Exact in
/// binary, so the keep/drop threshold arithmetic has no rounding surprises.
pub const DEFAULT_ALLOW_SAMPLE_RATE: f64 = 0.031_25;

/// Default request-trace retention budget.
pub const DEFAULT_TRACE_CAPACITY: usize = 16_384;

/// Default auxiliary-span retention budget (sentinel evaluations, team
/// reviews — spans not tied to one request).
pub const DEFAULT_AUX_CAPACITY: usize = 8_192;

/// Salt folded into the sampling hash so the keep/drop coin is independent
/// of any other use of the trace id.
const SAMPLE_SALT: u64 = 0x5AD5_ABE1_7A1E_D00D;

/// Tracer tuning.
#[derive(Clone, Copy, Debug)]
pub struct TraceConfig {
    /// Probability of keeping an `allow`-decision trace, in `[0, 1]`.
    pub allow_sample_rate: f64,
    /// Maximum retained request traces.
    pub capacity: usize,
    /// Maximum retained auxiliary spans.
    pub aux_capacity: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            allow_sample_rate: DEFAULT_ALLOW_SAMPLE_RATE,
            capacity: DEFAULT_TRACE_CAPACITY,
            aux_capacity: DEFAULT_AUX_CAPACITY,
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

/// One in-flight request trace, built inside `DefendedApp::gate` and handed
/// to [`Tracer::submit`] with the final decision. Names, keys and labels
/// are `&'static str` and values stay [`AttrValue`]s, so building a trace
/// formats nothing; [`Tracer::snapshot`] formats the traces it exports.
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

    /// Flattens into exportable spans: the request root spanning its
    /// children, each stage at a deterministic 1 µs logical offset.
    fn to_spans(&self) -> Vec<SpanRecord> {
        let t0 = self.at.as_millis() * 1_000;
        let n = self.stages.len() as u64;
        let span_id = |idx: u64| match splitmix64(self.trace_id ^ (idx + 1)) {
            0 => 1,
            id => id,
        };
        let root_id = span_id(0);
        let mut out = Vec::with_capacity(self.stages.len() + 1);
        out.push(SpanRecord {
            trace_id: self.trace_id,
            span_id: root_id,
            parent_id: 0,
            name: format!("request {}", self.endpoint),
            session: self.session,
            start_us: t0,
            dur_us: n + 2,
            attrs: vec![
                ("endpoint".to_owned(), self.endpoint.to_owned()),
                ("decision".to_owned(), self.decision.to_owned()),
            ],
        });
        for (i, &(parent, name)) in self.stages.iter().enumerate() {
            let handle = i + 1;
            out.push(SpanRecord {
                trace_id: self.trace_id,
                span_id: span_id(handle as u64),
                parent_id: if parent == 0 {
                    root_id
                } else {
                    span_id(parent as u64)
                },
                name: name.to_owned(),
                session: self.session,
                // Child stages sit inside their parent stage's slot: the
                // layout is one slot per stage in record order, nested
                // stages borrowing the tail of the parent's microsecond.
                start_us: t0 + handle as u64,
                dur_us: 1,
                attrs: self
                    .attrs
                    .iter()
                    .filter(|(stage, _, _)| *stage == handle)
                    .map(|(_, key, value)| ((*key).to_owned(), value.to_string()))
                    .collect(),
            });
        }
        // Widen parent stages over their children so Chrome-trace viewers
        // nest by containment. Children immediately follow their parent in
        // record order, so extend each parent's duration to cover the last
        // descendant slot.
        for i in (0..self.stages.len()).rev() {
            let (parent, _) = self.stages[i];
            if parent > 0 {
                let child_end = out[i + 1].start_us + out[i + 1].dur_us;
                let p = &mut out[parent];
                let p_end = p.start_us + p.dur_us;
                if child_end > p_end {
                    p.dur_us = child_end - p.start_us;
                }
            }
        }
        out
    }
}

/// A point-in-time export of the tracer: retained spans plus the sampling
/// and retention accounting.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
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
    /// Every retained span (session roots, request roots, stages,
    /// auxiliary), sorted by `(start_us, trace_id, span_id)`.
    pub spans: Vec<SpanRecord>,
}

impl TraceSnapshot {
    /// The set of request trace ids present in the export (session-root and
    /// auxiliary ids excluded — these are what audit records and incident
    /// exemplars refer to).
    pub fn request_trace_ids(&self) -> BTreeSet<u64> {
        self.spans
            .iter()
            .filter(|s| s.name.starts_with("request "))
            .map(|s| s.trace_id)
            .collect()
    }

    /// Renders the export as a Chrome trace-event / Perfetto-loadable JSON
    /// object: `traceEvents` holds one complete (`"ph": "X"`) event per
    /// span, lanes (`tid`) are session ids, and `otherData` carries the
    /// provenance pairs passed in.
    pub fn to_chrome_trace(&self, other_data: &[(&str, Value)]) -> Value {
        let events: Vec<Value> = self
            .spans
            .iter()
            .map(|s| {
                let mut args: Vec<(String, Value)> = vec![
                    (
                        "trace_id".to_owned(),
                        Value::String(format!("{:#018x}", s.trace_id)),
                    ),
                    (
                        "span_id".to_owned(),
                        Value::String(format!("{:#018x}", s.span_id)),
                    ),
                    (
                        "parent_id".to_owned(),
                        Value::String(format!("{:#018x}", s.parent_id)),
                    ),
                ];
                for (k, v) in &s.attrs {
                    args.push((k.clone(), Value::String(v.clone())));
                }
                Value::Object(vec![
                    ("name".to_owned(), Value::String(s.name.clone())),
                    ("cat".to_owned(), Value::String("fg".to_owned())),
                    ("ph".to_owned(), Value::String("X".to_owned())),
                    ("ts".to_owned(), Value::UInt(s.start_us)),
                    ("dur".to_owned(), Value::UInt(s.dur_us)),
                    ("pid".to_owned(), Value::UInt(1)),
                    ("tid".to_owned(), Value::UInt(s.session)),
                    ("args".to_owned(), Value::Object(args)),
                ])
            })
            .collect();
        let stats = Value::Object(vec![
            ("submitted".to_owned(), Value::UInt(self.submitted)),
            ("kept".to_owned(), Value::UInt(self.kept)),
            ("sampled_out".to_owned(), Value::UInt(self.sampled_out)),
            ("evicted".to_owned(), Value::UInt(self.evicted)),
            ("aux_dropped".to_owned(), Value::UInt(self.aux_dropped)),
        ]);
        let mut other: Vec<(String, Value)> = other_data
            .iter()
            .map(|(k, v)| ((*k).to_owned(), v.clone()))
            .collect();
        other.push(("sampling".to_owned(), stats));
        Value::Object(vec![
            ("traceEvents".to_owned(), Value::Array(events)),
            ("displayTimeUnit".to_owned(), Value::String("ms".to_owned())),
            ("otherData".to_owned(), Value::Object(other)),
        ])
    }

    /// Renders the export as compact JSONL: one span object per line, in
    /// export order — the streaming-friendly form for external tooling.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for span in &self.spans {
            out.push_str(&serde_json::to_string(span).expect("spans serialize cleanly"));
            out.push('\n');
        }
        out
    }
}

/// The deterministic span tracer: head+tail sampling over submitted request
/// traces plus an auxiliary span ring, all bounded.
#[derive(Debug, Default)]
pub struct Tracer {
    config: Option<TraceConfig>,
    pinned: BTreeSet<u64>,
    /// Sampled `allow` traces — the first to evict under pressure.
    kept_sampled: VecDeque<RequestTrace>,
    /// Non-allow or pinned-session traces — evicted only among themselves.
    kept_important: VecDeque<RequestTrace>,
    /// Trace ids an exemplar currently cites.
    cited: BTreeSet<u64>,
    /// Cited traces the retention budget has already evicted, kept until
    /// [`Tracer::cite`] releases them.
    held: BTreeMap<u64, RequestTrace>,
    aux: VecDeque<SpanRecord>,
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

    /// Whether tracing is on.
    pub fn is_enabled(&self) -> bool {
        self.config.is_some()
    }

    /// Marks a session as sentinel-correlated: its traces bypass the
    /// sampling coin (tail-kept) so incident exemplars always resolve.
    pub fn pin_session(&mut self, session: u64) {
        self.pinned.insert(session);
    }

    /// The deterministic keep/drop coin for an `allow` trace.
    fn sample_keeps(trace_id: u64, rate: f64) -> bool {
        let threshold = (rate.clamp(0.0, 1.0) * u64::MAX as f64) as u64;
        splitmix64(trace_id ^ SAMPLE_SALT) <= threshold
    }

    /// Submits a finished request trace. Head+tail rule: non-`allow`
    /// decisions, pinned sessions, and individually pinned traces
    /// ([`RequestTrace::pin`]) are always kept; `allow` traces are kept at
    /// the configured hash-keyed rate.
    pub fn submit(&mut self, trace: RequestTrace) {
        let Some(config) = self.config else {
            return;
        };
        self.submitted += 1;
        let important =
            trace.pinned || trace.decision != "allow" || self.pinned.contains(&trace.session);
        if !important && !Self::sample_keeps(trace.trace_id, config.allow_sample_rate) {
            self.sampled_out += 1;
            return;
        }
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
    /// team review). Bounded by `aux_capacity`, oldest dropped first.
    pub fn record_aux(&mut self, span: SpanRecord) {
        let Some(config) = self.config else {
            return;
        };
        if self.aux.len() == config.aux_capacity.max(1) {
            self.aux.pop_front();
            self.aux_dropped += 1;
        }
        self.aux.push_back(span);
    }

    /// Every retained request trace: the budgeted rings plus held cited
    /// traces.
    fn retained(&self) -> impl Iterator<Item = &RequestTrace> {
        self.kept_important
            .iter()
            .chain(self.kept_sampled.iter())
            .chain(self.held.values())
    }

    /// Trace ids currently retained (what incident exemplars may cite).
    pub fn retained_ids(&self) -> BTreeSet<u64> {
        self.retained().map(|t| t.trace_id).collect()
    }

    /// Exports every retained span: per-session root spans bracketing each
    /// session's retained requests, the request/stage spans, and the
    /// auxiliary ring — sorted by `(start_us, trace_id, span_id)`.
    pub fn snapshot(&self) -> TraceSnapshot {
        let mut spans: Vec<SpanRecord> = Vec::new();
        // Session roots: one per client with retained traces, spanning the
        // first request's start to the last request's end.
        let mut sessions: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
        for trace in self.retained() {
            let request_spans = trace.to_spans();
            let start = request_spans[0].start_us;
            let end = start + request_spans[0].dur_us;
            sessions
                .entry(trace.session)
                .and_modify(|(s, e)| {
                    *s = (*s).min(start);
                    *e = (*e).max(end);
                })
                .or_insert((start, end));
            spans.extend(request_spans);
        }
        for (&session, &(start, end)) in &sessions {
            let root_trace = fg_core::hash::trace_id(session, 0);
            spans.push(SpanRecord {
                trace_id: root_trace,
                span_id: root_trace,
                parent_id: 0,
                name: format!("session c{session}"),
                session,
                start_us: start,
                dur_us: end - start,
                attrs: vec![("client".to_owned(), format!("c{session}"))],
            });
        }
        spans.extend(self.aux.iter().cloned());
        spans.sort_by(|a, b| {
            (a.start_us, a.trace_id, a.span_id).cmp(&(b.start_us, b.trace_id, b.span_id))
        });
        let kept = self.retained().count() as u64 + self.evicted;
        TraceSnapshot {
            submitted: self.submitted,
            kept,
            sampled_out: self.sampled_out,
            evicted: self.evicted,
            aux_dropped: self.aux_dropped,
            spans,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn disabled_tracer_drops_everything() {
        let mut tr = Tracer::new();
        tr.submit(trace(1, 1, "block"));
        let snap = tr.snapshot();
        assert_eq!(snap.submitted, 0);
        assert!(snap.spans.is_empty());
    }

    #[test]
    fn non_allow_is_always_kept_and_allows_are_sampled() {
        let mut tr = Tracer::new();
        tr.enable(TraceConfig {
            allow_sample_rate: 0.0,
            ..TraceConfig::default()
        });
        tr.submit(trace(1, 1, "allow"));
        tr.submit(trace(1, 2, "challenge"));
        tr.submit(trace(1, 3, "block"));
        let snap = tr.snapshot();
        assert_eq!(snap.submitted, 3);
        assert_eq!(snap.sampled_out, 1);
        assert_eq!(snap.request_trace_ids().len(), 2);
    }

    #[test]
    fn pinned_sessions_bypass_the_sampling_coin() {
        let mut tr = Tracer::new();
        tr.enable(TraceConfig {
            allow_sample_rate: 0.0,
            ..TraceConfig::default()
        });
        tr.pin_session(7);
        tr.submit(trace(7, 1, "allow"));
        tr.submit(trace(8, 1, "allow"));
        let snap = tr.snapshot();
        assert_eq!(snap.request_trace_ids().len(), 1);
        assert!(snap
            .request_trace_ids()
            .contains(&fg_core::hash::trace_id(7, 1)));
    }

    #[test]
    fn pinned_traces_bypass_the_sampling_coin() {
        let mut tr = Tracer::new();
        tr.enable(TraceConfig {
            allow_sample_rate: 0.0,
            ..TraceConfig::default()
        });
        let mut slow_allow = trace(9, 1, "allow");
        slow_allow.pin();
        tr.submit(slow_allow);
        tr.submit(trace(9, 2, "allow"));
        let snap = tr.snapshot();
        assert_eq!(snap.request_trace_ids().len(), 1);
        assert!(snap
            .request_trace_ids()
            .contains(&fg_core::hash::trace_id(9, 1)));
    }

    #[test]
    fn sampling_coin_is_deterministic() {
        let rate = DEFAULT_ALLOW_SAMPLE_RATE;
        for seq in 0..1_000u64 {
            let id = fg_core::hash::trace_id(3, seq);
            assert_eq!(
                Tracer::sample_keeps(id, rate),
                Tracer::sample_keeps(id, rate)
            );
        }
        let kept = (0..10_000u64)
            .filter(|&seq| Tracer::sample_keeps(fg_core::hash::trace_id(3, seq), rate))
            .count();
        // 1/32 of 10 000 ≈ 312; allow generous slack for hash variance.
        assert!((150..600).contains(&kept), "kept {kept} of 10000");
    }

    #[test]
    fn capacity_evicts_sampled_allows_before_important_traces() {
        let mut tr = Tracer::new();
        tr.enable(TraceConfig {
            allow_sample_rate: 1.0,
            capacity: 4,
            aux_capacity: 4,
        });
        tr.submit(trace(1, 1, "allow"));
        tr.submit(trace(1, 2, "allow"));
        tr.submit(trace(1, 3, "block"));
        tr.submit(trace(1, 4, "block"));
        tr.submit(trace(1, 5, "block"));
        let snap = tr.snapshot();
        assert_eq!(snap.evicted, 1);
        let ids = snap.request_trace_ids();
        for seq in [2, 3, 4, 5] {
            assert!(
                ids.contains(&fg_core::hash::trace_id(1, seq)),
                "sequence {seq} retained"
            );
        }
        assert!(
            !ids.contains(&fg_core::hash::trace_id(1, 1)),
            "oldest allow evicted"
        );
    }

    #[test]
    fn cited_traces_outlive_eviction_until_displaced() {
        let mut tr = Tracer::new();
        tr.enable(TraceConfig {
            capacity: 2,
            ..TraceConfig::default()
        });
        let cited = fg_core::hash::trace_id(1, 1);
        tr.cite(cited, 0);
        for seq in 1..=5 {
            tr.submit(trace(1, seq, "block"));
        }
        // Held past 4 later submissions, and not counted as evicted yet.
        let snap = tr.snapshot();
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
        let snap = tr.snapshot();
        assert!(!snap.request_trace_ids().contains(&cited));
        assert!(snap.request_trace_ids().contains(&next), "held in turn");
        assert_eq!((snap.kept, snap.evicted), (7, 4));
    }

    #[test]
    fn spans_nest_inside_the_request_root() {
        let spans = trace(9, 1, "challenge").to_spans();
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
        let spans = t.to_spans();
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
        let snap = tr.snapshot();
        let roots: Vec<&SpanRecord> = snap
            .spans
            .iter()
            .filter(|s| s.name.starts_with("session "))
            .collect();
        assert_eq!(roots.len(), 2);
        let c2 = roots.iter().find(|s| s.session == 2).unwrap();
        // The session root brackets both of c2's requests.
        assert_eq!(c2.start_us, SimTime::from_secs(1).as_millis() * 1_000);
        let sorted: Vec<u64> = snap.spans.iter().map(|s| s.start_us).collect();
        let mut expected = sorted.clone();
        expected.sort_unstable();
        assert_eq!(sorted, expected, "spans sorted by start time");
        assert_eq!(tr.snapshot(), snap, "snapshot is a pure read");
    }

    #[test]
    fn aux_ring_is_bounded() {
        let mut tr = Tracer::new();
        tr.enable(TraceConfig {
            aux_capacity: 2,
            ..TraceConfig::default()
        });
        for i in 0..5u64 {
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
        let snap = tr.snapshot();
        assert_eq!(snap.aux_dropped, 3);
        assert_eq!(snap.spans.len(), 2);
    }

    #[test]
    fn chrome_export_is_valid_trace_event_json() {
        let mut tr = enabled();
        tr.submit(trace(3, 1, "block"));
        let snap = tr.snapshot();
        let value = snap.to_chrome_trace(&[("experiment", Value::String("t".to_owned()))]);
        let text = serde_json::to_string_pretty(&value).unwrap();
        let parsed: Value = serde_json::from_str(&text).unwrap();
        let Value::Object(pairs) = parsed else {
            panic!("top level must be an object")
        };
        let events = pairs
            .iter()
            .find(|(k, _)| k == "traceEvents")
            .map(|(_, v)| v)
            .expect("traceEvents present");
        let Value::Array(events) = events else {
            panic!("traceEvents must be an array")
        };
        assert_eq!(events.len(), snap.spans.len());
        for e in events {
            let Value::Object(fields) = e else {
                panic!("event must be an object")
            };
            for required in ["name", "ph", "ts", "dur", "pid", "tid", "args"] {
                assert!(
                    fields.iter().any(|(k, _)| k == required),
                    "event field {required}"
                );
            }
        }
    }

    #[test]
    fn jsonl_round_trips_spans() {
        let mut tr = enabled();
        tr.submit(trace(4, 1, "challenge"));
        let snap = tr.snapshot();
        let jsonl = snap.to_jsonl();
        let back: Vec<SpanRecord> = jsonl
            .lines()
            .map(|l| serde_json::from_str(l).unwrap())
            .collect();
        assert_eq!(back, snap.spans);
    }
}
