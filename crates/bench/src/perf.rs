//! The hot-path performance suite: a registry of per-event benchmark cases,
//! a headless measurement loop, machine-readable baselines, and a baseline
//! comparator — the machinery behind `BENCH_baseline.json` and the CI
//! `bench` gate.
//!
//! Two consumers share the case registry returned by [`cases`]:
//!
//! * the `fg-bench` binary measures every case with [`measure`] and emits a
//!   [`Baseline`] as JSON (`--bench-json`), or re-measures and diffs against
//!   a committed baseline (`--compare`);
//! * a unit test runs every case body once so the suite cannot rot.
//!
//! # Cross-machine comparability
//!
//! Absolute ns/op is machine-dependent, so every suite run includes a
//! `calibration/splitmix64_chain` case: a fixed pure-CPU workload whose cost
//! tracks the host's single-core speed. [`compare`] divides each metric's
//! current/baseline ratio by the calibration ratio, cancelling uniform
//! machine-speed differences to first order. Genuine code regressions remain
//! visible because they move one metric without moving the calibration case.
//! Every case runs on one thread, as the calibration case does, so the
//! runner's core count does not enter the ratios.

use fg_core::rng::splitmix64;
use fg_core::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::time::Instant;

/// The metric name [`compare`] uses to normalize machine speed.
pub const CALIBRATION_METRIC: &str = "calibration/splitmix64_chain";

/// Allowed fractional slowdown after normalization (0.5 = +50%): generous,
/// because shared runners are noisy even after calibration.
pub const TOLERANCE: f64 = 0.5;

/// Normalized slowdown ratio that fails regardless of [`TOLERANCE`].
pub const HARD_FAIL_RATIO: f64 = 10.0;

/// Schema version stamped into every [`Baseline`].
pub const BASELINE_SCHEMA: u32 = 1;

/// One benchmark case: a named closure performing a single hot-path
/// operation per call over pre-built state.
pub struct PerfCase {
    /// Group label (the metric-name prefix).
    pub group: &'static str,
    /// Case label within the group.
    pub name: &'static str,
    /// Application-level events one op processes (for events/sec reporting).
    pub units_per_op: f64,
    op: Box<dyn FnMut()>,
}

impl PerfCase {
    /// Builds a case whose op processes one event.
    pub fn new(group: &'static str, name: &'static str, op: impl FnMut() + 'static) -> Self {
        Self::with_units(group, name, 1.0, op)
    }

    /// Builds a case whose op processes `units` events (e.g. a whole
    /// simulated scenario per op).
    pub fn with_units(
        group: &'static str,
        name: &'static str,
        units: f64,
        op: impl FnMut() + 'static,
    ) -> Self {
        PerfCase {
            group,
            name,
            units_per_op: units,
            op: Box::new(op),
        }
    }

    /// The metric name, `group/name`.
    pub fn full_name(&self) -> String {
        format!("{}/{}", self.group, self.name)
    }

    /// Runs the op once (warm-up and smoke tests).
    pub fn run_once(&mut self) {
        (self.op)();
    }

    /// Runs the op `n` times, returning the elapsed wall-clock time.
    pub fn run_timed(&mut self, n: u64) -> std::time::Duration {
        let start = Instant::now();
        for _ in 0..n {
            (self.op)();
        }
        start.elapsed()
    }
}

/// Measurement tuning for [`measure`].
#[derive(Clone, Copy, Debug)]
pub struct MeasureOpts {
    /// Wall-clock budget per timed sample, in nanoseconds.
    pub sample_budget_ns: u64,
    /// Timed samples taken; the reported value is their minimum (timing
    /// noise — preemption, interrupts, frequency dips — is strictly
    /// additive, so the smallest sample is the least-contaminated estimate
    /// of the true cost and is stable across measurement profiles).
    pub samples: u32,
    /// Warm-up budget before calibration, in nanoseconds.
    pub warmup_ns: u64,
}

impl Default for MeasureOpts {
    fn default() -> Self {
        MeasureOpts {
            sample_budget_ns: 40_000_000,
            samples: 5,
            warmup_ns: 10_000_000,
        }
    }
}

impl MeasureOpts {
    /// A fast profile for CI smoke runs and tests. The sample windows are
    /// 4x shorter than the full profile's, so each is more exposed to a
    /// stray preemption — taking more of them keeps the minimum clean.
    pub fn quick() -> Self {
        MeasureOpts {
            sample_budget_ns: 10_000_000,
            samples: 8,
            warmup_ns: 2_000_000,
        }
    }
}

/// One measured metric: mean cost per op and the derived rates.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct BenchMetric {
    /// Minimum-of-samples mean nanoseconds per operation.
    pub ns_per_op: f64,
    /// Operations per second (`1e9 / ns_per_op`).
    pub ops_per_sec: f64,
    /// Application events per second (`ops_per_sec * units_per_op`).
    pub events_per_sec: f64,
}

impl BenchMetric {
    /// Builds a metric from a per-op cost and the case's units.
    pub fn from_ns(ns_per_op: f64, units_per_op: f64) -> Self {
        let ns = ns_per_op.max(f64::MIN_POSITIVE);
        BenchMetric {
            ns_per_op: ns,
            ops_per_sec: 1e9 / ns,
            events_per_sec: 1e9 / ns * units_per_op,
        }
    }
}

/// Measures one case: warm-up, iteration-count calibration, then
/// `opts.samples` timed samples whose median is reported.
pub fn measure(case: &mut PerfCase, opts: &MeasureOpts) -> BenchMetric {
    // Warm-up and per-op estimation in one pass.
    let warmup_start = Instant::now();
    let mut warmup_ops = 0u64;
    while warmup_start.elapsed().as_nanos() < u128::from(opts.warmup_ns) && warmup_ops < 10_000 {
        case.run_once();
        warmup_ops += 1;
    }
    let per_op_estimate =
        (warmup_start.elapsed().as_nanos() as f64 / warmup_ops.max(1) as f64).max(1.0);

    let iters_per_sample =
        ((opts.sample_budget_ns as f64 / per_op_estimate) as u64).clamp(1, 10_000_000);

    let best = (0..opts.samples.max(1))
        .map(|_| {
            let elapsed = case.run_timed(iters_per_sample);
            elapsed.as_nanos() as f64 / iters_per_sample as f64
        })
        .fold(f64::INFINITY, f64::min);
    BenchMetric::from_ns(best.max(0.001), case.units_per_op)
}

/// A machine-readable performance baseline: metric name → [`BenchMetric`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Baseline {
    /// Schema version ([`BASELINE_SCHEMA`]).
    pub schema: u32,
    /// Free-form provenance note (host class, commit, profile).
    pub note: String,
    /// Every measured metric, keyed by `group/name`.
    pub metrics: BTreeMap<String, BenchMetric>,
}

impl Baseline {
    /// Serializes to pretty JSON (the `BENCH_*.json` format).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("baseline serializes")
    }

    /// Parses a `BENCH_*.json` document.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let parsed: Baseline = serde_json::from_str(text).map_err(|e| e.to_string())?;
        if parsed.schema != BASELINE_SCHEMA {
            return Err(format!(
                "unsupported baseline schema {} (expected {BASELINE_SCHEMA})",
                parsed.schema
            ));
        }
        Ok(parsed)
    }

    /// The calibration case's ns/op, if present.
    pub fn calibration_ns(&self) -> Option<f64> {
        self.metrics.get(CALIBRATION_METRIC).map(|m| m.ns_per_op)
    }
}

/// Runs every case whose `group/name` contains `filter` (all when `None`)
/// and collects the results into a [`Baseline`].
pub fn run_suite(filter: Option<&str>, opts: &MeasureOpts, note: &str) -> Baseline {
    let mut metrics = BTreeMap::new();
    for mut case in cases() {
        let full = case.full_name();
        if let Some(f) = filter {
            // The calibration case always runs: compare() needs it.
            if !full.contains(f) && full != CALIBRATION_METRIC {
                continue;
            }
        }
        metrics.insert(full, measure(&mut case, opts));
    }
    Baseline {
        schema: BASELINE_SCHEMA,
        note: note.to_owned(),
        metrics,
    }
}

/// Verdict for one metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetricStatus {
    /// Within tolerance.
    Ok,
    /// Faster than the baseline by more than the tolerance — consider
    /// re-blessing the baseline.
    Improved,
    /// Slower than tolerance allows.
    Regressed,
    /// Slower by at least the hard-fail ratio.
    HardRegressed,
    /// Present in the current run but absent from the baseline (new case).
    New,
    /// Present in the baseline but absent from the current run.
    Missing,
}

impl MetricStatus {
    /// `true` when this status fails the gate.
    pub fn is_failure(self) -> bool {
        matches!(
            self,
            MetricStatus::Regressed | MetricStatus::HardRegressed | MetricStatus::Missing
        )
    }

    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            MetricStatus::Ok => "ok",
            MetricStatus::Improved => "improved",
            MetricStatus::Regressed => "REGRESSED",
            MetricStatus::HardRegressed => "HARD-REGRESSED",
            MetricStatus::New => "new",
            MetricStatus::Missing => "MISSING",
        }
    }
}

/// One metric's comparison row.
#[derive(Clone, Debug)]
pub struct MetricComparison {
    /// Metric name (`group/name`).
    pub metric: String,
    /// Baseline ns/op, when present.
    pub baseline_ns: Option<f64>,
    /// Current ns/op, when present.
    pub current_ns: Option<f64>,
    /// Normalized current/baseline ratio (>1 = slower), when both present.
    pub ratio: Option<f64>,
    /// Verdict.
    pub status: MetricStatus,
}

/// The full comparison: one row per metric union, plus the machine-speed
/// scale applied.
#[derive(Clone, Debug)]
pub struct ComparisonReport {
    /// Per-metric rows, sorted by metric name.
    pub rows: Vec<MetricComparison>,
    /// The machine-speed scale applied (current/baseline calibration ratio;
    /// 1.0 when either side lacks the calibration case).
    pub scale: f64,
}

impl ComparisonReport {
    /// `true` when any row fails the gate.
    pub fn failed(&self) -> bool {
        self.rows.iter().any(|r| r.status.is_failure())
    }

    /// Renders a fixed-width text table plus a verdict line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let width = self
            .rows
            .iter()
            .map(|r| r.metric.len())
            .max()
            .unwrap_or(6)
            .max(6);
        out.push_str(&format!(
            "{:<width$}  {:>12}  {:>12}  {:>8}  status\n",
            "metric", "baseline", "current", "ratio"
        ));
        let fmt_ns = |ns: Option<f64>| match ns {
            Some(v) => format_ns(v),
            None => "-".to_owned(),
        };
        for row in &self.rows {
            let ratio = match row.ratio {
                Some(r) => format!("{r:.2}x"),
                None => "-".to_owned(),
            };
            out.push_str(&format!(
                "{:<width$}  {:>12}  {:>12}  {:>8}  {}\n",
                row.metric,
                fmt_ns(row.baseline_ns),
                fmt_ns(row.current_ns),
                ratio,
                row.status.label()
            ));
        }
        out.push_str(&format!(
            "scale={:.3} tolerance=+{:.0}% hard-fail={:.0}x verdict={}\n",
            self.scale,
            TOLERANCE * 100.0,
            HARD_FAIL_RATIO,
            if self.failed() { "FAIL" } else { "PASS" }
        ));
        out
    }
}

fn format_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.1} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} µs", ns / 1e3)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1e6)
    } else {
        format!("{:.3} s", ns / 1e9)
    }
}

/// Diffs `current` against `baseline`: ratios are normalized by
/// [`CALIBRATION_METRIC`], a metric fails above [`TOLERANCE`], and
/// hard-fails at [`HARD_FAIL_RATIO`].
pub fn compare(baseline: &Baseline, current: &Baseline) -> ComparisonReport {
    let scale = match (baseline.calibration_ns(), current.calibration_ns()) {
        (Some(b), Some(c)) if b > 0.0 && c > 0.0 => c / b,
        _ => 1.0,
    };

    let mut names: Vec<&String> = baseline.metrics.keys().collect();
    for k in current.metrics.keys() {
        if !baseline.metrics.contains_key(k) {
            names.push(k);
        }
    }
    names.sort();

    let rows = names
        .into_iter()
        .map(|name| {
            let base = baseline.metrics.get(name).map(|m| m.ns_per_op);
            let cur = current.metrics.get(name).map(|m| m.ns_per_op);
            let (ratio, status) = match (base, cur) {
                (Some(b), Some(c)) => {
                    let ratio = (c / b) / scale;
                    let status = if name == CALIBRATION_METRIC {
                        // The yardstick itself is never gated: after
                        // normalization its ratio is 1.0 by construction.
                        MetricStatus::Ok
                    } else if ratio >= HARD_FAIL_RATIO {
                        MetricStatus::HardRegressed
                    } else if ratio > 1.0 + TOLERANCE {
                        MetricStatus::Regressed
                    } else if ratio < 1.0 / (1.0 + TOLERANCE) {
                        MetricStatus::Improved
                    } else {
                        MetricStatus::Ok
                    };
                    (Some(ratio), status)
                }
                (Some(_), None) => (None, MetricStatus::Missing),
                (None, Some(_)) => (None, MetricStatus::New),
                (None, None) => unreachable!("name came from one of the maps"),
            };
            MetricComparison {
                metric: name.clone(),
                baseline_ns: base,
                current_ns: cur,
                ratio,
                status,
            }
        })
        .collect();

    ComparisonReport { rows, scale }
}

// ---------------------------------------------------------------------------
// The case registry.
// ---------------------------------------------------------------------------

/// Builds every hot-path case. Each call constructs fresh state, so cases
/// are independent across runs and consumers.
pub fn cases() -> Vec<PerfCase> {
    use fg_core::ids::BookingRef;
    use fg_detection::log::{Endpoint, LogRecord, Method};
    use fg_detection::names::{gibberish_score, levenshtein, misspelling_clusters};
    use fg_detection::session::sessionize;
    use fg_detection::{DetectionEngine, SessionFeatures, VelocityCounter};
    use fg_fingerprint::similarity::{linking_score, similarity_with, SimilarityWeights};
    use fg_fingerprint::PopulationModel;
    use fg_mitigation::gating::TrustTier;
    use fg_mitigation::policy::{PolicyConfig, PolicyEngine, RequestContext};
    use fg_mitigation::rate_limit::{KeyedLimiter, TokenBucket};
    use fg_netsim::ip::IpAddress;
    use fg_scenario::experiments::case_a;
    use fg_telemetry::{AuditRecord, AuditTrail, Counter, Histogram, MetricsRegistry, SignalScore};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let mut cases = Vec::new();

    // --- calibration: a fixed pure-CPU workload for machine-speed scaling.
    cases.push(PerfCase::with_units(
        "calibration",
        "splitmix64_chain",
        256.0,
        {
            let mut acc = 0x5EED_u64;
            move || {
                for _ in 0..256 {
                    acc = splitmix64(acc);
                }
                std::hint::black_box(acc);
            }
        },
    ));

    // --- detection_engine: per-event scoring, the product's inline path.
    let model = PopulationModel::default_web();
    {
        let mut rng = StdRng::seed_from_u64(11);
        let fps: Vec<_> = (0..64).map(|_| model.sample_human(&mut rng)).collect();
        let mut engine = DetectionEngine::new();
        let mut t = 0u64;
        cases.push(PerfCase::new("detection_engine", "assess_clean_search", {
            move || {
                t += 1;
                let fp = &fps[(t % 64) as usize];
                // Bounded 4096-IP key space: the engine's per-key state
                // plateaus within warmup, so the measured cost is stationary
                // across measurement profiles (quick vs full).
                let ip = IpAddress::from_octets(10, 1, ((t >> 8) & 0x0f) as u8, t as u8);
                std::hint::black_box(engine.assess(
                    SimTime::from_millis(t * 50),
                    ip,
                    fp,
                    Endpoint::Search,
                    None,
                ));
            }
        }));
    }
    {
        let mut rng = StdRng::seed_from_u64(12);
        let fps: Vec<_> = (0..64).map(|_| model.sample_human(&mut rng)).collect();
        let mut engine = DetectionEngine::new();
        let mut t = 0u64;
        cases.push(PerfCase::new("detection_engine", "assess_sms_booking", {
            move || {
                t += 1;
                let fp = &fps[(t % 64) as usize];
                // Bounded key space, same reasoning as assess_clean_search.
                let ip = IpAddress::from_octets(10, 2, ((t >> 8) & 0x0f) as u8, t as u8);
                std::hint::black_box(engine.assess(
                    SimTime::from_millis(t * 50),
                    ip,
                    fp,
                    Endpoint::BoardingPass,
                    Some(BookingRef::from_index(t % 512)),
                ));
            }
        }));
    }

    // --- feature_extraction: behavioural features over a realistic session.
    {
        let records: Vec<LogRecord> = (0..50)
            .map(|i| {
                let endpoint = match i % 7 {
                    0 => Endpoint::Home,
                    1 | 2 => Endpoint::Search,
                    3 => Endpoint::Detail,
                    4 => Endpoint::Hold,
                    5 => Endpoint::Pay,
                    _ => Endpoint::Account,
                };
                LogRecord {
                    at: SimTime::from_secs(i * 7 + (i % 3)),
                    ip: IpAddress::from_octets(10, 0, 0, 1),
                    fingerprint: 1,
                    truth_client: fg_core::ids::ClientId(1),
                    method: if i % 3 == 0 {
                        Method::Post
                    } else {
                        Method::Get
                    },
                    endpoint,
                    ok: i % 11 != 0,
                }
            })
            .collect();
        let mut sessions = sessionize(records, SimDuration::from_hours(1));
        let session = sessions.remove(0);
        cases.push(PerfCase::with_units(
            "feature_extraction",
            "session_features_50req",
            50.0,
            move || {
                std::hint::black_box(SessionFeatures::extract(&session));
            },
        ));
    }

    // --- name_heuristics: the §IV-B per-passenger string analysis.
    {
        let names = [
            "Elisabeth",
            "Martinez",
            "affjgdui",
            "Kowalski",
            "ddfjrei",
            "Thompson",
            "xkcdqwrt",
            "Dubois",
        ];
        let mut i = 0usize;
        cases.push(PerfCase::new("name_heuristics", "gibberish_score", {
            move || {
                i = (i + 1) % names.len();
                std::hint::black_box(gibberish_score(names[i]));
            }
        }));
    }
    {
        let pairs = [
            ("MARTINEZ", "MARTINZE"),
            ("KOWALSKI", "KOWALSKY"),
            ("THOMPSON", "THOMSON"),
            ("GARCIA", "GARCLA"),
        ];
        let mut i = 0usize;
        cases.push(PerfCase::new("name_heuristics", "levenshtein_pair", {
            move || {
                i = (i + 1) % pairs.len();
                let (a, b) = pairs[i];
                std::hint::black_box(levenshtein(a, b));
            }
        }));
    }
    {
        // 200 surnames: 40 stems × 5 variants (typos + repeats), the shape
        // NameAbuseAnalyzer::report feeds misspelling_clusters.
        let stems = [
            "GARCIA", "SMITH", "JONES", "MARTIN", "BERNARD", "DUBOIS", "THOMAS", "ROBERT",
            "RICHARD", "PETIT", "DURAND", "LEROY", "MOREAU", "SIMON", "LAURENT", "LEFEVRE",
            "MICHEL", "DAVID", "BERTRAND", "ROUX", "VINCENT", "FOURNIER", "MOREL", "GIRARD",
            "ANDRE", "LEFEBVRE", "MERCIER", "DUPONT", "LAMBERT", "BONNET", "FRANCOIS", "MARTINEZ",
            "LEGRAND", "GARNIER", "FAURE", "ROUSSEAU", "BLANC", "GUERIN", "MULLER", "HENRY",
        ];
        let pool: Vec<String> = (0..200)
            .map(|i| {
                let stem = stems[i % stems.len()];
                match i / stems.len() {
                    0 | 1 => stem.to_owned(),
                    2 => format!("{stem}E"),
                    3 => {
                        // Swap the last two letters — the adjacent-typo class.
                        let mut b = stem.as_bytes().to_vec();
                        let n = b.len();
                        b.swap(n - 1, n - 2);
                        String::from_utf8(b).expect("ascii")
                    }
                    _ => stem.chars().rev().collect(),
                }
            })
            .collect();
        let refs: Vec<&'static str> = pool
            .into_iter()
            .map(|s| &*Box::leak(s.into_boxed_str()))
            .collect();
        cases.push(PerfCase::with_units(
            "name_heuristics",
            "misspelling_clusters_200",
            200.0,
            move || {
                std::hint::black_box(misspelling_clusters(&refs, 2));
            },
        ));
    }

    // --- fingerprint: pairwise similarity scoring.
    {
        let mut rng = StdRng::seed_from_u64(21);
        let a = model.sample_human(&mut rng);
        let mut b = a.clone();
        b.browser_version += 1;
        b.language = "fr-FR".to_owned();
        let w = SimilarityWeights::default();
        cases.push(PerfCase::new("fingerprint", "similarity_with", {
            move || {
                std::hint::black_box(similarity_with(&a, &b, &w));
            }
        }));
    }
    {
        let mut rng = StdRng::seed_from_u64(22);
        let a = model.sample_human(&mut rng);
        let b = model.sample_human(&mut rng);
        cases.push(PerfCase::new("fingerprint", "linking_score", {
            move || {
                std::hint::black_box(linking_score(&a, &b));
            }
        }));
    }

    // --- population_linking: the defender's rotation-linking scan — score a
    // probe against every live identity and keep the best match.
    {
        let mut rng = StdRng::seed_from_u64(23);
        let pool: Vec<_> = (0..256).map(|_| model.sample_human(&mut rng)).collect();
        let probe = model.sample_human(&mut rng);
        cases.push(PerfCase::with_units(
            "population_linking",
            "best_match_256",
            256.0,
            move || {
                let best = pool
                    .iter()
                    .map(|fp| linking_score(&probe, fp))
                    .fold(0.0f64, f64::max);
                std::hint::black_box(best);
            },
        ));
    }
    {
        let model = model.clone();
        let mut rng = StdRng::seed_from_u64(24);
        cases.push(PerfCase::new("population_linking", "sample_human", {
            move || {
                std::hint::black_box(model.sample_human(&mut rng));
            }
        }));
    }

    // --- rate_limiting: keyed limiter under identity churn.
    {
        let mut limiter: KeyedLimiter<u64> = KeyedLimiter::new(10.0, 1.0);
        let mut t = 0u64;
        cases.push(PerfCase::new("rate_limiting", "keyed_limiter_churn", {
            move || {
                t += 1;
                let key = splitmix64(t / 8) % 4096;
                std::hint::black_box(limiter.try_acquire(key, SimTime::from_millis(t)));
                if t.is_multiple_of(65_536) {
                    limiter.evict_idle(SimTime::from_millis(t));
                }
            }
        }));
    }
    {
        let mut bucket = TokenBucket::new(1e9, 1e6);
        let mut t = 0u64;
        cases.push(PerfCase::new("rate_limiting", "token_bucket", {
            move || {
                t += 1;
                std::hint::black_box(bucket.try_acquire(SimTime::from_millis(t)));
            }
        }));
    }

    // --- velocity: the sliding-window counters behind every velocity signal.
    {
        let mut counter: VelocityCounter<u64> = VelocityCounter::new(SimDuration::from_hours(1));
        let mut t = 0u64;
        cases.push(PerfCase::new("velocity", "record_and_count_churn", {
            move || {
                t += 1;
                let key = splitmix64(t / 16) % 2048;
                std::hint::black_box(counter.record_and_count(key, SimTime::from_millis(t * 20)));
                if t.is_multiple_of(65_536) {
                    counter.compact(SimTime::from_millis(t * 20));
                }
            }
        }));
    }

    // --- policy: the mitigation decision per request.
    {
        let mut rng = StdRng::seed_from_u64(31);
        let fp = model.sample_human(&mut rng);
        let clean = fg_detection::engine::Verdict::clean();
        let mut engine = PolicyEngine::new(PolicyConfig::recommended());
        let mut t = 0u64;
        cases.push(PerfCase::new("policy", "decide_recommended_mixed", {
            move || {
                t += 1;
                let endpoint = match t % 4 {
                    0 => Endpoint::Search,
                    1 => Endpoint::Detail,
                    2 => Endpoint::Hold,
                    _ => Endpoint::SendOtp,
                };
                let ctx = RequestContext {
                    now: SimTime::from_millis(t * 200),
                    ip: IpAddress::from_octets(10, 3, (t >> 8) as u8, t as u8),
                    fingerprint: &fp,
                    endpoint,
                    booking: Some(BookingRef::from_index(t % 1024)),
                    tier: TrustTier::Verified,
                    client_key: splitmix64(t / 8) % 4096,
                    verdict: &clean,
                };
                std::hint::black_box(engine.decide(&ctx));
                if t.is_multiple_of(65_536) {
                    engine.evict_idle(SimTime::from_millis(t * 200));
                }
            }
        }));
    }

    // --- telemetry: per-event observability overhead.
    {
        let registry = MetricsRegistry::new();
        let counter = registry.counter("fg_bench_events_total");
        cases.push(PerfCase::new("telemetry", "counter_inc", {
            move || {
                counter.inc();
            }
        }));
    }
    {
        let histogram = Histogram::new(&[0.001, 0.01, 0.1, 1.0, 10.0]);
        let mut t = 0u64;
        cases.push(PerfCase::new("telemetry", "histogram_record", {
            move || {
                t += 1;
                histogram.record((t % 1000) as f64 / 100.0);
            }
        }));
    }
    {
        let mut trail = AuditTrail::new(1024);
        let mut t = 0u64;
        cases.push(PerfCase::new("telemetry", "audit_push_evicting", {
            move || {
                t += 1;
                trail.push(AuditRecord {
                    at: SimTime::from_millis(t),
                    endpoint: "/booking/hold".to_owned(),
                    client: t,
                    fingerprint: splitmix64(t),
                    ip: "10.0.0.1".to_owned(),
                    score: 0.2,
                    signals: vec![SignalScore {
                        signal: "ip-velocity(4)".to_owned(),
                        weight: 0.16,
                    }],
                    decision: "allow".to_owned(),
                    reasons: Vec::new(),
                    trace_id: fg_core::hash::trace_id(t, t),
                });
            }
        }));
    }

    // --- tracing: the span pipeline. The disabled check is the cost every
    // gate() pays when tracing is off — it must price at a single relaxed
    // atomic load — and the build+submit case is the full enabled path.
    {
        let telemetry = fg_telemetry::Telemetry::new();
        cases.push(PerfCase::new("tracing", "enabled_check_off", {
            move || {
                std::hint::black_box(telemetry.tracing_enabled());
            }
        }));
    }
    {
        use fg_telemetry::{RequestTrace, Telemetry, TraceConfig};
        let telemetry = Telemetry::new();
        telemetry.enable_tracing(TraceConfig::default());
        let mut t = 0u64;
        cases.push(PerfCase::new("tracing", "span_build_submit", {
            move || {
                t += 1;
                let id = fg_core::hash::trace_id(t % 64, t);
                let mut trace =
                    RequestTrace::new(id, t % 64, "/booking/hold", SimTime::from_millis(t));
                let detect = trace.stage("detect.assess");
                trace.attr(detect, "score", "0.42");
                let decide = trace.stage("policy.decide");
                trace.attr(decide, "decision", "block");
                trace.finish("block");
                telemetry.record_trace(trace);
            }
        }));
    }

    // --- sentinel: the online alerting hot paths — one observe pass over a
    // registry shaped like a live run (dozens of per-country SMS counters, a
    // NiP histogram, spend gauges), and the report-time incident correlation
    // over a populated audit ring.
    {
        use fg_sentinel::{
            AlertPolicy, AlertRule, DriftBaseline, DriftStat, MetricSelector, Sentinel,
        };

        let registry = MetricsRegistry::new();
        let countries = [
            "UZ", "IR", "KG", "JO", "NG", "KH", "SG", "GB", "CN", "TH", "FR", "DE", "IT", "ES",
            "PL", "RO", "NL", "BE", "GR", "PT", "CZ", "HU", "SE", "AT", "CH", "BG", "DK", "FI",
            "SK", "NO", "IE", "HR", "LT", "SI", "LV", "EE", "US", "CA", "BR", "IN",
        ];
        let counters: Vec<Counter> = countries
            .iter()
            .map(|c| registry.counter_with("fg_sms_sent_total", &[("country", c)]))
            .collect();
        let holds = registry.counter_with("fg_requests_total", &[("endpoint", "/booking/hold")]);
        let nip = registry.histogram(
            "fg_nip_hold",
            &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0],
        );
        let spend = registry.gauge("fg_sms_owner_cost_units");
        let policy = AlertPolicy::named("bench")
            .rule(AlertRule::surge(
                "sms-country-surge",
                MetricSelector::any("fg_sms_sent_total"),
                SimDuration::from_hours(1),
                SimDuration::from_days(7),
                8.0,
                10.0,
            ))
            .rule(AlertRule::burn_rate(
                "sms-burn-rate",
                SimDuration::from_hours(6),
                SimDuration::from_days(7),
                3.0,
                2.0,
            ))
            .rule(AlertRule::threshold(
                "hold-volume",
                MetricSelector::exact("fg_requests_total", &[("endpoint", "/booking/hold")]),
                SimDuration::from_hours(1),
                2_000.0,
            ))
            .rule(AlertRule::drift(
                "nip-drift",
                MetricSelector::exact("fg_nip_hold", &[]),
                SimDuration::from_hours(6),
                40,
                DriftBaseline::Static(vec![52.0, 30.0, 7.0, 5.0, 2.5, 1.5, 1.0, 0.6, 0.4]),
                DriftStat::ChiSquarePerSample,
                0.5,
            ));
        let mut sentinel = Sentinel::new(policy, &registry);
        let mut t = 0u64;
        // 43 rule-series evaluations per observe: 40 country surges, the
        // spend burn rate, the hold threshold, and the NiP drift.
        cases.push(PerfCase::with_units("sentinel", "rule_eval", 43.0, {
            move || {
                t += 1;
                // One 5-minute housekeeping tick's worth of traffic.
                for (i, c) in counters.iter().enumerate() {
                    c.add(1 + (splitmix64(t * 41 + i as u64) % 3));
                }
                holds.add(2);
                nip.record(1.0 + (splitmix64(t) % 4) as f64);
                spend.add(0.2);
                let snap = registry.snapshot();
                sentinel.observe(SimTime::from_mins(t * 5), &snap);
                std::hint::black_box(sentinel.events().len());
            }
        }));
    }
    {
        use fg_sentinel::engine::{AlertEvent, AlertTransition};
        use fg_sentinel::{incident, AlertPolicy};

        let policy = AlertPolicy::named("bench").campaign(SimTime::from_hours(1), 7);
        let events: Vec<AlertEvent> = (0..200)
            .map(|i| AlertEvent {
                at: SimTime::from_mins(60 + i * 3),
                rule: "sms-country-surge".to_owned(),
                series: format!("fg_sms_sent_total{{country=\"C{}\"}}", i % 40),
                event: match i % 3 {
                    0 => AlertTransition::Pending,
                    1 => AlertTransition::Firing,
                    _ => AlertTransition::Resolved,
                },
                value: 12.0,
                threshold: 8.0,
            })
            .collect();
        let mut trail = AuditTrail::new(4096);
        for i in 0..2_000u64 {
            // Every 8th record is the attacker, rotating fingerprints every
            // 50 of its requests; the rest is legitimate background.
            let attacker = i.is_multiple_of(8);
            trail.push(AuditRecord {
                at: SimTime::from_secs(i * 30),
                endpoint: "/booking/hold".to_owned(),
                client: if attacker { 7 } else { 1_000 + i % 64 },
                fingerprint: if attacker {
                    splitmix64(i / 50)
                } else {
                    splitmix64(1_000_000 + i)
                },
                ip: "10.0.0.1".to_owned(),
                score: 0.3,
                signals: Vec::new(),
                decision: if attacker && i > 1_000 {
                    "challenge".to_owned()
                } else {
                    "allow".to_owned()
                },
                reasons: Vec::new(),
                trace_id: fg_core::hash::trace_id(if attacker { 7 } else { 1_000 + i % 64 }, i),
            });
        }
        let audit = trail.snapshot();
        let end = SimTime::from_days(1);
        cases.push(PerfCase::with_units(
            "sentinel",
            "incident_correlation",
            2_200.0,
            move || {
                std::hint::black_box(incident::build(&policy, &events, &audit, end, 0, None));
            },
        ));
    }

    // --- serve: the serving layer's per-request costs — the HTTP parse and
    // the full in-process decide-handler round trip (JSON in → decision
    // core → JSON out), i.e. everything `POST /v1/decide` does above the
    // socket and below it respectively.
    {
        use fg_serve::http::{read_request, Limits};
        let workload = fg_scenario::workload::generate(&fg_scenario::workload::WorkloadConfig {
            seed: 42,
            horizon_hours: 1,
            arrivals_per_day: 200.0,
            seat_spinner: true,
            sms_pumper: false,
        });
        let raw: Vec<Vec<u8>> = workload
            .requests
            .iter()
            .take(64)
            .map(|r| {
                let body = serde_json::to_string(r).expect("request serializes");
                let mut bytes = format!(
                    "POST /v1/decide HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
                    body.len()
                )
                .into_bytes();
                bytes.extend_from_slice(body.as_bytes());
                bytes
            })
            .collect();
        let limits = Limits::default();
        let mut t = 0usize;
        cases.push(PerfCase::new("serve", "request_parse", {
            move || {
                t += 1;
                let bytes = &raw[t % raw.len()];
                std::hint::black_box(
                    read_request(&mut std::io::Cursor::new(bytes.as_slice()), &limits)
                        .expect("canned request parses"),
                );
            }
        }));

        use fg_serve::{DecisionService, ServeConfig};
        let service = DecisionService::new(
            &ServeConfig::recommended(),
            fg_telemetry::Telemetry::shared(),
        );
        let requests: Vec<fg_scenario::workload::WireRequest> =
            workload.requests.into_iter().take(256).collect();
        let mut t = 0u64;
        cases.push(PerfCase::new("serve", "decide_handler", {
            move || {
                t += 1;
                let mut req = requests[t as usize % requests.len()].clone();
                // Monotone session clock: housekeeping ticks fire on cadence
                // and per-key windows stay bounded over long measurements.
                req.now_ms = t * 50;
                let body = serde_json::to_string(&req).expect("request serializes");
                let wire: fg_scenario::workload::WireRequest =
                    serde_json::from_str(&body).expect("request parses");
                let decision = service.decide(&wire);
                std::hint::black_box(
                    serde_json::to_string(&decision).expect("decision serializes"),
                );
            }
        }));
    }

    // --- simulation: end-to-end defended-app throughput on a small Case A.
    let case_a_config = case_a::CaseAConfig {
        departure_day: 3,
        cap_day: 1,
        arrivals_per_day: 40.0,
        ..case_a::CaseAConfig::default()
    };
    // Count the requests one run serves so the metric reads as application
    // events/sec, not runs/sec.
    let case_a_requests: u64 = {
        let telemetry = fg_telemetry::Telemetry::shared();
        case_a::run_observed(case_a_config.clone(), telemetry.clone());
        telemetry
            .snapshot()
            .metrics
            .counters
            .iter()
            .filter(|c| c.name.name == "fg_requests_total")
            .map(|c| c.value)
            .sum()
    };
    cases.push(PerfCase::with_units(
        "simulation",
        "case_a_smoke_run",
        case_a_requests.max(1) as f64,
        move || {
            std::hint::black_box(case_a::run(case_a_config.clone()));
        },
    ));

    // --- scaling: the sharded stores at fleet-scale key counts.
    {
        // Residency at fleet scale: a limiter tracking 10M keys (100k under
        // debug assertions, so tests stay quick). Population is lazy — only
        // a run that actually measures this case pays for materializing it.
        const TRACKED: u64 = if cfg!(debug_assertions) {
            100_000
        } else {
            10_000_000
        };
        let mut limiter: Option<KeyedLimiter<u64>> = None;
        let mut t = 0u64;
        cases.push(PerfCase::new("scaling", "sharded_keys_10m", {
            move || {
                let limiter = limiter.get_or_insert_with(|| {
                    let mut l = KeyedLimiter::with_shards(1e6, 1e-3, 8);
                    for k in 0..TRACKED {
                        l.try_acquire(k, SimTime::ZERO);
                    }
                    l
                });
                t += 1;
                let key = splitmix64(t) % TRACKED;
                std::hint::black_box(limiter.try_acquire(key, SimTime::from_millis(t)));
            }
        }));
    }

    cases
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(ns: f64) -> BenchMetric {
        BenchMetric::from_ns(ns, 1.0)
    }

    fn baseline_of(pairs: &[(&str, f64)]) -> Baseline {
        Baseline {
            schema: BASELINE_SCHEMA,
            note: "test".to_owned(),
            metrics: pairs
                .iter()
                .map(|(k, v)| ((*k).to_owned(), metric(*v)))
                .collect(),
        }
    }

    #[test]
    fn every_case_runs_and_groups_cover_the_hot_paths() {
        let mut cases = cases();
        let mut groups = std::collections::BTreeSet::new();
        let mut names = std::collections::BTreeSet::new();
        for case in &mut cases {
            case.run_once();
            groups.insert(case.group);
            assert!(
                names.insert(case.full_name()),
                "duplicate case {}",
                case.full_name()
            );
            assert!(case.units_per_op >= 1.0);
        }
        for expected in [
            "calibration",
            "detection_engine",
            "feature_extraction",
            "name_heuristics",
            "fingerprint",
            "population_linking",
            "rate_limiting",
            "velocity",
            "policy",
            "telemetry",
            "tracing",
            "sentinel",
            "serve",
            "simulation",
            "scaling",
        ] {
            assert!(groups.contains(expected), "missing group {expected}");
        }
        assert!(groups.len() >= 8, "suite has {} groups", groups.len());
    }

    #[test]
    fn measure_produces_consistent_rates() {
        let mut case = PerfCase::with_units("t", "noop", 4.0, || {
            std::hint::black_box(1 + 1);
        });
        let opts = MeasureOpts {
            sample_budget_ns: 200_000,
            samples: 3,
            warmup_ns: 50_000,
        };
        let m = measure(&mut case, &opts);
        assert!(m.ns_per_op > 0.0);
        assert!((m.ops_per_sec - 1e9 / m.ns_per_op).abs() / m.ops_per_sec < 1e-9);
        assert!((m.events_per_sec - m.ops_per_sec * 4.0).abs() / m.events_per_sec < 1e-9);
    }

    #[test]
    fn baseline_round_trips_through_json() {
        let b = baseline_of(&[(CALIBRATION_METRIC, 100.0), ("g/fast", 50.0)]);
        let parsed = Baseline::from_json(&b.to_json()).expect("parses");
        assert_eq!(parsed, b);
    }

    #[test]
    fn baseline_rejects_unknown_schema() {
        let mut b = baseline_of(&[("g/x", 1.0)]);
        b.schema = 999;
        let err = Baseline::from_json(&b.to_json()).unwrap_err();
        assert!(err.contains("schema"), "{err}");
    }

    #[test]
    fn comparator_detects_regression() {
        let base = baseline_of(&[(CALIBRATION_METRIC, 100.0), ("g/hot", 100.0)]);
        let cur = baseline_of(&[(CALIBRATION_METRIC, 100.0), ("g/hot", 200.0)]);
        let report = compare(&base, &cur);
        let row = report.rows.iter().find(|r| r.metric == "g/hot").unwrap();
        assert_eq!(row.status, MetricStatus::Regressed);
        assert!(report.failed());
        assert!(report.render().contains("FAIL"));
    }

    #[test]
    fn comparator_hard_fails_order_of_magnitude() {
        let base = baseline_of(&[(CALIBRATION_METRIC, 100.0), ("g/hot", 100.0)]);
        let cur = baseline_of(&[(CALIBRATION_METRIC, 100.0), ("g/hot", 1500.0)]);
        let report = compare(&base, &cur);
        let row = report.rows.iter().find(|r| r.metric == "g/hot").unwrap();
        assert_eq!(row.status, MetricStatus::HardRegressed);
    }

    #[test]
    fn comparator_accepts_improvement() {
        let base = baseline_of(&[(CALIBRATION_METRIC, 100.0), ("g/hot", 100.0)]);
        let cur = baseline_of(&[(CALIBRATION_METRIC, 100.0), ("g/hot", 20.0)]);
        let report = compare(&base, &cur);
        let row = report.rows.iter().find(|r| r.metric == "g/hot").unwrap();
        assert_eq!(row.status, MetricStatus::Improved);
        assert!(!report.failed(), "improvements pass the gate");
    }

    #[test]
    fn committed_baseline_names_exactly_the_built_cases() {
        // A case missing from the baseline would pass the gate as `new`,
        // that is ungated: adding a case means re-blessing.
        let text = include_str!("../../../BENCH_baseline.json");
        let committed = Baseline::from_json(text).expect("committed baseline parses");
        assert_eq!(
            committed.to_json() + "\n",
            text,
            "--bless writes this format"
        );
        let blessed: std::collections::BTreeSet<String> =
            committed.metrics.keys().cloned().collect();
        let built: std::collections::BTreeSet<String> =
            cases().iter().map(PerfCase::full_name).collect();
        assert_eq!(blessed, built, "re-bless BENCH_baseline.json");
    }

    #[test]
    fn comparator_flags_missing_and_new_metrics() {
        let base = baseline_of(&[(CALIBRATION_METRIC, 100.0), ("g/old", 100.0)]);
        let cur = baseline_of(&[(CALIBRATION_METRIC, 100.0), ("g/new", 100.0)]);
        let report = compare(&base, &cur);
        let old = report.rows.iter().find(|r| r.metric == "g/old").unwrap();
        let new = report.rows.iter().find(|r| r.metric == "g/new").unwrap();
        assert_eq!(old.status, MetricStatus::Missing);
        assert_eq!(new.status, MetricStatus::New);
        assert!(report.failed(), "a vanished metric fails the gate");
        assert!(!new.status.is_failure(), "a new metric alone passes");
    }

    #[test]
    fn normalization_cancels_uniform_machine_slowdown() {
        let base = baseline_of(&[(CALIBRATION_METRIC, 100.0), ("g/hot", 100.0)]);
        // Same code on a 3x slower machine: everything scales together.
        let cur = baseline_of(&[(CALIBRATION_METRIC, 300.0), ("g/hot", 300.0)]);
        let report = compare(&base, &cur);
        assert!((report.scale - 3.0).abs() < 1e-12);
        let row = report.rows.iter().find(|r| r.metric == "g/hot").unwrap();
        assert_eq!(row.status, MetricStatus::Ok);
        assert!(!report.failed());
    }

    #[test]
    fn run_suite_quick_always_includes_calibration() {
        let b = run_suite(Some("name_heuristics"), &MeasureOpts::quick(), "test");
        assert!(b.metrics.contains_key(CALIBRATION_METRIC));
        assert!(b.metrics.keys().any(|k| k.starts_with("name_heuristics/")));
        assert!(b.metrics.len() < cases().len(), "filter narrowed the suite");
    }
}
