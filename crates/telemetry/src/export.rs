//! Exporters: a JSON artifact (via `serde_json`) and Prometheus text
//! exposition format. The ASCII table renderer lives in
//! `fg_scenario::report`, which already owns table layout for the rest of
//! the reports.

use crate::audit::AuditSnapshot;
use crate::metrics::{MetricName, MetricsSnapshot};
use crate::profile::StageSnapshot;
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// A complete point-in-time export of a [`crate::Telemetry`] instance.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TelemetrySnapshot {
    /// Counters, gauges, histograms.
    pub metrics: MetricsSnapshot,
    /// Per-stage latency statistics.
    pub stages: Vec<StageSnapshot>,
    /// The decision audit trail.
    pub audit: AuditSnapshot,
}

impl TelemetrySnapshot {
    /// Renders the snapshot as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("telemetry snapshots serialize cleanly")
    }

    /// Folds `other` into `self`, combining per-replicate snapshots from a
    /// multi-seed experiment run into one fleet-wide view.
    ///
    /// Semantics per section:
    ///
    /// - **Counters and gauges** sum by metric identity (name + labels).
    ///   Summing gauges is the useful reading for the gauges this codebase
    ///   exports (tracked-key map sizes): the merged value is the total
    ///   defence state held across all replicates.
    /// - **Histograms** with identical bounds sum bucket-wise (plus `count`
    ///   and `sum`); a histogram whose bounds differ from an already-merged
    ///   namesake is kept as a separate entry rather than silently mangled.
    /// - **Latency histograms** (log-linear) sum bucket-wise; exemplars
    ///   union and re-sort by latency.
    /// - **Stages** combine by name by merging their log-linear histograms
    ///   bucket-wise — *exact*: the merged percentiles are the percentiles
    ///   of the union of the samples (within the layout's
    ///   [`crate::hist::RELATIVE_ERROR`] bucket error), not a count-weighted
    ///   average of per-shard percentiles, which skews badly when shards
    ///   have different tail shapes.
    /// - **Audit** totals (`recorded`, `evicted`, per-decision counts) add;
    ///   retained records concatenate and re-sort by simulation time so the
    ///   merged trail reads chronologically.
    pub fn merge(&mut self, other: &TelemetrySnapshot) {
        merge_samples(
            &mut self.metrics.counters,
            &other.metrics.counters,
            |c| c.name.clone(),
            |into, from| into.value += from.value,
        );
        merge_samples(
            &mut self.metrics.gauges,
            &other.metrics.gauges,
            |g| g.name.clone(),
            |into, from| into.value += from.value,
        );
        for h in &other.metrics.histograms {
            match self
                .metrics
                .histograms
                .iter_mut()
                .find(|mine| mine.name == h.name && mine.bounds == h.bounds)
            {
                Some(mine) => {
                    for (b, add) in mine.buckets.iter_mut().zip(&h.buckets) {
                        *b += add;
                    }
                    mine.count += h.count;
                    mine.sum += h.sum;
                }
                None => self.metrics.histograms.push(h.clone()),
            }
        }
        self.metrics.histograms.sort_by(|a, b| a.name.cmp(&b.name));

        for l in &other.metrics.latencies {
            match self
                .metrics
                .latencies
                .iter_mut()
                .find(|mine| mine.name == l.name)
            {
                Some(mine) => {
                    mine.hist.merge(&l.hist);
                    mine.exemplars.extend(l.exemplars.iter().copied());
                    mine.exemplars.sort_by_key(|e| e.nanos);
                }
                None => self.metrics.latencies.push(l.clone()),
            }
        }
        self.metrics.latencies.sort_by(|a, b| a.name.cmp(&b.name));

        for (name, help) in &other.metrics.help {
            if !self.metrics.help.iter().any(|(n, _)| n == name) {
                self.metrics.help.push((name.clone(), help.clone()));
            }
        }
        self.metrics.help.sort();

        for s in &other.stages {
            match self.stages.iter_mut().find(|mine| mine.stage == s.stage) {
                Some(mine) => {
                    mine.hist.merge(&s.hist);
                    mine.refresh_derived();
                }
                None => self.stages.push(s.clone()),
            }
        }
        self.stages.sort_by(|a, b| a.stage.cmp(&b.stage));

        self.audit.recorded += other.audit.recorded;
        self.audit.evicted += other.audit.evicted;
        for (decision, n) in &other.audit.decision_totals {
            match self
                .audit
                .decision_totals
                .iter_mut()
                .find(|(d, _)| d == decision)
            {
                Some((_, mine)) => *mine += n,
                None => self.audit.decision_totals.push((decision.clone(), *n)),
            }
        }
        self.audit.decision_totals.sort();
        self.audit
            .records
            .extend(other.audit.records.iter().cloned());
        self.audit.records.sort_by_key(|r| r.at);
    }

    /// Merges every snapshot in `snaps` into one (see
    /// [`TelemetrySnapshot::merge`]); `None` when the iterator is empty.
    pub fn merged<I>(snaps: I) -> Option<TelemetrySnapshot>
    where
        I: IntoIterator<Item = TelemetrySnapshot>,
    {
        let mut iter = snaps.into_iter();
        let mut first = iter.next()?;
        for snap in iter {
            first.merge(&snap);
        }
        Some(first)
    }

    /// Renders metrics and stage latencies in Prometheus text exposition
    /// format. Stage latencies appear as `summary` metrics in seconds under
    /// `fg_stage_latency_seconds`; the audit trail is JSON-only.
    pub fn to_prometheus(&self) -> String {
        render_prometheus(&self.metrics, &self.stages)
    }
}

/// The Prometheus text renderer behind [`TelemetrySnapshot::to_prometheus`]
/// and [`crate::Telemetry::to_prometheus`]: it reads only the metrics and
/// the stages, so the live hub can render without copying its audit trail.
pub(crate) fn render_prometheus(metrics: &MetricsSnapshot, stages: &[StageSnapshot]) -> String {
    let mut out = String::new();

    let mut last_type_header = String::new();
    let mut type_header = |out: &mut String, name: &str, kind: &str| {
        if last_type_header != name {
            if let Some(help) = metrics.help_for(name) {
                let _ = writeln!(out, "# HELP {name} {}", escape_help(help));
            }
            let _ = writeln!(out, "# TYPE {name} {kind}");
            last_type_header = name.to_owned();
        }
    };

    for c in &metrics.counters {
        let name = sanitize(&c.name.name);
        type_header(&mut out, &name, "counter");
        let _ = writeln!(out, "{}{} {}", name, render_labels(&c.name, &[]), c.value);
    }
    for g in &metrics.gauges {
        let name = sanitize(&g.name.name);
        type_header(&mut out, &name, "gauge");
        let _ = writeln!(
            out,
            "{}{} {}",
            name,
            render_labels(&g.name, &[]),
            render_f64(g.value)
        );
    }
    for h in &metrics.histograms {
        let name = sanitize(&h.name.name);
        type_header(&mut out, &name, "histogram");
        let mut cumulative = 0u64;
        for (i, bucket) in h.buckets.iter().enumerate() {
            cumulative += bucket;
            let le = match h.bounds.get(i) {
                Some(b) => render_f64(*b),
                None => "+Inf".to_owned(),
            };
            let _ = writeln!(
                out,
                "{}_bucket{} {}",
                name,
                render_labels(&h.name, &[("le", &le)]),
                cumulative
            );
        }
        let _ = writeln!(
            out,
            "{}_sum{} {}",
            name,
            render_labels(&h.name, &[]),
            render_f64(h.sum)
        );
        let _ = writeln!(
            out,
            "{}_count{} {}",
            name,
            render_labels(&h.name, &[]),
            h.count
        );
    }

    for l in &metrics.latencies {
        let name = sanitize(&l.name.name);
        type_header(&mut out, &name, "histogram");
        // Exemplars keyed by the rendered bucket they fall in; when two
        // land in one bucket the slower wins (they arrive sorted).
        let mut exemplar_at: Vec<(usize, crate::hist::Exemplar)> = Vec::new();
        for e in &l.exemplars {
            let idx = crate::hist::bucket_index(e.nanos);
            match exemplar_at.iter_mut().find(|(i, _)| *i == idx) {
                Some(slot) => slot.1 = *e,
                None => exemplar_at.push((idx, *e)),
            }
        }
        let mut cumulative = 0u64;
        for &(idx, bucket_count) in &l.hist.buckets {
            cumulative += bucket_count;
            let le = render_f64(crate::hist::bucket_high(idx as usize) as f64 * 1e-9);
            let _ = write!(
                out,
                "{}_bucket{} {}",
                name,
                render_labels(&l.name, &[("le", &le)]),
                cumulative
            );
            if let Some((_, e)) = exemplar_at.iter().find(|(i, _)| *i == idx as usize) {
                // OpenMetrics exemplar: `# {trace_id="…"} value`.
                let _ = write!(
                    out,
                    " # {{trace_id=\"{:016x}\"}} {}",
                    e.trace_id,
                    render_f64(e.nanos as f64 * 1e-9)
                );
            }
            let _ = writeln!(out);
        }
        let _ = writeln!(
            out,
            "{}_bucket{} {}",
            name,
            render_labels(&l.name, &[("le", "+Inf")]),
            l.hist.count
        );
        let _ = writeln!(
            out,
            "{}_sum{} {}",
            name,
            render_labels(&l.name, &[]),
            render_f64(l.hist.sum as f64 * 1e-9)
        );
        let _ = writeln!(
            out,
            "{}_count{} {}",
            name,
            render_labels(&l.name, &[]),
            l.hist.count
        );
    }

    if !stages.is_empty() {
        let name = "fg_stage_latency_seconds";
        if let Some(help) = metrics.help_for(name) {
            let _ = writeln!(out, "# HELP {name} {}", escape_help(help));
        }
        let _ = writeln!(out, "# TYPE {name} summary");
        for s in stages {
            for (q, v_us) in [("0.5", s.p50_us), ("0.95", s.p95_us), ("0.99", s.p99_us)] {
                let _ = writeln!(
                    out,
                    "{name}{{stage=\"{}\",quantile=\"{q}\"}} {}",
                    escape_label(&s.stage),
                    render_f64(v_us * 1e-6)
                );
            }
            let _ = writeln!(
                out,
                "{name}_sum{{stage=\"{}\"}} {}",
                escape_label(&s.stage),
                render_f64(s.total_ms * 1e-3)
            );
            let _ = writeln!(
                out,
                "{name}_count{{stage=\"{}\"}} {}",
                escape_label(&s.stage),
                s.count
            );
        }
    }

    out
}

/// Folds `from` into `into` by metric identity: matching entries combine via
/// `combine`, novel ones append; the result is re-sorted by identity so
/// merge order never shows in the output.
fn merge_samples<T: Clone>(
    into: &mut Vec<T>,
    from: &[T],
    key: impl Fn(&T) -> MetricName,
    combine: impl Fn(&mut T, &T),
) {
    for sample in from {
        match into.iter_mut().find(|mine| key(mine) == key(sample)) {
            Some(mine) => combine(mine, sample),
            None => into.push(sample.clone()),
        }
    }
    into.sort_by_key(&key);
}

/// Restricts a metric name to Prometheus' `[a-zA-Z0-9_:]` alphabet.
fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// Escapes `# HELP` text per the exposition format (backslash and newline
/// only; quotes are legal in help text).
fn escape_help(text: &str) -> String {
    text.replace('\\', "\\\\").replace('\n', "\\n")
}

/// Escapes a label value per the exposition format.
fn escape_label(value: &str) -> String {
    value
        .replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Renders `{k="v",...}` combining a metric's own labels with extras
/// (used for histogram `le`). Empty when there are no labels at all.
fn render_labels(name: &MetricName, extra: &[(&str, &str)]) -> String {
    if name.labels.is_empty() && extra.is_empty() {
        return String::new();
    }
    let mut parts = Vec::with_capacity(name.labels.len() + extra.len());
    for (k, v) in &name.labels {
        parts.push(format!("{}=\"{}\"", sanitize(k), escape_label(v)));
    }
    for (k, v) in extra {
        parts.push(format!("{k}=\"{}\"", escape_label(v)));
    }
    format!("{{{}}}", parts.join(","))
}

/// Prometheus-friendly float rendering: integral values keep a trailing
/// `.0`-free form only where unambiguous; non-finite values are spelled out.
fn render_f64(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_owned()
    } else if v.is_infinite() {
        if v > 0.0 { "+Inf" } else { "-Inf" }.to_owned()
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::AuditTrail;
    use crate::metrics::MetricsRegistry;
    use crate::profile::StageProfiler;
    use std::time::Duration;

    fn sample_snapshot() -> TelemetrySnapshot {
        let registry = MetricsRegistry::new();
        registry.set_help("fg_sms_sent_total", "Delivered SMS by country");
        registry
            .counter_with("fg_sms_sent_total", &[("country", "UZ")])
            .add(12);
        registry.gauge("fg_ticket_revenue_units").set(1234.5);
        let h = registry.histogram("fg_detection_score", &[0.25, 0.5, 0.75, 1.0]);
        h.record(0.1);
        h.record(0.6);
        h.record(0.97);
        let mut profiler = StageProfiler::new();
        profiler.record_named("policy.decide", Duration::from_micros(20));
        TelemetrySnapshot {
            metrics: registry.snapshot(),
            stages: profiler.snapshot(),
            audit: AuditTrail::new(4).snapshot(),
        }
    }

    #[test]
    fn prometheus_renders_counters_gauges_histograms() {
        let text = sample_snapshot().to_prometheus();
        assert!(text.contains("# TYPE fg_sms_sent_total counter"), "{text}");
        assert!(
            text.contains("fg_sms_sent_total{country=\"UZ\"} 12"),
            "{text}"
        );
        assert!(text.contains("fg_ticket_revenue_units 1234.5"), "{text}");
        assert!(
            text.contains("# TYPE fg_detection_score histogram"),
            "{text}"
        );
        // Buckets are cumulative and end at +Inf.
        assert!(
            text.contains("fg_detection_score_bucket{le=\"0.25\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("fg_detection_score_bucket{le=\"0.75\"} 2"),
            "{text}"
        );
        assert!(
            text.contains("fg_detection_score_bucket{le=\"+Inf\"} 3"),
            "{text}"
        );
        assert!(text.contains("fg_detection_score_count 3"), "{text}");
        // Stage latencies render as a summary in seconds.
        assert!(
            text.contains("fg_stage_latency_seconds{stage=\"policy.decide\",quantile=\"0.5\"}"),
            "{text}"
        );
        assert!(
            text.contains("fg_stage_latency_seconds_count{stage=\"policy.decide\"} 1"),
            "{text}"
        );
    }

    #[test]
    fn prometheus_emits_help_before_type() {
        let text = sample_snapshot().to_prometheus();
        let help_at = text
            .find("# HELP fg_sms_sent_total Delivered SMS by country")
            .expect("HELP line present");
        let type_at = text
            .find("# TYPE fg_sms_sent_total counter")
            .expect("TYPE line present");
        assert!(help_at < type_at, "HELP precedes TYPE:\n{text}");
        // Metrics without registered help simply have no HELP line.
        assert!(!text.contains("# HELP fg_ticket_revenue_units"), "{text}");
    }

    #[test]
    fn help_text_is_escaped() {
        let registry = MetricsRegistry::new();
        registry.set_help("fg_x_total", "line one\nback\\slash");
        registry.counter("fg_x_total").inc();
        let snap = TelemetrySnapshot {
            metrics: registry.snapshot(),
            stages: Vec::new(),
            audit: AuditTrail::new(4).snapshot(),
        };
        assert!(snap
            .to_prometheus()
            .contains("# HELP fg_x_total line one\\nback\\\\slash"));
    }

    #[test]
    fn merge_unions_help_first_wins() {
        let registry = MetricsRegistry::new();
        registry.set_help("fg_a_total", "mine");
        let mut a = TelemetrySnapshot {
            metrics: registry.snapshot(),
            stages: Vec::new(),
            audit: AuditTrail::new(4).snapshot(),
        };
        let registry = MetricsRegistry::new();
        registry.set_help("fg_a_total", "theirs");
        registry.set_help("fg_b_total", "only theirs");
        let b = TelemetrySnapshot {
            metrics: registry.snapshot(),
            stages: Vec::new(),
            audit: AuditTrail::new(4).snapshot(),
        };
        a.merge(&b);
        assert_eq!(a.metrics.help_for("fg_a_total"), Some("mine"));
        assert_eq!(a.metrics.help_for("fg_b_total"), Some("only theirs"));
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let snap = sample_snapshot();
        let json = snap.to_json();
        let back: TelemetrySnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn merge_sums_metrics_and_combines_stages() {
        let mut a = sample_snapshot();
        let b = sample_snapshot();
        a.merge(&b);
        assert_eq!(
            a.metrics
                .counter_value("fg_sms_sent_total", &[("country", "UZ")]),
            Some(24)
        );
        assert_eq!(
            a.metrics.gauge_value("fg_ticket_revenue_units", &[]),
            Some(2469.0)
        );
        let h = &a.metrics.histograms[0];
        assert_eq!(h.count, 6);
        assert_eq!(h.buckets.iter().sum::<u64>(), 6);
        assert!((h.sum - 2.0 * (0.1 + 0.6 + 0.97)).abs() < 1e-9);
        let s = &a.stages[0];
        assert_eq!(s.stage, "policy.decide");
        assert_eq!(s.count, 2);
        assert!((s.mean_us - 20.0).abs() < 1e-9);
        assert!((s.max_us - 20.0).abs() < 1e-9);
    }

    #[test]
    fn merge_keeps_disjoint_entries_and_sorts() {
        let registry = MetricsRegistry::new();
        registry.counter("zz_total").add(1);
        let mut a = TelemetrySnapshot {
            metrics: registry.snapshot(),
            stages: Vec::new(),
            audit: AuditTrail::new(4).snapshot(),
        };
        let registry = MetricsRegistry::new();
        registry.counter("aa_total").add(2);
        let b = TelemetrySnapshot {
            metrics: registry.snapshot(),
            stages: Vec::new(),
            audit: AuditTrail::new(4).snapshot(),
        };
        a.merge(&b);
        let names: Vec<&str> = a
            .metrics
            .counters
            .iter()
            .map(|c| c.name.name.as_str())
            .collect();
        assert_eq!(names, ["aa_total", "zz_total"], "re-sorted by identity");
    }

    /// The regression the merge rewrite exists for: two shards with very
    /// different tail shapes. Count-weighted averaging of per-shard p99s
    /// reported ~½ the true fleet p99; bucket-wise histogram merge reports
    /// the p99 of the union.
    #[test]
    fn two_skewed_shards_merge_to_the_true_p99() {
        // Shard A: 99 fast samples (1 µs). Shard B: 99 slow ones (10 ms).
        let mut fast = StageProfiler::new();
        let mut slow = StageProfiler::new();
        for _ in 0..99 {
            fast.record_named("policy.decide", Duration::from_micros(1));
            slow.record_named("policy.decide", Duration::from_millis(10));
        }
        let empty = || TelemetrySnapshot {
            metrics: MetricsRegistry::new().snapshot(),
            stages: Vec::new(),
            audit: AuditTrail::new(4).snapshot(),
        };
        let mut a = empty();
        a.stages = fast.snapshot();
        let mut b = empty();
        b.stages = slow.snapshot();

        // The old count-weighted average would have said:
        let averaged = (a.stages[0].p99_us * 99.0 + b.stages[0].p99_us * 99.0) / 198.0;

        a.merge(&b);
        let merged_p99 = a.stages[0].p99_us;
        // True union: 198 samples, rank ceil(0.99·198)=197 → a 10 ms sample.
        let exact_us = 10_000.0;
        assert!(
            (merged_p99 - exact_us).abs() <= exact_us * crate::hist::RELATIVE_ERROR,
            "merged p99 {merged_p99} µs should be ~{exact_us} µs"
        );
        assert!(
            averaged < exact_us * 0.6,
            "the old averaging really was wrong ({averaged} µs)"
        );
        assert_eq!(a.stages[0].count, 198);
    }

    #[test]
    fn latency_histograms_render_natively_with_exemplars() {
        let registry = MetricsRegistry::new();
        registry.set_help("fg_http_request_duration_seconds", "Request latency");
        let l = registry.latency_with(
            "fg_http_request_duration_seconds",
            &[("endpoint", "/v1/decide")],
        );
        l.record(Duration::from_micros(80));
        l.record_with_exemplar(Duration::from_millis(25), 0xDEAD_BEEF);
        let snap = TelemetrySnapshot {
            metrics: registry.snapshot(),
            stages: Vec::new(),
            audit: AuditTrail::new(4).snapshot(),
        };
        let text = snap.to_prometheus();
        assert!(
            text.contains("# TYPE fg_http_request_duration_seconds histogram"),
            "{text}"
        );
        assert!(
            text.contains(
                "fg_http_request_duration_seconds_bucket{endpoint=\"/v1/decide\",le=\"+Inf\"} 2"
            ),
            "{text}"
        );
        assert!(
            text.contains("# {trace_id=\"00000000deadbeef\"}"),
            "exemplar rendered: {text}"
        );
        assert!(
            text.contains("fg_http_request_duration_seconds_count{endpoint=\"/v1/decide\"} 2"),
            "{text}"
        );
    }

    #[test]
    fn latency_series_merge_bucket_wise_with_exemplar_union() {
        let mk = |nanos: u64, id: u64| {
            let registry = MetricsRegistry::new();
            let l = registry.latency("fg_http_request_duration_seconds");
            l.record_with_exemplar(Duration::from_nanos(nanos), id);
            TelemetrySnapshot {
                metrics: registry.snapshot(),
                stages: Vec::new(),
                audit: AuditTrail::new(4).snapshot(),
            }
        };
        let mut a = mk(50_000, 0xA);
        let b = mk(40_000_000, 0xB);
        a.merge(&b);
        let merged = &a.metrics.latencies[0];
        assert_eq!(merged.hist.count, 2);
        assert_eq!(merged.exemplars.len(), 2);
        assert_eq!(merged.exemplars[0].trace_id, 0xA);
        assert_eq!(merged.exemplars[1].trace_id, 0xB);
    }

    #[test]
    fn merged_folds_an_iterator_of_snapshots() {
        assert_eq!(TelemetrySnapshot::merged(std::iter::empty()), None);
        let out =
            TelemetrySnapshot::merged([sample_snapshot(), sample_snapshot(), sample_snapshot()])
                .unwrap();
        assert_eq!(
            out.metrics
                .counter_value("fg_sms_sent_total", &[("country", "UZ")]),
            Some(36)
        );
    }

    #[test]
    fn names_are_sanitized_and_labels_escaped() {
        assert_eq!(sanitize("detect.ip-velocity"), "detect_ip_velocity");
        assert_eq!(escape_label("say \"hi\"\n"), "say \\\"hi\\\"\\n");
    }
}
