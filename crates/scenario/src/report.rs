//! Plain-text table rendering and JSON export for experiment reports.

use fg_telemetry::StageSnapshot;
use serde::Serialize;
use std::fmt::Write as _;

/// Display width of a cell in characters (formatting widths in Rust pad by
/// character, so byte length would misalign any non-ASCII cell).
fn cell_width(s: &str) -> usize {
    s.chars().count()
}

/// Renders a sentinel report as a console block: the alert-event stream's
/// verdict line, time-to-detection, and the correlated incident timeline.
pub fn render_sentinel_report(report: &fg_sentinel::SentinelReport) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "sentinel '{}': {} observations, {} rule evaluations, {} alert events",
        report.policy.name,
        report.observations,
        report.evaluations,
        report.events.len()
    );
    match (report.time_to_detection, report.policy.expect_detection) {
        (Some(ttd), _) => {
            let _ = writeln!(
                out,
                "time to detection: {:.1} min (first firing at {})",
                ttd.as_secs_f64() / 60.0,
                report.first_firing.expect("detection implies a firing"),
            );
        }
        (None, false) => {
            let _ = writeln!(
                out,
                "no detection — expected: this policy documents a monitoring blind spot"
            );
        }
        (None, true) => {
            let _ = writeln!(
                out,
                "NO DETECTION (policy expected the attack to be caught)"
            );
        }
    }
    let rows: Vec<Vec<String>> = report
        .incident
        .entries
        .iter()
        .map(|e| vec![e.at.to_string(), e.kind.clone(), e.detail.clone()])
        .collect();
    let _ = write!(out, "{}", render_table(&["When", "Event", "Detail"], &rows));
    if report.incident.ongoing_at_end {
        let _ = writeln!(out, "incident still ongoing at end of run");
    }
    out
}

/// Renders rows as a fixed-width ASCII table.
///
/// Rows shorter than the header are padded with empty cells; rows *longer*
/// than the header get extra unnamed columns so no cell is ever silently
/// dropped.
///
/// # Example
///
/// ```
/// use fg_scenario::report::render_table;
///
/// let s = render_table(
///     &["Country", "Increase"],
///     &[vec!["Uzbekistan".into(), "160,209%".into()]],
/// );
/// assert!(s.contains("Uzbekistan"));
/// assert!(s.contains("| Increase"));
/// ```
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let cols = headers
        .len()
        .max(rows.iter().map(Vec::len).max().unwrap_or(0));
    let mut widths = vec![0usize; cols];
    for (i, h) in headers.iter().enumerate() {
        widths[i] = cell_width(h);
    }
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell_width(cell));
        }
    }
    let mut out = String::new();
    let rule = |out: &mut String| {
        for &w in &widths {
            let _ = write!(out, "+-{}-", "-".repeat(w));
        }
        out.push_str("+\n");
    };
    rule(&mut out);
    for (i, &width) in widths.iter().enumerate() {
        let h = headers.get(i).copied().unwrap_or("");
        let _ = write!(out, "| {h:<width$} ");
    }
    out.push_str("|\n");
    rule(&mut out);
    for row in rows {
        for (i, &width) in widths.iter().enumerate() {
            let empty = String::new();
            let cell = row.get(i).unwrap_or(&empty);
            let _ = write!(out, "| {cell:<width$} ");
        }
        out.push_str("|\n");
    }
    rule(&mut out);
    out
}

/// Renders per-stage latency profiles (from
/// [`fg_telemetry::TelemetrySnapshot::stages`], the
/// `fg_stage_latency_seconds` family) as an ASCII table, one row per
/// stage in the order given.
pub fn render_stage_table(stages: &[StageSnapshot]) -> String {
    let rows: Vec<Vec<String>> = stages
        .iter()
        .map(|s| {
            vec![
                s.stage.clone(),
                s.count.to_string(),
                format!("{:.2}", s.total_ms),
                format!("{:.1}", s.mean_us),
                format!("{:.1}", s.p50_us),
                format!("{:.1}", s.p95_us),
                format!("{:.1}", s.p99_us),
                format!("{:.1}", s.max_us),
            ]
        })
        .collect();
    render_table(
        &[
            "Stage", "Calls", "Total ms", "Mean µs", "p50 µs", "p95 µs", "p99 µs", "Max µs",
        ],
        &rows,
    )
}

/// One scalar metric's cross-seed aggregate, as produced by the multi-seed
/// harness and rendered by [`render_aggregate_table`].
#[derive(Clone, Debug, PartialEq, Serialize, serde::Deserialize)]
pub struct AggregateRow {
    /// Metric key, e.g. `recommended.pumping.attack_effect`.
    pub metric: String,
    /// Mean across seeds.
    pub mean: f64,
    /// Population standard deviation across seeds.
    pub std_dev: f64,
    /// Smallest per-seed value.
    pub min: f64,
    /// Largest per-seed value.
    pub max: f64,
    /// Number of seeds aggregated.
    pub n: usize,
}

/// Renders cross-seed aggregates as a `mean ± stddev [min, max]` table.
pub fn render_aggregate_table(rows: &[AggregateRow]) -> String {
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.metric.clone(),
                format!("{} ± {}", format_metric(r.mean), format_metric(r.std_dev)),
                format_metric(r.min),
                format_metric(r.max),
                r.n.to_string(),
            ]
        })
        .collect();
    render_table(&["Metric", "Mean ± σ", "Min", "Max", "Seeds"], &body)
}

/// Compact numeric cell: integers lose the decimal point, everything else
/// keeps four decimals (enough to tell seeds apart without drowning the
/// table).
fn format_metric(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v:.4}")
    }
}

/// Formats a percentage with thousands separators, Table-I style
/// (`160209.3` → `"160,209%"`).
pub fn format_pct(pct: f64) -> String {
    let rounded = pct.round() as i64;
    let mut digits = rounded.abs().to_string();
    let mut grouped = String::new();
    while digits.len() > 3 {
        let split = digits.len() - 3;
        grouped = format!(",{}{}", &digits[split..], grouped);
        digits.truncate(split);
    }
    format!(
        "{}{}{}%",
        if rounded < 0 { "-" } else { "" },
        digits,
        grouped
    )
}

/// Serializes any report to pretty JSON (for machine-readable artifacts).
pub fn to_json<T: Serialize>(report: &T) -> String {
    serde_json::to_string_pretty(report).expect("reports serialize cleanly")
}

/// Renders a share histogram as an ASCII stacked-bar-like block (one bar per
/// bucket) — the textual analogue of the paper's Fig. 1.
pub fn render_share_bars(label: &str, shares: &[f64], max_width: usize) -> String {
    let mut out = format!("{label}\n");
    for (value, &share) in shares.iter().enumerate() {
        if value == 0 {
            continue; // NiP 0 does not exist
        }
        let bar = "#".repeat((share * max_width as f64).round() as usize);
        let _ = writeln!(out, "  NiP {value}: {bar} {:.1}%", share * 100.0);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_aligns_columns() {
        let s = render_table(
            &["A", "Longer"],
            &[
                vec!["x".into(), "1".into()],
                vec!["yyyy".into(), "22".into()],
            ],
        );
        assert!(s.contains("| A    | Longer |"));
        assert!(s.contains("| yyyy | 22     |"));
        let widths: Vec<usize> = s.lines().map(str::len).collect();
        assert!(
            widths.windows(2).all(|w| w[0] == w[1]),
            "all lines equal width"
        );
    }

    #[test]
    fn ragged_rows_keep_every_cell() {
        // A row wider than the header grows the table instead of silently
        // dropping its tail; a narrower row is padded with blanks.
        let s = render_table(
            &["A", "B"],
            &[
                vec!["1".into(), "2".into(), "overflow".into()],
                vec!["3".into()],
            ],
        );
        assert!(s.contains("overflow"), "{s}");
        let widths: Vec<usize> = s.lines().map(|l| l.chars().count()).collect();
        assert!(widths.windows(2).all(|w| w[0] == w[1]), "{s}");
    }

    #[test]
    fn empty_rows_render_a_headers_only_table() {
        let s = render_table(&["Only", "Headers"], &[]);
        assert!(s.contains("| Only | Headers |"));
        assert_eq!(s.lines().count(), 4, "{s}"); // rule, header, rule, rule
    }

    #[test]
    fn unicode_cells_align_by_character_count() {
        let s = render_table(
            &["Stage", "p95 µs"],
            &[
                vec!["détect.assess".into(), "12.5".into()],
                vec!["policy".into(), "3.0".into()],
            ],
        );
        let widths: Vec<usize> = s.lines().map(|l| l.chars().count()).collect();
        assert!(
            widths.windows(2).all(|w| w[0] == w[1]),
            "columns misaligned:\n{s}"
        );
    }

    #[test]
    fn stage_table_renders_latency_columns() {
        use fg_telemetry::Telemetry;
        use std::time::Duration;

        let t = Telemetry::new();
        let assess = t.stage_latency("detect.assess");
        for us in [10, 20, 30] {
            assess.record(Duration::from_micros(us));
        }
        let s = render_stage_table(&t.snapshot().stages());
        assert!(s.contains("detect.assess"), "{s}");
        assert!(s.contains("| Calls"), "{s}");
        assert!(s.contains("p95 µs"), "{s}");
        // All three samples counted.
        assert!(s.contains("| 3 "), "{s}");
    }

    #[test]
    fn aggregate_table_renders_mean_plus_minus_sigma() {
        let rows = vec![
            AggregateRow {
                metric: "bookings".into(),
                mean: 1234.0,
                std_dev: 12.5,
                min: 1220.0,
                max: 1250.0,
                n: 4,
            },
            AggregateRow {
                metric: "sms_cost".into(),
                mean: 0.52,
                std_dev: 0.0,
                min: 0.52,
                max: 0.52,
                n: 4,
            },
        ];
        let s = render_aggregate_table(&rows);
        assert!(s.contains("Mean ± σ"), "{s}");
        assert!(s.contains("1234 ± 12.5000"), "{s}");
        assert!(s.contains("0.5200 ± 0"), "{s}");
        assert!(s.contains("| 4 "), "{s}");
    }

    #[test]
    fn pct_formatting_matches_table_one_style() {
        assert_eq!(format_pct(160_209.0), "160,209%");
        assert_eq!(format_pct(66_095.4), "66,095%");
        assert_eq!(format_pct(67.0), "67%");
        assert_eq!(format_pct(19.4), "19%");
        assert_eq!(format_pct(-12.6), "-13%");
        assert_eq!(format_pct(1_234_567.0), "1,234,567%");
    }

    #[test]
    fn share_bars_skip_bucket_zero() {
        let s = render_share_bars("week", &[0.5, 0.25, 0.25], 20);
        assert!(!s.contains("NiP 0"));
        assert!(s.contains("NiP 1"));
        assert!(s.contains("25.0%"));
    }

    #[test]
    fn json_roundtrip() {
        #[derive(serde::Serialize)]
        struct R {
            x: u32,
        }
        let s = to_json(&R { x: 7 });
        assert!(s.contains("\"x\": 7"));
    }
}
