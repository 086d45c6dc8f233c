//! A reader for the Prometheus text exposition fg-serve serves at
//! `/metrics`: samples with labels, label-filtered sums, and quantiles of
//! classic histograms.

/// One sample line: metric name, labels in written order, value.
#[derive(Clone, Debug, PartialEq)]
pub struct Sample {
    /// Metric name, including any `_bucket`/`_sum`/`_count` suffix.
    pub name: String,
    /// Label pairs with escapes resolved.
    pub labels: Vec<(String, String)>,
    /// The sample value.
    pub value: f64,
}

impl Sample {
    fn label(&self, key: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn matches(&self, name: &str, filter: &[(&str, &str)]) -> bool {
        self.name == name && filter.iter().all(|(k, v)| self.label(k) == Some(v))
    }
}

/// Parses `{k="v",...}` starting after the `{`; returns the labels and the
/// rest of the line after the closing `}`.
fn parse_labels(mut s: &str) -> Option<(Vec<(String, String)>, &str)> {
    let mut labels = Vec::new();
    loop {
        s = s.trim_start_matches(',');
        if let Some(rest) = s.strip_prefix('}') {
            return Some((labels, rest));
        }
        let (key, rest) = s.split_once("=\"")?;
        let mut value = String::new();
        let mut chars = rest.char_indices();
        let end = loop {
            match chars.next()? {
                (i, '"') => break i,
                (_, '\\') => match chars.next()?.1 {
                    'n' => value.push('\n'),
                    c => value.push(c),
                },
                (_, c) => value.push(c),
            }
        };
        labels.push((key.trim().to_owned(), value));
        s = &rest[end + 1..];
    }
}

/// Parses every sample line; comments, blank and malformed lines are
/// skipped. An OpenMetrics exemplar after the value is ignored.
pub fn parse(text: &str) -> Vec<Sample> {
    text.lines()
        .filter_map(|line| {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                return None;
            }
            let name_end = line.find(['{', ' '])?;
            let name = &line[..name_end];
            let (labels, rest) = match line[name_end..].strip_prefix('{') {
                Some(after) => parse_labels(after)?,
                None => (Vec::new(), &line[name_end..]),
            };
            let value = match rest.split_whitespace().next()? {
                "+Inf" => f64::INFINITY,
                v => v.parse().ok()?,
            };
            Some(Sample {
                name: name.to_owned(),
                labels,
                value,
            })
        })
        .collect()
}

/// Sum of every sample of `name` whose labels include all of `filter`.
pub fn sum(samples: &[Sample], name: &str, filter: &[(&str, &str)]) -> f64 {
    samples
        .iter()
        .filter(|s| s.matches(name, filter))
        .map(|s| s.value)
        .sum()
}

/// The cumulative `(le, count)` pairs of histogram `name` restricted to
/// `filter`, ascending by `le`.
fn buckets(samples: &[Sample], name: &str, filter: &[(&str, &str)]) -> Vec<(f64, f64)> {
    let bucket = format!("{name}_bucket");
    let mut cumulative: Vec<(f64, f64)> = samples
        .iter()
        .filter(|s| s.matches(&bucket, filter))
        .filter_map(|s| Some((s.label("le")?.parse::<f64>().ok()?, s.value)))
        .collect();
    cumulative.sort_by(|a, b| a.0.total_cmp(&b.0));
    cumulative
}

/// The `q` quantile of cumulative buckets, interpolated linearly inside
/// the bucket that holds the rank, as PromQL's `histogram_quantile` does.
/// The lower edge of the first bucket is 0.
fn quantile_of(cumulative: &[(f64, f64)], q: f64) -> Option<f64> {
    let total = cumulative.last()?.1;
    if total <= 0.0 {
        return None;
    }
    let rank = q * total;
    let (mut lower, mut below) = (0.0, 0.0);
    for &(le, count) in cumulative {
        if count >= rank {
            if le.is_infinite() {
                return Some(lower);
            }
            let inside = count - below;
            let share = if inside > 0.0 {
                (rank - below) / inside
            } else {
                1.0
            };
            return Some(lower + (le - lower) * share);
        }
        (lower, below) = (le, count);
    }
    None
}

/// The `q` quantile of what histogram `name` (its `_bucket` series
/// restricted to `filter`) recorded between two scrapes; `None` when it
/// recorded nothing. fg-serve lists only occupied buckets, so a bucket new
/// in `after` is matched against the cumulative count `before` held at its
/// bound.
pub fn histogram_quantile_between(
    before: &[Sample],
    after: &[Sample],
    name: &str,
    filter: &[(&str, &str)],
    q: f64,
) -> Option<f64> {
    let earlier = buckets(before, name, filter);
    let held = |le: f64| {
        earlier
            .iter()
            .take_while(|(b, _)| *b <= le)
            .last()
            .map_or(0.0, |(_, c)| *c)
    };
    let interval: Vec<(f64, f64)> = buckets(after, name, filter)
        .into_iter()
        .map(|(le, count)| (le, count - held(le)))
        .collect();
    quantile_of(&interval, q)
}

#[cfg(test)]
mod tests {
    use super::*;

    const TEXT: &str = "\
# HELP fg_http_request_duration_seconds Request service latency
# TYPE fg_http_request_duration_seconds histogram
fg_http_request_duration_seconds_bucket{endpoint=\"decide\",status=\"200\",le=\"0.0001\"} 10
fg_http_request_duration_seconds_bucket{endpoint=\"decide\",status=\"200\",le=\"0.0002\"} 30 # {trace_id=\"00000000000000aa\"} 0.00015
fg_http_request_duration_seconds_bucket{endpoint=\"decide\",status=\"200\",le=\"0.0004\"} 40
fg_http_request_duration_seconds_bucket{endpoint=\"decide\",status=\"200\",le=\"+Inf\"} 40
fg_http_request_duration_seconds_sum{endpoint=\"decide\",status=\"200\"} 0.006
fg_http_request_duration_seconds_count{endpoint=\"decide\",status=\"200\"} 40
fg_http_request_duration_seconds_bucket{endpoint=\"report\",status=\"200\",le=\"+Inf\"} 0
fg_tracked_keys{map=\"ip-velocity\"} 120
fg_tracked_keys{map=\"fp-velocity\"} 80
fg_http_shed_total 0
fg_stage_latency_seconds{stage=\"detect.assess\",quantile=\"0.5\"} 1.5e-6
weird{a=\"x\\\"y\",b=\"1\"} 2
";

    #[test]
    fn samples_parse_with_labels_escapes_and_exemplars() {
        let s = parse(TEXT);
        assert_eq!(s.len(), 12);
        assert_eq!(s[1].value, 30.0);
        assert_eq!(s[3].value, 40.0);
        assert_eq!(s[11].labels[0], ("a".to_owned(), "x\"y".to_owned()));
        assert_eq!(
            sum(
                &s,
                "fg_stage_latency_seconds",
                &[("stage", "detect.assess"), ("quantile", "0.5")]
            ),
            1.5e-6
        );
    }

    #[test]
    fn sums_filter_by_label() {
        let s = parse(TEXT);
        assert_eq!(sum(&s, "fg_tracked_keys", &[]), 200.0);
        assert_eq!(sum(&s, "fg_tracked_keys", &[("map", "ip-velocity")]), 120.0);
        assert_eq!(sum(&s, "fg_http_shed_total", &[]), 0.0);
        assert_eq!(sum(&s, "absent", &[]), 0.0);
    }

    #[test]
    fn interval_quantiles_subtract_the_earlier_scrape() {
        let h = |rows: &[(&str, u32)]| {
            let text: String = rows
                .iter()
                .map(|(le, n)| format!("h_bucket{{e=\"d\",le=\"{le}\"}} {n}\n"))
                .collect();
            parse(&text)
        };
        // Before: 10 samples at or below 1, 10 more in (1, 3].
        let before = h(&[("1", 10), ("3", 20), ("+Inf", 20)]);
        // After: 10 new samples in (2, 3]'s neighbour (1, 2], a bucket
        // before lacked, and 10 new in (2, 3]; the interval holds those 20.
        let after = h(&[("1", 10), ("2", 20), ("3", 40), ("+Inf", 40)]);
        let f = [("e", "d")];
        let p50 = histogram_quantile_between(&before, &after, "h", &f, 0.5).unwrap();
        assert!((p50 - 2.0).abs() < 1e-12, "{p50}");
        let p25 = histogram_quantile_between(&before, &after, "h", &f, 0.25).unwrap();
        assert!((p25 - 1.5).abs() < 1e-12, "{p25}");
        assert_eq!(
            histogram_quantile_between(&after, &after, "h", &f, 0.5),
            None
        );
    }

    #[test]
    fn histogram_quantiles_interpolate_inside_the_bucket() {
        let s = parse(TEXT);
        let f = [("endpoint", "decide"), ("status", "200")];
        let name = "fg_http_request_duration_seconds";
        // Rank 20 of 40 sits halfway through the (0.0001, 0.0002] bucket.
        let q = |f: &[(&str, &str)], q| histogram_quantile_between(&[], &s, name, f, q);
        let p50 = q(&f, 0.5).unwrap();
        assert!((p50 - 0.00015).abs() < 1e-12, "{p50}");
        // Rank 4 of 40 sits 40% into the first bucket, whose lower edge is 0.
        let p10 = q(&f, 0.1).unwrap();
        assert!((p10 - 0.00004).abs() < 1e-12, "{p10}");
        let p100 = q(&f, 1.0).unwrap();
        assert!((p100 - 0.0004).abs() < 1e-12, "{p100}");
        let empty = [("endpoint", "report"), ("status", "200")];
        assert_eq!(q(&empty, 0.5), None);
    }
}
