//! Exposition-format conformance: the `/metrics` text a live fg-serve
//! produces after a seeded exchange must satisfy the Prometheus/OpenMetrics
//! histogram invariants scrapers rely on — cumulative buckets monotone
//! non-decreasing, `le` values ascending with a terminal `+Inf`, the `+Inf`
//! bucket equal to `_count`, `_sum` present for every series, and exemplar
//! labels drawn from the allowed charset. Decision-stage latencies are one
//! such histogram family, `fg_stage_latency_seconds{stage}`.

use fg_scenario::workload::{generate, WorkloadConfig};
use fg_serve::{ServeConfig, Server};
use fg_telemetry::Telemetry;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One full HTTP exchange on a fresh connection; returns (status, body).
fn request(addr: SocketAddr, method: &str, target: &str, body: &[u8]) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    write!(
        stream,
        "{method} {target} HTTP/1.1\r\nHost: test\r\nConnection: close\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .expect("write head");
    stream.write_all(body).expect("write body");
    let mut reader = BufReader::new(stream);
    let mut status_line = String::new();
    reader.read_line(&mut status_line).expect("read status");
    let status: u16 = status_line
        .split(' ')
        .nth(1)
        .expect("status present")
        .parse()
        .expect("numeric status");
    let mut content_length = 0usize;
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).expect("read header");
        let trimmed = line.trim_end();
        if trimmed.is_empty() {
            break;
        }
        if let Some((name, value)) = trimmed.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().expect("numeric length");
            }
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).expect("read body");
    (status, String::from_utf8(body).expect("utf-8 body"))
}

/// One parsed sample line: base name, label pairs, value, optional
/// exemplar `(labels, value)`.
#[derive(Debug)]
struct Sample {
    name: String,
    labels: Vec<(String, String)>,
    value: f64,
    exemplar: Option<(Vec<(String, String)>, f64)>,
}

/// Parses `name{k="v",...} value [# {k="v"} value]` exposition lines.
fn parse_line(line: &str) -> Option<Sample> {
    if line.is_empty() || line.starts_with('#') {
        return None;
    }
    let (series, rest) = match line.find('}') {
        Some(close) => (&line[..close + 1], line[close + 1..].trim()),
        None => {
            let mut it = line.splitn(2, ' ');
            (it.next()?, it.next()?.trim())
        }
    };
    let (name, labels) = match series.find('{') {
        Some(open) => (
            series[..open].to_owned(),
            parse_labels(&series[open + 1..series.len() - 1]),
        ),
        None => (series.to_owned(), Vec::new()),
    };
    let (value_str, exemplar) = match rest.find('#') {
        Some(hash) => {
            let ex = rest[hash + 1..].trim();
            let open = ex.find('{')?;
            let close = ex.find('}')?;
            let ex_labels = parse_labels(&ex[open + 1..close]);
            let ex_value: f64 = ex[close + 1..].trim().parse().ok()?;
            (rest[..hash].trim(), Some((ex_labels, ex_value)))
        }
        None => (rest, None),
    };
    let value: f64 = match value_str {
        "+Inf" => f64::INFINITY,
        v => v.parse().ok()?,
    };
    Some(Sample {
        name,
        labels,
        value,
        exemplar,
    })
}

fn parse_labels(s: &str) -> Vec<(String, String)> {
    let mut out = Vec::new();
    for pair in s.split(',') {
        if pair.is_empty() {
            continue;
        }
        let (k, v) = pair.split_once('=').expect("label pair has =");
        out.push((k.to_owned(), v.trim_matches('"').to_owned()));
    }
    out
}

/// The identity of one histogram series: base name (sans suffix) plus its
/// labels with `le` removed.
fn series_key(name: &str, labels: &[(String, String)]) -> (String, Vec<(String, String)>) {
    let base = name
        .trim_end_matches("_bucket")
        .trim_end_matches("_count")
        .trim_end_matches("_sum");
    let labels: Vec<(String, String)> = labels.iter().filter(|(k, _)| k != "le").cloned().collect();
    (base.to_owned(), labels)
}

#[derive(Default)]
struct HistogramSeries {
    /// `(le, cumulative count)` in exposition order.
    buckets: Vec<(f64, f64)>,
    count: Option<f64>,
    sum: Option<f64>,
    exemplars: Vec<(Vec<(String, String)>, f64)>,
}

#[test]
fn metrics_exposition_satisfies_histogram_and_exemplar_conformance() {
    let mut config = ServeConfig::recommended();
    config.listen = "127.0.0.1:0".to_owned();
    config.workers = 2;
    let server = Server::start(config, Telemetry::shared(), None).expect("boot");
    let addr = server.addr();

    // A seeded exchange with abusive traffic, so the latency grid holds
    // several (endpoint, status) cells and pinned exemplars.
    let workload = generate(&WorkloadConfig {
        seed: 11,
        horizon_hours: 2,
        arrivals_per_day: 400.0,
        seat_spinner: true,
        sms_pumper: false,
    });
    let decides = workload.requests.len().min(200);
    for req in &workload.requests[..decides] {
        let body = serde_json::to_string(req).expect("request serializes");
        let (status, _) = request(addr, "POST", "/v1/decide", body.as_bytes());
        assert_eq!(status, 200);
    }
    // A client error and a 404, so non-200 status cells exist too.
    let (status, _) = request(addr, "POST", "/v1/decide", b"{broken");
    assert_eq!(status, 400);
    let (status, _) = request(addr, "GET", "/nope", b"");
    assert_eq!(status, 404);

    let (status, text) = request(addr, "GET", "/metrics", b"");
    assert_eq!(status, 200);
    let report = server.drain(Duration::from_secs(10));
    assert!(report.clean, "{report:?}");

    // Collect every histogram family from the exposition.
    let mut series: BTreeMap<(String, Vec<(String, String)>), HistogramSeries> = BTreeMap::new();
    for line in text.lines() {
        let Some(sample) = parse_line(line) else {
            continue;
        };
        if sample.name.ends_with("_bucket") {
            let key = series_key(&sample.name, &sample.labels);
            let le = sample
                .labels
                .iter()
                .find(|(k, _)| k == "le")
                .map(|(_, v)| match v.as_str() {
                    "+Inf" => f64::INFINITY,
                    v => v.parse().expect("numeric le"),
                })
                .expect("bucket line has le");
            let entry = series.entry(key).or_default();
            entry.buckets.push((le, sample.value));
            if let Some(ex) = sample.exemplar {
                entry.exemplars.push(ex);
            }
        } else if sample.name.ends_with("_count") {
            series
                .entry(series_key(&sample.name, &sample.labels))
                .or_default()
                .count = Some(sample.value);
        } else if sample.name.ends_with("_sum") {
            series
                .entry(series_key(&sample.name, &sample.labels))
                .or_default()
                .sum = Some(sample.value);
        }
    }

    let histograms: Vec<_> = series
        .iter()
        .filter(|(_, s)| !s.buckets.is_empty())
        .collect();
    assert!(
        histograms
            .iter()
            .any(|((base, _), _)| base == "fg_http_request_duration_seconds"),
        "request-latency histogram missing from exposition"
    );

    // Stage latencies are a native histogram family like any other, so the
    // checks below hold for its series too; every policy decision recorded
    // one `policy.decide` sample.
    assert!(
        text.contains("# TYPE fg_stage_latency_seconds histogram\n"),
        "stage family must be typed histogram"
    );
    let policy_decide = (
        "fg_stage_latency_seconds".to_owned(),
        vec![("stage".to_owned(), "policy.decide".to_owned())],
    );
    let decide = series
        .get(&policy_decide)
        .expect("policy.decide stage series missing");
    assert!(!decide.buckets.is_empty(), "policy.decide has no buckets");
    let decisions: f64 = text
        .lines()
        .filter_map(parse_line)
        .filter(|s| s.name == "fg_decisions_total")
        .map(|s| s.value)
        .sum();
    assert!(decisions > 0.0, "no policy decisions counted");
    assert_eq!(
        decide.count,
        Some(decisions),
        "one policy.decide sample per policy decision"
    );

    let mut exemplars_seen = 0usize;
    for ((base, labels), h) in histograms {
        let id = format!("{base}{labels:?}");

        // le ascending, +Inf terminal, exactly one +Inf.
        for pair in h.buckets.windows(2) {
            assert!(
                pair[0].0 < pair[1].0,
                "{id}: le not strictly ascending: {} then {}",
                pair[0].0,
                pair[1].0
            );
        }
        let (last_le, last_count) = *h.buckets.last().expect("non-empty buckets");
        assert!(
            last_le.is_infinite(),
            "{id}: terminal bucket must be le=\"+Inf\""
        );
        assert_eq!(
            h.buckets.iter().filter(|(le, _)| le.is_infinite()).count(),
            1,
            "{id}: exactly one +Inf bucket"
        );

        // Cumulative counts monotone non-decreasing.
        for pair in h.buckets.windows(2) {
            assert!(
                pair[0].1 <= pair[1].1,
                "{id}: cumulative counts must not decrease: {} then {}",
                pair[0].1,
                pair[1].1
            );
        }

        // _count and _sum present; +Inf bucket equals _count.
        let count = h.count.unwrap_or_else(|| panic!("{id}: _count missing"));
        let sum = h.sum.unwrap_or_else(|| panic!("{id}: _sum missing"));
        assert_eq!(last_count, count, "{id}: +Inf bucket != _count");
        assert!(sum >= 0.0, "{id}: negative _sum");
        if count == 0.0 {
            assert_eq!(sum, 0.0, "{id}: empty histogram with non-zero _sum");
        }

        // Exemplars: label names/values in the allowed charset, and the
        // exemplar value inside the attached bucket's range.
        for (ex_labels, ex_value) in &h.exemplars {
            exemplars_seen += 1;
            for (k, v) in ex_labels {
                assert!(
                    k.chars()
                        .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
                    "{id}: exemplar label name {k:?} outside charset"
                );
                assert!(
                    v.chars().all(|c| c.is_ascii_graphic()),
                    "{id}: exemplar label value {v:?} outside charset"
                );
            }
            assert!(
                ex_labels.iter().any(|(k, v)| k == "trace_id"
                    && v.len() == 16
                    && v.bytes().all(|b| b.is_ascii_hexdigit())),
                "{id}: exemplar must carry a 16-hex trace_id: {ex_labels:?}"
            );
            assert!(
                *ex_value >= 0.0 && ex_value.is_finite(),
                "{id}: exemplar value {ex_value} out of range"
            );
        }
    }
    assert!(
        exemplars_seen > 0,
        "seeded abusive exchange must surface at least one exemplar"
    );
}
