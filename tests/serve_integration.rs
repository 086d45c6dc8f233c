//! End-to-end integration of the serving layer: endpoints, shedding at a
//! full accept queue, config hot-reload (reject-and-keep-old), and
//! graceful drain, queued work included — all over real sockets on an
//! ephemeral port — plus the decision service's parity with the
//! simulator's host.

use fg_core::shard::ConcurrencyMode;
use fg_core::time::SimTime;
use fg_detection::log::Endpoint;
use fg_mitigation::policy::Decision;
use fg_scenario::app::{AppConfig, DefendedApp, GateDecision};
use fg_scenario::workload::{generate, WireRequest, WorkloadConfig};
use fg_serve::loadgen::read_response;
use fg_serve::{DecisionService, OutcomeReport, ServeConfig, Server};
use fg_telemetry::{SpanRecord, Telemetry};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::time::{Duration, Instant};

fn test_config() -> ServeConfig {
    let mut config = ServeConfig::recommended();
    config.listen = "127.0.0.1:0".to_owned();
    config.workers = 2;
    config.queue_depth = 16;
    config
}

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

/// Like [`request`], but sends extra request headers and returns the
/// response headers (lower-cased names) alongside status and body.
fn request_full(
    addr: SocketAddr,
    method: &str,
    target: &str,
    extra_headers: &[(&str, &str)],
    body: &[u8],
) -> (u16, Vec<(String, String)>, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut head = format!("{method} {target} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n");
    for (name, value) in extra_headers {
        head.push_str(&format!("{name}: {value}\r\n"));
    }
    head.push_str(&format!(
        "Content-Type: application/json\r\nContent-Length: {}\r\n\r\n",
        body.len()
    ));
    stream.write_all(head.as_bytes()).expect("write head");
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
    let mut headers = Vec::new();
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
            headers.push((name.to_ascii_lowercase(), value.trim().to_owned()));
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).expect("read body");
    (
        status,
        headers,
        String::from_utf8(body).expect("utf-8 body"),
    )
}

/// Writes one keep-alive request on an open connection, head and body in
/// one write: Nagle would hold a body written apart until the server's
/// delayed ACK of the head, 40 ms later.
fn send(stream: &mut TcpStream, method: &str, target: &str, body: &[u8]) {
    let mut request = format!(
        "{method} {target} HTTP/1.1\r\nHost: test\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    request.extend_from_slice(body);
    stream.write_all(&request).expect("write request");
}

/// One request and its reply on an open keep-alive connection.
fn exchange(conn: &mut BufReader<TcpStream>, method: &str, target: &str) -> (u16, String) {
    send(conn.get_mut(), method, target, b"");
    let (status, body) = read_response(conn).expect("reply");
    (status, String::from_utf8(body).expect("utf-8 body"))
}

/// Connects and completes one keep-alive exchange, so the worker that
/// took the connection stays busy with it until the client closes it.
fn pin_a_worker(addr: SocketAddr) -> BufReader<TcpStream> {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut conn = BufReader::new(stream);
    let (status, _) = exchange(&mut conn, "GET", "/healthz");
    assert_eq!(status, 200);
    conn
}

/// Waits until the accept thread has taken `n` connections in all.
fn await_connections(telemetry: &Telemetry, n: u64) {
    let accepted = || {
        telemetry
            .metrics()
            .snapshot()
            .counter_value("fg_http_connections_total", &[])
            == Some(n)
    };
    assert!(
        wait_for(accepted, Duration::from_secs(5)),
        "the server never accepted connection {n}"
    );
}

/// The first boarding-pass request with a booking in a seeded stream:
/// replayed a few times a millisecond apart, its booking's SMS limiter runs
/// dry.
fn limited_booking_request() -> WireRequest {
    let workload = generate(&WorkloadConfig {
        seed: 42,
        horizon_hours: 24,
        arrivals_per_day: 600.0,
        seat_spinner: false,
        sms_pumper: true,
    });
    workload
        .requests
        .into_iter()
        .find(|r| r.endpoint == Endpoint::BoardingPass && r.booking.is_some())
        .expect("stream has a boarding-pass request with a booking")
}

fn sample_decide_body() -> String {
    let workload = generate(&WorkloadConfig {
        seed: 5,
        horizon_hours: 1,
        arrivals_per_day: 50.0,
        seat_spinner: false,
        sms_pumper: false,
    });
    serde_json::to_string(workload.requests.first().expect("non-empty workload"))
        .expect("request serializes")
}

#[test]
fn endpoints_answer_with_correct_statuses() {
    let server = Server::start(test_config(), Telemetry::shared(), None).expect("boot");
    let addr = server.addr();

    let (status, body) = request(addr, "GET", "/healthz", b"");
    assert_eq!((status, body.as_str()), (200, "{\"ok\":true}"));

    let (status, body) = request(addr, "GET", "/readyz", b"");
    assert_eq!(status, 200);
    assert!(body.contains("\"ready\":true"), "{body}");
    assert!(body.contains("\"config_generation\":1"), "{body}");

    let decide_body = sample_decide_body();
    let (status, body) = request(addr, "POST", "/v1/decide", decide_body.as_bytes());
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"decision\""), "{body}");
    assert!(body.contains("\"reasons\""), "{body}");

    let (status, _) = request(addr, "POST", "/v1/decide", b"{not json");
    assert_eq!(status, 400);

    let outcome = fg_serve::OutcomeReport {
        ip: fg_netsim::ip::IpAddress::from_octets(10, 1, 2, 3),
        score: 0.9,
        now_ms: 1_000,
    };
    let report = serde_json::to_string(&outcome).expect("report serializes");
    let (status, body) = request(addr, "POST", "/v1/report", report.as_bytes());
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"reports\":1"), "{body}");

    let bad_outcome = fg_serve::OutcomeReport {
        score: 7.0,
        ..outcome
    };
    let bad = serde_json::to_string(&bad_outcome).expect("report serializes");
    let (status, _) = request(addr, "POST", "/v1/report", bad.as_bytes());
    assert_eq!(status, 400);

    let (status, body) = request(addr, "GET", "/metrics", b"");
    assert_eq!(status, 200);
    assert!(
        body.contains("fg_decisions_total"),
        "metrics must include decision counters"
    );
    assert!(
        body.contains("fg_http_requests_total"),
        "metrics must include HTTP counters"
    );

    let (status, _) = request(addr, "GET", "/v1/decide", b"");
    assert_eq!(status, 405);
    let (status, _) = request(addr, "POST", "/healthz", b"");
    assert_eq!(status, 405);
    let (status, _) = request(addr, "GET", "/no/such/path", b"");
    assert_eq!(status, 404);

    let report = server.drain(Duration::from_secs(10));
    assert!(report.clean, "{report:?}");
}

/// fg-serve's decision service and the simulator's app decide through one
/// `DecisionCore`: fed the same stream, each housekeeping before every
/// decision and both folding in the same outcome reports, they agree
/// request by request at any shard count.
#[test]
fn decide_matches_the_in_process_replay() {
    let workload = generate(&WorkloadConfig {
        seed: 11,
        horizon_hours: 12,
        arrivals_per_day: 400.0,
        seat_spinner: true,
        sms_pumper: true,
    });
    for shards in [1, 4] {
        let config = ServeConfig {
            shards,
            ..ServeConfig::recommended()
        };
        let service = DecisionService::new(&config, Telemetry::shared());
        let mut app = DefendedApp::new(
            AppConfig::airline(config.policy.clone())
                .with_concurrency(ConcurrencyMode::from_shards(shards)),
            config.seed,
        );
        let (mut refused, mut reports) = (0, 0);
        for (i, req) in workload.requests.iter().enumerate() {
            app.housekeep(req.now());
            let simulated =
                app.decide_request(&req.client_request(), req.endpoint, req.booking, req.now());
            let served = service.decide(req);
            assert_eq!(served, simulated, "request {i} at {shards} shards");
            if served.decision != Decision::Allow {
                refused += 1;
            }
            // Every seventh request's outcome comes back as confirmed
            // abuse, so later decisions read reputation both sides fed.
            if i % 7 == 6 {
                let outcome = OutcomeReport {
                    ip: req.ip,
                    score: 1.0,
                    now_ms: req.now_ms,
                };
                service.report(&outcome).expect("score in range");
                app.detection_mut().reputation_mut().report(
                    outcome.ip,
                    outcome.score,
                    SimTime::from_millis(outcome.now_ms),
                );
                reports += 1;
            }
        }
        assert!(
            refused > 0 && reports > 0,
            "{refused} refused, {reports} reports"
        );
        assert_eq!(service.decisions(), workload.requests.len() as u64);
        assert_eq!(
            service.telemetry().audit().recorded(),
            0,
            "the service writes no audit record"
        );
    }
}

/// fg-serve hosts the decision core alone, so `/metrics` carries none of
/// the simulator's series: no SMS gateway, CAPTCHA outcome, seat-hold or
/// revenue family, and no CAPTCHA or honeypot-check stage latency.
#[test]
fn metrics_carry_no_simulator_series() {
    let server = Server::start(test_config(), Telemetry::shared(), None).expect("boot");
    let addr = server.addr();
    let workload = generate(&WorkloadConfig {
        seed: 5,
        horizon_hours: 1,
        arrivals_per_day: 200.0,
        seat_spinner: true,
        sms_pumper: false,
    });
    for req in workload.requests.iter().take(20) {
        let body = serde_json::to_string(req).expect("request serializes");
        let (status, reply) = request(addr, "POST", "/v1/decide", body.as_bytes());
        assert_eq!(status, 200, "{reply}");
    }
    let (status, metrics) = request(addr, "GET", "/metrics", b"");
    assert_eq!(status, 200);
    for present in ["fg_decisions_total", "stage=\"policy.decide\""] {
        assert!(metrics.contains(present), "{present} missing");
    }
    for absent in [
        "fg_sms_",
        "fg_nip_hold",
        "fg_ticket_revenue_units",
        "fg_solver_spend_units",
        "fg_challenges_total",
        "fg_human_abandons_total",
        "stage=\"mitigation.captcha\"",
        "stage=\"mitigation.honeypot-check\"",
    ] {
        assert!(!metrics.contains(absent), "{absent} on fg-serve's /metrics");
    }
    let report = server.drain(Duration::from_secs(10));
    assert!(report.clean, "{report:?}");
}

/// 1 MiB bodies (the largest the server reads) nested far past the JSON
/// reader's depth limit: arrays, an object chain, and arrays under an
/// unknown key of an otherwise well-formed object, which a typed reader
/// only skips. Before nesting was bounded, each overflowed a worker's
/// stack and aborted the server.
fn deeply_nested_bodies() -> [(&'static str, Vec<u8>); 3] {
    const MIB: usize = 1 << 20;
    let mut unknown_key = b"{\"junk\":".to_vec();
    unknown_key.resize(MIB, b'[');
    [
        ("arrays", vec![b'['; MIB]),
        ("objects", b"{\"a\":".repeat(MIB / 5)),
        ("unknown key", unknown_key),
    ]
}

#[test]
fn deeply_nested_bodies_get_400_and_the_server_keeps_serving() {
    let server = Server::start(test_config(), Telemetry::shared(), None).expect("boot");
    let addr = server.addr();
    for (shape, body) in deeply_nested_bodies() {
        for target in ["/v1/decide", "/v1/report"] {
            let (status, reply) = request(addr, "POST", target, &body);
            assert_eq!(status, 400, "{shape} to {target}: {reply}");
        }
    }
    let (status, body) = request(addr, "POST", "/v1/decide", sample_decide_body().as_bytes());
    assert_eq!(status, 200, "{body}");
    let report = server.drain(Duration::from_secs(10));
    assert!(report.clean, "{report:?}");
}

#[test]
fn observability_plane_links_metrics_traces_and_the_flight_recorder() {
    let server = Server::start(test_config(), Telemetry::shared(), None).expect("boot");
    let addr = server.addr();

    // Drive a workload with abusive traffic: non-allow decisions are
    // pinned into the trace ring deterministically (no sampling coin), so
    // the assertions below don't depend on timing or luck.
    let workload = generate(&WorkloadConfig {
        seed: 7,
        horizon_hours: 2,
        arrivals_per_day: 600.0,
        seat_spinner: true,
        sms_pumper: false,
    });
    let wire_trace = "4bf92f3577b34da6a3ce929d0e0e4736";
    let mut non_allow_id: Option<u64> = None;
    let mut non_allow_exchange: Option<(&WireRequest, GateDecision)> = None;
    let mut served = 0u64;
    for req in workload.requests.iter().take(400) {
        let body = serde_json::to_string(req).expect("request serializes");
        let traceparent = format!("00-{wire_trace}-00f067aa0ba902b7-01");
        let (status, headers, body) = request_full(
            addr,
            "POST",
            "/v1/decide",
            &[("Traceparent", &traceparent)],
            body.as_bytes(),
        );
        assert_eq!(status, 200, "{body}");
        served += 1;
        let parsed: serde_json::Value = serde_json::from_str(&body).expect("decision json");
        let trace_id = parsed
            .get("trace_id")
            .and_then(|v| v.as_u64())
            .expect("decision carries a trace id");
        // The caller's trace id is echoed back verbatim, with the decision
        // trace id as the new parent span.
        let echo = headers
            .iter()
            .find(|(name, _)| name == "traceparent")
            .map(|(_, value)| value.clone())
            .expect("traceparent echoed");
        assert_eq!(echo, format!("00-{wire_trace}-{trace_id:016x}-01"));
        // Wire decisions carry serde's variant spelling ("Allow"), the
        // observability plane uses the Display labels ("allow").
        let decision = parsed
            .get("decision")
            .and_then(|v| v.as_str())
            .expect("decision label");
        if decision != "Allow" && non_allow_id.is_none() {
            non_allow_id = Some(trace_id);
            let reply: GateDecision = serde_json::from_str(&body).expect("decision body");
            non_allow_exchange = Some((req, reply));
        }
    }
    let pinned = non_allow_id.expect("abusive workload produced a non-allow decision");

    // The pinned trace is retrievable, spans included, via its hex id.
    let (status, body) = request(
        addr,
        "GET",
        &format!("/debug/traces?trace_id={pinned:016x}"),
        b"",
    );
    assert_eq!(status, 200, "{body}");
    assert!(body.contains(&format!("{pinned:016x}")), "{body}");
    assert!(body.contains("\"spans\""), "{body}");
    assert!(body.contains("serve.http"), "{body}");

    // Its spans carry the attribute strings the tracer formats at export,
    // each matching the reply and the request it explains.
    let (req, reply) = non_allow_exchange.expect("non-allow exchange kept");
    let traces: serde_json::Value = serde_json::from_str(&body).expect("traces json");
    let spans: Vec<SpanRecord> =
        serde_json::from_value(traces.get("spans").cloned().expect("spans present"))
            .expect("span records");
    let attr = |name: &str, key: &str| -> String {
        let span = spans
            .iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("no {name} span in {body}"));
        span.attrs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.clone())
            .unwrap_or_else(|| panic!("{name} carries no {key}: {:?}", span.attrs))
    };
    let root = format!("request {}", req.endpoint);
    let label = reply.decision.to_string();
    assert_eq!(attr(&root, "endpoint"), req.endpoint.to_string());
    assert_eq!(attr(&root, "decision"), label);
    assert_eq!(
        attr("detect.assess", "score"),
        format!("{:.3}", reply.score)
    );
    assert_eq!(attr("policy.decide", "decision"), label);
    assert_eq!(attr("policy.decide", "reasons"), reply.reasons.join(" → "));
    assert_eq!(
        attr("policy.decide", "client_key"),
        req.client.as_u64().to_string()
    );
    assert_eq!(attr("serve.http", "status"), "200");
    assert_eq!(attr("serve.http", "endpoint"), "decide");
    assert_eq!(attr("serve.http", "wire.trace_id"), wire_trace);
    assert_eq!(attr("serve.http", "wire.parent_id"), "00f067aa0ba902b7");
    let latency = attr("serve.http", "latency_us");
    assert!(
        !latency.is_empty() && latency.bytes().all(|b| b.is_ascii_digit()),
        "latency_us {latency:?}"
    );

    let (status, _) = request(addr, "GET", "/debug/traces?trace_id=zzz", b"");
    assert_eq!(status, 400);

    // The flight recorder saw every exchange.
    let (status, body) = request(addr, "GET", "/debug/flightrecorder", b"");
    assert_eq!(status, 200, "{body}");
    let flight: serde_json::Value = serde_json::from_str(&body).expect("flight json");
    let recorded = flight
        .get("recorded")
        .and_then(|v| v.as_u64())
        .expect("recorded count");
    assert!(recorded >= served, "{recorded} < {served}");

    // The alert surface answers with the serve SLO policy.
    let (status, body) = request(addr, "GET", "/debug/alerts", b"");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"active\""), "{body}");
    assert!(body.contains("serve-p99-slo"), "{body}");

    // The latency grid exposes per-endpoint histograms whose exemplars are
    // exactly the pinned (non-allow) trace ids — resolvable above.
    let (status, metrics) = request(addr, "GET", "/metrics", b"");
    assert_eq!(status, 200);
    assert!(
        metrics.contains("fg_http_request_duration_seconds_bucket"),
        "latency grid missing"
    );
    assert!(
        metrics.contains("endpoint=\"decide\",status=\"200\""),
        "decide row missing"
    );
    assert!(
        metrics.contains("# {trace_id=\""),
        "exemplars missing from exposition"
    );
    assert!(
        metrics.contains("fg_serve_active_alerts"),
        "alert gauge missing"
    );

    // Debug endpoints answer only GET.
    let (status, _) = request(addr, "POST", "/debug/traces", b"");
    assert_eq!(status, 405);

    let report = server.drain(Duration::from_secs(10));
    assert!(report.clean, "{report:?}");
}

/// `/debug/traces` as `TraceSnapshot::write_json` writes it into a
/// `String`, for the ring as it is now.
fn traces_body(telemetry: &Telemetry, only: Option<u64>) -> String {
    let mut body = String::new();
    telemetry.tracer().snapshot(only).write_json(&mut body);
    body
}

#[test]
fn debug_traces_streams_exactly_the_bytes_it_declares() {
    let telemetry = Telemetry::shared();
    let server = Server::start(test_config(), telemetry.clone(), None).expect("boot");
    let addr = server.addr();
    let workload = generate(&WorkloadConfig {
        seed: 17,
        horizon_hours: 24,
        arrivals_per_day: 2000.0,
        seat_spinner: true,
        sms_pumper: true,
    });
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut conn = BufReader::new(stream);
    for req in workload.requests.iter().take(600) {
        let body = serde_json::to_string(req).expect("request serializes");
        send(conn.get_mut(), "POST", "/v1/decide", body.as_bytes());
        let (status, _) = read_response(&mut conn).expect("decide reply");
        assert_eq!(status, 200);
    }
    let one = *telemetry
        .tracer()
        .snapshot(None)
        .request_trace_ids()
        .last()
        .expect("the ring kept a trace");
    let targets = [
        (None, "/debug/traces".to_owned()),
        (Some(one), format!("/debug/traces?trace_id={one:016x}")),
    ];

    // Keep-alive: both scrapes and then a health check on one connection.
    // `read_response` takes exactly `Content-Length` bytes, so a body that
    // wrote fewer would stall here and one that wrote more would be read
    // as the next status line.
    for (only, target) in &targets {
        let (status, body) = exchange(&mut conn, "GET", target);
        assert_eq!(status, 200, "{target}");
        assert_eq!(body, traces_body(&telemetry, *only), "{target}");
        if only.is_none() {
            // More than one of the writer's 64 KB buffers.
            assert!(body.len() > 64 * 1024, "{} bytes", body.len());
        }
    }
    assert_eq!(exchange(&mut conn, "GET", "/healthz").0, 200);

    // Closing: everything the server sends before it closes is the head
    // and exactly the declared body.
    for (only, target) in &targets {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        write!(
            stream,
            "GET {target} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n"
        )
        .expect("write request");
        let mut reply = Vec::new();
        stream.read_to_end(&mut reply).expect("read to close");
        let reply = String::from_utf8(reply).expect("utf-8 reply");
        let (head, body) = reply.split_once("\r\n\r\n").expect("head and body");
        assert!(head.starts_with("HTTP/1.1 200 OK\r\n"), "{head}");
        assert!(head.contains("\r\nConnection: close"), "{head}");
        let declared = head
            .lines()
            .find_map(|line| line.strip_prefix("Content-Length: "))
            .and_then(|n| n.parse::<usize>().ok())
            .expect("declared length");
        assert_eq!(body.len(), declared, "{target}");
        assert_eq!(body, traces_body(&telemetry, *only), "{target}");
    }

    let report = server.drain(Duration::from_secs(10));
    assert!(report.clean, "{report:?}");
}

#[test]
fn sticky_honeypot_decisions_keep_their_transport_span() {
    let server = Server::start(test_config(), Telemetry::shared(), None).expect("boot");
    let addr = server.addr();
    // A webdriver fingerprint is diverted to the honeypot, and the
    // session's next request rides the sticky diversion.
    let mut req: WireRequest = serde_json::from_str(&sample_decide_body()).expect("request parses");
    req.fingerprint.webdriver = true;
    let wire_trace = "0af7651916cd43dd8448eb211c80319c";
    let traceparent = format!("00-{wire_trace}-b7ad6b7169203331-01");
    let mut replies = Vec::new();
    for now_ms in [req.now_ms, req.now_ms + 60_000] {
        let body = serde_json::to_string(&WireRequest {
            now_ms,
            ..req.clone()
        })
        .expect("request serializes");
        let (status, _, body) = request_full(
            addr,
            "POST",
            "/v1/decide",
            &[("Traceparent", &traceparent)],
            body.as_bytes(),
        );
        assert_eq!(status, 200, "{body}");
        let reply: GateDecision = serde_json::from_str(&body).expect("decision body");
        assert_eq!(reply.decision, Decision::Honeypot, "{body}");
        replies.push(reply);
    }
    let sticky = &replies[1];
    assert_eq!(sticky.reasons, ["honeypot:session-diverted"]);

    let (status, body) = request(
        addr,
        "GET",
        &format!("/debug/traces?trace_id={:016x}", sticky.trace_id),
        b"",
    );
    assert_eq!(status, 200, "{body}");
    let traces: serde_json::Value = serde_json::from_str(&body).expect("traces json");
    let spans: Vec<SpanRecord> =
        serde_json::from_value(traces.get("spans").cloned().expect("spans present"))
            .expect("span records");
    let http = spans
        .iter()
        .find(|s| s.name == "serve.http")
        .unwrap_or_else(|| panic!("no serve.http span in {body}"));
    assert!(
        http.attrs
            .contains(&("wire.trace_id".to_owned(), wire_trace.to_owned())),
        "{:?}",
        http.attrs
    );

    let report = server.drain(Duration::from_secs(10));
    assert!(report.clean, "{report:?}");
}

/// A unique temp path for this test process (no wall-clock naming needed).
fn temp_config_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("fg-serve-test-{}-{tag}.json", std::process::id()))
}

fn wait_for<F: FnMut() -> bool>(mut ready: F, timeout: Duration) -> bool {
    let start = Instant::now();
    while start.elapsed() < timeout {
        if ready() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    false
}

#[test]
fn hot_reload_rejects_bad_configs_and_applies_good_ones() {
    let path = temp_config_path("reload");
    let config = test_config();
    std::fs::write(&path, config.to_json()).expect("write initial config");

    let server =
        Server::start(config.clone(), Telemetry::shared(), Some(path.clone())).expect("boot");
    let addr = server.addr();
    let state = server.state().clone();
    assert_eq!(state.generation(), 1);

    // 1. A semantically broken policy (challenge at the block threshold —
    //    structurally valid, rejected by the fg-analyze gate) must be
    //    refused, and the old config must keep serving.
    let mut bad = config.clone();
    bad.policy.challenge_threshold = bad.policy.block_threshold;
    std::fs::write(&path, bad.to_json()).expect("write bad config");
    assert!(
        wait_for(
            || state.last_reload().contains("rejected"),
            Duration::from_secs(5)
        ),
        "watcher never rejected the bad config: {}",
        state.last_reload()
    );
    assert_eq!(
        state.generation(),
        1,
        "rejected reload must not bump the generation"
    );
    let decide_body = sample_decide_body();
    let (status, _) = request(addr, "POST", "/v1/decide", decide_body.as_bytes());
    assert_eq!(
        status, 200,
        "old config must keep serving after a rejected reload"
    );

    // 2. A boot-only field change is also rejected (restart required).
    let mut frozen = config.clone();
    frozen.workers = 7;
    std::fs::write(&path, frozen.to_json()).expect("write frozen-field config");
    assert!(
        wait_for(
            || state.last_reload().contains("restart required"),
            Duration::from_secs(5)
        ),
        "boot-only change not refused: {}",
        state.last_reload()
    );
    assert_eq!(state.generation(), 1);

    // 3. A valid hot change (a shorter breaker cool-down) applies and
    //    bumps the generation, visible through /readyz. It leaves the
    //    policy alone, so a booking rate-limited before the reload stays
    //    rate-limited after it: limiter buckets survive.
    let mut limited = limited_booking_request();
    let mut decide_limited = || {
        limited.now_ms += 1;
        let body = serde_json::to_string(&limited).expect("request serializes");
        let (status, reply) = request(addr, "POST", "/v1/decide", body.as_bytes());
        assert_eq!(status, 200, "{reply}");
        serde_json::from_str::<GateDecision>(&reply)
            .expect("decision body")
            .decision
    };
    assert!(
        (0..12).any(|_| decide_limited() == Decision::RateLimited),
        "replaying one booking never exhausted its limiter"
    );
    let mut good = config.clone();
    good.breaker.open_ms = 250;
    std::fs::write(&path, good.to_json()).expect("write good config");
    assert!(
        wait_for(|| state.generation() == 2, Duration::from_secs(5)),
        "valid reload never applied: {}",
        state.last_reload()
    );
    let (status, body) = request(addr, "GET", "/readyz", b"");
    assert_eq!(status, 200);
    assert!(body.contains("\"config_generation\":2"), "{body}");
    assert_eq!(
        decide_limited(),
        Decision::RateLimited,
        "a breaker-only reload reset the booking's limiter"
    );

    let report = server.drain(Duration::from_secs(10));
    assert!(report.clean, "{report:?}");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn drain_finishes_in_flight_work_and_stops_accepting() {
    let server = Server::start(test_config(), Telemetry::shared(), None).expect("boot");
    let addr = server.addr();

    // Serve something first so the drain has real state behind it.
    let decide_body = sample_decide_body();
    let (status, _) = request(addr, "POST", "/v1/decide", decide_body.as_bytes());
    assert_eq!(status, 200);

    server.begin_shutdown();
    // Draining is visible on /readyz as 503 until the workers exit — but
    // only if a worker picks the connection up before the pool drains, so
    // accept either answer and require the drain itself to be clean.
    let probe = TcpStream::connect(addr);
    let report = server.drain(Duration::from_secs(10));
    assert!(report.clean, "{report:?}");
    assert_eq!(report.stragglers, 0);
    drop(probe);

    // The listener is gone: new connections must fail.
    assert!(
        TcpStream::connect_timeout(&addr, Duration::from_millis(500)).is_err(),
        "listener must be closed after drain"
    );
}

/// Boots on `listen`, sends nothing, and drains on a helper thread: the
/// accept thread is blocked in `accept`, so only the drain's own wake-up
/// lets it return. A lost wake fails on the channel timeout instead of
/// hanging the test, and afterwards the port must refuse connections.
fn idle_server_drains_promptly(listen: &str) {
    let mut config = test_config();
    config.listen = listen.to_owned();
    let server = Server::start(config, Telemetry::shared(), None).expect("boot");
    let port = server.addr().port();

    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(server.drain(Duration::from_secs(10)));
    });
    let report = rx
        .recv_timeout(Duration::from_secs(5))
        .unwrap_or_else(|_| panic!("drain of an idle server on {listen} took over 5 s"));
    assert!(report.clean, "{report:?}");

    let loopback = SocketAddr::from(([127, 0, 0, 1], port));
    let err = TcpStream::connect_timeout(&loopback, Duration::from_millis(500))
        .expect_err("listener must be closed after drain");
    assert_eq!(err.kind(), std::io::ErrorKind::ConnectionRefused, "{err}");
}

#[test]
fn drain_wakes_an_idle_loopback_listener() {
    idle_server_drains_promptly("127.0.0.1:0");
}

#[test]
fn drain_wakes_an_idle_wildcard_listener() {
    idle_server_drains_promptly("0.0.0.0:0");
}

#[test]
fn a_full_accept_queue_sheds_with_429() {
    let mut config = test_config();
    config.workers = 1;
    config.queue_depth = 1;
    let telemetry = Telemetry::shared();
    let server = Server::start(config, telemetry.clone(), None).expect("boot");
    let addr = server.addr();

    // The only worker holds the first connection, the second fills the
    // one-slot queue, so the third is shed before a byte is read.
    let mut pinned = pin_a_worker(addr);
    let queued = TcpStream::connect(addr).expect("connect");
    await_connections(&telemetry, 2);
    let shed = TcpStream::connect(addr).expect("connect");
    shed.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let (status, _) = read_response(&mut BufReader::new(shed)).expect("shed reply");
    assert_eq!(status, 429);

    // Read the evidence over the pinned connection: a new one would race
    // the shed path for the queue slot.
    let (status, metrics) = exchange(&mut pinned, "GET", "/metrics");
    assert_eq!(status, 200);
    assert!(metrics.contains("\nfg_http_shed_total 1\n"), "{metrics}");
    assert!(
        metrics.contains("\nfg_http_requests_total{endpoint=\"other\",status=\"429\"} 1\n"),
        "{metrics}"
    );
    let (status, flight) = exchange(&mut pinned, "GET", "/debug/flightrecorder");
    assert_eq!(status, 200);
    assert!(flight.contains("\"reason\":\"shed\""), "{flight}");

    drop((pinned, queued));
    let report = server.drain(Duration::from_secs(10));
    assert!(report.clean, "{report:?}");
}

#[test]
fn drain_serves_a_request_still_in_the_accept_queue() {
    let mut config = test_config();
    config.workers = 1;
    let telemetry = Telemetry::shared();
    let server = Server::start(config, telemetry.clone(), None).expect("boot");
    let addr = server.addr();

    let pinned = pin_a_worker(addr);
    let mut queued = TcpStream::connect(addr).expect("connect");
    queued
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    send(
        &mut queued,
        "POST",
        "/v1/decide",
        sample_decide_body().as_bytes(),
    );
    await_connections(&telemetry, 2);

    // The drain closes the queue behind the waiting connection; the worker
    // must still serve it once the pinned connection lets go.
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(server.drain(Duration::from_secs(10)));
    });
    let (status, body) = read_response(&mut BufReader::new(queued)).expect("queued reply");
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&body));
    let report = rx
        .recv_timeout(Duration::from_secs(15))
        .expect("drain finished");
    assert!(report.clean, "{report:?}");
    drop(pinned);
}

/// Writes `raw` on a fresh connection in one write and reads the status.
fn raw_status(addr: SocketAddr, raw: &[u8]) -> u16 {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.write_all(raw).expect("write request");
    read_response(&mut BufReader::new(stream)).expect("reply").0
}

#[test]
fn every_answered_status_lands_in_its_own_metric_cell() {
    let telemetry = Telemetry::shared();
    let server = Server::start(test_config(), telemetry.clone(), None).expect("boot");
    let addr = server.addr();

    let report = serde_json::to_string(&fg_serve::OutcomeReport {
        ip: fg_netsim::ip::IpAddress::from_octets(10, 1, 2, 3),
        score: 0.5,
        now_ms: 1_000,
    })
    .expect("report serializes");
    let decide = sample_decide_body();
    let routed: [(&str, &str, &[u8], &str, u16); 10] = [
        ("POST", "/v1/decide", decide.as_bytes(), "decide", 200),
        ("POST", "/v1/decide", b"{not json", "decide", 400),
        ("GET", "/v1/decide", b"", "decide", 405),
        ("POST", "/v1/report", report.as_bytes(), "report", 200),
        ("POST", "/v1/report", b"{not json", "report", 400),
        ("GET", "/v1/report", b"", "report", 405),
        ("GET", "/healthz", b"", "observe", 200),
        ("GET", "/debug/traces?trace_id=not-hex", b"", "observe", 400),
        ("POST", "/healthz", b"", "observe", 405),
        ("GET", "/no/such/path", b"", "other", 404),
    ];
    for (method, target, body, _, status) in routed {
        let (got, reply) = request(addr, method, target, body);
        assert_eq!(got, status, "{method} {target}: {reply}");
    }
    // Refused while parsing, before any route is timed.
    let oversized_body =
        b"POST /v1/decide HTTP/1.1\r\nHost: test\r\nContent-Length: 2000000\r\n\r\n";
    assert_eq!(raw_status(addr, oversized_body), 413);
    let long_line = format!("GET /{} HTTP/1.1\r\nHost: test\r\n\r\n", "a".repeat(9_000));
    assert_eq!(raw_status(addr, long_line.as_bytes()), 431);

    let snap = telemetry.metrics().snapshot();
    let cell = |endpoint: &str, status: u16| {
        let status = status.to_string();
        let labels = [("endpoint", endpoint), ("status", status.as_str())];
        (
            snap.counter_value("fg_http_requests_total", &labels),
            snap.latency_sample("fg_http_request_duration_seconds", &labels)
                .map(|l| l.hist.count),
        )
    };
    for (method, target, _, endpoint, status) in routed {
        assert_eq!(
            cell(endpoint, status),
            (Some(1), Some(1)),
            "{method} {target} -> {endpoint} {status}"
        );
    }
    for status in [413, 431] {
        assert_eq!(cell("other", status), (Some(1), Some(0)), "other {status}");
    }
    let answered: u64 = snap
        .counters
        .iter()
        .filter(|c| c.name.name == "fg_http_requests_total")
        .map(|c| c.value)
        .sum();
    assert_eq!(answered, 12, "no exchange was counted twice or elsewhere");

    // The flight recorder holds the parse errors too, as `other`
    // exchanges that never reached a route.
    #[derive(serde::Deserialize)]
    struct Entry {
        endpoint: String,
        request: String,
        status: u16,
    }
    #[derive(serde::Deserialize)]
    struct Flight {
        live: Vec<Entry>,
    }
    let (status, body) = request(addr, "GET", "/debug/flightrecorder", b"");
    assert_eq!(status, 200, "{body}");
    let flight: Flight = serde_json::from_str(&body).expect("flight JSON");
    let unparsed: Vec<(u16, &str)> = flight
        .live
        .iter()
        .filter(|entry| entry.endpoint == "other" && entry.status != 404)
        .map(|entry| (entry.status, entry.request.as_str()))
        .collect();
    assert_eq!(
        unparsed,
        [
            (413, "(unparsed) content too large"),
            (431, "(unparsed) request header fields too large"),
        ],
        "{body}"
    );

    let drained = server.drain(Duration::from_secs(10));
    assert!(drained.clean, "{drained:?}");
}
