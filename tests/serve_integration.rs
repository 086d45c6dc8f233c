//! End-to-end integration of the serving layer: endpoints, shedding at a
//! full accept queue, config hot-reload (reject-and-keep-old), and
//! graceful drain, queued work included — all over real sockets on an
//! ephemeral port.

use fg_detection::log::Endpoint;
use fg_mitigation::policy::Decision;
use fg_scenario::app::GateDecision;
use fg_scenario::workload::{generate, WireRequest, WorkloadConfig};
use fg_serve::loadgen::read_response;
use fg_serve::{ServeConfig, Server};
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

/// Writes one keep-alive request on an open connection.
fn send(stream: &mut TcpStream, method: &str, target: &str, body: &[u8]) {
    write!(
        stream,
        "{method} {target} HTTP/1.1\r\nHost: test\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .expect("write head");
    stream.write_all(body).expect("write body");
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
