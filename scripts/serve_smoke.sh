#!/usr/bin/env bash
# serve-smoke: end-to-end gate for the serving layer.
#
# Boots fg-serve from a watched config file, drives it with fg-loadgen,
# exercises /metrics and the live-observability plane (/debug/traces,
# /debug/flightrecorder, /debug/alerts — every latency exemplar must
# resolve to a retrievable trace whose `?trace_id=` export is exactly the
# full scrape's spans of that trace, the server-side p99 gauge must agree
# with the wire-side measurement, the full /debug/traces scrape may raise
# fg-serve's VmHWM by at most half its body, the decision-stage latencies
# must be a histogram family that counts one policy.decide sample per
# policy decision, every decide answered 200 must reach the decision core once,
# no simulator series may appear, and every latency in seconds must print
# as its whole nanoseconds over 1e9), proves hot-reload
# reject-and-keep-old, refuses deeply nested JSON bodies with 400, refuses
# signed, conflicting or tab-hidden Content-Length fields with 400 and a
# close and keeps each in the flight recorder, drains on SIGTERM, and
# asserts the unified exit-code contract (0/2/3/4) for both binaries.
# Run from the repository root after
# `cargo build --release -p fg-serve --bins`; CI calls it verbatim.
#
# Tunables (env): BIN_DIR, SERVE_PORT, LOAD_DURATION, SERVE_BENCH_OUT.
set -euo pipefail

BIN=${BIN_DIR:-target/release}
PORT=${SERVE_PORT:-8787}
ADDR=127.0.0.1:$PORT
CONFIG=serve-config.json
OUT=${SERVE_BENCH_OUT:-BENCH_serve.json}
LOG=serve-smoke.log
SERVE_PID=""

fail() {
  echo "serve-smoke: FAIL: $*" >&2
  [ -f "$LOG" ] && tail -40 "$LOG" >&2
  exit 1
}

# expect_exit CODE cmd... — the exit-code contract is part of the interface
# (fg_serve::Exit): 0 success, 2 usage, 3 unavailable, 4 contract failed.
expect_exit() {
  local want=$1
  shift
  set +e
  "$@" >/dev/null 2>&1
  local got=$?
  set -e
  [ "$got" -eq "$want" ] || fail "expected exit $want from '$*', got $got"
  echo "serve-smoke: exit-code contract ok: '$*' -> $got"
}

readyz() { curl -sf "http://$ADDR/readyz"; }

# --- config bootstrap -------------------------------------------------
"$BIN/fg-serve" --print-config > "$CONFIG"
python3 - "$CONFIG" "$ADDR" <<'EOF'
import json, sys
path, addr = sys.argv[1], sys.argv[2]
c = json.load(open(path))
# The two observe settings a deployment sets; the rest are fixed, and the
# tier gate carries no counter.
assert sorted(c["observe"]) == ["p99_slo_ms", "trace_capacity"], c["observe"]
assert "denials" not in c["policy"]["gate"], c["policy"]["gate"]
c["listen"] = addr
# A sustained replay pins many non-allow traces; a deep ring keeps more of
# them retrievable (exemplar-cited traces are kept whatever the depth).
c["observe"]["trace_capacity"] = 65536
json.dump(c, open(path, "w"), indent=2)
EOF
"$BIN/fg-serve" --check --config "$CONFIG"
cp "$CONFIG" serve-config.good.json

# A deployment file written before those settings were retired still boots:
# the retired keys are ignored.
python3 - "$CONFIG" <<'EOF'
import json, sys
c = json.load(open(sys.argv[1]))
c["observe"].update(slow_request_ms=250, flight_recorder_entries=256, sentinel_poll_ms=500)
c["policy"]["gate"]["denials"] = 0
json.dump(c, open("serve-config.retired.json", "w"), indent=2)
EOF
expect_exit 0 "$BIN/fg-serve" --check --config serve-config.retired.json

# A structurally valid config the fg-analyze gate must reject: challenging
# at the block threshold makes every challenge unreachable.
python3 - "$CONFIG" <<'EOF'
import json, sys
c = json.load(open(sys.argv[1]))
c["policy"]["challenge_threshold"] = c["policy"]["block_threshold"]
json.dump(c, open("serve-config.bad.json", "w"), indent=2)
EOF

# --- exit-code contract, no server needed -----------------------------
expect_exit 2 "$BIN/fg-serve" --no-such-flag
expect_exit 2 "$BIN/fg-loadgen" --no-such-flag
expect_exit 4 "$BIN/fg-serve" --check --config serve-config.bad.json
expect_exit 3 "$BIN/fg-loadgen" --addr 127.0.0.1:9 --duration 1s --connections 1 --out /dev/null

# --- boot -------------------------------------------------------------
"$BIN/fg-serve" --config "$CONFIG" --final-metrics serve-final-metrics.prom > "$LOG" 2>&1 &
SERVE_PID=$!
trap '[ -n "$SERVE_PID" ] && kill -9 "$SERVE_PID" 2>/dev/null || true' EXIT
for _ in $(seq 1 100); do
  readyz > /dev/null 2>&1 && break
  kill -0 "$SERVE_PID" 2>/dev/null || fail "fg-serve died during boot"
  sleep 0.2
done
readyz | grep -q '"ready":true' || fail "/readyz never reported ready"
curl -sf "http://$ADDR/healthz" | grep -q '"ok":true' || fail "/healthz wrong"
echo "serve-smoke: fg-serve ready on $ADDR"

# A second instance on the occupied port must refuse with 3, not clobber.
expect_exit 3 "$BIN/fg-serve" --config "$CONFIG"

# --- load -------------------------------------------------------------
"$BIN/fg-loadgen" --addr "$ADDR" --connections 4 --duration "${LOAD_DURATION:-10s}" --seed 42 \
  --assert-min-rate 50 --assert-max-p99-ms 250 --out "$OUT"
python3 - "$OUT" <<'EOF'
import json, sys
r = json.load(open(sys.argv[1]))
assert r["schema"] == 2, r
assert r["ok"] > 0 and r["decisions_per_sec"] > 0, r
# Nothing in this replay may be refused: 4 closed-loop connections never
# fill the accept queue, and the breaker only opens on handler failures.
assert r["errors"] == {}, r["errors"]
assert r["transport_errors"] == 0, r["transport_errors"]
# Schema 2: per-status counts (200 included) and the k slowest exchanges
# with their decision trace ids.
assert r["statuses"].get("200", 0) == r["ok"], r["statuses"]
assert sum(r["statuses"].values()) == r["sent"], r["statuses"]
assert r["slowest"], "slowest exchanges missing"
assert all(s["latency_ms"] > 0 for s in r["slowest"]), r["slowest"]
lat = [s["latency_ms"] for s in r["slowest"]]
assert lat == sorted(lat, reverse=True), "slowest not worst-first"
# The decision mix, for the record (no bound: it is what the policy decides).
total = sum(r["decisions"].values()) or 1
mix = ", ".join(f"{k} {v} ({100.0 * v / total:.1f}%)" for k, v in sorted(r["decisions"].items()))
print(f"serve-smoke: decision mix over {total} decisions: {mix}")
EOF
echo "serve-smoke: load OK -> $OUT"

# An impossible SLO bound must exit 4 (violation), not 0.
expect_exit 4 "$BIN/fg-loadgen" --addr "$ADDR" --connections 1 --duration 1s --seed 43 \
  --assert-min-rate 100000000 --out /dev/null

# --- metrics ----------------------------------------------------------
METRICS=$(curl -sf "http://$ADDR/metrics")
# Here-strings, not `echo | grep -q`: under pipefail, grep quitting at its
# first match kills echo with SIGPIPE once the exposition outgrows a pipe
# buffer, as the stage histograms make it.
grep -q 'fg_decisions_total' <<< "$METRICS" || fail "metrics missing fg_decisions_total"
grep -q 'fg_http_requests_total' <<< "$METRICS" || fail "metrics missing fg_http_requests_total"
echo "serve-smoke: /metrics OK"

# --- live observability plane -----------------------------------------
# Let the embedded sentinel tick at least once past the load, then scrape
# the debug plane into files; CI uploads them as the debug-snapshot
# artifact alongside BENCH_serve.json.
sleep 2
curl -sf "http://$ADDR/metrics" > serve-metrics.prom
# /debug/traces is streamed: its body goes out in 64 KB pieces and is never
# held whole, so the scrape may raise fg-serve's peak resident set (VmHWM,
# in kB) by no more than half the body. Built whole and copied once more, a
# body raised it by about twice its size.
hwm_kb() { awk '/^VmHWM:/ { print $2 }' "/proc/$SERVE_PID/status"; }
HWM_BEFORE=$(hwm_kb)
curl -sf "http://$ADDR/debug/traces" > serve-debug-traces.json
HWM_AFTER=$(hwm_kb)
TRACES_BYTES=$(wc -c < serve-debug-traces.json)
echo "serve-smoke: /debug/traces $TRACES_BYTES bytes; fg-serve VmHWM $HWM_BEFORE kB before the scrape, $HWM_AFTER kB after"
[ $(( (HWM_AFTER - HWM_BEFORE) * 1024 * 2 )) -le "$TRACES_BYTES" ] \
  || fail "the /debug/traces scrape raised VmHWM by $((HWM_AFTER - HWM_BEFORE)) kB, more than half its $TRACES_BYTES-byte body"
curl -sf "http://$ADDR/debug/flightrecorder" > serve-debug-flightrecorder.json
curl -sf "http://$ADDR/debug/alerts" > serve-debug-alerts.json
python3 - "$OUT" "$ADDR" <<'EOF'
import json, re, sys, urllib.request
metrics = open("serve-metrics.prom").read()
traces = json.load(open("serve-debug-traces.json"))
flight = json.load(open("serve-debug-flightrecorder.json"))
alerts = json.load(open("serve-debug-alerts.json"))
bench = json.load(open(sys.argv[1]))

# Every latency exemplar on /metrics must resolve to a trace that
# /debug/traces can still serve — the metrics->trace pivot is the whole
# point of exemplars, so a dangling id is a hard failure.
exemplars = set(re.findall(r'# \{trace_id="([0-9a-f]{16})"\}', metrics))
assert exemplars, "no exemplars on /metrics after an abusive replay"
retained = set(traces["retained"])
dangling = exemplars - retained
print(f"serve-smoke: traces submitted {traces['submitted']} kept {traces['kept']} "
      f"evicted {traces['evicted']}; {len(exemplars)} exemplars, {len(dangling)} dangling")
assert not dangling, f"exemplars not resolvable via /debug/traces: {sorted(dangling)}"

# The filtered export is the full one cut to one trace: for every exemplar,
# `?trace_id=` returns the same accounting and retained ids (nothing is
# decided between the scrapes) and exactly the full scrape's spans of that
# trace, in order.
for trace_id in sorted(exemplars):
    url = f"http://{sys.argv[2]}/debug/traces?trace_id={trace_id}"
    with urllib.request.urlopen(url) as reply:
        one = json.load(reply)
    for key in ("submitted", "kept", "sampled_out", "evicted", "retained"):
        assert one[key] == traces[key], (trace_id, key, one[key], traces[key])
    want = [s for s in traces["spans"] if s["trace_id"] == int(trace_id, 16)]
    assert want and one["spans"] == want, (trace_id, len(one["spans"]), len(want))
print(f"serve-smoke: /debug/traces?trace_id= equals the full scrape's spans for {len(exemplars)} exemplars")

# Attribute formats: the tracer keeps each attribute value raw and
# formats it only when a kept trace is exported, so check the formats of
# every span the ring served (the replay keeps every non-allow trace).
def attrs(span):
    return dict(span["attrs"])
labels = {"allow", "challenge", "rate-limited", "tier-denied", "honeypot", "block"}
checked = {"detect.assess": 0, "serve.http": 0, "wire": 0, "request": 0}
for span in traces["spans"]:
    name, a = span["name"], attrs(span)
    if name == "detect.assess":
        assert re.fullmatch(r"\d+\.\d{3}", a["score"]), (name, a)
        checked[name] += 1
    elif name == "serve.http":
        assert re.fullmatch(r"\d{3}", a["status"]), (name, a)
        assert re.fullmatch(r"\d+", a["latency_us"]), (name, a)
        checked[name] += 1
        if "wire.trace_id" in a or "wire.parent_id" in a:
            assert re.fullmatch(r"[0-9a-f]{32}", a["wire.trace_id"]), (name, a)
            assert re.fullmatch(r"[0-9a-f]{16}", a["wire.parent_id"]), (name, a)
            checked["wire"] += 1
    elif name.startswith("request "):
        assert a["decision"] in labels, (name, a)
        checked["request"] += 1
print(f"serve-smoke: span attribute formats OK {checked}")
assert checked["detect.assess"] and checked["serve.http"] and checked["request"], checked
# Every retained request trace went through the HTTP layer, so each must
# carry its transport span (status, latency, wire correlation).
assert checked["serve.http"] == checked["request"], checked

# The flight recorder saw the replay and still holds a live tail.
assert flight["recorded"] > 0 and flight["live"], flight

# The embedded sentinel is evaluating the shipped SLO policy.
assert "active" in alerts, alerts
assert any(r.get("id") == "serve-p99-slo" for r in alerts["policy"]["rules"]), alerts["policy"]

# The server-side p99 gauge must agree with the wire-side measurement:
# positive, and no better than the client saw (client p99 includes
# loopback + parse overhead, so allow 3x + 50ms of slack, not equality).
m = re.search(r'fg_http_request_p99_seconds\{endpoint="decide"\} ([0-9.eE+-]+)', metrics)
assert m, "p99 gauge missing for the decide endpoint"
server_ms = float(m.group(1)) * 1000.0
client_ms = bench["latency_ms"]["p99"]
assert server_ms > 0, "p99 gauge never refreshed by the sentinel"
assert server_ms <= client_ms * 3 + 50, (server_ms, client_ms)

# Decision-stage latencies are a native histogram family. Every decide
# answered 200 reached the decision core once, and every policy decision
# recorded one `policy.decide` sample.
assert "# TYPE fg_stage_latency_seconds histogram\n" in metrics, "stage family not a histogram"
def sample(series):
    m = re.search(re.escape(series) + r" ([0-9.eE+-]+)$", metrics, re.M)
    assert m, f"{series} missing from /metrics"
    return float(m.group(1))
def family_sum(name):
    return sum(float(v) for v in re.findall(r"^" + name + r"(?:\{[^}]*\})? (\S+)$", metrics, re.M))
decides = sample('fg_http_requests_total{endpoint="decide",status="200"}')
gated = family_sum("fg_requests_total")
decided = family_sum("fg_decisions_total")
policy_samples = sample('fg_stage_latency_seconds_count{stage="policy.decide"}')
print(f"serve-smoke: {decides:.0f} decides answered 200, {gated:.0f} requests reached the core, "
      f"{decided:.0f} policy decisions, {policy_samples:.0f} policy.decide stage samples")
assert gated == decides, (gated, decides)
assert policy_samples == decided, (policy_samples, decided)

# fg-serve hosts the decision core alone: none of the simulator's series
# (SMS gateway, CAPTCHA outcomes and stage, seat holds, revenue) appear.
simulator = re.findall(r"^(fg_sms_\w*|fg_nip_hold\w*|fg_ticket_revenue_units|fg_solver_spend_units"
                       r"|fg_challenges_total|fg_human_abandons_total"
                       r"|\w+\{stage=\"mitigation\.captcha\"[^}]*\})", metrics, re.M)
assert not simulator, f"simulator series on fg-serve's /metrics: {sorted(set(simulator))[:8]}"

# Latencies are recorded in whole nanoseconds, so every `le` bound, `_sum`
# and exemplar value of a `_seconds` histogram, and every p99 gauge, must
# read as exactly that count over 1e9: no `le="0.0000008000000000000001"`.
families = set(re.findall(r"^# TYPE (\w+_seconds) histogram$", metrics, re.M))
assert families, "no latency histogram families on /metrics"
def latency_values():
    for line in metrics.splitlines():
        if line.startswith("fg_http_request_p99_seconds"):
            yield line, line.rsplit(" ", 1)[1]
            continue
        m = re.match(r"(\w+)_(bucket|sum)[{ ]", line)
        if not m or m.group(1) not in families:
            continue
        if m.group(2) == "sum":
            yield line, line.rsplit(" ", 1)[1]
            continue
        le = re.search(r'le="([^"]+)"', line).group(1)
        if le != "+Inf":
            yield line, le
        exemplar = re.search(r"# \{[^}]*\} (\S+)$", line)
        if exemplar:
            yield line, exemplar.group(1)
values = list(latency_values())
noisy = [line for line, v in values if float(v) != round(float(v) * 1e9) / 1e9]
print(f"serve-smoke: /metrics {len(metrics.encode())} bytes in {metrics.count(chr(10))} lines; "
      f"{len(values)} latency values in seconds, {len(noisy)} with float noise")
assert not noisy, noisy[:5]
EOF
echo "serve-smoke: observability plane OK (exemplars resolve, p99 agrees, stage histograms count every decision, no simulator series, latencies print exactly)"

# --- hot reload: rejected edit keeps the old config -------------------
GEN_BEFORE=$(readyz | python3 -c 'import json,sys; print(json.load(sys.stdin)["config_generation"])')
cp serve-config.bad.json "$CONFIG"
for _ in $(seq 1 50); do
  readyz | grep -q 'rejected' && break
  sleep 0.2
done
readyz | grep -q 'rejected' || fail "watcher never rejected the bad config"
GEN_AFTER=$(readyz | python3 -c 'import json,sys; print(json.load(sys.stdin)["config_generation"])')
[ "$GEN_BEFORE" = "$GEN_AFTER" ] || fail "generation moved on a rejected reload ($GEN_BEFORE -> $GEN_AFTER)"
# The surviving config must still serve decisions.
"$BIN/fg-loadgen" --addr "$ADDR" --connections 2 --duration 2s --seed 44 --out /dev/null
echo "serve-smoke: hot-reload rejection OK (old config survived)"

# --- hot reload: a valid edit applies ---------------------------------
python3 - <<'EOF'
import json
c = json.load(open("serve-config.good.json"))
c["breaker"]["open_ms"] = 500
json.dump(c, open("serve-config.json", "w"), indent=2)
EOF
for _ in $(seq 1 50); do
  readyz | grep -q "\"config_generation\":$((GEN_BEFORE + 1))" && break
  sleep 0.2
done
readyz | grep -q "\"config_generation\":$((GEN_BEFORE + 1))" || fail "valid hot reload never applied"
echo "serve-smoke: hot-reload apply OK (generation $((GEN_BEFORE + 1)))"

# --- hostile nesting --------------------------------------------------
# 1 MiB bodies nested far past the JSON reader's depth limit, including
# arrays under an unknown key, must get 400 from both endpoints; before
# nesting was bounded, one of them overflowed a worker's stack and aborted
# fg-serve. The drain check below also fails on any panic they caused.
python3 - <<'EOF'
mib = 1 << 20
bodies = {
    "arrays": b"[" * mib,
    "objects": b'{"a":' * (mib // 5),
    "unknown-key": (b'{"junk":' + b"[" * mib)[:mib],
}
for name, body in bodies.items():
    open(f"serve-hostile-{name}.json", "wb").write(body)
EOF
for body in serve-hostile-*.json; do
  for endpoint in /v1/decide /v1/report; do
    status=$(curl -s -o /dev/null -w '%{http_code}' -H 'Expect:' \
      -H 'Content-Type: application/json' --data-binary "@$body" "http://$ADDR$endpoint")
    [ "$status" = 400 ] || fail "$body to $endpoint answered $status, wanted 400"
  done
done
rm -f serve-hostile-*.json
status=$(curl -s -o /dev/null -w '%{http_code}' "http://$ADDR/readyz")
[ "$status" = 200 ] || fail "/readyz answered $status after the hostile bodies"
echo "serve-smoke: hostile nesting OK (400 on both endpoints, still ready)"

# --- hostile framing --------------------------------------------------
# A Content-Length value is digits only, repeated fields must agree, and
# no whitespace may precede a field name's colon (RFC 9110 8.6, RFC 9112
# 5.1 and 6.3). A signed length, a second one that differs, or a length
# hidden behind a tab gets 400 and a closed connection: framing the body
# by any other reading would leave the rest of it on the connection as
# the next request.
python3 - "$ADDR" <<'EOF'
import socket, sys
host, port = sys.argv[1].rsplit(":", 1)
shapes = {
    "signed": b"Content-Length: +5\r\n",
    "conflicting": b"Content-Length: 2\r\nContent-Length: 5\r\n",
    "tab-before-colon": b"Content-Length\t: 5\r\n",
}
for name, fields in shapes.items():
    reply = b""
    with socket.create_connection((host, int(port)), timeout=5) as conn:
        conn.sendall(b"POST /v1/decide HTTP/1.1\r\nHost: smoke\r\n" + fields + b"\r\nhello")
        try:
            while True:
                chunk = conn.recv(4096)
                if not chunk:
                    break
                reply += chunk
        except socket.timeout:
            raise AssertionError(f"{name}: connection left open after {reply[:120]!r}")
    head = reply.split(b"\r\n\r\n", 1)[0]
    assert head.startswith(b"HTTP/1.1 400 "), (name, reply[:200])
    assert b"Connection: close" in head, (name, head)
    assert reply.count(b"HTTP/1.1 ") == 1, (name, reply)

# Each refusal is an answered parse error, so the flight recorder's live
# ring holds all three, as `other` exchanges that never reached a route.
import json, urllib.request
with urllib.request.urlopen(f"http://{sys.argv[1]}/debug/flightrecorder", timeout=5) as reply:
    flight = json.load(reply)
unparsed = [e for e in flight["live"] if e["request"].startswith("(unparsed)")]
assert [(e["status"], e["endpoint"]) for e in unparsed] == [(400, "other")] * 3, unparsed
print("serve-smoke: flight recorder holds " + "; ".join(e["request"] for e in unparsed))
EOF
# Valid decides still get 200 afterwards.
"$BIN/fg-loadgen" --addr "$ADDR" --connections 1 --duration 1s --seed 45 --out serve-hostile-after.json
python3 - <<'EOF'
import json
r = json.load(open("serve-hostile-after.json"))
assert r["ok"] > 0 and r["errors"] == {} and r["transport_errors"] == 0, r
assert r["statuses"] == {"200": r["ok"]}, r["statuses"]
EOF
rm -f serve-hostile-after.json
echo "serve-smoke: hostile framing OK (signed, conflicting and tab-hidden Content-Length get 400 and a close; decides still 200)"

# --- SIGTERM drain ----------------------------------------------------
kill -TERM "$SERVE_PID"
set +e
wait "$SERVE_PID"
DRAIN=$?
set -e
trap - EXIT
[ "$DRAIN" -eq 0 ] || fail "drain exited $DRAIN, wanted 0"
grep -q 'drained cleanly' "$LOG" || fail "no clean-drain line in the server log"
if grep -n 'panicked' "$LOG"; then fail "fg-serve panicked during the smoke"; fi
[ -s serve-final-metrics.prom ] || fail "final metrics snapshot missing"
grep -q 'fg_decisions_total' serve-final-metrics.prom || fail "final metrics snapshot missing counters"
echo "serve-smoke: SIGTERM drain OK"
echo "serve-smoke: PASS"
