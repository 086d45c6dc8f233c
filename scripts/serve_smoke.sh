#!/usr/bin/env bash
# serve-smoke: end-to-end gate for the serving layer.
#
# Boots fg-serve from a watched config file, drives it with fg-loadgen,
# exercises /metrics and the live-observability plane (/debug/traces,
# /debug/flightrecorder, /debug/alerts — every latency exemplar must
# resolve to a retrievable trace, and the server-side p99 gauge must agree
# with the wire-side measurement), proves hot-reload reject-and-keep-old,
# drains on SIGTERM, and asserts the unified exit-code contract (0/2/3/4)
# for both binaries. Run from the repository root after
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
c["listen"] = addr
# A sustained replay pins many non-allow traces; a deep ring keeps more of
# them retrievable (exemplar-cited traces are kept whatever the depth).
c["observe"]["trace_capacity"] = 65536
json.dump(c, open(path, "w"), indent=2)
EOF
"$BIN/fg-serve" --check --config "$CONFIG"
cp "$CONFIG" serve-config.good.json

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
EOF
echo "serve-smoke: load OK -> $OUT"

# An impossible SLO bound must exit 4 (violation), not 0.
expect_exit 4 "$BIN/fg-loadgen" --addr "$ADDR" --connections 1 --duration 1s --seed 43 \
  --assert-min-rate 100000000 --out /dev/null

# --- metrics ----------------------------------------------------------
METRICS=$(curl -sf "http://$ADDR/metrics")
echo "$METRICS" | grep -q 'fg_decisions_total' || fail "metrics missing fg_decisions_total"
echo "$METRICS" | grep -q 'fg_http_requests_total' || fail "metrics missing fg_http_requests_total"
echo "serve-smoke: /metrics OK"

# --- live observability plane -----------------------------------------
# Let the embedded sentinel tick at least once past the load, then scrape
# the debug plane into files; CI uploads them as the debug-snapshot
# artifact alongside BENCH_serve.json.
sleep 2
curl -sf "http://$ADDR/metrics" > serve-metrics.prom
curl -sf "http://$ADDR/debug/traces" > serve-debug-traces.json
curl -sf "http://$ADDR/debug/flightrecorder" > serve-debug-flightrecorder.json
curl -sf "http://$ADDR/debug/alerts" > serve-debug-alerts.json
python3 - "$OUT" <<'EOF'
import json, re, sys
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
EOF
echo "serve-smoke: observability plane OK (exemplars resolve, p99 agrees)"

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
