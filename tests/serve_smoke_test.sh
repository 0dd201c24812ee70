#!/bin/sh
# End-to-end smoke test of the serving stack: build a small index,
# start cafe_serve on an ephemeral port with the introspection
# listener and span sampling on, drive it with cafe_loadgen (4
# concurrent clients), follow one trace id from the loadgen report
# into /slowz and its span timeline out of /tracez (validated as
# loadable Chrome trace JSON by tools/tracecheck.py), validate
# /metrics as Prometheus text exposition, check its search.* metrics
# against the /flightz records and that queue wait plus search time
# adds up to request time, fetch the stats document,
# then SIGTERM the server and require a clean (exit 0) graceful
# shutdown. Before that, cafe_serve must refuse to start on an index
# built over another collection.
# Run by ctest as: serve_smoke_test.sh <cafe_cli> <cafe_serve> <cafe_loadgen>
set -eu

CLI="${1:?usage: serve_smoke_test.sh <cafe_cli> <cafe_serve> <cafe_loadgen>}"
SERVE="${2:?missing cafe_serve path}"
LOADGEN="${3:?missing cafe_loadgen path}"
TOOLS_DIR="$(dirname "$0")/../tools"
DIR="$(mktemp -d "${TMPDIR:-/tmp}/cafe_serve_test.XXXXXX")"
SERVER_PID=""
cleanup() {
  if [ -n "$SERVER_PID" ] && kill -0 "$SERVER_PID" 2> /dev/null; then
    kill -KILL "$SERVER_PID" 2> /dev/null || true
  fi
  rm -rf "$DIR"
}
trap cleanup EXIT

HAVE_PYTHON=0
if command -v python3 > /dev/null 2>&1; then
  HAVE_PYTHON=1
fi

# Fetch an introspection endpoint over plain HTTP/1.0.
fetch() {
  python3 -c '
import sys, urllib.request
with urllib.request.urlopen(sys.argv[1], timeout=10) as r:
    sys.stdout.write(r.read().decode())
' "$1"
}

"$SERVE" --version | grep -q "cafe_serve"
"$LOADGEN" --version | grep -q "cafe_loadgen"
"$CLI" --version | grep -q "cafe_cli"

"$CLI" generate --bases 100000 --out "$DIR/db.fa" --seed 5 > /dev/null
"$CLI" build --fasta "$DIR/db.fa" --collection "$DIR/db.col" \
    --index "$DIR/db.idx" --interval 8 > /dev/null

# An index built over another collection is refused at startup.
"$CLI" generate --bases 50000 --out "$DIR/other.fa" --seed 6 > /dev/null
"$CLI" build --fasta "$DIR/other.fa" --collection "$DIR/other.col" \
    --index "$DIR/other.idx" > /dev/null
if "$SERVE" --collection "$DIR/db.col" --index "$DIR/other.idx" \
    --port 0 > "$DIR/mismatch.log" 2>&1; then
  echo "expected cafe_serve to refuse a mismatched collection and index" >&2
  exit 1
fi
grep -Eq "index covers|in the index" "$DIR/mismatch.log"

# --slow-ms 0 pins every completed request into the slow log, so the
# trace id the loadgen reports below is guaranteed to be in /slowz;
# --span-sample-rate 1 records a span timeline for every request, so
# the same id is guaranteed to answer on /tracez too.
"$SERVE" --collection "$DIR/db.col" --index "$DIR/db.idx" \
    --port 0 --port-file "$DIR/port" --workers 2 --search-threads 2 \
    --http-port 0 --http-port-file "$DIR/http_port" \
    --slow-ms 0 --flight-capacity 64 --slow-capacity 64 \
    --span-sample-rate 1 --stats-interval 1 \
    > "$DIR/server.log" 2>&1 &
SERVER_PID=$!

# Wait for the server to publish its ephemeral ports.
wait_for_file() {
  tries=0
  while [ ! -s "$1" ]; do
    tries=$((tries + 1))
    if [ "$tries" -gt 100 ]; then
      echo "server never wrote $1" >&2
      cat "$DIR/server.log" >&2
      exit 1
    fi
    if ! kill -0 "$SERVER_PID" 2> /dev/null; then
      echo "server exited before listening" >&2
      cat "$DIR/server.log" >&2
      exit 1
    fi
    sleep 0.1
  done
}
wait_for_file "$DIR/port"
wait_for_file "$DIR/http_port"
PORT="$(cat "$DIR/port")"
HTTP_PORT="$(cat "$DIR/http_port")"

# Closed-loop run: 4 clients, queries excised from the collection itself
# so the searches produce real hits. --slow-ms/--trace-ids turn on the
# client-side latency report used to follow a trace id to the server;
# --http-port makes that report link each sampled id's /tracez URL.
"$LOADGEN" --port "$PORT" --query-file "$DIR/db.fa" \
    --clients 4 --requests 8 --slow-ms 1 --trace-ids 3 \
    --http-port "$HTTP_PORT" \
    > "$DIR/loadgen.log"
grep -q "32 responses" "$DIR/loadgen.log"
grep -q "errors 0" "$DIR/loadgen.log"
grep -q "slow requests" "$DIR/loadgen.log"
grep -q "latency buckets" "$DIR/loadgen.log"
grep -q "slowest 3 requests:" "$DIR/loadgen.log"
# With sampling at 1, every slow line carries the ready-made timeline
# URL (the server's sampled flag made it back to the client).
grep -q "/tracez?trace_id=" "$DIR/loadgen.log"

# The slowest request's trace id (16 hex digits) as the client saw it.
TRACE_ID="$(sed -n 's/.*trace=\([0-9a-f]\{16\}\).*/\1/p' \
    "$DIR/loadgen.log" | head -1)"
if [ -z "$TRACE_ID" ]; then
  echo "loadgen printed no trace ids" >&2
  cat "$DIR/loadgen.log" >&2
  exit 1
fi

# And an open-loop paced run with a generous deadline; the stats
# snapshot afterwards covers both runs. --trace-ids 32 prints every
# response's latency.
"$LOADGEN" --port "$PORT" --query-file "$DIR/db.fa" \
    --clients 2 --requests 16 --rate 50 --deadline-ms 10000 \
    --trace-ids 32 --stats-out "$DIR/stats.json" > "$DIR/loadgen2.log"
grep -q "32 responses" "$DIR/loadgen2.log"
grep -q "errors 0" "$DIR/loadgen2.log"

# The printed p50 is the exact nearest-rank median (the 16th of 32
# sorted latencies), not the edge of a histogram bucket.
P50="$(sed -n 's/.* p50 \([0-9.]*\)ms .*/\1/p' "$DIR/loadgen2.log")"
LATENCIES="$(sed -n 's/^ *\([0-9.]*\)ms trace=.*/\1/p' "$DIR/loadgen2.log")"
MEDIAN="$(echo "$LATENCIES" | sort -n | sed -n 16p)"
if [ "$(echo "$LATENCIES" | wc -l)" -ne 32 ] || [ -z "$P50" ] ||
    [ "$P50" != "$MEDIAN" ]; then
  echo "loadgen p50 '$P50' is not the nearest-rank median '$MEDIAN'" >&2
  cat "$DIR/loadgen2.log" >&2
  exit 1
fi

# The stats document is valid JSON in the --stats=json schema family and
# carries the server.* metrics, now with percentile summaries.
grep -q '"command":"stats"' "$DIR/stats.json"
grep -q 'server.requests_accepted' "$DIR/stats.json"
grep -q 'server.queue_wait_micros' "$DIR/stats.json"
grep -q '"p50"' "$DIR/stats.json"
if [ "$HAVE_PYTHON" -eq 1 ]; then
  python3 - "$DIR/stats.json" << 'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["command"] == "stats", doc
assert "version" in doc["server"], doc
accepted = doc["metrics"]["counters"]["server.requests_accepted"]
assert accepted >= 64, accepted  # 32 + 32 requests across the two runs
hist = doc["metrics"]["histograms"]["server.request_micros"]
for key in ("p50", "p90", "p99"):
    assert key in hist, hist
EOF
fi

# --- Live introspection over HTTP ------------------------------------
if [ "$HAVE_PYTHON" -eq 1 ]; then
  # /metrics must be valid Prometheus text exposition.
  fetch "http://127.0.0.1:$HTTP_PORT/metrics" > "$DIR/metrics.txt"
  grep -q "cafe_server_requests_accepted_total" "$DIR/metrics.txt"
  grep -q "cafe_server_request_micros_bucket" "$DIR/metrics.txt"
  python3 "$TOOLS_DIR/promcheck.py" "$DIR/metrics.txt"

  # /statusz carries the runtime summary, including the build/runtime
  # facts: selected SIMD level, index mode, span sampling rate.
  fetch "http://127.0.0.1:$HTTP_PORT/statusz" > "$DIR/statusz.json"
  grep -q '"engine"' "$DIR/statusz.json"
  grep -q '"flight_recorded"' "$DIR/statusz.json"
  grep -q '"simd"' "$DIR/statusz.json"
  grep -q '"index_mode"' "$DIR/statusz.json"
  grep -q '"span_sample_rate":1' "$DIR/statusz.json"
  python3 -m json.tool "$DIR/statusz.json" > /dev/null

  # /flightz is the recent-request ring.
  fetch "http://127.0.0.1:$HTTP_PORT/flightz" > "$DIR/flightz.json"
  grep -q '"records"' "$DIR/flightz.json"
  python3 -m json.tool "$DIR/flightz.json" > /dev/null

  # /metrics and /flightz tell one story. The two loadgen runs sent 64
  # requests and --flight-capacity is 64, so the ring holds every one:
  # each search.* counter is the sum of its trace field over the
  # records, and each stage histogram has one sample per record whose
  # request reached the engine.
  python3 - "$DIR/metrics.txt" "$DIR/flightz.json" << 'EOF'
import json, sys
metrics = {}
for line in open(sys.argv[1]):
    if line.startswith("cafe_search_"):
        name, value = line.split()
        metrics[name] = int(value)
records = json.load(open(sys.argv[2]))["records"]
assert len(records) == 64, len(records)
for field in records[0]["trace"]["counters"]:
    want = sum(r["trace"]["counters"][field] for r in records)
    got = metrics["cafe_search_%s_total" % field]
    assert got == want, (field, got, want)
searched = sum(1 for r in records if r["trace"]["counters"]["queries"] > 0)
got = metrics["cafe_search_total_micros_count"]
assert got == searched, ("cafe_search_total_micros_count", got, searched)
EOF

  # The stage times add up: each request's end-to-end time is its queue
  # wait plus its own engine call, so the sums agree within 10%.
  python3 - "$DIR/metrics.txt" << 'EOF'
import sys
sums = {}
for line in open(sys.argv[1]):
    parts = line.split()
    if len(parts) == 2 and parts[0].endswith("_sum"):
        sums[parts[0]] = float(parts[1])
queue = sums["cafe_server_queue_wait_micros_sum"]
search = sums["cafe_search_total_micros_sum"]
request = sums["cafe_server_request_micros_sum"]
assert abs(queue + search - request) <= 0.1 * request, (queue, search, request)
EOF

  # The full loop: the slowest trace id the *client* printed must be in
  # the server's slow log, with the complete pruning funnel attached.
  fetch "http://127.0.0.1:$HTTP_PORT/slowz" > "$DIR/slowz.json"
  if ! grep -q "\"trace_id\":\"$TRACE_ID\"" "$DIR/slowz.json"; then
    echo "trace $TRACE_ID not found in /slowz" >&2
    cat "$DIR/slowz.json" >&2
    exit 1
  fi
  grep -q '"candidates_aligned"' "$DIR/slowz.json"
  grep -q '"queue_us"' "$DIR/slowz.json"
  # Every record was sampled (rate 1) and links its timeline.
  grep -q '"sampled":true' "$DIR/slowz.json"
  grep -q "\"tracez\":\"/tracez?trace_id=$TRACE_ID\"" "$DIR/slowz.json"
  python3 -m json.tool "$DIR/slowz.json" > /dev/null

  # The span timeline behind that trace id: bare /tracez lists it, and
  # /tracez?trace_id= returns Chrome trace JSON that tracecheck.py
  # accepts — with the whole pipeline present (>= 8 distinct span
  # names) including the fine-phase worker spans.
  fetch "http://127.0.0.1:$HTTP_PORT/tracez" > "$DIR/tracez_list.json"
  grep -q "\"trace_id\":\"$TRACE_ID\"" "$DIR/tracez_list.json"
  python3 -m json.tool "$DIR/tracez_list.json" > /dev/null
  fetch "http://127.0.0.1:$HTTP_PORT/tracez?trace_id=$TRACE_ID" \
      > "$DIR/trace.json"
  grep -q '"queue.wait"' "$DIR/trace.json"
  python3 "$TOOLS_DIR/tracecheck.py" --min-names 8 \
      --require fine.worker --require search "$DIR/trace.json"

  # Unknown paths 404 without killing the listener.
  python3 -c '
import sys, urllib.request, urllib.error
try:
    urllib.request.urlopen(sys.argv[1], timeout=10)
except urllib.error.HTTPError as e:
    sys.exit(0 if e.code == 404 else 1)
sys.exit(1)
' "http://127.0.0.1:$HTTP_PORT/nope"
fi

# Let the stats thread complete at least one window.
sleep 1.2

# Graceful shutdown: SIGTERM must drain and exit 0.
kill -TERM "$SERVER_PID"
rc=0
wait "$SERVER_PID" || rc=$?
SERVER_PID=""
if [ "$rc" -ne 0 ]; then
  echo "server exited with status $rc after SIGTERM" >&2
  cat "$DIR/server.log" >&2
  exit 1
fi
grep -q "shutting down" "$DIR/server.log"
grep -q "introspection on" "$DIR/server.log"
grep -q "stats window" "$DIR/server.log"

echo "serve_smoke_test OK"
