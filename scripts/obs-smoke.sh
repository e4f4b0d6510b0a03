#!/usr/bin/env bash
# Observability smoke: boot a real pcmd, drive a sweep through pcmctl's
# sweep -server path, then assert the introspection surfaces — /metrics, the
# /debug/traces ring, the job listing, and the pcmctl trace renderer —
# answer 200 with real content. Exercises the same binaries and flags an
# operator would use, so a wiring regression (route dropped, ring never
# recording, trace ID not propagated) fails CI even if unit tests pass.
set -euo pipefail
cd "$(dirname "$0")/.."

addr=127.0.0.1:18080
work=$(mktemp -d)
pid=""
cleanup() {
  [ -n "$pid" ] && kill "$pid" 2>/dev/null && wait "$pid" 2>/dev/null
  rm -rf "$work"
}
trap cleanup EXIT

go build -o "$work/pcmd" ./cmd/pcmd
go build -o "$work/pcmctl" ./cmd/pcmctl

"$work/pcmd" -addr "$addr" -pprof -log-format json 2>"$work/pcmd.log" &
pid=$!
for _ in $(seq 1 100); do
  curl -fsS "http://$addr/healthz" >/dev/null 2>&1 && break
  sleep 0.1
done
curl -fsS "http://$addr/healthz" >/dev/null || {
  echo "pcmd never became healthy"; cat "$work/pcmd.log"; exit 1
}

# A server-side sweep: POST /v1/sweeps via pcmctl, polled to completion.
"$work/pcmctl" sweep -kind failure-probability \
  -params '{"scheme":"ecp","window":16,"max_errors":8,"trials":2000}' \
  -seeds 2 -server "http://$addr" -quiet >"$work/sweep.json"
grep -q '"state": "done"' "$work/sweep.json" || {
  echo "sweep did not finish done:"; cat "$work/sweep.json"; exit 1
}

# A direct job: peerless sweeps run on the loopback backend, so only a
# plain submission exercises the job store, its listing, and its
# flight-recorder timeline.
jid=$(curl -fsS "http://$addr/v1/jobs/compression" -d '{"apps":["milc"],"scale":"quick"}' |
  grep -o '"id": "[^"]*"' | head -1 | cut -d'"' -f4)
[ -n "$jid" ] || { echo "job submission returned no id"; exit 1; }
for _ in $(seq 1 100); do
  curl -fsS "http://$addr/v1/jobs/$jid" >"$work/job.json"
  grep -q '"state": "done"' "$work/job.json" && break
  sleep 0.1
done
grep -q '"state": "done"' "$work/job.json" || { echo "job $jid never finished"; cat "$work/job.json"; exit 1; }

# fetch URL and require HTTP 200; the body lands in $work/body.
fetch() {
  local code
  code=$(curl -s -o "$work/body" -w '%{http_code}' "http://$addr$1")
  if [ "$code" != 200 ]; then
    echo "GET $1 -> $code"; cat "$work/body"; exit 1
  fi
}

fetch /metrics
grep -q '^pcmd_build_info{' "$work/body" || { echo "/metrics: no pcmd_build_info"; exit 1; }
grep -q '^pcmd_sweeps_total{outcome="done"} 1' "$work/body" || {
  echo "/metrics: sweep outcome counter missing"; exit 1
}
grep -q '^pcmd_http_requests_total{' "$work/body" || { echo "/metrics: no per-route counters"; exit 1; }

fetch /debug/traces
grep -q '"count": 0' "$work/body" && { echo "/debug/traces: ring is empty after a sweep"; exit 1; }
grep -q '"trace_id": "[0-9a-f]*"' "$work/body" || { echo "/debug/traces: no trace_id in listing"; exit 1; }

# The sweep document advertises its own trace; the ring must serve it.
tid=$(grep -o '"trace_id": "[0-9a-f]*"' "$work/sweep.json" | head -1 | cut -d'"' -f4)
[ -n "$tid" ] || { echo "sweep document carries no trace_id"; exit 1; }

fetch "/debug/traces/$tid"
grep -q '"name": "sweep"' "$work/body" || { echo "trace $tid has no sweep span"; exit 1; }

"$work/pcmctl" trace -server "http://$addr" -id "$tid" >"$work/tree.txt"
grep -q 'sweep' "$work/tree.txt" || { echo "pcmctl trace rendered no sweep span"; exit 1; }

fetch '/v1/jobs?state=done'
grep -q '"total": 0' "$work/body" && { echo "no done jobs after the direct submission"; exit 1; }

fetch "/v1/jobs/$jid/events"
grep -q '"type": "done"' "$work/body" || { echo "job timeline lacks a done event"; exit 1; }

fetch /debug/pprof/
fetch "/v1/sweeps"

echo "obs smoke OK (trace $tid)"
