#!/usr/bin/env bash
# Fleet health-plane smoke: boot two backend pcmds plus a coordinator
# scraping both, drive a sweep across the fleet, then assert the
# operator surfaces — GET /v1/fleet/status aggregation, pcmctl status,
# and the plane's scrape counter on /metrics — work end to end with the
# real binaries and flags.
set -euo pipefail
cd "$(dirname "$0")/.."

b1=127.0.0.1:18181
b2=127.0.0.1:18182
coord=127.0.0.1:18183
work=$(mktemp -d)
pids=()
cleanup() {
  for pid in "${pids[@]}"; do kill "$pid" 2>/dev/null || true; done
  for pid in "${pids[@]}"; do wait "$pid" 2>/dev/null || true; done
  rm -rf "$work"
}
trap cleanup EXIT

go build -o "$work/pcmd" ./cmd/pcmd
go build -o "$work/pcmctl" ./cmd/pcmctl

# Backends run no plane of their own (-scrape-interval -1s): the
# coordinator is the one fleet view.
"$work/pcmd" -addr "$b1" -scrape-interval -1s 2>"$work/b1.log" &
pids+=($!)
"$work/pcmd" -addr "$b2" -scrape-interval -1s 2>"$work/b2.log" &
pids+=($!)
"$work/pcmd" -addr "$coord" -peers "http://$b1,http://$b2" \
  -scrape-interval 250ms -log-sample 5 -log-format json \
  2>"$work/coord.log" &
pids+=($!)

for a in "$b1" "$b2" "$coord"; do
  for _ in $(seq 1 100); do
    curl -fsS "http://$a/healthz" >/dev/null 2>&1 && break
    sleep 0.1
  done
  curl -fsS "http://$a/healthz" >/dev/null || {
    echo "pcmd at $a never became healthy"; cat "$work"/*.log; exit 1
  }
done

# fetch URL (coordinator) and require HTTP 200; body lands in $work/body.
fetch() {
  local code
  code=$(curl -s -o "$work/body" -w '%{http_code}' "http://$coord$1")
  if [ "$code" != 200 ]; then
    echo "GET $1 -> $code"; cat "$work/body"; exit 1
  fi
}

# The coordinator starts scraping before the backends listen, so its first
# scrape of a backend can be refused. A backend first scraped only after
# its jobs finished shows no windowed job delta, so wait for all three
# targets to be up before driving traffic.
ok=""
for _ in $(seq 1 100); do
  curl -fsS "http://$coord/v1/fleet/status" 2>/dev/null | grep -q '"up": 3' && { ok=1; break; }
  sleep 0.1
done
[ -n "$ok" ] || { echo "fleet never reported 3 targets up"; cat "$work/coord.log"; exit 1; }

# A sweep sharded across both backends gives every target job traffic.
"$work/pcmctl" sweep -kind failure-probability \
  -params '{"scheme":"ecp","window":16,"max_errors":8,"trials":20000}' \
  -seeds 4 -server "http://$coord" -quiet >"$work/sweep.json"
grep -q '"state": "done"' "$work/sweep.json" || {
  echo "sweep did not finish done:"; cat "$work/sweep.json"; exit 1
}

# status_ok asserts one `pcmctl status` rendering shows the aggregated
# fleet: all three targets up, a fleet-level latency exemplar, and BOTH
# peer backends with non-zero windowed job quantiles
# (table columns: BACKEND UP BREAKER QUEUED RUNNING JOBS/S "JOB P95" ...).
status_ok() {
  grep -q 'backends 3/3 up' "$work/status.txt" &&
  grep -q 'slowest recent job: trace ' "$work/status.txt" &&
  awk '/^http:/ { n++; if ($6+0 == 0 || $7 == "0.0ms") bad=1 }
       END { exit (n == 2 && !bad) ? 0 : 1 }' "$work/status.txt"
}

# The sweep just finished, so its jobs sit well inside the one-minute
# display window; give the plane a few scrapes to see them.
ok=""
for _ in $(seq 1 40); do
  "$work/pcmctl" status -server "http://$coord" >"$work/status.txt" || true
  status_ok && { ok=1; break; }
  sleep 0.25
done
[ -n "$ok" ] || { echo "fleet status never aggregated the fleet:"; cat "$work/status.txt"; exit 1; }
echo "--- pcmctl status ---"; cat "$work/status.txt"; echo "---"

# The raw endpoint serves the same snapshot as JSON.
fetch /v1/fleet/status
grep -q '"up": 3' "$work/body" || { echo "/v1/fleet/status: fleet.up != 3"; exit 1; }
grep -q '"exemplar_trace_id": "' "$work/body" || {
  echo "/v1/fleet/status: no latency exemplar"; exit 1
}

# The plane's own accounting is on /metrics.
fetch /metrics
grep -q '^pcmd_fleetobs_scrapes_total{outcome="ok"}' "$work/body" || {
  echo "/metrics: no fleetobs scrape counter"; exit 1
}

echo "fleetobs smoke OK"
