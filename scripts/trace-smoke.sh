#!/usr/bin/env bash
# Trace-ingestion smoke: generate a real trace with tracegen, upload it
# through pcmctl to a coordinator fronting two real backend daemons,
# prove the content address dedups a re-upload and the same trace in
# another encoding (gzip-wrapped PCMT), then run a trace-driven
# Monte-Carlo sweep sharded across the fleet — the backends must fetch
# the digest from the coordinator (X-Trace-Source) and the merged sweep
# must finish done. Exercises the exact operator path end to end, so a
# wiring regression (digest not shipped, fetch protocol broken, store
# metrics dead) fails CI even when unit tests pass.
set -euo pipefail
cd "$(dirname "$0")/.."

b1=127.0.0.1:18085
b2=127.0.0.1:18086
coord=127.0.0.1:18087
work=$(mktemp -d)
pids=()
cleanup() {
  for pid in "${pids[@]}"; do
    kill "$pid" 2>/dev/null && wait "$pid" 2>/dev/null
  done
  rm -rf "$work"
}
trap cleanup EXIT

go build -o "$work/pcmd" ./cmd/pcmd
go build -o "$work/pcmctl" ./cmd/pcmctl
go build -o "$work/tracegen" ./cmd/tracegen

"$work/pcmd" -addr "$b1" -log-format json 2>"$work/b1.log" &
pids+=($!)
"$work/pcmd" -addr "$b2" -log-format json 2>"$work/b2.log" &
pids+=($!)
"$work/pcmd" -addr "$coord" -log-format json \
  -peers "http://$b1,http://$b2" -advertise "http://$coord" \
  -trace-dir "$work/spool" 2>"$work/coord.log" &
pids+=($!)
for node in "$b1" "$b2" "$coord"; do
  for _ in $(seq 1 100); do
    curl -fsS "http://$node/healthz" >/dev/null 2>&1 && break
    sleep 0.1
  done
  curl -fsS "http://$node/healthz" >/dev/null || {
    echo "pcmd on $node never became healthy"; cat "$work"/*.log; exit 1
  }
done

# Generate a trace in NDJSON (the store must canonicalize it to the same
# digest a binary upload would get).
"$work/tracegen" -app milc -events 2000 -lines 256 -seed 1 -format ndjson \
  -o "$work/milc.ndjson" >/dev/null

"$work/pcmctl" trace upload -server "http://$coord" "$work/milc.ndjson" >"$work/upload.json"
digest=$(grep -o 'sha256:[0-9a-f]\{64\}' "$work/upload.json" | head -1)
[ -n "$digest" ] || { echo "upload returned no digest:"; cat "$work/upload.json"; exit 1; }
grep -q '"stored": true' "$work/upload.json" || {
  echo "first upload not stored:"; cat "$work/upload.json"; exit 1
}

# Re-upload: content-addressed dedup, nothing re-stored.
"$work/pcmctl" trace upload -server "http://$coord" "$work/milc.ndjson" >"$work/reupload.json"
grep -q '"stored": false' "$work/reupload.json" || {
  echo "re-upload was not a dedup no-op:"; cat "$work/reupload.json"; exit 1
}
grep -q "$digest" "$work/reupload.json" || {
  echo "re-upload digest changed:"; cat "$work/reupload.json"; exit 1
}

# The same trace as gzip-wrapped PCMT (tracegen's .gz form): another
# encoding of the same events, so the NDJSON upload's digest, not stored.
"$work/tracegen" -app milc -events 2000 -lines 256 -seed 1 \
  -o "$work/milc.pcmt.gz" >/dev/null
"$work/pcmctl" trace upload -server "http://$coord" "$work/milc.pcmt.gz" >"$work/gzupload.json"
grep -q '"stored": false' "$work/gzupload.json" || {
  echo "gzip upload of the same trace was stored again:"; cat "$work/gzupload.json"; exit 1
}
grep -q "$digest" "$work/gzupload.json" || {
  echo "gzip upload hashed to another digest:"; cat "$work/gzupload.json"; exit 1
}
"$work/pcmctl" trace ls -server "http://$coord" | grep -q "$digest" || {
  echo "trace ls does not list $digest"; exit 1
}

# A trace-driven sweep sharded across both backends: only the digest
# crosses the wire; backends fetch the bytes from -advertise on first use.
"$work/pcmctl" sweep -kind failure-probability \
  -params '{"scheme":"ecp","max_errors":4,"trials":2000}' \
  -seeds 2 -trace "$digest" -server "http://$coord" -quiet >"$work/sweep.json"
grep -q '"state": "done"' "$work/sweep.json" || {
  echo "trace sweep did not finish done:"; cat "$work/sweep.json" "$work"/*.log; exit 1
}
grep -q '"mean_curve"' "$work/sweep.json" || {
  echo "trace sweep merged no curve:"; cat "$work/sweep.json"; exit 1
}

# The coordinator's store served the digest to the fleet...
curl -fsS "http://$coord/metrics" >"$work/metrics.txt"
grep -q 'pcmd_traces_stored 1' "$work/metrics.txt" || {
  echo "/metrics: coordinator stores no trace"; grep pcmd_traces "$work/metrics.txt"; exit 1
}
fetches=$(grep '^pcmd_traces_fetches_total' "$work/metrics.txt" | awk '{print $2}')
[ "${fetches:-0}" -ge 1 ] || {
  echo "/metrics: no backend ever fetched the trace"; grep pcmd_traces "$work/metrics.txt"; exit 1
}
# ...and at least one backend cached it locally.
cached=0
for node in "$b1" "$b2"; do
  curl -fsS "http://$node/metrics" >"$work/backend-metrics.txt"
  if grep -q 'pcmd_traces_stored 1' "$work/backend-metrics.txt"; then
    cached=$((cached + 1))
  fi
done
[ "$cached" -ge 1 ] || { echo "no backend cached the fetched trace"; exit 1; }

# The spool survives on disk under the digest's file name.
ls "$work/spool" | grep -q 'sha256-' || {
  echo "coordinator spool is empty"; ls -la "$work/spool"; exit 1
}

echo "trace smoke OK ($digest, $fetches fetches, $cached backend caches)"
