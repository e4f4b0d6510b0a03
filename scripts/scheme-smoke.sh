#!/usr/bin/env bash
# Scheme-matrix smoke: boot a real pcmd, sweep a six-spec scheme matrix
# (the four paper presets plus a coset-4 and a wire write-encoder
# composition) through pcmctl's -schemes flag, and assert every scheme
# lands in the merged document with per-scheme flip/energy accounting.
# Also checks the /v1/schemes registry answers with a non-empty component
# listing. Exercises the exact operator path, so a wiring regression
# (spec not canonicalized, shard axis dropped, encoder stats lost) fails
# CI even when unit tests pass.
set -euo pipefail
cd "$(dirname "$0")/.."

addr=127.0.0.1:18081
work=$(mktemp -d)
pid=""
cleanup() {
  [ -n "$pid" ] && kill "$pid" 2>/dev/null && wait "$pid" 2>/dev/null
  rm -rf "$work"
}
trap cleanup EXIT

go build -o "$work/pcmd" ./cmd/pcmd
go build -o "$work/pcmctl" ./cmd/pcmctl

"$work/pcmd" -addr "$addr" -log-format json 2>"$work/pcmd.log" &
pid=$!
for _ in $(seq 1 100); do
  curl -fsS "http://$addr/healthz" >/dev/null 2>&1 && break
  sleep 0.1
done
curl -fsS "http://$addr/healthz" >/dev/null || {
  echo "pcmd never became healthy"; cat "$work/pcmd.log"; exit 1
}

# The component registry must be discoverable before anything is composed.
curl -fsS "http://$addr/v1/schemes" >"$work/schemes.json"
for section in codecs eccs encoders wear_policies presets; do
  grep -q "\"$section\"" "$work/schemes.json" || {
    echo "/v1/schemes: missing $section"; cat "$work/schemes.json"; exit 1
  }
done
grep -q '"coset4"' "$work/schemes.json" || { echo "/v1/schemes: no coset4 encoder"; exit 1; }
grep -q '"wire"' "$work/schemes.json" || { echo "/v1/schemes: no wire encoder"; exit 1; }

# Six distinct specs: the four paper presets plus two encoder compositions.
specs='baseline;comp;comp+w;comp+wf;comp=bdi+fpc,ecc=ecp6,enc=coset4,wl=startgap;comp=bdi+fpc,ecc=ecp6,enc=wire,wl=startgap'
"$work/pcmctl" sweep -kind lifetime \
  -params '{"app":"milc","scale":"quick","max_demand_writes":20000}' \
  -seeds 1 -schemes "$specs" -server "http://$addr" -quiet >"$work/sweep.json"
grep -q '"state": "done"' "$work/sweep.json" || {
  echo "scheme-matrix sweep did not finish done:"; cat "$work/sweep.json"; exit 1
}

# Every spec must appear as a shard label in the merged document...
for spec in baseline comp comp+w comp+wf \
  'comp=bdi+fpc,ecc=ecp6,enc=coset4,wl=startgap' \
  'comp=bdi+fpc,ecc=ecp6,enc=wire,wl=startgap'; do
  grep -q "\"scheme\": \"$spec\"" "$work/sweep.json" || {
    echo "merged sweep lacks scheme $spec:"; cat "$work/sweep.json"; exit 1
  }
done
# ...and the encoder compositions must have accounted for their work.
grep -q '"encoded_writes"' "$work/sweep.json" || {
  echo "no encoder accounting in merged sweep:"; cat "$work/sweep.json"; exit 1
}
grep -q '"encoder_flips_saved"' "$work/sweep.json" || {
  echo "no flip accounting in merged sweep:"; cat "$work/sweep.json"; exit 1
}
grep -q '"write_energy_pj"' "$work/sweep.json" || {
  echo "no energy accounting in merged sweep:"; cat "$work/sweep.json"; exit 1
}

# The per-scheme counters must have ticked for the whole matrix.
curl -fsS "http://$addr/metrics" >"$work/metrics.txt"
grep -q 'pcmd_sweeps_scheme_total{scheme="baseline"} 1' "$work/metrics.txt" || {
  echo "/metrics: per-scheme sweep counter missing"; cat "$work/metrics.txt"; exit 1
}

echo "scheme smoke OK ($(grep -c '"scheme":' "$work/sweep.json" || true) scheme-labeled entries)"
