#!/usr/bin/env bash
# Serve soak: the seeded multi-concurrency load sweep (k = 1/4/16/64),
# refreshing BENCH_serve.json with per-level req/s, client-side
# p50/mean/p99, inference counters (primes that computed anything,
# sequences computed), design-memo hits with their share of the
# requests, and shed (503) counts.
#
#   ./scripts/serve_soak.sh
#
# The sweep is deterministic end to end: the serving model trains from
# fixed seeds and the request schedule is a fixed function of the level,
# so two soaks differ only by machine noise (each level keeps the better
# of two fresh-server attempts to damp that).
set -euo pipefail
cd "$(dirname "$0")/.."

cargo bench -q -p sns-bench --bench serve_load

echo "==> BENCH_serve.json"
grep -oE '\{"concurrency":[^}]*\}' BENCH_serve.json || true
