#!/usr/bin/env bash
# Serve soak: the seeded multi-concurrency load sweep (k = 1/4/16/64)
# against both a single-replica server and a 4-replica sns-shard server,
# refreshing BENCH_serve.json with per-level req/s, client-side
# p50/mean/p99, inference counters (primes that computed anything,
# sequences computed), design-memo hits and shed (503) counts.
#
#   ./scripts/serve_soak.sh
#
# The sweep is deterministic end to end: the serving model trains from
# fixed seeds, the request schedule is a fixed function of the level,
# and the shard router places designs by content hash — so two soaks
# differ only by machine noise (each level keeps the better of two
# fresh-server attempts to damp that).
set -euo pipefail
cd "$(dirname "$0")/.."

export SNS_SOAK=1
cargo bench -q -p sns-bench --bench serve_load

echo "==> BENCH_serve.json"
grep -oE '\{"concurrency":[^}]*\}' BENCH_serve.json || true
