#!/usr/bin/env bash
# Vsynth soak: the synthesis flow (memoized elaboration) against the
# unmemoized reference elaboration.
#
#   ./scripts/vsynth_soak.sh                  # 2000 designs, seed 1
#   SNS_VSYNTH_SOAK_N=10000 ./scripts/vsynth_soak.sh
#   SNS_VSYNTH_SOAK_SEED=42 ./scripts/vsynth_soak.sh
#
# Two parts:
#   1. vsynth_soak — every blessed corpus case plus N generated designs
#      through the bit-identity oracle (graph node for node, labels bit
#      for bit). Exits non-zero on any divergence;
#      failing designs are shrunk into tests/corpus/pending/.
#   2. vsynth_bench — times the reference against the flow on the catalog
#      suite and writes BENCH_vsynth.json at the repo root (per-stage
#      seconds for elaborate/STA/sizing/power).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo run --release -p sns-conformance --bin vsynth_soak"
SNS_VSYNTH_SOAK_N="${SNS_VSYNTH_SOAK_N:-2000}" \
  SNS_VSYNTH_SOAK_SEED="${SNS_VSYNTH_SOAK_SEED:-1}" \
  cargo run --release -p sns-conformance --bin vsynth_soak

echo "==> cargo run --release -p sns-bench --bin vsynth_bench"
cargo run --release -p sns-bench --bin vsynth_bench

echo "==> BENCH_vsynth.json"
cat BENCH_vsynth.json
