#!/usr/bin/env bash
# ECO soak: the incremental oracle at scale plus a catalog warm-vs-cold
# speedup measurement.
#
#   ./scripts/eco_soak.sh                     # 500 designs x 4 edits, seed 1
#   SNS_ECO_N=2000 ./scripts/eco_soak.sh
#   SNS_ECO_EDITS=8 SNS_ECO_SEED=42 ./scripts/eco_soak.sh
#
# Every edit step's incremental re-prediction (predict_patch through a
# live session) must be bit-identical to a from-scratch run of the merged
# source — tokens, predictions, per-terminal samples — and the
# incremental netlist must equal the flat reference. A single-module edit
# on the catalog hierarchical Ariane-like core (branch unit only, timed
# under the paper-architecture Circuitformer before the soak, on one
# inference thread, best of 15 trials per side) must re-predict at least
# 5x faster warm than cold. Writes BENCH_incremental.json at the repo root (edits/second,
# re-elaboration fraction, warm/cold speedup) and exits non-zero on any
# divergence or a speedup below the floor. Failing designs are shrunk and
# persisted under tests/corpus/pending/.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo run --release -p sns-conformance --bin eco_soak"
SNS_ECO_N="${SNS_ECO_N:-500}" SNS_ECO_EDITS="${SNS_ECO_EDITS:-4}" \
  SNS_ECO_SEED="${SNS_ECO_SEED:-1}" \
  cargo run --release -p sns-conformance --bin eco_soak

echo "==> BENCH_incremental.json"
cat BENCH_incremental.json
