#!/usr/bin/env bash
# Label-factory soak: runs the self-training daemon over >= 500 generated
# designs (bootstrap + online loop) from a fixed seed, refreshing
# BENCH_train.json with labeling/step throughput, the per-quartile
# disagreement trend, and the final zoo checkpoint provenance.
#
#   ./scripts/train_soak.sh [N_DESIGNS]
#
# The run is deterministic end to end: same seed + same step count give a
# bit-identical model (and therefore byte-identical weight hashes) at any
# SNS_THREADS / SNS_BATCH — tests/train_determinism.rs
# holds that gate. SNS_TRAIN_REQUIRE_TREND=1 makes the soak fail unless
# the model-vs-vsynth relative error strictly decreases from the first to
# the last quartile of the run (the acceptance criterion: the factory is
# actually teaching the model, not just spinning).
set -euo pipefail
cd "$(dirname "$0")/.."

DESIGNS="${1:-500}"
ZOO="$(mktemp -d "${TMPDIR:-/tmp}/sns-train-soak.XXXXXX")"
trap 'rm -rf "$ZOO"' EXIT

SNS_TRAIN_REQUIRE_TREND=1 cargo run --release -q -p sns-train --bin train_soak -- \
  --designs "$DESIGNS" --zoo "$ZOO" --out BENCH_train.json

echo "==> BENCH_train.json"
cat BENCH_train.json
echo
echo "==> zoo manifest"
cat "$ZOO/manifest.json"
echo
