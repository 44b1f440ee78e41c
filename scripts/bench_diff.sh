#!/usr/bin/env bash
# Compares two kernel-bench snapshots (default: the committed
# BENCH_kernels.json at HEAD vs. the working tree) and prints the
# per-benchmark timing deltas.
#
#   ./scripts/bench_diff.sh                 # HEAD vs. working tree
#   ./scripts/bench_diff.sh old.json new.json
#
# Informational: exits 0 when there is simply no baseline to diff
# against (fresh clone, artifact not committed yet).
set -euo pipefail
cd "$(dirname "$0")/.."

OLD="${1:-}"
NEW="${2:-BENCH_kernels.json}"
CLEANUP=""

if [ -z "$OLD" ]; then
  OLD="$(mktemp)"
  CLEANUP="$OLD"
  if ! git show HEAD:BENCH_kernels.json > "$OLD" 2>/dev/null; then
    echo "bench_diff: no BENCH_kernels.json at HEAD — nothing to diff against"
    rm -f "$CLEANUP"
    exit 0
  fi
fi

if [ ! -f "$NEW" ]; then
  echo "bench_diff: $NEW does not exist — run the micro_kernels bench first"
  [ -n "$CLEANUP" ] && rm -f "$CLEANUP"
  exit 0
fi

status=0
cargo run -q --release -p sns-bench --bin bench_diff -- "$OLD" "$NEW" || status=$?
[ -n "$CLEANUP" ] && rm -f "$CLEANUP"
exit $status
