#!/usr/bin/env bash
# Tier-1 gate: everything a PR must keep green.
#
#   ./scripts/tier1.sh
#
# Runs the release build, the full test suite, and clippy with warnings
# promoted to errors, from the repo root regardless of invocation dir.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

# `cargo test` at the root only runs the root package; the serving stack
# and its substrates get exercised explicitly.
echo "==> cargo test -q -p sns-rt -p sns-core -p sns-serve -p sns-train -p sns-genmodel"
cargo test -q -p sns-rt -p sns-core -p sns-serve -p sns-train -p sns-genmodel

# The untrusted front-end: unit suites plus the seeded adversarial fuzz
# corpus (deep nesting, huge replication, truncated/mutated sources).
echo "==> cargo test -q -p sns-netlist -p sns-graphir -p sns-sampler"
cargo test -q -p sns-netlist -p sns-graphir -p sns-sampler

# The crates no step above reaches: the virtual synthesizer's unit
# suites and its memo-vs-reference bit-identity sweep, the Circuitformer,
# the design catalog and the case studies.
echo "==> cargo test -q -p sns-vsynth -p sns-circuitformer -p sns-designs -p sns-casestudies"
cargo test -q -p sns-vsynth -p sns-circuitformer -p sns-designs -p sns-casestudies

# No-new-panics gate: the untrusted pipeline (netlist/graphir/sampler),
# the network-facing serving layer (serve front-end, its binary, the rt
# reactor substrate, and the JSON parser every request body goes
# through), the part of sns-core every /predict runs (the staged
# pipeline, the predictor, sessions and the path cache) plus the zoo
# loader behind /admin/reload and SIGHUP, the NN substrate, the
# Circuitformer and the Aggregation MLPs (every /predict runs their
# kernels), the virtual synthesizer (labels every training design — a
# panic on one odd netlist kills a whole dataset build), the
# self-training daemon (long-running; a panic hours into a soak loses
# the run), and the rt thread pool (every parallel site above runs on
# it, so a worker's panic must reach the caller's catch_unwind with its
# own payload) must stay free of unwrap/expect/panic!/unreachable!
# outside tests — every one of these is a remote crash when the input
# is hostile.
echo "==> no-new-panics grep gate (crates/{netlist,graphir,sampler,serve,vsynth,train,nn,circuitformer}/src + rt net/json/pool + core serve path, zoo loader and aggmlp)"
panic_sites=$(
  for f in crates/netlist/src/*.rs crates/graphir/src/*.rs crates/sampler/src/*.rs \
           crates/serve/src/*.rs crates/serve/src/bin/*.rs crates/rt/src/{net,json,pool}.rs \
           crates/core/src/{pipeline,predictor,session,cache,model_io,aggmlp}.rs \
           crates/nn/src/*.rs crates/circuitformer/src/*.rs \
           crates/vsynth/src/*.rs crates/train/src/*.rs crates/train/src/bin/*.rs; do
    # Cut each file at its #[cfg(test)] module; test code may panic freely.
    awk '/^#\[cfg\(test\)\]/ { exit } { print FILENAME ":" FNR ": " $0 }' "$f"
  done | grep -E '\.unwrap\(\)|\.expect\(|panic!|unreachable!' | grep -vE ':\s*//' || true
)
if [ -n "$panic_sites" ]; then
  echo "panic-capable call sites in untrusted-input crates:"
  echo "$panic_sites"
  exit 1
fi

# Libm-free activations: every tanh in the NN substrate and the
# Circuitformer goes through the crate-owned `sns_nn::act::tanh`, built
# from IEEE + × ÷ only, so scalar and SIMD lanes round identically and
# predictions do not depend on the platform libm.
echo "==> libm-free activation grep gate (crates/{nn,circuitformer}/src)"
tanh_sites=$(
  for f in crates/nn/src/*.rs crates/circuitformer/src/*.rs; do
    # Cut each file at its #[cfg(test)] module; tests compare against libm.
    awk '/^#\[cfg\(test\)\]/ { exit } { print FILENAME ":" FNR ": " $0 }' "$f"
  done | grep -E 'f32::tanh|\.tanh\(\)' || true
)
if [ -n "$tanh_sites" ]; then
  echo "libm tanh in the activation path (use sns_nn::act::tanh):"
  echo "$tanh_sites"
  exit 1
fi

# No fused multiply-add: the K-order contract (DESIGN.md §2c) rounds every
# product before its add, in every GEMM lane and activation, so kernels
# and their references agree bit for bit at every ISA level. A fused op
# rounds once and moves the last bit. The gate rejects `mul_add`, the
# `_mm*_f(n)m{add,sub}` intrinsics (masked forms included) and a
# `target_feature` that enables `fma`, in non-test code of the crates
# whose arithmetic predictions depend on.
echo "==> no-FMA grep gate (crates/{nn,circuitformer,core}/src)"
fma_sites=$(
  find crates/nn/src crates/circuitformer/src crates/core/src -name '*.rs' | sort | while read -r f; do
    # Cut each file at its #[cfg(test)] module; tests may use FMA freely.
    awk '/^#\[cfg\(test\)\]/ { exit } { print FILENAME ":" FNR ": " $0 }' "$f"
  done \
    | grep -E 'mul_add|_mm[0-9]*_[a-z0-9_]*fn?m(add|sub)|target_feature\s*\(\s*enable\s*=\s*"[^"]*\bfma\b' \
    | grep -vE ':\s*//' \
    || true
)
if [ -n "$fma_sites" ]; then
  echo "fused multiply-add in the K-order-contract kernels (multiply, then add):"
  echo "$fma_sites"
  exit 1
fi

# One prediction pipeline: the stages live in sns-core
# (`SnsModel::predict_with`); the server only supplies hooks, so it must
# not name the stage internals it would need to grow its own copy.
echo "==> one-pipeline grep gate (crates/serve/src)"
copy_sites=$(grep -rnE 'tokenize_paths|PathSampler|GraphIr' crates/serve/src || true)
if [ -n "$copy_sites" ]; then
  echo "serve names pipeline stage internals (use SnsModel::predict_with hooks):"
  echo "$copy_sites"
  exit 1
fi

# No runtime env mutation: knobs are resolved once per process
# (`sns_rt::pool`), so code that wants other values passes them
# explicitly or starts a child process with the env set at spawn.
# routebench is its own package and pins its knobs before any thread
# exists, so it is outside this gate.
echo "==> no-env-mutation grep gate (crates/ src/ tests/)"
env_sites=$(grep -rnE 'env::(set_var|remove_var)' crates src tests || true)
if [ -n "$env_sites" ]; then
  echo "runtime environment mutation:"
  echo "$env_sites"
  exit 1
fi

# No process-global mutable state: caches, memos and counters are values
# owned by their caller, so one run cannot change the next one's work.
# The allow-list is the pool's knobs (resolved once per process, in
# `crates/rt/src/pool.rs`) and the `sns-serve` binary's signal flags.
echo "==> no-process-global-state grep gate (crates/*/src + src/)"
static_sites=$(
  find crates/*/src src -name '*.rs' | sort | while read -r f; do
    # Cut each file at its #[cfg(test)] module; test fixtures may share.
    awk '/^#\[cfg\(test\)\]/ { exit } { print FILENAME ":" FNR ": " $0 }' "$f"
  done \
    | grep -E '\bstatic\s+[A-Za-z_][A-Za-z0-9_]*\s*:\s*(std::sync::(atomic::)?)?(OnceLock|LazyLock|Mutex|RwLock|Atomic[A-Za-z0-9]*)\b' \
    | grep -vE ':\s*//' \
    | grep -v '^crates/rt/src/pool\.rs:' \
    | grep -vE '^crates/serve/src/bin/sns-serve\.rs:[0-9]+: static (SHUTDOWN|RELOAD): AtomicBool ' \
    || true
)
if [ -n "$static_sites" ]; then
  echo "process-global mutable state (make it a value its caller owns):"
  echo "$static_sites"
  exit 1
fi

# Differential conformance: 200 fixed-seed random designs through the
# sim-vs-gates / vsynth-invariant / predictor-determinism / serve-identity
# oracles, the incremental-ECO oracle smoke (25 hierarchical designs x 3
# random module edits, incremental ≡ from-scratch bit-for-bit) with its
# content-hash identity/sensitivity/collision suite, plus bit-exact replay
# of every checked-in corpus regression and the nn serialization/optimizer
# property suite the oracles lean on.
echo "==> cargo test -q -p sns-conformance -p sns-nn"
cargo test -q -p sns-conformance -p sns-nn

# The serve end-to-end suite boots real servers with worker/queue limits
# tuned per test; keep it single-threaded so the limits stay meaningful
# on small machines.
echo "==> cargo test -q --test serve_e2e -- --test-threads=1"
cargo test -q --test serve_e2e -- --test-threads=1

# Every workspace member's lib, bins, tests, benches and examples.
echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# Rustdoc gate: a doc link to a deleted, renamed or private item fails
# here instead of rendering as plain text.
echo "==> RUSTDOCFLAGS=\"-D warnings\" cargo doc --no-deps --workspace"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

# Memoized-vs-reference synthesis identity on the blessed corpus plus a
# quick generated sample; the full 2000-design sweep lives in
# ./scripts/vsynth_soak.sh.
echo "==> vsynth_soak (200 designs)"
SNS_VSYNTH_SOAK_N=200 cargo run --release -q -p sns-conformance --bin vsynth_soak

# Label-factory gate: a ~100-design smoke exercises the full
# generate → vsynth-label → filter → fine-tune → checkpoint loop, then
# the ≥500-design soak enforces the disagreement-trend acceptance
# criterion (quartile mean rel-err strictly decreasing). The trend gate
# is only statistically meaningful at soak scale — at 100 designs each
# quartile holds 25 designs and the prequential error is dominated by
# generator variance, so the smoke runs ungated.
echo "==> train_soak smoke (100 designs, ungated)"
cargo run --release -q -p sns-train --bin train_soak -- \
  --designs 100 --out /tmp/BENCH_train_smoke.json
echo "==> train_soak trend gate (500 designs)"
SNS_TRAIN_REQUIRE_TREND=1 cargo run --release -q -p sns-train --bin train_soak -- \
  --designs 500 --out /tmp/BENCH_train_tier1.json

# Informational: how the kernel-bench snapshot moved relative to HEAD.
# Never fails the gate — the absolute acceptance numbers live in
# BENCH_kernels.json itself.
echo "==> bench_diff (informational)"
./scripts/bench_diff.sh || true

echo "==> tier-1 OK"
