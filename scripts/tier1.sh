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
# reactor substrate, the JSON parser every request body goes through,
# the content hasher every request key goes through, and the bounded
# FIFO behind every cache, memo and session store a /predict touches), the part of
# sns-core every /predict runs (the staged
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
echo "==> no-new-panics grep gate (crates/{netlist,graphir,sampler,serve,vsynth,train,nn,circuitformer}/src + rt net/json/pool/hash/fifo + core serve path, zoo loader and aggmlp)"
panic_sites=$(
  for f in crates/netlist/src/*.rs crates/graphir/src/*.rs crates/sampler/src/*.rs \
           crates/serve/src/*.rs crates/serve/src/bin/*.rs crates/rt/src/{net,json,pool,hash,fifo}.rs \
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

# FMA only in the GEMM kernels: the FMA contract (DESIGN.md §2c) makes
# every GEMM lane one fused multiply-add per step, `l` ascending, in every
# regime and at every ISA level (the portable level through the
# crate-owned `sns_nn::fma32`), so kernels and references agree bit for
# bit. Everything else keeps multiply, round, add, round: tanh, GELU,
# LayerNorm and softmax stay unfused. So `mul_add`, the
# `_mm*_f(n)m{add,sub}` intrinsics (masked forms included) and a
# `target_feature` that enables `fma` are rejected in the non-test code of
# the crates whose arithmetic predictions depend on, except in
# `crates/nn/src/gemm.rs` and the `fma32` module (`crates/nn/src/fma.rs`).
# A leftover multiply-then-add lane in the kernels would make a path's
# bits depend on which regime its batch shape picked, so `_mm*_mul_ps`
# (masked forms included) is rejected in the non-test code of `gemm.rs`.
echo "==> FMA-placement grep gate (crates/{nn,circuitformer,core}/src; fused only in gemm.rs and fma.rs)"
fma_sites=$(
  find crates/nn/src crates/circuitformer/src crates/core/src -name '*.rs' \
    | grep -vE '^crates/nn/src/(gemm|fma)\.rs$' | sort | while read -r f; do
    # Cut each file at its #[cfg(test)] module; tests may use FMA freely.
    awk '/^#\[cfg\(test\)\]/ { exit } { print FILENAME ":" FNR ": " $0 }' "$f"
  done \
    | grep -E 'mul_add|_mm[0-9]*_[a-z0-9_]*fn?m(add|sub)|target_feature\s*\(\s*enable\s*=\s*"[^"]*\bfma\b' \
    | grep -vE ':\s*//' \
    || true
)
if [ -n "$fma_sites" ]; then
  echo "fused multiply-add outside the GEMM kernels (multiply, then add):"
  echo "$fma_sites"
  exit 1
fi
mul_sites=$(
  awk '/^#\[cfg\(test\)\]/ { exit } { print FILENAME ":" FNR ": " $0 }' crates/nn/src/gemm.rs \
    | grep -E '_mm[0-9]*_[a-z0-9_]*mul_ps' \
    | grep -vE ':\s*//' \
    || true
)
if [ -n "$mul_sites" ]; then
  echo "multiply-then-add lane in the GEMM kernels (use one fused multiply-add per step):"
  echo "$mul_sites"
  exit 1
fi

# Exact integer sums: the integer FFN kernels (`crates/nn/src/qgemm.rs`,
# DESIGN.md §2c) are bit-identical across ISA levels only because every
# u8·s8 product and every partial sum is exact in i32. `vpmaddubsw`
# saturates its i16 pair sums (2·255·127 = 64770 > 32767), and the
# `dpbusds`/`dpwssds` forms saturate their i32 sums, so
# `_mm*_maddubs_epi16`, `_mm*_dpbusds_*` and `_mm*_dpwssds_*` (masked
# forms included) are rejected in the non-test code of `sns-nn`.
echo "==> saturating-integer-dot grep gate (crates/nn/src)"
sat_sites=$(
  find crates/nn/src -name '*.rs' | sort | while read -r f; do
    # Cut each file at its #[cfg(test)] module.
    awk '/^#\[cfg\(test\)\]/ { exit } { print FILENAME ":" FNR ": " $0 }' "$f"
  done \
    | grep -E '_mm[0-9]*_[a-z0-9_]*(maddubs_epi16|dpbusds_|dpwssds_)' \
    | grep -vE ':\s*//' \
    || true
)
if [ -n "$sat_sites" ]; then
  echo "saturating integer dot product in the NN substrate (sums must be exact):"
  echo "$sat_sites"
  exit 1
fi

# One content hasher: module hashes, design tokens, sampler seeds and
# signatures, zoo weight hashes and trace hashes all go
# through `sns_rt::hash::Fnv128` (DESIGN.md §2g), so the FNV offset basis
# appears in non-test code only in that module. Underscores are dropped
# before matching, so no digit grouping slips past. routebench is its
# own package and stays outside this gate.
echo "==> one-hasher grep gate (crates/*/{src,benches,examples} + src/ + examples/)"
fnv_sites=$(
  find crates/*/src crates/*/benches crates/*/examples src examples -name '*.rs' 2>/dev/null \
    | grep -v '^crates/rt/src/hash\.rs$' | sort | while read -r f; do
    # Cut each file at its #[cfg(test)] module; tests may pin the value.
    awk '/^#\[cfg\(test\)\]/ { exit } { print FILENAME ":" FNR ": " $0 }' "$f"
  done \
    | awk '{ s = tolower($0); gsub(/_/, "", s) } s ~ /cbf29ce484222325/' \
    || true
)
if [ -n "$fnv_sites" ]; then
  echo "FNV offset basis outside sns_rt::hash (use sns_rt::hash::Fnv128):"
  echo "$fnv_sites"
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
# property suite the oracles lean on; plus the bench harness's own unit
# suites (timing statistics and the artifact commit reader).
echo "==> cargo test -q -p sns-conformance -p sns-nn -p sns-bench"
cargo test -q -p sns-conformance -p sns-nn -p sns-bench

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
