#!/usr/bin/env bash
# Local CI gate: formatting, lints, tier-1 build+tests, and the vod-net
# feature matrix (`parallel` on and off). Run from the repo root.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (all targets, -D warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> tier-1: cargo build --release"
cargo build --release

echo "==> tier-1: cargo test -q"
cargo test -q

echo "==> vod-net without the 'parallel' feature"
cargo test -q -p vod-net --no-default-features

echo "==> benches compile (cargo bench --no-run)"
cargo bench --no-run

echo "==> trace determinism (golden JSONL test)"
cargo test -q -p vod-integration-tests --test observability

echo "==> series determinism (golden --series test, lazy vs reference kernels)"
cargo test -q -p vod-integration-tests --test series

echo "==> remote-serving kernel gate (heap bound, remote golden traces, remote lazy vs reference)"
cargo test -q --release -p vod-integration-tests --test scale_kernel

echo "==> vod-check lint (zero findings, zero stale allowlist entries)"
cargo run -q --release -p vod-check -- lint

echo "==> vod-check analyze (panic-reachability, determinism, obs-taxonomy drift)"
cargo run -q --release -p vod-check -- analyze

echo "==> vod-check audit (GRNET case-study trace replays clean)"
cargo run -q --release -p vod-check -- audit --grnet

echo "==> E13/E15 chaos smoke (fault plan + retry sweep; trace and series audit clean)"
chaos_trace="$(mktemp -t chaos-XXXXXX.jsonl)"
chaos_series="$(mktemp -t chaos-XXXXXX.series.json)"
scale_trace="$(mktemp -t scale-XXXXXX.jsonl)"
scale_json="$(mktemp -t scale-XXXXXX.json)"
analyze_json="$(mktemp -t analyze-XXXXXX.json)"
routing_json="$(mktemp -t routing-XXXXXX.json)"
proxy_json="$(mktemp -t proxy-XXXXXX.json)"
trap 'rm -f "$chaos_trace" "$chaos_series" "$scale_trace" "$scale_json" "$analyze_json" "$routing_json" "$proxy_json"' EXIT
cargo run -q --release -p vod-bench --bin ext_chaos -- \
  --trace "$chaos_trace" --series "$chaos_series" > /dev/null
cargo run -q --release -p vod-check -- audit --series "$chaos_series" "$chaos_trace"

echo "==> E14 scale smoke (10^5 concurrent sessions, >=10x kernel speedup, trace audits clean)"
cargo run -q --release -p vod-bench --bin scale -- \
  --gate --baseline-budget-secs 5 --json "$scale_json" --trace "$scale_trace"
cargo run -q --release -p vod-check -- audit "$scale_trace"

echo "==> perf-regression gate (fresh scale run vs committed BENCH_sim.json)"
cargo run -q --release -p vod-bench -- compare --json BENCH_sim.json "$scale_json"

echo "==> analyzer wall-time gate (full analyze pass under 2 s, no regression vs BENCH_obs.json)"
cargo run -q --release -p vod-bench --bin check_analyze -- \
  --json "$analyze_json" --gate 2
cargo run -q --release -p vod-bench -- compare --only check/ BENCH_obs.json "$analyze_json"

echo "==> E17 proxy-tier gate (flash-crowd offload + startup vs committed BENCH_proxy.json)"
cargo run -q --release -p vod-bench --bin ext_proxy -- --json "$proxy_json" > /dev/null
cargo run -q --release -p vod-bench -- compare --only proxy/ BENCH_proxy.json "$proxy_json"

echo "==> routing-engine perf gate (fresh bench vs committed BENCH_routing.json)"
# The warm gnp200 row is the headline dynamic-SSSP win: its tightened
# threshold (1.30x of the ~0.77 ms baseline ~= the 1 ms budget) fails a
# build that silently loses sub-millisecond warm batch selection, long
# before the 9x cliff of falling back to from-scratch Dijkstra. The
# repair rows get a mild tightening; the rest keep the noise-tolerant
# 1.75x default. The 500 ns floor mutes the ns-scale GRNET rows, which
# swing 2-3x from cache pressure right after the E14 scale run — the
# rows this gate exists for are all well above it.
CRITERION_JSON="$routing_json" cargo bench -q --bench routing_engine > /dev/null
cargo run -q --release -p vod-bench -- compare --only engine/ --floor-ns 500 \
  --threshold engine/select_batch/gnp200/warm=1.30 \
  --threshold engine/sssp_repair/1_dirty=1.60 \
  --threshold engine/sssp_repair/8_dirty=1.60 \
  BENCH_routing.json "$routing_json"

echo "==> rustdoc (no broken intra-doc links)"
RUSTDOCFLAGS="-D rustdoc::broken_intra_doc_links" cargo doc --no-deps --workspace -q

echo "CI OK"
