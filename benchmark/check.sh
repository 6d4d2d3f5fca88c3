#!/usr/bin/env bash
# Smoke test of the benchmark itself, for CI: a --quick end-to-end run and a
# --quick traced run of every workload (every code path and oracle, sizes
# NOT comparable with full runs), then `compare` of each result against
# itself, which must hold every bound and every exact check.
set -euo pipefail
cd "$(dirname "$0")/.."
out="${CARGO_TARGET_DIR:-target}/defined-benchmark-check"
mkdir -p "$out"
bench() {
    cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- "$@"
}
bench run --quick --out "$out/quick.json"
bench trace --quick --out "$out/quick-layers.json"
bench compare "$out/quick.json" "$out/quick.json"
bench compare "$out/quick-layers.json" "$out/quick-layers.json"
echo "benchmark check ok: $out/quick.json $out/quick-layers.json"
