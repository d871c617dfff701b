#!/usr/bin/env bash
# CI gauntlet for the standalone benchmark package: format, clippy with
# warnings denied, the unit tests, and a traced smoke run of all four
# workloads (every output check must pass).
set -euo pipefail
cd "$(dirname "$0")/.."
target="${CARGO_TARGET_DIR:-target}"
pkg=(--manifest-path benchmark/Cargo.toml)
build=(--offline --locked --target-dir "$target")

echo "==> cargo fmt --check (benchmark)"
cargo fmt --check "${pkg[@]}"

echo "==> cargo clippy (benchmark, warnings denied)"
cargo clippy "${pkg[@]}" "${build[@]}" --all-targets -- -D warnings

echo "==> cargo test (benchmark)"
cargo test -q "${pkg[@]}" "${build[@]}"

echo "==> smoke run, traced (all four workloads)"
benchmark/run.sh --smoke --trace

echo "Benchmark checks passed."
