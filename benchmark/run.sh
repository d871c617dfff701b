#!/usr/bin/env bash
# The end-to-end mubed benchmark: builds the standalone benchmark package
# (into $CARGO_TARGET_DIR, default target/) and runs it. Flags pass through:
#
#   benchmark/run.sh [--workload W] [--seed S] [--seconds N] [--trace [0|1]]
#                    [--smoke] [--repeat N]
#
# See benchmark/README.md.
set -euo pipefail
cd "$(dirname "$0")/.."
target="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --locked --quiet \
    --manifest-path benchmark/Cargo.toml --target-dir "$target" >&2
exec "$target/release/mube-benchmark" run "$@"
