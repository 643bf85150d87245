#!/usr/bin/env bash
# Builds julie and the perf harness from source, then runs the harness.
#
#   bash perfbench/run.sh [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
#
# Run from the repository root. Both programs build into $CARGO_TARGET_DIR
# (default: .bench_build), so perf finds julie next to itself; results go
# to target/perf/.
set -euo pipefail

if [[ ! -f Cargo.toml || ! -d crates/julie || ! -f perfbench/Cargo.toml ]]; then
    echo "run.sh: run from the repository root (needs Cargo.toml, crates/julie and perfbench/)" >&2
    exit 2
fi
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline -q --manifest-path Cargo.toml -p julie
cargo build --release --offline -q --manifest-path perfbench/Cargo.toml
exec "$CARGO_TARGET_DIR/release/perf" "$@"
