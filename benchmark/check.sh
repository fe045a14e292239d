#!/usr/bin/env bash
# Formatting, lints, unit tests and the smoke run of the benchmark package.
# Run from anywhere; touches nothing outside benchmark/ (build output goes to
# CARGO_TARGET_DIR if set, else benchmark/target).
set -euo pipefail
cd "$(dirname "$0")"

cargo fmt --check
cargo clippy --offline --all-targets -- -D warnings
cargo test --offline
cargo run --release --offline --quiet -- run --smoke
