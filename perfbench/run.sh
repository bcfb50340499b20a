#!/usr/bin/env bash
# Builds the benchmark and the repository's alecto-harness CLI from source
# (release profile, offline), then runs the benchmark with the given
# arguments from the current directory:
#
#   bash perfbench/run.sh --workload fig8-1c --seed 1 --seconds 20 --trace 0
#
# CARGO_TARGET_DIR chooses the build directory (default: perfbench/target).
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --bins >&2
exec "$target/release/perfbench" "$@"
