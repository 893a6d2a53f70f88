#!/usr/bin/env bash
# Builds the benchmark (and the hh-node binary it spawns) from source, then
# runs it with the given arguments, e.g.
#   bash perfbench/run.sh --workload fig2-n100 --seed 1 --seconds 30 --trace 0
# Build output goes to stderr; the benchmark's last stdout line is its
# JSON summary.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --bins >&2
exec "$target/release/perfbench" "$@"
