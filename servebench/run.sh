#!/usr/bin/env bash
# Builds fg-serve (in the repository's workspace) and the benchmark (its own
# package), then runs the benchmark against the freshly built server.
#
#   bash servebench/run.sh --workload steady --seed 1 --seconds 10 --trace 0
#
# Build output goes to $CARGO_TARGET_DIR (default: .bench_build under the
# repository root); run files (server configs, span logs) to its servebench/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
target="${CARGO_TARGET_DIR:-$root/.bench_build}"
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac
export CARGO_TARGET_DIR="$target"
cargo build --release --quiet --offline --manifest-path "$root/Cargo.toml" -p fg-serve --bin fg-serve >&2
cargo build --release --quiet --offline --manifest-path "$here/Cargo.toml" >&2
exec "$target/release/servebench" --server "$target/release/fg-serve" --out "$target/servebench" "$@"
