#!/usr/bin/env bash
# One command for the whole benchmark: build release, then hand every
# argument to the binary (see README.md for the modes). cargo's own output
# goes to stderr so the result line stays the last line of stdout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" 1>&2
COSA_BENCHMARK_DIR="$here" exec "$target/release/cosa-benchmark" "$@"
