#!/bin/sh
# Builds and runs saber-benchmark from the repository root, whatever the
# caller's directory; arguments pass through (see README.md).
set -eu
cd "$(dirname "$0")/.."
exec cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- "$@"
