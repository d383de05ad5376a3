#!/usr/bin/env bash
# Builds the served binaries and the benchmark from source, then runs
# the benchmark with the given arguments, e.g.
#   bash perfbench/run.sh --workload generate --seed 1 --seconds 10 --trace 0
# Build output goes to $CARGO_TARGET_DIR (default: .bench_build at the
# repository root); run artefacts go to perfbench/out/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
if [ ! -f "$root/Cargo.toml" ] || [ ! -d "$root/crates" ]; then
    echo "perfbench: no ChatPattern workspace next to $here" >&2
    exit 2
fi
target="${CARGO_TARGET_DIR:-$root/.bench_build}"
case "$target" in
    /*) ;;
    *) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"
cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" \
    -p chatpattern --bin chatpattern-serve --bin chatpattern-router >&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
mkdir -p "$here/out"
exec "$target/release/perfbench" --bin-dir "$target/release" --out-dir "$here/out" "$@"
