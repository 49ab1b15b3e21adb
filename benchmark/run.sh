#!/usr/bin/env bash
# Builds the release `fednumd` and the benchmark package, both offline,
# then runs the benchmark. Run from the root of a checkout:
#
#   benchmark/run.sh [--seed N] [--runs K] [--trace] [--quick]      every workload
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#   benchmark/run.sh compare A.json B.json
#   benchmark/run.sh selftest                                        the crate's tests
#
# The last line of a single-workload run is the JSON result object.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"

# 2,000 client sockets here and 2,000 in the daemon: lift the soft
# descriptor limit to the hard one where the default is lower.
ulimit -n "$(ulimit -Hn)" 2>/dev/null || true

# One target directory for both builds, so `fednumd` and the benchmark
# link the same compiled library crates.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/target}"
case "$CARGO_TARGET_DIR" in /*) ;; *) CARGO_TARGET_DIR="$root/$CARGO_TARGET_DIR" ;; esac

# Build output goes to stderr: stdout carries only the benchmark's report.
cargo build --release --offline --quiet -p fednum-transport --bin fednumd >&2
if [ "${1:-}" = "selftest" ]; then
    exec cargo test --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
fi
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2

export FEDNUMD="$CARGO_TARGET_DIR/release/fednumd"
exec "$CARGO_TARGET_DIR/release/fednum-benchmark" "$@"
