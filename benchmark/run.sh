#!/usr/bin/env bash
# The repo benchmark's one command. Builds the shipped artifacts and the
# harness (release, offline), then runs the harness with the same arguments.
#
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one run of one workload; the last line of stdout is the JSON result
#       (the contract BENCHMARK.json describes)
#   benchmark/run.sh [--seed N] [--trace] [--smoke]
#       all four workloads; --trace adds the traced pass (per-layer ledger,
#       benchmark/out/trace-<workload>.json); --smoke is a < 60 s pass that
#       still checks every output and every name
#   benchmark/run.sh --aa [--seed N]
#       everything twice on the same build; non-zero exit if any end-to-end
#       metric disagrees with itself by more than its bound
#   benchmark/run.sh --spread K [--seed N]
#       K seeds per workload; quartile spread of every metric against its
#       bound (the study the bounds were set from; re-run it when a
#       workload's sizing or a bound changes)
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

# Without the repo around it there is nothing to measure: fail before cargo
# goes looking for a manifest in some parent directory.
if [ ! -f Cargo.toml ] || [ ! -d crates/preload ] || [ ! -d crates/replicate ]; then
    echo "benchmark/run.sh: $PWD is not a checkout of the repo (Cargo.toml, crates/ missing)" >&2
    exit 3
fi

# One target directory for the root workspace and this package, so the
# harness finds libdiehard.so, diehard and diehard-proxy beside itself.
# Cargo resolves a relative CARGO_TARGET_DIR against its own working
# directory; pin it to the checkout root.
target="${CARGO_TARGET_DIR:-target}"
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac
export CARGO_TARGET_DIR="$target"

# Build chatter goes to stderr: stdout belongs to the harness.
cargo build --release --offline --quiet -p diehard-preload -p diehard-replicate >&2
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2

exec "$target/release/harness" "$@"
