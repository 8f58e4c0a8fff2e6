#!/usr/bin/env bash
# The one command. Builds the benchmark from source (offline, release)
# and runs it:
#
#   bash benchmark/run.sh [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--aa]
#
# --trace 1 selects the traced binary (spans, isolated layer loops,
# counting allocator); everything else is the untraced one. With no
# --workload all six run. Reads and writes only inside the checkout.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$root/.bench_build}"

bin=benchmark
prev=""
for arg in "$@"; do
  if [[ "$prev" == "--trace" && "$arg" == "1" ]]; then
    bin=benchmark-trace
  fi
  prev="$arg"
done

# Build output goes to stderr: the last line of stdout is the result.
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --bin "$bin" >&2

# Recorded in the output; a checkout that is not a git repository says so.
export BENCH_GIT_SHA="$(GIT_CEILING_DIRECTORIES="$(dirname "$root")" git -C "$root" rev-parse --short=12 HEAD 2>/dev/null || echo unknown)"
export BENCH_RUSTC="$(rustc --version 2>/dev/null || echo unknown)"
export BENCH_OUT_DIR="$here/out"

exec "$CARGO_TARGET_DIR/release/$bin" "$@"
