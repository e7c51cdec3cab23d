#!/usr/bin/env bash
# The benchmark's one command: build the release `gosh` binary of this
# checkout and the harness, then run the harness with the given arguments.
#
#   benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#   benchmark/run.sh --workload <name> --smoke            # 2^12 vertices
#   benchmark/run.sh --calibrate                          # noise calibration
#
# Builds go to $CARGO_TARGET_DIR when set (the driver sets it), else to
# benchmark/target/. Run files go to benchmark/out/. Both are ignored.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"

target="${CARGO_TARGET_DIR:-$here/target}"
case "$target" in
  /*) ;;
  *) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

# Build output goes to stderr: stdout's last line is the result.
cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" -p gosh-cli >&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2

exec "$target/release/gosh-benchmark" --gosh "$target/release/gosh" --out "$here/out" "$@"
