#!/usr/bin/env bash
# profile.sh — where does an rfbench workload spend its CPU time?
#
# Usage:
#   scripts/profile.sh WORKLOAD [SEED] [SECONDS]
#       WORKLOAD is one of BENCHMARK.json's: autoconf_corpus, fault_fork,
#       traffic_packet, traffic_flow. SEED defaults to 1, SECONDS to 8.
#
# For hosts without `perf`. Builds rfbench with frame pointers into its
# own target directory (target/profile-fp — the flag would otherwise
# rebuild the benchmark's own artifacts), runs the untraced timing
# passes under scripts/ptrace_sampler.py and prints its ranked self-time
# and inclusive-time tables. Stacks inside rfbench's host-speed
# calibration kernel (`rfbench::hostcal`) are dropped: it runs between
# passes and is not the workload.
#
# Read scripts/ptrace_sampler.py's header for what a frame-pointer
# sampler can and cannot attribute. Times from a profiled run are not
# benchmark numbers.
set -euo pipefail

workload=${1:?usage: scripts/profile.sh WORKLOAD [SEED] [SECONDS]}
seed=${2:-1}
seconds=${3:-8}
root=$(cd "$(dirname "$0")/.." && pwd)
target=$root/target/profile-fp

RUSTFLAGS="-Cforce-frame-pointers=yes" CARGO_TARGET_DIR="$target" \
    cargo build --offline --release --quiet --manifest-path "$root/rfbench/Cargo.toml"

cd "$root"
exec python3 scripts/ptrace_sampler.py --hz 400 --drop rfbench::hostcal -- \
    "$target/release/rfbench" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0
