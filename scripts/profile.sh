#!/usr/bin/env bash
# profile.sh — where does an rfbench workload spend its CPU time?
#
# Usage:
#   scripts/profile.sh WORKLOAD [SEED] [SECONDS] [SAMPLER OPTION...]
#       WORKLOAD is one of BENCHMARK.json's: autoconf_corpus, fault_fork,
#       traffic_packet, traffic_flow. SEED defaults to 1, SECONDS to 8.
#       Anything after SECONDS goes to scripts/ptrace_sampler.py, e.g.
#       `--callers 'BTreeMap<K,V,A>::insert'` for a third table naming
#       who calls a generically named row (on fault_fork: mostly
#       LinkDb::observe), or `--top 60`.
#
# For hosts without `perf`. Builds rfbench with frame pointers into its
# own target directory (target/profile-fp — the flag would otherwise
# rebuild the benchmark's own artifacts), runs the untraced timing
# passes under scripts/ptrace_sampler.py and prints its ranked self-time
# and inclusive-time tables. Stacks inside rfbench's host-speed
# calibration kernel (`rfbench::hostcal`) are dropped: it runs between
# passes and is not the workload.
#
# Compare the /pass column across two runs, not the % column. rfbench
# repeats passes until SECONDS are up, so a faster tree — or the same
# tree on a quieter host — gets more passes and more samples, and a row
# whose cost did not move shows a different share. The script counts the
# passes that were sampled — rfbench's "pass N:" lines, and its
# `setup_s` line for the untimed set-up pass before them — and prints
# the count and each row's samples per pass.
#
# glibc's leaves — `malloc`, `free`, `[libc.so.6 after
# __default_morecore]` — lose their callers: libc is built without frame
# pointers, so the walk from inside it skips the caller at best and
# stops after one frame at worst (19 % of fault_fork's samples are
# one-frame stacks). The self-time table says how much the allocator
# costs; who asked is not in the inclusive table — count allocations
# for that (tests/alloc_budget.rs has the allocator).
#
# Read scripts/ptrace_sampler.py's header for what a frame-pointer
# sampler can and cannot attribute. Times from a profiled run are not
# benchmark numbers.
set -euo pipefail

workload=${1:?usage: scripts/profile.sh WORKLOAD [SEED] [SECONDS] [SAMPLER OPTION...]}
seed=${2:-1}
seconds=${3:-8}
shift $(($# < 3 ? $# : 3))
root=$(cd "$(dirname "$0")/.." && pwd)
target=$root/target/profile-fp

RUSTFLAGS="-Cforce-frame-pointers=yes" CARGO_TARGET_DIR="$target" \
    cargo build --offline --release --quiet --manifest-path "$root/rfbench/Cargo.toml"

cd "$root"
exec python3 scripts/ptrace_sampler.py --hz 400 --drop rfbench::hostcal \
    --per pass "^rfbench: $workload pass [0-9]+:|^  setup_s " "$@" -- \
    "$target/release/rfbench" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0
