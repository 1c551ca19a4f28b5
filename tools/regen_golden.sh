#!/usr/bin/env bash
# Re-capture the bench goldens: the stdout of every bench binary at
# MDP_SCALE=0.1, written to tests/golden/<name>.stdout (the binary's
# name without its bench_ prefix).  The Golden.* ctests (label golden,
# tests/check_golden.cmake) compare against these byte for byte, so a
# change that alters a table re-captures it here and says why.
#
# Usage: tools/regen_golden.sh [build-dir]   (default: build)

set -eu
cd "$(dirname "$0")/.."
build=${1:-build}

for bin in "$build"/bench/bench_*; do
    name=$(basename "$bin")
    env -u MDP_JSON_OUT MDP_SCALE=0.1 "$bin" \
        > "tests/golden/${name#bench_}.stdout"
done
