#!/usr/bin/env bash
# Re-capture the table goldens: the stdout of `mdp_tables <table>` at
# MDP_SCALE=0.1 for every table `mdp_tables --list` names, written to
# tests/golden/<table>.stdout.  The Golden.* ctests (label golden,
# tests/check_golden.cmake) compare against these byte for byte, so a
# change that alters a table re-captures it here and says why.
#
# Usage: tools/regen_golden.sh [build-dir]   (default: build)

set -eu
cd "$(dirname "$0")/.."
tables=${1:-build}/bench/mdp_tables

for name in $("$tables" --list); do
    env -u MDP_JSON_OUT MDP_SCALE=0.1 "$tables" "$name" \
        > "tests/golden/$name.stdout"
done
