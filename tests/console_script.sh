#!/usr/bin/env bash
# End-to-end checks of the command-line program on the fixtures, as CI runs
# them after `pip install .`.  The command defaults to `actioncodes`; arguments
# replace it, so a source checkout runs the same checks with
#   PYTHONPATH=src bash tests/console_script.sh python -m actioncodes.cli
# It stops at the first check that fails, with a nonzero exit.
set -e
cd "$(dirname "$0")/.."
[ $# -gt 0 ] || set -- actioncodes
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# The isomorphism checks decide nothing on a deterministic system and
# pick images on a nondeterministic one.
"$@" contract --code fixtures/double-press.code.json fixtures/square.mealy.json | cmp - fixtures/double-press-contraction.mealy.json
test "$("$@" check isomorphism fixtures/letter-loops.lts.json fixtures/letter-loops.lts.json | head -n 1)" = PASS
test "$("$@" check isomorphism fixtures/octal-choice-nondet.lts.json fixtures/octal-choice-nondet.lts.json | head -n 1)" = PASS
# About 245 KB of map lines into a reader that takes one: a closed
# stdout exits 141 with nothing on stderr.
"$@" gen lts --seed 1 --states 20000 --labels 3 --deterministic --out "$tmp/big.lts.json"
test "$("$@" check isomorphism "$tmp/big.lts.json" "$tmp/big.lts.json" 2> "$tmp/stderr.txt" | head -n 1)" = PASS
test ! -s "$tmp/stderr.txt"
# The tree form names the code's own prefix tree, so its map form
# is the code again, byte for byte.
"$@" to-tree fixtures/coffee.code.json --out "$tmp/coffee.tree.json"
"$@" to-map "$tmp/coffee.tree.json" | cmp - fixtures/coffee.code.json
