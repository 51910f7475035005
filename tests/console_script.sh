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
# The adaptor/SUT composition and the split view of the contraction
# delay-simulate each other for both press codes.
for code in double-press split-press; do
  test "$("$@" check adaptor-theorem --code "fixtures/$code.code.json" fixtures/square.mealy.json)" = PASS
done
# About 245 KB of map lines into a reader that takes one: a closed
# stdout exits 141 with nothing on stderr.
"$@" gen lts --seed 1 --states 20000 --labels 3 --deterministic --out "$tmp/big.lts.json"
test "$("$@" check isomorphism "$tmp/big.lts.json" "$tmp/big.lts.json" 2> "$tmp/stderr.txt" | head -n 1)" = PASS
test ! -s "$tmp/stderr.txt"
# The tree form names the code's own prefix tree, so its map form
# is the code again, byte for byte.
"$@" to-tree fixtures/coffee.code.json --out "$tmp/coffee.tree.json"
"$@" to-map "$tmp/coffee.tree.json" | cmp - fixtures/coffee.code.json
# A carrier with a second way into its leaf is no tree: exit 2 and one
# ERROR line.
cat > "$tmp/join.tree.json" <<'JSON'
{"schema": "actioncodes/tree-v1", "abstract_alphabet": ["X"], "leaf_labels": [["r1", "X"]],
 "tree": {"schema": "actioncodes/lts-v1", "kind": "lts", "alphabet": ["a", "b"],
          "states": ["r0", "r1"], "initial": "r0",
          "transitions": [["r0", "a", "r1"], ["r0", "b", "r1"]]}}
JSON
status=0
"$@" to-map "$tmp/join.tree.json" 2> "$tmp/stderr.txt" || status=$?
test "$status" = 2
printf 'ERROR InvalidTree carrier is not tree-shaped\n' | cmp - "$tmp/stderr.txt"
# Over a pipe to the table-driven SUT child, the adaptor prints what it
# prints with the in-process SUT: the machine is output-deterministic.
printf 'A\nB\nA\n' > "$tmp/inputs.txt"
"$@" adaptor --code fixtures/double-press.code.json --sut-file fixtures/square.mealy.json --inputs "$tmp/inputs.txt" > "$tmp/inproc.txt"
"$@" adaptor --code fixtures/double-press.code.json --sut-exec "python3 bench/sut_table.py fixtures/square.mealy.json stdio" --inputs "$tmp/inputs.txt" | cmp - "$tmp/inproc.txt"
# So it does over loopback TCP to the same SUT, which prints its port first
# and exits 0 once the adaptor hangs up.
python3 bench/sut_table.py fixtures/square.mealy.json tcp > "$tmp/port.txt" &
server=$!
trap 'kill "$server" 2> /dev/null || true; rm -rf "$tmp"' EXIT
for _ in $(seq 100); do [ -s "$tmp/port.txt" ] && break; sleep 0.05; done
"$@" adaptor --code fixtures/double-press.code.json --sut-tcp "127.0.0.1:$(cat "$tmp/port.txt")" --inputs "$tmp/inputs.txt" | cmp - "$tmp/inproc.txt"
wait "$server"
trap 'rm -rf "$tmp"' EXIT
# A timeout past what select and sockets take is refused before any SUT
# starts: exit 2 and one ERROR line.
for sut in --sut-exec=cat --sut-tcp=127.0.0.1:9; do
  status=0
  "$@" adaptor --code fixtures/double-press.code.json "$sut" --timeout 1e10 \
    --inputs "$tmp/inputs.txt" 2> "$tmp/stderr.txt" || status=$?
  test "$status" = 2
  test "$(wc -l < "$tmp/stderr.txt")" = 1
  case $(cat "$tmp/stderr.txt") in
    "ERROR ValueError the timeout must be "*) ;;
    *) exit 1 ;;
  esac
done
# A code of one word of 2,000 letters a/0, written as the canonical
# document: its tree form gives it back byte for byte, and the adaptor verbs
# read the map itself.
python3 -c '
import json, sys
code = {"schema": "actioncodes/code-v1", "source_alphabet": ["a/0"],
        "target_alphabet": ["X/0"], "entries": [["X/0", ["a/0"] * 2000]]}
loop = {"schema": "actioncodes/lts-v1", "kind": "mealy", "alphabet": ["a/0"],
        "states": ["q0"], "initial": "q0", "transitions": [["q0", "a/0", "q0"]]}
for path, doc in zip(sys.argv[1:], (code, loop)):
    with open(path, "w", encoding="utf-8") as f:
        f.write(json.dumps(doc, indent=2, ensure_ascii=False) + "\n")
' "$tmp/deep.code.json" "$tmp/loop.mealy.json"
"$@" to-tree "$tmp/deep.code.json" --out "$tmp/deep.tree.json"
"$@" to-map "$tmp/deep.tree.json" | cmp - "$tmp/deep.code.json"
test "$("$@" check determinate --code "$tmp/deep.code.json")" = PASS
test "$(echo X | "$@" adaptor --code "$tmp/deep.code.json" --sut-file "$tmp/loop.mealy.json" | tail -n 1)" = "OUT 0"
# A determinacy witness is one row of key=value words after the verdict.
status=0
"$@" check determinate --code fixtures/shared-input.code.json > "$tmp/out.txt" || status=$?
test "$status" = 1
printf 'FAIL\nwitness node=ε input=0 first=a second=b\n' | cmp - "$tmp/out.txt"
# A closed stdin is an input that cannot be read: exit 2 and an ERROR line.
status=0
"$@" adaptor --code fixtures/double-press.code.json --sut-file fixtures/square.mealy.json \
  <&- 2> "$tmp/stderr.txt" || status=$?
test "$status" = 2
case $(cat "$tmp/stderr.txt") in
  "ERROR DocumentError cannot read <stdin>: "*) ;;
  *) exit 1 ;;
esac
# A stdout closed from the start ends the run as a closed pipe does.
status=0
"$@" check determinate --code fixtures/double-press.code.json >&- 2> "$tmp/stderr.txt" || status=$?
test "$status" = 141
test ! -s "$tmp/stderr.txt"
