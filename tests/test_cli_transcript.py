"""Golden CLI transcript: exact stdout, stderr and exit code per call.

Every operator verb, every check verb (PASS and FAIL witnesses), the
generators, an in-process adaptor session and malformed input run through
``cli.main`` from the repository root, so paths in messages are relative.
``{tmp}`` in an argument stands for a per-test temporary directory.

Run as a script, it replays the calls without pytest and checks them
against the golden file: it prints the first call that differs and exits 1.
``--write`` rewrites the golden file instead (only when an output change is
intended)::

    PYTHONPATH=src python3 tests/test_cli_transcript.py [--write]
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from itertools import zip_longest
from pathlib import Path

from actioncodes.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "cli_transcript.json"

F = "fixtures/"
DP = F + "double-press.code.json"
SP = F + "split-press.code.json"
SQUARE = F + "square.mealy.json"
DP_CONTRACTION = F + "double-press-contraction.mealy.json"
DP_CONCRETIZATION = F + "double-press-concretization.mealy.json"
CHAOS_INNER, CHAOS_OUTER = F + "chaos-inner.code.json", F + "chaos-outer.code.json"
CHAOS_MACHINE = F + "chaos-machine.lts.json"
DET, NONDET = F + "octal-choice-det.lts.json", F + "octal-choice-nondet.lts.json"

# (argv, stdin) in run order; calls reading {tmp} files follow the call that
# wrote them.
CALLS: list[tuple[list[str], str]] = [
    (["contract", "--code", DP, SQUARE], ""),
    (["contract", "--stats", "--code", SP, SQUARE], ""),
    (["refine", "--code", F + "ascii-fragment.code.json", F + "letter-loops.lts.json"], ""),
    (["refine", "--stats", "--code", F + "octal-letters.code.json", F + "choice.lts.json"], ""),
    (["concretize", "--rel", "same-input", "--code", DP, DP_CONTRACTION], ""),
    (["concretize", "--stats", "--code", CHAOS_OUTER, CHAOS_MACHINE], ""),
    (["compose", CHAOS_INNER, CHAOS_OUTER], ""),
    (["to-tree", F + "coffee.code.json"], ""),
    (["to-tree", "--out", "{tmp}/tree.json", F + "ascii-fragment.code.json"], ""),
    (["to-map", "{tmp}/tree.json"], ""),
    (["check", "simulation", NONDET, DET], ""),
    (["check", "simulation", DET, NONDET], ""),
    (["check", "isomorphism", NONDET, NONDET], ""),
    (["check", "isomorphism", DET, NONDET], ""),
    (["check", "icomplete", "--code", DP, "--rel", "same-input", SQUARE], ""),
    (["check", "icomplete", "--code", SP, "--rel", "same-input", DP_CONCRETIZATION], ""),
    (["check", "winning", "--code", F + "coffee.code.json"], ""),
    (["check", "winning", "--code", F + "coffee.code.json", "--for", "latte"], ""),
    (["check", "determinate", "--code", F + "coffee.code.json"], ""),
    (["check", "determinate", "--code", F + "shared-input.code.json"], ""),
    (["check", "galois1", "--code", F + "octal-letters.code.json",
      F + "choice.lts.json", DET], ""),
    (["check", "galois2", "--code", DP, "--rel", "same-input", SQUARE, DP_CONTRACTION], ""),
    (["check", "galois2", "--code", SP, "--rel", "same-input",
      DP_CONCRETIZATION, F + "split-press-contraction.mealy.json"], ""),
    (["check", "insertion", "--code", DP, "--rel", "same-input", DP_CONTRACTION], ""),
    (["check", "insertion", "--code", DP, SQUARE], ""),
    (["gen", "lts", "--states", "3", "--labels", "1", "--seed", "5",
      "--out", "{tmp}/a.lts.json"], ""),
    (["check", "compose-alpha", CHAOS_INNER, CHAOS_OUTER, "{tmp}/a.lts.json"], ""),
    (["check", "compose-alpha", CHAOS_INNER, CHAOS_OUTER, CHAOS_MACHINE], ""),
    (["check", "compose-rho", CHAOS_INNER, CHAOS_OUTER, CHAOS_MACHINE], ""),
    (["check", "compose-rho", CHAOS_OUTER, CHAOS_INNER, CHAOS_MACHINE], ""),
    (["check", "gamma-noncompose", CHAOS_INNER, CHAOS_OUTER, CHAOS_MACHINE], ""),
    (["check", "adaptor-theorem", "--code", DP, SQUARE], ""),
    (["gen", "lts", "--states", "5", "--labels", "2", "--seed", "2"], ""),
    (["gen", "mealy", "--states", "4", "--input-enabled", "--output-deterministic",
      "--seed", "1"], ""),
    (["gen", "code", "--abstract", "3", "--maxlen", "3", "--seed", "7"], ""),
    (["gen", "code", "--mealy", "--inputs", "2", "--outputs", "2", "--abstract", "2",
      "--maxlen", "2", "--seed", "11"], ""),
    (["adaptor", "--code", DP, "--sut-file", SQUARE], "A\nB\nA\n"),
    (["adaptor", "--code", SP, "--sut-file", SQUARE, "--seed", "3"], "B\nC\nB\n"),
    (["adaptor", "--code", SP, "--sut-file", SQUARE], "A\n"),
    (["contract", "--code", SQUARE, SQUARE], ""),
    (["refine", "--code", DP, F + "missing.json"], ""),
]


def _run(argv: list[str], stdin: str, tmp: Path) -> dict:
    out, err = io.StringIO(), io.StringIO()
    cwd, saved_stdin = os.getcwd(), sys.stdin
    os.chdir(ROOT)
    sys.stdin = io.StringIO(stdin)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            status = main([arg.replace("{tmp}", str(tmp)) for arg in argv])
    finally:
        os.chdir(cwd)
        sys.stdin = saved_stdin
    return {"exit": status, "stdout": out.getvalue(), "stderr": err.getvalue()}


def test_transcript_matches_golden(tmp_path):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert [entry["argv"] for entry in golden] == [argv for argv, _ in CALLS]
    for entry, (argv, stdin) in zip(golden, CALLS):
        want = {k: entry[k] for k in ("exit", "stdout", "stderr")}
        assert _run(argv, stdin, tmp_path) == want, " ".join(argv)


def _script() -> int:
    parser = argparse.ArgumentParser(description="Replay the golden CLI calls.")
    parser.add_argument("--write", action="store_true", help="rewrite the golden file")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        entries = [
            {"argv": argv, "stdin": stdin, **_run(argv, stdin, Path(tmp))}
            for argv, stdin in CALLS
        ]
    if args.write:
        GOLDEN.write_text(
            json.dumps(entries, indent=1, ensure_ascii=False) + "\n", encoding="utf-8"
        )
        return 0
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    for got, want in zip_longest(entries, golden):
        if got != want:
            print("differs:", " ".join((got or want)["argv"]))
            return 1
    print(f"{len(entries)} calls match {GOLDEN.name}")
    return 0


if __name__ == "__main__":
    sys.exit(_script())
