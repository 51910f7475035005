"""Workload ``cli``: a fixed list of ``python -m actioncodes.cli`` calls.

Each call is a child process on the committed fixtures, interpreter start
included, so package import and argument parsing dominate.  Outputs are
checked against known answers: operator verbs byte for byte against a
committed golden fixture, or by an isomorphism the benchmark checks itself
where the golden fixture names its states differently; check verbs by their
verdict line and exit code; the adaptor verb by the abstract outputs read
off the committed contraction fixture.  The seed fixes the order of the
calls and the adaptor's abstract inputs.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from time import perf_counter

from actioncodes import to_tree
from actioncodes.documents import (
    code_from_document,
    dumps,
    loads,
    lts_from_document,
    tree_to_document,
)

from common import (
    NULL_TRACER,
    ROOT,
    child_env,
    deterministic_isomorphism,
    median,
    pin_to_one_cpu,
    work_dir,
)

FIXTURES = ROOT / "fixtures"
CALL_TIMEOUT_S = 60
ADAPTOR_INPUTS = {"full": 16, "tiny": 4}
START_SAMPLES = 10


@dataclass
class Call:
    argv: list[str]
    exit_code: int
    kind: str  # bytes, iso, verdict, outputs
    expected: object


def fixture(name: str) -> str:
    return str(FIXTURES / name)


def golden(name: str) -> bytes:
    return (FIXTURES / name).read_bytes()


def build_calls(seed: int, size: str, t) -> list[Call]:
    rng = random.Random(seed)
    out = work_dir(f"cli-seed{seed}")

    # Documents the calls read besides the fixtures.
    tree = t.call("codes.to_tree", to_tree,
                  code_from_document(loads(golden("ascii-fragment.code.json").decode())))
    tree_file = out / "ascii-fragment.tree.json"
    tree_file.write_text(t.call("documents.dumps", lambda x: dumps(tree_to_document(x)), tree),
                         encoding="utf-8")
    extra = {
        # A one-state loop over the innermost alphabet of the chaos codes.
        "loop.lts.json": {"schema": "actioncodes/lts-v1", "kind": "lts", "alphabet": ["a"],
                          "states": ["q0"], "initial": "q0",
                          "transitions": [["q0", "a", "q0"]]},
        "rho-inner.code.json": {"schema": "actioncodes/code-v1",
                                "source_alphabet": ["1", "2", "4"], "target_alphabet": ["a", "b"],
                                "entries": [["a", ["1", "4", "1"]], ["b", ["1", "4", "2"]]]},
        "rho-sparse.code.json": {"schema": "actioncodes/code-v1",
                                 "source_alphabet": ["1", "2", "4"],
                                 "target_alphabet": ["a", "b"],
                                 "entries": [["a", ["1", "4", "1"]]]},
        "rho-outer.code.json": {"schema": "actioncodes/code-v1", "source_alphabet": ["a", "b"],
                                "target_alphabet": ["W"], "entries": [["W", ["a", "b"]]]},
        "rho-machine.lts.json": {"schema": "actioncodes/lts-v1", "kind": "lts",
                                 "alphabet": ["W"], "states": ["n0"], "initial": "n0",
                                 "transitions": [["n0", "W", "n0"]]},
    }
    for name, doc in extra.items():
        (out / name).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    xs = [rng.choice("AB") for _ in range(ADAPTOR_INPUTS[size])]
    inputs = out / "adaptor.inputs.txt"
    inputs.write_text("".join(x + "\n" for x in xs), encoding="utf-8")

    calls = [
        Call(["contract", "--code", fixture("double-press.code.json"),
              fixture("square.mealy.json")], 0, "bytes",
             golden("double-press-contraction.mealy.json")),
        Call(["contract", "--code", fixture("split-press.code.json"),
              fixture("square.mealy.json")], 0, "bytes",
             golden("split-press-contraction.mealy.json")),
        Call(["to-map", str(tree_file)], 0, "bytes", golden("ascii-fragment.code.json")),
        Call(["refine", "--code", fixture("ascii-fragment.code.json"),
              fixture("letter-loops.lts.json")], 0, "iso", "letter-loops-refined.lts.json"),
        Call(["refine", "--code", fixture("octal-letters.code.json"),
              fixture("choice.lts.json")], 0, "iso", "octal-choice-det.lts.json"),
        Call(["concretize", "--rel", "same-input", "--code", fixture("double-press.code.json"),
              fixture("double-press-contraction.mealy.json")], 0, "iso",
             "double-press-concretization.mealy.json"),
        Call(["adaptor", "--code", fixture("double-press.code.json"), "--sut-file",
              fixture("square.mealy.json"), "--inputs", str(inputs)], 0, "outputs",
             contraction_outputs("double-press-contraction.mealy.json", xs)),
    ]
    checks = [
        (["simulation", fixture("letter-loops.lts.json"), fixture("letter-loops.lts.json")], True),
        (["simulation", fixture("octal-choice-nondet.lts.json"),
          fixture("octal-choice-det.lts.json")], True),
        (["simulation", fixture("octal-choice-det.lts.json"),
          fixture("octal-choice-nondet.lts.json")], False),
        (["isomorphism", fixture("letter-loops.lts.json"), fixture("letter-loops.lts.json")], True),
        (["isomorphism", fixture("octal-choice-det.lts.json"),
          fixture("octal-choice-nondet.lts.json")], False),
        (["icomplete", "--code", fixture("double-press.code.json"), "--rel", "same-input",
          fixture("square.mealy.json")], True),
        (["winning", "--code", fixture("double-press.code.json")], True),
        (["determinate", "--code", fixture("double-press.code.json")], True),
        (["determinate", "--code", fixture("shared-input.code.json")], False),
        (["galois1", "--code", fixture("double-press.code.json"),
          fixture("double-press-contraction.mealy.json"), fixture("square.mealy.json")], True),
        (["galois2", "--code", fixture("double-press.code.json"), "--rel", "same-input",
          fixture("square.mealy.json"), fixture("double-press-contraction.mealy.json")], True),
        (["insertion", "--code", fixture("double-press.code.json"), "--rel", "same-input",
          fixture("double-press-contraction.mealy.json")], True),
        (["compose-alpha", fixture("chaos-inner.code.json"), fixture("chaos-outer.code.json"),
          str(out / "loop.lts.json")], True),
        (["compose-rho", str(out / "rho-inner.code.json"), str(out / "rho-outer.code.json"),
          str(out / "rho-machine.lts.json")], True),
        (["compose-rho", str(out / "rho-sparse.code.json"), str(out / "rho-outer.code.json"),
          str(out / "rho-machine.lts.json")], False),
        (["gamma-noncompose", fixture("chaos-inner.code.json"), fixture("chaos-outer.code.json"),
          fixture("chaos-machine.lts.json")], True),
        (["adaptor-theorem", "--code", fixture("double-press.code.json"),
          fixture("square.mealy.json")], True),
        (["adaptor-theorem", "--code", fixture("split-press.code.json"),
          fixture("square.mealy.json")], True),
    ]
    for argv, verdict in checks:
        calls.append(Call(["check", *argv], 0 if verdict else 1, "verdict",
                          "PASS" if verdict else "FAIL"))
    rng.shuffle(calls)
    return calls


def contraction_outputs(name: str, xs: list[str]) -> list[str]:
    """Walk an output-deterministic Mealy fixture, read with plain JSON."""
    doc = json.loads(golden(name))
    step = {}
    for src, label, dst in doc["transitions"]:
        x, _, y = label.partition("/")
        step[(src, x)] = (y, dst)
    state, outputs = doc["initial"], []
    for x in xs:
        y, state = step[(state, x)]
        outputs.append(y)
    return outputs


def cli_command(argv: list[str]) -> list[str]:
    return [sys.executable, "-m", "actioncodes.cli", *argv]


class CliCalls:
    def __init__(self, seed: int, size: str = "full", tracer=NULL_TRACER):
        self.cpus = pin_to_one_cpu()
        self.env = child_env()
        self.ops = build_calls(seed, size, tracer)
        # Compile the package once, so no timed call pays for writing bytecode.
        subprocess.run([sys.executable, "-c", "import actioncodes.cli"], env=self.env,
                       cwd=ROOT, check=True, timeout=CALL_TIMEOUT_S)
        self.set_tracer(NULL_TRACER)

    def _call(self, call: Call) -> subprocess.CompletedProcess:
        return subprocess.run(cli_command(call.argv), capture_output=True, env=self.env,
                              cwd=ROOT, timeout=CALL_TIMEOUT_S)

    def set_tracer(self, tracer) -> None:
        if tracer.enabled:
            self.run = lambda call: tracer.call("cli.call", self._call, call)
        else:
            self.run = self._call

    def begin_pass(self) -> None:
        pass

    def describe_op(self, index: int) -> str:
        return " ".join(self.ops[index].argv[:2])

    def check(self, index: int, proc: subprocess.CompletedProcess) -> bool:
        call = self.ops[index]
        return proc.returncode == call.exit_code and output_matches(call, proc.stdout)

    def close(self) -> None:
        if self.cpus is not None:
            os.sched_setaffinity(0, self.cpus)
            self.cpus = None

    def layer_metrics(self) -> dict[str, float]:
        """Interpreter start, package import, and ``cli.main`` in process."""

        def child_ms(argv):
            samples = []
            for _ in range(START_SAMPLES):
                start = perf_counter()
                subprocess.run([sys.executable, *argv], env=self.env, cwd=ROOT, check=True,
                               timeout=CALL_TIMEOUT_S)
                samples.append((perf_counter() - start) * 1e3)
            return median(samples)

        bare = child_ms(["-c", "pass"])
        imported = child_ms(["-c", "import actioncodes.cli"])
        from actioncodes.cli import main

        samples = []
        for _ in range(3):
            for call in self.ops:
                sink_out, sink_err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(sink_out), contextlib.redirect_stderr(sink_err):
                    start = perf_counter()
                    main(list(call.argv))
                    samples.append((perf_counter() - start) * 1e3)
        return {"cli.interp_start_ms": bare, "cli.import_ms": imported - bare,
                "cli.main_ms": median(samples)}


def output_matches(call: Call, stdout: bytes) -> bool:
    if call.kind == "bytes":
        return stdout == call.expected
    text = stdout.decode("utf-8")
    if call.kind == "verdict":
        return text.split("\n", 1)[0] == call.expected
    if call.kind == "outputs":
        outs = [line[4:] for line in text.splitlines() if line.startswith("OUT ")]
        return outs == call.expected
    produced = lts_from_document(loads(text))
    expected = lts_from_document(loads(golden(call.expected).decode("utf-8")))
    return deterministic_isomorphism(produced, expected) is not None


def fingerprint(workload: CliCalls) -> list:
    return [(c.argv, c.exit_code, c.kind, repr(c.expected)) for c in workload.ops]
