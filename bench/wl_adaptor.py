"""Workloads ``adaptor-inproc``, ``adaptor-child`` and ``adaptor-tcp``.

A seeded stream of abstract inputs goes through ``AdaptorSession.apply``
over a deep adaptor code, to one SUT backend per workload: the
in-process machine, the benchmark's table-driven SUT as a child process on
stdio, or the same SUT serving one loopback TCP connection.  No decider
runs.  The in-process backend isolates the adaptor's own overhead; the other
two add the SUT's input/output path.  Each abstract output must equal the
one read off the contraction of the output-deterministic SUT model.

The code comes from ``builders.full_adaptor_code`` rather than
``gen_adaptor_code``: every leaf is at the same depth, so each abstract input
takes the same number of exchanges.  With ``gen_adaptor_code`` the random
leaf depths moved the time per abstract input by about 30 percent from seed
to seed.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys

from actioncodes import (
    AdaptorSession,
    ExternalSut,
    InProcessSut,
    contract,
    is_determinate,
    solve_winning,
    to_tree,
)
from actioncodes.documents import dumps, lts_to_document
from actioncodes.generate import gen_mealy

from builders import full_adaptor_code
from common import BENCH_DIR, NULL_TRACER, pin_to_one_cpu, work_dir

SIZES = {
    "full": dict(states=40, inputs=4, outputs=2, abstract=3, depth=4, stream=1000),
    "tiny": dict(states=4, inputs=2, outputs=2, abstract=2, depth=2, stream=20),
}

START_TIMEOUT_S = 30


class TimedSut:
    """Puts each exchange with the SUT in a span; the adaptor's self time is
    what its ``apply`` span has left after these."""

    def __init__(self, sut, tracer):
        self.sut = sut
        self.t = tracer

    def send(self, symbol: str) -> None:
        self.t.call("sut.send", self.sut.send, symbol)

    def receive(self) -> str:
        return self.t.call("sut.receive", self.sut.receive)

    def reset(self) -> None:
        self.t.call("sut.reset", self.sut.reset)


class AdaptorStream:
    def __init__(self, backend: str, seed: int, size: str = "full", tracer=NULL_TRACER):
        self.backend = backend
        self.proc = None
        self.sut = None
        self.cpus = None
        cfg = SIZES[size]
        rng = random.Random(seed)
        t = tracer
        self.machine = t.call("generate.gen_mealy", gen_mealy, rng.randrange(1 << 30),
                              cfg["states"], cfg["inputs"], cfg["outputs"], True, True)
        code = full_adaptor_code(rng, cfg["inputs"], cfg["outputs"], cfg["abstract"],
                                 cfg["depth"])
        tree = t.call("codes.to_tree", to_tree, code)
        determinate, witness = t.call("adaptor.is_determinate", is_determinate, tree)
        table = t.call("adaptor.solve_winning", solve_winning, tree)
        xs = sorted({b.symbol for b in code.target})
        if not determinate or not all(table.is_winning(tree.root, x) for x in xs):
            raise RuntimeError(f"generated code is not a usable adaptor code ({witness})")

        # Expected outputs come from the contraction of the SUT model: one
        # abstract output and successor per state and abstract input.
        contracted = t.call("operators.contract", contract, code, self.machine)
        self.expect: dict[tuple[str, str], tuple[str, str]] = {}
        for src, label, dst in contracted.transitions:
            if (src, label.symbol) in self.expect:
                raise RuntimeError("contraction of the SUT model is not output deterministic")
            self.expect[(src, label.symbol)] = (label.output, dst)
        self.initial = self.state = contracted.initial
        self.ops = [rng.choice(xs) for _ in range(cfg["stream"])]

        self.doc = work_dir(f"adaptor-{backend}-seed{seed}") / "sut.mealy.json"
        text = t.call("documents.dumps", lambda m: dumps(lts_to_document(m)), self.machine)
        self.doc.write_text(text, encoding="utf-8")
        try:
            self.sut = t.call(f"adaptor.sut_start.{backend}", self._start)
            self.session = AdaptorSession(tree, self.sut)
            # One exchange before timing: it waits for the child to be up and
            # takes any delayed acknowledgement of the RESET line.
            if not self.check(0, self.session.apply(self.ops[0])):
                raise RuntimeError("the SUT answered the first abstract input wrongly")
        except BaseException:
            self.close()
            raise
        self.set_tracer(NULL_TRACER)

    def _start(self):
        if self.backend == "inproc":
            return InProcessSut(self.machine)
        # With the SUT child on the same CPU an exchange costs context
        # switches, which slow down with the reference loop when the machine
        # does; across two CPUs it costs cross-CPU wake-ups, which did not,
        # and the scaled times spread twice as far.
        self.cpus = pin_to_one_cpu()
        command = [sys.executable, str(BENCH_DIR / "sut_table.py"), str(self.doc)]
        if self.backend == "child":
            sut = ExternalSut.spawn(command + ["stdio"])
        else:
            self.proc = subprocess.Popen(command + ["tcp"], stdout=subprocess.PIPE)
            port = int(self.proc.stdout.readline())
            sut = ExternalSut.connect("127.0.0.1", port)
        sut.reset()
        return sut

    # -- the harness interface ----------------------------------------------

    def set_tracer(self, tracer) -> None:
        apply = self.session.apply
        if tracer.enabled:
            self.session.sut = TimedSut(self.sut, tracer)
            self.run = lambda x: tracer.call("adaptor.apply", apply, x)
        else:
            self.session.sut = self.sut
            self.run = apply

    def begin_pass(self) -> None:
        self.session.transcript.clear()

    def describe_op(self, index: int) -> str:
        return f"abstract input {self.ops[index]}"

    def check(self, index: int, out) -> bool:
        expected, self.state = self.expect[(self.state, self.ops[index])]
        return out == expected

    def close(self) -> None:
        """Stop the SUT child, also after a failed session."""
        try:
            if isinstance(self.sut, ExternalSut):
                self.sut.close()
        finally:
            if self.proc is not None:
                self.proc.stdout.close()
                try:
                    self.proc.wait(timeout=START_TIMEOUT_S)
                except subprocess.TimeoutExpired:
                    self.proc.kill()
                    self.proc.wait()
                self.proc = None
            self.sut = None
            if self.cpus is not None:
                os.sched_setaffinity(0, self.cpus)
                self.cpus = None


def fingerprint(workload: AdaptorStream) -> list:
    return [workload.doc.read_text(encoding="utf-8"), workload.ops]
