"""Shared pieces of the benchmark: spans, timing statistics, memory, checks.

The benchmark observes the library only from outside.  Every call it makes
into a public function of ``actioncodes`` goes through ``Tracer.call``; the
untraced runs use ``NULL_TRACER``, whose ``call`` adds one Python call and
records nothing.
"""

from __future__ import annotations

import math
import os
import resource
from pathlib import Path
from time import perf_counter_ns

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
WORK_DIR = ROOT / ".bench_work"

#: Spans kept for the written trace; the per-layer totals are always exact.
SPAN_KEEP = 50_000


class NullTracer:
    """Records nothing; used for every end-to-end measurement."""

    enabled = False
    instance = None

    def call(self, name, fn, *args):
        return fn(*args)

    def count(self, name, value=1):
        pass


NULL_TRACER = NullTracer()


class Tracer:
    """In-memory spans with exact per-name totals.

    A span has a name, start, end, parent span and instance id.  When a span
    ends, its duration is added to its parent's covered time, so the self
    time of a span is its duration minus what its children cover.  Spans
    nest only through ``call`` on one thread, so children never overlap.
    """

    enabled = True

    def __init__(self, keep: int = SPAN_KEEP):
        self.keep = keep
        self.spans: list[tuple] = []
        self.dropped = 0
        self.instance = None
        self._stack: list[list] = []  # [span id, covered ns]
        self._next_id = 0
        # name -> [calls, total ns, self ns]
        self.totals: dict[str, list[int]] = {}
        self.counts: dict[str, float] = {}

    def call(self, name, fn, *args):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        frame = [span_id, 0]
        self._stack.append(frame)
        start = perf_counter_ns()
        try:
            return fn(*args)
        finally:
            end = perf_counter_ns()
            self._stack.pop()
            duration = end - start
            if self._stack:
                self._stack[-1][1] += duration
            total = self.totals.get(name)
            if total is None:
                total = self.totals[name] = [0, 0, 0]
            total[0] += 1
            total[1] += duration
            total[2] += duration - frame[1]
            if len(self.spans) < self.keep:
                self.spans.append((span_id, parent, name, self.instance, start, end))
            else:
                self.dropped += 1

    def count(self, name, value=1):
        self.counts[name] = self.counts.get(name, 0) + value

    def busy_s(self, name: str) -> float:
        total = self.totals.get(name)
        return total[1] / 1e9 if total else 0.0

    def self_s(self, name: str) -> float:
        total = self.totals.get(name)
        return total[2] / 1e9 if total else 0.0

    def calls(self, name: str) -> int:
        total = self.totals.get(name)
        return total[0] if total else 0

    def busy_prefix_s(self, prefix: str) -> float:
        return sum(t[1] for n, t in self.totals.items() if n.startswith(prefix)) / 1e9

    def dump(self) -> dict:
        return {
            "spans_kept": len(self.spans),
            "spans_dropped": self.dropped,
            "totals": {
                n: {"calls": c, "busy_s": t / 1e9, "self_s": s / 1e9}
                for n, (c, t, s) in sorted(self.totals.items())
            },
            "counts": dict(sorted(self.counts.items())),
            "spans": [
                {"id": i, "parent": p, "name": n, "instance": inst,
                 "start_ns": s, "end_ns": e}
                for i, p, n, inst, s, e in self.spans
            ],
        }


# -- machine speed ---------------------------------------------------------------

_REF_KEYS = [(f"q{i:04d}", f"p{i % 37:04d}") for i in range(600)]


def reference_ns() -> int:
    """Time one fixed piece of set and dict work (about 0.25 ms on a 2-vCPU
    2.1 GHz VM with Python 3.11).

    A shared virtual machine can change speed by tens of percent over
    seconds.  Timing this loop between operations tracks that change; the
    set and dict traffic makes it slow down with the deciders more closely
    than plain arithmetic does.
    """
    start = perf_counter_ns()
    alive = set(_REF_KEYS)
    index = {}
    for i, key in enumerate(_REF_KEYS):
        index[key] = i
        if (key[1], key[0]) in alive:
            index[key] += 1
    for key in _REF_KEYS[::2]:
        alive.discard(key)
    sorted(index.items())
    return perf_counter_ns() - start


def nearest_rank(sorted_values: list[float], q: float) -> tuple[float, int]:
    """The q-quantile by nearest rank, and how many samples lie beyond it."""
    n = len(sorted_values)
    rank = max(1, math.ceil(q * n))
    return sorted_values[rank - 1], n - rank


def median(values: list[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


# -- independent checks --------------------------------------------------------


def reachable_edges(m) -> set[tuple[str, str, str]]:
    reach = m.reachable()
    return {(s, str(a), d) for s, a, d in m.transitions if s in reach}


def is_isomorphism(m, n, mapping) -> bool:
    """Check a claimed isomorphism of reachable parts edge by edge.

    Written against the definition, independently of the decider: the map
    is a bijection from the reachable states of ``m`` onto those of ``n``,
    sends initial to initial, and maps the reachable edge set of ``m``
    exactly onto that of ``n``.
    """
    if mapping is None:
        return False
    reach_m, reach_n = m.reachable(), n.reachable()
    if set(mapping) != set(reach_m) or set(mapping.values()) != set(reach_n):
        return False
    if len(set(mapping.values())) != len(mapping):
        return False
    if mapping[m.initial] != n.initial:
        return False
    image = {(mapping[s], a, mapping[d]) for s, a, d in reachable_edges(m)}
    return image == reachable_edges(n)


def deterministic_isomorphism(m, n) -> dict[str, str] | None:
    """Pair the states of two deterministic systems by access words."""
    mapping = {m.initial: n.initial}
    todo = [m.initial]
    while todo:
        q = todo.pop()
        edges_q = {str(a): d for a, d in m.out(q)}
        edges_p = {str(a): d for a, d in n.out(mapping[q])}
        if len(edges_q) != len(m.out(q)) or len(edges_p) != len(n.out(mapping[q])):
            return None
        if set(edges_q) != set(edges_p):
            return None
        for a, q2 in edges_q.items():
            if q2 not in mapping:
                mapping[q2] = edges_p[a]
                todo.append(q2)
            elif mapping[q2] != edges_p[a]:
                return None
    return mapping if is_isomorphism(m, n, mapping) else None


# -- files ---------------------------------------------------------------------


def work_dir(name: str) -> Path:
    path = WORK_DIR / name
    path.mkdir(parents=True, exist_ok=True)
    return path


def pin_to_one_cpu() -> set[int] | None:
    """Run this process, and the children it starts from now on, on one CPU.

    For workloads whose work happens in a child process: the child then runs
    on the CPU where the reference loop is timed, so the scaling follows the
    speed the child actually gets.  Returns the previous CPU set for
    ``os.sched_setaffinity``, or None where the platform has no affinity.
    """
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    return cpus


def child_env() -> dict[str, str]:
    """Environment for child interpreters that import the package from src."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env
