"""Workload ``laws``: the operator laws on large deterministic systems.

Each operation decides one law and round-trips every machine it produced
through the canonical document format:

- insertion: ``contract(concretize(A))`` is isomorphic to ``A`` for a
  system over the code's domain;
- ``compose-alpha``: contracting through a composed code equals contracting
  twice;
- ``compose-rho``: refining through a composed code equals refining twice;
- completeness: a code is complete, under the identity relation, for its
  own concretization.

``operators``, ``codes``, ``documents`` and ``Lts`` construction do the
work; ``simulation`` runs only the deterministic isomorphism, so a change to
the simulation deciders should leave this workload unmoved.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from actioncodes import (
    CompatRel,
    Label,
    compose,
    concretize,
    contract,
    find_isomorphism_reachable,
    is_icomplete,
    refine,
    to_map,
    to_tree,
)
from actioncodes.documents import dumps, loads, lts_from_document, lts_to_document
from actioncodes.generate import gen_code

import builders as b
from common import NULL_TRACER, is_isomorphism

SIZES = {
    # (min, max) states of the input system per law, and instances per law
    "full": {"per_law": 24, "insertion": (30, 150), "icomplete": (30, 150),
             "compose-alpha": (400, 1600), "compose-rho": (40, 200)},
    "tiny": {"per_law": 1, "insertion": (5, 5), "icomplete": (5, 5),
             "compose-alpha": (8, 8), "compose-rho": (5, 5)},
}

LAWS = ("insertion", "icomplete", "compose-alpha", "compose-rho")


@dataclass
class Case:
    law: str
    machine: object
    code: object
    outer: object = None


def serialize(m) -> str:
    return dumps(lts_to_document(m))


def parse(text: str):
    return lts_from_document(loads(text))


class Laws:
    def __init__(self, seed: int, size: str = "full", tracer=NULL_TRACER):
        self.t = tracer
        self.ops = build_cases(seed, SIZES[size], tracer)

    def set_tracer(self, tracer) -> None:
        self.t = tracer

    def begin_pass(self) -> None:
        pass

    def describe_op(self, index: int) -> str:
        case = self.ops[index]
        return f"{case.law} on {len(case.machine.states)} states"

    def run(self, case: Case) -> dict:
        t = self.t
        code, m = case.code, case.machine
        if case.law in ("insertion", "icomplete"):
            rel = CompatRel.identity(code.source)
            gamma = self._op(t, "concretize", concretize, code, rel, m)
            if case.law == "insertion":
                back = self._op(t, "contract", contract, code, gamma)
                mapping = t.call("simulation.iso_det", find_isomorphism_reachable, m, back)
                pairs, produced = [(m, back, mapping)], [gamma, back]
                verdict = mapping is not None
            else:
                ok, _ = t.call("operators.is_icomplete", is_icomplete, code, rel, gamma)
                pairs, produced, verdict = [], [gamma], ok
            codes = [code]
        else:
            inner, outer = code, case.outer
            both = t.call("codes.compose", compose, inner, outer)
            if case.law == "compose-alpha":
                direct = self._op(t, "contract", contract, both, m)
                stacked = self._op(t, "contract", contract, outer,
                                   self._op(t, "contract", contract, inner, m))
            else:
                direct = self._op(t, "refine", refine, both, m)
                stacked = self._op(t, "refine", refine, inner,
                                   self._op(t, "refine", refine, outer, m))
            mapping = t.call("simulation.iso_det", find_isomorphism_reachable, direct, stacked)
            pairs, produced = [(direct, stacked, mapping)], [direct, stacked]
            verdict = mapping is not None
            codes = [inner, outer, both]
        round_trips = all(self._round_trip(t, x) for x in produced)
        code_trips = all(
            t.call("codes.to_map", to_map, t.call("codes.to_tree", to_tree, c)) == c
            for c in codes)
        return {"verdict": verdict, "pairs": pairs,
                "round_trips": round_trips and code_trips}

    def check(self, index: int, out: dict) -> bool:
        # Every law here holds on its inputs, so the expected verdict is PASS.
        return out["verdict"] and out["round_trips"] and all(
            is_isomorphism(m, n, mapping) for m, n, mapping in out["pairs"])

    def close(self) -> None:
        pass

    @staticmethod
    def _op(t, name, fn, *args):
        result = t.call(f"operators.{name}", fn, *args)
        if t.enabled:
            t.count("operators.states_out", len(result.states))
            t.count("operators.transitions_out", len(result.transitions))
        return result

    @staticmethod
    def _round_trip(t, m) -> bool:
        text = t.call("documents.dumps", serialize, m)
        again = t.call("documents.dumps", serialize, t.call("documents.parse", parse, text))
        if t.enabled:
            t.count("documents.bytes", 2 * len(text.encode("utf-8")))
        return again == text


def build_cases(seed: int, size: dict, t) -> list[Case]:
    rng = random.Random(seed)
    letters = [Label(x) for x in "abc"]
    mids = [Label(x) for x in "ABCDE"]
    tops = [Label(f"X{k}") for k in range(3)]

    def code(source, target, entries, maxlen, shape):
        # Redraw until the code has the given word lengths and number of
        # proper prefixes: output sizes follow from that shape, so fixing it
        # keeps the cost of an instance from depending on the seed.
        while True:
            c = t.call("generate.gen_code", gen_code, rng.randrange(1 << 30), source, target,
                       entries, maxlen)
            if code_shape(c) == shape:
                return c

    def machine(states, labels):
        return b.connected_deterministic(t, rng, states, sorted(labels, key=str), 0.5)

    cases = []
    n = size["per_law"]
    for law in LAWS:
        for states in b.ladder(size[law], n):
            if law in ("insertion", "icomplete"):
                c = code(letters, mids, 4, 3, ((2, 3, 3, 3), 4))
                cases.append(Case(law, machine(states, c.domain), c))
            elif law == "compose-alpha":
                inner = code(letters, mids, 5, 2, ((2, 2, 2, 2, 2), 3))
                outer = code(sorted(inner.target, key=str), tops, 3, 2, ((2, 2, 2), 2))
                cases.append(Case(law, machine(states, inner.source), inner, outer))
            else:
                inner = code(letters, mids, 5, 2, ((2, 2, 2, 2, 2), 3))
                outer = code(sorted(inner.domain, key=str), tops, 3, 2, ((2, 2, 2), 2))
                cases.append(Case(law, machine(states, outer.domain), inner, outer))
    rng.shuffle(cases)
    return cases


def code_shape(code) -> tuple[tuple[int, ...], int]:
    """Sorted word lengths and the number of distinct proper prefixes."""
    prefixes = {w[:i] for _, w in code.entries for i in range(1, len(w))}
    return tuple(sorted(len(w) for _, w in code.entries)), len(prefixes)


def fingerprint(workload: Laws) -> list:
    from actioncodes.documents import code_to_document

    return [(c.law, serialize(c.machine), dumps(code_to_document(c.code)),
             dumps(code_to_document(c.outer)) if c.outer else None)
            for c in workload.ops]
