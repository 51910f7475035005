"""Workload ``decide``: a batch of verdicts with answers fixed by construction.

Seeded random simulation, delay-simulation and isomorphism instances, plus
the adversarial families that random instances miss: ``a``-chains, dense
nondeterministic fan-out, tau-padded chains, nondeterministic isomorphism,
and the adaptor theorem on generated Mealy machines.  The deciders in
``simulation`` do almost all the work; ``operators`` runs only inside the
theorem instances.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from actioncodes import (
    TAU,
    adaptor_composition,
    contract,
    find_delay_simulation,
    find_isomorphism_reachable,
    find_simulation,
    is_delay_simulation,
    is_simulation,
    split_io,
    to_tree,
)
from actioncodes.generate import atomic_alphabet, gen_adaptor_code, gen_lts, gen_mealy

import builders as b
from common import NULL_TRACER, is_isomorphism

SIZES = {
    # counts of random instances and their (min, max) states; adversarial
    # chain lengths (min, max) and counts
    "full": dict(sim=100, sim_states=(8, 40), delay=48, delay_states=(6, 20),
                 iso=40, iso_states=(8, 36), chain=(34, 34), tau_chain=(21, 21), chains=16,
                 dense=(24, 3), iso_big=100, theorem=8, theorem_states=(5, 10)),
    "tiny": dict(sim=4, sim_states=(4, 8), delay=3, delay_states=(3, 6),
                 iso=4, iso_states=(4, 8), chain=(4, 5), tau_chain=(3, 4), chains=2,
                 dense=(5, 2), iso_big=8, theorem=1, theorem_states=(3, 4)),
}


@dataclass
class Case:
    kind: str  # sim, delay, iso_det, iso_nondet, theorem
    family: str
    left: object
    right: object
    expected: bool
    code: object = None  # the adaptor code of a theorem instance


class Decide:
    def __init__(self, seed: int, size: str = "full", tracer=NULL_TRACER):
        self.t = tracer
        self.ops = build_cases(seed, SIZES[size], tracer)

    # -- the harness interface ----------------------------------------------

    def set_tracer(self, tracer) -> None:
        self.t = tracer

    def begin_pass(self) -> None:
        pass

    def describe_op(self, index: int) -> str:
        case = self.ops[index]
        return f"{case.kind}/{case.family} expected {'PASS' if case.expected else 'FAIL'}"

    def run(self, case: Case):
        t = self.t
        if case.kind == "sim":
            out = t.call("simulation.find_simulation", find_simulation, case.left, case.right)
            self._count_product(case.left, case.right, out)
            return out
        if case.kind == "delay":
            out = t.call("simulation.find_delay_simulation", find_delay_simulation,
                         case.left, case.right, TAU)
            self._count_product(case.left, case.right, out)
            return out
        if case.kind in ("iso_det", "iso_nondet"):
            return t.call(f"simulation.{case.kind}", find_isomorphism_reachable,
                          case.left, case.right)
        # The adaptor theorem, as the chain of public calls check_adaptor_theorem
        # makes, so that both delay simulations can be re-validated.
        tree, m, code = case.left, case.right, case.code
        composed = t.call("adaptor.adaptor_composition", adaptor_composition, tree, m)
        contracted = t.call("operators.contract", contract, code, m)
        view = t.call("adaptor.split_io", split_io, contracted)
        forward = t.call("simulation.find_delay_simulation", find_delay_simulation,
                         composed, view, TAU)
        backward = t.call("simulation.find_delay_simulation", find_delay_simulation,
                          view, composed, TAU)
        if t.enabled:
            t.count("adaptor.composed_states", len(composed.states))
            t.count("operators.states_out", len(contracted.states))
            t.count("operators.transitions_out", len(contracted.transitions))
            self._count_product(composed, view, forward)
            self._count_product(view, composed, backward)
        return composed, view, forward, backward

    def check(self, index: int, out) -> bool:
        case = self.ops[index]
        if case.kind == "sim":
            return (out is not None) == case.expected and (
                out is None or is_simulation(case.left, case.right, out))
        if case.kind == "delay":
            return (out is not None) == case.expected and (
                out is None or is_delay_simulation(case.left, case.right, TAU, out))
        if case.kind in ("iso_det", "iso_nondet"):
            return (out is not None) == case.expected and (
                out is None or is_isomorphism(case.left, case.right, out))
        composed, view, forward, backward = out
        verdict = forward is not None and backward is not None
        return verdict == case.expected and (not verdict or (
            is_delay_simulation(composed, view, TAU, forward)
            and is_delay_simulation(view, composed, TAU, backward)))

    def close(self) -> None:
        pass

    def _count_product(self, m, n, relation) -> None:
        if self.t.enabled:
            self.t.count("simulation.product_pairs", len(m.reachable()) * len(n.reachable()))
            self.t.count("simulation.kept_pairs", len(relation) if relation else 0)


def build_cases(seed: int, size: dict, t) -> list[Case]:
    rng = random.Random(seed)
    cases: list[Case] = []

    def gen(states, labels, deterministic=False):
        # Redraw until most states are reachable, so sizes mean what they say.
        alphabet = atomic_alphabet(labels)
        while True:
            m = t.call("generate.gen_lts", gen_lts, rng.randrange(1 << 30), states,
                       alphabet, deterministic)
            if 2 * len(m.reachable()) >= states:
                return m

    # Sizes come from a fixed ladder and only the structure from the seed, so
    # that the timing quantiles move little from seed to seed.
    # Random simulation: a system against a noisy renamed copy of itself (PASS),
    # and the same with a reachable edge on a label the copy lacks (FAIL).
    for k, states in enumerate(b.ladder(size["sim_states"], size["sim"] // 2)):
        m = gen(states, 2 + k % 2)
        right = b.with_noise(t, rng, m, "n", states // 2)
        cases.append(Case("sim", "random", m, right, True))
        cases.append(Case("sim", "random", b.with_fresh_edge(t, rng, m), right, False))

    # Random delay simulation: tau padding both ways (PASS), and padding of a
    # system with an unmatched edge (FAIL).
    for k, states in enumerate(b.ladder(size["delay_states"], size["delay"] // 3)):
        m = gen(states, 2 + k % 2)
        plain = b.with_tau(t, m, TAU)
        padded = b.tau_padded(t, m, TAU)
        cases.append(Case("delay", "random", plain, padded, True))
        cases.append(Case("delay", "random", padded, plain, True))
        left = b.tau_padded(t, b.with_fresh_edge(t, rng, m), TAU)
        cases.append(Case("delay", "random", left, plain, False))

    # Random isomorphism: renamed copies (PASS) and copies missing one
    # reachable edge (FAIL), for deterministic and nondeterministic systems.
    for k, states in enumerate(b.ladder(size["iso_states"], size["iso"] // 2)):
        deterministic = k % 2 == 0
        m = gen(states, 2 + (k // 2) % 2, deterministic)
        copy, _ = b.renamed(t, rng, m, "r")
        kind = "iso_det" if deterministic else "iso_nondet"
        cases.append(Case(kind, "random", m, copy, True))
        cases.append(Case(kind, "random", m, b.without_reachable_edge(t, rng, copy), False))

    # Adversarial families.  The chains cost the same for every seed, and
    # there are enough of them that the 90th percentile falls among them.
    for n in b.ladder(size["chain"], size["chains"] // 2):
        cases.append(Case("sim", "chain", b.chain(t, n + 1, "p"), b.chain(t, n, "q"), False))
        cases.append(Case("sim", "chain", b.chain(t, n, "p"), b.chain(t, n + 1, "q"), True))

    states, fanout = size["dense"]
    labels = atomic_alphabet(3)
    for _ in range(2):
        m = b.dense(t, rng, states, labels, fanout)
        cases.append(Case("sim", "dense", m, b.with_noise(t, rng, m, "n", states), True))

    for n in b.ladder(size["tau_chain"], size["chains"] // 2):
        padded = b.tau_padded(t, b.chain(t, n, "p"), TAU)
        cases.append(Case("delay", "tau-chain", padded, b.chain(t, n, "q", extra=[TAU]), True))
        cases.append(Case("delay", "tau-chain", padded, b.chain(t, n - 1, "q", extra=[TAU]),
                          False))

    for _ in range(2):
        m = gen(size["iso_big"], 3)
        copy, _ = b.renamed(t, rng, m, "r")
        cases.append(Case("iso_nondet", "big", m, copy, True))
        cases.append(Case("iso_nondet", "big", m, b.without_reachable_edge(t, rng, copy), False))

    for states in b.ladder(size["theorem_states"], size["theorem"]):
        s = rng.randrange(1 << 30)
        code = t.call("generate.gen_adaptor_code", gen_adaptor_code, s, 3, 2, 2, 3)
        m = t.call("generate.gen_mealy", gen_mealy, s, states, 3, 2, True)
        tree = t.call("codes.to_tree", to_tree, code)
        cases.append(Case("theorem", "adaptor", tree, m, True, code))

    rng.shuffle(cases)
    return cases


def fingerprint(workload: Decide) -> list:
    """A comparable description of every instance, for the determinism test."""
    from actioncodes.documents import dumps, lts_to_document

    def doc(x):
        return dumps(lts_to_document(x.tree if hasattr(x, "tree") else x))

    return [(c.kind, c.family, c.expected, doc(c.left), doc(c.right)) for c in workload.ops]

