"""Decider tests: simulation, isomorphism, and delay simulation."""

from __future__ import annotations

import random
import time

import pytest

from actioncodes.errors import (
    AlphabetMismatch,
    IsomorphismInconclusive,
)
from actioncodes import check_adaptor_theorem, simulation, to_tree
from actioncodes.generate import gen_adaptor_code, gen_code, gen_lts, gen_mealy
from actioncodes.lts import Label, Lts
from actioncodes.operators import contract, refine
from actioncodes.simulation import (
    find_delay_simulation,
    find_isomorphism_reachable,
    find_simulation,
    is_delay_simulation,
    is_simulation,
)

from conftest import (
    _delay_answers,
    _search_isomorphism,
    _step_answers,
    add_noise,
    brute_force_delay_simulated,
    brute_force_isomorphic,
    brute_force_simulated,
    load_fixture,
    relabel,
    sub_machine,
    sweep_greatest_simulation,
    trace_inclusion_equiv_check,
)


def is_reachable_isomorphism(m: Lts, n: Lts, mapping: dict[str, str]) -> bool:
    """Check a claimed map edge by edge: a bijection between the reachable
    parts that keeps the initial state and carries the edges onto each other."""
    reach_m, reach_n = m.reachable(), n.reachable()
    if set(mapping) != reach_m or set(mapping.values()) != reach_n:
        return False
    if len(reach_m) != len(reach_n) or mapping[m.initial] != n.initial:
        return False
    image = {(mapping[s], a, mapping[d]) for s, a, d in m.transitions if s in reach_m}
    return image == {t for t in n.transitions if t[0] in reach_n}


def with_unreachable_part(m: Lts) -> Lts:
    """``m`` plus a nondeterministic state that nothing reaches."""
    a = min(m.alphabet, key=str)
    junk = [("junk", a, "junk"), ("junk", a, m.initial)]
    return Lts([*m.states, "junk"], m.initial, [*m.transitions, *junk], m.alphabet)


def forked_chain(left: int, right: int) -> Lts:
    """A root with two ``b`` edges into ``a``-chains of the given state
    counts."""
    a, b = Label("a"), Label("b")
    xs = [f"x{k}" for k in range(left)]
    ys = [f"y{k}" for k in range(right)]
    edges = [("r", b, xs[0]), ("r", b, ys[0])]
    for chain in (xs, ys):
        edges += [(src, a, dst) for src, dst in zip(chain, chain[1:])]
    return Lts(["r", *xs, *ys], "r", edges, [a, b])


def numbered_copy(m: Lts, backwards: bool = False, shuffle: int | None = None) -> Lts:
    """A renamed copy whose names sort in the order of ``m.states``, in the
    reverse order, or in an order shuffled by the seed ``shuffle``."""
    states = list(reversed(m.states) if backwards else m.states)
    if shuffle is not None:
        random.Random(shuffle).shuffle(states)
    name = {q: f"c{k:04d}" for k, q in enumerate(states)}
    return Lts(
        [name[q] for q in m.states],
        name[m.initial],
        [(name[s], a, name[d]) for s, a, d in m.transitions],
        m.alphabet,
    )


def dense_lts(seed: int, states: int, labels: int) -> Lts:
    """A random system with 3, 5 or 8 targets per state and label."""
    rng = random.Random(seed)
    alphabet = [Label(x) for x in "abc"[:labels]]
    ids = [f"q{k}" for k in range(states)]
    edges = [
        (q, a, d)
        for q in ids
        for a in alphabet
        for d in rng.sample(ids, k=min(rng.choice((3, 5, 8)), states))
    ]
    return Lts(ids, ids[0], edges, alphabet)


def fan(k: int, swap: bool = False) -> Lts:
    """A root with ``k`` ``a`` edges into ``k`` chains of three states joined
    by ``a``, chain ``i`` ending in a ``b_i`` edge to its own last state;
    with ``swap``, chain 0 ends in ``b_1`` instead, over the same alphabet."""
    a, bs = Label("a"), [Label(f"b{i}") for i in range(k)]
    states, edges = ["r"], []
    for i in range(k):
        chain = [f"c{i}.{j}" for j in range(4)]
        states += chain
        edges += [(src, a, dst) for src, dst in zip(["r", *chain], chain[:3])]
        edges.append((chain[2], bs[1 if swap and i == 0 else i], chain[3]))
    return Lts(states, "r", edges, [a, *bs])


def a_tree(depth: int, back: str | None = None) -> Lts:
    """The complete binary ``a``-tree of ``depth`` below the root ``t``, each
    leaf with a ``b`` self-loop; with ``back``, that leaf's ``b`` edge goes
    to the root instead, keeping the state and edge counts."""
    a, b = Label("a"), Label("b")
    states = ["t" + format(k, "b")[1:] for k in range(1, 2 ** (depth + 1))]
    edges = [(q, a, q + bit) for q in states if len(q) <= depth for bit in "01"]
    edges += [(q, b, "t" if q == back else q) for q in states if len(q) > depth]
    return Lts(states, "t", edges, [a, b])


class TestFindSimulation:
    def test_reflexive(self):
        for name in ("choice.lts.json", "square.mealy.json", "octal-choice-nondet.lts.json"):
            m = load_fixture(name)
            witness = find_simulation(m, m)
            assert witness is not None
            assert all((q, q) in witness for q in m.reachable())

    def test_desired_refinement_simulates_nondet_expansion(self):
        # The deterministic expansion simulates the guessing one, but not the
        # other way around: after 1·4 the guessing machine has committed.
        left = load_fixture("octal-choice-nondet.lts.json")
        right = load_fixture("octal-choice-det.lts.json")
        assert find_simulation(left, right) is not None
        assert find_simulation(right, left) is None

    def test_expansion_and_its_recomputation_simulate_each_other(self):
        from actioncodes.operators import refine

        recomputed = refine(
            load_fixture("octal-letters.code.json"), load_fixture("choice.lts.json")
        )
        det = load_fixture("octal-choice-det.lts.json")
        assert find_simulation(det, recomputed) is not None
        assert find_simulation(recomputed, det) is not None

    def test_absent_when_right_is_stuck(self):
        m = load_fixture("choice.lts.json")
        n = Lts(["p"], "p", [], m.alphabet)
        assert find_simulation(m, n) is None
        assert find_simulation(n, m) is not None

    def test_witnesses_revalidate(self, rng):
        for seed in range(60):
            m = gen_lts(seed, states=4, labels=2)
            n = gen_lts(seed + 1000, states=4, labels=2)
            witness = find_simulation(m, n)
            if witness is not None:
                assert is_simulation(m, n, witness)

    def test_agrees_with_brute_force(self):
        for seed in range(120):
            m = gen_lts(seed, states=3, labels=2)
            n = gen_lts(seed + 5000, states=3, labels=2)
            assert (find_simulation(m, n) is not None) == brute_force_simulated(m, n)

    def test_agrees_with_brute_force_at_four_states(self):
        # Up to 2^16 candidate relations per pair; a handful of instances
        # keeps the full enumeration honest without dominating the suite.
        for seed in range(6):
            m = gen_lts(seed + 400, states=4, labels=2)
            n = gen_lts(seed + 600, states=4, labels=2)
            assert (find_simulation(m, n) is not None) == brute_force_simulated(m, n)

    def test_transitive_via_witness_composition(self):
        found = 0
        for seed in range(80):
            rng = random.Random(seed)
            c = gen_lts(seed, states=4, labels=2)
            b = sub_machine(rng, c)
            a = sub_machine(rng, b)
            ab = find_simulation(a, b)
            bc = find_simulation(b, c)
            assert ab is not None and bc is not None
            composed = {
                (q, r) for q, p in ab for p2, r in bc if p == p2
            }
            assert is_simulation(a, c, frozenset(composed))
            found += 1
        assert found == 80

    def test_rejects_variant_mismatch(self):
        with pytest.raises(AlphabetMismatch):
            find_simulation(load_fixture("choice.lts.json"), load_fixture("square.mealy.json"))

    def test_is_simulation_rejects_unknown_states(self):
        m = load_fixture("choice.lts.json")
        with pytest.raises(ValueError):
            is_simulation(m, m, frozenset({("nope", "q0")}))


class TestTraceInclusionAgreement:
    def test_expanded_machines_agree(self):
        nondet = load_fixture("octal-choice-nondet.lts.json")
        verdict = trace_inclusion_equiv_check(nondet, load_fixture("octal-choice-det.lts.json"), 6)
        assert verdict.simulated
        assert verdict.traces_included

    def test_self_check(self):
        m = load_fixture("octal-choice-det.lts.json")
        verdict = trace_inclusion_equiv_check(m, m, 5)
        assert verdict == (True, True)

    def test_foreign_trace_fails_both(self):
        m = Lts(
            ["p0", "p1", "p2", "p3"],
            "p0",
            [
                ("p0", Label("1"), "p1"),
                ("p1", Label("4"), "p2"),
                ("p2", Label("3"), "p3"),
            ],
            [Label("1"), Label("3"), Label("4"), Label("2")],
        )
        verdict = trace_inclusion_equiv_check(m, load_fixture("octal-choice-det.lts.json"), 3)
        assert not verdict.simulated
        assert not verdict.traces_included

    def test_requires_deterministic_right(self):
        with pytest.raises(ValueError, match="^right-hand system must be deterministic$"):
            trace_inclusion_equiv_check(
                load_fixture("choice.lts.json"), load_fixture("octal-choice-nondet.lts.json"), 3
            )

    def test_agreement_on_random_pairs(self):
        agreements = 0
        for seed in range(100):
            m = gen_lts(seed, states=3, labels=2)
            n = gen_lts(seed + 9000, states=3, labels=2, deterministic=True)
            bound = len(m.reachable()) * len(n.reachable())
            verdict = trace_inclusion_equiv_check(m, n, bound)
            assert verdict.simulated == verdict.traces_included
            agreements += 1
        assert agreements == 100


class TestIsomorphism:
    def test_identity(self):
        m = load_fixture("square.mealy.json")
        assert find_isomorphism_reachable(m, m) == {q: q for q in m.states}

    def test_renamed_copy(self):
        m = load_fixture("octal-choice-det.lts.json")
        n = relabel(m)
        mapping = find_isomorphism_reachable(m, n)
        assert mapping is not None
        assert mapping["q0"] == n.initial

    def test_renamed_nondeterministic_copy(self):
        m = load_fixture("octal-choice-nondet.lts.json")
        mapping = find_isomorphism_reachable(m, relabel(m))
        assert mapping is not None

    def test_distinguishes_structures(self):
        det = load_fixture("octal-choice-det.lts.json")
        assert find_isomorphism_reachable(det, load_fixture("octal-choice-nondet.lts.json")) is None

    def test_ignores_unreachable_states(self):
        m = load_fixture("choice.lts.json")
        extra = Lts(
            list(m.states) + ["junk"],
            m.initial,
            list(m.transitions) + [("junk", Label("a"), "junk")],
            m.alphabet,
        )
        assert find_isomorphism_reachable(m, extra) is not None

    def test_isomorphism_implies_mutual_simulation(self):
        for seed in range(30):
            m = gen_lts(seed, states=4, labels=2)
            n = relabel(m)
            assert find_isomorphism_reachable(m, n) is not None
            assert find_simulation(m, n) is not None
            assert find_simulation(n, m) is not None

    def test_budget_exhaustion_raises(self, monkeypatch):
        monkeypatch.setattr(simulation, "ISO_BUDGET", 0)
        m = load_fixture("octal-choice-nondet.lts.json")
        with pytest.raises(IsomorphismInconclusive):
            find_isomorphism_reachable(m, relabel(m))

    def test_respects_labels(self):
        m = Lts(["p", "q"], "p", [("p", Label("a"), "q")], [Label("a"), Label("b")])
        n = Lts(["r", "s"], "r", [("r", Label("b"), "s")], [Label("a"), Label("b")])
        assert find_isomorphism_reachable(m, n) is None

    def test_agrees_with_all_bijections(self):
        hits = 0
        for seed in range(300):
            deterministic = seed % 2 == 1
            m = gen_lts(seed, states=3, labels=2, deterministic=deterministic)
            other = gen_lts(seed + 71, states=3, labels=2, deterministic=deterministic)
            n = relabel(other)
            if seed % 3 == 0:
                n = relabel(m)  # guarantee a healthy share of positives
            if seed % 5 < 2:
                n = with_unreachable_part(n)  # invisible to both deciders
            got = find_isomorphism_reachable(m, n)
            assert (got is not None) == brute_force_isomorphic(m, n)
            if got is not None:
                assert is_reachable_isomorphism(m, n, got)
            hits += got is not None
        assert hits >= 100

    def test_deterministic_pairs_never_spend_budget(self, monkeypatch):
        monkeypatch.setattr(simulation, "ISO_BUDGET", 0)
        for seed in range(40):
            m = gen_lts(seed, states=6, labels=3, deterministic=True)
            n = relabel(m)
            mapping = find_isomorphism_reachable(m, n)
            assert mapping is not None and is_reachable_isomorphism(m, n, mapping)

    def test_deep_nondeterministic_chain(self):
        # 1,100 states: deeper than the default recursion limit.
        m = forked_chain(550, 549)
        for n in (numbered_copy(m), numbered_copy(m, backwards=True)):
            # Backwards, the first image tried for x0 is the wrong one, and
            # the search backtracks from the end of the chain.
            mapping = find_isomorphism_reachable(m, n)
            assert mapping is not None and is_reachable_isomorphism(m, n, mapping)
        other = numbered_copy(forked_chain(551, 548))  # same state and edge counts
        assert find_isomorphism_reachable(m, other) is None


class TestAgainstTheOracle:
    """``find_isomorphism_reachable`` against the backtracking search it
    replaced, kept as the oracle: the same verdict, every map an
    isomorphism, and for a deterministic left side the same map."""

    BOUND_S = 0.5

    def test_a_target_bound_before_a_repeated_label(self):
        # Walking r binds y, then x has two b edges, to y and to z, whose
        # images sort the other way round: pairing x's targets by position
        # would bind y to a second image.
        a, b, c = Label("a"), Label("b"), Label("c")
        m = Lts("rxyz", "r", [("r", a, "x"), ("r", c, "y"), ("x", b, "y"), ("x", b, "z")],
                [a, b, c])
        image = {"r": "R", "x": "X", "y": "Q", "z": "P"}
        n = Lts(image.values(), "R", [(image[s], x, image[d]) for s, x, d in m.transitions],
                m.alphabet)
        assert find_isomorphism_reachable(m, n) == _search_isomorphism(m, n) == image

    @staticmethod
    def deterministic_systems(seed: int):
        yield gen_lts(seed, states=9, labels=3, deterministic=True)
        yield gen_mealy(seed, states=9, inputs=2, outputs=2, output_deterministic=True)
        code = gen_code(seed, source=2, target=3, entries=3, maxlen=3)
        for build, labels in ((refine, code.target), (contract, code.source)):
            machine = gen_lts(seed, states=8, labels=sorted(labels, key=str), deterministic=True)
            yield build(code, machine)

    @staticmethod
    def others(rng: random.Random, m: Lts):
        """Renamed copies of ``m``, one-edge mutants of one, and a copy with
        one more edge that repeats a label."""
        for n in (relabel(m), numbered_copy(m, backwards=True)):
            yield n
        edges = sorted(n.transitions)
        if not edges:
            return
        src, a, dst = edges.pop(rng.randrange(len(edges)))
        labels = sorted(n.alphabet, key=str)
        for edge in ((src, a, rng.choice(n.states)), (src, rng.choice(labels), dst), None):
            yield Lts(n.states, n.initial, edges + ([edge] if edge else []), n.alphabet)
        twin = rng.choice(n.states)
        yield Lts(n.states, n.initial, [*n.transitions, (src, a, twin)], n.alphabet)

    def test_agrees_with_the_search(self):
        rng = random.Random(21)
        verdicts = []
        for seed in range(60):
            for m in self.deterministic_systems(seed):
                for n in self.others(rng, m):
                    got = find_isomorphism_reachable(m, n)
                    assert got == _search_isomorphism(m, n)
                    verdicts.append(got is not None)
        assert verdicts.count(True) >= 400 and verdicts.count(False) >= 400

    def verdicts(self, systems, seed: int) -> list[bool]:
        """Each system against a shuffled copy and :meth:`others`: the
        oracle's verdict, a valid map, and each call within ``BOUND_S`` of
        CPU time."""
        rng = random.Random(seed)
        verdicts = []
        for m in systems:
            for n in (numbered_copy(m, shuffle=rng.randrange(10**6)), *self.others(rng, m)):
                start = time.process_time()
                got = find_isomorphism_reachable(m, n)
                assert time.process_time() - start < self.BOUND_S
                assert (got is None) == (_search_isomorphism(m, n) is None)
                assert got is None or is_reachable_isomorphism(m, n, got)
                verdicts.append(got is not None)
        return verdicts

    def test_nondeterministic_systems(self):
        systems = (gen_lts(seed, 3 + seed % 58, 1 + seed % 3) for seed in range(120))
        verdicts = self.verdicts(systems, 22)
        assert verdicts.count(True) >= 500 and verdicts.count(False) >= 150

    def test_dense_systems(self):
        # Without the edge checks at each pick, the search took seconds on
        # such systems or ran out of budget.
        systems = (dense_lts(seed, 3 + seed % 58, 1 + seed % 3) for seed in range(120))
        verdicts = self.verdicts(systems, 23)
        assert verdicts.count(True) >= 400 and verdicts.count(False) >= 300


class TestDelaySimulation:
    TAU = Label("τ")

    def _lts(self, states, initial, triples, extra=()):
        labels = {self.TAU, Label("x"), Label("y")} | set(extra)
        return Lts(states, initial, [(a, Label.parse(t), b) for a, t, b in triples], labels)

    def test_reflexive(self):
        m = self._lts(["p0", "p1"], "p0", [("p0", "τ", "p1"), ("p1", "x", "p0")])
        assert find_delay_simulation(m, m, self.TAU) is not None

    def test_hidden_steps_absorbed(self):
        # A hidden detour before the visible step is invisible on the left.
        left = self._lts(["p0", "p1"], "p0", [("p0", "x", "p1")])
        right = self._lts(
            ["q0", "q1", "q2"],
            "q0",
            [("q0", "τ", "q1"), ("q1", "x", "q2")],
        )
        assert find_delay_simulation(left, right, self.TAU) is not None
        assert find_delay_simulation(right, left, self.TAU) is not None

    def test_output_before_input_is_not_matched(self):
        eager = self._lts(["p0", "p1"], "p0", [("p0", "y", "p1")])
        gated = self._lts(["q0", "q1"], "q0", [("q0", "x", "q1"), ("q1", "y", "q0")])
        assert find_delay_simulation(eager, gated, self.TAU) is None
        assert brute_force_delay_simulated(eager, gated, self.TAU) is False

    def test_requires_hidden_label_in_alphabets(self):
        m = self._lts(["p"], "p", [])
        n = Lts(["q"], "q", [], [Label("x")])
        with pytest.raises(AlphabetMismatch):
            find_delay_simulation(m, n, self.TAU)

    def test_agrees_with_brute_force(self):
        labels = [Label("x"), Label("y"), self.TAU]
        for seed in range(60):
            m = gen_lts(seed, states=2, labels=labels)
            n = gen_lts(seed + 100, states=3, labels=labels)
            got = find_delay_simulation(m, n, self.TAU) is not None
            assert got == brute_force_delay_simulated(m, n, self.TAU)

    @pytest.mark.parametrize("pair", [("nope", "p0"), ("p0", "nope")])
    def test_is_delay_simulation_rejects_unknown_states(self, pair):
        m = self._lts(["p0", "p1"], "p0", [("p0", "τ", "p1"), ("p1", "x", "p0")])
        relation = frozenset({("p0", "p0"), pair})
        with pytest.raises(ValueError):
            is_delay_simulation(m, m, self.TAU, relation)

    def test_is_delay_simulation_checks_each_answer(self):
        # x is answered by a hidden move and then x, not by the hidden move alone.
        m = self._lts(["p0", "p1"], "p0", [("p0", "x", "p1")])
        n = self._lts(["q0", "q1", "q2"], "q0", [("q0", "τ", "q1"), ("q1", "x", "q2")])
        after_x = frozenset({("p0", "q0"), ("p1", "q2")})
        before_x = frozenset({("p0", "q0"), ("p1", "q1")})
        assert is_delay_simulation(m, n, self.TAU, after_x)
        assert not is_delay_simulation(m, n, self.TAU, before_x)

    def test_witnesses_revalidate(self):
        labels = [Label("x"), Label("y"), self.TAU]
        for seed in range(40):
            m = gen_lts(seed, states=3, labels=labels)
            n = gen_lts(seed + 300, states=3, labels=labels)
            witness = find_delay_simulation(m, n, self.TAU)
            if witness is not None:
                assert is_delay_simulation(m, n, self.TAU, witness)


TAU = Label("τ")


def a_chain(states: int, prefix: str, extra=()) -> Lts:
    """``states`` states in a line of ``a`` edges; ``extra`` labels join the
    alphabet only."""
    a = Label("a")
    ids = [f"{prefix}{k}" for k in range(states)]
    return Lts(ids, ids[0], [(s, a, d) for s, d in zip(ids, ids[1:])], [a, *extra])


def tau_padded(m: Lts) -> Lts:
    """Each edge ``q -a-> r`` becomes ``q -τ-> mid -a-> r``; the result and
    ``m`` delay-simulate each other."""
    states, edges = list(m.states), []
    for k, (q, a, r) in enumerate(sorted(m.transitions, key=str)):
        states.append(f"{q}~{k}")
        edges += [(q, TAU, f"{q}~{k}"), (f"{q}~{k}", a, r)]
    return Lts(states, m.initial, edges, [*m.alphabet, TAU])


def tau_ring(states: int, prefix: str) -> Lts:
    """``states`` states in a ring of τ edges, each with an ``a`` self-loop:
    every hidden closure is the whole ring."""
    ids = [f"{prefix}{k}" for k in range(states)]
    edges = [(s, TAU, d) for s, d in zip(ids, ids[1:] + ids[:1])]
    return Lts(ids, ids[0], edges + [(s, Label("a"), s) for s in ids], [Label("a"), TAU])


def sweep_instances(count: int):
    """Seeded pairs of 1-9 states: ``(m, m)``, a noisy renamed copy (which
    simulates ``m``), a sub-machine, and an unrelated system; deterministic
    and not, always with τ in the alphabet."""
    for seed in range(count):
        rng = random.Random(seed)
        labels = [Label("x"), Label("y"), TAU][1 - seed % 2 :]
        deterministic = seed % 3 == 0
        m = gen_lts(seed, states=1 + seed % 9, labels=labels, deterministic=deterministic)
        kind = seed // 3 % 4
        if kind == 0:
            n = m
        elif kind == 1:
            n = add_noise(rng, relabel(m), extra=rng.randrange(3))
        elif kind == 2:
            n = sub_machine(rng, m, keep=0.8)
        else:
            n = gen_lts(seed + 7919, states=1 + rng.randrange(9), labels=labels,
                        deterministic=deterministic)
        yield m, n


def as_masks(names: list[str], answers) -> dict:
    """Dict answers as the engine's ``(ans, pre, answering)`` masks, bits
    numbered by position in ``names``."""
    index = {p: i for i, p in enumerate(names)}
    tables = {}
    for a, by_state in answers.items():
        ans, pre = [0] * len(names), [0] * len(names)
        for p, targets in by_state.items():
            for p2 in targets:
                ans[index[p]] |= 1 << index[p2]
                pre[index[p2]] |= 1 << index[p]
        tables[a] = ans, pre, sum(1 << i for i, row in enumerate(ans) if row)
    return tables


def test_answer_tables_match_the_dict_answers():
    for m, n in sweep_instances(500):
        names, plain = simulation._answer_tables(n, None)
        assert names == sorted(n.reachable())
        assert plain == as_masks(names, _step_answers(m, n))
        delay = as_masks(names, _delay_answers(m, n, TAU))
        assert simulation._answer_tables(n, TAU) == (names, delay)


def sweep_engine(m: Lts, n: Lts, tau=None, from_initial=False):
    """The sweep oracle in the engine's place, fed the dict answers; it
    always returns the relation over the whole product, as the engine's
    masks."""
    answers = _step_answers(m, n) if tau is None else _delay_answers(m, n, tau)
    relation = sweep_greatest_simulation(m, n, answers)
    if relation is None:
        return None
    names = sorted(n.reachable())
    alive = dict.fromkeys(sorted(m.reachable()), 0)
    for q, p in relation:
        alive[q] |= 1 << names.index(p)
    return names, alive


def test_engine_matches_the_sweep_oracle(monkeypatch):
    pairs = list(sweep_instances(3000))
    engine = [(find_simulation(m, n), find_delay_simulation(m, n, TAU)) for m, n in pairs]
    from_initial = [
        (simulation._simulates(m, n), simulation._simulates(m, n, TAU)) for m, n in pairs
    ]
    # The long families of TestNoCliff, too large for the oracle: from the
    # initial pair the verdicts are those of the whole product.
    size = TestNoCliff.N
    padded = tau_padded(a_chain(size, "p"))
    for m, n in [
        (a_chain(size + 1, "p", extra=[TAU]), a_chain(size, "q", extra=[TAU])),
        (a_chain(size, "p", extra=[TAU]), a_chain(size + 1, "q", extra=[TAU])),
        (padded, a_chain(size, "q", extra=[TAU])),
        (padded, a_chain(size - 1, "q", extra=[TAU])),
        (tau_ring(size, "p"), tau_ring(size, "q")),
    ]:
        assert simulation._simulates(m, n) == (find_simulation(m, n) is not None)
        assert simulation._simulates(m, n, TAU) == (
            find_delay_simulation(m, n, TAU) is not None
        )
    monkeypatch.setattr(simulation, "_greatest_simulation", sweep_engine)
    oracle = [(find_simulation(m, n), find_delay_simulation(m, n, TAU)) for m, n in pairs]
    assert engine == oracle
    assert from_initial == [(plain is not None, delay is not None) for plain, delay in oracle]
    for (m, n), (plain, delay) in zip(pairs, engine):
        assert plain is None or is_simulation(m, n, plain)
        assert delay is None or is_delay_simulation(m, n, TAU, delay)
    for k in (0, 1):  # simulation, delay simulation
        verdicts = [r[k] is not None for r in engine]
        assert verdicts.count(True) >= 1500 and verdicts.count(False) >= 400


def agrees_with_the_oracle(m: Lts, n: Lts) -> bool:
    """Check both root sets of the engine against the sweep oracle: the
    relations of both deciders (delay simulation when both alphabets have
    τ) and the verdicts from the initial pair.  Returns the simulation
    verdict."""
    expected = sweep_greatest_simulation(m, n, _step_answers(m, n))
    assert find_simulation(m, n) == expected
    assert simulation._simulates(m, n) == (expected is not None)
    if TAU in m.alphabet and TAU in n.alphabet:
        delay = sweep_greatest_simulation(m, n, _delay_answers(m, n, TAU))
        assert find_delay_simulation(m, n, TAU) == delay
        assert simulation._simulates(m, n, TAU) == (delay is not None)
    return expected is not None


class TestMaskEdges:
    """Hand-built cases for the bit masks of the engine."""

    A, B = Label("a"), Label("b")

    @pytest.mark.parametrize("width", [65, 130])
    def test_right_sides_wider_than_a_machine_word(self, width):
        # An a-chain with random b and τ edges: every state is reachable,
        # and the a-edges alone never cycle.
        rng = random.Random(width)
        ids = [f"q{k}" for k in range(width)]
        edges = [(s, self.A, d) for s, d in zip(ids, ids[1:])]
        edges += [(rng.choice(ids), lab, rng.choice(ids)) for _ in range(width)
                  for lab in (self.B, TAU)]
        n = Lts(ids, ids[0], edges, [self.A, self.B, TAU])
        assert len(n.reachable()) == width
        assert agrees_with_the_oracle(a_chain(40, "p", extra=[TAU]), n)
        part = relabel(sub_machine(rng, n, keep=0.9))
        assert len(part.reachable()) > 64
        assert agrees_with_the_oracle(part, n)
        assert not agrees_with_the_oracle(add_noise(rng, relabel(n), extra=3), n)

    def test_a_label_the_right_side_lacks(self):
        n = a_chain(3, "q", extra=[self.B])  # b is in the alphabet, on no edge
        deep_b = Lts(["p0", "p1", "p2"], "p0", [("p0", self.A, "p1"), ("p1", self.B, "p2")],
                     [self.A, self.B])
        assert not agrees_with_the_oracle(deep_b, n)
        assert not agrees_with_the_oracle(deep_b, a_chain(3, "q"))  # b not even in it
        unreached_b = Lts(["p0", "p1", "junk"], "p0",
                          [("p0", self.A, "p1"), ("junk", self.B, "p0")], [self.A, self.B])
        assert agrees_with_the_oracle(unreached_b, n)

    @pytest.mark.parametrize("b_everywhere", [True, False])
    def test_left_self_loops(self, b_everywhere):
        # One left state loops on a and b; the right ring has b at all of
        # its states or at all but one.  Deaths in the left state's own batch
        # must still reach its other pairs.
        m = Lts(["p"], "p", [("p", self.A, "p"), ("p", self.B, "p")], [self.A, self.B, TAU])
        ids = [f"q{k}" for k in range(5)]
        ring = [(s, self.A, d) for s, d in zip(ids, ids[1:] + ids[:1])]
        with_b = ids if b_everywhere else ids[:-1]
        n = Lts(ids, "q0", ring + [(q, self.B, q) for q in with_b], [self.A, self.B, TAU])
        assert agrees_with_the_oracle(m, n) == b_everywhere
        looped = Lts(["p0", "p1"], "p0", [("p0", self.A, "p0"), ("p0", self.A, "p1"),
                                          ("p1", self.B, "p1"), ("p1", TAU, "p0")],
                     [self.A, self.B, TAU])
        agrees_with_the_oracle(looped, n)
        agrees_with_the_oracle(n, looped)

    def test_right_initial_state_without_moves(self):
        n = Lts(["q0", "q1"], "q0", [("q1", self.A, "q0")], [self.A, TAU])
        assert agrees_with_the_oracle(Lts(["p"], "p", [], [self.A, TAU]), n)
        assert not agrees_with_the_oracle(a_chain(2, "p", extra=[TAU]), n)
        hidden = Lts(["p0", "p1"], "p0", [("p0", TAU, "p1")], [self.A, TAU])
        stuck = Lts(["q"], "q", [], [TAU])
        assert not agrees_with_the_oracle(hidden, stuck)
        # The empty hidden run answers a hidden move.
        assert simulation._simulates(hidden, stuck, TAU)

    def test_unreachable_states_on_both_sides(self):
        for seed in range(20):
            rng = random.Random(seed)
            m = gen_lts(seed, states=5, labels=[self.A, self.B, TAU])
            n = add_noise(rng, relabel(m), extra=2)
            left, right = with_unreachable_part(m), with_unreachable_part(n)
            assert agrees_with_the_oracle(left, right)
            relation = find_simulation(left, right)
            assert all(q in m.reachable() and p != "junk" for q, p in relation)
            agrees_with_the_oracle(right, left)

    @staticmethod
    def lts(*edges: str, alphabet="a b τ") -> Lts:
        """A system from ``"source label target"`` edges, rooted at the first
        source; its states are the endpoints."""
        triples = [tuple(e.split()) for e in edges]
        states = sorted({t[0] for t in triples} | {t[2] for t in triples})
        return Lts(states, triples[0][0], [(q, Label(a), r) for q, a, r in triples],
                   [Label(a) for a in alphabet.split()])

    def test_tau_cycle_with_a_visible_edge_off_it(self):
        n = self.lts("q0 τ q1", "q1 τ q2", "q2 τ q0", "q2 a q3", "q3 b q3")
        assert not agrees_with_the_oracle(self.lts("p0 a p1", "p1 b p1"), n)
        assert simulation._simulates(self.lts("p0 a p1", "p1 b p1"), n, TAU)
        assert not simulation._simulates(self.lts("p0 a p1", "p1 a p1"), n, TAU)
        agrees_with_the_oracle(self.lts("p0 τ p0", "p0 a p1", "p1 b p1"), n)
        agrees_with_the_oracle(n, self.lts("p0 a p1", "p0 τ p1", "p1 b p1", "p1 τ p0"))

    def test_tau_self_loop(self):
        n = self.lts("q0 τ q0", "q0 a q1")
        m = self.lts("p0 τ p0", "p0 a p1")
        assert agrees_with_the_oracle(m, n) and agrees_with_the_oracle(n, m)
        assert not agrees_with_the_oracle(self.lts("p0 τ p0", "p0 b p1"), n)

    def test_hidden_label_on_no_right_edge(self):
        n = a_chain(3, "q", extra=[TAU])
        m = self.lts("p0 τ p1", "p1 a p2", "p2 τ p2", "p2 a p3")
        assert not agrees_with_the_oracle(m, n)  # τ has no step answer
        assert simulation._simulates(m, n, TAU)  # but the empty hidden run

    def test_visible_answer_after_two_hidden_steps(self):
        n = self.lts("q0 τ q1", "q1 τ q2", "q2 a q3")
        m = self.lts("p0 a p1")
        assert not agrees_with_the_oracle(m, n)
        assert find_delay_simulation(m, n, TAU) >= {("p0", "q0"), ("p1", "q3")}
        assert not simulation._simulates(self.lts("p0 a p1", "p1 a p2"), n, TAU)

    def test_hidden_edges_out_of_unreachable_states(self):
        n = self.lts("q0 a q1", "q1 b q0", "junk τ q0", "junk τ junk", "junk b q1", "q1 τ x")
        m = self.lts("p0 a p1", "p1 b p0", "p1 τ p2", "dead τ p1", "dead a dead")
        assert agrees_with_the_oracle(m, n)
        agrees_with_the_oracle(n, m)


class TestNoCliff:
    """Long chains.  The sweep that preceded the worklist took 75-92 s per
    ``a``-chain call at this size on a 2-vCPU machine, the worklist well
    under a second; the CPU-time bound leaves a wide margin both ways."""

    N = 400
    BOUND_S = 10.0

    def decide(self, find, *args):
        start = time.process_time()
        result = find(*args)
        assert time.process_time() - start < self.BOUND_S
        return result

    def test_a_chain_one_longer_is_not_simulated(self):
        m, n = a_chain(self.N + 1, "p"), a_chain(self.N, "q")
        assert self.decide(find_simulation, m, n) is None

    def test_a_chain_is_simulated_by_a_longer_one(self):
        m, n = a_chain(self.N, "p"), a_chain(self.N + 1, "q")
        witness = self.decide(find_simulation, m, n)
        assert witness is not None and is_simulation(m, n, witness)

    def test_tau_padded_chain(self):
        padded = tau_padded(a_chain(self.N, "p"))
        same = a_chain(self.N, "q", extra=[TAU])
        witness = self.decide(find_delay_simulation, padded, same, TAU)
        assert witness is not None and is_delay_simulation(padded, same, TAU, witness)
        shorter = a_chain(self.N - 1, "q", extra=[TAU])
        assert self.decide(find_delay_simulation, padded, shorter, TAU) is None

    def test_tau_ring(self):
        # Every hidden closure is the whole ring, so every answer mask is full.
        m, n = tau_ring(self.N, "p"), tau_ring(self.N, "q")
        witness = self.decide(find_delay_simulation, m, n, TAU)
        assert len(witness) == self.N ** 2 and is_delay_simulation(m, n, TAU, witness)

    @pytest.mark.parametrize("seed", range(1, 11))
    def test_fan(self, seed):
        # Matched breadth first, the first level of a fan took 0.4-1.3 s at
        # k=8 and ran out of budget at k=10 on a 2-vCPU machine.
        m = fan(12)
        for n, isomorphic in ((numbered_copy(m, shuffle=seed), True),
                              (numbered_copy(fan(12, swap=True), shuffle=seed), False)):
            start = time.process_time()
            mapping = find_isomorphism_reachable(m, n)
            assert time.process_time() - start < 1.0
            assert (mapping is not None) == isomorphic
            assert mapping is None or is_reachable_isomorphism(m, n, mapping)

    def test_tree_near_copy_is_refuted_before_any_pick(self, monkeypatch):
        # Equal state and edge counts; only the copy's root has an in-edge.
        # Refuted by in-degrees at the first pick, not after a million picks.
        monkeypatch.setattr(simulation, "ISO_BUDGET", 1000)
        m, n = a_tree(6), a_tree(6, back="t111111")
        assert (len(n.states), len(n.transitions)) == (127, 190)
        assert self.decide(find_isomorphism_reachable, m, n) is None


class TestValidatorNoCliff:
    """The re-validators on long chains and on one wide state, each with the
    relation a game from the initial pair needs: 28 ms for ``is_simulation``
    and 15 ms for ``is_delay_simulation`` on the chains on a 2-vCPU machine.
    The CPU-time bound leaves a wide margin."""

    N = 8000
    BOUND_S = 0.5
    decide = TestNoCliff.decide

    def test_a_chain_against_a_longer_one(self):
        m, n = a_chain(self.N, "p"), a_chain(self.N + 1, "q")
        relation = frozenset((f"p{k}", f"q{k}") for k in range(self.N))
        assert self.decide(is_simulation, m, n, relation) is True

    def test_a_tau_padded_chain_against_the_chain(self):
        padded, n = tau_padded(a_chain(self.N, "p")), a_chain(self.N, "q", extra=[TAU])
        # A middle state p<k>~<j> waits at q<k> for its visible move.
        relation = frozenset((q, "q" + q.split("~")[0][1:]) for q in padded.states)
        assert self.decide(is_delay_simulation, padded, n, TAU, relation) is True

    def test_one_state_with_eight_thousand_labels(self):
        # Answered through Lts.succ, each edge rescanned the right state's
        # out-list: 2.9 s and 6.2 s.  Grouped by label once, 6 ms and 30 ms.
        labels = [Label(f"a{k}") for k in range(self.N)]
        m = Lts(["p0"], "p0", [("p0", a, "p0") for a in labels], labels)
        n = Lts(["q0"], "q0", [("q0", a, "q0") for a in labels], labels)
        assert self.decide(is_simulation, m, n, frozenset({("p0", "q0")})) is True
        hidden = Lts(["q0", "q1"], "q0", [("q0", TAU, "q1")] + [("q1", a, "q1") for a in labels],
                     labels + [TAU])
        relation = frozenset({("p0", "q0"), ("p0", "q1")})
        assert self.decide(is_delay_simulation, m, hidden, TAU, relation) is True


class TestVerdictPathNoCliff:
    """The verdict entry points explore only the game from the initial pair.
    On a 2-vCPU machine the chains took under 10 ms and each adaptor
    theorem 19-30 ms; over the whole product the same chains take 0.8-1.8 s,
    and the theorem took 0.8-1.2 s.  The CPU-time bound leaves a wide
    margin."""

    N = 1600
    BOUND_S = 1.0
    decide = TestNoCliff.decide

    def test_a_chain_one_longer_is_not_simulated(self):
        m, n = a_chain(self.N + 1, "p"), a_chain(self.N, "q")
        assert self.decide(simulation._simulates, m, n) is False

    def test_a_chain_is_simulated_by_a_longer_one(self):
        m, n = a_chain(self.N, "p"), a_chain(self.N + 1, "q")
        assert self.decide(simulation._simulates, m, n) is True

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_adaptor_theorem_on_160_states(self, seed):
        tree = to_tree(gen_adaptor_code(seed, 3, 2, 2, 3))
        m = gen_mealy(seed, 160, 3, 2, True)
        assert self.decide(check_adaptor_theorem, tree, m) is True
