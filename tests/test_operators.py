"""Operator laws: expansion/collapse round trips, adjunctions, compositions."""

from __future__ import annotations

import random
import re
import time
import tracemalloc

import pytest

from actioncodes.adaptor import split_io
from actioncodes.codes import CodeMap, compose, to_tree
from actioncodes.errors import AlphabetMismatch
from actioncodes.generate import (
    gen_adaptor_code,
    gen_code,
    gen_lts,
    gen_mealy,
    mealy_alphabet,
)
from actioncodes.lts import CompatRel, Label, Lts, is_deterministic
from actioncodes.operators import (
    CHAOS,
    concretize,
    contract,
    is_icomplete,
    refine,
)
from actioncodes.simulation import (
    find_isomorphism_reachable,
    find_simulation,
)

from conftest import (
    DOTTED,
    atoms,
    composite_name,
    enables,
    entry,
    has_trace,
    load_fixture,
    scan_concretize,
    scan_contract,
    scan_is_icomplete,
    scan_refine,
    sub_machine,
    word_targets,
)


def abstract_lts(seed, code, states=4, deterministic=False):
    return gen_lts(seed, states=states, labels=sorted(code.target, key=str),
                   deterministic=deterministic)


def concrete_lts(seed, code, states=4, deterministic=False):
    return gen_lts(seed, states=states, labels=sorted(code.source, key=str),
                   deterministic=deterministic)


def domain_lts(seed, code, states=4):
    return gen_lts(seed, states=states, labels=sorted(code.domain, key=str))


class TestContract:
    def test_empty_code_keeps_only_initial(self):
        code = CodeMap(atoms("a", "b"), atoms("X"), [])
        out = contract(code, load_fixture("choice.lts.json"))
        assert out.states == ("q0",)
        assert not out.transitions

    def test_nondeterministic_runs_fan_out(self):
        m = Lts(
            ["q0", "q1", "q2", "q3", "q4"],
            "q0",
            [
                ("q0", Label("a"), "q1"),
                ("q0", Label("a"), "q2"),
                ("q1", Label("b"), "q3"),
                ("q2", Label("b"), "q4"),
            ],
            atoms("a", "b"),
        )
        code = CodeMap(atoms("a", "b"), atoms("X"), [entry("X", "a b")])
        out = contract(code, m)
        assert set(out.succ("q0", Label("X"))) == {"q3", "q4"}

    def test_alphabet_mismatch(self):
        with pytest.raises(AlphabetMismatch):
            contract(load_fixture("double-press.code.json"), load_fixture("choice.lts.json"))

    def test_trace_characterization(self):
        # An abstract word is a trace of the contraction exactly when the
        # concatenation of its code words is a trace of the source system.
        import itertools

        for seed in range(40):
            code = gen_code(seed, entries=3, maxlen=3)
            m = concrete_lts(seed + 43, code)
            abstract = contract(code, m)
            dom = sorted(code.domain, key=str)
            for length in range(3):
                for word in itertools.product(dom, repeat=length):
                    flat = tuple(a for b in word for a in code.word_for(b))
                    assert has_trace(abstract, word) == has_trace(m, flat)


def _oracle_instances():
    """Seeded codes with a concrete and an abstract system over their
    alphabets, deterministic and not.  The third code's Mealy symbols sort
    differently as tuples than rendered (``a-x/0`` before ``a/0``).  The
    fourth's relation is explicit and not symmetric: a letter relates to some
    later letters, so ``related(a)`` holds letters other than ``a``.  Fixed
    cases follow them: a shared prefix that not every state enables, a wide
    code under the identity and under an explicit relation, and a class of
    six outputs under the same-input relation."""
    crossed = [Label(i, o) for i in ("a", "a-x") for o in "01"]
    for seed in range(30):
        deterministic = seed % 3 == 0
        rng = random.Random(seed)
        letters = atoms("a", "b", "c", "d")
        forward = gen_code(seed + 100, source=letters, entries=3, maxlen=3)
        pairs = [(a, b) for i, a in enumerate(letters) for b in letters[i + 1:]
                 if rng.random() < 0.4]
        codes = [
            (gen_code(seed, entries=3, maxlen=3), CompatRel.identity),
            (gen_adaptor_code(seed, inputs=2, outputs=2, abstract_inputs=2),
             CompatRel.same_input),
            (gen_code(seed, source=crossed, target=atoms("X-y", "X", "Z"), entries=3,
                      maxlen=3), CompatRel.same_input),
            (forward, lambda alphabet: CompatRel(alphabet, pairs)),
        ]
        for code, rel in codes:
            m = concrete_lts(seed + 5, code, states=5, deterministic=deterministic)
            n = abstract_lts(seed + 9, code, states=5, deterministic=deterministic)
            yield code, rel(code.source), m, n
    # X and Y share the prefix 0.0, and each abstract state enables at most
    # one of them: n2 enables neither, so refine must not extend 0 there.
    code = CodeMap(atoms("0", "1", "2"), atoms("X", "Y", "Z"),
                   [entry("X", "0 0 1"), entry("Y", "0 0 2"), entry("Z", "1")])
    m = Lts([f"m{k}" for k in range(4)], "m0",  # edges spelled source, letter, target
            [(f"m{s}", Label(a), f"m{d}")
             for s, a, d in ("001", "002", "103", "203", "310", "321", "112", "220")],
            code.source)
    n = Lts(["n0", "n1", "n2"], "n0",
            [(f"n{s}", Label(b), f"n{d}") for s, b, d in ("0X1", "1Y2", "2Z0")], code.target)
    yield code, CompatRel.identity(code.source), m, n
    # The root has 40 leaf children and two pending ones, w40 and w41, and
    # w42, w43 start no word; each abstract state enables most of the 44
    # labels, some twice, and X is in no word.  The relation ties letters to
    # earlier ones, so some letters a node lacks do not jump to chaos.
    letters = atoms(*(f"w{k}" for k in range(44)))
    words = [entry(f"B{k}", f"w{k}") for k in range(40)]
    words += [entry(f"C{k}", f"w{40 + k // 2} w{k}") for k in range(4)]
    code = CodeMap(letters, [b for b, _ in words] + atoms("X"), words)
    m, n = concrete_lts(3, code, states=4), abstract_lts(7, code, states=4)
    rng = random.Random(44)
    pairs = [(a, b) for i, a in enumerate(letters) for b in letters[:i] if rng.random() < 0.05]
    for rel in (CompatRel.identity(letters), CompatRel(letters, pairs)):
        yield code, rel, m, n
    # Under the same-input relation the six outputs of a form one class,
    # five of them in words.  Every node lacks some of the class; m1 enables
    # none of what its node lacks, m2 enables a/5 and m3 enables b/1 at the
    # root, and the three machines keep both, one or neither of those edges.
    letters = atoms(*(f"a/{k}" for k in range(6)), "b/0", "b/1")
    code = CodeMap(letters, atoms("W", "X", "Y", "Z"),
                   [entry("W", "a/4"), entry("X", "a/0 a/1"), entry("Y", "a/0 a/2"),
                    entry("Z", "b/0 a/3")])
    edges = [("m0", "a/0", "m1"), ("m0", "a/4", "m0"), ("m0", "b/0", "m2"),
             ("m1", "a/1", "m0"), ("m1", "a/2", "m3"), ("m2", "a/3", "m0"), ("m3", "a/0", "m1")]
    gaps = [("m2", "a/5", "m3"), ("m3", "b/1", "m0")]
    n = abstract_lts(8, code, states=4)
    for reached in (gaps, gaps[1:], []):
        m = Lts(["m0", "m1", "m2", "m3"], "m0",
                [(s, Label.parse(a), d) for s, a, d in edges + reached], letters)
        yield code, CompatRel.same_input(letters), m, n


def _system(m: Lts) -> tuple:
    return m.states, m.initial, m.transitions, m.alphabet


class TestAgainstScanOracles:
    """The operators walk the code's prefix tree and the system's out-lists;
    the scan-based versions they replaced (``tests/conftest.py``) must give
    the same systems, with the same state order, and the same completeness
    verdicts and witnesses."""

    def test_operators_agree_with_the_scans(self):
        for code, rel, m, n in _oracle_instances():
            assert _system(contract(code, m)) == _system(scan_contract(code, m))
            assert _system(refine(code, n)) == _system(scan_refine(code, n))
            gamma = concretize(code, rel, n)
            assert _system(gamma) == _system(scan_concretize(code, rel, n))
            assert _system(contract(code, gamma)) == _system(scan_contract(code, gamma))

    def test_icomplete_agrees_with_the_scan(self):
        verdicts = set()
        for code, rel, m, n in _oracle_instances():
            for machine in (m, concretize(code, CompatRel.identity(code.source), n)):
                found = is_icomplete(code, rel, machine)
                assert found == scan_is_icomplete(code, rel, machine)
                verdicts.add(found[0])
        assert verdicts == {True, False}


def test_a_state_named_by_the_empty_string_is_explored_once():
    # contract names its states as they are, so "" is a state name there;
    # the operators must tell a named "" from a key not met yet.
    code = CodeMap(atoms("a", "b"), atoms("X", "Y"), [entry("X", "a b"), entry("Y", "b")])
    m = Lts(["", "p"], "", [("", Label("a"), "p"), ("p", Label("b"), ""), ("", Label("b"), "")],
            code.source)
    n = Lts(["", "q"], "", [("", Label("X"), "q"), ("q", Label("Y"), ""), ("q", Label("X"), "q")],
            code.target)
    rel = CompatRel.identity(code.source)
    abstract = contract(code, m)
    assert abstract.states == ("",)
    assert abstract.out("") == ((Label("X"), ""), (Label("Y"), ""))
    assert _system(abstract) == _system(scan_contract(code, m))
    assert _system(refine(code, n)) == _system(scan_refine(code, n))
    gamma = concretize(code, rel, n)
    assert _system(gamma) == _system(scan_concretize(code, rel, n))
    assert _system(contract(code, gamma)) == _system(scan_contract(code, gamma))
    assert gamma.initial == "⟨⟩"


class TestRefine:
    def test_transitionless_input(self):
        code = load_fixture("octal-letters.code.json")
        n = Lts(["n0"], "n0", [], code.target)
        out = refine(code, n)
        assert out.states == (composite_name("n0", ()),)
        assert not out.transitions

    def test_labels_outside_domain_contribute_nothing(self):
        code = CodeMap(atoms("1"), atoms("a", "b"), [entry("a", "1")])
        n = Lts(
            ["n0", "n1", "n2"],
            "n0",
            [("n0", Label("a"), "n1"), ("n0", Label("b"), "n2")],
            code.target,
        )
        out = refine(code, n)
        assert len(out.transitions) == 1

    def test_round_trip_of_each_abstract_step(self):
        # A b-step exists exactly when the expanded system walks the whole
        # word of b between the corresponding rest states.
        for seed in range(40):
            code = gen_code(seed, entries=3, maxlen=3)
            n = abstract_lts(seed + 31, code)
            expanded = refine(code, n)
            present = set(expanded.states)
            for q in sorted(n.reachable()):
                rest = composite_name(q, ())
                if rest not in present:
                    continue
                for b in sorted(code.domain, key=str):
                    endpoints = word_targets(expanded, rest, code.word_for(b))
                    expected = {composite_name(q2, ()) for q2 in n.succ(q, b)}
                    assert endpoints == expected


class TestConcretize:
    def rel(self, code):
        return CompatRel.identity(code.source)

    def test_empty_code_goes_straight_to_chaos(self):
        code = load_fixture("chaos-outer.code.json")
        out = concretize(code, self.rel(code), load_fixture("chaos-machine.lts.json"))
        start = composite_name("q0", ())
        assert set(out.states) == {start, CHAOS}
        assert out.succ(start, Label("b")) == (CHAOS,)
        assert out.succ(CHAOS, Label("b")) == (CHAOS,)

    def test_chaos_pruned_when_unreachable(self):
        code = CodeMap(atoms("a"), atoms("B"), [entry("B", "a")])
        n = Lts(["n0"], "n0", [("n0", Label("B"), "n0")], code.target)
        out = concretize(code, self.rel(code), n)
        assert CHAOS not in out.states

    def test_relation_carrier_must_match(self):
        code = load_fixture("double-press.code.json")
        with pytest.raises(AlphabetMismatch):
            concretize(
                code,
                CompatRel.identity(atoms("a/0")),
                load_fixture("double-press-contraction.mealy.json"),
            )

    def test_refinement_embeds_into_concretization(self):
        for seed in range(30):
            code = gen_code(seed, entries=3, maxlen=3)
            n = abstract_lts(seed + 77, code)
            assert (
                find_simulation(refine(code, n), concretize(code, self.rel(code), n))
                is not None
            )


class TestMonotone:
    def test_contract_monotone(self):
        rng = random.Random(5)
        for seed in range(40):
            code = gen_code(seed, entries=3, maxlen=3)
            big = concrete_lts(seed + 11, code)
            small = sub_machine(rng, big)
            assert find_simulation(small, big) is not None
            assert (
                find_simulation(contract(code, small), contract(code, big)) is not None
            )

    def test_refine_monotone(self):
        rng = random.Random(6)
        for seed in range(40):
            code = gen_code(seed, entries=3, maxlen=3)
            big = abstract_lts(seed + 13, code)
            small = sub_machine(rng, big)
            assert find_simulation(refine(code, small), refine(code, big)) is not None

    def test_concretize_monotone(self):
        rng = random.Random(7)
        for seed in range(40):
            code = gen_code(seed, entries=3, maxlen=3)
            rel = CompatRel.identity(code.source)
            big = abstract_lts(seed + 17, code)
            small = sub_machine(rng, big)
            assert (
                find_simulation(concretize(code, rel, small), concretize(code, rel, big))
                is not None
            )


class TestDeterminismPreservation:
    def test_refine_preserves_determinism(self):
        for seed in range(40):
            code = gen_code(seed, entries=3, maxlen=3)
            n = abstract_lts(seed + 19, code, deterministic=True)
            assert is_deterministic(refine(code, n))

    def test_concretize_preserves_determinism_for_identity(self):
        for seed in range(40):
            code = gen_code(seed, entries=3, maxlen=3)
            n = abstract_lts(seed + 23, code, deterministic=True)
            out = concretize(code, CompatRel.identity(code.source), n)
            assert is_deterministic(out)


class TestGaloisRefinement:
    """Refinement is left adjoint to contraction."""

    def test_hand_witness_left_to_right(self):
        code = load_fixture("octal-letters.code.json")
        n, m = load_fixture("choice.lts.json"), load_fixture("octal-choice-det.lts.json")
        assert find_simulation(refine(code, n), m) is not None
        assert find_simulation(n, contract(code, m)) is not None

    def test_hand_witness_right_to_left(self):
        code = load_fixture("double-press.code.json")
        m = load_fixture("square.mealy.json")
        assert is_deterministic(m)
        n = load_fixture("double-press-contraction.mealy.json")
        assert find_simulation(n, contract(code, m)) is not None
        assert find_simulation(refine(code, n), m) is not None

    def test_left_to_right_on_random_instances(self):
        rng = random.Random(8)
        for seed in range(60):
            code = gen_code(seed, entries=3, maxlen=3)
            if not code.domain:
                continue
            n = domain_lts(seed + 29, code)
            if seed % 2:
                m = concrete_lts(seed + 37, code)
            else:
                m = refine(code, n)  # premise holds by reflexivity
            if find_simulation(refine(code, n), m) is not None:
                assert find_simulation(n, contract(code, m)) is not None

    def test_right_to_left_on_random_instances(self):
        rng = random.Random(9)
        for seed in range(60):
            code = gen_code(seed, entries=3, maxlen=3)
            m = concrete_lts(seed + 41, code, deterministic=True)
            if seed % 2:
                n = abstract_lts(seed + 43, code)
            else:
                n = sub_machine(rng, contract(code, m))  # premise by construction
            if find_simulation(n, contract(code, m)) is not None:
                assert find_simulation(refine(code, n), m) is not None


class TestGaloisConcretization:
    """Concretization is right adjoint to contraction, given completeness."""

    def test_identity_relation_needs_no_side_condition(self):
        for seed in range(60):
            code = gen_code(seed, entries=3, maxlen=3)
            rel = CompatRel.identity(code.source)
            n = concrete_lts(seed + 47, code)
            if seed % 2:
                m = abstract_lts(seed + 53, code)
            else:
                m = contract(code, n)
            left = find_simulation(contract(code, n), m) is not None
            right = find_simulation(n, concretize(code, rel, m)) is not None
            assert left == right

    def test_same_input_relation_with_complete_codes(self):
        for seed in range(40):
            code = gen_adaptor_code(seed, inputs=2, outputs=2, abstract_inputs=2)
            rel = CompatRel.same_input(code.source)
            n = gen_mealy(seed + 59, states=3, inputs=2, outputs=2)
            complete, _ = is_icomplete(code, rel, n)
            assert complete, "constructed codes cover every output"
            if seed % 2:
                m = abstract_lts(seed + 61, code, states=3)
            else:
                m = contract(code, n)
            left = find_simulation(contract(code, n), m) is not None
            right = find_simulation(n, concretize(code, rel, m)) is not None
            assert left == right

    def test_always_complete_for_own_concretization(self):
        for seed in range(40):
            if seed % 2:
                code = gen_code(seed, entries=3, maxlen=3)
                rel = CompatRel.identity(code.source)
            else:
                code = gen_adaptor_code(seed, inputs=2, outputs=2, abstract_inputs=2)
                rel = CompatRel.same_input(code.source)
            m = abstract_lts(seed + 67, code, states=3)
            complete, witness = is_icomplete(code, rel, concretize(code, rel, m))
            assert complete, witness

    def test_insertion(self):
        for seed in range(40):
            code = gen_code(seed, entries=3, maxlen=3)
            if not code.domain:
                continue
            rel = CompatRel.identity(code.source)
            m = domain_lts(seed + 71, code)
            back = contract(code, concretize(code, rel, m))
            assert find_isomorphism_reachable(m, back) is not None


class TestICompleteness:
    def test_identity_always_complete(self):
        for seed in range(30):
            code = gen_code(seed, entries=3, maxlen=3)
            m = concrete_lts(seed + 73, code)
            ok, witness = is_icomplete(code, CompatRel.identity(code.source), m)
            assert ok and witness is None

    def test_worked_example(self):
        code = load_fixture("double-press.code.json")
        m = load_fixture("square.mealy.json")
        ok, _ = is_icomplete(code, CompatRel.same_input(code.source), m)
        assert ok

    def test_missing_output_found_at_root(self):
        code = CodeMap(atoms("a/0", "a/1"), atoms("X/0"), [entry("X/0", "a/0")])
        m = Lts(
            ["q0", "q1"],
            "q0",
            [("q0", Label("a", "1"), "q1"), ("q1", Label("a", "0"), "q1")],
            code.source,
        )
        ok, witness = is_icomplete(code, CompatRel.same_input(code.source), m)
        assert not ok
        assert witness.state == "q0"
        assert witness.node == "ε"
        assert str(witness.enabled) == "a/0"
        assert str(witness.missing) == "a/1"

    def test_missing_output_found_below_the_root(self):
        code = CodeMap(atoms("a/0", "b/0", "c/0", "c/1"), atoms("X/0"),
                       [entry("X/0", "a/0 b/0 c/0")])
        m = Lts(
            ["q0", "q1", "q2", "q3"],
            "q0",
            [(f"q{k}", Label.parse(a), f"q{k + 1}") for k, a in enumerate(["a/0", "b/0", "c/1"])],
            code.source,
        )
        ok, witness = is_icomplete(code, CompatRel.same_input(code.source), m)
        assert not ok
        assert witness == ("q2", "a/0.b/0", Label("c", "0"), Label("c", "1"))
        assert scan_is_icomplete(code, CompatRel.same_input(code.source), m) == (ok, witness)


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda code, m: refine(code, m), "machine alphabet must lie within the code's target"),
        (lambda code, m: concretize(code, CompatRel.identity(code.source), m),
         "machine alphabet must lie within the code's target"),
        (lambda code, m: is_icomplete(code, CompatRel.identity(code.source), m),
         "machine alphabet must lie within the code's source"),
        (lambda code, m: is_icomplete(code, CompatRel.identity(atoms("a/0")),
                                      load_fixture("square.mealy.json")),
         "relation carrier must be the code's source"),
    ],
    ids=["refine", "concretize", "icomplete-machine", "icomplete-relation"],
)
def test_alphabet_mismatch_names_the_alphabet(call, message):
    with pytest.raises(AlphabetMismatch, match=f"^{message} alphabet$"):
        call(load_fixture("double-press.code.json"), load_fixture("choice.lts.json"))


def _definition_violation(code, rel, m, prefix_labels):
    """Search a completeness violation reachable after one given abstract word.

    Walks the concatenated code words of ``prefix_labels`` through the
    machine, then descends machine and code tree together checking every
    related machine move against the tree's edges.  Independent of the
    product exploration inside ``is_icomplete``.
    """
    from actioncodes.codes import to_tree as build_tree

    tree = build_tree(code)
    word = []
    for b in prefix_labels:
        word.extend(code.word_for(b))
    starts = word_targets(m, m.initial, tuple(word))

    def descend(q, node):
        edges = {a: dst for a, dst in tree.tree.out(node)}
        for a in edges:
            for a2 in rel.related(a):
                if enables(m, q, a2) and a2 not in edges:
                    return (q, node, a, a2)
        for a, child in edges.items():
            if not tree.tree.out(child):
                continue
            for q2 in m.succ(q, a):
                found = descend(q2, child)
                if found:
                    return found
        return None

    for q in sorted(starts):
        found = descend(q, tree.root)
        if found:
            return found
    return None


def one_input_word(outputs, length):
    """The outputs of one input a, and a code of one seeded word of
    ``length`` of them for the label X/0."""
    source = [Label("a", str(k)) for k in range(outputs)]
    rng = random.Random(length)
    word = [rng.choice(source) for _ in range(length)]
    x = Label("X", "0")
    return source, word, CodeMap(source, [x], [(x, word)])


class TestNoCliff:
    """Wide relation classes.  With 800 outputs of one input and the code
    covering every other one, the root relates each covered letter to 400
    uncovered ones, which the machine does not enable.  Scanning the state's
    out-list for each took 3.70 s; one set of the enabled labels takes
    milliseconds.  Each node of the code, visited or not, keeps the classes
    of its letters that lack a related label, and a pair scans them only
    when its state enables a label the node lacks: one word of 4,000 letters
    takes 5 ms.  Refinement and concretization step once over a state's
    out-list and a node's children, whatever the number of leaf children,
    and concretization tests each class of letters once per node for chaos.
    The CPU-time bound leaves a wide margin both ways."""

    BOUND_S = 0.2

    def test_eight_hundred_outputs_of_one_input(self):
        source = [Label("a", str(k)) for k in range(800)]
        covered = source[::2]
        code = CodeMap(source, [Label(f"X{k}", "0") for k in range(400)],
                       [(Label(f"X{k}", "0"), (a,)) for k, a in enumerate(covered)])
        m = Lts(["q0"], "q0", [("q0", a, "q0") for a in covered], source)
        rel = CompatRel.same_input(source)
        start = time.process_time()
        verdict = is_icomplete(code, rel, m)
        assert time.process_time() - start < self.BOUND_S
        assert verdict == (True, None)

    def test_concretize_of_a_word_over_two_thousand_outputs(self):
        # Each internal node tested every letter's related tuple of 2,000
        # labels for chaos: 10.6 s for a 200-letter word.  One test per
        # class, 9 ms.
        source, word, code = one_input_word(2000, 200)
        x = Label("X", "0")
        n = Lts(["q0"], "q0", [("q0", x, "q0")], [x])
        start = time.process_time()
        gamma = concretize(code, CompatRel.same_input(source), n)
        assert time.process_time() - start < self.BOUND_S
        assert len(gamma.states) == 200 and CHAOS not in gamma.states
        assert all(len(gamma.out(q)) == 1 for q in gamma.states)

    def test_icomplete_of_a_word_over_four_thousand_outputs(self):
        # Each node listed its 3,999 missing labels as pairs: 0.78 s and a
        # 102 MB peak for a 400-letter word, against the ring that spells
        # it.  A node keeps its one lacking class, and the ring's states
        # enable nothing the node lacks: 1 ms and 0.08 MB.
        source, word, code = one_input_word(4000, 400)
        ring = Lts([f"r{k}" for k in range(400)], "r0",
                   [(f"r{k}", a, f"r{(k + 1) % 400}") for k, a in enumerate(word)], source)
        tracemalloc.start()
        start = time.process_time()
        try:
            verdict = is_icomplete(code, CompatRel.same_input(source), ring)
            elapsed = time.process_time() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert elapsed < self.BOUND_S
        assert peak < 4_000_000
        assert verdict == (True, None)

    def test_contract_of_a_state_with_eight_thousand_labels(self):
        # High out-degree: the state's out-list and the root's letters are
        # walked together, 12 ms.
        source = [Label(f"a{k}") for k in range(8000)]
        target = [Label(f"X{k}") for k in range(8000)]
        code = CodeMap(source, target, [(b, [a]) for a, b in zip(source, target)])
        m = Lts(["q0"], "q0", [("q0", a, "q0") for a in source], source)
        start = time.process_time()
        result = contract(code, m)
        assert time.process_time() - start < self.BOUND_S
        assert result.out(result.initial) == tuple((b, result.initial) for b in sorted(target, key=str))

    @staticmethod
    def one_letter_words(k):
        """A code of k one-letter words over one abstract state that
        carries every label on a self-loop."""
        source = [Label(f"a{i}") for i in range(k)]
        target = [Label(f"B{i}") for i in range(k)]
        code = CodeMap(source, target, [(b, [a]) for a, b in zip(source, target)])
        return code, Lts(["q0"], "q0", [("q0", b, "q0") for b in target], target)

    def expect_one_loop_per_letter(self, build, code, *args):
        start = time.process_time()
        result = build(code, *args)
        assert time.process_time() - start < self.BOUND_S
        q = result.initial
        assert result.states == (q,)
        assert result.out(q) == tuple((a, q) for a in sorted(code.source, key=str))

    def test_refine_of_eight_thousand_one_letter_words(self):
        # Each leaf child rescanned the state's out-list: 2.22 s.
        code, n = self.one_letter_words(8000)
        self.expect_one_loop_per_letter(refine, code, n)

    def test_concretize_of_two_thousand_one_letter_words(self):
        # A plan for every node and letter, and each leaf letter rescanning
        # the out-list: 17.45 s and 321 MB.
        code, n = self.one_letter_words(2000)
        self.expect_one_loop_per_letter(concretize, code, CompatRel.identity(code.source), n)

    def test_one_word_of_four_thousand_letters(self):
        a, x = Label("a", "0"), Label("X", "0")
        code = CodeMap([a], [x], [(x, [a] * 4000)])
        m = Lts(["q0"], "q0", [("q0", a, "q0")], [a])
        start = time.process_time()
        verdict = is_icomplete(code, CompatRel.same_input([a]), m)
        assert time.process_time() - start < self.BOUND_S
        assert verdict == (True, None)


class TestICompleteFalsification:
    def test_positive_verdicts_survive_definition_sampling(self):
        rng = random.Random(12)
        for seed in range(40):
            code = gen_code(seed, entries=3, maxlen=2)
            if not code.domain:
                continue
            m = gen_mealy(seed + 91, states=3, inputs=2, outputs=2)
            mealy_code = gen_adaptor_code(seed, inputs=2, outputs=2, abstract_inputs=2)
            for candidate, machine, rel in (
                (code, concrete_lts(seed + 93, code), CompatRel.identity(code.source)),
                (mealy_code, m, CompatRel.same_input(mealy_code.source)),
            ):
                complete, witness = is_icomplete(candidate, rel, machine)
                dom = sorted(candidate.domain, key=str)
                prefixes = [[]] + [[b] for b in dom]
                prefixes += [[rng.choice(dom) for _ in range(rng.randint(2, 4))]
                             for _ in range(20)]
                hits = [
                    _definition_violation(candidate, rel, machine, p) for p in prefixes
                ]
                if complete:
                    assert all(h is None for h in hits)
                else:
                    assert witness is not None

    def test_negative_witness_is_structurally_sound(self):
        from actioncodes.codes import to_tree as build_tree

        found = 0
        for seed in range(60):
            code = gen_code(seed, source=mealy_alphabet(2, 2),
                            target=[Label("X", str(k)) for k in range(3)],
                            entries=3, maxlen=2)
            m = gen_mealy(seed + 95, states=3, inputs=2, outputs=2)
            rel = CompatRel.same_input(code.source)
            complete, witness = is_icomplete(code, rel, m)
            if complete:
                continue
            found += 1
            tree = build_tree(code)
            edges = {a for a, _ in tree.tree.out(witness.node)}
            assert witness.enabled in edges
            assert witness.missing not in edges
            assert witness.missing in rel.related(witness.enabled)
            assert enables(m, witness.state, witness.missing)
        assert found >= 5


class TestVerticalCheck:
    """A concrete system against an abstract one through the code: simulated
    by the refinement (rho mode) or by the identity concretization (gamma
    mode) of the abstract system."""

    def test_expansion_related_to_choice_in_both_modes(self):
        code = load_fixture("octal-letters.code.json")
        m, n = load_fixture("octal-choice-det.lts.json"), load_fixture("choice.lts.json")
        assert find_simulation(m, refine(code, n)) is not None
        gamma = concretize(code, CompatRel.identity(code.source), n)
        assert find_simulation(m, gamma) is not None

    def test_refinement_is_reflexively_related(self):
        for seed in range(20):
            code = gen_code(seed, entries=3, maxlen=3)
            n = abstract_lts(seed + 79, code)
            rho = refine(code, n)
            assert find_simulation(rho, rho) is not None

    def test_rho_mode_implies_gamma_mode(self):
        for seed in range(40):
            code = gen_code(seed, entries=3, maxlen=3)
            n = abstract_lts(seed + 83, code)
            m = refine(code, n) if seed % 2 else concrete_lts(seed + 89, code)
            if find_simulation(m, refine(code, n)) is not None:
                gamma = concretize(code, CompatRel.identity(code.source), n)
                assert find_simulation(m, gamma) is not None


class TestComposition:
    def test_contraction_commutes(self):
        for seed in range(40):
            inner = gen_code(seed, source=2, target=atoms("M", "N"), entries=2, maxlen=2)
            outer = gen_code(
                seed + 97, source=atoms("M", "N"), target=atoms("C", "D"), entries=2, maxlen=2
            )
            m = concrete_lts(seed + 101, inner)
            composed = contract(compose(inner, outer), m)
            stacked = contract(outer, contract(inner, m))
            assert find_isomorphism_reachable(composed, stacked) is not None

    def test_refinement_commutes_when_letters_covered(self):
        checked = 0
        for seed in range(60):
            inner = gen_code(seed, source=2, target=atoms("M", "N"), entries=2, maxlen=2)
            if not inner.domain:
                continue
            outer_small = gen_code(
                seed + 103,
                source=sorted(inner.domain, key=str),
                target=atoms("C", "D"),
                entries=2,
                maxlen=2,
            )
            outer = CodeMap(inner.target, outer_small.target, outer_small.entries)
            m = abstract_lts(seed + 107, outer)
            composed = refine(compose(inner, outer), m)
            stacked = refine(inner, refine(outer, m))
            assert find_isomorphism_reachable(composed, stacked) is not None
            checked += 1
        assert checked >= 20

    def test_concretization_does_not_commute(self):
        inner = load_fixture("chaos-inner.code.json")
        outer = load_fixture("chaos-outer.code.json")
        m = load_fixture("chaos-machine.lts.json")
        composed = concretize(
            compose(inner, outer), CompatRel.identity(inner.source), m
        )
        stacked = concretize(
            inner,
            CompatRel.identity(inner.source),
            concretize(outer, CompatRel.identity(outer.source), m),
        )
        assert find_isomorphism_reachable(composed, stacked) is None
        assert find_simulation(composed, stacked) is not None
        assert find_simulation(stacked, composed) is not None
        assert len(composed.reachable()) == 2
        assert len(stacked.reachable()) == 4


# The pending words (a.b,) and (a, b) of DOTTED both render as q0⟨a.b⟩; a
# Mealy state named "q?a" clashes with the split view's q-then-a.
XY_LOOPS = Lts(["q0"], "q0", [("q0", Label("X"), "q0"), ("q0", Label("Y"), "q0")],
               atoms("X", "Y"))
QUESTION_MEALY = Lts(["q", "q?a"], "q", [("q", Label("a", "0"), "q?a")], atoms("a/0"))


@pytest.mark.parametrize(
    "build,name",
    [
        (lambda: refine(DOTTED, XY_LOOPS), "q0⟨a.b⟩"),
        (lambda: concretize(DOTTED, CompatRel.identity(DOTTED.source), XY_LOOPS),
         "q0⟨a.b⟩"),
        (lambda: split_io(QUESTION_MEALY), "q?a"),
    ],
    ids=["refine", "concretize", "split_io"],
)
def test_state_name_collision_is_rejected(build, name):
    text = f"state name {name!r} is ambiguous: two different states render to it"
    with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
        build()


def test_icomplete_decides_words_whatever_their_names():
    # The tree nodes (a.b,) and (a, b) of DOTTED both render as "a.b", so
    # to_tree refuses the code; the completeness check walks words, not
    # names, and gives its verdict.
    a_b, a, b, c = (Label(s) for s in ("a.b", "a", "b", "c"))
    m = Lts(
        ["p0", "p1", "p2", "p3"],
        "p0",
        [("p0", a_b, "p1"), ("p1", c, "p0"), ("p0", a, "p2"), ("p2", b, "p3"), ("p3", c, "p0")],
        DOTTED.source,
    )
    assert is_icomplete(DOTTED, CompatRel.identity(DOTTED.source), m) == (True, None)
    with pytest.raises(ValueError, match=re.escape(repr("a.b")) + " is ambiguous"):
        to_tree(DOTTED)
