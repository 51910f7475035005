"""Core model tests: labels, machines, relations, and traces."""

from __future__ import annotations

import copy
import pickle
import random
import sys
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from actioncodes.adaptor import ExternalSut
from actioncodes.codes import to_map, to_tree
from actioncodes.documents import (
    code_from_document, code_to_document, dumps, loads, lts_from_document, lts_to_document
)
from actioncodes.errors import AlphabetMismatch, SutProtocolError
from actioncodes.generate import gen_lts, gen_mealy, mealy_alphabet
from actioncodes.lts import (
    CompatRel,
    Label,
    Lts,
    is_deterministic,
)

from conftest import FIXTURES, add_noise, atoms, has_trace, load_fixture, traces_up_to


def word(text: str) -> tuple[Label, ...]:
    return tuple(Label.parse(t) for t in text.split())


class TestLabel:
    def test_roundtrip(self):
        assert str(Label.parse("a/0")) == "a/0"
        assert str(Label.parse("go")) == "go"
        assert Label.parse("a/0").is_mealy
        assert not Label.parse("go").is_mealy

    @pytest.mark.parametrize("bad", ["", "a b", "x/", "/o", "a/b/c", "a\tb"])
    def test_rejects_bad_symbols(self, bad):
        with pytest.raises(ValueError):
            Label.parse(bad)

    @pytest.mark.parametrize("bad", [[7], 7, {"a": 1}, ["/"], {"/": None}])
    def test_rejects_non_string_symbols(self, bad):
        with pytest.raises(ValueError):
            Label.parse(bad)
        with pytest.raises(ValueError):
            Label(bad)
        with pytest.raises(ValueError):
            Label("a", bad)

    def test_mealy_components(self):
        lab = Label("coin", "thanks")
        assert lab.symbol == "coin"
        assert lab.output == "thanks"

    def test_is_its_validated_pair(self):
        # Recorded decision: a label equals its plain pair and hashes like it.
        assert isinstance(Label("a"), tuple)
        assert Label("a", "0") == ("a", "0")
        assert hash(Label("a", "0")) == hash(("a", "0"))
        assert Label("a") == ("a", None)
        assert Label("a") != "a"
        assert {("a", "0"): 1}[Label.parse("a/0")] == 1

    @pytest.mark.parametrize("text", ["go", "coin/thanks"])
    def test_copy_and_pickle_return_a_label(self, text):
        lab = Label.parse(text)
        for twin in (copy.copy(lab), copy.deepcopy(lab), pickle.loads(pickle.dumps(lab))):
            assert type(twin) is Label
            assert twin == lab and str(twin) == text

    def test_renders_in_canonical_order_not_tuple_order(self):
        labels = [Label("a", "0"), Label("a-x", "0")]
        assert sorted(labels) == labels
        assert [str(a) for a in sorted(labels, key=str)] == ["a-x/0", "a/0"]
        rel = CompatRel(labels, [(labels[0], labels[1])])
        assert rel.related(labels[0]) == (labels[1], labels[0])


class TestLtsConstruction:
    def test_deduplicates_transitions(self):
        m = Lts(["p", "q"], "p", [("p", Label("a"), "q"), ("p", Label("a"), "q")], [Label("a")])
        assert len(m.transitions) == 1

    def test_rejects_no_states(self):
        with pytest.raises(ValueError, match="^an LTS needs at least one state$"):
            Lts([], "p", [], [Label("a")])

    def test_rejects_unknown_initial(self):
        with pytest.raises(ValueError):
            Lts(["p"], "q", [], [Label("a")])

    def test_rejects_label_outside_alphabet(self):
        with pytest.raises(ValueError, match=r"^transition label b is not in the alphabet$"):
            Lts(["p"], "p", [("p", Label("b"), "p")], [Label("a")])

    @pytest.mark.parametrize("src,dst", [("p", "r"), ("r", "p")])
    def test_rejects_transition_leaving_the_states(self, src, dst):
        text = f"^transition {src}-a->{dst} leaves the state set$"
        with pytest.raises(ValueError, match=text):
            Lts(["p"], "p", [("p", Label("a"), "p"), (src, Label("a"), dst)], [Label("a")])
        # With a foreign label as well, the state fault is the one reported.
        with pytest.raises(ValueError, match=text.replace("-a->", "-b->")):
            Lts(["p"], "p", [(src, Label("b"), dst)], [Label("a")])

    def test_rejects_mixed_variants(self):
        with pytest.raises(ValueError):
            Lts(["p"], "p", [], [Label("a"), Label("a", "0")])

    def test_out_is_sorted_by_rendered_label_then_target(self):
        # Tuple order puts a/0 before a-x/0; the rendered order is the reverse.
        crossed = [Label(i, o) for i in ("a", "a-x") for o in "01"]
        assert sorted(crossed) != sorted(crossed, key=str)
        # Atomic labels that share the prefix a: tuple order is rendered order.
        atomic = [Label(s) for s in ("a", "a-x", "a.b")]
        systems = [gen_lts(seed, states=4, labels=crossed) for seed in range(20)]
        systems += [gen_lts(seed, states=4, labels=atomic) for seed in range(20)]
        systems += [gen_lts(seed, states=5, labels=3) for seed in range(20)]
        systems += [gen_mealy(seed, states=5, inputs=3, outputs=2) for seed in range(20)]
        assert any(len({a for a, _ in m.out(q)}) > 1 for m in systems[:20] for q in m.states)
        for m in systems:
            for q in m.states:
                edges = [(a, dst) for src, a, dst in m.transitions if src == q]
                assert m.out(q) == tuple(sorted(edges, key=lambda e: (str(e[0]), e[1])))


def _values():
    """One value of each immutable type, with its public fields."""
    code = load_fixture("double-press.code.json")
    return [
        (load_fixture("square.mealy.json"), ("states", "initial", "transitions", "alphabet")),
        (code, ("source", "target", "entries")),
        (to_tree(code), ("tree", "leaf_labels", "abstract")),
    ]


class TestValueSemantics:
    @pytest.mark.parametrize("index", range(3))
    def test_fields_cannot_be_assigned_or_deleted(self, index):
        value, fields = _values()[index]
        for field in fields:
            before = getattr(value, field)
            with pytest.raises(AttributeError):
                setattr(value, field, before)
            with pytest.raises(AttributeError):
                delattr(value, field)
            assert getattr(value, field) == before
        with pytest.raises(AttributeError):
            value.extra = 1

    def test_equal_values_hash_equal(self):
        for name in sorted(p.name for p in FIXTURES.glob("*.json")):
            value = load_fixture(name)
            is_code = name.endswith(".code.json")
            to_document = code_to_document if is_code else lts_to_document
            from_document = code_from_document if is_code else lts_from_document
            again = from_document(loads(dumps(to_document(value))))
            assert again == value and hash(again) == hash(value)
            if is_code:
                back = to_map(to_tree(value))
                assert back == value and hash(back) == hash(value)
                assert to_tree(value) == to_tree(back)
                assert hash(to_tree(value)) == hash(to_tree(back))
        m = gen_mealy(3, states=6, inputs=2, outputs=2)
        assert m != gen_mealy(4, states=6, inputs=2, outputs=2)
        assert m != (m.states, m.initial, m.transitions, m.alphabet)

    def test_state_order_is_not_part_of_the_value(self):
        m = gen_mealy(5, states=6, inputs=2, outputs=2)
        edges = sorted(m.transitions, key=str)
        states = list(reversed(m.states))
        listed = Lts(states + states[:2], m.initial, edges[::-1], m.alphabet)
        assert listed == m and hash(listed) == hash(m)
        assert listed.states == tuple(sorted(states))

    def test_transitions_is_the_frozenset_of_triples(self):
        doc = loads((FIXTURES / "double-press-concretization.mealy.json").read_text("utf-8"))
        m = lts_from_document(doc)
        assert type(m.transitions) is frozenset
        assert m.transitions == {(s, Label.parse(a), d) for s, a, d in doc["transitions"]}
        assert m.transitions == {(q, a, d) for q in m.states for a, d in m.out(q)}
        assert repr(m).startswith(f"Lts(states={len(m.states)}, transitions={len(m.transitions)}, ")

    def test_reachable_is_cached(self):
        m = load_fixture("square.mealy.json")
        assert m.reachable() is m.reachable()


class TestReachable:
    def test_square_fully_reachable(self):
        assert load_fixture("square.mealy.json").reachable() == {"q0", "q1", "q2", "q3"}

    def test_single_state(self):
        m = Lts(["q0"], "q0", [], [Label("a")])
        assert m.reachable() == {"q0"}

    def test_concretization_has_seven_reachable(self):
        assert len(load_fixture("double-press-concretization.mealy.json").reachable()) == 7

    def test_monotone_under_transition_addition(self):
        rng = random.Random(7)
        for seed in range(40):
            m = gen_lts(seed, states=5, labels=2)
            bigger = add_noise(rng, m, extra=3)
            assert m.reachable() <= bigger.reachable()


class TestDeterminism:
    def test_square_output_deterministic(self):
        m = load_fixture("square.mealy.json")
        assert is_deterministic(m, CompatRel.same_input(m.alphabet))

    def test_nondet_refinement_not_deterministic(self):
        assert not is_deterministic(load_fixture("octal-choice-nondet.lts.json"))

    def test_no_transitions_vacuously_deterministic(self):
        m = Lts(["q0"], "q0", [], [Label("a"), Label("b")])
        assert is_deterministic(m)
        assert is_deterministic(m, CompatRel.identity(m.alphabet))

    def test_rejects_foreign_carrier(self):
        m = load_fixture("choice.lts.json")
        with pytest.raises(AlphabetMismatch):
            is_deterministic(m, CompatRel.identity([Label("a")]))

    def test_same_input_requires_mealy(self):
        with pytest.raises(ValueError):
            CompatRel.same_input([Label("a")])

    def test_explicit_relation_closed_reflexively(self):
        rel = CompatRel([Label("a"), Label("b")], [(Label("a"), Label("b"))])
        assert Label("a") in rel.related(Label("a"))
        assert Label("b") in rel.related(Label("a"))
        assert Label("a") not in rel.related(Label("b"))
        assert rel.related(Label("a")) == (Label("a"), Label("b"))
        assert rel.related(Label("b")) == (Label("b"),)

    def test_equal_related_sets_share_one_tuple(self):
        rel = CompatRel.same_input(atoms("a/0", "a/1", "b/0"))
        a0, a1, b0 = (rel.related(x) for x in atoms("a/0", "a/1", "b/0"))
        assert a0 is a1 and a0 == tuple(atoms("a/0", "a/1"))
        assert b0 == (Label("b", "0"),)

    def test_classes_group_letters_by_related_set(self):
        # The operators read the relation class by class, and _classes finds
        # a class by its shared tuple: it must group as the tuples' values do.
        mealy = mealy_alphabet(3, 4)
        plain = atoms("a", "b", "c", "d", "e")
        a, b, c, d, e = plain
        # b and c get the related set {a, b, c} from separate pairs.
        explicit = CompatRel(plain, [(b, a), (b, c), (c, a), (c, b), (d, e)])
        assert explicit.related(b) == explicit.related(c) == (a, b, c)
        rng = random.Random(3)
        for rel, alphabet in [(CompatRel.identity(plain), plain),
                              (CompatRel.same_input(mealy), mealy), (explicit, plain)]:
            for _ in range(20):
                letters = rng.sample(alphabet, k=rng.randint(1, len(alphabet)))
                by_value: dict = {}
                for x in letters:
                    by_value.setdefault(rel.related(x), []).append(x)
                assert rel._classes(letters) == [*by_value.items()]
        assert explicit._classes([c, d, b]) == [((a, b, c), [c, b]), ((d, e), [d])]

    def test_explicit_pair_must_lie_in_the_carrier(self):
        with pytest.raises(ValueError, match=r"^pair \(a, b\) leaves the carrier alphabet$"):
            CompatRel([Label("a")], [(Label("a"), Label("b"))])

    def test_agrees_with_the_pairwise_scan(self):
        # The scan compares every two edges of a state; explicit relations are
        # not symmetric, so related(a) may hold b while related(b) lacks a.
        def scan(m, rel):
            return not any(
                b in rel.related(a) and (a, p) != (b, r)
                for q in m.states for a, p in m.out(q) for b, r in m.out(q)
            )

        rng = random.Random(11)
        verdicts = set()
        for seed in range(60):
            m = gen_lts(seed, states=3, labels=3, deterministic=seed % 2 == 0)
            alphabet = sorted(m.alphabet, key=str)
            pairs = [(a, b) for a in alphabet for b in alphabet if rng.random() < 0.2]
            for rel in (CompatRel.identity(alphabet), CompatRel(alphabet, pairs)):
                expected = scan(m, rel)
                verdicts.add(expected)
                assert is_deterministic(m, rel) == expected
            mealy = gen_mealy(seed, states=3, inputs=2, outputs=2,
                              output_deterministic=seed % 2 == 0)
            rel = CompatRel.same_input(mealy.alphabet)
            assert is_deterministic(mealy, rel) == scan(mealy, rel)
        assert verdicts == {True, False}

    def test_by_name_knows_the_cli_names(self):
        alphabet = mealy_alphabet(2, 2)
        assert list(CompatRel.NAMED) == ["identity", "same-input"]
        for name in CompatRel.NAMED:
            assert CompatRel.by_name(name, alphabet).carrier == frozenset(alphabet)
        with pytest.raises(ValueError, match="unknown relation name 'explicit'"):
            CompatRel.by_name("explicit", alphabet)

    def test_explicit_same_input_pairs_agree_with_same_input(self):
        rng = random.Random(5)
        for _ in range(30):
            full = mealy_alphabet(rng.randint(1, 5), rng.randint(1, 4))
            alphabet = rng.sample(full, k=rng.randint(1, len(full)))
            pairs = [(a, b) for a in alphabet for b in alphabet if a.symbol == b.symbol]
            rng.shuffle(pairs)
            explicit = CompatRel(alphabet, pairs)
            same_input = CompatRel.same_input(alphabet)
            for a in alphabet:
                assert explicit.related(a) == same_input.related(a)
                assert [str(b) for b in explicit.related(a)] == sorted(
                    str(b) for b in alphabet if b.symbol == a.symbol
                )
                for b in alphabet:
                    assert (
                        (b in explicit.related(a))
                        == (b in same_input.related(a))
                        == (a.symbol == b.symbol)
                    )


class TestNoCliff:
    """Wide states and alphabets.  Comparing every two edges of a state took
    2.06 s on one state with 4,000 labels; a pass over the out-list with a set
    of the enabled labels takes milliseconds.  ``CompatRel.same_input`` tested
    every two labels of the carrier: 7.4-8.8 s on 8,000 labels of 4,000
    inputs, and 0.03 s when it pairs the labels of each input.  Determinism
    under it intersected each enabled label's whole class with the enabled
    set: 0.66-0.75 s on a ring of 8,000 states over 8,000 outputs of one
    input, and 9 ms with one set per class.  The CPU-time bounds leave a wide
    margin both ways."""

    BOUND_S = 0.1

    @pytest.mark.parametrize("repeated", [False, True], ids=["deterministic", "repeated-label"])
    def test_four_thousand_labels_on_one_state(self, repeated):
        alphabet = [Label(f"a{k}") for k in range(4000)]
        edges = [("q0", a, "q0") for a in alphabet] + [("q0", alphabet[-1], "q1")] * repeated
        m = Lts(["q0", "q1"], "q0", edges, alphabet)
        start = time.process_time()
        verdict = is_deterministic(m)
        assert time.process_time() - start < self.BOUND_S
        assert verdict is not repeated

    def test_same_input_on_eight_thousand_labels(self):
        alphabet = [Label(f"i{k}", str(j)) for k in range(4000) for j in range(2)]
        start = time.process_time()
        rel = CompatRel.same_input(alphabet)
        assert time.process_time() - start < 0.5
        assert rel.related(Label("i7", "1")) == (Label("i7", "0"), Label("i7", "1"))

    def test_same_input_on_four_thousand_outputs_of_one_input(self):
        # Pairing the labels of one input cost the square of the group:
        # 12.27 s and 554 MB at 2,000 outputs.  One shared tuple, 3 ms.
        alphabet = [Label("i", str(j)) for j in range(4000)]
        start = time.process_time()
        rel = CompatRel.same_input(alphabet)
        assert time.process_time() - start < self.BOUND_S
        assert rel.related(alphabet[7]) is rel.related(alphabet[0])
        assert rel.related(alphabet[7]) == tuple(sorted(alphabet, key=str))

    def test_same_input_determinism_on_a_ring_of_eight_thousand_outputs(self):
        # State k enables output k of the one input i: each state's one label
        # lies in the class of all 8,000.
        n = 8000
        alphabet = [Label("i", str(k)) for k in range(n)]
        states = [f"q{k}" for k in range(n)]
        edges = [(states[k], alphabet[k], states[(k + 1) % n]) for k in range(n)]
        ring = Lts(states, "q0", edges, alphabet)
        rel = CompatRel.same_input(alphabet)
        start = time.process_time()
        verdict = is_deterministic(ring, rel)
        assert time.process_time() - start < self.BOUND_S
        assert verdict


class TestTraces:
    def test_choice_machine_depth_one(self):
        assert traces_up_to(load_fixture("choice.lts.json"), 1) == {(), word("a"), word("b")}

    def test_depth_zero(self):
        assert traces_up_to(load_fixture("square.mealy.json"), 0) == {()}

    def test_octal_det_depth_three(self):
        expected = {(), word("1"), word("1 4"), word("1 4 1"), word("1 4 2")}
        assert traces_up_to(load_fixture("octal-choice-det.lts.json"), 3) == expected

    def test_monotone_and_prefix_closed(self):
        for seed in range(30):
            m = gen_lts(seed, states=4, labels=2)
            k = seed % 4
            smaller, larger = traces_up_to(m, k), traces_up_to(m, k + 1)
            assert smaller <= larger
            for trace in larger:
                assert trace[:-1] in larger or len(trace) == 0

    def test_deterministic_trace_count_equals_path_count(self):
        for seed in range(30):
            m = gen_lts(seed, states=4, labels=2, deterministic=True)
            assert is_deterministic(m)
            k = 4
            paths = 0
            frontier = [m.initial]
            for _ in range(k + 1):
                paths += len(frontier)
                frontier = [dst for q in frontier for _, dst in m.out(q)]
            assert len(traces_up_to(m, k)) == paths

    def test_has_trace_agrees_with_enumeration(self):
        for seed in range(20):
            m = gen_lts(seed, states=4, labels=2)
            traces = traces_up_to(m, 3)
            for trace in traces:
                assert has_trace(m, trace)
            assert has_trace(m, (Label("a"), Label("a"), Label("a"))) == (
                (Label("a"),) * 3 in traces
            )


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_random_machines_validate(data):
    n_states = data.draw(st.integers(1, 4))
    ids = [f"q{k}" for k in range(n_states)]
    alphabet = [Label("a"), Label("b")]
    triples = data.draw(
        st.lists(
            st.tuples(
                st.sampled_from(ids), st.sampled_from(alphabet), st.sampled_from(ids)
            ),
            max_size=10,
        )
    )
    m = Lts(ids, ids[0], triples, alphabet)
    assert m.initial in m.reachable()
    assert m.reachable() <= set(m.states)
    assert traces_up_to(m, 0) == {()}


#: Every character str.split splits on, and the one character Label
#: reserves: the judge's hard cases, which random text rarely draws.
JUDGED_CHARACTERS = [c for c in map(chr, range(sys.maxunicode + 1)) if c.isspace()] + ["/"]


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(st.one_of(st.characters(), st.sampled_from(JUDGED_CHARACTERS)))
                 .map(str.encode), st.binary()).map(lambda line: line.replace(b"\n", b"")))
@example(b"")
@example(b"/")
@example(b"\xff")
@example("\u2028a\u3000".encode())
def test_the_judge_is_labels_rule(line):
    # receive() judges without building a Label; it must accept exactly
    # the lines Label accepts, and return the same symbol.
    sut = ExternalSut(lambda data: None, lambda timeout: line + b"\n", lambda: None)
    try:
        expected = Label(line.decode("utf-8").strip()).symbol
    except ValueError:
        with pytest.raises(SutProtocolError) as err:
            sut.receive()
        assert str(err.value) == f"malformed output symbol {line!r} from the SUT"
    else:
        assert sut.receive() == expected
