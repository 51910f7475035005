"""Adaptor tests: the game solver, the runtime, and the composed process."""

from __future__ import annotations

import gc
import hashlib
import json
import os
import random
import re
import select
import socket
import sys
import textwrap
import threading
import time
import tracemalloc
import warnings

import pytest

from actioncodes.adaptor import (
    LINE_CAP,
    TAU,
    AdaptorSession,
    DeterminacyWitness,
    ExternalSut,
    InProcessSut,
    adaptor_composition,
    check_adaptor_theorem,
    is_determinate,
    is_input_enabled,
    solve_winning,
    split_io,
    _reader,
)
from actioncodes.codes import CodeMap, CodeTree, to_tree
from actioncodes.documents import tree_from_document, tree_to_document
from actioncodes.errors import (
    CodeIncomplete,
    NotDeterminate,
    NotWinning,
    SutProtocolError,
)
from actioncodes.generate import gen_adaptor_code, gen_code, gen_mealy, mealy_alphabet
from actioncodes.lts import CompatRel, Label, Lts, is_deterministic
from actioncodes.operators import contract
from conftest import (
    ScanSut,
    brute_force_conflicts,
    atoms,
    brute_force_winning,
    cpu_bound,
    enables,
    entry,
    has_trace,
    load_fixture,
    multi_winner_pairs,
    observable_traces,
    scan_adaptor_composition,
    scan_split_io,
    succ,
    traces_up_to,
)


def mutilated_coffee_code() -> CodeMap:
    full = load_fixture("coffee.code.json")
    kept = [(b, w) for b, w in full.entries if str(b) != "espresso/2"]
    return CodeMap(full.source, full.target, kept)


class TestWinning:
    def test_coffee_root_wins_both_drinks(self):
        tree = to_tree(load_fixture("coffee.code.json"))
        table = solve_winning(tree)
        assert table.is_winning(tree.root, "coffee")
        assert table.is_winning(tree.root, "espresso")
        assert not table.is_winning(tree.root, "latte")

    def test_mutilated_coffee_loses_espresso(self):
        tree = to_tree(mutilated_coffee_code())
        table = solve_winning(tree)
        assert table.is_winning(tree.root, "coffee")
        assert not table.is_winning(tree.root, "espresso")

    def test_bare_root_wins_nothing(self):
        tree = to_tree(CodeMap(atoms("a/0"), atoms("X/0"), []))
        table = solve_winning(tree)
        assert not table.is_winning(tree.root, "X")

    def test_matches_brute_force_recursion(self):
        for tree in _seeded_trees():
            table = solve_winning(tree)
            xs = sorted({lab.symbol for _, lab in tree.leaf_labels})
            for node in tree.tree.states:
                children: dict[str, list[str]] = {}
                for a, dst in tree.tree.out(node):
                    children.setdefault(a.symbol, []).append(dst)
                for x in xs:
                    assert table.is_winning(node, x) == brute_force_winning(
                        tree, node, x
                    )
                    assert table.winning_inputs(node, x) == tuple(
                        i
                        for i, kids in sorted(children.items())
                        if all(brute_force_winning(tree, c, x) for c in kids)
                    )

    def test_winning_inputs_unique_under_determinacy(self):
        for seed in range(40):
            code = gen_adaptor_code(seed, inputs=3, outputs=2, abstract_inputs=3)
            tree = to_tree(code)
            assert is_determinate(tree)[0]
            table = solve_winning(tree)
            assert multi_winner_pairs(tree, table) == []

    def test_needs_mealy_labels(self):
        atomic = to_tree(CodeMap(atoms("a"), atoms("A/0"), [entry("A/0", "a")]))
        with pytest.raises(ValueError, match="^adaptor codes need Mealy labels on the tree$"):
            solve_winning(atomic)
        atomic_leaf = to_tree(CodeMap(atoms("a/0"), atoms("A"), [entry("A", "a/0")]))
        with pytest.raises(ValueError, match="^adaptor codes need Mealy leaf labels$"):
            solve_winning(atomic_leaf)


class TestDeterminate:
    def test_fixture_codes_are_determinate(self):
        for name in ("coffee.code.json", "double-press.code.json", "split-press.code.json"):
            ok, witness = is_determinate(to_tree(load_fixture(name)))
            assert ok and witness is None

    def test_shared_input_code_is_not(self):
        ok, witness = is_determinate(to_tree(load_fixture("shared-input.code.json")))
        assert not ok
        assert witness.abstract_input == "0"
        assert {witness.first_input, witness.second_input} == {"a", "b"}

    def test_matches_brute_force_conflicts(self):
        undetermined = 0
        for tree in _seeded_trees():
            ok, witness = is_determinate(tree)
            conflicts = brute_force_conflicts(tree)
            assert ok == (not conflicts)
            assert witness == (conflicts[0] if conflicts else None)
            undetermined += not ok
        assert undetermined >= 50

    def test_single_path_code(self):
        code = CodeMap(atoms("a/0", "a/1"), atoms("X/0"), [entry("X/0", "a/0 a/1")])
        assert is_determinate(to_tree(code))[0]


def _wide_root_code(seed: int) -> CodeTree:
    """A Mealy code whose root has 20-60 inputs; each input-output edge is a
    leaf or a node with one or two leaves.  The leaves share five abstract
    inputs, so several conflicts meet at the root."""
    rng = random.Random(seed)
    source = [Label(f"i{j:02d}", o) for j in range(60) for o in "01"]
    target = [Label(x, str(y)) for x in "ABCDE" for y in range(60)]
    words = []
    for a in source[: 2 * rng.randint(20, 60)]:
        if rng.random() < 0.2:
            continue  # the input lacks this output
        if rng.random() < 0.6:
            words.append((a,))
        else:
            words.extend((a, b) for b in rng.sample(source, rng.randint(1, 2)))
    labels = rng.sample(target, len(words))
    return to_tree(CodeMap(source, target, list(zip(labels, words))))


class TestWideNodes:
    def test_witness_is_the_least_named_conflict(self):
        shared = 0
        for seed in range(60):
            tree = _wide_root_code(seed)
            conflicts = brute_force_conflicts(tree)
            assert is_determinate(tree) == (False, DeterminacyWitness(*conflicts[0]))
            shared += sum(c[0] == tree.root for c in conflicts) >= 2
        assert shared == 60

    def test_winning_matches_brute_force(self):
        for seed in range(60):
            tree = _wide_root_code(seed)
            table = solve_winning(tree)
            xs = sorted({lab.symbol for _, lab in tree.leaf_labels})
            for node in tree.tree.states:
                children: dict[str, list[str]] = {}
                for a, dst in tree.tree.out(node):
                    children.setdefault(a.symbol, []).append(dst)
                for x in xs:
                    assert table.is_winning(node, x) == brute_force_winning(tree, node, x)
                    assert table.winning_inputs(node, x) == tuple(
                        i
                        for i, kids in sorted(children.items())
                        if all(brute_force_winning(tree, c, x) for c in kids)
                    )
            for x in xs:
                assert not table.is_winning("unknown", x)
                assert table.winning_inputs("unknown", x) == ()


class TestOutputDeterminism:
    def test_square_machine(self):
        m = load_fixture("square.mealy.json")
        assert is_deterministic(m, CompatRel.same_input(m.alphabet))

    def test_two_outputs_for_one_input(self):
        m = Lts(
            ["q0"],
            "q0",
            [("q0", Label("a", "0"), "q0"), ("q0", Label("a", "1"), "q0")],
            atoms("a/0", "a/1"),
        )
        assert not is_deterministic(m, CompatRel.same_input(m.alphabet))

    def test_contraction_preserves_it_for_determinate_codes(self):
        for seed in range(60):
            code = gen_adaptor_code(seed, inputs=2, outputs=2, abstract_inputs=2)
            m = gen_mealy(seed + 5, states=4, inputs=2, outputs=2,
                          output_deterministic=True)
            n = contract(code, m)
            assert is_deterministic(m, CompatRel.same_input(m.alphabet))
            assert is_deterministic(n, CompatRel.same_input(n.alphabet))


class TestInProcessSut:
    def test_requires_input_enabled(self):
        m = Lts(["q0"], "q0", [], atoms("a/0"))
        with pytest.raises(ValueError):
            InProcessSut(m)

    def test_requires_a_mealy_machine(self):
        with pytest.raises(ValueError, match="^in-process SUT needs a Mealy machine$"):
            InProcessSut(Lts(["q0"], "q0", [("q0", Label("a"), "q0")], atoms("a")))

    def test_reset_returns_to_the_initial_state(self):
        # The output tells the states apart: q0 answers a with 0, q1 with 1.
        m = Lts(
            ["q0", "q1"],
            "q0",
            [("q0", Label("a", "0"), "q1"), ("q1", Label("a", "1"), "q0")],
            atoms("a/0", "a/1"),
        )
        sut = InProcessSut(m)
        sut.send("a")
        sut.reset()
        with pytest.raises(SutProtocolError, match=r"^receive\(\) called before send\(\)$"):
            sut.receive()  # the pending output went with the reset
        sut.send("a")
        assert sut.receive() == "0"

    def test_seeded_choices_reproduce(self):
        m = gen_mealy(3, states=3, inputs=2, outputs=2, input_enabled=True)
        runs = []
        for _ in range(2):
            sut = InProcessSut(m, seed=42)
            picks = []
            for _ in range(6):
                sut.send("a")
                picks.append(sut.receive())
            runs.append(picks)
        assert runs[0] == runs[1]

    def test_script_overrides_choice(self):
        m = Lts(
            ["q0"],
            "q0",
            [("q0", Label("a", "0"), "q0"), ("q0", Label("a", "1"), "q0")],
            atoms("a/0", "a/1"),
        )
        sut = InProcessSut(m, script=["1", "0", "1"])
        got = []
        for _ in range(3):
            sut.send("a")
            got.append(sut.receive())
        assert got == ["1", "0", "1"]

    def test_an_input_outside_the_machine_is_rejected(self):
        sut = InProcessSut(Lts(["q0"], "q0", [("q0", Label("a", "0"), "q0")], atoms("a/0")))
        with pytest.raises(SutProtocolError, match="^machine rejects input 'b' in state 'q0'$"):
            sut.send("b")

    def test_script_must_be_enabled(self):
        m = Lts(["q0"], "q0", [("q0", Label("a", "0"), "q0")], atoms("a/0"))
        sut = InProcessSut(m, script=["7"])
        with pytest.raises(SutProtocolError):
            sut.send("a")


def square_sut() -> InProcessSut:
    return InProcessSut(load_fixture("square.mealy.json"))


class TestRunAdaptor:
    def test_double_press_session(self):
        session = AdaptorSession(to_tree(load_fixture("double-press.code.json")), square_sut())
        assert [session.apply(x) for x in ["A", "B", "A"]] == ["0", "0", "0"]
        concrete = [label for kind, label in session.transcript if kind == "SUT"]
        assert concrete == [
            ("a", "0"), ("a", "0"),
            ("b", "0"), ("b", "0"),
            ("a", "0"), ("a", "0"),
        ]
        assert all(type(label) is Label for label in concrete)

    def test_empty_input_stream(self):
        session = AdaptorSession(to_tree(load_fixture("double-press.code.json")), square_sut())
        assert session.transcript == []

    def test_split_press_reads_remembered_output(self):
        session = AdaptorSession(to_tree(load_fixture("split-press.code.json")), square_sut())
        assert session.apply("C") == "1"
        assert [f"{kind} {value}" for kind, value in session.transcript] == [
            "IN C", "SUT a/0", "SUT b/1", "OUT 1",
        ]

    def test_not_winning_is_refused(self):
        tree = to_tree(mutilated_coffee_code())
        session = AdaptorSession(tree, _CoffeeSut())
        with pytest.raises(NotWinning):
            session.apply("espresso")

    def test_non_determinate_code_is_refused(self):
        with pytest.raises(NotDeterminate):
            AdaptorSession(to_tree(load_fixture("shared-input.code.json")), None)

    def test_live_completeness_violation(self):
        code = CodeMap(atoms("b/0", "b/1"), atoms("B/0"), [entry("B/0", "b/0")])
        m = Lts(
            ["q0"],
            "q0",
            [("q0", Label("b", "0"), "q0"), ("q0", Label("b", "1"), "q0")],
            code.source,
        )
        sut = InProcessSut(m, script=["1"])
        with pytest.raises(CodeIncomplete) as err:
            AdaptorSession(to_tree(code), sut).apply("B")
        assert err.value.node == "ε"
        assert err.value.concrete_input == "b"
        assert err.value.observed_output == "1"

    @pytest.mark.parametrize("reply", ["0 1", "a/b", "", 7])
    def test_a_malformed_reply_is_a_bad_symbol(self, reply):
        # Any object with send and receive may be the SUT; the walk builds a
        # label from its reply, so a reply that is no symbol is refused there
        # and does not pass for an output outside the code.
        class Sut:
            def send(self, symbol):
                pass

            def receive(self):
                return reply

        session = AdaptorSession(to_tree(load_fixture("double-press.code.json")), Sut())
        with pytest.raises(ValueError, match="^bad symbol "):
            session.apply("A")

    def test_transcripts_spell_whole_code_words(self):
        for seed in range(40):
            code = gen_adaptor_code(seed, inputs=2, outputs=2, abstract_inputs=2)
            tree = to_tree(code)
            m = gen_mealy(seed + 11, states=4, inputs=2, outputs=2, input_enabled=True)
            xs = sorted({lab.symbol for _, lab in tree.leaf_labels})
            rng = random.Random(seed)
            inputs = [rng.choice(xs) for _ in range(4)]
            session = AdaptorSession(tree, InProcessSut(m, seed=seed))
            for x in inputs:
                session.apply(x)
            # Cut the transcript into one segment per abstract exchange.
            segments = []
            for event in session.transcript:
                if event[0] == "IN":
                    segments.append({"x": event[1], "word": []})
                elif event[0] == "SUT":
                    segments[-1]["word"].append(event[1])
                else:
                    segments[-1]["y"] = event[1]
            assert len(segments) == len(inputs)
            for segment in segments:
                pair = Label(segment["x"], segment["y"])
                assert code.word_for(pair) == tuple(segment["word"])

    def test_emitted_traces_belong_to_the_contraction(self):
        for seed in range(60):
            code = gen_adaptor_code(seed, inputs=2, outputs=2, abstract_inputs=2)
            tree = to_tree(code)
            m = gen_mealy(seed + 13, states=4, inputs=2, outputs=2, input_enabled=True)
            abstract = contract(code, m)
            xs = sorted({lab.symbol for _, lab in tree.leaf_labels})
            rng = random.Random(seed + 1)
            inputs = [rng.choice(xs) for _ in range(3)]
            session = AdaptorSession(tree, InProcessSut(m, seed=seed))
            word = tuple(Label(x, session.apply(x)) for x in inputs)
            assert has_trace(abstract, word)

    def test_every_short_abstract_trace_is_realizable(self):
        for seed in range(20):
            code = gen_adaptor_code(seed, inputs=2, outputs=2, abstract_inputs=2)
            tree = to_tree(code)
            table = solve_winning(tree)
            m = gen_mealy(seed + 17, states=3, inputs=2, outputs=2, input_enabled=True)
            abstract = contract(code, m)
            for trace in sorted(traces_up_to(abstract, 3), key=str):
                pairs = [(a.symbol, a.output) for a in trace]
                script = _find_script(tree, table, m, pairs)
                assert script is not None, (code, trace)
                sut = InProcessSut(m, script=script)
                session = AdaptorSession(tree, sut)
                assert [session.apply(x) for x, _ in pairs] == [y for _, y in pairs]


def _seeded_trees():
    """Adaptor codes (determinate by construction) and random Mealy codes,
    many of them not determinate."""
    target = [Label(x, y) for x in "AB" for y in "012"]
    for seed in range(60):
        yield to_tree(gen_adaptor_code(seed, inputs=3, outputs=2, abstract_inputs=2))
    for seed in range(240):
        yield to_tree(gen_code(seed, mealy_alphabet(2, 2), target,
                               entries=2 + seed % 4, maxlen=3))


def _renamed(tree: CodeTree, seed: int) -> tuple[CodeTree, dict[str, str]]:
    """The tree read back from its document with every state renamed by a
    seeded shuffle, so names are no rendered words and sort another way."""
    names = [f"n{k}" for k in range(len(tree.tree.states))]
    random.Random(seed).shuffle(names)
    new = dict(zip(tree.tree.states, names))
    doc = tree_to_document(tree)
    carrier = doc["tree"]
    carrier["states"] = [new[q] for q in carrier["states"]]
    carrier["initial"] = new[carrier["initial"]]
    carrier["transitions"] = [[new[q], a, new[p]] for q, a, p in carrier["transitions"]]
    doc["leaf_labels"] = [[new[q], lab] for q, lab in doc["leaf_labels"]]
    return tree_from_document(doc), new


def _renaming_instances():
    """Fixture codes with their SUT model (None for one that is not
    determinate), adaptor codes, and Mealy codes, most not determinate."""
    square = load_fixture("square.mealy.json")
    for name in ("double-press", "split-press", "coffee", "shared-input"):
        m = square if name.endswith("press") else None
        yield to_tree(load_fixture(f"{name}.code.json")), m
    target = [Label(x, y) for x in "AB" for y in "012"]
    for seed in range(1, 21):
        code = gen_adaptor_code(seed, inputs=2, outputs=2, abstract_inputs=2)
        m = gen_mealy(seed + 19, states=4, inputs=2, outputs=2, input_enabled=True)
        yield to_tree(code), m
        yield to_tree(gen_code(seed, mealy_alphabet(2, 2), target, entries=4, maxlen=3)), None


class _StrayingSut:
    """Answers along the first matching edge of the carrier for ``steps``
    exchanges, then with an output that no edge of the tree carries."""

    def __init__(self, tree: CodeTree, steps: int):
        self.tree, self.steps, self.node = tree, steps, tree.root
        self.reply = ""

    def send(self, symbol: str) -> None:
        if self.steps == 0:
            self.reply = "stray"
            return
        self.steps -= 1
        a, self.node = next(e for e in self.tree.tree.out(self.node) if e[0].symbol == symbol)
        self.reply = a.output

    def receive(self) -> str:
        return self.reply


class TestRenamedCarriers:
    def test_renamed_trees_sort_their_nodes_another_way(self):
        reordered = 0
        for seed, (tree, _) in enumerate(_renaming_instances()):
            renamed, new = _renamed(tree, seed)
            reordered += [new[q] for q in tree.tree.states] != list(renamed.tree.states)
        assert reordered >= 40

    def test_winning_table_names_the_carriers_nodes(self):
        for seed, (tree, _) in enumerate(_renaming_instances()):
            renamed, new = _renamed(tree, seed)
            table, renamed_table = solve_winning(tree), solve_winning(renamed)
            xs = sorted({lab.symbol for _, lab in tree.leaf_labels}) + ["unknown"]
            for node in tree.tree.states:
                for x in xs:
                    won = renamed_table.is_winning(new[node], x)
                    assert won == brute_force_winning(renamed, new[node], x)
                    assert won == table.is_winning(node, x)
                    assert renamed_table.winning_inputs(new[node], x) == (
                        table.winning_inputs(node, x))
                    # The rendered word is no name of the renamed tree.
                    assert not renamed_table.is_winning(node, x)
                    assert renamed_table.winning_inputs(node, x) == ()

    def test_witness_is_the_least_named_conflict(self):
        undetermined = 0
        for seed, (tree, _) in enumerate(_renaming_instances()):
            renamed, _ = _renamed(tree, seed)
            conflicts = brute_force_conflicts(renamed)
            assert is_determinate(renamed) == (
                not conflicts, conflicts[0] if conflicts else None)
            undetermined += bool(conflicts)
        assert undetermined >= 10

    def test_composition_and_theorem_name_the_carriers_conflict(self):
        # They named the node by its rendered word, as on the map form.
        m = gen_mealy(0, states=3, inputs=2, outputs=2, input_enabled=True)
        cases = [*enumerate(_renaming_instances())]
        target = [Label(x, y) for x in "AB" for y in "012"]
        cases.append((0, (to_tree(gen_code(0, mealy_alphabet(2, 2), target, entries=4,
                                           maxlen=3)), None)))
        undetermined = 0
        for seed, (tree, _) in cases:
            renamed, _ = _renamed(tree, seed)
            witness = is_determinate(renamed)[1]
            if witness is None:
                continue
            for call in (adaptor_composition, check_adaptor_theorem):
                with pytest.raises(NotDeterminate) as caught:
                    call(renamed, m)
                assert caught.value.witness == witness
            undetermined += 1
        assert undetermined >= 10

    def test_code_incomplete_names_the_carriers_node(self):
        deep = 0
        for seed, (tree, m) in enumerate(_renaming_instances()):
            if m is None:
                continue
            renamed, new = _renamed(tree, seed)
            x = min(lab.symbol for _, lab in tree.leaf_labels)
            for steps in range(3):
                errors = []
                for t in (tree, renamed):
                    sut = _StrayingSut(t, steps)
                    try:
                        AdaptorSession(t, sut).apply(x)
                    except CodeIncomplete as exc:
                        assert exc.node == sut.node
                        errors.append(exc.node)
                if errors:  # none when the play reached a leaf first
                    assert errors == [errors[0], new[errors[0]]]
                    deep += errors[0] != tree.root
        assert deep >= 10

    def test_composition_states_carry_the_carriers_names(self):
        pattern = re.compile(r"^Q\((.*),(\w+)\)∥(.*)$")
        for seed, (tree, m) in enumerate(_renaming_instances()):
            if m is None:
                continue
            renamed, new = _renamed(tree, seed)

            def rename(state: str) -> str:
                match = pattern.match(state)
                if match is None:
                    return state
                node, x, rest = match.groups()
                return f"Q({new[node]},{x})∥{rest}"

            composed = adaptor_composition(tree, m)
            expected = Lts(
                [rename(q) for q in composed.states],
                rename(composed.initial),
                [(rename(q), a, rename(p)) for q, a, p in composed.transitions],
                composed.alphabet,
            )
            assert adaptor_composition(renamed, m) == expected


def _map_instances():
    """Seeded adaptor codes, each also with one word dropped so that the SUT
    can leave the code, and random Mealy codes, most not determinate or not
    winning; each with a seeded input-enabled Mealy machine."""
    target = [Label(x, y) for x in "AB" for y in "012"]
    for seed in range(40):
        code = gen_adaptor_code(seed, inputs=3, outputs=2, abstract_inputs=2)
        m = gen_mealy(seed + 7, states=4, inputs=3, outputs=2, input_enabled=True)
        yield code, m
        yield CodeMap(code.source, code.target, code.entries[1:]), m
        yield (gen_code(seed, mealy_alphabet(2, 2), target, entries=2 + seed % 4, maxlen=3),
               gen_mealy(seed, states=3, inputs=2, outputs=2, input_enabled=True))


def _outcome(call, *args):
    """What a call returns, or the type and arguments of what it raises."""
    try:
        return call(*args)
    except (CodeIncomplete, NotDeterminate, NotWinning) as exc:
        return type(exc), exc.args


def _session_run(code, m, stream, seed):
    """The transcript of a stream through a session with a seeded SUT, and
    how the stream ended; or None and the session's construction error."""
    session = _outcome(AdaptorSession, code, InProcessSut(m, seed=seed))
    if not isinstance(session, AdaptorSession):
        return None, session
    ending = _outcome(lambda: [session.apply(x) for x in stream])
    return session.transcript, ending


class TestMapAgainstTree:
    """Each adaptor entry point takes the map form or the tree form of a
    code, and gives the same answer on both: the map names its nodes by
    their rendered words, as ``to_tree`` does."""

    def test_winning_tables(self):
        for code, _ in _map_instances():
            assert solve_winning(code)._wins == solve_winning(to_tree(code))._wins

    def test_determinacy_verdicts_and_witnesses(self):
        undetermined = 0
        for code, _ in _map_instances():
            verdict = is_determinate(code)
            assert verdict == is_determinate(to_tree(code))
            undetermined += not verdict[0]
        assert undetermined >= 20

    def test_session_transcripts_and_incompleteness(self):
        endings, deep = set(), 0
        for seed, (code, m) in enumerate(_map_instances()):
            xs = sorted({b.symbol for b, _ in code.entries})
            stream = random.Random(seed).choices(xs, k=8)
            transcript, ending = _session_run(code, m, stream, seed)
            assert (transcript, ending) == _session_run(to_tree(code), m, stream, seed)
            endings.add(ending[0] if isinstance(ending, tuple) else list)
            deep += ending[0] is CodeIncomplete and ending[1][0] != "ε"
        assert endings >= {list, CodeIncomplete, NotDeterminate}
        assert deep >= 5  # CodeIncomplete names a node below the root by its word

    def test_compositions(self):
        errors = set()
        for code, m in _map_instances():
            composed = _outcome(adaptor_composition, code, m)
            assert composed == _outcome(adaptor_composition, to_tree(code), m)
            errors.add(composed[0] if isinstance(composed, tuple) else Lts)
        assert errors == {Lts, NotDeterminate, NotWinning}

    def test_theorem_verdicts(self):
        verdicts = []
        for code, m in _map_instances():
            verdict = _outcome(check_adaptor_theorem, code, m)
            assert verdict == _outcome(check_adaptor_theorem, to_tree(code), m)
            verdicts.append(verdict)
        assert verdicts.count(True) >= 40


def _find_script(tree, table, machine, pairs):
    """Depth-first search over SUT output choices realizing an abstract trace."""

    def advance(state, idx, script):
        if idx == len(pairs):
            return script
        return walk(tree.root, state, idx, script)

    def walk(node, state, idx, script):
        if not tree.tree.out(node):
            lab = dict(tree.leaf_labels)[node]
            if (lab.symbol, lab.output) == pairs[idx]:
                return advance(state, idx + 1, script)
            return None
        inputs = table.winning_inputs(node, pairs[idx][0])
        if not inputs:
            return None
        concrete = inputs[0]
        for a, q2 in machine.out(state):
            if a.symbol != concrete:
                continue
            child = succ(tree.tree, node, a)
            if not child:
                continue
            found = walk(child[0], q2, idx, script + [a.output])
            if found is not None:
                return found
        return None

    return advance(machine.initial, 0, [])


class _CoffeeSut:
    """Never actually consulted in the tests that use it."""

    def send(self, symbol):
        raise AssertionError("unexpected interaction")

    def receive(self):
        raise AssertionError("unexpected interaction")


SQUARE_SUT_SCRIPT = textwrap.dedent(
    """
    import sys

    TRANSITIONS = {
        ("q0", "b"): ("0", "q1"),
        ("q0", "a"): ("0", "q3"),
        ("q1", "a"): ("0", "q2"),
        ("q1", "b"): ("0", "q0"),
        ("q2", "b"): ("0", "q1"),
        ("q2", "a"): ("0", "q3"),
        ("q3", "a"): ("0", "q2"),
        ("q3", "b"): ("1", "q0"),
    }
    state = "q0"
    for line in sys.stdin:
        symbol = line.strip()
        if symbol == "RESET":
            state = "q0"
            continue
        out, state = TRANSITIONS[(state, symbol)]
        print(out, flush=True)
    """
)


class TestExternalSut:
    def test_subprocess_round_trip(self, tmp_path):
        script = tmp_path / "sut.py"
        script.write_text(SQUARE_SUT_SCRIPT, encoding="utf-8")
        with ExternalSut.spawn([sys.executable, str(script)], timeout=10.0) as sut:
            sut.reset()
            session = AdaptorSession(to_tree(load_fixture("double-press.code.json")), sut)
            outputs = [session.apply(x) for x in ["A", "B", "A"]]
        assert outputs == ["0", "0", "0"]

    def test_close_releases_the_pipes(self, tmp_path):
        script = tmp_path / "sut.py"
        script.write_text(SQUARE_SUT_SCRIPT, encoding="utf-8")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            with ExternalSut.spawn([sys.executable, str(script)], timeout=10.0) as sut:
                sut.reset()
            del sut
            gc.collect()
        assert [w for w in caught if w.category is ResourceWarning] == []

    def test_timeout_raises(self, tmp_path):
        script = tmp_path / "sleepy.py"
        script.write_text("import time\ntime.sleep(60)\n", encoding="utf-8")
        with ExternalSut.spawn([sys.executable, str(script)], timeout=0.3) as sut:
            sut.send("a")
            with pytest.raises(SutProtocolError):
                sut.receive()

    @pytest.mark.parametrize("timeout", [1e10, 1e308])
    @pytest.mark.parametrize("start", [
        lambda timeout: ExternalSut.spawn(["/nonexistent/sut"], timeout=timeout),
        lambda timeout: ExternalSut.connect("127.0.0.1", 9, timeout=timeout),
    ], ids=["spawn", "connect"])
    def test_a_timeout_past_the_platform_limit_is_refused(self, start, timeout):
        # Past threading.TIMEOUT_MAX, select and socket timeouts overflow.
        # Refused before the start: the command does not exist, and nothing
        # listens on the port.
        with pytest.raises(ValueError, match=re.escape(
            f"the timeout must be at most {threading.TIMEOUT_MAX:.0f} s, got {timeout}"
        )):
            start(timeout)

    def test_the_platform_limit_itself_is_a_timeout(self):
        # A socket and select both take it: one exchange over loopback.
        with socket.create_server(("127.0.0.1", 0)) as server:
            with ExternalSut.connect("127.0.0.1", server.getsockname()[1],
                                     timeout=threading.TIMEOUT_MAX) as sut:
                conn, _ = server.accept()
                with conn:
                    sut.send("a")
                    conn.sendall(b"0\n")
                    assert sut.receive() == "0"

    def test_one_deadline_per_exchange(self):
        # A SUT that trickles bytes and never ends the line must still time out.
        waits = []

        def read_some(timeout: float) -> bytes:
            waits.append(timeout)
            assert len(waits) <= 50, "receive() never gave up"
            time.sleep(0.01)
            return b"x"

        sut = ExternalSut(lambda data: None, read_some, lambda: None, timeout=0.1)
        start = time.monotonic()
        with pytest.raises(SutProtocolError):
            sut.receive()
        assert time.monotonic() - start < 0.3
        assert all(later < earlier for earlier, later in zip(waits, waits[1:]))

    @pytest.mark.parametrize("error", [BrokenPipeError, ConnectionResetError])
    def test_a_sut_that_stops_reading_is_a_protocol_error(self, error):
        # Not the OSError itself: the CLI reads a broken pipe as its own
        # stdout closed, and would exit quietly over a dead SUT.
        def write(data: bytes) -> None:
            raise error("gone")

        sut = ExternalSut(write, lambda timeout: b"0\n", lambda: None)
        for call in (lambda: sut.send("a"), sut.reset):
            with pytest.raises(SutProtocolError, match="^cannot write to the SUT: gone$") as err:
                call()
            assert isinstance(err.value.__cause__, error)

    def test_a_peer_that_closes_after_reset_is_a_protocol_error(self):
        server = socket.create_server(("127.0.0.1", 0))
        heard = []

        def serve():  # read the RESET line in full, so the close is a clean end
            conn, _ = server.accept()
            with conn:
                data = b""
                while not data.endswith(b"\n"):
                    data += conn.recv(64)
                heard.append(data)

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        try:
            with ExternalSut.connect("127.0.0.1", server.getsockname()[1], timeout=5.0) as sut:
                sut.reset()
                thread.join(5.0)
                assert not thread.is_alive()
                with pytest.raises(SutProtocolError, match="^the SUT closed its output$"):
                    sut.receive()
        finally:
            server.close()
        assert heard == [b"RESET\n"]

    def test_a_silent_peer_times_out(self):
        with socket.create_server(("127.0.0.1", 0)) as server:
            with ExternalSut.connect("127.0.0.1", server.getsockname()[1], timeout=0.2) as sut:
                sut.send("a")
                with pytest.raises(SutProtocolError, match="^timed out waiting for the SUT$"):
                    sut.receive()

    def test_a_child_that_exits_closes_its_output(self, tmp_path):
        script = tmp_path / "quitter.py"
        script.write_text("import sys\nsys.stdin.readline()\n", encoding="utf-8")
        with ExternalSut.spawn([sys.executable, str(script)], timeout=10.0) as sut:
            sut.send("a")
            with pytest.raises(SutProtocolError, match="^the SUT closed its output$"):
                sut.receive()

    @pytest.mark.parametrize("length", [LINE_CAP, LINE_CAP + 1])
    def test_a_line_is_capped(self, length):
        # In 4 KiB chunks, as a pipe delivers it: the newline may come in the
        # chunk after the cap was passed.
        data = b"x" * length + b"\n"
        chunks = (data[k:k + 4096] for k in range(0, len(data), 4096))
        sut = ExternalSut(lambda data: None, lambda timeout: next(chunks), lambda: None)
        if length <= LINE_CAP:
            assert sut.receive() == "x" * length
        else:
            with pytest.raises(SutProtocolError, match=f"^an output line from the SUT is longer "
                                                       f"than {LINE_CAP} bytes$"):
                sut.receive()

    def test_non_utf8_line_is_malformed(self):
        sut = ExternalSut(lambda data: None, lambda timeout: b"\xff\n", lambda: None)
        with pytest.raises(SutProtocolError, match=r"malformed output symbol b'\\xff'"):
            sut.receive()

    @pytest.mark.parametrize("line", [
        b" \t\n", b"a b\n", "a\u00a0b\n".encode(), "a\u3000b\n".encode(), b"a/b\n", b"\xff\n",
    ], ids=["blank", "space", "no-break-space", "ideographic-space", "slash", "not-utf8"])
    def test_label_judges_each_reply(self, line):
        # Label's rule is the only one: a line it refuses is malformed.
        sut = ExternalSut(lambda data: None, lambda timeout: line, lambda: None)
        with pytest.raises(SutProtocolError) as err:
            sut.receive()
        assert str(err.value) == f"malformed output symbol {line[:-1]!r} from the SUT"

    def test_a_non_ascii_symbol_is_a_reply(self):
        sut = ExternalSut(lambda data: None, lambda timeout: " é\n".encode(), lambda: None)
        assert sut.receive() == "é"

    @staticmethod
    def _refuse_select(monkeypatch):
        def refuse(*args):
            raise AssertionError("select called with a reply already waiting")

        monkeypatch.setattr(select, "select", refuse)

    def test_a_waiting_reply_on_a_pipe_is_read_without_select(self, monkeypatch):
        read_end, write_end = os.pipe()
        os.write(write_end, b"0\n")
        with open(read_end, "rb", buffering=0) as stream:
            sut = ExternalSut(lambda data: None, _reader(stream), stream.close)
            self._refuse_select(monkeypatch)
            assert sut.receive() == "0"
        os.close(write_end)

    def test_a_waiting_reply_on_a_socket_is_read_without_select(self, monkeypatch):
        # Wired as connect wires it, but the test owns the socket, so it can
        # see that the reply has arrived before the read.
        with socket.create_server(("127.0.0.1", 0)) as server:
            with socket.create_connection(server.getsockname(), timeout=5.0) as sock:
                conn, _ = server.accept()
                with conn:
                    conn.sendall(b"0\n")
                    assert select.select([sock], [], [], 5.0)[0]
                    sut = ExternalSut(sock.sendall, _reader(sock), sock.close)
                    self._refuse_select(monkeypatch)
                    assert sut.receive() == "0"

    def test_a_reply_split_by_a_pause_is_one_symbol(self, tmp_path):
        # The first read finds "0"; the next finds nothing and waits for "\n".
        script = tmp_path / "pause.py"
        script.write_text(
            "import os, sys, time\n"
            "sys.stdin.readline()\n"
            "os.write(1, b'0')\n"
            "time.sleep(0.05)\n"
            "os.write(1, b'\\n')\n",
            encoding="utf-8",
        )
        with ExternalSut.spawn([sys.executable, str(script)], timeout=10.0) as sut:
            sut.send("a")
            assert sut.receive() == "0"

    def test_the_childs_ends_of_the_pipes_stay_blocking(self, tmp_path):
        # Only the adaptor's read end turns non-blocking; the child's ends
        # are open file descriptions of their own.
        script = tmp_path / "blocking.py"
        script.write_text(
            "import os, sys\n"
            "sys.stdin.readline()\n"
            "print(f'{os.get_blocking(0)},{os.get_blocking(1)}', flush=True)\n",
            encoding="utf-8",
        )
        with ExternalSut.spawn([sys.executable, str(script)], timeout=10.0) as sut:
            sut.send("a")
            assert sut.receive() == "True,True"

    def test_reset_is_reserved_on_the_wire(self):
        # Sent as an input, the word would reset the SUT, which then answers
        # nothing: the call would end only at the timeout.
        written = []
        sut = ExternalSut(written.append, lambda timeout: b"0\n", lambda: None)
        with pytest.raises(SutProtocolError,
                           match="^the input symbol 'RESET' is reserved on the wire$"):
            sut.send("RESET")
        assert written == []
        sut.reset()
        sut.send("a")
        assert written == [b"RESET\n", b"a\n"]

    def test_malformed_symbol_raises(self, tmp_path):
        script = tmp_path / "chatty.py"
        script.write_text(
            "import sys\n"
            "for line in sys.stdin:\n"
            "    print('not a symbol', flush=True)\n",
            encoding="utf-8",
        )
        with ExternalSut.spawn([sys.executable, str(script)], timeout=5.0) as sut:
            sut.send("a")
            with pytest.raises(SutProtocolError):
                sut.receive()


class TestNoCliff:
    """Wide states and long streams, each bounded in CPU time with a wide
    margin both ways.  Looking for each input in a state's out-list took
    0.69 s on one state with 4,000 inputs.  Searching the whole buffer for a
    newline after each chunk took 3.98 s on a newline-free 24 MB stream, and
    cutting each line off the front of a bytes buffer copied all the rest.
    Solving the game on a root with 4,000 inputs took 0.4-0.6 s when each
    won abstract input rescanned every input, and 1.5 s for the witness when
    every pair of inputs was compared.  Scanning the SUT state's out-list for
    each step on one state with 4,000 inputs took 1.1-1.4 s for 4,000
    exchanges, 0.9-1.6 s for the split view and 0.22 s for the composition
    with a 500-word code."""

    BOUND_S = 0.1

    @staticmethod
    def _wide_code(last: Label) -> CodeTree:
        """A root with inputs i00000...i03999, input j leading to leaf X<j>/0;
        the last leaf carries ``last`` instead."""
        source = [Label(f"i{j:05d}", "0") for j in range(4000)]
        target = [Label(f"X{j}", "0") for j in range(3999)] + [last]
        return to_tree(CodeMap(source, target, [(b, [a]) for a, b in zip(source, target)]))

    @pytest.mark.parametrize("solve", [is_determinate, solve_winning,
                                       lambda tree: AdaptorSession(tree, None)],
                             ids=["is_determinate", "solve_winning", "session"])
    def test_a_root_with_four_thousand_inputs(self, solve):
        tree = self._wide_code(Label("X3999", "0"))
        with cpu_bound(self.BOUND_S):
            solve(tree)

    def test_a_conflict_between_the_last_two_of_four_thousand_inputs(self):
        tree = self._wide_code(Label("X3998", "1"))
        with cpu_bound(self.BOUND_S):
            verdict = is_determinate(tree)
        assert verdict == (False, DeterminacyWitness("ε", "X3998", "i03998", "i03999"))

    @pytest.mark.parametrize("solve", [is_determinate, lambda code: AdaptorSession(code, None)],
                             ids=["is_determinate", "session"])
    def test_a_map_with_one_word_of_four_thousand_letters(self, solve):
        # Named by ``to_tree`` first, the nodes' rendered words peaked at 34 MB.
        a, x = Label("a", "0"), Label("X", "0")
        code = CodeMap([a], [x], [(x, [a] * 4000)])
        tracemalloc.start()
        try:
            solve(code)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4_000_000

    def test_input_enabled_with_four_thousand_inputs(self):
        alphabet = [Label(f"i{k}", "0") for k in range(4000)]
        full = Lts(["q0"], "q0", [("q0", a, "q0") for a in alphabet], alphabet)
        short = Lts(["q0"], "q0", [("q0", a, "q0") for a in alphabet[:-1]], alphabet)
        with cpu_bound(self.BOUND_S):
            verdicts = is_input_enabled(full), is_input_enabled(short)
        assert verdicts == (True, False)

    @staticmethod
    def _wide_state(inputs: int) -> Lts:
        """One state with a self-loop on each input i00000..., output 0."""
        alphabet = [Label(f"i{k:05d}", "0") for k in range(inputs)]
        return Lts(["q0"], "q0", [("q0", a, "q0") for a in alphabet], alphabet)

    def test_exchanges_with_a_state_of_four_thousand_inputs(self):
        m = self._wide_state(4000)
        with cpu_bound(self.BOUND_S):
            sut = InProcessSut(m)
            for a, _ in m.out("q0"):
                sut.send(a.symbol)
                sut.receive()

    def test_split_view_of_a_state_with_four_thousand_inputs(self):
        m = self._wide_state(4000)
        with cpu_bound(0.4):  # the view has 4,001 states
            view = split_io(m)
        assert len(view.states) == 4001

    def test_composition_with_a_state_of_four_thousand_inputs(self):
        m = self._wide_state(4000)
        source = sorted(m.alphabet, key=str)
        target = [Label(f"X{j}", "0") for j in range(500)]
        tree = to_tree(CodeMap(source, target, [(b, [a]) for a, b in zip(source, target)]))
        with cpu_bound(self.BOUND_S):
            composed = adaptor_composition(tree, m)
        assert len(composed.states) == 1001

    def test_a_newline_free_stream_is_refused(self):
        chunks = iter([b"x" * 65536] * 384)  # 24 MB, then the end of the stream

        def read_some(timeout: float) -> bytes:
            chunk = next(chunks, b"")
            if not chunk:
                raise SutProtocolError("the SUT closed its output")
            return chunk

        sut = ExternalSut(lambda data: None, read_some, lambda: None)
        with cpu_bound(self.BOUND_S):
            with pytest.raises(SutProtocolError, match="^an output line from the SUT is longer"):
                sut.receive()

    def test_lines_that_arrive_in_one_chunk(self):
        # 1.3 MB: 1.45 s when each line was cut off a bytes buffer, 0.1 s now.
        lines = [f"o{k:032d}" for k in range(40000)]
        chunks = iter([("\n".join(lines) + "\n").encode()])
        sut = ExternalSut(lambda data: None, lambda timeout: next(chunks), lambda: None)
        with cpu_bound(0.5):
            received = [sut.receive() for _ in lines]
        assert received == lines


class TestComposedProcess:
    def test_split_view_shapes(self):
        view = split_io(load_fixture("square.mealy.json"))
        assert TAU in view.alphabet
        assert enables(view, "q0", Label("a"))
        assert enables(view, "q0?a", Label("0!"))

    def test_split_view_covers_the_reachable_states(self):
        # q2 is unreachable from q0; neither it nor its q2?x states are in the view.
        a0, a1, b0 = Label("a", "0"), Label("a", "1"), Label("b", "0")
        m = Lts(["q0", "q1", "q2"], "q0",
                [("q0", a0, "q1"), ("q1", a1, "q0"), ("q2", b0, "q0")], [a0, a1, b0])
        view = split_io(m)
        assert view.states == ("q0", "q0?a", "q0?b", "q1", "q1?a", "q1?b")
        assert view.initial == "q0"
        assert ("q1?a", Label("1!"), "q0") in view.transitions

    def test_golden_pairs_are_equivalent(self):
        m = load_fixture("square.mealy.json")
        for name in ("double-press.code.json", "split-press.code.json"):
            assert check_adaptor_theorem(to_tree(load_fixture(name)), m)

    def test_empty_code_composition_is_trivially_equivalent(self):
        code = CodeMap(atoms("a/0", "a/1"), [], [])
        m = Lts(
            ["q0"],
            "q0",
            [("q0", Label("a", "0"), "q0"), ("q0", Label("a", "1"), "q0")],
            code.source,
        )
        tree = to_tree(code)
        composed = adaptor_composition(tree, m)
        assert not composed.transitions
        assert check_adaptor_theorem(tree, m)

    def test_observable_traces_agree(self):
        # Hidden moves absorbed, both sides offer the same learner-visible words.
        code = load_fixture("split-press.code.json")
        m = load_fixture("square.mealy.json")
        composed = adaptor_composition(to_tree(code), m)
        view = split_io(contract(code, m))
        assert observable_traces(composed, 8, TAU) == observable_traces(view, 8, TAU)

    def test_each_hidden_step_is_one_sut_exchange(self):
        # Behind an output-deterministic SUT every reached composed state has
        # one move, so the process can be walked beside a live session.
        deeper = 0
        for seed in range(30):
            tree = to_tree(gen_adaptor_code(seed, inputs=2, outputs=2, abstract_inputs=2,
                                            max_depth=3))
            m = gen_mealy(seed + 23, states=4, inputs=2, outputs=2, input_enabled=True,
                          output_deterministic=True)
            composed = adaptor_composition(tree, m)
            session = AdaptorSession(tree, InProcessSut(m, seed=seed))
            xs = sorted({lab.symbol for _, lab in tree.leaf_labels})
            rng = random.Random(seed)
            state = composed.initial
            for x in (rng.choice(xs) for _ in range(6)):
                start = len(session.transcript)
                y = session.apply(x)
                exchanges = sum(kind == "SUT" for kind, _ in session.transcript[start:])
                (state,) = succ(composed, state, Label(x))
                hidden = 0
                while True:
                    ((label, state),) = composed.out(state)
                    if label != TAU:
                        break
                    hidden += 1
                assert (hidden, label) == (exchanges, Label(f"{y}!"))
                deeper += hidden > 1
        assert deeper >= 20

    def test_compositions_are_pinned(self):
        # SHA-256 of the states (held sorted), initial state, transitions and
        # alphabet of the compositions with one hidden step per SUT transition.
        def fingerprint(m: Lts) -> str:
            rows = [list(m.states), m.initial,
                    sorted([s, str(a), d] for s, a, d in m.transitions),
                    sorted(str(a) for a in m.alphabet)]
            return hashlib.sha256(json.dumps(rows, ensure_ascii=False).encode()).hexdigest()

        square = load_fixture("square.mealy.json")
        pins = {
            "double-press.code.json":
                "73f3972245713bc07b6eebd37634641a4bc945c494ea7cf5b09a96949f7f98d0",
            "split-press.code.json":
                "b3df3c1618e347bce206af02c269d49fa5b3b9269822490348e934e47ede85e8",
        }
        for name, pin in pins.items():
            assert fingerprint(adaptor_composition(to_tree(load_fixture(name)), square)) == pin
        digest = hashlib.sha256()
        for seed in range(25):  # the instances of the next test
            code = gen_adaptor_code(seed, inputs=2, outputs=2, abstract_inputs=2)
            m = gen_mealy(seed + 19, states=4, inputs=2, outputs=2, input_enabled=True)
            digest.update(fingerprint(adaptor_composition(to_tree(code), m)).encode())
        assert digest.hexdigest() == (
            "a571e670b09ae6a99dac1a422f3dca01953c380d54d7e117e4bdb302eb0ad4d3")

    def test_split_io_needs_a_mealy_machine(self):
        atomic = Lts(["q0"], "q0", [("q0", Label("a"), "q0")], atoms("a"))
        with pytest.raises(ValueError, match="^split_io needs a Mealy machine$"):
            split_io(atomic)

    def test_namespaced_symbols_must_not_collide(self):
        # Output x is emitted as x!, which is also the input symbol x!.
        m = Lts(["q0"], "q0", [("q0", Label("x!", "x"), "q0")], [Label("x!", "x")])
        with pytest.raises(
            ValueError, match="^abstract input/output symbols collide after namespacing$"
        ):
            split_io(m)

    def test_random_instances_satisfy_the_theorem(self):
        for seed in range(25):
            code = gen_adaptor_code(seed, inputs=2, outputs=2, abstract_inputs=2)
            m = gen_mealy(seed + 19, states=4, inputs=2, outputs=2, input_enabled=True)
            assert check_adaptor_theorem(to_tree(code), m)

    def test_preconditions_are_enforced(self):
        double_press = to_tree(load_fixture("double-press.code.json"))
        lazy = Lts(["q0"], "q0", [], atoms("a/0"))
        with pytest.raises(ValueError):
            adaptor_composition(double_press, lazy)
        atomic = Lts(["q0"], "q0", [("q0", Label("a"), "q0")], atoms("a"))
        with pytest.raises(ValueError, match="^the SUT model must be a Mealy machine$"):
            adaptor_composition(double_press, atomic)
        shared = to_tree(load_fixture("shared-input.code.json"))
        with pytest.raises(NotDeterminate):
            adaptor_composition(shared, _tiny_enabled())
        losing = CodeMap(
            atoms("a/0", "a/1"),
            atoms("X/0", "Y/0"),
            [entry("X/0", "a/0"), entry("Y/0", "a/1")],
        )
        with pytest.raises(NotWinning):
            adaptor_composition(to_tree(losing), _tiny_enabled())


class TestAgainstScanOracles:
    """``InProcessSut``, ``split_io`` and ``adaptor_composition`` look a SUT
    state's edges up by input; the out-list scans they replaced
    (``tests/conftest.py``) must draw the same seeded picks, raise the same
    errors and build the same systems."""

    @staticmethod
    def _exchanges(sut, symbols) -> list[str]:
        """Each exchange's output, or the message of the error it raised."""
        got = []
        for symbol in symbols:
            try:
                sut.send(symbol)
                got.append(sut.receive())
            except SutProtocolError as exc:
                got.append(str(exc))
        return got

    def test_seeded_exchanges_equal_the_scan(self):
        errors = set()
        for seed in range(60):
            m = gen_mealy(seed, states=4, inputs=3, outputs=3, input_enabled=True)
            assert not is_deterministic(m, CompatRel.same_input(m.alphabet))
            rng = random.Random(seed)
            symbols = [rng.choice("abcd") for _ in range(40)]  # d is no input of m
            # Odd seeds script the outputs: 3 is no output of m.
            script = [rng.choice("0123") for _ in range(20)] if seed % 2 else None
            got = self._exchanges(InProcessSut(m, seed, script), symbols)
            assert got == self._exchanges(ScanSut(m, seed, script), symbols)
            errors.update(text.split()[0] for text in got if " " in text)
        assert errors == {"machine", "scripted"}

    def test_seeded_sessions_equal_the_scan(self):
        for seed in range(40):
            tree = to_tree(gen_adaptor_code(seed, inputs=3, outputs=2, abstract_inputs=2,
                                            max_depth=3))
            m = gen_mealy(seed + 7, states=5, inputs=3, outputs=2, input_enabled=True)
            rng = random.Random(seed)
            xs = sorted({lab.symbol for _, lab in tree.leaf_labels})
            stream = [rng.choice(xs) for _ in range(30)]
            script = [rng.choice("01") for _ in range(60)] if seed % 2 else None
            runs = []
            for sut in (InProcessSut(m, seed, script), ScanSut(m, seed, script)):
                session = AdaptorSession(tree, sut)
                for x in stream:
                    try:
                        session.apply(x)
                    except SutProtocolError as exc:  # a scripted output m lacks there
                        session.transcript.append(("ERR", str(exc)))
                runs.append(session.transcript)
            assert runs[0] == runs[1]

    def test_split_views_and_compositions_equal_the_scans(self):
        dead_compositions = dead_views = 0
        for seed in range(300):
            tree = to_tree(gen_adaptor_code(seed, inputs=3, outputs=2, abstract_inputs=2,
                                            max_depth=3))
            # Every other machine lacks the code's input c.
            m = gen_mealy(seed + 11, states=4, inputs=2 + seed % 2, outputs=2,
                          input_enabled=True)
            composed = adaptor_composition(tree, m)
            assert composed == scan_adaptor_composition(tree, m)
            dead_compositions += any(not composed.out(q) for q in composed.states)
            partial = gen_mealy(seed + 13, states=4, inputs=3, outputs=2)  # states may lack inputs
            for machine in (m, partial, contract(tree._code, m)):
                view = split_io(machine)
                assert view == scan_split_io(machine)
                dead_views += any(not view.out(q) for q in view.states)
        assert dead_compositions >= 50 and dead_views >= 100


def _tiny_enabled() -> Lts:
    return Lts(
        ["q0"],
        "q0",
        [("q0", Label("a", "0"), "q0"), ("q0", Label("b", "0"), "q0")],
        atoms("a/0", "a/1", "b/0", "b/1"),
    )
