"""Acceptance suite.

Every criterion below runs at its stated instance count and tolerance and
prints one ``[acceptance] <name>: PASS/FAIL`` line (run pytest with ``-s`` to
see them as they happen).  Isomorphism comparisons are exact; there are no
numeric tolerances anywhere.
"""

from __future__ import annotations

import itertools
import random
import time
from contextlib import contextmanager

from actioncodes.adaptor import (
    AdaptorSession,
    InProcessSut,
    check_adaptor_theorem,
    is_determinate,
    is_output_deterministic,
    solve_winning,
)
from actioncodes.cli import main as cli_main
from actioncodes.codes import CodeMap, compose, to_map, to_tree
from actioncodes.documents import dumps, loads, lts_from_document
from actioncodes.generate import gen_adaptor_code, gen_code, gen_lts, gen_mealy, mealy_alphabet
from actioncodes.lts import CompatRel, Label, Lts, is_deterministic
from actioncodes.operators import concretize, contract, is_icomplete, refine
from actioncodes.simulation import find_isomorphism_reachable, find_simulation

from conftest import (
    FIXTURES,
    brute_force_simulated,
    brute_force_winning,
    has_trace,
    load_fixture,
    sub_machine,
    trace_inclusion_equiv_check,
)


@contextmanager
def criterion(name: str):
    try:
        yield
    except BaseException:
        print(f"\n[acceptance] {name}: FAIL")
        raise
    print(f"\n[acceptance] {name}: PASS")


def labels_of(code, which):
    return sorted(getattr(code, which), key=str)


def test_01_golden_reproduction():
    with criterion("golden-reproduction"):
        started = time.perf_counter()
        square = load_fixture("square.mealy.json")
        double = load_fixture("double-press.code.json")
        double_contraction = load_fixture("double-press-contraction.mealy.json")
        cases = [
            (contract(double, square), double_contraction),
            (contract(load_fixture("split-press.code.json"), square),
             load_fixture("split-press-contraction.mealy.json")),
            (refine(load_fixture("ascii-fragment.code.json"),
                    load_fixture("letter-loops.lts.json")),
             load_fixture("letter-loops-refined.lts.json")),
            (refine(load_fixture("octal-letters.code.json"), load_fixture("choice.lts.json")),
             load_fixture("octal-choice-det.lts.json")),
            (concretize(double, CompatRel.same_input(double.source), double_contraction),
             load_fixture("double-press-concretization.mealy.json")),
        ]
        for produced, expected in cases:
            assert find_isomorphism_reachable(produced, expected) is not None
        elapsed = time.perf_counter() - started
        assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_02_roundtrip_laws():
    with criterion("roundtrip-laws"):
        started = time.perf_counter()
        for seed in range(500):
            if seed % 2:
                code = gen_code(seed, source=2, target=4, entries=4, maxlen=3)
            else:
                code = gen_code(
                    seed,
                    source=mealy_alphabet(2, 2),
                    target=[Label("X", str(k)) for k in range(4)],
                    entries=3,
                    maxlen=3,
                )
            assert to_map(to_tree(code)) == code
            tree = to_tree(code)
            back = to_tree(to_map(tree))
            mapping = find_isomorphism_reachable(tree.tree, back.tree)
            assert mapping is not None
            back_labels = dict(back.leaf_labels)
            assert all(back_labels[mapping[leaf]] == lab for leaf, lab in tree.leaf_labels)
        elapsed = time.perf_counter() - started
        assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_03_galois_refinement():
    with criterion("galois-refinement"):
        # Hand-built witness, expanding direction.
        code = load_fixture("octal-letters.code.json")
        choice, det = load_fixture("choice.lts.json"), load_fixture("octal-choice-det.lts.json")
        assert find_simulation(refine(code, choice), det) is not None
        assert find_simulation(choice, contract(code, det)) is not None
        # Hand-built witness, collapsing direction.
        square = load_fixture("square.mealy.json")
        assert is_deterministic(square)
        code = load_fixture("double-press.code.json")
        n = load_fixture("double-press-contraction.mealy.json")
        assert find_simulation(n, contract(code, square)) is not None
        assert find_simulation(refine(code, n), square) is not None

        rng = random.Random(31)
        forward_premises = backward_premises = 0
        for seed in range(150):
            code = gen_code(seed, entries=3, maxlen=3)
            if not code.domain:
                continue
            n = gen_lts(seed + 11, states=4, labels=labels_of(code, "domain"))
            m = (
                refine(code, n)
                if seed % 2
                else gen_lts(seed + 13, states=4, labels=labels_of(code, "source"))
            )
            if find_simulation(refine(code, n), m) is not None:
                forward_premises += 1
                assert find_simulation(n, contract(code, m)) is not None
        for seed in range(150):
            code = gen_code(seed + 900, entries=3, maxlen=3)
            m = gen_lts(seed + 17, states=4, labels=labels_of(code, "source"),
                        deterministic=True)
            n = (
                sub_machine(rng, contract(code, m))
                if seed % 2
                else gen_lts(seed + 19, states=4, labels=labels_of(code, "target"))
            )
            if find_simulation(n, contract(code, m)) is not None:
                backward_premises += 1
                assert find_simulation(refine(code, n), m) is not None
        assert forward_premises >= 70 and backward_premises >= 70


def test_04_galois_concretization_and_insertion():
    with criterion("galois-concretization-and-insertion"):
        checked = 0
        seed = -1
        while checked < 300 and seed < 2000:
            seed += 1
            if seed % 3 == 0:
                code = gen_code(seed, entries=3, maxlen=3)
                rel = CompatRel.identity(code.source)
                n = gen_lts(seed + 23, states=4, labels=labels_of(code, "source"))
            elif seed % 3 == 1:
                code = gen_adaptor_code(seed, inputs=2, outputs=2, abstract_inputs=2)
                rel = CompatRel.same_input(code.source)
                n = gen_mealy(seed + 29, states=4, inputs=2, outputs=2)
            else:
                # Arbitrary Mealy codes, kept only when the side condition holds.
                code = gen_code(
                    seed,
                    source=mealy_alphabet(2, 2),
                    target=[Label("X", str(k)) for k in range(3)],
                    entries=3,
                    maxlen=2,
                )
                rel = CompatRel.same_input(code.source)
                n = gen_mealy(seed + 29, states=3, inputs=2, outputs=2)
            complete, _ = is_icomplete(code, rel, n)
            if not complete:
                continue
            m = (
                contract(code, n)
                if seed % 4 < 2
                else gen_lts(seed + 31, states=3, labels=labels_of(code, "target"))
            )
            left = find_simulation(contract(code, n), m) is not None
            right = find_simulation(n, concretize(code, rel, m)) is not None
            assert left == right
            if code.domain:
                over_domain = gen_lts(seed + 37, states=3, labels=labels_of(code, "domain"))
                back = contract(code, concretize(code, rel, over_domain))
                assert find_isomorphism_reachable(over_domain, back) is not None
            checked += 1
        assert checked == 300


def test_05_icomplete_self():
    with criterion("icomplete-self"):
        for seed in range(300):
            if seed % 2:
                code = gen_code(seed, entries=3, maxlen=3)
                rel = CompatRel.identity(code.source)
            else:
                code = gen_adaptor_code(seed, inputs=2, outputs=2, abstract_inputs=2)
                rel = CompatRel.same_input(code.source)
            m = gen_lts(seed + 41, states=3, labels=labels_of(code, "target"))
            complete, witness = is_icomplete(code, rel, concretize(code, rel, m))
            assert complete, witness


def test_06_composition_laws():
    with criterion("composition-laws"):
        for seed in range(200):
            inner = gen_code(seed, source=2, target=[Label(c) for c in "MN"], entries=2,
                             maxlen=2)
            outer = gen_code(seed + 53, source=[Label(c) for c in "MN"],
                             target=[Label(c) for c in "CD"], entries=2, maxlen=2)
            m = gen_lts(seed + 59, states=4, labels=labels_of(inner, "source"))
            left = contract(compose(inner, outer), m)
            right = contract(outer, contract(inner, m))
            assert find_isomorphism_reachable(left, right) is not None

        checked = 0
        seed = 0
        while checked < 200:
            seed += 1
            inner = gen_code(seed + 61, source=2, target=[Label(c) for c in "MN"],
                             entries=2, maxlen=2)
            if not inner.domain:
                continue
            outer_small = gen_code(seed + 67, source=labels_of(inner, "domain"),
                                   target=[Label(c) for c in "CD"], entries=2, maxlen=2)
            outer = CodeMap(inner.target, outer_small.target, outer_small.entries)
            m = gen_lts(seed + 71, states=4, labels=labels_of(outer, "target"))
            left = refine(compose(inner, outer), m)
            right = refine(inner, refine(outer, m))
            assert find_isomorphism_reachable(left, right) is not None
            checked += 1

        inner = load_fixture("chaos-inner.code.json")
        outer = load_fixture("chaos-outer.code.json")
        m = load_fixture("chaos-machine.lts.json")
        rel_in = CompatRel.identity(inner.source)
        rel_out = CompatRel.identity(outer.source)
        flat = concretize(compose(inner, outer), rel_in, m)
        stacked = concretize(inner, rel_in, concretize(outer, rel_out, m))
        assert find_isomorphism_reachable(flat, stacked) is None
        assert find_simulation(flat, stacked) is not None
        assert find_simulation(stacked, flat) is not None


def test_07_determinism_preservation():
    with criterion("determinism-preservation"):
        for seed in range(200):
            code = gen_code(seed, entries=3, maxlen=3)
            n = gen_lts(seed + 73, states=4, labels=labels_of(code, "target"),
                        deterministic=True)
            assert is_deterministic(refine(code, n))
            assert is_deterministic(concretize(code, CompatRel.identity(code.source), n))
        for seed in range(200):
            code = gen_adaptor_code(seed, inputs=2, outputs=2, abstract_inputs=2)
            assert is_determinate(to_tree(code))[0]
            m = gen_mealy(seed + 79, states=4, inputs=2, outputs=2,
                          output_deterministic=True)
            assert is_output_deterministic(m)
            assert is_output_deterministic(contract(code, m))


def test_08_winning_and_determinacy():
    with criterion("winning-and-determinacy"):
        tree = to_tree(load_fixture("coffee.code.json"))
        table = solve_winning(tree)
        assert table.is_winning(tree.root, "coffee")
        assert table.is_winning(tree.root, "espresso")
        full = load_fixture("coffee.code.json")
        reduced = CodeMap(
            full.source,
            full.target,
            [(b, w) for b, w in full.entries if str(b) != "espresso/2"],
        )
        cut = to_tree(reduced)
        cut_table = solve_winning(cut)
        assert not cut_table.is_winning(cut.root, "espresso")
        assert cut_table.is_winning(cut.root, "coffee")

        ok, witness = is_determinate(to_tree(load_fixture("shared-input.code.json")))
        assert not ok
        assert witness.node == "ε"
        assert witness.abstract_input == "0"
        assert {witness.first_input, witness.second_input} == {"a", "b"}

        for seed in range(200):
            if seed % 4:
                code = gen_adaptor_code(seed, inputs=3, outputs=2, abstract_inputs=2)
            else:
                code = gen_code(
                    seed,
                    source=mealy_alphabet(2, 2),
                    target=[Label("X", str(k)) for k in range(4)],
                    entries=4,
                    maxlen=3,
                )
            game = to_tree(code)
            assert len(game.tree.states) <= 20
            solved = solve_winning(game)
            xs = sorted({lab.symbol for _, lab in game.leaf_labels})
            for node in game.tree.states:
                for x in xs:
                    assert solved.is_winning(node, x) == brute_force_winning(game, node, x)


def test_09_adaptor_runtime():
    with criterion("adaptor-runtime"):
        session = AdaptorSession(
            to_tree(load_fixture("double-press.code.json")),
            InProcessSut(load_fixture("square.mealy.json")),
        )
        assert [session.apply(x) for x in ["A", "B", "A"]] == ["0", "0", "0"]
        concrete = [(e[1], e[2]) for e in session.transcript if e[0] == "SUT"]
        assert concrete == [
            ("a", "0"), ("a", "0"), ("b", "0"), ("b", "0"), ("a", "0"), ("a", "0"),
        ]

        for seed in range(200):
            code = gen_adaptor_code(seed, inputs=2, outputs=2, abstract_inputs=2)
            tree = to_tree(code)
            m = gen_mealy(seed + 83, states=4, inputs=2, outputs=2, input_enabled=True)
            abstract = contract(code, m)
            xs = sorted({lab.symbol for _, lab in tree.leaf_labels})
            rng = random.Random(seed)
            inputs = [rng.choice(xs) for _ in range(3)]
            session = AdaptorSession(tree, InProcessSut(m, seed=seed))
            word = tuple(Label(x, session.apply(x)) for x in inputs)
            assert has_trace(abstract, word)


def test_10_adaptor_process_equivalence():
    with criterion("adaptor-process-equivalence"):
        started = time.perf_counter()
        square = load_fixture("square.mealy.json")
        assert check_adaptor_theorem(to_tree(load_fixture("double-press.code.json")), square)
        assert check_adaptor_theorem(to_tree(load_fixture("split-press.code.json")), square)
        for seed in range(50):
            code = gen_adaptor_code(seed, inputs=2, outputs=2, abstract_inputs=2)
            tree = to_tree(code)
            m = gen_mealy(seed + 89, states=4, inputs=2, outputs=2, input_enabled=True)
            complete, _ = is_icomplete(code, CompatRel.same_input(code.source), m)
            assert complete and is_determinate(tree)[0]
            assert check_adaptor_theorem(tree, m)
        elapsed = time.perf_counter() - started
        assert elapsed < 20.0, f"took {elapsed:.2f}s"


def test_11_decider_calibration():
    with criterion("decider-calibration"):
        # Exhaustive sweep: every machine with one or two states over one or
        # two labels, paired every way (the three-state class is sampled below).
        family = []
        for n_states, n_labels in ((1, 1), (1, 2), (2, 1), (2, 2)):
            alphabet = [Label(s) for s in "ab"[:n_labels]]
            ids = [f"q{k}" for k in range(n_states)]
            slots = [(q, a, p) for q in ids for a in alphabet for p in ids]
            for bits in itertools.product((False, True), repeat=len(slots)):
                chosen = [t for t, bit in zip(slots, bits) if bit]
                family.append(Lts(ids, ids[0], chosen, [Label("a"), Label("b")]))
        for m in family:
            for n in family:
                assert (find_simulation(m, n) is not None) == brute_force_simulated(m, n)

        for seed in range(300):
            m = gen_lts(seed, states=3, labels=2)
            n = gen_lts(seed + 97, states=3, labels=2)
            assert (find_simulation(m, n) is not None) == brute_force_simulated(m, n)

        for seed in range(300):
            m = gen_lts(seed + 113, states=3, labels=2)
            n = gen_lts(seed + 127, states=3, labels=2, deterministic=True)
            bound = len(m.reachable()) * len(n.reachable())
            verdict = trace_inclusion_equiv_check(m, n, bound)
            assert verdict.simulated == verdict.traces_included


def test_12_cli_contract(capsys, tmp_path):
    with criterion("cli-contract"):
        def run(*argv):
            status = cli_main(list(argv))
            captured = capsys.readouterr()
            return status, captured.out, captured.err

        def fixture(name):
            return str(FIXTURES / name)

        # Round trips: every committed golden document is canonical.
        for path in sorted(FIXTURES.glob("*.json")):
            text = path.read_text(encoding="utf-8")
            assert dumps(loads(text)) == text
            if path.name.endswith(".code.json"):
                status, out, _ = run("to-tree", str(path))
                assert status == 0
                tree_file = tmp_path / "tree.json"
                tree_file.write_text(out, encoding="utf-8")
                status, out, _ = run("to-map", str(tree_file))
                assert status == 0 and out == text

        # Golden derivations through the CLI.
        derivations = [
            (("contract", "--code", fixture("double-press.code.json"),
              fixture("square.mealy.json")), "double-press-contraction.mealy.json"),
            (("contract", "--code", fixture("split-press.code.json"),
              fixture("square.mealy.json")), "split-press-contraction.mealy.json"),
            (("refine", "--code", fixture("ascii-fragment.code.json"),
              fixture("letter-loops.lts.json")), "letter-loops-refined.lts.json"),
            (("refine", "--code", fixture("octal-letters.code.json"),
              fixture("choice.lts.json")), "octal-choice-det.lts.json"),
            (("concretize", "--rel", "same-input", "--code",
              fixture("double-press.code.json"),
              fixture("double-press-contraction.mealy.json")),
             "double-press-concretization.mealy.json"),
        ]
        for argv, expected in derivations:
            status, out, _ = run(*argv)
            assert status == 0
            produced = lts_from_document(loads(out))
            assert find_isomorphism_reachable(produced, load_fixture(expected)) is not None

        # The documented exit-code table: 0 PASS, 1 FAIL, 2 bad input,
        # 3 not winning, 4 incomplete code.
        status, out, _ = run(
            "check", "galois2", "--code", fixture("double-press.code.json"),
            "--rel", "same-input", fixture("square.mealy.json"),
            fixture("double-press-contraction.mealy.json"),
        )
        assert status == 0 and out.startswith("PASS")

        status, out, _ = run(
            "check", "determinate", "--code", fixture("shared-input.code.json")
        )
        assert status == 1 and out.startswith("FAIL")

        broken = tmp_path / "broken.json"
        broken.write_text("{not json", encoding="utf-8")
        status, _, err = run(
            "contract", "--code", fixture("double-press.code.json"), str(broken)
        )
        assert status == 2 and err.startswith("ERROR")

        inputs = tmp_path / "inputs.txt"
        inputs.write_text("latte\n", encoding="utf-8")
        status, _, err = run(
            "adaptor", "--code", fixture("coffee.code.json"),
            "--sut-file", fixture("square.mealy.json"), "--inputs", str(inputs),
        )
        assert status == 3 and "NotWinning" in err

        incomplete_code = tmp_path / "incomplete.json"
        incomplete_code.write_text(
            dumps({
                "schema": "actioncodes/code-v1",
                "source_alphabet": ["b/0", "b/1"],
                "target_alphabet": ["B/0"],
                "entries": [["B/0", ["b/0"]]],
            }),
            encoding="utf-8",
        )
        wild = tmp_path / "wild.json"
        wild.write_text(
            dumps({
                "schema": "actioncodes/lts-v1",
                "kind": "mealy",
                "alphabet": ["b/0", "b/1"],
                "states": ["q0"],
                "initial": "q0",
                "transitions": [["q0", "b/0", "q0"], ["q0", "b/1", "q0"]],
            }),
            encoding="utf-8",
        )
        script = tmp_path / "script.txt"
        script.write_text("1\n", encoding="utf-8")
        b_inputs = tmp_path / "b.txt"
        b_inputs.write_text("B\n", encoding="utf-8")
        status, _, err = run(
            "adaptor", "--code", str(incomplete_code), "--sut-file", str(wild),
            "--script", str(script), "--inputs", str(b_inputs),
        )
        assert status == 4 and "CodeIncomplete" in err

        # Golden adaptor session through the CLI.
        aba = tmp_path / "aba.txt"
        aba.write_text("A\nB\nA\n", encoding="utf-8")
        status, out, _ = run(
            "adaptor", "--code", fixture("double-press.code.json"),
            "--sut-file", fixture("square.mealy.json"), "--inputs", str(aba),
        )
        assert status == 0
        assert out.splitlines()[-1] == "OUT 0" and out.count("OUT 0") == 3

        # Seeded generation is reproducible and parses.
        first = run("gen", "code", "--abstract", "3", "--maxlen", "3", "--seed", "7")
        second = run("gen", "code", "--abstract", "3", "--maxlen", "3", "--seed", "7")
        assert first == second and first[0] == 0
