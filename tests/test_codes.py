"""Code tests: validation, tree/map round trips, and composition."""

from __future__ import annotations

import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from actioncodes.codes import CodeMap, CodeTree, compose, to_map, to_tree
from actioncodes.errors import (
    AlphabetMismatch,
    EmptyCodeWord,
    InvalidTree,
    PrefixClash,
)
from actioncodes.documents import dumps, loads, tree_from_document, tree_to_document
from actioncodes.generate import gen_adaptor_code, gen_code, mealy_alphabet
from actioncodes.lts import Label, Lts, is_deterministic
from actioncodes.operators import contract
from actioncodes.simulation import find_isomorphism_reachable

from conftest import (
    DOTTED,
    FIXTURES,
    all_small_machines,
    atoms,
    cpu_bound,
    entry,
    is_tree_shaped,
    load_fixture,
    sort_prefix_clash,
    word_prefix_tree,
)


class TestValidation:
    def test_ascii_fragment_is_valid(self):
        code = load_fixture("ascii-fragment.code.json")
        assert len(code) == 5
        assert code.word_for(Label("a")) == tuple(atoms("1", "4", "1"))

    def test_empty_code_is_valid(self):
        code = CodeMap(atoms("a"), atoms("B"), [])
        assert len(code) == 0
        assert code.domain == frozenset()

    def test_prefix_clash(self):
        with pytest.raises(PrefixClash) as err:
            CodeMap(atoms("a", "b"), atoms("A", "B"), [entry("A", "a"), entry("B", "a b")])
        assert {str(err.value.first), str(err.value.second)} == {"A", "B"}

    def test_duplicate_words_clash(self):
        with pytest.raises(PrefixClash):
            CodeMap(atoms("a"), atoms("A", "B"), [entry("A", "a"), entry("B", "a")])

    def test_empty_word(self):
        with pytest.raises(EmptyCodeWord):
            CodeMap(atoms("a"), atoms("A"), [(Label("A"), ())])

    def test_word_letters_must_be_in_source(self):
        with pytest.raises(AlphabetMismatch):
            CodeMap(atoms("a"), atoms("A"), [entry("A", "z")])

    def test_entries_name_distinct_target_labels(self):
        with pytest.raises(
            AlphabetMismatch, match="^abstract label C is not in the target alphabet$"
        ):
            CodeMap(atoms("a"), atoms("A"), [entry("C", "a")])
        with pytest.raises(ValueError, match="^duplicate entry for abstract label A$"):
            CodeMap(atoms("a", "b"), atoms("A"), [entry("A", "a"), entry("A", "b")])

    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(
            st.lists(st.sampled_from("ab"), min_size=1, max_size=4),
            min_size=0,
            max_size=4,
        )
    )
    def test_prefix_freeness_matches_pairwise_check(self, raw_words):
        words = [tuple(Label(ch) for ch in w) for w in raw_words]
        entries = [(Label(chr(ord("A") + k)), w) for k, w in enumerate(words)]

        def is_prefix(u, w):
            return len(u) <= len(w) and w[: len(u)] == u

        clash = any(
            is_prefix(w1, w2) or is_prefix(w2, w1)
            for i, w1 in enumerate(words)
            for w2 in words[i + 1 :]
        )
        try:
            CodeMap(atoms("a", "b"), [b for b, _ in entries], entries)
            assert not clash
        except PrefixClash:
            assert clash

    def test_clash_pair_matches_the_sort_oracle(self):
        # The reported (first, second) pair, or no clash, is the one the
        # sort-and-compare check gives.  a/0 sorts before a-x/0 as a tuple
        # but after it rendered, so an order by tuples would name other pairs.
        letters = atoms("a/0", "a-x/0", "b/1")
        target = atoms(*"ABCDEF")
        shapes = {"duplicate word": 0, "prefix of two words": 0, "prefix-free": 0}
        for seed in range(600):
            rng = random.Random(seed)
            words = [
                tuple(rng.choices(letters, k=rng.randint(1, 3)))
                for _ in range(rng.randint(1, 6))
            ]
            entries = list(zip(target, words))
            rng.shuffle(entries)
            expected = sort_prefix_clash(entries)
            try:
                CodeMap(letters, target, entries)
                found = None
            except PrefixClash as err:
                found = (err.first, err.second)
            assert found == expected, entries
            shapes["duplicate word"] += len(set(words)) < len(words)
            shapes["prefix of two words"] += any(
                sum(len(v) > len(w) and v[: len(w)] == w for v in words) >= 2 for w in words
            )
            shapes["prefix-free"] += expected is None
        assert min(shapes.values()) >= 50, shapes
        # Two clashes: by tuples A, B would come first, rendered C, D do.
        mixed = [entry("A", "a/0"), entry("B", "a/0 b/1"), entry("C", "a-x/0"), entry("D", "a-x/0 b/1")]
        with pytest.raises(PrefixClash) as err:
            CodeMap(letters, target, mixed)
        assert (err.value.first, err.value.second) == sort_prefix_clash(mixed) == tuple(atoms("C", "D"))


def _tree_codes():
    """Every fixture code, DOTTED, codes over Mealy letters whose tuple and
    rendered orders cross (a/0 and a-x/0), and 300 seeded codes."""
    for path in sorted(FIXTURES.glob("*.code.json")):
        yield load_fixture(path.name)
    yield DOTTED
    crossed = atoms("a/0", "a-x/0", "a/1", "a-x/1")
    for seed in range(40):
        yield gen_code(seed, source=crossed, target=6, entries=6, maxlen=3)
    for seed in range(300):
        yield gen_code(seed, source=3, target=8, entries=1 + seed % 8, maxlen=2 + seed % 4)


class TestPrefixTree:
    def test_numbered_tables_match_the_word_keyed_tree(self):
        shapes, crossing = set(), 0  # crossing: codes with a node whose letters cross
        for code in _tree_codes():
            children, below, leaves = word_prefix_tree(code.entries)
            seen = []
            todo = [(0, ())]
            for i, word in todo:  # the list grows while it is read
                seen.append(word)
                kids = code._kids[i]
                assert list(kids) == list(children.get(word, {}))
                todo += [(j, word + (a,)) for a, j in kids.items()]
                assert code._leaf[i] == leaves.get(word)
                assert code._below[i] == below.get(word, set())
                assert code._text[i] == ".".join(map(str, word))
            assert len(seen) == len(set(seen)) == len(code._kids)
            assert set(seen) == {()} | set(children) | set(leaves)
            shapes.add((len(code), len(code._kids)))
            crossing += any(list(k) != sorted(k) for k in code._kids)
        assert crossing >= 10
        assert len(shapes) >= 40, shapes  # (entries, nodes)


    def test_a_long_word_keeps_memory_linear_until_named(self):
        # Each node's rendered word is built on first use.  Kept from the
        # start, the 4,000 prefixes of one word of 4,000 letters a/0 retained
        # 34 MB; the tables and the contraction retain about 2 MB.
        a, x = Label("a", "0"), Label("X", "0")
        word = (a,) * 4000
        m = Lts(["q0"], "q0", [("q0", a, "q0")], [a])
        tracemalloc.start()
        try:
            code = CodeMap([a], [x], [(x, word)])
            abstract = contract(code, m)
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert retained < 4_000_000
        assert abstract.out("q0") == ((x, "q0"),)


class TestTreeForm:
    def test_ascii_tree_shape(self):
        tree = to_tree(load_fixture("ascii-fragment.code.json"))
        assert len(tree.tree.states) == 11
        assert len(tree.leaf_labels) == 5
        leaves = {q for q in tree.tree.states if not tree.tree.out(q)}
        assert leaves == {q for q, _ in tree.leaf_labels}

    def test_empty_code_tree(self):
        tree = to_tree(CodeMap(atoms("a"), atoms("B"), []))
        assert len(tree.tree.states) == 1
        assert tree.leaf_labels == ()

    def test_double_press_tree_has_five_nodes(self):
        tree = to_tree(load_fixture("double-press.code.json"))
        assert len(tree.tree.states) == 5
        assert {str(lab) for _, lab in tree.leaf_labels} == {"A/0", "B/0"}

    def test_trees_are_always_grounded(self):
        for seed in range(40):
            tree = to_tree(gen_code(seed, entries=4, maxlen=3))
            # Every node lies on the access word of some labeled leaf.
            words, todo = {tree.root: ()}, [tree.root]
            for q in todo:
                for a, dst in tree.tree.out(q):
                    words[dst] = words[q] + (a,)
                    todo.append(dst)
            leaf_words = [words[q] for q, _ in tree.leaf_labels]
            assert leaf_words
            for w in words.values():
                assert any(v[: len(w)] == w for v in leaf_words)

    def test_invalid_trees_are_rejected(self):
        a = Label("a")
        line = Lts(["r0", "r1"], "r0", [("r0", a, "r1")], [a])
        CodeTree(line, [("r1", Label("B"))], [Label("B")])  # sanity: this one is fine

        with pytest.raises(InvalidTree):  # label missing on a leaf
            CodeTree(line, [], [Label("B")])
        with pytest.raises(InvalidTree):  # root labeled
            CodeTree(line, [("r0", Label("A")), ("r1", Label("B"))], atoms("A", "B"))
        cyclic = Lts(["r0"], "r0", [("r0", a, "r0")], [a])
        with pytest.raises(InvalidTree, match="tree-shaped"):  # not a tree
            CodeTree(cyclic, [], [])
        # A root edge into a self-loop: a cycle below the root is caught by
        # the tree-shape check, so no carrier gets as far as being ungrounded.
        lasso = Lts(["r0", "r1"], "r0", [("r0", a, "r1"), ("r1", a, "r1")], [a])
        with pytest.raises(InvalidTree, match="tree-shaped"):
            CodeTree(lasso, [], [])
        fork = Lts(
            ["r0", "r1", "r2"],
            "r0",
            [("r0", a, "r1"), ("r0", a, "r2")],
            [a],
        )
        with pytest.raises(InvalidTree):  # not deterministic
            CodeTree(fork, [("r1", Label("B")), ("r2", Label("C"))], atoms("B", "C"))
        vee = Lts(
            ["r0", "r1", "r2"],
            "r0",
            [("r0", a, "r1"), ("r0", Label("b"), "r2")],
            [a, Label("b")],
        )
        with pytest.raises(InvalidTree):  # labels must be injective
            CodeTree(vee, [("r1", Label("B")), ("r2", Label("B"))], [Label("B")])

    def test_carrier_rejections_follow_the_checks_in_order(self):
        # Every small carrier, each non-root leaf with a label of its own: the
        # carrier is accepted, or rejected by the first of these checks to fail.
        for m in all_small_machines(2, 2) + all_small_machines(3, 1):
            leaf_labels = [
                (q, Label(q.upper())) for q in m.states if q != m.initial and not m.out(q)
            ]
            abstract = [lab for _, lab in leaf_labels]
            if not is_deterministic(m):
                expected = "carrier is not deterministic"
            elif not is_tree_shaped(m):
                expected = "carrier is not tree-shaped"
            elif set(m.states) != m.reachable():
                expected = "carrier has unreachable states"
            else:
                expected = None
            try:
                CodeTree(m, leaf_labels, abstract)
            except InvalidTree as err:
                assert str(err) == expected, m.transitions
            else:
                assert expected is None, m.transitions

    def test_unreachable_states_and_foreign_labels_are_rejected(self):
        a = Label("a")
        detached = Lts(["r0", "r1", "r2"], "r0", [("r0", a, "r1")], [a])
        with pytest.raises(InvalidTree, match="^carrier has unreachable states$"):
            CodeTree(detached, [("r1", Label("B")), ("r2", Label("C"))], atoms("B", "C"))
        line = Lts(["r0", "r1"], "r0", [("r0", a, "r1")], [a])
        with pytest.raises(
            InvalidTree, match="^leaf label B is not in the abstract alphabet$"
        ):
            CodeTree(line, [("r1", Label("B"))], [Label("C")])


class TestRoundTrip:
    def test_map_of_tree_is_identity_on_fixtures(self):
        for name in ("ascii-fragment.code.json", "double-press.code.json", "split-press.code.json"):
            code = load_fixture(name)
            assert to_map(to_tree(code)) == code

    def test_map_of_tree_is_identity_on_random(self):
        for seed in range(60):
            code = gen_code(seed, entries=4, maxlen=3)
            assert to_map(to_tree(code)) == code

    def test_tree_of_map_is_isomorphic(self):
        for seed in range(30):
            tree = to_tree(gen_code(seed, entries=4, maxlen=3))
            back = to_tree(to_map(tree))
            mapping = find_isomorphism_reachable(tree.tree, back.tree)
            assert mapping is not None
            back_labels = dict(back.leaf_labels)
            for leaf, lab in tree.leaf_labels:
                assert back_labels[mapping[leaf]] == lab


def _named_codes():
    """The codes of ``_tree_codes`` but DOTTED, whose words render alike;
    codes over a and a-x, whose rendered words sort apart from their node
    numbers (a.b before a-x as words, after it as text); seeded Mealy and
    adaptor codes."""
    yield from (code for code in _tree_codes() if code is not DOTTED)
    target = [Label(x, y) for x in "AB" for y in "012"]
    for seed in range(40):
        yield gen_code(seed, source=atoms("a", "a-x", "b"), target=6, entries=6, maxlen=3)
        yield gen_code(seed, mealy_alphabet(2, 2), target, entries=2 + seed % 4, maxlen=3)
        yield gen_adaptor_code(seed, inputs=3, outputs=2, abstract_inputs=2)


class TestNamedMap:
    """``to_tree`` names the nodes of the map it is given."""

    def test_tree_of_map_shares_the_map(self, monkeypatch):
        codes = list(_named_codes())
        built, init = [], CodeMap.__init__

        def counting_init(self, *args):
            built.append(args)
            init(self, *args)

        monkeypatch.setattr(CodeMap, "__init__", counting_init)
        for code in codes:
            assert to_map(to_tree(code)) is code
        assert built == []

    def test_named_map_equals_the_validated_carrier(self):
        for code in _named_codes():
            tree = to_tree(code)
            checked = CodeTree(tree.tree, tree.leaf_labels, tree.abstract)
            assert checked == tree
            assert checked._names == tree._names
            assert list(tree.leaf_labels) == sorted(tree.leaf_labels)  # by state name
            assert to_map(checked) == code
            assert checked._code._kids == code._kids and checked._code._leaf == code._leaf
            labels, checked_labels = dict(tree.leaf_labels), dict(checked.leaf_labels)
            for q, lab in tree.leaf_labels:
                assert labels[q] == checked_labels[q] == lab

    def test_named_map_survives_a_tree_document(self):
        for code in _named_codes():
            tree = to_tree(code)
            back = tree_from_document(loads(dumps(tree_to_document(tree))))
            assert back == tree
            assert back._names == tree._names
            assert to_map(back) == code


class TestCompose:
    def test_undefined_everywhere(self):
        inner = load_fixture("chaos-inner.code.json")
        composed = compose(inner, load_fixture("chaos-outer.code.json"))
        assert len(composed) == 0
        assert composed.source == inner.source

    def test_singleton_words_substitute(self):
        r = CodeMap(atoms("a", "b"), atoms("X"), [entry("X", "a b")])
        s = CodeMap(atoms("X"), atoms("C"), [entry("C", "X")])
        assert compose(r, s).word_for(Label("C")) == tuple(atoms("a", "b"))

    def test_concatenates_words(self):
        # Hand-evaluated: C -> X Y, X -> a1, Y -> a2 a1, so C -> a1 a2 a1.
        r = CodeMap(
            atoms("a1", "a2"),
            atoms("X", "Y"),
            [entry("X", "a1"), entry("Y", "a2 a1")],
        )
        s = CodeMap(atoms("X", "Y"), atoms("C"), [entry("C", "X Y")])
        composed = compose(r, s)
        assert composed.word_for(Label("C")) == tuple(atoms("a1", "a2", "a1"))

    def test_domain_law(self):
        for seed in range(40):
            r = gen_code(seed, source=2, target=atoms("X", "Y", "Z"), entries=3)
            s = gen_code(seed + 70, source=atoms("X", "Y", "Z"), target=3, entries=3)
            composed = compose(r, s)
            assert composed.domain <= s.domain
            for c in s.domain:
                defined = all(b in r.domain for b in s.word_for(c))
                assert (c in composed.domain) == defined

    def test_associative(self):
        count = 0
        for seed in range(40):
            r = gen_code(seed, source=2, target=atoms("M", "N"), entries=2, maxlen=2)
            s = gen_code(seed + 99, source=atoms("M", "N"), target=atoms("X", "Y"), entries=2, maxlen=2)
            t = gen_code(seed + 777, source=atoms("X", "Y"), target=atoms("C", "D"), entries=2, maxlen=2)
            left = compose(compose(r, s), t)
            right = compose(r, compose(s, t))
            assert left == right
            count += len(left.entries)
        assert count > 0

    def test_alphabet_mismatch(self):
        r = CodeMap(atoms("a"), atoms("X"), [entry("X", "a")])
        s = CodeMap(atoms("Z"), atoms("C"), [entry("C", "Z")])
        with pytest.raises(AlphabetMismatch):
            compose(r, s)


def _chain_tree(depth: int):
    """The arguments of a ``CodeTree`` whose carrier is one chain of
    ``depth`` a/0-edges, its end labeled X/0."""
    a, x = Label("a", "0"), Label("X", "0")
    states = [f"s{k}" for k in range(depth + 1)]
    carrier = Lts(states, "s0", [(f"s{k}", a, f"s{k + 1}") for k in range(depth)], [a])
    return carrier, [(states[-1], x)], [x]


def _one_letter_code(letter: str, label: str, size: int) -> CodeMap:
    """``size`` entries, ``<label>k -> <letter>k``."""
    source = [Label(f"{letter}{k}") for k in range(size)]
    target = [Label(f"{label}{k}") for k in range(size)]
    return CodeMap(source, target, [(b, [a]) for a, b in zip(source, target)])


class TestNoCliff:
    """Deep and wide carriers.  Each state's access word, copied from its
    parent's, took CPU time and memory quadratic in the depth: 0.6-0.9 s at
    8,000 and a tracemalloc peak of 66 MB at 4,000.  Read up parent links
    from the one leaf, they take 0.02 s and 2.5 MB.  A root with 8,000
    labeled leaves is read from its document, parsing included, in 0.13 s.
    Times in comments are process time on a 2-vCPU machine; the bounds
    leave a wide margin."""

    def test_a_chain_eight_thousand_deep(self):
        parts = _chain_tree(8000)
        with cpu_bound(0.2):
            tree = CodeTree(*parts)
        assert to_map(tree).word_for(Label("X", "0")) == (Label("a", "0"),) * 8000

    def test_a_chain_four_thousand_deep_keeps_memory_linear(self):
        parts = _chain_tree(4000)
        tracemalloc.start()
        try:
            CodeTree(*parts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8_000_000

    def test_compose_of_eight_thousand_entries(self):
        # Many labels: each outer letter is translated once, 28 ms.
        inner, outer = _one_letter_code("a", "b", 8000), _one_letter_code("b", "X", 8000)
        with cpu_bound(0.5):
            composed = compose(inner, outer)
        assert composed == _one_letter_code("a", "X", 8000)

    def test_to_tree_of_eight_thousand_entries(self):
        # A root with 8,000 leaves is named and explored in 24 ms.
        code = _one_letter_code("a", "X", 8000)
        with cpu_bound(0.5):
            tree = to_tree(code)
        assert (len(tree.tree.states), to_map(tree)) == (8001, code)

    def test_a_document_root_with_eight_thousand_leaves(self):
        source = [Label(f"a{k}") for k in range(8000)]
        target = [Label(f"X{k}") for k in range(8000)]
        code = CodeMap(source, target, [(b, [a]) for a, b in zip(source, target)])
        doc = tree_to_document(to_tree(code))
        with cpu_bound(0.5):
            tree = tree_from_document(doc)
        assert to_map(tree) == code
