"""Generator tests: the seeded draws are pinned, and growth has no cliff."""

from __future__ import annotations

import hashlib
import random
import time

import pytest

from actioncodes.documents import code_to_document, dumps, lts_to_document
from actioncodes.generate import (
    _grow_tree_words,
    atomic_alphabet,
    gen_adaptor_code,
    gen_code,
    gen_lts,
    gen_mealy,
    mealy_alphabet,
)
from actioncodes.lts import Label

SEEDS = range(60)


def digest(docs) -> str:
    """SHA-256 over the canonical text of each document, in order."""
    h = hashlib.sha256()
    for doc in docs:
        h.update(dumps(doc).encode("utf-8"))
    return h.hexdigest()


class TestPinnedDraws:
    """The same seed gives the same instance on every supported Python
    (the pins held on 3.10 to 3.13).  A change to a generator that moves any
    draw, and so every seeded test instance, shows here."""

    @pytest.mark.parametrize(
        "args,pin",
        [
            ((), "274e9a4202651149cc96cfeef09edcd22a637a2a60c18ebffdf676a5d5980dec"),
            ((3, 8, 6, 4), "7591ee331a34e40a01e334ab5b5e1375296548eae84a7f746b68ad5ce25a30f5"),
            (([Label(x) for x in "abc"], [Label(x) for x in "ABCDE"], 4, 3),
             "284cd3af7e84313f963c21fcc12d644749d03671b4074825bd3d70688e929952"),
            ((mealy_alphabet(2, 2), 4, 4, 3),
             "e18d66b03826e983602ed71a40cc2383b40d3375a30a8cb1d669a8944a984a1b"),
            ((6, 26, 26, 6), "1e83b72aa9a01baab217abfe63c5d5a5fa1b5a5ee7297cd370ddf8e620143ecd"),
        ],
    )
    def test_gen_code(self, args, pin):
        assert digest(code_to_document(gen_code(seed, *args)) for seed in SEEDS) == pin

    def test_gen_code_long_words(self):
        assert digest([code_to_document(gen_code(1, 6, 26, 26, 40))]) == (
            "c3b35b59000e3533b7e2db7a289cab4b2293d33ea9cc0c6e14e84184aee854ea")

    @pytest.mark.parametrize(
        "args,pin",
        [
            ((5, 3), "35b861d2db35c358396d41c01cef0729848d97b1a997179d38e5e5dff57eebdf"),
            ((5, 3, True), "e9b76ae8ef5a90f250b1b7ce08f110b3d795782757d2e7f9f9bd066bda85021a"),
        ],
    )
    def test_gen_lts(self, args, pin):
        assert digest(lts_to_document(gen_lts(seed, *args)) for seed in SEEDS) == pin

    @pytest.mark.parametrize(
        "args,pin",
        [
            ((5, 2, 2), "1a5551a2de230edb21d45bbb4c112f12942684c1dd5f4a04c3f4177197521ea6"),
            ((5, 3, 2, True), "831196b0682d707d0dc92b55a6f426913c3bfabc8459a765725145f255f44ced"),
            ((5, 2, 3, False, True),
             "05bf61f90e7fe2cb517a144b8016b2ca0ea9e26e3673ddb604737ba7fd8f0ebf"),
        ],
    )
    def test_gen_mealy(self, args, pin):
        assert digest(lts_to_document(gen_mealy(seed, *args)) for seed in SEEDS) == pin

    @pytest.mark.parametrize(
        "args,pin",
        [
            ((), "da5db640ac172e5326db15353f23d1c2bc04067e3811cc60c40ec3f757bcfe50"),
            ((3, 2, 2, 3), "933a344126a99befd914bb987ec63d723ce3caec510344b39f50bddb6c73721e"),
        ],
    )
    def test_gen_adaptor_code(self, args, pin):
        assert digest(code_to_document(gen_adaptor_code(seed, *args)) for seed in SEEDS) == pin


def grow_by_sorting(rng, alphabet, entries, maxlen):
    """The growth that re-sorts the whole tree on every step: the oracle."""
    children = {(): []}
    for _ in range(max(entries * (maxlen + 1), 8)):
        node = rng.choice(sorted(children, key=lambda w: tuple(str(a) for a in w)))
        if len(node) >= maxlen:
            continue
        unused = [a for a in alphabet if a not in children[node]]
        if not unused:
            continue
        a = rng.choice(sorted(unused, key=str))
        children[node].append(a)
        children[node + (a,)] = []
    leaves = [w for w, kids in children.items() if not kids and w]
    rng.shuffle(leaves)
    return leaves[:entries]


@pytest.mark.parametrize(
    "alphabet",
    [atomic_alphabet(3), atomic_alphabet(3)[::-1], mealy_alphabet(2, 2),
     # A repeated letter stays repeated among the unused ones and weights the draw.
     [Label("b"), Label("a"), Label("a"), Label("b")]],
    ids=["atomic", "reversed", "mealy", "repeated"],
)
def test_growth_matches_the_sorting_oracle(alphabet):
    for seed in range(100):
        entries, maxlen = 1 + seed % 7, seed % 5
        assert _grow_tree_words(random.Random(seed), alphabet, entries, maxlen) == (
            grow_by_sorting(random.Random(seed), alphabet, entries, maxlen))


def test_adaptor_code_needs_a_concrete_input_per_abstract_input():
    with pytest.raises(ValueError, match="^needs at least one concrete input per abstract input$"):
        gen_adaptor_code(0, inputs=2, abstract_inputs=3)


class TestNoCliff:
    """Long code words.  Growth once re-sorted the whole prefix tree on every
    step: ``gen_code(1, 6, 26, 26, 40)`` took 1.26-1.6 s on a 2-vCPU machine,
    and 7-8 ms once the tree was kept in rendered order as it grew.  The CPU-time
    bound leaves a wide margin both ways."""

    BOUND_S = 0.25

    def test_forty_letter_words(self):
        start = time.process_time()
        code = gen_code(1, 6, 26, 26, 40)
        assert time.process_time() - start < self.BOUND_S
        assert len(code) == 26
