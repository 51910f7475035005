"""Seeded random instance generators for property tests and the CLI.

Every generator is a pure function of its seed, so failures reproduce.
Codes are grown prefix-free by construction: the words are the leaves of a
randomly grown tree, and a leaf set is never prefix-comparable.
"""

from __future__ import annotations

import bisect
import random
import string
from operator import itemgetter
from typing import Sequence

from .codes import CodeMap
from .lts import Label, Lts

__all__ = [
    "letters",
    "atomic_alphabet",
    "mealy_alphabet",
    "gen_lts",
    "gen_mealy",
    "gen_code",
    "gen_adaptor_code",
]


def _count(value: int, what: str) -> int:
    """``value``, refused when negative: a slice would count from the end."""
    if value < 0:
        raise ValueError(f"the number of {what} cannot be negative, got {value}")
    return value


def letters(count: int, what: str, alphabet: str = string.ascii_lowercase) -> str:
    """The first ``count`` letters of ``alphabet``, refused when there are
    not that many: a slice would silently stop short."""
    if count > len(alphabet):
        raise ValueError(f"at most {len(alphabet)} {what} are generated")
    return alphabet[: _count(count, what)]


def atomic_alphabet(count: int) -> list[Label]:
    return [Label(s) for s in letters(count, "atomic symbols")]


def mealy_alphabet(inputs: int, outputs: int) -> list[Label]:
    ins = letters(inputs, "inputs")
    outs = [str(k) for k in range(_count(outputs, "outputs"))]
    return [Label(i, o) for i in ins for o in outs]


def _state_ids(states: int) -> list[str]:
    if states < 1:
        raise ValueError(f"a system needs at least one state, got {states}")
    return [f"q{k}" for k in range(states)]


def gen_lts(
    seed: int,
    states: int = 4,
    labels: Sequence[Label] | int = 2,
    deterministic: bool = False,
) -> Lts:
    """A random system; with ``deterministic`` at most one successor per label."""
    rng = random.Random(seed)
    alphabet = atomic_alphabet(labels) if isinstance(labels, int) else list(labels)
    ids = _state_ids(states)
    transitions = []
    for q in ids:
        for a in alphabet:
            limit = 1 if deterministic else 2
            fanout = rng.choices(range(limit + 1), weights=[2, 3, 1][: limit + 1])[0]
            for dst in rng.sample(ids, k=min(fanout, len(ids))):
                transitions.append((q, a, dst))
    return Lts(ids, ids[0], transitions, alphabet)


def gen_mealy(
    seed: int,
    states: int = 4,
    inputs: int = 2,
    outputs: int = 2,
    input_enabled: bool = False,
    output_deterministic: bool = False,
) -> Lts:
    """A random Mealy machine over the full input/output product alphabet."""
    rng = random.Random(seed)
    alphabet = mealy_alphabet(inputs, outputs)
    ins = sorted({a.symbol for a in alphabet})
    outs = sorted({a.output for a in alphabet})
    ids = _state_ids(states)
    transitions = []
    for q in ids:
        for i in ins:
            if output_deterministic:
                fanout = 1 if input_enabled else rng.choice([0, 1, 1])
            elif input_enabled:
                fanout = rng.choice([1, 1, 2])
            else:
                fanout = rng.choice([0, 1, 1, 2])
            chosen_outputs = rng.sample(outs, k=min(fanout, len(outs)))
            for o in chosen_outputs:
                transitions.append((q, Label(i, o), rng.choice(ids)))
    return Lts(ids, ids[0], transitions, alphabet)


def _grow_tree_words(
    rng: random.Random, alphabet: Sequence[Label], entries: int, maxlen: int
) -> list[tuple[Label, ...]]:
    """Leaves of a randomly grown prefix tree: prefix-free by construction.

    Each draw picks among the nodes in rendered-word order and among a node's
    unused letters in rendered order.  The nodes are kept in that order as
    they are added, a child's key being its parent's key plus one rendered
    letter, so no step re-sorts.
    """
    ranked = sorted(alphabet, key=str)
    children: dict[tuple[Label, ...], list[Label]] = {(): []}
    order: list[tuple[tuple[str, ...], tuple[Label, ...]]] = [((), ())]
    for _ in range(max(entries * (maxlen + 1), 8)):
        key, node = rng.choice(order)
        if len(node) >= maxlen:
            continue
        unused = [a for a in ranked if a not in children[node]]
        if not unused:
            continue
        a = rng.choice(unused)
        children[node].append(a)
        child = node + (a,)
        children[child] = []
        bisect.insort(order, (key + (str(a),), child), key=itemgetter(0))
    leaves = [w for w, kids in children.items() if not kids and w]
    rng.shuffle(leaves)
    return leaves[:entries]


def gen_code(
    seed: int,
    source: Sequence[Label] | int = 2,
    target: Sequence[Label] | int = 3,
    entries: int = 3,
    maxlen: int = 3,
) -> CodeMap:
    """A random prefix-free code; the actual entry count may come out lower
    when the random tree yields fewer leaves."""
    rng = random.Random(seed)
    src = atomic_alphabet(source) if isinstance(source, int) else list(source)
    if isinstance(target, int):
        tgt = [Label(s) for s in letters(target, "abstract symbols", string.ascii_uppercase)]
    else:
        tgt = list(target)
    entries = min(_count(entries, "entries"), len(tgt))
    words = _grow_tree_words(rng, src, entries, _count(maxlen, "letters per code word"))
    chosen = rng.sample(sorted(tgt, key=str), k=len(words))
    return CodeMap(src, tgt, list(zip(chosen, words)))


def gen_adaptor_code(
    seed: int,
    inputs: int = 2,
    outputs: int = 2,
    abstract_inputs: int = 2,
    max_depth: int = 2,
) -> CodeMap:
    """A Mealy code that is determinate, winning for every abstract input,
    and complete for any machine over the same concrete alphabet.

    Each abstract input gets its own concrete input at the root, and every
    internal node carries edges for all outputs of its chosen input, so no
    output of the system under test can fall outside the code.
    """
    if abstract_inputs > inputs:
        raise ValueError("needs at least one concrete input per abstract input")
    rng = random.Random(seed)
    ins = letters(inputs, "inputs")
    outs = [str(k) for k in range(outputs)]
    source = mealy_alphabet(inputs, outputs)
    xs = letters(abstract_inputs, "abstract inputs", string.ascii_uppercase)
    root_inputs = rng.sample(ins, k=len(xs))
    entries: list[tuple[Label, tuple[Label, ...]]] = []

    def split(budget: int, parts: int) -> list[int]:
        shares = [1] * parts
        for _ in range(budget - parts):
            shares[rng.randrange(parts)] += 1
        return shares

    def grow(x: str, ys: list[str], prefix, i: str, depth: int, budget: int):
        # One child per output of the chosen input, each owning >= 1 leaf.
        for o, share in zip(outs, split(budget, len(outs))):
            node = prefix + (Label(i, o),)
            if depth < max_depth and share >= len(outs) and rng.random() < 0.5:
                grow(x, ys, node, rng.choice(ins), depth + 1, share)
            else:
                entries.append((Label(x, ys.pop(0)), node))

    for x, i in zip(xs, root_inputs):
        budget = rng.randint(len(outs), len(outs) ** max_depth)
        grow(x, [str(k) for k in range(budget)], (), i, 1, budget)
    target = [b for b, _ in entries]
    return CodeMap(source, target, entries)
