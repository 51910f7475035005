"""The benchmark's own system builders, each with an answer fixed by construction.

Every builder takes the tracer so that its ``Lts`` constructions show up as
``lts.build`` spans.  State names are zero-padded so that sorted order is
index order; the simulation deciders sweep states in sorted order, so the
cost of an instance does not depend on how the seed happens to name states.
"""

from __future__ import annotations

import random
import string

from actioncodes import CodeMap, Label, Lts
from actioncodes.generate import mealy_alphabet

A = Label("a")
FRESH = Label("zz")


def build(t, states, initial, transitions, alphabet) -> Lts:
    return t.call("lts.build", Lts, list(states), initial, list(transitions), list(alphabet))


def chain(t, length: int, prefix: str, label: Label = A, extra=()) -> Lts:
    """``length`` steps on one label; ``extra`` labels join the alphabet only."""
    ids = [f"{prefix}{k:04d}" for k in range(length + 1)]
    edges = [(ids[k], label, ids[k + 1]) for k in range(length)]
    return build(t, ids, ids[0], edges, [label, *extra])


def dense(t, rng: random.Random, states: int, labels: list[Label], fanout: int) -> Lts:
    """Every state has ``fanout`` random successors per label."""
    ids = [f"d{k:04d}" for k in range(states)]
    edges = [(q, a, d) for q in ids for a in labels for d in rng.sample(ids, fanout)]
    return build(t, ids, ids[0], edges, labels)


def connected_deterministic(t, rng: random.Random, states: int, labels: list[Label],
                            density: float) -> Lts:
    """A deterministic system with every state reachable.

    A random tree over the states first, each attached through a free
    (state, label) slot; then every slot still free gets an edge to a random
    state with probability ``density``.
    """
    ids = [f"s{k:05d}" for k in range(states)]
    free = [(ids[0], a) for a in labels]
    edges = []
    for q in ids[1:]:
        k = rng.randrange(len(free))
        src, a = free[k]
        free[k] = free[-1]
        free.pop()
        edges.append((src, a, q))
        free.extend((q, b) for b in labels)
    for src, a in free:
        if rng.random() < density:
            edges.append((src, a, rng.choice(ids)))
    return build(t, ids, ids[0], edges, labels)


def renamed(t, rng: random.Random, m: Lts, prefix: str) -> tuple[Lts, dict[str, str]]:
    """A copy with shuffled state names; returns the copy and the renaming."""
    names = [f"{prefix}{k:04d}" for k in range(len(m.states))]
    rng.shuffle(names)
    ren = dict(zip(m.states, names))
    edges = [(ren[s], a, ren[d]) for s, a, d in sorted(m.transitions, key=_edge_key)]
    return build(t, sorted(names), ren[m.initial], edges, m.alphabet), ren


def with_noise(t, rng: random.Random, m: Lts, prefix: str, extra: int) -> Lts:
    """A renamed copy with ``extra`` random edges added: it simulates ``m``."""
    copy, _ = renamed(t, rng, m, prefix)
    ids = list(copy.states)
    labels = sorted(copy.alphabet, key=str)
    edges = set(copy.transitions)
    for _ in range(extra):
        edges.add((rng.choice(ids), rng.choice(labels), rng.choice(ids)))
    return build(t, ids, copy.initial, sorted(edges, key=_edge_key), labels)


def with_fresh_edge(t, rng: random.Random, m: Lts) -> Lts:
    """``m`` plus one reachable edge on a label ``m`` lacks: no simulation
    by ``m`` can match it."""
    src = rng.choice(sorted(m.reachable()))
    dst = rng.choice(list(m.states))
    edges = sorted(m.transitions, key=_edge_key) + [(src, FRESH, dst)]
    return build(t, m.states, m.initial, edges, [*m.alphabet, FRESH])


def without_reachable_edge(t, rng: random.Random, m: Lts) -> Lts:
    """``m`` minus one edge leaving a reachable state.

    The reachable part loses that edge, and possibly states; either way it
    has fewer edges or fewer states than before, so it is not isomorphic to
    the reachable part of ``m``.
    """
    reach = m.reachable()
    edges = sorted((e for e in m.transitions if e[0] in reach), key=_edge_key)
    gone = rng.choice(edges)
    kept = [e for e in sorted(m.transitions, key=_edge_key) if e != gone]
    return build(t, m.states, m.initial, kept, m.alphabet)


def with_tau(t, m: Lts, tau: Label) -> Lts:
    """The same system with the hidden label added to its alphabet."""
    return build(t, m.states, m.initial, sorted(m.transitions, key=_edge_key),
                 [*m.alphabet, tau])


def tau_padded(t, m: Lts, tau: Label) -> Lts:
    """Each edge ``q -a-> r`` becomes ``q -tau-> mid -a-> r``.

    The padded system and ``m`` (with tau in its alphabet) delay-simulate
    each other: a hidden move is answered by standing still, and the middle
    state is related to the source of its edge.
    """
    states = list(m.states)
    edges = []
    for k, (q, a, r) in enumerate(sorted(m.transitions, key=_edge_key)):
        mid = f"{q}~{k:05d}"
        states.append(mid)
        edges += [(q, tau, mid), (mid, a, r)]
    return build(t, states, m.initial, edges, [*m.alphabet, tau])


def full_adaptor_code(rng: random.Random, inputs: int, outputs: int, abstract: int,
                      depth: int) -> CodeMap:
    """An adaptor code that answers every abstract input after exactly
    ``depth`` exchanges with the SUT.

    As in ``gen_adaptor_code``, each abstract input starts with its own
    concrete input and every internal node offers one concrete input with
    an edge for each output, so the code is determinate, winning for every
    abstract input, and complete for any machine over the same alphabet.
    Unlike there, every leaf is at the same depth, so the work per abstract
    input does not depend on the seed or on what the SUT answers.
    """
    ins = list(string.ascii_lowercase[:inputs])
    outs = [str(k) for k in range(outputs)]
    entries = []
    for x, first in zip(string.ascii_uppercase[:abstract], rng.sample(ins, abstract)):
        words: list[tuple[Label, ...]] = [()]
        for level in range(depth):
            grown = []
            for w in words:
                i = first if level == 0 else rng.choice(ins)
                grown += [w + (Label(i, o),) for o in outs]
            words = grown
        entries += [(Label(x, str(k)), w) for k, w in enumerate(words)]
    return CodeMap(mealy_alphabet(inputs, outputs), [b for b, _ in entries], entries)


def ladder(bounds: tuple[int, int], count: int) -> list[int]:
    """``count`` sizes spread evenly over ``bounds``: the seed picks structure, not size."""
    lo, hi = bounds
    if count <= 1:
        return [lo] * count
    return [lo + round((hi - lo) * k / (count - 1)) for k in range(count)]


def _edge_key(edge):
    return edge[0], str(edge[1]), edge[2]
