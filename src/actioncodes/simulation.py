"""Deciders for simulation, reachable-part isomorphism, and delay simulation.

All three are computed on finite systems only.  Simulation and delay
simulation share one greatest-fixpoint deletion engine over the product of
the reachable state sets and differ only in the answers to a move: a first
pass deletes the pairs whose right state cannot answer some label at all,
then a worklist of deleted pairs re-checks only the pairs that used them as
an answer.  The
isomorphism decider matches states breadth first among the successors of
their parent's image, backtracking on an explicit stack.
"""

from __future__ import annotations

from functools import cache
from typing import Iterable

from .errors import AlphabetMismatch, IsomorphismInconclusive
from .lts import Label, Lts

__all__ = [
    "find_simulation",
    "is_simulation",
    "find_isomorphism_reachable",
    "find_delay_simulation",
    "is_delay_simulation",
]

ISO_BUDGET = 10**6

#: A simulation witness: the set of related (left state, right state) pairs.
Pairs = frozenset[tuple[str, str]]


def _require_same_variant(m: Lts, n: Lts) -> None:
    kinds = {a.is_mealy for a in m.alphabet} | {a.is_mealy for a in n.alphabet}
    if len(kinds) > 1:
        raise AlphabetMismatch("cannot relate atomic labels with Mealy labels")


def _greatest_simulation(m: Lts, n: Lts, answers) -> Pairs | None:
    """The one greatest-fixpoint loop behind both simulation deciders.

    Starts from the full product of the reachable parts and deletes a pair
    ``(q, p)`` as soon as some move ``(a, q2)`` of ``q`` has no answer: no
    ``p2`` in ``answers[a][p]`` with ``(q2, p2)`` still alive.  One pass
    over the states of ``m`` deletes the pairs that fail against the full
    product, where ``p`` has no answer at all to some label of ``q``.  After
    that, each deleted pair ``(q2, p2)`` re-checks only the pairs it may
    have been an answer for: ``(q, p)`` with an edge ``q -a-> q2`` and
    ``p2`` in ``answers[a][p]``, found through a reverse index of
    ``answers[a]`` (Henzinger, Henzinger & Kopke, FOCS 1995).  Labels are
    looked up only while the indexes are built, once per edge of ``m``, so
    the loops hash state names alone.  ``None`` when the initial pair dies.
    """
    reach_m = sorted(m.reachable())
    # Per label: answers[a], its reverse index back[p2] (the p answering
    # with p2), and the states with some answer.
    tables = {}
    for a, by_state in answers.items():
        back: dict[str, list[str]] = {}
        for p, targets in by_state.items():
            for p2 in targets:
                back.setdefault(p2, []).append(p)
        tables[a] = (by_state, back, {p for p, targets in by_state.items() if targets})
    unanswered = ({}, {}, set())
    everyone = n.reachable()
    alive = {}  # alive[q]: the p with (q, p) alive
    preds: dict[str, list] = {q: [] for q in reach_m}  # per edge into q2: q and its tables
    dead: list[tuple[str, str]] = []  # deleted pairs whose predecessors are unchecked
    for q in reach_m:
        alive_q = alive[q] = set(everyone)
        for a, q2 in m.out(q):
            by_state, back, answering = tables.get(a, unanswered)
            alive_q &= answering
            preds[q2].append((q, by_state, back))
        dead += [(q, p) for p in everyone - alive_q]
    initial = alive[m.initial]
    while dead and n.initial in initial:
        q2, p2 = dead.pop()
        alive_q2 = alive[q2]
        for q, by_state, back in preds[q2]:
            alive_q = alive[q]
            for p in back.get(p2, ()):
                if p in alive_q and not any(x in alive_q2 for x in by_state[p]):
                    alive_q.discard(p)
                    dead.append((q, p))
    if n.initial not in initial:
        return None
    return frozenset((q, p) for q in reach_m for p in alive[q])


def _transfer_closed(m: Lts, n: Lts, relation: Pairs, answer) -> bool:
    """Check a claimed witness against a transfer property, pair by pair.

    ``answer(p, a)`` gives the states that may answer an ``a`` move at
    ``p``; the callers compute it from the definition, not from the tables
    of :func:`_greatest_simulation`, so the check stays independent.
    """
    states_m, states_n = set(m.states), set(n.states)
    for q, p in relation:
        if q not in states_m or p not in states_n:
            raise ValueError(f"pair ({q}, {p}) references unknown states")
    return (m.initial, n.initial) in relation and all(
        any((q2, p2) in relation for p2 in answer(p, a))
        for q, p in relation
        for a, q2 in m.out(q)
    )


def find_simulation(m: Lts, n: Lts) -> Pairs | None:
    """Greatest simulation from ``m`` to ``n`` containing the initial pair.

    Every move of the left state must be matched by an equally-labeled move
    of the right state into a surviving pair.  Returns ``None`` when the
    initial pair does not survive.
    """
    _require_same_variant(m, n)
    answers: dict[Label, dict[str, list[str]]] = {}
    for p in n.reachable():
        for a, p2 in n.out(p):
            answers.setdefault(a, {}).setdefault(p, []).append(p2)
    return _greatest_simulation(m, n, answers)


def is_simulation(m: Lts, n: Lts, relation: Pairs) -> bool:
    """Re-validate a claimed simulation witness against the definition."""
    return _transfer_closed(m, n, relation, n.succ)


# -- isomorphism of reachable parts ---------------------------------------


def find_isomorphism_reachable(
    m: Lts, n: Lts, budget: int = ISO_BUDGET
) -> dict[str, str] | None:
    """A bijection between reachable parts preserving the initial state and
    all transitions in both directions, or ``None`` when there is none.

    States of ``m`` are matched in breadth-first order.  A state reached by
    an ``a`` edge from its parent can only map to an unused ``a``-successor
    of the parent's image with the same out-labels; each pick checks the
    edges to the states already matched.  Equal edge counts then make the
    map an isomorphism.  Deterministic systems never branch; otherwise the
    search backtracks, and a pick made while another candidate remains
    counts against ``budget``: past it, ``IsomorphismInconclusive``.
    """
    _require_same_variant(m, n)
    reach_n = n.reachable()
    # Breadth-first order of m.  Each edge but the access edges is checked at
    # its later endpoint: from the out-list if it leads back or loops, else
    # from ``into``.
    order = [m.initial]
    position = {m.initial: 0}
    parent: dict[str, str] = {}
    via: dict[str, Label] = {}
    into: dict[str, list[tuple[str, Label]]] = {}
    edges = 0
    for q in order:  # the list grows while it is read
        moves = m.out(q)
        edges += len(moves)
        for a, q2 in moves:
            if q2 not in position:
                position[q2] = len(order)
                order.append(q2)
                parent[q2], via[q2] = q, a
            elif position[q2] > position[q]:
                into.setdefault(q2, []).append((q, a))
    if len(order) != len(reach_n) or edges != sum(len(n.out(p)) for p in reach_n):
        return None

    mapping: dict[str, str] = {}
    used: set[str] = set()

    def candidates(q: str) -> list[str]:
        """Images of ``q`` that fit the states matched so far, last one first."""
        pool = [n.initial] if q == m.initial else [
            p for b, p in n.out(mapping[parent[q]]) if b == via[q] and p not in used
        ]
        moves = m.out(q)
        labels = [a for a, _ in moves]
        fitting = []
        for p in reversed(pool):
            mapping[q] = p
            edges_p = n.out(p)
            if (
                [a for a, _ in edges_p] == labels
                and all(
                    (a, mapping[q2]) in edges_p
                    for a, q2 in moves
                    if position[q2] <= position[q]
                )
                and all((a, p) in n.out(mapping[q1]) for q1, a in into.get(q, ()))
            ):
                fitting.append(p)
        mapping.pop(q, None)
        return fitting

    # Untried candidates, the next one last, with the depth each one is for.
    images = candidates(m.initial)
    depths = [0] * len(images)
    nodes = 0
    while images:
        p, depth = images.pop(), depths.pop()
        while len(mapping) > depth:  # backtrack
            used.discard(mapping.pop(order[len(mapping) - 1]))
        if depths and depths[-1] == depth:
            nodes += 1
            if nodes > budget:
                raise IsomorphismInconclusive(
                    f"isomorphism search exceeded {budget} nodes"
                )
        mapping[order[depth]] = p
        used.add(p)
        if depth + 1 == len(order):
            return mapping
        found = candidates(order[depth + 1])
        images += found
        depths += [depth + 1] * len(found)
    return None


# -- delay simulation ------------------------------------------------------


def _tau_closure(n: Lts, tau: Label, p: str) -> tuple[str, ...]:
    """``p`` and every state it reaches by hidden moves alone, sorted."""
    seen = {p}
    todo = [p]
    while todo:
        r = todo.pop()
        for dst in n.succ(r, tau):
            if dst not in seen:
                seen.add(dst)
                todo.append(dst)
    return tuple(sorted(seen))


def find_delay_simulation(m: Lts, n: Lts, tau: Label) -> Pairs | None:
    """Greatest delay simulation from ``m`` to ``n`` containing the initial pair.

    A hidden move of the left system may be answered by any number of hidden
    moves on the right, including none; a visible move must be matched after
    a hidden run, with no trailing hidden closure.
    """
    _require_same_variant(m, n)
    if tau not in m.alphabet or tau not in n.alphabet:
        raise AlphabetMismatch(f"hidden label {tau} must be in both alphabets")
    closure = {p: _tau_closure(n, tau, p) for p in n.reachable()}
    answers: dict[Label, dict[str, Iterable[str]]] = {tau: closure}
    for p, run in closure.items():
        for p1 in run:
            for a, p2 in n.out(p1):
                if a != tau:
                    answers.setdefault(a, {}).setdefault(p, set()).add(p2)
    return _greatest_simulation(m, n, answers)


def is_delay_simulation(m: Lts, n: Lts, tau: Label, relation: Pairs) -> bool:
    """Re-validate a claimed delay-simulation witness.

    Answers are computed once per right-hand state and label that the
    relation asks about, after its states are known to exist.
    """
    closure: dict[str, tuple[str, ...]] = {}

    @cache
    def answer(p: str, a: Label) -> tuple[str, ...]:
        if p not in closure:
            closure[p] = _tau_closure(n, tau, p)
        if a == tau:
            return closure[p]
        return tuple(p2 for p1 in closure[p] for p2 in n.succ(p1, a))

    return _transfer_closed(m, n, relation, answer)
