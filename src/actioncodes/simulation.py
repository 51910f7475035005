"""Deciders for simulation, reachable-part isomorphism, and delay simulation.

All three are computed on finite systems only.  Simulation and delay
simulation share one greatest-fixpoint engine over bit masks, built from the
out-lists, that deletes pairs by pre-image; they differ only in the answers
to a move.  It runs over the whole product of the reachable parts for
``find_simulation`` and ``find_delay_simulation``, which return the greatest
relation, and over the pairs that the game reaches from the initial pair for
callers that want a verdict alone, which build no relation.  The isomorphism
decider is one search: it pairs every forced image first and chooses an
image only among the targets of a repeated label, backtracking on an
explicit stack; only a choice that leaves an alternative counts against its
budget, so deterministic systems never spend it.
"""

from __future__ import annotations

from collections import Counter
from functools import cache, reduce
from itertools import compress, count, groupby, islice
from operator import itemgetter, or_

from .errors import AlphabetMismatch, IsomorphismInconclusive
from .lts import Label, Lts, walk

__all__ = [
    "find_simulation",
    "is_simulation",
    "find_isomorphism_reachable",
    "find_delay_simulation",
    "is_delay_simulation",
]

ISO_BUDGET = 10**6
_BIT_BYTES = bytes.maketrans(b"01", b"\0\1")

#: A simulation witness: the set of related (left state, right state) pairs.
Pairs = frozenset[tuple[str, str]]


def _require_same_variant(m: Lts, n: Lts) -> None:
    kinds = {a.is_mealy for a in m.alphabet} | {a.is_mealy for a in n.alphabet}
    if len(kinds) > 1:
        raise AlphabetMismatch("cannot relate atomic labels with Mealy labels")


def _union(rows: list[int], mask: int) -> int:
    """The union of ``rows[i]`` over the set bits ``i`` of ``mask``; past
    eight bits, ORed in C over the scan of :func:`_bits`."""
    if mask.bit_count() > 8:
        return reduce(or_, compress(rows, _bits(mask)), 0)
    union = 0
    while mask:
        low = mask & -mask
        union |= rows[low.bit_length() - 1]
        mask ^= low
    return union


def _bits(mask: int) -> bytes:
    """``mask`` as one byte per bit, 1 or 0, lowest bit first."""
    return bin(mask)[:1:-1].encode().translate(_BIT_BYTES)


def _indices(mask: int):
    """The positions of the set bits of ``mask``, lowest first; past eight
    bits, from the scan of :func:`_bits`."""
    if mask.bit_count() > 8:
        yield from compress(count(), _bits(mask))
        return
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _closures(rows: list[int]) -> list[int]:
    """Per ``i``, the mask of the states that ``rows`` reaches from ``i`` in
    zero or more steps."""
    closures = []
    for i in range(len(rows)):
        seen = frontier = 1 << i
        while frontier:
            frontier = _union(rows, frontier) & ~seen
            seen |= frontier
        closures.append(seen)
    return closures


def _answer_tables(n: Lts, tau: Label | None) -> tuple[list[str], dict[Label, tuple]]:
    """``n``'s reachable states, sorted, whose positions number the bits of
    every mask, and per label the masks ``(ans, pre, answering, targets)``:
    in ``ans[i]`` the states that answer a move at ``i``, in ``pre[j]`` those
    that may answer with ``j``, in ``answering`` those with some answer, in
    ``targets`` those that some state may answer with.

    Without ``tau``, one pass over the out-lists gives the step masks per
    label and their reverse, the answers of simulation.  With ``tau``, one
    pass splits them into hidden steps and visible edges.  A hidden move is
    answered by the closure under hidden steps, its transpose the reverse.
    A visible edge ``k -a-> j`` answers at each ``i`` whose closure holds
    ``k``: it sets bit ``j`` of their ``ans`` rows and adds them to ``pre[j]``.
    """
    names = sorted(n.reachable())
    index = {p: i for i, p in enumerate(names)}
    width = len(names)
    steps: dict[Label, tuple[list[int], list[int]]] = {}
    if tau is None:
        for i, p in enumerate(names):
            for a, p2 in n.out(p):
                if a not in steps:
                    steps[a] = [0] * width, [0] * width
                forward, back = steps[a]
                j = index[p2]
                forward[i] |= 1 << j
                back[j] |= 1 << i
    else:
        hidden, edges = [0] * width, []
        for k, p in enumerate(names):
            for a, p2 in n.out(p):
                if a == tau:
                    hidden[k] |= 1 << index[p2]
                else:
                    edges.append((k, a, index[p2]))
        closure, reverse = _closures(hidden), [0] * width
        for i, row in enumerate(closure):
            for k in _indices(row):
                reverse[k] |= 1 << i
        steps[tau] = closure, reverse
        for k, a, j in edges:
            if a not in steps:
                steps[a] = [0] * width, [0] * width
            ans, pre = steps[a]
            for i in _indices(reverse[k]):
                ans[i] |= 1 << j
            pre[j] |= reverse[k]
    powers = [1 << i for i in range(width)]
    return names, {
        a: (ans, pre, sum(compress(powers, ans)), sum(compress(powers, pre)))
        for a, (ans, pre) in steps.items()
    }


def _greatest_simulation(
    m: Lts, n: Lts, tau: Label | None = None, from_initial: bool = False
) -> tuple[list[str], dict[str, int]] | None:
    """The one greatest-fixpoint engine behind both deciders: simulation, or
    with ``tau`` delay simulation, after checking that the labels are of one
    kind and ``tau`` in both alphabets.  ``alive[q]`` is the mask of the
    ``p`` with ``(q, p)`` still related (see :func:`_answer_tables`).

    The pairs take part from the whole product of the reachable parts, or,
    with ``from_initial``, only those the game reaches from the initial
    pair: ``(q, p)`` leads to ``(q2, p2)`` for each move ``q -a-> q2`` and
    each answer ``p2`` of ``p``, and is expanded only when ``p`` answers
    every label of ``q`` (Fernandez & Mounier, CAV 1991).  The result is
    the greatest simulation within those pairs.

    Pairs whose ``p`` lacks an answer to some label of ``q`` die first.  A
    left state is pending while its predecessors are unchecked against its
    shrunken alive set.  Popping ``q2`` takes, per label ``a`` into it, the
    pre-image ``keep``, the union of ``pre`` over ``alive[q2] & targets``:
    the ``p`` with an ``a`` answer into the relation (Henzinger, Henzinger &
    Kopke, FOCS 1995).  Each ``q -a-> q2`` cuts ``alive[q]`` down to
    ``keep``, and a ``q`` that lost pairs is pending again.  The left states
    are seeded in reversed depth-first postorder, so the LIFO pops from the
    sinks back and, off cycles, each state after its successors, whatever
    the states are named.  ``None`` once the initial pair dies, else ``names``
    and ``alive``.
    """
    _require_same_variant(m, n)
    if tau is not None and (tau not in m.alphabet or tau not in n.alphabet):
        raise AlphabetMismatch(f"hidden label {tau} must be in both alphabets")
    names, tables = _answer_tables(n, tau)
    reach_m = m._postorder()[::-1]
    full = (1 << len(names)) - 1
    fit = {}  # fit[q]: the p that answer every label of q
    preds: dict[str, dict[Label, list[str]]] = {q: {} for q in reach_m}
    for q in reach_m:
        mask = full
        for a, q2 in m.out(q):
            if a in tables:
                mask &= tables[a][2]
                preds[q2].setdefault(a, []).append(q)
            else:
                mask = 0
        fit[q] = mask
    start = 1 << names.index(n.initial)
    if from_initial:
        reached = dict.fromkeys(reach_m, 0)
        reached[m.initial] = start
        todo = [(m.initial, start)]
        while todo:
            q, new = todo.pop()
            new &= fit[q]
            if new:
                for a, q2 in m.out(q):
                    fresh = _union(tables[a][0], new) & ~reached[q2]
                    if fresh:
                        reached[q2] |= fresh
                        todo.append((q2, fresh))
    else:
        reached = dict.fromkeys(reach_m, full)
    alive = {q: reached[q] & fit[q] for q in reach_m}
    pending = dict.fromkeys(q for q in reach_m if reached[q] & ~fit[q])  # a LIFO set
    while pending and alive[m.initial] & start:
        q2, _ = pending.popitem()
        alive_q2 = alive[q2]
        for a, qs in preds[q2].items():
            _, pre, _, targets = tables[a]
            keep = _union(pre, alive_q2 & targets)
            for q in qs:
                alive_q = alive[q]
                if alive_q & ~keep:
                    alive[q] = alive_q & keep
                    pending[q] = None
    if not alive[m.initial] & start:
        return None
    return names, alive


def _pairs(masks: tuple[list[str], dict[str, int]] | None) -> Pairs | None:
    """The relation that :func:`_greatest_simulation` returns as masks, as a
    set of name pairs, each mask read by :func:`_indices`."""
    if masks is None:
        return None
    names, alive = masks
    return frozenset([(q, names[i]) for q, mask in alive.items() for i in _indices(mask)])


def _transfer_closed(m: Lts, n: Lts, relation: Pairs, answer) -> bool:
    """Check a claimed witness against a transfer property, left state by
    left state.

    ``answer(p, a)`` gives the states that may answer an ``a`` move at
    ``p``; the callers compute it from the definition, not from the tables
    of :func:`_greatest_simulation`, so the check stays independent.
    """
    states_m, states_n = set(m.states), set(n.states)
    related: dict[str, set[str]] = {}  # related[q]: the p with (q, p) in the relation
    for q, p in relation:
        if q not in states_m or p not in states_n:
            raise ValueError(f"pair ({q}, {p}) references unknown states")
        related.setdefault(q, set()).add(p)
    return n.initial in related.get(m.initial, ()) and all(
        not related.get(q2, set()).isdisjoint(answer(p, a))
        for q, ps in related.items()
        for a, q2 in m.out(q)
        for p in ps
    )


def find_simulation(m: Lts, n: Lts) -> Pairs | None:
    """Greatest simulation from ``m`` to ``n`` containing the initial pair.

    Every move of the left state must be matched by an equally-labeled move
    of the right state into a surviving pair.  Returns ``None`` when the
    initial pair does not survive.
    """
    return _pairs(_greatest_simulation(m, n))


def _simulates(m: Lts, n: Lts, tau: Label | None = None) -> bool:
    """Whether ``n`` simulates ``m``, or with ``tau`` delay-simulates it,
    deciding only the pairs that the game from the initial pair reaches."""
    return _greatest_simulation(m, n, tau, from_initial=True) is not None


def _succ(n: Lts):
    """``(p, a) -> p``'s ``a``-successors, grouping each asked state's sorted
    out-list by label once.  The grouping lives as long as the function."""
    groups = cache(lambda p: {a: [dst for _, dst in g] for a, g in groupby(n.out(p), itemgetter(0))})
    return lambda p, a: groups(p).get(a, ())


def is_simulation(m: Lts, n: Lts, relation: Pairs) -> bool:
    """Re-validate a claimed simulation witness against the definition."""
    return _transfer_closed(m, n, relation, _succ(n))


# -- isomorphism of reachable parts ---------------------------------------


def find_isomorphism_reachable(m: Lts, n: Lts) -> dict[str, str] | None:
    """A bijection between reachable parts preserving the initial state and
    all transitions in both directions, or ``None`` when there is none.

    Matched pairs are expanded in the order they were matched: their
    out-labels must agree, the targets of a label that the state of ``m``
    does not repeat pair at once, and a repeated label leaves a group, its
    targets in ``m`` and in ``n``.  As in DPLL (Davis, Logemann & Loveland
    1962), an image is chosen only when nothing is left to expand: the first
    unpaired target of the first open group tries each unused state of its
    ``n`` group with its out-labels and, as in VF2 (Cordella et al. 2004),
    its edges to the matched states.  A closed group must hold its images;
    with equal state counts and in-degree multisets, checked at the first
    choice, a complete map is an isomorphism.  A conflict backtracks to the
    last choice with an image left.  A pick that leaves another image counts
    against ``ISO_BUDGET``, past which it raises ``IsomorphismInconclusive``,
    so a deterministic ``m`` spends none.
    """
    _require_same_variant(m, n)
    mapping: dict[str, str] = {}
    used: set[str] = set()
    order: list[str] = []  # m's matched states, in the order they were matched
    groups: list[tuple[list[str], list[str]]] = []
    sizes = None  # state counts and in-degrees, compared at the first decision

    def expand(start: int) -> bool:
        """Expand the pairs from ``order[start]`` on; False on a conflict."""
        for q in islice(order, start, None):  # the list grows while it is read
            p = mapping[q]
            moves, answers = m.out(q), n.out(p)
            labels = [a for a, _ in moves]
            if labels != [b for b, _ in answers]:
                return False
            pairs = zip(moves, answers)
            if len(set(labels)) < len(labels):
                runs, pairs = pairs, []
                for _, run in groupby(runs, key=lambda edges: edges[0][0]):
                    run = list(run)
                    if len(run) == 1:
                        pairs += run
                    else:
                        groups.append(([q2 for (_, q2), _ in run], [p2 for _, (_, p2) in run]))
            for (_, q2), (_, p2) in pairs:
                image = mapping.get(q2)
                if image is None:
                    if p2 in used:
                        return False
                    mapping[q2] = p2
                    used.add(p2)
                    order.append(q2)
                elif image != p2:
                    return False
        return True

    def fits(q: str, p: str) -> bool:
        """Whether ``p`` is unused, has ``q``'s out-labels, and has each edge
        that ``q`` has to a matched state, with ``q`` mapped to it."""
        edges = n.out(p)
        return (
            p not in used
            and [a for a, _ in edges] == [a for a, _ in m.out(q)]
            and all((a, mapping.get(q2, p)) in edges for a, q2 in m.out(q) if q2 in mapping or q2 == q)
        )

    # The decisions with images left, the next one last: the matched states
    # and the groups before it, the groups closed, its state and its images.
    stack = [(0, 0, 0, m.initial, [n.initial])]
    nodes = 0
    while stack:
        depth, width, closed, q, images = stack[-1]
        p = images.pop()
        if not images:
            stack.pop()
        elif (nodes := nodes + 1) > ISO_BUDGET:
            raise IsomorphismInconclusive(f"isomorphism search exceeded {ISO_BUDGET} nodes")
        for q1 in order[depth:]:  # backtrack
            used.discard(mapping.pop(q1))
        del order[depth:], groups[width:]
        mapping[q] = p
        used.add(p)
        order.append(q)
        if not expand(depth):
            continue
        while closed < len(groups):
            targets, answers = groups[closed]
            free = [q2 for q2 in targets if q2 not in mapping]
            if free or any(mapping[q2] not in answers for q2 in targets):
                break
            closed += 1
        else:
            return mapping
        if not free:  # a closed group holds an image outside its answers
            continue
        if sizes is None:  # the first decision
            sizes = [(len(x.reachable()),
                      sorted(Counter(q2 for q1 in x.reachable() for _, q2 in x.out(q1)).values()))
                     for x in (m, n)]
            if sizes[0] != sizes[1]:
                return None
        images = [p for p in reversed(answers) if fits(free[0], p)]
        if images:
            stack.append((len(order), len(groups), closed, free[0], images))
    return None


# -- delay simulation ------------------------------------------------------


def find_delay_simulation(m: Lts, n: Lts, tau: Label) -> Pairs | None:
    """Greatest delay simulation from ``m`` to ``n`` containing the initial pair.

    A hidden move of the left system may be answered by any number of hidden
    moves on the right, including none; a visible move must be matched after
    a hidden run, with no trailing hidden closure.
    """
    return _pairs(_greatest_simulation(m, n, tau))


def is_delay_simulation(m: Lts, n: Lts, tau: Label, relation: Pairs) -> bool:
    """Re-validate a claimed delay-simulation witness.

    Answers are computed once per right-hand state and label that the
    relation asks about, after its states are known to exist.
    """
    succ = _succ(n)
    closure = cache(lambda p: tuple(walk(p, lambda r: succ(r, tau))))  # p and what its hidden runs reach

    @cache
    def answer(p: str, a: Label) -> tuple[str, ...]:
        if a == tau:
            return closure(p)
        return tuple(p2 for p1 in closure(p) for p2 in succ(p1, a))

    return _transfer_closed(m, n, relation, answer)
