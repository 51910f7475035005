"""Deciders for simulation, reachable-part isomorphism, and delay simulation.

All three are computed on finite systems only.  The simulation deciders run
a greatest-fixpoint deletion loop over the product of the reachable state
sets; the isomorphism decider uses a forced construction when both sides are
deterministic and falls back to bounded backtracking otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple

from .errors import AlphabetMismatch, IsomorphismInconclusive, NotDeterministic
from .lts import Label, Lts, explore, is_deterministic, traces_up_to

__all__ = [
    "Relation",
    "find_simulation",
    "is_simulation",
    "TraceSimAgreement",
    "trace_inclusion_equiv_check",
    "find_isomorphism_reachable",
    "find_delay_simulation",
    "is_delay_simulation",
]

ISO_BUDGET = 10**6


@dataclass(frozen=True)
class Relation:
    """A relation between the state sets of two systems."""

    pairs: frozenset[tuple[str, str]]

    def __contains__(self, pair: tuple[str, str]) -> bool:
        return pair in self.pairs

    def __iter__(self) -> Iterator[tuple[str, str]]:
        return iter(sorted(self.pairs))

    def __len__(self) -> int:
        return len(self.pairs)


def _require_same_variant(m: Lts, n: Lts) -> None:
    kinds = {a.is_mealy for a in m.alphabet} | {a.is_mealy for a in n.alphabet}
    if len(kinds) > 1:
        raise AlphabetMismatch("cannot relate atomic labels with Mealy labels")


def find_simulation(m: Lts, n: Lts) -> Relation | None:
    """Greatest simulation from ``m`` to ``n`` containing the initial pair.

    Starts from the full product of the reachable parts and deletes pairs
    that violate the transfer property (every move of the left state must be
    matched by an equally-labeled move of the right state into a surviving
    pair), sweeping in lexicographic order until stable.  Returns ``None``
    when the initial pair does not survive.
    """
    _require_same_variant(m, n)
    reach_m = sorted(m.reachable())
    reach_n = sorted(n.reachable())
    alive = {(q, p) for q in reach_m for p in reach_n}
    changed = True
    while changed:
        changed = False
        for q in reach_m:
            moves = m.out(q)
            for p in reach_n:
                if (q, p) not in alive:
                    continue
                for a, q2 in moves:
                    if not any((q2, p2) in alive for p2 in n.succ(p, a)):
                        alive.discard((q, p))
                        changed = True
                        break
    if (m.initial, n.initial) not in alive:
        return None
    return Relation(frozenset(alive))


def is_simulation(m: Lts, n: Lts, relation: Relation) -> bool:
    """Re-validate a claimed simulation witness against the definition."""
    states_m, states_n = set(m.states), set(n.states)
    for q, p in relation.pairs:
        if q not in states_m or p not in states_n:
            raise ValueError(f"pair ({q}, {p}) references unknown states")
    if (m.initial, n.initial) not in relation.pairs:
        return False
    for q, p in relation.pairs:
        for a, q2 in m.out(q):
            if not any((q2, p2) in relation.pairs for p2 in n.succ(p, a)):
                return False
    return True


class TraceSimAgreement(NamedTuple):
    simulated: bool
    traces_included: bool


def trace_inclusion_equiv_check(m: Lts, n: Lts, k: int) -> TraceSimAgreement:
    """Compare the simulation verdict with bounded trace inclusion.

    Requires a deterministic right-hand system; for such systems the two
    verdicts agree once ``k`` is at least the product of the state counts,
    which makes this a cross-check oracle for the simulation decider.
    """
    if not is_deterministic(n):
        raise NotDeterministic("right-hand system must be deterministic")
    simulated = find_simulation(m, n) is not None
    included = traces_up_to(m, k) <= traces_up_to(n, k)
    return TraceSimAgreement(simulated, included)


# -- isomorphism of reachable parts ---------------------------------------


def _deterministic_on(m: Lts, reach: frozenset[str]) -> bool:
    for q in reach:
        seen: dict[Label, str] = {}
        for a, dst in m.out(q):
            if a in seen and seen[a] != dst:
                return False
            seen[a] = dst
    return True


def _forced_isomorphism(m: Lts, n: Lts) -> dict[str, str] | None:
    """Match states of two deterministic systems by their access words."""
    mapping = {m.initial: n.initial}
    todo = [(m.initial, n.initial)]
    while todo:
        q, p = todo.pop()
        edges_q = {a: dst for a, dst in m.out(q)}
        edges_p = {a: dst for a, dst in n.out(p)}
        if set(edges_q) != set(edges_p):
            return None
        for a, q2 in sorted(edges_q.items(), key=lambda e: str(e[0])):
            p2 = edges_p[a]
            if q2 in mapping:
                if mapping[q2] != p2:
                    return None
            else:
                mapping[q2] = p2
                todo.append((q2, p2))
    if len(set(mapping.values())) != len(mapping):
        return None
    if len(mapping) != len(n.reachable()):
        return None
    return mapping


def _signature(m: Lts, q: str, reach: frozenset[str]) -> tuple:
    outs = tuple(sorted((str(a), sum(1 for d in m.succ(q, a) if d in reach))
                        for a in m.out_labels(q)))
    ins: dict[str, int] = {}
    for src, a, dst in m.transitions:
        if dst == q and src in reach:
            ins[str(a)] = ins.get(str(a), 0) + 1
    return (q == m.initial, outs, tuple(sorted(ins.items())))


def find_isomorphism_reachable(
    m: Lts, n: Lts, budget: int = ISO_BUDGET
) -> dict[str, str] | None:
    """A bijection between reachable parts preserving the initial state and
    all transitions in both directions, or ``None`` when there is none.

    Deterministic systems are matched canonically by access words; otherwise
    a backtracking search runs with a node budget and raises
    ``IsomorphismInconclusive`` when the budget is exhausted.
    """
    _require_same_variant(m, n)
    reach_m, reach_n = m.reachable(), n.reachable()
    if len(reach_m) != len(reach_n):
        return None
    if _deterministic_on(m, reach_m) and _deterministic_on(n, reach_n):
        return _forced_isomorphism(m, n)

    order = explore([m.initial], m.out, str, m.alphabet).states
    sig_n: dict[str, tuple] = {p: _signature(n, p, reach_n) for p in reach_n}
    candidates: dict[str, list[str]] = {}
    for q in order:
        sig = _signature(m, q, reach_m)
        candidates[q] = sorted(p for p in reach_n if sig_n[p] == sig)
        if not candidates[q]:
            return None

    mapping: dict[str, str] = {}
    used: set[str] = set()
    nodes = 0

    def consistent(q: str, p: str) -> bool:
        for q2, p2 in mapping.items():
            for a in m.alphabet | n.alphabet:
                if (q2 in m.succ(q, a)) != (p2 in n.succ(p, a)):
                    return False
                if (q in m.succ(q2, a)) != (p in n.succ(p2, a)):
                    return False
        # Self-loops must correspond as well.
        for a in m.alphabet | n.alphabet:
            if (q in m.succ(q, a)) != (p in n.succ(p, a)):
                return False
        return True

    def assign(idx: int) -> bool:
        nonlocal nodes
        if idx == len(order):
            return True
        q = order[idx]
        for p in candidates[q]:
            if p in used:
                continue
            if q == m.initial and p != n.initial:
                continue
            nodes += 1
            if nodes > budget:
                raise IsomorphismInconclusive(
                    f"isomorphism search exceeded {budget} nodes"
                )
            if not consistent(q, p):
                continue
            mapping[q] = p
            used.add(p)
            if assign(idx + 1):
                return True
            del mapping[q]
            used.discard(p)
        return False

    if not assign(0):
        return None
    return dict(mapping)


# -- delay simulation ------------------------------------------------------


def _tau_closure(n: Lts, tau: Label) -> dict[str, tuple[str, ...]]:
    closure: dict[str, tuple[str, ...]] = {}
    for p in n.reachable():
        seen = {p}
        todo = [p]
        while todo:
            r = todo.pop()
            for dst in n.succ(r, tau):
                if dst not in seen:
                    seen.add(dst)
                    todo.append(dst)
        closure[p] = tuple(sorted(seen))
    return closure


def find_delay_simulation(m: Lts, n: Lts, tau: Label) -> Relation | None:
    """Greatest delay simulation from ``m`` to ``n`` containing the initial pair.

    A hidden move of the left system may be answered by any number of hidden
    moves on the right, including none; a visible move must be matched after
    a hidden run, with no trailing hidden closure.
    """
    _require_same_variant(m, n)
    if tau not in m.alphabet or tau not in n.alphabet:
        raise AlphabetMismatch(f"hidden label {tau} must be in both alphabets")
    reach_m = sorted(m.reachable())
    reach_n = sorted(n.reachable())
    closure = _tau_closure(n, tau)
    # Precompute the visible answer sets: from p, a hidden run then one a-step.
    answers: dict[tuple[str, Label], tuple[str, ...]] = {}
    for p in reach_n:
        by_label: dict[Label, set[str]] = {}
        for p1 in closure[p]:
            for a, p2 in n.out(p1):
                if a != tau:
                    by_label.setdefault(a, set()).add(p2)
        for a, targets in by_label.items():
            answers[(p, a)] = tuple(sorted(targets))
    alive = {(q, p) for q in reach_m for p in reach_n}
    changed = True
    while changed:
        changed = False
        for q in reach_m:
            moves = m.out(q)
            for p in reach_n:
                if (q, p) not in alive:
                    continue
                for a, q2 in moves:
                    if a == tau:
                        ok = any((q2, p2) in alive for p2 in closure[p])
                    else:
                        ok = any(
                            (q2, p2) in alive for p2 in answers.get((p, a), ())
                        )
                    if not ok:
                        alive.discard((q, p))
                        changed = True
                        break
    if (m.initial, n.initial) not in alive:
        return None
    return Relation(frozenset(alive))


def is_delay_simulation(m: Lts, n: Lts, tau: Label, relation: Relation) -> bool:
    """Re-validate a claimed delay-simulation witness."""
    if (m.initial, n.initial) not in relation.pairs:
        return False
    closure = _tau_closure(n, tau)
    for q, p in relation.pairs:
        for a, q2 in m.out(q):
            if a == tau:
                ok = any((q2, p2) in relation.pairs for p2 in closure.get(p, (p,)))
            else:
                ok = any(
                    (q2, p2) in relation.pairs
                    for p1 in closure.get(p, (p,))
                    for p2 in n.succ(p1, a)
                )
            if not ok:
                return False
    return True
