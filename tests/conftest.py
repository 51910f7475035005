"""Shared helpers: brute-force oracles and instance construction."""

from __future__ import annotations

import gc
import itertools
import random
import time
from collections import deque
from contextlib import contextmanager
from pathlib import Path
from typing import Iterable, NamedTuple

import pytest

from actioncodes.adaptor import (
    TAU,
    InProcessSut,
    _emission,
    _learner_alphabet,
    _require_mealy_code,
    _strategy,
    is_input_enabled,
)
from actioncodes.codes import CodeMap, CodeTree, to_tree
from actioncodes.documents import code_from_document, loads, lts_from_document
from actioncodes.errors import (
    AlphabetMismatch,
    IsomorphismInconclusive,
    NotWinning,
    PrefixClash,
    SutProtocolError,
)
from actioncodes.lts import CompatRel, Label, Lts, Word, explore, is_deterministic
from actioncodes.operators import CHAOS, IncompletenessWitness
from actioncodes.simulation import ISO_BUDGET, _require_same_variant, find_simulation

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def load_fixture(name: str) -> CodeMap | Lts:
    """The committed document ``fixtures/<name>``: a code for ``*.code.json``,
    a system otherwise."""
    doc = loads((FIXTURES / name).read_text(encoding="utf-8"))
    return code_from_document(doc) if name.endswith(".code.json") else lts_from_document(doc)


@contextmanager
def cpu_bound(seconds: float):
    """Fail unless the block takes under ``seconds`` of process time.  A full
    collection runs first, so garbage that earlier tests left behind is not
    collected, and charged, inside the bound; the collector stays on."""
    gc.collect()
    start = time.process_time()
    yield
    elapsed = time.process_time() - start
    assert elapsed < seconds, f"took {elapsed:.4f} s of CPU time; the bound is {seconds} s"


def pytest_collection_finish(session):
    """Freeze what the collected modules built, which lives as long as the
    session: each full collection that :func:`cpu_bound` runs then walks only
    the objects made since, not the whole heap again."""
    gc.collect()
    gc.freeze()


# -- brute-force oracles -----------------------------------------------------


def brute_force_simulated(m: Lts, n: Lts) -> bool:
    """Relation enumeration against the step transfer property."""
    return _some_relation_closed(m, n, lambda p, a: succ(n, p, a))


def _some_relation_closed(m: Lts, n: Lts, answers) -> bool:
    """Enumerate every relation over the reachable parts that contains the
    initial pair, and check directly whether each move ``q -a-> q2`` of a
    related ``(q, p)`` has a related ``(q2, p2)`` for some ``p2`` in
    ``answers(p, a)``."""
    reach_m = sorted(m.reachable())
    reach_n = sorted(n.reachable())
    pairs = [(q, p) for q in reach_m for p in reach_n]
    initial = (m.initial, n.initial)
    rest = [pr for pr in pairs if pr != initial]
    for bits in itertools.product((False, True), repeat=len(rest)):
        relation = {initial} | {pr for pr, bit in zip(rest, bits) if bit}
        if all(any((q2, p2) in relation for p2 in answers(p, a))
               for q, p in relation for a, q2 in m.out(q)):
            return True
    return False


def sweep_greatest_simulation(m: Lts, n: Lts, answers) -> frozenset | None:
    """The sweep that ``simulation._greatest_simulation`` replaced, kept as
    its oracle: delete failing pairs in lexicographic sweeps until stable."""
    reach_m = sorted(m.reachable())
    reach_n = sorted(n.reachable())
    alive = {(q, p) for q in reach_m for p in reach_n}
    changed = True
    while changed:
        changed = False
        for q in reach_m:
            moves = [(answers.get(a, {}), q2) for a, q2 in m.out(q)]
            for p in reach_n:
                if (q, p) not in alive:
                    continue
                for by_state, q2 in moves:
                    if not any((q2, p2) in alive for p2 in by_state.get(p, ())):
                        alive.discard((q, p))
                        changed = True
                        break
    if (m.initial, n.initial) not in alive:
        return None
    return frozenset(alive)


# The answers of a move as dicts of lists or sets, read off the definitions:
# the sweep's input, and the reference for the engine's answer masks.


def _step_answers(m: Lts, n: Lts) -> dict[Label, dict[str, list[str]]]:
    """The answers of simulation: ``n``'s equally labeled moves."""
    _require_same_variant(m, n)
    answers: dict[Label, dict[str, list[str]]] = {}
    for p in n.reachable():
        for a, p2 in n.out(p):
            answers.setdefault(a, {}).setdefault(p, []).append(p2)
    return answers


def tau_closure(n: Lts, tau: Label, p: str) -> tuple[str, ...]:
    """``p`` and every state it reaches by hidden moves alone, sorted.  A
    search of its own: the validator ``is_delay_simulation`` builds its
    closures with the package's walk, and an oracle shares no code with what
    it checks."""
    seen, queue = {p}, deque([p])
    while queue:
        for a, r in n.out(queue.popleft()):
            if a == tau and r not in seen:
                seen.add(r)
                queue.append(r)
    return tuple(sorted(seen))


def _delay_answers(m: Lts, n: Lts, tau: Label) -> dict[Label, dict[str, Iterable[str]]]:
    """The answers of delay simulation: a hidden move is answered by any
    hidden run, a visible one by a hidden run and then that move."""
    _require_same_variant(m, n)
    if tau not in m.alphabet or tau not in n.alphabet:
        raise AlphabetMismatch(f"hidden label {tau} must be in both alphabets")
    closure = {p: tau_closure(n, tau, p) for p in n.reachable()}
    answers: dict[Label, dict[str, Iterable[str]]] = {tau: closure}
    for p, run in closure.items():
        for p1 in run:
            for a, p2 in n.out(p1):
                if a != tau:
                    answers.setdefault(a, {}).setdefault(p, set()).add(p2)
    return answers


# -- traces and the winning table -----------------------------------------------
# Readings of the definitions that the package itself has no use for.


def word_targets(m: Lts, state: str, word: Word) -> frozenset[str]:
    """All states reachable from ``state`` by a run spelling ``word``."""
    current = {state}
    for label in word:
        current = {dst for q in current for dst in succ(m, q, label)}
        if not current:
            break
    return frozenset(current)


def traces_up_to(m: Lts, k: int) -> set[Word]:
    """All traces of length at most ``k``; always contains the empty word."""
    if k < 0:
        raise ValueError("k must be non-negative")
    result: set[Word] = {()}
    frontier: dict[Word, frozenset[str]] = {(): frozenset({m.initial})}
    for _ in range(k):
        extended: dict[Word, frozenset[str]] = {}
        for word, states in frontier.items():
            by_label: dict[Label, set[str]] = {}
            for q in states:
                for a, dst in m.out(q):
                    by_label.setdefault(a, set()).add(dst)
            for a, targets in by_label.items():
                extended[word + (a,)] = frozenset(targets)
        if not extended:
            break
        result.update(extended)
        frontier = extended
    return result


def succ(m: Lts, state: str, label: Label) -> tuple[str, ...]:
    """The ``label``-successors of ``state``, by a scan of its out-list."""
    return tuple(dst for a, dst in m.out(state) if a == label)


def enables(m: Lts, state: str, label: Label) -> bool:
    """Whether ``state`` has an outgoing ``label`` edge."""
    return any(a == label for a, _ in m.out(state))


def composite_name(state: str, word: Word) -> str:
    """The operators' name for a (state, pending word) pair: ``q⟨w⟩``."""
    inner = ".".join(str(a) for a in word)
    return f"{state}⟨{inner}⟩"


def has_trace(m: Lts, word: Word) -> bool:
    """Whether some run from the initial state spells ``word``."""
    return bool(word_targets(m, m.initial, word))


def multi_winner_pairs(tree: CodeTree, table) -> list[tuple[str, str]]:
    """The (node, abstract input) pairs that ``table`` wins with more than
    one concrete input, sorted."""
    inputs = {lab.symbol for _, lab in tree.leaf_labels}
    return sorted(
        (node, x)
        for node in tree.tree.states
        for x in inputs
        if len(table.winning_inputs(node, x)) > 1
    )


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
        raise ValueError("right-hand system must be deterministic")
    simulated = find_simulation(m, n) is not None
    included = traces_up_to(m, k) <= traces_up_to(n, k)
    return TraceSimAgreement(simulated, included)


def brute_force_delay_simulated(m: Lts, n: Lts, tau: Label) -> bool:
    """Relation enumeration against the delay transfer property: a hidden
    move is answered by a hidden run, a visible one by a hidden run and then
    that move."""
    clo = {p: tau_closure(n, tau, p) for p in n.reachable()}

    def answers(p, a):
        return clo[p] if a == tau else [p2 for p1 in clo[p] for p2 in succ(n, p1, a)]

    return _some_relation_closed(m, n, answers)


def observable_traces(m: Lts, k: int, tau: Label) -> set[tuple[Label, ...]]:
    """Traces of visible labels up to length k, absorbing hidden moves."""

    def closure(states):
        return frozenset(r for q in states for r in tau_closure(m, tau, q))

    result: set[tuple[Label, ...]] = {()}
    frontier = {(): closure({m.initial})}
    for _ in range(k):
        advanced = {}
        for word, states in frontier.items():
            by_label: dict[Label, set[str]] = {}
            for q in states:
                for a, dst in m.out(q):
                    if a != tau:
                        by_label.setdefault(a, set()).add(dst)
            for a, targets in by_label.items():
                advanced[word + (a,)] = closure(targets)
        if not advanced:
            break
        result.update(advanced)
        frontier = advanced
    return result


def brute_force_isomorphic(m: Lts, n: Lts) -> bool:
    """Try every bijection between the reachable parts."""
    reach_m = sorted(m.reachable())
    reach_n = sorted(n.reachable())
    if len(reach_m) != len(reach_n):
        return False
    labels = sorted(m.alphabet | n.alphabet, key=str)
    for image in itertools.permutations(reach_n):
        mapping = dict(zip(reach_m, image))
        if mapping[m.initial] != n.initial:
            continue
        if all({mapping[d] for d in succ(m, q, a) if d in mapping} == set(succ(n, mapping[q], a))
               for q in reach_m for a in labels):
            return True
    return False


def _search_isomorphism(m: Lts, n: Lts) -> dict[str, str] | None:
    """The backtracking search that ``find_isomorphism_reachable`` replaced,
    kept as its oracle: match the states of ``m`` in breadth-first order,
    each among the unused successors of its parent's image by its access
    label, checking each pick against the states already matched; equal
    state and edge counts then make the map an isomorphism.  A pick made
    while another candidate remains counts against ``ISO_BUDGET``."""
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
            if nodes > ISO_BUDGET:
                raise IsomorphismInconclusive(
                    f"isomorphism search exceeded {ISO_BUDGET} nodes"
                )
        mapping[order[depth]] = p
        used.add(p)
        if depth + 1 == len(order):
            return mapping
        found = candidates(order[depth + 1])
        images += found
        depths += [depth + 1] * len(found)
    return None


def brute_force_winning(tree: CodeTree, node: str, abstract_input: str) -> bool:
    """Direct recursive reading of the winning definition."""
    labels = dict(tree.leaf_labels)
    edges = tree.tree.out(node)
    if not edges:
        return node in labels and labels[node].symbol == abstract_input
    by_input: dict[str, list[str]] = {}
    for a, dst in edges:
        by_input.setdefault(a.symbol, []).append(dst)
    return any(
        all(brute_force_winning(tree, child, abstract_input) for child in children)
        for children in by_input.values()
    )


def brute_force_conflicts(tree: CodeTree) -> list[tuple[str, str, str, str]]:
    """Every determinacy conflict ``(node, abstract input, first input,
    second input)``, first < second, read off the access words of the
    leaves; sorted by node, then the two inputs, then the abstract input."""
    words = {tree.root: ()}
    todo = [tree.root]
    while todo:
        q = todo.pop()
        for a, dst in tree.tree.out(q):
            words[dst] = words[q] + (a,)
            todo.append(dst)
    conflicts = []
    for node, u in words.items():
        below: dict[str, set[str]] = {}  # concrete input -> abstract inputs
        for leaf, lab in tree.leaf_labels:
            w = words[leaf]
            if len(w) > len(u) and w[: len(u)] == u:
                below.setdefault(w[len(u)].symbol, set()).add(lab.symbol)
        for i1, i2 in itertools.combinations(sorted(below), 2):
            for x in below[i1] & below[i2]:
                conflicts.append((node, x, i1, i2))
    return sorted(conflicts, key=lambda c: (c[0], c[2], c[3], c[1]))


def is_tree_shaped(m: Lts) -> bool:
    """Whether the reachable part is a tree: no edge enters the initial
    state and every other reachable state is entered by exactly one edge."""
    reach = m.reachable()
    in_degree = dict.fromkeys(reach, 0)
    for q in reach:
        for _, dst in m.out(q):
            in_degree[dst] += 1
    return in_degree.pop(m.initial) == 0 and all(d == 1 for d in in_degree.values())


# -- scan-based operators ------------------------------------------------------
# The operators as they were before they walked the code's prefix tree: every
# code word is matched against the system one entry at a time, through
# ``succ``, ``enables`` and ``word_targets``.  Kept as oracles for the
# tree walks, which must agree with them exactly.


def _pending_name(key) -> str:
    return CHAOS if key == CHAOS else composite_name(*key)


def scan_contract(code: CodeMap, m: Lts) -> Lts:
    def successors(q: str):
        for b, word in code.entries:
            for q2 in sorted(word_targets(m, q, word)):
                yield b, q2

    return explore(m.initial, successors, str, code.target)


def scan_refine(code: CodeMap, n: Lts) -> Lts:
    def successors(key):
        q, w = key
        for b, word in code.entries:
            if not enables(n, q, b):
                continue
            if len(w) < len(word) and word[: len(w)] == w:
                a = word[len(w)]
                if len(w) + 1 == len(word):
                    for q2 in succ(n, q, b):
                        yield a, (q2, ())
                else:
                    yield a, (q, w + (a,))

    return explore((n.initial, ()), successors, _pending_name, code.source)


def scan_concretize(code: CodeMap, rel: CompatRel, m: Lts) -> Lts:
    source = sorted(code.source, key=str)
    prefixes: set = {()}
    complete: dict = {}
    for b, word in code.entries:
        complete[word] = b
        for i in range(1, len(word)):
            prefixes.add(word[:i])

    def successors(key):
        if key == CHAOS:
            for a in source:
                yield a, CHAOS
            return
        q, w = key
        for a in source:
            wa = w + (a,)
            if wa in prefixes:
                yield a, (q, wa)
            elif wa in complete:
                for q2 in sorted(succ(m, q, complete[wa])):
                    yield a, (q2, ())
            if all(
                w + (a2,) not in prefixes and w + (a2,) not in complete
                for a2 in rel.related(a)
            ):
                yield a, CHAOS

    return explore((m.initial, ()), successors, _pending_name, code.source)


def scan_is_icomplete(code: CodeMap, rel: CompatRel, m: Lts):
    tree = to_tree(code)
    node_edges = {q: {a: dst for a, dst in tree.tree.out(q)} for q in tree.tree.states}
    root = tree.root
    start = (m.initial, root)
    seen = {start}
    todo = deque([start])
    while todo:
        q, node = todo.popleft()
        edges = node_edges[node]
        for a in sorted(edges, key=str):
            for a2 in rel.related(a):
                if enables(m, q, a2) and a2 not in edges:
                    return False, IncompletenessWitness(q, node, a, a2)
        for a, child in sorted(edges.items(), key=lambda e: str(e[0])):
            nxt = child if node_edges[child] else root
            for q2 in succ(m, q, a):
                pair = (q2, nxt)
                if pair not in seen:
                    seen.add(pair)
                    todo.append(pair)
    return True, None


# -- scan-based SUT steps ------------------------------------------------------
# ``InProcessSut.send``, ``split_io`` and ``adaptor_composition`` as they were
# before they looked a SUT state's edges up by input: each step scans the
# state's whole out-list.  Kept as oracles for the indexed forms, which must
# draw the same seeded picks and build the same systems.


class ScanSut(InProcessSut):
    """An in-process SUT whose ``send`` scans the current state's out-list."""

    def send(self, symbol: str) -> None:
        options = [e for e in self.machine.out(self._state) if e[0].symbol == symbol]
        if not options:
            raise SutProtocolError(f"machine rejects input {symbol!r} in state {self._state!r}")
        if self._script:
            wanted = self._script.popleft()
            matching = [e for e in options if e[0].output == wanted]
            if not matching:
                raise SutProtocolError(
                    f"scripted output {wanted!r} is not enabled for input "
                    f"{symbol!r} in state {self._state!r}"
                )
            label, nxt = matching[0]
        else:
            label, nxt = self._rng.choice(options)
        self._state = nxt
        self._pending = label.output


def scan_split_io(m: Lts) -> Lts:
    if not all(a.is_mealy for a in m.alphabet):
        raise ValueError("split_io needs a Mealy machine")
    xs = sorted(m.inputs)

    def successors(key):
        if isinstance(key, str):
            for x in xs:
                yield Label(x), (key, x)
        else:
            q, x = key
            for a, dst in m.out(q):
                if a.symbol == x:
                    yield _emission(a.output), dst

    def name(key) -> str:
        return key if isinstance(key, str) else f"{key[0]}?{key[1]}"

    return explore(m.initial, successors, name, _learner_alphabet(m.alphabet))


def scan_adaptor_composition(tree: CodeTree, m: Lts) -> Lts:
    _require_mealy_code(tree._code)
    if not all(a.is_mealy for a in m.alphabet):
        raise ValueError("the SUT model must be a Mealy machine")
    wins = _strategy(tree)
    for _, lab in tree.leaf_labels:
        if lab.symbol not in wins[0]:
            raise NotWinning(lab.symbol)
    if not is_input_enabled(m):
        raise ValueError("the SUT model must be input enabled")

    xs = sorted({a.symbol for a in tree.abstract})
    alphabet = _learner_alphabet(tree.abstract)
    kids, leaf, names = tree._code._kids, tree._code._leaf, tree._names

    def successors(key):
        if key[0] == "P":
            _, q = key
            for x in xs:
                yield Label(x), ("Q", 0, x, q)
        else:
            _, node, x, q = key
            if leaf[node] is not None:
                yield _emission(leaf[node].output), ("P", q)
            elif inputs := wins[node].get(x):
                for a, q2 in m.out(q):  # one SUT transition per hidden step
                    if a.symbol == inputs[0] and a in kids[node]:
                        yield TAU, ("Q", kids[node][a], x, q2)

    def name(key) -> str:
        if key[0] == "P":
            return f"P∥{key[1]}"
        return f"Q({names[key[1]]},{key[2]})∥{key[3]}"

    return explore(("P", m.initial), successors, name, alphabet)


# -- prefix-freeness and the prefix tree -----------------------------------------


def word_prefix_tree(entries):
    """The prefix tree ``CodeMap`` kept before it numbered its nodes, keyed
    by words: each proper prefix of a code word maps its next letters, in
    rendered order, to the longer prefixes and has the set of labels whose
    words it begins; each complete word maps to its label.  Returns
    ``(children, below, leaves)``; the oracle of the numbered tables."""
    children: dict[Word, dict[Label, Word]] = {}
    below: dict[Word, set[Label]] = {}
    leaves: dict[Word, Label] = {}
    for b, word in sorted(entries, key=lambda e: tuple(str(a) for a in e[1])):
        for i, a in enumerate(word):
            prefix = word[:i]
            if prefix in leaves:
                raise PrefixClash(leaves[prefix], b)
            children.setdefault(prefix, {})[a] = word[: i + 1]
            below.setdefault(prefix, set()).add(b)
        if word in leaves:
            raise PrefixClash(leaves[word], b)
        leaves[word] = b
    return children, below, leaves



def sort_prefix_clash(entries) -> tuple[Label, Label] | None:
    """The clash ``CodeMap`` reported before it kept a prefix tree: sort the
    entries by label, then stably by rendered word, and report the first
    neighbours whose earlier word is a prefix of the later one as
    ``(first, second)``; None when the words are prefix-free."""
    by_label = sorted(entries, key=lambda e: str(e[0]))
    by_word = sorted(by_label, key=lambda e: tuple(str(a) for a in e[1]))
    for (b1, w1), (b2, w2) in zip(by_word, by_word[1:]):
        if len(w1) <= len(w2) and w2[: len(w1)] == w1:
            return b1, b2
    return None


# -- instance construction ----------------------------------------------------


def atoms(*texts: str) -> list[Label]:
    return [Label.parse(t) for t in texts]


def entry(b: str, word: str) -> tuple[Label, tuple[Label, ...]]:
    """A code entry: abstract label ``b`` and its space-separated word."""
    return (Label.parse(b), tuple(Label.parse(t) for t in word.split()))


# "a.b" is one symbol, so the tree nodes (a.b,) and (a, b) both render as a.b.
DOTTED = CodeMap(
    atoms("a.b", "a", "b", "c"),
    atoms("X", "Y"),
    [entry("X", "a.b c"), entry("Y", "a b c")],
)


def all_small_machines(states: int, labels: int) -> list[Lts]:
    """Every machine with the given state and label count (all transition sets)."""
    alphabet = [Label(s) for s in "ab"[:labels]]
    ids = [f"q{k}" for k in range(states)]
    slots = [(q, a, p) for q in ids for a in alphabet for p in ids]
    machines = []
    for bits in itertools.product((False, True), repeat=len(slots)):
        chosen = [t for t, bit in zip(slots, bits) if bit]
        machines.append(Lts(ids, ids[0], chosen, alphabet))
    return machines


def sub_machine(rng: random.Random, m: Lts, keep: float = 0.6) -> Lts:
    """Drop transitions at random; the result is simulated by the original."""
    kept = [t for t in sorted(m.transitions, key=str) if rng.random() < keep]
    return Lts(m.states, m.initial, kept, m.alphabet)


def add_noise(rng: random.Random, m: Lts, extra: int = 2) -> Lts:
    """Add random transitions; the result simulates the original."""
    states = list(m.states)
    alphabet = sorted(m.alphabet, key=str)
    added = list(m.transitions)
    for _ in range(extra):
        added.append((rng.choice(states), rng.choice(alphabet), rng.choice(states)))
    return Lts(m.states, m.initial, added, m.alphabet)


def relabel(m: Lts, prefix: str = "s") -> Lts:
    """An isomorphic copy with fresh state names."""
    mapping = {q: f"{prefix}{k}" for k, q in enumerate(m.states)}
    return Lts(
        [mapping[q] for q in m.states],
        mapping[m.initial],
        [(mapping[a], lab, mapping[b]) for a, lab, b in m.transitions],
        m.alphabet,
    )


def renamed(m: Lts, order) -> Lts:
    """A copy of ``m`` with fresh names ``c0000``, ``c0001``, ... that sort in
    the order of ``m.states`` (``"ascending"``), in the reverse order
    (``"descending"``), or in the order shuffled by the seed ``order``."""
    states = list(reversed(m.states) if order == "descending" else m.states)
    if order not in ("ascending", "descending"):
        random.Random(order).shuffle(states)
    name = {q: f"c{k:04d}" for k, q in enumerate(states)}
    return Lts(
        [name[q] for q in m.states],
        name[m.initial],
        [(name[s], a, name[d]) for s, a, d in m.transitions],
        m.alphabet,
    )


@pytest.fixture
def rng():
    return random.Random(20260810)
