"""The three operators a code induces on systems, and the completeness check.

Contraction collapses every complete code-word run of a concrete system into
one abstract transition.  Refinement expands each abstract transition into
its code-word path, sharing prefixes so determinism survives.  Concretization
does the same but routes every run that leaves the code into an absorbing
chaos state, which makes it the over-approximating counterpart of refinement.
"""

from __future__ import annotations

from typing import NamedTuple

from .codes import CodeMap, _nodes
from .errors import AlphabetMismatch
from .lts import CompatRel, Label, Lts, explore, walk

__all__ = [
    "CHAOS",
    "contract",
    "refine",
    "concretize",
    "IncompletenessWitness",
    "is_icomplete",
]

CHAOS = "χ"


def _completing(code: CodeMap) -> list[dict]:
    """For each node: each label whose word a letter at the node completes,
    mapped to that letter."""
    leaf = code._leaf
    return [{leaf[j]: a for a, j in edges.items() if leaf[j] is not None} for edges in code._kids]


def _pending_name(code: CodeMap):
    """The namer of (state, node number) keys: ``q⟨w⟩`` for state q and the
    node's rendered word w, or the chaos state's name."""
    text = code._text
    return lambda key: CHAOS if key == CHAOS else f"{key[0]}⟨{text[key[1]]}⟩"


def contract(code: CodeMap, m: Lts) -> Lts:
    """Contract a concrete system into the abstract alphabet of the code.

    States are the concrete states reachable through complete code-word runs
    from the initial state; each run spelling the word of an abstract label
    b yields one b-transition, and runs to distinct endpoints give distinct
    b-successors.  From each state the prefix tree and the out-lists are
    walked together, one state set per node, so words share the steps of a
    common prefix.
    """
    if not m.alphabet <= code.source:
        raise AlphabetMismatch("machine alphabet must lie within the code's source alphabet")
    kids, leaf, out = code._kids, code._leaf, m.out

    def successors(q: str):
        todo = [(0, {q})]
        for i, current in todo:  # the list grows while it is read
            node, pending = kids[i], {}
            for p in current:
                for a, dst in out(p):
                    j = node.get(a, 0)  # the root 0 is no child and no leaf
                    if leaf[j] is not None:
                        yield leaf[j], dst
                    elif j:
                        pending.setdefault(j, set()).add(dst)
            todo += pending.items()

    return explore(m.initial, successors, str, code.target)


def refine(code: CodeMap, n: Lts) -> Lts:
    """Expand each abstract transition of ``n`` into its code-word path.

    A state pairs an abstract state q with a node of the code's prefix
    tree: a pending proper prefix w of the word of some label enabled at q,
    named ``q⟨w⟩``.  The keys are (q, node number) pairs.  Paths for
    different labels share their common prefixes.  Abstract transitions
    whose label is outside the code's domain contribute nothing.  Only the
    reachable part is built.  A step passes once over q's out-list and once
    over the node's children.
    """
    if not n.alphabet <= code.target:
        raise AlphabetMismatch("machine alphabet must lie within the code's target alphabet")
    kids, below, leaf, completing = code._kids, code._below, code._leaf, _completing(code)

    def successors(key: tuple[str, int]):
        q, i = key
        edges, done = n.out(q), completing[i]
        for b, q2 in edges:
            if b in done:  # a letter at node i completes b's word
                yield done[b], (q2, 0)
        labels = {b for b, _ in edges}
        for a, j in kids[i].items():
            if leaf[j] is None and not below[j].isdisjoint(labels):
                yield a, (q, j)

    return explore((n.initial, 0), successors, _pending_name(code), code.source)


def concretize(code: CodeMap, rel: CompatRel, m: Lts) -> Lts:
    """Like refinement, but complete every run outside the code demonically.

    States pair an abstract state with a pending proper prefix of a code
    word, a node of the code's prefix tree, keyed and named as in
    ``refine``.  A letter jumps to the chaos state when no letter related to
    it, itself included, is a child of the node; chaos enables every
    concrete label forever.  A single chaos state is emitted, and only if it
    is reachable.  A step passes as in ``refine``, plus once over the
    node's chaos letters, listed up front for each internal node class by
    class: one disjointness test per class of related letters.
    """
    if not m.alphabet <= code.target:
        raise AlphabetMismatch("machine alphabet must lie within the code's target alphabet")
    if rel.carrier != code.source:
        raise AlphabetMismatch("relation carrier must be the code's source alphabet")
    source = sorted(code.source, key=str)
    kids, leaf, out, completing = code._kids, code._leaf, m.out, _completing(code)
    classes = rel._classes(source)
    chaos = [() if b is not None else [a for related, letters in classes
                                       if edges.keys().isdisjoint(related) for a in letters]
             for edges, b in zip(kids, leaf)]

    def successors(key):
        if key == CHAOS:
            for a in source:
                yield a, CHAOS
            return
        q, i = key
        done = completing[i]
        for b, q2 in out(q):
            if b in done:
                yield done[b], (q2, 0)
        for a, j in kids[i].items():
            if leaf[j] is None:
                yield a, (q, j)
        for a in chaos[i]:
            yield a, CHAOS

    return explore((m.initial, 0), successors, _pending_name(code), code.source)


class IncompletenessWitness(NamedTuple):
    """Where completeness fails: at machine state ``state`` aligned with code
    node ``node``, the code enables ``enabled`` but not the related label
    ``missing`` that the machine can perform."""

    state: str
    node: str
    enabled: Label
    missing: Label


def is_icomplete(
    code: CodeMap, rel: CompatRel, m: Lts
) -> tuple[bool, IncompletenessWitness | None]:
    """Whether the code covers, up to the relation, everything ``m`` can do.

    The decision explores pairs of a machine state and a node of the code's
    prefix tree in lockstep: both start at their roots, advance together on
    letters the tree knows, and the node resets to the root whenever a code
    word completes.  At every reachable pair, any machine transition related
    to some edge of the node must itself be an edge of the node; a witness
    names the node by its rendered word (``ε`` for the root).  A node costs
    one pass over its letters, plus each class of them up to the first
    related label it lacks; it keeps the classes that lack one.  A step costs
    one pass over the state's out-list; only a state that enables a label its
    node lacks also scans the node's lacking classes, in node-letter order.
    """
    if not m.alphabet <= code.source:
        raise AlphabetMismatch("machine alphabet must lie within the code's source alphabet")
    if rel.carrier != code.source:
        raise AlphabetMismatch("relation carrier must be the code's source alphabet")
    kids, leaf = code._kids, code._leaf

    def step(pair):
        q, i = pair
        edges = kids[i]
        # Out-lists and node letters share one order, so pairs are met
        # letter by letter, each letter's targets in order.
        for a, q2 in m.out(q):
            j = edges.get(a)
            if j is not None:
                yield q2, 0 if leaf[j] is not None else j

    # By node number: each class of the node's letters that lacks a related
    # label, as its first letter and shared tuple.  None under the identity.
    lacking = [[(letters[0], related) for related, letters in rel._classes(edges)
                if any(a2 not in edges for a2 in related)] for edges in kids]
    for q, i in walk((m.initial, 0), step):
        if lacking[i] and (extra := {b for b, _ in m.out(q)}.difference(kids[i])):
            for a, related in lacking[i]:
                for a2 in related:
                    if a2 in extra:
                        return False, IncompletenessWitness(q, _nodes(code)[1](i), a, a2)
    return True, None
