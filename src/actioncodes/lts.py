"""Core model: labels, finite labeled transition systems, compatibility relations.

A labeled transition system (LTS) is a rooted directed graph whose edges
carry action labels; a Mealy machine is the special case where every label
is an input/output pair.  Everything here is immutable after construction
and safe to share between threads.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Iterable

from .errors import AlphabetMismatch

__all__ = [
    "Label",
    "Word",
    "Lts",
    "CompatRel",
    "is_deterministic",
]


def _is_symbol(part) -> bool:
    """``Label``'s rule for a symbol: a non-empty string, no whitespace, no ``/``."""
    return isinstance(part, str) and "/" not in part and part.split() == [part]


class Label(tuple):
    """An action label: an atomic symbol, or a Mealy input/output pair.

    A label is the validated pair ``(symbol, output)``, with ``output`` None
    for an atomic label, so it equals its plain pair and hashes like it.
    Mealy labels render as ``input/output``, so ``/`` is reserved and may not
    occur inside a symbol; whitespace is forbidden because the CLI formats
    are line- and space-delimited.  Canonical orders sort labels by rendering
    (``key=str``), not as tuples: ``a-x/0`` renders before ``a/0``.
    """

    __slots__ = ()

    def __new__(cls, symbol: str, output: str | None = None) -> "Label":
        if _is_symbol(symbol) and (output is None or _is_symbol(output)):
            return tuple.__new__(cls, (symbol, output))
        part = output if _is_symbol(symbol) else symbol
        if not isinstance(part, str):
            raise ValueError(f"bad symbol {part!r}: symbols are strings")
        raise ValueError(
            f"bad symbol {part!r}: symbols are non-empty and contain no whitespace and no '/'"
        )

    def __getnewargs__(self) -> tuple[str, str | None]:
        # copy and pickle rebuild a label through __new__, so they validate too.
        return tuple(self)

    #: First component; for a Mealy label this is the input symbol.
    symbol = property(itemgetter(0))
    output = property(itemgetter(1))

    @property
    def is_mealy(self) -> bool:
        return self[1] is not None

    @classmethod
    def parse(cls, text: str) -> "Label":
        """Parse ``a`` as an atomic label and ``i/o`` as a Mealy label."""
        if isinstance(text, str) and "/" in text:
            left, _, right = text.partition("/")
            return cls(left, right)
        return cls(text)

    def __str__(self) -> str:
        symbol, output = self
        return symbol if output is None else f"{symbol}/{output}"

    def __repr__(self) -> str:
        return f"Label({str(self)!r})"


#: A word is a finite (possibly empty) sequence of labels.
Word = tuple[Label, ...]

Transition = tuple[str, Label, str]


class _Value:
    """Base of the value types: each attribute is written once, when the
    value is built or by a cache on first use, and is never rebound or deleted.
    Equality and hash are those of ``_key()``, within one class."""

    __slots__ = ()

    def __setattr__(self, name, value):
        if hasattr(self, name):
            raise AttributeError(f"cannot assign to field {name!r}")
        super().__setattr__(name, value)

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _once(self, name, build):
        """The cached field ``name``, written with ``build()`` on first use."""
        if not hasattr(self, name):
            value = build()
            try:
                setattr(self, name, value)
            except AttributeError:  # another thread cached it first
                pass
        return getattr(self, name)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


class Lts(_Value):
    """A finite labeled transition system with an explicit alphabet.

    The alphabet may strictly contain the labels used on transitions:
    concretization and the completeness check quantify over labels that no
    transition carries.  States are held sorted, so equality ignores the
    order they came in; the sorted, duplicate-free out-lists of ``(label,
    target)`` pairs store the edges, one pair per edge.
    """

    __slots__ = ("states", "initial", "alphabet", "_out", "_reach")

    def __init__(self, states, initial, transitions, alphabet):
        self.states = tuple(sorted(dict.fromkeys(states)))  # not a set: sorted input sorts in linear time
        self.initial = initial
        self.alphabet = frozenset(alphabet)
        if not self.states:
            raise ValueError("an LTS needs at least one state")
        if initial not in self.states:
            raise ValueError(f"initial state {initial!r} is not a state")
        if len({a.is_mealy for a in self.alphabet}) > 1:
            raise ValueError("alphabet mixes atomic and Mealy labels")
        out: dict[str, list | tuple] = {q: [] for q in self.states}
        for src, label, dst in dict.fromkeys(transitions):  # duplicates collapse
            edges = out.get(src)
            if edges is None or dst not in out:
                raise ValueError(f"transition {src}-{label}->{dst} leaves the state set")
            if label not in self.alphabet:
                raise ValueError(f"transition label {label} is not in the alphabet")
            edges.append((label, dst))
        # The pairs sort as they are where the labels' tuple order is their
        # rendered order: always for atomic labels, and for Mealy labels
        # unless an input such as a-x extends another such as a.
        ranked = sorted(self.alphabet, key=str)
        key = None if ranked == sorted(ranked) else lambda e: (str(e[0]), e[1])
        for q, edges in out.items():
            edges.sort(key=key)
            out[q] = tuple(edges)  # out() hands it out without a copy
        self._out = out

    def _key(self):
        return self.states, self.initial, self.alphabet, tuple(self._out.values())

    # -- queries ----------------------------------------------------------

    @property
    def transitions(self) -> frozenset[Transition]:
        """The edges as ``(source, label, target)`` triples, built on each call."""
        return frozenset((q, a, dst) for q, edges in self._out.items() for a, dst in edges)

    def out(self, state: str) -> tuple[tuple[Label, str], ...]:
        """Outgoing (label, target) edges of a state, sorted by rendered
        label, then target."""
        return self._out[state]

    def succ(self, state: str, label: Label) -> tuple[str, ...]:
        return tuple(dst for a, dst in self._out[state] if a == label)

    @property
    def is_mealy(self) -> bool:
        return any(a.is_mealy for a in self.alphabet)

    @property
    def inputs(self) -> frozenset[str]:
        return frozenset(a.symbol for a in self.alphabet if a.is_mealy)

    def reachable(self) -> frozenset[str]:
        return self._once("_reach", lambda: frozenset(
            walk(self.initial, lambda q: map(itemgetter(1), self._out[q]))))

    def __repr__(self) -> str:
        edges = sum(map(len, self._out.values()))
        return (
            f"Lts(states={len(self.states)}, transitions={edges}, "
            f"alphabet={len(self.alphabet)}, initial={self.initial!r})"
        )


def walk(start, step):
    """Yield ``start`` and each key reached through ``step(key)`` once, breadth
    first: each key before its one ``step`` call, so stopping early asks no more."""
    seen, order = {start}, [start]
    for key in order:  # the list grows while it is read
        yield key
        for nxt in step(key):
            if nxt not in seen:
                seen.add(nxt)
                order.append(nxt)


def explore(root, successors, name, alphabet) -> Lts:
    """Build the part of an implicit system reachable from the key ``root``.

    States are hashable keys, explored breadth first from the initial state
    ``root``.  ``successors(key)`` yields ``(label, key)`` edges; a target
    not met before is named by ``name(key)`` and queued.  Two keys rendering
    the same name raise ``ValueError``: names are built by joining symbols,
    and symbols may contain the separators.
    """
    names = {root: name(root)}
    taken = {names[root]}
    order = [root]
    transitions: list[Transition] = []
    for key in order:  # the list grows while it is read: breadth first
        src = names[key]
        for label, dst in successors(key):
            text = names.get(dst)
            if text is None:  # a key not met before; not falsy: "" is a state name
                text = name(dst)
                if text in taken:
                    raise ValueError(
                        f"state name {text!r} is ambiguous: two different states render to it"
                    )
                taken.add(text)
                names[dst] = text
                order.append(dst)
            transitions.append((src, label, text))
    return Lts(names.values(), names[root], transitions, alphabet)


class CompatRel:
    """A reflexive compatibility relation over an alphabet.

    ``identity`` relates every label to itself only; ``same_input`` relates
    Mealy labels with equal input symbol; the constructor takes a
    caller-supplied set of pairs (closed reflexively).  The relation
    parameterizes both determinism checks and the concretization operator.
    It is stored as one table from each label of the carrier to its related
    labels; equal related sets share one tuple, which ``_classes`` groups by.
    """

    __slots__ = ("carrier", "_related")

    #: The relations the CLI offers by name, each with its constructor.
    NAMED = {"identity": "identity", "same-input": "same_input"}

    def __init__(self, alphabet: Iterable[Label], pairs: Iterable[tuple[Label, Label]] = ()):
        self.carrier = frozenset(alphabet)
        related = {a: {a} for a in self.carrier}
        for a, b in pairs:
            if a not in self.carrier or b not in self.carrier:
                raise ValueError(f"pair ({a}, {b}) leaves the carrier alphabet")
            related[a].add(b)
        ranked = {a: tuple(sorted(bs, key=str)) for a, bs in related.items()}
        shared = {bs: bs for bs in ranked.values()}  # one object per distinct tuple
        self._related = {a: shared[bs] for a, bs in ranked.items()}

    @classmethod
    def identity(cls, alphabet: Iterable[Label]) -> "CompatRel":
        return cls(alphabet)

    @classmethod
    def same_input(cls, alphabet: Iterable[Label]) -> "CompatRel":
        carrier = frozenset(alphabet)
        if not all(a.is_mealy for a in carrier):
            raise ValueError("same-input relation needs Mealy labels")
        groups: dict[str, list[Label]] = {}
        for a in sorted(carrier, key=str):
            groups.setdefault(a.symbol, []).append(a)
        # One sorted tuple per input, shared by its labels: pairs would cost
        # the square of a group's size.
        rel = cls.__new__(cls)
        rel.carrier = carrier
        rel._related = {a: group for group in map(tuple, groups.values()) for a in group}
        return rel

    @classmethod
    def by_name(cls, name: str, alphabet: Iterable[Label]) -> "CompatRel":
        if name not in cls.NAMED:
            raise ValueError(f"unknown relation name {name!r}")
        return getattr(cls, cls.NAMED[name])(alphabet)

    def related(self, a: Label) -> tuple[Label, ...]:
        """All labels b of the carrier with (a, b) in the relation, sorted by
        rendering."""
        return self._related.get(a, ())

    def _classes(self, letters: Iterable[Label]) -> list[tuple[tuple[Label, ...], list[Label]]]:
        """The letters grouped by their shared related tuple, as ``(related,
        letters)`` pairs in order of each class's first letter.  Without the
        sharing each letter would be its own class, with the same results."""
        classes: dict = {}
        for a in letters:
            related = self.related(a)
            classes.setdefault(id(related), (related, []))[1].append(a)
        return [*classes.values()]


def is_deterministic(m: Lts, rel: CompatRel | None = None) -> bool:
    """Whether two compatible transitions from a state always coincide.

    With the identity relation this is plain determinism; with the same-input
    relation on a Mealy machine it is output determinism (one output and one
    successor per state and input).  One pass over each state's out-list, and
    per state one test of each class of related labels (a second would follow
    a first that failed) against the class's set, built once per call."""
    if rel is None:
        rel = CompatRel.identity(m.alphabet)
    if rel.carrier != m.alphabet:
        raise AlphabetMismatch("relation carrier must be the machine's alphabet")
    sets: dict = {}  # the id of a class's shared tuple -> its labels as a set
    for edges in map(m.out, m.states):
        if len(enabled := {a for a, _ in edges}) != len(edges):  # no duplicate edge
            return False
        for related in map(rel.related, enabled):  # a class of one is the label itself
            if len(related) > 1:
                members = sets.get(id(related)) or sets.setdefault(id(related), frozenset(related))
                if len(enabled & members) > 1:
                    return False
    return True
