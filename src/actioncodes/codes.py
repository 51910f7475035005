"""Action codes: prefix-free translations between two alphabets.

A code maps abstract labels to non-empty words of concrete labels.  No code
word may be a prefix of another, so a concrete run can be decoded into at
most one abstract action.  The same data can be viewed as a deterministic
tree whose non-root leaves carry the abstract labels; both views are
implemented here together with the conversions between them and Kleisli
composition of codes.
"""

from __future__ import annotations

from .errors import AlphabetMismatch, EmptyCodeWord, InvalidTree, PrefixClash
from .lts import Label, Word, _Value, explore, is_deterministic, walk

__all__ = ["CodeMap", "CodeTree", "to_tree", "to_map", "compose"]


class CodeMap(_Value):
    """Map form of an action code: abstract label -> non-empty concrete word.

    ``source`` is the concrete alphabet the words are written in, ``target``
    the abstract alphabet the keys are drawn from; ``target`` may strictly
    contain the domain.  Construction checks that the words are non-empty
    and prefix-free, sorts the entries by label and builds the prefix tree
    that ``to_tree`` and the operators read.  Its node ``i`` (the root is 0)
    keeps ``_kids[i]`` (letter -> child, in rendered order), ``_leaf[i]`` (a
    complete word's label, or None), ``_below[i]`` (the labels whose words
    pass through) and ``_text[i]`` (the rendered word, ``""`` at the root).
    The texts are built on first use: they take memory quadratic in a word's
    length, and contraction and the adaptor never read them.
    """

    __slots__ = ("source", "target", "entries", "_map", "_kids", "_leaf", "_below", "_texts")

    def __init__(self, source, target, entries):
        self.source = frozenset(source)
        self.target = frozenset(target)
        self.entries = tuple(
            sorted(((b, tuple(w)) for b, w in entries), key=lambda e: str(e[0]))
        )
        seen: set[Label] = set()
        for b, word in self.entries:
            if b not in self.target:
                raise AlphabetMismatch(f"abstract label {b} is not in the target alphabet")
            if b in seen:
                raise ValueError(f"duplicate entry for abstract label {b}")
            seen.add(b)
            if not word:
                raise EmptyCodeWord(b)
            for a in word:
                if a not in self.source:
                    raise AlphabetMismatch(f"letter {a} of the word for {b} is not in the source alphabet")
        # In rendered-word order a word follows every word that is its prefix,
        # and the first clash met is between neighbours in that order.
        kids, leaf, below = [{}], [None], [set()]  # node 0 is the root
        rendered = {a: str(a) for a in self.source}
        for b, word in sorted(self.entries, key=lambda e: [rendered[a] for a in e[1]]):
            i = 0
            for a in word:
                if leaf[i] is not None:
                    raise PrefixClash(leaf[i], b)
                below[i].add(b)
                j = kids[i].get(a)
                if j is None:
                    j = kids[i][a] = len(kids)
                    kids.append({})
                    leaf.append(None)
                    below.append(set())
                i = j
            if leaf[i] is not None:
                raise PrefixClash(leaf[i], b)
            leaf[i] = b
        self._map = dict(self.entries)
        self._kids, self._leaf, self._below = kids, leaf, below

    @property
    def _text(self) -> list[str]:
        def render():
            text = [""] * len(self._kids)
            for i, edges in enumerate(self._kids):  # a parent's number is less than its child's
                for a, j in edges.items():
                    text[j] = f"{text[i]}.{a}" if i else str(a)
            return text
        return self._once("_texts", render)

    def _key(self):
        return self.source, self.target, self.entries

    @property
    def domain(self) -> frozenset[Label]:
        return frozenset(b for b, _ in self.entries)

    def word_for(self, b: Label) -> Word:
        return self._map[b]

    def __contains__(self, b: Label) -> bool:
        return b in self._map

    def __len__(self) -> int:
        return len(self.entries)

    def __repr__(self) -> str:
        inner = ", ".join(f"{b}->{'.'.join(map(str, w))}" for b, w in self.entries)
        return f"CodeMap({inner})"


class CodeTree(_Value):
    """Tree form of an action code: its map form's prefix tree, named.

    The carrier is a deterministic, tree-shaped, grounded LTS over the
    concrete alphabet; every non-root leaf carries a distinct abstract label
    and the root carries none.  A breadth-first walk checks it; the leaves'
    words, read up the links from each state to its parent, build the map
    form.  Or ``to_tree`` names a given map.  ``_names[i]`` is the carrier
    state of the map's node ``i``, the name the adaptor gives it.
    """

    __slots__ = ("tree", "leaf_labels", "abstract", "_code", "_names")

    def __init__(self, tree, leaf_labels, abstract):
        labels: dict = {}
        for q, lab in leaf_labels:
            if q in labels:
                raise InvalidTree(f"leaf {q} is labeled twice")
            labels[q] = lab
        leaf_labels = sorted((str(q), lab) for q, lab in labels.items())
        abstract = frozenset(abstract)
        if not is_deterministic(tree):
            raise InvalidTree("carrier is not deterministic")
        order = [*walk(tree.initial, lambda q: (dst for _, dst in tree.out(q)))]
        # Each state reached but the root has an edge in: no more means a tree.
        if sum(len(tree.out(q)) for q in order) != len(order) - 1:
            raise InvalidTree("carrier is not tree-shaped")
        if len(order) != len(tree.states):
            raise InvalidTree("carrier has unreachable states")
        up = {dst: (q, a) for q in order for a, dst in tree.out(q)}  # state -> (parent, letter)
        labeled = {q for q, _ in leaf_labels}
        expected = {q for q in order[1:] if not tree.out(q)}
        if labeled != expected:
            raise InvalidTree(
                "labeled states must be exactly the non-root leaves "
                f"(labeled {sorted(labeled)}, leaves {sorted(expected)})"
            )
        if len({lab for _, lab in leaf_labels}) != len(leaf_labels):
            raise InvalidTree("leaf labeling is not injective")
        for _, lab in leaf_labels:
            if lab not in abstract:
                raise InvalidTree(f"leaf label {lab} is not in the abstract alphabet")
        def letters_up(q):  # from leaf q to the root: its word, reversed
            while q in up:
                q, a = up[q]
                yield a
        words = [(lab, [*letters_up(q)][::-1]) for q, lab in leaf_labels]
        code = CodeMap(tree.alphabet, abstract, words)
        number = {tree.initial: 0}
        for q in order:  # parents first, so each state's number is known
            for a, dst in tree.out(q):
                number[dst] = code._kids[number[q]][a]
        self._name(code, sorted(number, key=number.__getitem__), tree)

    def _name(self, code, names, tree):
        """Name each node ``i`` of ``code`` by state ``names[i]`` of ``tree``; return self."""
        self.tree, self._code, self._names, self.abstract = tree, code, names, code.target
        nodes = zip(names, code._leaf)
        self.leaf_labels = tuple(sorted((q, b) for q, b in nodes if b is not None))
        return self

    def _key(self):
        return self.tree, self.leaf_labels, self.abstract

    @property
    def root(self) -> str:
        return self.tree.initial

    def __repr__(self) -> str:
        return f"CodeTree(nodes={len(self.tree.states)}, leaves={len(self.leaf_labels)})"


def _nodes(code: CodeMap | CodeTree):
    """The map form of a code in either form, and the name of its node ``i``:
    the carrier state on a tree, else the rendered word (``ε`` at the root)."""
    if isinstance(code, CodeTree):
        return code._code, code._names.__getitem__
    return code, lambda i: code._text[i] or "ε"


def to_tree(code: CodeMap) -> CodeTree:
    """The unique grounded tree form of a map-based code, sharing that map.

    Its carrier is the code's prefix tree, each node named by its rendered
    word (the root by ``ε``), as ``_nodes`` names it; the node of a complete
    code word is a leaf labeled with that word's abstract label.
    """
    kids, names = code._kids, [*map(_nodes(code)[1], range(len(code._kids)))]
    carrier = explore(0, lambda i: kids[i].items(), names.__getitem__, code.source)
    return CodeTree.__new__(CodeTree)._name(code, names, carrier)


def to_map(tree: CodeTree) -> CodeMap:
    """The map form the tree names: built once, or the one given to ``to_tree``."""
    return tree._code


def compose(r: CodeMap, s: CodeMap) -> CodeMap:
    """Kleisli composition: translate each word of ``s`` through ``r``.

    ``r`` translates the intermediate alphabet into the concrete one and
    ``s`` the abstract alphabet into the intermediate one.  An entry of the
    result exists only when every letter of the ``s``-word lies in the
    domain of ``r``.  Prefix-freeness of the result is a theorem, but it is
    re-checked defensively by the constructor.
    """
    if not s.source <= r.target:
        raise AlphabetMismatch(
            "intermediate alphabets disagree: the source of the outer code "
            "must lie within the target of the inner code"
        )
    entries = []
    for c, word in s.entries:
        if all(b in r for b in word):
            flat: list[Label] = []
            for b in word:
                flat.extend(r.word_for(b))
            entries.append((c, tuple(flat)))
    return CodeMap(r.source, s.target, entries)
