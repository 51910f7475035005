"""Canonical JSON documents for machines and codes.

One schema-versioned JSON family covers plain systems, Mealy machines, and
codes.  Serialization is canonical: alphabets, states, transitions, and code
entries are sorted lexicographically and the key order is fixed, so
serialize-parse round-trips are byte-identical on canonical input and
serializing a parsed document is idempotent.
"""

from __future__ import annotations

import json
import re
from itertools import chain
from typing import Any

from .codes import CodeMap, CodeTree
from .lts import Label, Lts, Word

__all__ = [
    "LTS_SCHEMA",
    "CODE_SCHEMA",
    "TREE_SCHEMA",
    "DocumentError",
    "lts_to_document",
    "lts_from_document",
    "code_to_document",
    "code_from_document",
    "tree_to_document",
    "tree_from_document",
    "dumps",
    "loads",
]

LTS_SCHEMA = "actioncodes/lts-v1"
CODE_SCHEMA = "actioncodes/code-v1"
TREE_SCHEMA = "actioncodes/tree-v1"


class DocumentError(ValueError):
    """A document does not parse into a well-formed value."""


def _labels_sorted(labels) -> list[str]:
    return sorted(str(a) for a in labels)


def lts_to_document(m: Lts) -> dict[str, Any]:
    kind = "mealy" if m.is_mealy else "lts"
    names = {a: str(a) for a in m.alphabet}
    return {
        "schema": LTS_SCHEMA,
        "kind": kind,
        "alphabet": sorted(names.values()),
        "states": list(m.states),
        "initial": m.initial,
        # States are held sorted and each out-list is sorted by rendered
        # label, then target: the rows come out sorted.
        "transitions": [[q, names[a], dst] for q, edges in m._out.items() for a, dst in edges],
    }


def _expect(doc: dict, key: str, schema: str):
    """A field of a document, which must be a JSON object."""
    if not isinstance(doc, dict):
        raise DocumentError(f"{schema} document must be an object, not {type(doc).__name__}")
    if key not in doc:
        raise DocumentError(f"{schema} document is missing the {key!r} field")
    return doc[key]


def _list(value, what: str) -> list:
    """A JSON list: a string in its place would be split into characters."""
    if not isinstance(value, list):
        raise DocumentError(f"{what} must be a list, not {type(value).__name__}")
    return value


def _field(doc: dict, key: str, schema: str, rows: bool = False) -> list:
    """A list field of a document; with ``rows``, each of its items is a list."""
    items = _list(_expect(doc, key, schema), f"the {key!r} field")
    if rows and set(map(type, items)) - {list}:
        for row in items:
            _list(row, f"each item of {key!r}")
    return items


def _state(name):
    """State names are strings: deciders sort them and the formats print them."""
    if not isinstance(name, str):
        raise DocumentError(f"state name {name!r} is not a string")
    return name


def lts_from_document(doc: dict[str, Any]) -> Lts:
    if _expect(doc, "schema", "lts") != LTS_SCHEMA:
        raise DocumentError(f"unsupported schema {doc.get('schema')!r}")
    kind = _expect(doc, "kind", "lts")
    if kind not in ("lts", "mealy"):
        raise DocumentError(f"unknown kind {kind!r}")
    try:
        texts = _field(doc, "alphabet", "lts")
        alphabet = [Label.parse(t) for t in texts]
        # Each label string is parsed once; an unknown string or a non-string
        # goes through Label.parse, which raises what it always raised.
        parsed = {t: a for t, a in zip(texts, alphabet) if type(t) is str}
        transitions = [
            (
                src if type(src) is str else _state(src),
                type(t) is str and parsed.get(t) or Label.parse(t),
                dst if type(dst) is str else _state(dst),
            )
            for src, t, dst in _field(doc, "transitions", "lts", rows=True)
        ]
        m = Lts(
            [_state(q) for q in _field(doc, "states", "lts")],
            _state(_expect(doc, "initial", "lts")),
            transitions,
            alphabet,
        )
    except (ValueError, TypeError) as exc:
        raise DocumentError(str(exc)) from exc
    if alphabet and m.is_mealy != (kind == "mealy"):
        raise DocumentError(f"kind {kind!r} does not match the labels")
    return m


def code_to_document(code: CodeMap) -> dict[str, Any]:
    return {
        "schema": CODE_SCHEMA,
        "source_alphabet": _labels_sorted(code.source),
        "target_alphabet": _labels_sorted(code.target),
        "entries": [[str(b), [str(a) for a in w]] for b, w in code.entries],
    }


def code_from_document(doc: dict[str, Any]) -> CodeMap:
    if _expect(doc, "schema", "code") != CODE_SCHEMA:
        raise DocumentError(f"unsupported schema {doc.get('schema')!r}")
    try:
        source = [Label.parse(t) for t in _field(doc, "source_alphabet", "code")]
        target = [Label.parse(t) for t in _field(doc, "target_alphabet", "code")]
        entries: list[tuple[Label, Word]] = [
            (Label.parse(b), tuple(Label.parse(a) for a in _list(w, "a code word")))
            for b, w in _field(doc, "entries", "code", rows=True)
        ]
        return CodeMap(source, target, entries)
    except (ValueError, TypeError) as exc:
        raise DocumentError(str(exc)) from exc


def tree_to_document(tree: CodeTree) -> dict[str, Any]:
    return {
        "schema": TREE_SCHEMA,
        "abstract_alphabet": _labels_sorted(tree.abstract),
        "leaf_labels": [[leaf, str(lab)] for leaf, lab in tree.leaf_labels],
        "tree": lts_to_document(tree.tree),
    }


def tree_from_document(doc: dict[str, Any]) -> CodeTree:
    if _expect(doc, "schema", "tree") != TREE_SCHEMA:
        raise DocumentError(f"unsupported schema {doc.get('schema')!r}")
    try:
        carrier = lts_from_document(_expect(doc, "tree", "tree"))
        abstract = [Label.parse(t) for t in _field(doc, "abstract_alphabet", "tree")]
        leaf_labels = [
            (_state(leaf), Label.parse(t))
            for leaf, t in _field(doc, "leaf_labels", "tree", rows=True)
        ]
        return CodeTree(carrier, leaf_labels, abstract)
    except (ValueError, TypeError) as exc:
        raise DocumentError(str(exc)) from exc


_KEY_ORDER = {
    LTS_SCHEMA: ["schema", "kind", "alphabet", "states", "initial", "transitions"],
    CODE_SCHEMA: ["schema", "source_alphabet", "target_alphabet", "entries"],
    TREE_SCHEMA: ["schema", "abstract_alphabet", "leaf_labels", "tree"],
}


_encode = json.encoder.encode_basestring  # what json.dumps escapes with, given ensure_ascii=False
_ESCAPED = re.compile(r'[\x00-\x1f"\\]')  # the characters _encode does not copy as they are


def _plain(strings) -> bool:
    """Whether no string needs escaping: one search over the distinct ones.
    Raises TypeError on an item that is not a string."""
    return not _ESCAPED.search("".join(set(strings)))


def _write(value, level: int, out: list[str]) -> None:
    """Append to ``out`` the pieces of ``value`` exactly as ``json.dumps(value,
    indent=2, ensure_ascii=False)`` writes it ``level`` containers deep.

    Strings, lists and string-keyed dicts are written here.  A list of
    strings and a list of non-empty rows of strings (the bulk of a document)
    in which no string needs escaping take one join each, with no Python
    call per item: the quotes go into the separators.  Anything else, a list
    with a string to escape or with other items included, is left to
    ``json.dumps``.
    """
    outer = "\n" + "  " * level
    pad = outer + "  "
    if type(value) is str:
        out.append(_encode(value))
        return
    if type(value) is list and value:
        try:
            if set(map(type, value)) == {list} and all(value):
                if _plain(chain.from_iterable(value)):
                    inner = pad + "  "
                    rows = map(('",' + inner + '"').join, value)
                    body = ('"' + pad + "]," + pad + "[" + inner + '"').join(rows)
                    out += ("[" + pad + "[" + inner + '"', body, '"' + pad + "]" + outer + "]")
                    return
            elif _plain(value):
                out += ("[" + pad + '"', ('",' + pad + '"').join(value), '"' + outer + "]")
                return
        except TypeError:  # an item that is not a string
            pass
    if type(value) is dict and value and set(map(type, value)) == {str}:
        out.append("{" + pad)
        for key, v in value.items():
            out.append(_encode(key) + ": ")
            _write(v, level + 1, out)
            out.append("," + pad)
        out[-1] = outer + "}"
        return
    out.append(json.dumps(value, indent=2, ensure_ascii=False).replace("\n", outer))


def dumps(doc: dict[str, Any]) -> str:
    """Serialize a document with a fixed key order and a trailing newline.

    The text is byte-identical to ``json.dumps(doc, indent=2,
    ensure_ascii=False) + "\\n"`` with the keys in canonical order."""
    schema = doc.get("schema")
    order = _KEY_ORDER.get(schema)
    if order is None:
        raise DocumentError(f"cannot serialize unknown schema {schema!r}")
    missing = [k for k in order if k not in doc]
    extra = [k for k in doc if k not in order]
    if missing or extra:
        raise DocumentError(f"bad document shape (missing {missing}, extra {extra})")
    out: list[str] = []
    _write({k: doc[k] for k in order}, 0, out)
    out.append("\n")
    return "".join(out)


def _object(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    """A JSON object whose keys are all distinct: the parser would keep the last."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen: set[str] = set()
        key = next(k for k, _ in pairs if k in seen or seen.add(k))
        raise DocumentError(f"the key {key!r} is repeated in a JSON object")
    return obj


def loads(text: str) -> dict[str, Any]:
    try:
        doc = json.loads(text, object_pairs_hook=_object)
    except DocumentError:
        raise
    except (ValueError, RecursionError) as exc:  # a JSONDecodeError, too many digits, too deep
        raise DocumentError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise DocumentError("top-level JSON value must be an object")
    return doc
