"""Document format tests: canonical serialization and committed fixtures."""

from __future__ import annotations

import json

import pytest

from actioncodes.codes import CodeMap, to_map, to_tree
from actioncodes.errors import PrefixClash
from actioncodes.documents import (
    DocumentError,
    code_from_document,
    code_to_document,
    dumps,
    loads,
    lts_from_document,
    lts_to_document,
    tree_from_document,
    tree_to_document,
)
from actioncodes.gallery import FIXTURES as GALLERY_FIXTURES
from actioncodes.generate import gen_code, gen_lts, gen_mealy
from conftest import FIXTURES


class TestRoundTrips:
    def test_parse_then_serialize_is_identity_on_canonical_text(self):
        for name in sorted(GALLERY_FIXTURES):
            text = (FIXTURES / name).read_text(encoding="utf-8")
            doc = loads(text)
            if name.endswith(".code.json"):
                again = code_to_document(code_from_document(doc))
            else:
                again = lts_to_document(lts_from_document(doc))
            assert dumps(again) == text, name

    def test_serialize_then_parse_preserves_value(self):
        for seed in range(25):
            m = gen_lts(seed, states=4, labels=2)
            assert lts_from_document(loads(dumps(lts_to_document(m)))) == m
            mealy = gen_mealy(seed, states=3, input_enabled=True)
            assert lts_from_document(loads(dumps(lts_to_document(mealy)))) == mealy
            code = gen_code(seed, entries=3, maxlen=3)
            assert code_from_document(loads(dumps(code_to_document(code)))) == code

    def test_serialization_is_canonicalizing_and_idempotent(self):
        m = gen_lts(3, states=3, labels=2)
        doc = lts_to_document(m)
        scrambled = json.dumps(
            {k: doc[k] for k in reversed(list(doc))}, indent=None
        )
        parsed = lts_from_document(loads(scrambled))
        once = dumps(lts_to_document(parsed))
        twice = dumps(lts_to_document(lts_from_document(loads(once))))
        assert once == twice

    def test_tree_documents_round_trip(self):
        for seed in range(10):
            tree = to_tree(gen_code(seed, entries=3, maxlen=3))
            back = tree_from_document(loads(dumps(tree_to_document(tree))))
            assert to_map(back) == to_map(tree)


LTS_DOC = {
    "schema": "actioncodes/lts-v1",
    "kind": "lts",
    "alphabet": ["a"],
    "states": ["q"],
    "initial": "q",
    "transitions": [["q", "a", "q"]],
}
CODE_DOC = {
    "schema": "actioncodes/code-v1",
    "source_alphabet": ["1", "2", "4"],
    "target_alphabet": ["a", "b"],
    "entries": [["a", ["1", "4", "1"]], ["b", ["1", "4", "2"]]],
}


class TestRejection:
    @pytest.mark.parametrize(
        "schema,key,value",
        [
            ("lts", "alphabet", "a"),
            ("lts", "states", "q"),
            ("lts", "transitions", ["qaq"]),
            ("code", "source_alphabet", "124"),
            ("code", "target_alphabet", "ab"),
            ("code", "entries", [["a", "141"], ["b", ["1", "4", "2"]]]),
            ("tree", "abstract_alphabet", "ab"),
            ("tree", "leaf_labels", "none"),
        ],
    )
    def test_a_string_is_not_a_list(self, schema, key, value):
        # Strings are iterable: read as lists, they would split into characters.
        docs = {
            "lts": (LTS_DOC, lts_from_document),
            "code": (CODE_DOC, code_from_document),
            "tree": (tree_to_document(to_tree(code_from_document(CODE_DOC))),
                     tree_from_document),
        }
        base, parse = docs[schema]
        parse(base)  # well-formed as given
        with pytest.raises(DocumentError, match="must be a list, not str"):
            parse({**base, key: value})

    def test_unknown_schema(self):
        with pytest.raises(DocumentError):
            lts_from_document({"schema": "nope"})

    def test_kind_must_match_labels(self):
        doc = {
            "schema": "actioncodes/lts-v1",
            "kind": "mealy",
            "alphabet": ["a"],
            "states": ["q0"],
            "initial": "q0",
            "transitions": [],
        }
        with pytest.raises(DocumentError):
            lts_from_document(doc)

    def test_not_json(self):
        with pytest.raises(DocumentError):
            loads("not json at all {")

    def test_prefix_clash_is_reported_verbatim(self):
        # Validation errors surface unchanged, not wrapped as document errors.
        doc = {
            "schema": "actioncodes/code-v1",
            "source_alphabet": ["a", "b"],
            "target_alphabet": ["A", "B"],
            "entries": [["A", ["a"]], ["B", ["a", "b"]]],
        }
        with pytest.raises(PrefixClash) as err:
            code_from_document(doc)
        assert str(err.value.first) == "A"
        assert str(err.value.second) == "B"

    def test_unknown_document_shape_is_rejected_by_dumps(self):
        with pytest.raises(DocumentError):
            dumps({"schema": "actioncodes/lts-v1", "kind": "lts"})


class TestCommittedFixtures:
    def test_every_fixture_is_committed_and_canonical(self):
        for name, build in sorted(GALLERY_FIXTURES.items()):
            path = FIXTURES / name
            assert path.exists(), f"missing fixture {name}"
            value = build()
            doc = (
                code_to_document(value)
                if isinstance(value, CodeMap)
                else lts_to_document(value)
            )
            assert path.read_text(encoding="utf-8") == dumps(doc), name

    def test_mealy_fixtures_declare_their_kind(self):
        for name in GALLERY_FIXTURES:
            if name.endswith(".mealy.json"):
                doc = loads((FIXTURES / name).read_text(encoding="utf-8"))
                assert doc["kind"] == "mealy"
                assert all("/" in t for t in doc["alphabet"])
