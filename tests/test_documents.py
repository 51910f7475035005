"""Document format tests: canonical serialization and committed fixtures."""

from __future__ import annotations

import hashlib
import itertools
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from actioncodes.codes import CodeMap, to_map, to_tree
from actioncodes.errors import InvalidTree, PrefixClash
from actioncodes.documents import (
    CODE_SCHEMA,
    LTS_SCHEMA,
    TREE_SCHEMA,
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
from actioncodes.generate import gen_code, gen_lts, gen_mealy
from actioncodes.lts import Label, Lts
from conftest import FIXTURES, cpu_bound, load_fixture


def reserialize(name: str) -> str:
    """A committed fixture, parsed and written back."""
    value = load_fixture(name)
    return dumps(code_to_document(value) if isinstance(value, CodeMap) else lts_to_document(value))


class TestRoundTrips:
    def test_parse_then_serialize_is_identity_on_canonical_text(self):
        for path in sorted(FIXTURES.glob("*.json")):
            assert reserialize(path.name) == path.read_text(encoding="utf-8"), path.name

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


def json_oracle(doc: dict) -> str:
    """What ``dumps`` writes, by the standard encoder."""
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


#: Names the escaper must handle: quotes, backslashes, control characters,
#: non-ASCII and astral characters, and a lone surrogate.
ODD = ['q"0', "back\\slash", "tab\tnew\nline\x00\x1f\x7f", "χ", "⟨⟩", "𝔸𝟘", "\U0001f600", "\ud800"]


def hand_made_documents() -> list[dict]:
    lts = {"schema": LTS_SCHEMA, "kind": "lts", "alphabet": ["χ", "⟨a⟩", '"'],
           "states": ODD, "initial": ODD[0],
           "transitions": [[s, "χ", t] for s, t in zip(ODD, ODD[1:])]}
    empty_lts = {"schema": LTS_SCHEMA, "kind": "lts", "alphabet": [], "states": ["q"],
                 "initial": "q", "transitions": []}
    scalars = {"schema": LTS_SCHEMA, "kind": "lts", "alphabet": [[7], [], {}],
               "states": [1, "x", None], "initial": 2.5,
               "transitions": [["x", True, {"k": [1, "χ"]}], [], ["x"]]}
    ragged = {**empty_lts, "transitions": [["q", "a", "q"], [], ["q"], "qaq"]}
    empty_row = {**empty_lts, "transitions": [["q", "a", "q"], []]}
    code = {"schema": CODE_SCHEMA, "source_alphabet": ODD, "target_alphabet": ["⟨B⟩"],
            "entries": [["⟨B⟩", ODD], ["C", []]]}
    empty_code = {"schema": CODE_SCHEMA, "source_alphabet": [], "target_alphabet": [],
                  "entries": []}
    tree = {"schema": TREE_SCHEMA, "abstract_alphabet": [], "leaf_labels": [],
            "tree": empty_lts}
    odd_tree = {"schema": TREE_SCHEMA, "abstract_alphabet": ["χ"],
                "leaf_labels": [[ODD[1], "χ"]], "tree": lts}
    return [lts, empty_lts, scalars, ragged, empty_row, code, empty_code, tree, odd_tree]


def seeded_documents() -> list[dict]:
    docs = []
    for seed in range(12):
        docs.append(lts_to_document(gen_lts(seed, states=6, labels=3)))
        docs.append(lts_to_document(gen_mealy(seed, states=5, inputs=2, outputs=3)))
        code = gen_code(seed, entries=4, maxlen=3)
        docs.append(code_to_document(code))
        docs.append(tree_to_document(to_tree(code)))
    return docs


class TestWriter:
    """``dumps`` is a writer of its own; the standard encoder is its oracle."""

    def test_fixtures_match_the_standard_encoder(self):
        for path in sorted(FIXTURES.glob("*.json")):
            text = path.read_text(encoding="utf-8")
            assert dumps(loads(text)) == json_oracle(loads(text)) == text, path.name

    @pytest.mark.parametrize(
        "doc", seeded_documents() + hand_made_documents(),
    )
    def test_documents_match_the_standard_encoder(self, doc):
        assert dumps(doc) == json_oracle(doc)


#: Any string, lone surrogates included, and often one of the odd names.
NAMES = st.text(st.characters(exclude_categories=())) | st.sampled_from(ODD + [""])
ROWS = st.lists(st.lists(NAMES, min_size=3, max_size=3), max_size=6)
#: Rows of any length, with items that are not strings.
ODD_ROWS = st.lists(
    st.lists(NAMES | st.integers() | st.none() | st.lists(NAMES, max_size=2), max_size=4),
    max_size=6,
)


@st.composite
def lts_documents(draw) -> dict:
    return {"schema": LTS_SCHEMA, "kind": draw(st.sampled_from(["lts", "mealy"])),
            "alphabet": draw(st.lists(NAMES, max_size=4)),
            "states": draw(st.lists(NAMES, max_size=5)), "initial": draw(NAMES),
            "transitions": draw(ROWS | ODD_ROWS)}


@settings(max_examples=300, deadline=None, derandomize=True)
@given(lts_documents())
@example({"schema": LTS_SCHEMA, "kind": "lts", "alphabet": [], "states": ODD + [""],
          "initial": "", "transitions": []})
@example({"schema": LTS_SCHEMA, "kind": "lts", "alphabet": ["a"], "states": ODD,
          "initial": ODD[0], "transitions": [[q, "a", r] for q in ODD for r in ODD]})
@example({"schema": LTS_SCHEMA, "kind": "lts", "alphabet": ["a"], "states": ["", "q"],
          "initial": "q", "transitions": [["q", "a", ""], ["", "a"], ["q", "a", "q", "q"]]})
# Plain rows, then a row holding an integer: the rows' one-join attempt fails
# after reading the plain ones, and none of its pieces may stay in the text.
@example({"schema": LTS_SCHEMA, "kind": "lts", "alphabet": ["a"], "states": ["p", "q"],
          "initial": "p", "transitions": [["p", "a", "q"], ["q", "a", "p"], ["q", "a", 1]]})
def test_lts_documents_match_the_standard_encoder(doc):
    assert dumps(doc) == json_oracle(doc)


SYMBOLS = st.text(min_size=1).filter(lambda s: "/" not in s and s.split() == [s])


@st.composite
def machines(draw) -> Lts:
    """An Lts with any string as a state name, atomic or Mealy."""
    states = draw(st.lists(NAMES, min_size=1, max_size=5, unique=True))
    if draw(st.booleans()):
        labels = st.builds(Label, SYMBOLS)
    else:
        labels = st.builds(Label, SYMBOLS, SYMBOLS)
    alphabet = draw(st.lists(labels, max_size=4, unique=True))
    edges = st.tuples(st.sampled_from(states), st.sampled_from(alphabet), st.sampled_from(states))
    transitions = draw(st.lists(edges, max_size=8)) if alphabet else []
    return Lts(states, draw(st.sampled_from(states)), transitions, alphabet)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(machines())
def test_machines_round_trip_through_text(m):
    doc = lts_to_document(m)
    text = dumps(doc)
    assert text == json_oracle(doc)
    assert lts_from_document(loads(text)) == m


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


BAD_SYMBOL = "symbols are non-empty and contain no whitespace and no '/'"


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

    @pytest.mark.parametrize(
        "doc", [5, None, "schema", ["schema"]], ids=["int", "null", "str", "list"]
    )
    @pytest.mark.parametrize(
        "schema,parse",
        [("lts", lts_from_document), ("code", code_from_document), ("tree", tree_from_document)],
    )
    def test_a_document_is_an_object(self, schema, parse, doc):
        # A string would be searched for its fields as substrings.
        text = f"{schema} document must be an object, not {type(doc).__name__}"
        with pytest.raises(DocumentError) as err:
            parse(doc)
        assert str(err.value) == text

    @pytest.mark.parametrize(
        "alphabet,transitions,message",
        [
            (["a"], [["q", "b", "q"]], "transition label b is not in the alphabet"),
            (["a"], [["q", "a b", "q"]], "bad symbol 'a b': " + BAD_SYMBOL),
            (["a"], [["q", "a/b/c", "q"]], "bad symbol 'b/c': " + BAD_SYMBOL),
            (["a b"], [], "bad symbol 'a b': " + BAD_SYMBOL),
            (["a/b/c"], [], "bad symbol 'b/c': " + BAD_SYMBOL),
            (["a"], [["q", 7, "q"]], "bad symbol 7: symbols are strings"),
            (["a"], [["q", [], "q"]], "bad symbol []: symbols are strings"),
            (["a"], [["q", None, "q"]], "bad symbol None: symbols are strings"),
            (["a"], [[1, "a", "q"]], "state name 1 is not a string"),
            (["a"], [["q", "a", None]], "state name None is not a string"),
            (["a"], [[1, "b b", None]], "state name 1 is not a string"),
            (["a", "a/0"], [], "alphabet mixes atomic and Mealy labels"),
            (["a/0"], [["q", "a", "q"]], "transition label a is not in the alphabet"),
            (["a"], [["q", "a", "q"], ["q", "a/0", "r"]],
             "transition label a/0 is not in the alphabet"),
        ],
        ids=["outside-alphabet", "whitespace", "two-slashes", "alphabet-whitespace",
             "alphabet-two-slashes", "int", "list", "null", "source", "target",
             "source-first", "mixed-alphabet", "atomic-in-mealy", "mealy-in-atomic"],
    )
    def test_label_and_state_errors_are_exact(self, alphabet, transitions, message):
        doc = {**LTS_DOC, "alphabet": alphabet, "states": ["q", "r"],
               "transitions": transitions}
        with pytest.raises(DocumentError) as err:
            lts_from_document(doc)
        assert str(err.value) == message

    def test_a_leaf_labeled_twice_is_rejected(self):
        doc = tree_to_document(to_tree(code_from_document(CODE_DOC)))
        leaf = doc["leaf_labels"][0][0]
        doc = {**doc, "abstract_alphabet": doc["abstract_alphabet"] + ["c"],
               "leaf_labels": doc["leaf_labels"] + [[leaf, "c"]]}
        with pytest.raises(InvalidTree, match=f"^leaf {leaf} is labeled twice$"):
            tree_from_document(doc)

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

    def test_an_integer_past_the_digit_limit_is_not_json(self):
        # The parser refuses it with a plain ValueError, not a JSONDecodeError.
        with pytest.raises(DocumentError, match="^not valid JSON: Exceeds the limit"):
            loads('{"states": ' + "1" * 5000 + "}")

    def test_a_repeated_key_is_refused_by_name(self):
        # The parser alone would keep the last value of a repeated key.
        with pytest.raises(DocumentError, match="^the key 'schema' is repeated in a JSON object$"):
            loads('{"schema": "actioncodes/lts-v1", "kind": "lts", "schema": "x"}')
        with pytest.raises(DocumentError, match="^the key 'a' is repeated in a JSON object$"):
            loads('{"outer": [{"a": 1, "b": 2, "a": 1}]}')
        assert loads('{"a": {"a": 1}, "b": [{"a": 2}]}') == {"a": {"a": 1}, "b": [{"a": 2}]}

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

    def test_dumps_names_an_unknown_schema(self):
        with pytest.raises(DocumentError, match="^cannot serialize unknown schema 'nope'$"):
            dumps({"schema": "nope"})

    def test_a_tree_document_of_another_schema_is_rejected(self):
        with pytest.raises(DocumentError, match=f"^unsupported schema '{LTS_SCHEMA}'$"):
            tree_from_document(LTS_DOC)


#: The committed fixtures and the SHA-256 of each.  The files are the source
#: of truth for the worked examples; changing one means updating its pin here
#: and ``tests/cli_transcript.json`` on purpose.
FIXTURE_SHA256 = {
    "ascii-fragment.code.json": "a5f888d412497865addeb3610138a8c55949c73c74916cf408240f31d90a1dc3",
    "chaos-inner.code.json": "9f22e40dd17a137894e1348cd56bfcdb9adcede581d5c60e9aa4bb22b0e904c3",
    "chaos-machine.lts.json": "e767cfd0fe7177d8d41a472f556887548b72f21bbb13e882c647836dba2b91a1",
    "chaos-outer.code.json": "639a552877562229a3e7469ac2f1e21be040ba8cff0bb3f004bcca53b33bf72c",
    "choice.lts.json": "ab09814f0f13cd68f8a1f0c3aab45ead9c36d9279f6c3a94b9e32ef5f96787c4",
    "coffee.code.json": "90d8e8f722a473dc77b3c3386a36f21c1105c4cd3067395769ba609c904f676e",
    "double-press-concretization.mealy.json": "020d1cdd5b1226ad311661a49b6c80a0d10132e1cea05906950826d5b3e49995",
    "double-press-contraction.mealy.json": "20250a3fa9a12acb8cbb357c13e01a369b3d18c8be86967225ae59179aff2ec8",
    "double-press.code.json": "067231393a635695077a0b5bb451fc3e62690ab03e114fd3d710b4be40fbb0dd",
    "letter-loops-refined.lts.json": "41c5596c84559fbf2a14090de917aa58c9b6599af33da2ebbd48514226e37662",
    "letter-loops.lts.json": "03cf52d67341dc2f2410573280c02a064297948c7bcd07a50034fb45a13a69a3",
    "octal-choice-det.lts.json": "04460adc921027d0a6eb9a5be5353b0b0b006bc31b54315fd17873a474fc243c",
    "octal-choice-nondet.lts.json": "4f1fa51f8b363f6b20ff1dedddd79f5443998863d7c9859ac04882cb1142d64a",
    "octal-letters.code.json": "31b88c71ba80555f9ab733fc31e3681ade938b1251989e7bb9aec78b5fe09bc5",
    "shared-input.code.json": "cb180ed08fd1c223fbc87f0a58c5c2194c6bc5539eea6cda276f2c50f975a604",
    "split-press-contraction.mealy.json": "995dc360fce7dfde6f4bbf25b58bada3a3e2a32be05e4f8ea18f87c5bed972c7",
    "split-press.code.json": "f86d5971bdb0015120e2ba6c6c9b31388ebeb3bb6ed85d7f17f4c8342e3be055",
    "square.mealy.json": "3213c4bf9162e190e274120c37b90004f4d55c82eb56b6d4380c1074f27308a1",
}


class TestCommittedFixtures:
    def test_fixtures_are_listed_canonical_and_pinned(self):
        paths = sorted(FIXTURES.glob("*.json"))
        assert [path.name for path in paths] == sorted(FIXTURE_SHA256)
        for path in paths:
            data = path.read_bytes()
            assert reserialize(path.name) == data.decode("utf-8"), path.name
            assert hashlib.sha256(data).hexdigest() == FIXTURE_SHA256[path.name], path.name

    def test_mealy_fixtures_declare_their_kind(self):
        for path in FIXTURES.glob("*.mealy.json"):
            doc = loads(path.read_text(encoding="utf-8"))
            assert doc["kind"] == "mealy"
            assert all("/" in t for t in doc["alphabet"])


class TestNoCliff:
    """Large documents, read after ``loads``: 39 ms for a system of 16,000
    states and 48,000 transitions, and 56 ms for a code of 4,096 words of
    6 letters, on a 2-vCPU machine.  The CPU-time bound leaves a wide
    margin."""

    BOUND_S = 0.5

    def test_a_system_of_sixteen_thousand_states(self):
        states = [f"q{k}" for k in range(16000)]
        doc = {
            "schema": LTS_SCHEMA, "kind": "lts", "alphabet": ["a", "b", "c"],
            "states": states, "initial": "q0",
            "transitions": [[q, x, states[(3 * k + j + 1) % 16000]]
                            for k, q in enumerate(states) for j, x in enumerate("abc")],
        }
        with cpu_bound(self.BOUND_S):
            m = lts_from_document(doc)
        assert (len(m.states), sum(map(len, map(m.out, m.states)))) == (16000, 48000)

    def test_a_code_of_every_six_letter_word(self):
        words = [list(w) for w in itertools.product("abcd", repeat=6)]
        labels = [f"X{k}" for k in range(len(words))]
        doc = {
            "schema": CODE_SCHEMA, "source_alphabet": list("abcd"),
            "target_alphabet": labels, "entries": [list(e) for e in zip(labels, words)],
        }
        with cpu_bound(self.BOUND_S):
            code = code_from_document(doc)
        assert (len(code), len(code._kids)) == (4096, 5461)
