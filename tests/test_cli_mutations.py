"""The CLI's exit contract under mutated documents and argument vectors.

Each example takes one call of the golden transcript and mutates either one
of the fixture documents it reads (drops a field, or replaces a value by one
of another JSON type) or its argument vector (drops one option with its
value, or sets one integer option to a value in -3..3), then runs the call
through ``cli.main``.  Whatever the mutation, the exit code is one of 0-4,
no exception escapes, and stderr carries an ``ERROR`` line exactly when the
exit code is 2 or more.  A vector that argparse refuses never reaches
``main``'s handlers: it exits 2 with argparse's own ``error:`` line.
"""

from __future__ import annotations

import io
import json
import tempfile
from contextlib import redirect_stderr
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from actioncodes.cli import _build_parser
from test_cli_transcript import CALLS, DP, F, ROOT, SQUARE, _run

DROP = object()


def _documents(argv) -> list[int]:
    return [k for k, a in enumerate(argv) if a.startswith(F) and (ROOT / a).exists()]


# Calls whose documents are all committed fixtures (the golden run writes
# the ``{tmp}`` ones), with the argument positions of those documents.
FUZZ_CALLS = [
    (argv, stdin, _documents(argv))
    for argv, stdin in CALLS
    if _documents(argv) and not any("{tmp}" in a for a in argv)
]

JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=4,
)


def _kind(value) -> str:
    """The JSON type of a value: Python's type name, except for numbers."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return "number"
    return type(value).__name__


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _mutated(doc, path, new):
    """``doc`` with the value at ``path`` replaced by ``new``, or dropped."""
    if not path:
        return new
    if new is DROP:
        del _at(doc, path[:-1])[path[-1]]
    else:
        _at(doc, path[:-1])[path[-1]] = new
    return doc


def _paths(value, path=()):
    """The path of every value inside a JSON document, the root included."""
    yield path
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _paths(item, path + (key,))
    elif isinstance(value, list):
        for k, item in enumerate(value):
            yield from _paths(item, path + (k,))


def _load(argv, position):
    return json.loads((ROOT / argv[position]).read_text(encoding="utf-8"))


@st.composite
def mutations(draw):
    """``(call, document position, path, new value or DROP)``."""
    call = draw(st.sampled_from(FUZZ_CALLS))
    position = draw(st.sampled_from(call[2]))
    doc = _load(call[0], position)
    path = draw(st.sampled_from(list(_paths(doc))))
    if path and isinstance(_at(doc, path[:-1]), dict) and draw(st.booleans()):
        return call, position, path, DROP
    old = _at(doc, path)
    return call, position, path, draw(JSON.filter(lambda v: _kind(v) != _kind(old)))


def _call(argv):
    return next(call for call in FUZZ_CALLS if call[0] == argv)


def _assert_exit_contract(result) -> None:
    assert result["exit"] in (0, 1, 2, 3, 4)
    errors = [line for line in result["stderr"].splitlines() if line.startswith("ERROR ")]
    assert bool(errors) == (result["exit"] >= 2), result


@settings(max_examples=200, deadline=None, derandomize=True)
@given(mutations())
@example((_call(["check", "simulation", F + "octal-choice-nondet.lts.json",
                 F + "octal-choice-det.lts.json"]), 2, ("alphabet", 0), [7]))
@example((_call(["to-tree", F + "coffee.code.json"]), 1, ("entries", 0, 0), [1]))
@example((_call(["contract", "--code", F + "double-press.code.json",
                 F + "square.mealy.json"]), 2, ("source_alphabet", 0), {"/": None}))
def test_mutated_documents_keep_the_exit_contract(mutation):
    (argv, stdin, _), position, path, new = mutation
    doc = _mutated(_load(argv, position), path, new)
    with tempfile.TemporaryDirectory() as tmp:
        mutated = Path(tmp) / "mutated.json"
        mutated.write_text(json.dumps(doc), encoding="utf-8")
        argv = [str(mutated) if k == position else a for k, a in enumerate(argv)]
        result = _run(argv, stdin, Path(tmp))
    _assert_exit_contract(result)


# Calls with at least one option; none may start or reach a SUT process.
VECTOR_CALLS = [
    (argv, stdin)
    for argv, stdin in CALLS
    if any(a.startswith("--") for a in argv)
    and not {"--sut-exec", "--sut-tcp"} & set(argv)
]


def _takes_value(argv, k: int) -> bool:
    return k + 1 < len(argv) and not argv[k + 1].startswith("--")


@st.composite
def vector_mutations(draw):
    """``(argv, stdin)`` of a call with one option dropped or one integer
    option value replaced; values stay small, so no mutation asks for a
    large system."""
    argv, stdin = draw(st.sampled_from(VECTOR_CALLS))
    options = [k for k, a in enumerate(argv) if a.startswith("--")]
    numbers = [k + 1 for k in options if _takes_value(argv, k) and argv[k + 1].isdigit()]
    if numbers and draw(st.booleans()):
        k = draw(st.sampled_from(numbers))
        return [*argv[:k], str(draw(st.integers(-3, 3))), *argv[k + 1:]], stdin
    k = draw(st.sampled_from(options))
    return [*argv[:k], *argv[k + 1 + _takes_value(argv, k):]], stdin


@settings(max_examples=200, deadline=None, derandomize=True)
@given(vector_mutations())
@example((["gen", "lts", "--states", "3", "--labels", "-1", "--seed", "5"], ""))
@example((["gen", "code", "--abstract", "-2", "--maxlen", "3", "--seed", "7"], ""))
@example((["gen", "code", "--mealy", "--inputs", "-1", "--outputs", "2", "--abstract", "2",
           "--maxlen", "2", "--seed", "11"], ""))
@example((["check", "insertion", SQUARE], ""))
@example((["adaptor", "--code", DP], "A\nB\nA\n"))
def test_mutated_argument_vectors_keep_the_exit_contract(vector):
    argv, stdin = vector
    usage = io.StringIO()
    try:
        with redirect_stderr(usage):
            _build_parser().parse_args(argv)
    except SystemExit as exc:  # refused by argparse before any handler runs
        assert exc.code == 2 and ": error: " in usage.getvalue().splitlines()[-1]
        return
    with tempfile.TemporaryDirectory() as tmp:
        _assert_exit_contract(_run(argv, stdin, Path(tmp)))
