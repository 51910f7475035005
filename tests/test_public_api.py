"""The package's public names, pinned: adding or removing one is an edit here."""

from __future__ import annotations

import ast
import importlib
import types
from pathlib import Path

import pytest

import actioncodes

BENCH = Path(__file__).resolve().parent.parent / "bench"

PUBLIC = set("""
    CodeMap CodeTree compose to_map to_tree
    ActionCodesError AlphabetMismatch CodeIncomplete EmptyCodeWord InvalidTree
    IsomorphismInconclusive NotDeterminate NotWinning PrefixClash
    SutProtocolError
    CompatRel Label Lts Word is_deterministic
    CHAOS concretize contract is_icomplete refine
    AdaptorSession ExternalSut InProcessSut TAU adaptor_composition check_adaptor_theorem
    is_determinate is_input_enabled is_output_deterministic solve_winning split_io
    find_delay_simulation find_isomorphism_reachable find_simulation
    is_delay_simulation is_simulation
""".split())


def test_public_names_are_pinned():
    # Submodules become attributes once imported anywhere, so they are left out.
    names = {
        name
        for name in dir(actioncodes)
        if not name.startswith("_")
        and not isinstance(getattr(actioncodes, name), types.ModuleType)
    }
    assert names == PUBLIC


def test_names_the_benchmark_imports_resolve():
    # The benchmark imports from the package; a name dropped here fails this
    # test rather than the benchmark run.  The files are only parsed.
    imported = [
        (node.module, alias.name)
        for path in sorted(BENCH.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom)
        and (node.module or "").split(".")[0] == "actioncodes"
        for alias in node.names
    ]
    assert len(imported) > 20
    missing = [
        f"{module}.{name}"
        for module, name in imported
        if not hasattr(importlib.import_module(module), name)
    ]
    assert missing == []


def test_star_import_binds_the_public_names():
    namespace = {}
    exec("from actioncodes import *", namespace)
    assert set(namespace) - {"__builtins__"} == PUBLIC


def test_each_public_name_is_the_object_in_its_submodule():
    for name in PUBLIC:
        home = importlib.import_module(f"actioncodes.{actioncodes._HOME[name]}")
        assert getattr(actioncodes, name) is getattr(home, name), name


def test_an_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        actioncodes.no_such_name
