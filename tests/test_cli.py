"""Command-line contract tests: verbs, exit codes, and witness formats."""

from __future__ import annotations

import io
import os
import socket
import subprocess
import sys
import threading
import time
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from actioncodes import adaptor
from actioncodes.cli import _CHECKS, _VERBS, _build_parser, main
from actioncodes.codes import CodeMap
from actioncodes.documents import (
    code_to_document,
    dumps,
    loads,
    lts_from_document,
    lts_to_document,
)
from actioncodes.generate import gen_lts
from actioncodes.lts import Label, Lts
from actioncodes.simulation import find_isomorphism_reachable, is_simulation

from conftest import FIXTURES, load_fixture
from test_adaptor import SQUARE_SUT_SCRIPT
from test_cli_transcript import CALLS
from test_operators import one_input_word
from test_simulation import forked_chain, is_reachable_isomorphism, numbered_copy


def fixture(name: str) -> str:
    return str(FIXTURES / name)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestOperatorVerbs:
    @pytest.mark.parametrize(
        "verb,code,machine,expected",
        [
            ("contract", "double-press.code.json", "square.mealy.json",
             "double-press-contraction.mealy.json"),
            ("contract", "split-press.code.json", "square.mealy.json",
             "split-press-contraction.mealy.json"),
            ("refine", "ascii-fragment.code.json", "letter-loops.lts.json",
             "letter-loops-refined.lts.json"),
            ("refine", "octal-letters.code.json", "choice.lts.json",
             "octal-choice-det.lts.json"),
        ],
    )
    def test_contract_and_refine_reproduce_goldens(
        self, capsys, verb, code, machine, expected
    ):
        status, out, _ = run(capsys, verb, "--code", fixture(code), fixture(machine))
        assert status == 0
        produced = lts_from_document(loads(out))
        assert find_isomorphism_reachable(produced, load_fixture(expected)) is not None

    def test_concretize_reproduces_golden(self, capsys):
        status, out, _ = run(
            capsys,
            "concretize",
            "--rel",
            "same-input",
            "--code",
            fixture("double-press.code.json"),
            fixture("double-press-contraction.mealy.json"),
        )
        assert status == 0
        produced = lts_from_document(loads(out))
        expected = load_fixture("double-press-concretization.mealy.json")
        assert find_isomorphism_reachable(produced, expected) is not None

    def test_stats_go_to_stderr(self, capsys):
        status, out, err = run(
            capsys,
            "contract",
            "--stats",
            "--code",
            fixture("double-press.code.json"),
            fixture("square.mealy.json"),
        )
        assert status == 0
        assert "states 2 transitions 4" in err
        assert loads(out)["schema"] == "actioncodes/lts-v1"

    def test_out_flag_writes_file(self, capsys, tmp_path):
        target = tmp_path / "result.json"
        status, out, _ = run(
            capsys,
            "contract",
            "--code",
            fixture("double-press.code.json"),
            "--out",
            str(target),
            fixture("square.mealy.json"),
        )
        assert status == 0
        assert out == ""
        assert loads(target.read_text(encoding="utf-8"))["kind"] == "mealy"

    def test_malformed_input_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{", encoding="utf-8")
        status, _, err = run(
            capsys, "contract", "--code", fixture("double-press.code.json"), str(bad)
        )
        assert status == 2
        assert err.startswith("ERROR ")

    def test_compose_and_tree_round_trip(self, capsys, tmp_path):
        status, out, _ = run(
            capsys,
            "compose",
            fixture("chaos-inner.code.json"),
            fixture("chaos-outer.code.json"),
        )
        assert status == 0
        assert loads(out)["entries"] == []

        status, tree_text, _ = run(
            capsys, "to-tree", fixture("ascii-fragment.code.json")
        )
        assert status == 0
        tree_file = tmp_path / "tree.json"
        tree_file.write_text(tree_text, encoding="utf-8")
        status, map_text, _ = run(capsys, "to-map", str(tree_file))
        assert status == 0
        original = (FIXTURES / "ascii-fragment.code.json").read_text(encoding="utf-8")
        assert map_text == original


class TestCheckVerbs:
    def test_deep_isomorphism(self, capsys, tmp_path):
        # 1,100 states: deeper than the default recursion limit.
        m = forked_chain(550, 549)
        n = numbered_copy(m)
        paths = [tmp_path / "m.json", tmp_path / "n.json"]
        for path, machine in zip(paths, (m, n)):
            path.write_text(dumps(lts_to_document(machine)), encoding="utf-8")
        status, out, err = run(capsys, "check", "isomorphism", *map(str, paths))
        assert (status, err) == (0, "")
        lines = out.splitlines()
        assert lines[0] == "PASS"
        mapping = dict(line.split()[1:] for line in lines[1:])
        assert is_reachable_isomorphism(m, n, mapping)

    def test_simulation_witness_revalidates(self, capsys):
        status, out, _ = run(
            capsys,
            "check",
            "simulation",
            fixture("octal-choice-nondet.lts.json"),
            fixture("octal-choice-det.lts.json"),
        )
        assert status == 0
        lines = out.splitlines()
        assert lines[0] == "PASS"
        pairs = frozenset(
            tuple(line.split()[1:]) for line in lines[1:] if line.startswith("pair")
        )
        m = lts_from_document(loads((FIXTURES / "octal-choice-nondet.lts.json").read_text()))
        n = lts_from_document(loads((FIXTURES / "octal-choice-det.lts.json").read_text()))
        assert is_simulation(m, n, pairs)

    def test_simulation_fail_exits_1(self, capsys):
        status, out, _ = run(
            capsys,
            "check",
            "simulation",
            fixture("octal-choice-det.lts.json"),
            fixture("octal-choice-nondet.lts.json"),
        )
        assert status == 1
        assert out.splitlines()[0] == "FAIL"

    def test_isomorphism_self(self, capsys):
        status, out, _ = run(
            capsys,
            "check",
            "isomorphism",
            fixture("square.mealy.json"),
            fixture("square.mealy.json"),
        )
        assert status == 0
        assert "map q0 q0" in out

    def test_icomplete_pass(self, capsys):
        status, out, _ = run(
            capsys,
            "check",
            "icomplete",
            "--code",
            fixture("double-press.code.json"),
            "--rel",
            "same-input",
            fixture("square.mealy.json"),
        )
        assert status == 0 and out.startswith("PASS")

    def test_icomplete_fail_names_witness(self, capsys, tmp_path):
        code_doc = {
            "schema": "actioncodes/code-v1",
            "source_alphabet": ["a/0", "a/1"],
            "target_alphabet": ["X/0"],
            "entries": [["X/0", ["a/0"]]],
        }
        machine_doc = {
            "schema": "actioncodes/lts-v1",
            "kind": "mealy",
            "alphabet": ["a/0", "a/1"],
            "states": ["q0"],
            "initial": "q0",
            "transitions": [["q0", "a/1", "q0"]],
        }
        code_file = tmp_path / "c.json"
        code_file.write_text(dumps(code_doc), encoding="utf-8")
        machine_file = tmp_path / "m.json"
        machine_file.write_text(dumps(machine_doc), encoding="utf-8")
        status, out, _ = run(
            capsys,
            "check",
            "icomplete",
            "--code",
            str(code_file),
            "--rel",
            "same-input",
            str(machine_file),
        )
        assert status == 1
        assert "witness state=q0" in out
        assert "missing=a/1" in out

    def test_winning_table_and_failure(self, capsys):
        status, out, _ = run(
            capsys, "check", "winning", "--code", fixture("coffee.code.json")
        )
        assert status == 0
        assert "winning coffee" in out and "winning espresso" in out

        status, out, _ = run(
            capsys,
            "check",
            "winning",
            "--code",
            fixture("coffee.code.json"),
            "--for",
            "latte",
        )
        assert status == 1
        assert "not-winning latte" in out

    @pytest.mark.parametrize("value", ["", "a b", "a/b"])
    def test_winning_for_a_non_symbol_is_refused(self, capsys, value):
        # An empty value is a bad symbol, not an absent --for.
        status, out, err = run(
            capsys, "check", "winning", "--code", fixture("coffee.code.json"), "--for", value
        )
        assert (status, out) == (2, "")
        assert err.startswith(f"ERROR ValueError bad symbol {value!r}: ")

    def test_determinate_witness(self, capsys):
        status, out, _ = run(
            capsys, "check", "determinate", "--code", fixture("shared-input.code.json")
        )
        assert status == 1
        assert "witness node=ε input=0 first=a second=b" in out

    @pytest.mark.parametrize(
        "left,right,violated",
        [(True, False, "left-to-right"), (False, True, "right-to-left")],
    )
    def test_galois1_names_the_violated_direction(self, capsys, monkeypatch, left, right,
                                                   violated):
        # Neither direction fails on a real instance: the simulation verdicts
        # are forced, refinement side first.
        from actioncodes import simulation

        verdicts = iter([left, right])
        monkeypatch.setattr(simulation, "_simulates", lambda m, n: next(verdicts))
        status, out, err = run(
            capsys, "check", "galois1", "--code", fixture("octal-letters.code.json"),
            fixture("choice.lts.json"), fixture("octal-choice-det.lts.json"),
        )
        assert (status, err) == (1, "")
        assert out.splitlines() == [
            "FAIL",
            f"refinement-simulated {left}",
            f"contraction-simulated {right}",
            "abstract-over-domain True",
            "concrete-deterministic True",
            f"violated {violated}",
        ]

    def test_galois_checks_pass_on_goldens(self, capsys):
        status, out, _ = run(
            capsys,
            "check",
            "galois1",
            "--code",
            fixture("octal-letters.code.json"),
            fixture("choice.lts.json"),
            fixture("octal-choice-det.lts.json"),
        )
        assert status == 0, out

        status, out, _ = run(
            capsys,
            "check",
            "galois2",
            "--code",
            fixture("double-press.code.json"),
            "--rel",
            "same-input",
            fixture("square.mealy.json"),
            fixture("double-press-contraction.mealy.json"),
        )
        assert status == 0
        assert "icomplete True" in out
        assert "contraction-simulated True" in out

        status, out, _ = run(
            capsys,
            "check",
            "insertion",
            "--code",
            fixture("double-press.code.json"),
            "--rel",
            "same-input",
            fixture("double-press-contraction.mealy.json"),
        )
        assert status == 0

    def test_composition_checks(self, capsys, tmp_path):
        # The contraction commutes even for the everywhere-undefined stack;
        # its machine lives over the innermost (concrete) alphabet.
        concrete = {
            "schema": "actioncodes/lts-v1",
            "kind": "lts",
            "alphabet": ["a"],
            "states": ["q0"],
            "initial": "q0",
            "transitions": [["q0", "a", "q0"]],
        }
        concrete_file = tmp_path / "loop.json"
        concrete_file.write_text(dumps(concrete), encoding="utf-8")
        result = run(
            capsys,
            "check",
            "compose-alpha",
            fixture("chaos-inner.code.json"),
            fixture("chaos-outer.code.json"),
            str(concrete_file),
        )
        assert result == (0, "PASS\nmap q0 q0\n", "")

        result = run(
            capsys,
            "check",
            "gamma-noncompose",
            fixture("chaos-inner.code.json"),
            fixture("chaos-outer.code.json"),
            fixture("chaos-machine.lts.json"),
        )
        assert result == (
            0, "PASS\nisomorphic False\nsimulated-forward True\nsimulated-backward True\n", ""
        )

    def test_compose_rho_check(self, capsys, tmp_path):
        inner = {
            "schema": "actioncodes/code-v1",
            "source_alphabet": ["1", "2", "4"],
            "target_alphabet": ["a", "b"],
            "entries": [["a", ["1", "4", "1"]], ["b", ["1", "4", "2"]]],
        }
        outer = {
            "schema": "actioncodes/code-v1",
            "source_alphabet": ["a", "b"],
            "target_alphabet": ["W"],
            "entries": [["W", ["a", "b"]]],
        }
        machine = {
            "schema": "actioncodes/lts-v1",
            "kind": "lts",
            "alphabet": ["W"],
            "states": ["n0"],
            "initial": "n0",
            "transitions": [["n0", "W", "n0"]],
        }
        paths = []
        for name, doc in (("inner", inner), ("outer", outer), ("m", machine)):
            p = tmp_path / f"{name}.json"
            p.write_text(dumps(doc), encoding="utf-8")
            paths.append(str(p))
        assert run(capsys, "check", "compose-rho", *paths) == (0, (
            "PASS\n"
            "map n0⟨1.4.1.1.4⟩ n0⟨a⟩⟨1.4⟩\n"
            "map n0⟨1.4.1.1⟩ n0⟨a⟩⟨1⟩\n"
            "map n0⟨1.4.1⟩ n0⟨a⟩⟨⟩\n"
            "map n0⟨1.4⟩ n0⟨⟩⟨1.4⟩\n"
            "map n0⟨1⟩ n0⟨⟩⟨1⟩\n"
            "map n0⟨⟩ n0⟨⟩⟨⟩\n"
        ), "")

        # Letters outside the inner domain invalidate the stacking law.
        sparse_inner = dict(inner, entries=[["a", ["1", "4", "1"]]])
        sparse_file = tmp_path / "sparse.json"
        sparse_file.write_text(dumps(sparse_inner), encoding="utf-8")
        assert run(capsys, "check", "compose-rho", str(sparse_file), paths[1], paths[2]) == (
            1, "FAIL\nouter code words use letters outside the inner code domain\n", ""
        )

    def test_adaptor_theorem_check(self, capsys):
        status, _, _ = run(
            capsys,
            "check",
            "adaptor-theorem",
            "--code",
            fixture("double-press.code.json"),
            fixture("square.mealy.json"),
        )
        assert status == 0


class TestGen:
    def test_same_seed_same_output(self, capsys):
        first = run(capsys, "gen", "code", "--abstract", "3", "--maxlen", "3", "--seed", "7")
        second = run(capsys, "gen", "code", "--abstract", "3", "--maxlen", "3", "--seed", "7")
        assert first == second
        assert first[0] == 0

    def test_generated_documents_parse(self, capsys):
        status, out, _ = run(
            capsys, "gen", "lts", "--states", "5", "--labels", "2", "--seed", "2"
        )
        assert status == 0
        assert lts_from_document(loads(out)) is not None

    def test_mealy_code_generation(self, capsys):
        status, out, _ = run(
            capsys,
            "gen", "code", "--mealy", "--inputs", "2", "--outputs", "2",
            "--abstract", "2", "--maxlen", "2", "--seed", "11",
        )
        assert status == 0
        doc = loads(out)
        assert all("/" in t for t in doc["source_alphabet"])
        assert all("/" in b for b, _ in doc["entries"])

    @pytest.mark.parametrize("what", ["lts", "mealy"])
    @pytest.mark.parametrize("states", ["0", "-3"])
    def test_no_states_is_bad_input(self, capsys, what, states):
        status, out, err = run(capsys, "gen", what, "--states", states, "--seed", "1")
        assert (status, out) == (2, "")
        assert err == f"ERROR ValueError a system needs at least one state, got {states}\n"

    @pytest.mark.parametrize(
        "what,option,value,counted",
        [
            ("lts", "--labels", "-1", "atomic symbols"),
            ("mealy", "--inputs", "-1", "inputs"),
            ("mealy", "--outputs", "-2", "outputs"),
            ("code", "--abstract", "-2", "abstract symbols"),
            ("code", "--maxlen", "-1", "letters per code word"),
        ],
    )
    def test_negative_count_is_bad_input(self, capsys, what, option, value, counted):
        # A negative count once sliced its symbols from the end of the alphabet.
        status, out, err = run(capsys, "gen", what, option, value, "--seed", "1")
        assert (status, out) == (2, "")
        assert err == f"ERROR ValueError the number of {counted} cannot be negative, got {value}\n"

    @pytest.mark.parametrize(
        "args,counted",
        [
            (("lts", "--labels", "27"), "atomic symbols"),
            (("mealy", "--inputs", "27"), "inputs"),
            (("mealy", "--inputs", "30"), "inputs"),
            (("code", "--abstract", "27"), "abstract symbols"),
            (("code", "--abstract", "30"), "abstract symbols"),
            (("code", "--mealy", "--abstract", "27"), "abstract symbols"),
            (("code", "--mealy", "--inputs", "27"), "inputs"),
        ],
    )
    def test_count_above_the_alphabet_is_bad_input(self, capsys, args, counted):
        # Slicing 26 letters once gave 26 symbols for any larger count, or an IndexError.
        status, out, err = run(capsys, "gen", *args, "--seed", "1")
        assert (status, out) == (2, "")
        assert err == f"ERROR ValueError at most 26 {counted} are generated\n"

    def test_input_enabled_generation(self, capsys):
        status, out, _ = run(
            capsys,
            "gen", "mealy", "--states", "4", "--input-enabled", "--seed", "1",
        )
        assert status == 0
        m = lts_from_document(loads(out))
        for q in m.states:
            for i in sorted(m.inputs):
                assert any(a.symbol == i for a, _ in m.out(q))


class TestAdaptorVerb:
    def test_in_process_session(self, capsys, tmp_path):
        status, out, _ = run(
            capsys, "adaptor", "--code", fixture("double-press.code.json"),
            "--sut-file", fixture("square.mealy.json"), "--inputs", _inputs(tmp_path, "A\nB\nA\n"),
        )
        assert status == 0
        assert out.splitlines() == [
            "IN A", "SUT a/0", "SUT a/0", "OUT 0",
            "IN B", "SUT b/0", "SUT b/0", "OUT 0",
            "IN A", "SUT a/0", "SUT a/0", "OUT 0",
        ]

    def test_reads_abstract_inputs_from_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO("B\n"))
        status, out, _ = run(
            capsys, "adaptor", "--code", fixture("double-press.code.json"),
            "--sut-file", fixture("square.mealy.json"),
        )
        assert status == 0
        assert out.splitlines() == ["IN B", "SUT b/0", "SUT b/0", "OUT 0"]

    def test_empty_input_stream(self, capsys, tmp_path):
        status, out, _ = run(
            capsys, "adaptor", "--code", fixture("double-press.code.json"),
            "--sut-file", fixture("square.mealy.json"), "--inputs", _inputs(tmp_path, ""),
        )
        assert status == 0
        assert out == ""

    def test_not_winning_exits_3(self, capsys, tmp_path):
        full = loads((FIXTURES / "coffee.code.json").read_text(encoding="utf-8"))
        full["entries"] = [e for e in full["entries"] if e[0] != "espresso/2"]
        full["target_alphabet"] = [t for t in full["target_alphabet"] if t != "espresso/2"]
        code_file = tmp_path / "mutilated.json"
        code_file.write_text(dumps(full), encoding="utf-8")
        status, _, err = run(
            capsys, "adaptor", "--code", str(code_file), "--sut-file", fixture("square.mealy.json"),
            "--inputs", _inputs(tmp_path, "espresso\n"),
        )
        assert status == 3
        assert "NotWinning espresso" in err

    def test_non_determinate_code_is_refused_before_inputs(self, capsys, tmp_path):
        # The code is checked as a whole first, as AdaptorSession does, so an
        # input that is not winning does not hide a code that is unusable.
        status, out, err = run(
            capsys, "adaptor", "--code", fixture("shared-input.code.json"),
            "--sut-file", fixture("square.mealy.json"), "--inputs", _inputs(tmp_path, "Z\n"),
        )
        assert (status, out) == (2, "")
        assert err == "ERROR NotDeterminate node=ε input=0 first=a second=b\n"

    def test_code_incomplete_exits_4(self, capsys, tmp_path):
        code_doc = {
            "schema": "actioncodes/code-v1",
            "source_alphabet": ["b/0", "b/1"],
            "target_alphabet": ["B/0"],
            "entries": [["B/0", ["b/0"]]],
        }
        machine_doc = {
            "schema": "actioncodes/lts-v1",
            "kind": "mealy",
            "alphabet": ["b/0", "b/1"],
            "states": ["q0"],
            "initial": "q0",
            "transitions": [["q0", "b/0", "q0"], ["q0", "b/1", "q0"]],
        }
        code_file = tmp_path / "code.json"
        code_file.write_text(dumps(code_doc), encoding="utf-8")
        machine_file = tmp_path / "machine.json"
        machine_file.write_text(dumps(machine_doc), encoding="utf-8")
        script = tmp_path / "script.txt"
        script.write_text("1\n", encoding="utf-8")
        assert run(
            capsys, "adaptor", "--code", str(code_file), "--sut-file", str(machine_file),
            "--script", str(script), "--inputs", _inputs(tmp_path, "B\n"),
        ) == (4, "", "ERROR CodeIncomplete node=ε input=b output=1\n")

    def test_exec_backend(self, capsys, tmp_path):
        sut = tmp_path / "sut.py"
        sut.write_text(SQUARE_SUT_SCRIPT, encoding="utf-8")
        status, out, _ = run(
            capsys, "adaptor", "--code", fixture("double-press.code.json"),
            "--sut-exec", f"{sys.executable} {sut}", "--inputs", _inputs(tmp_path, "A\nB\nA\n"),
        )
        assert status == 0
        assert out.count("OUT 0") == 3

    def test_empty_exec_command_is_bad_input(self, capsys, tmp_path):
        status, out, err = run(
            capsys, "adaptor", "--code", fixture("double-press.code.json"),
            "--sut-exec", "", "--inputs", _inputs(tmp_path),
        )
        assert (status, out, err) == (2, "", "ERROR ValueError --sut-exec needs a command\n")

    @pytest.mark.parametrize("timeout", ["inf", "1e400", "nan", "0", "-1", "1e10", "1e308"])
    @pytest.mark.parametrize("backend", ["--sut-exec", "--sut-tcp"])
    def test_bad_timeout_is_refused_before_the_sut_starts(
        self, capsys, tmp_path, monkeypatch, backend, timeout
    ):
        # An infinite timeout once escaped from select or create_connection as
        # an OverflowError, and a TCP timeout of 0 as a BlockingIOError.  So
        # did a finite one past threading.TIMEOUT_MAX, after passing the check.
        started = []
        monkeypatch.setattr(subprocess, "Popen", lambda *args, **kw: started.append(args))
        monkeypatch.setattr(socket, "create_connection", lambda *args, **kw: started.append(args))
        sut = f"{sys.executable} -c pass" if backend == "--sut-exec" else "127.0.0.1:9"
        status, out, err = run(
            capsys, "adaptor", "--code", fixture("double-press.code.json"),
            backend, sut, "--timeout", timeout, "--inputs", _inputs(tmp_path),
        )
        assert (status, out, started) == (2, "", [])
        rule = ("a finite number > 0" if timeout not in ("1e10", "1e308")
                else f"at most {threading.TIMEOUT_MAX:.0f} s")
        assert err == f"ERROR ValueError the timeout must be {rule}, got {float(timeout)}\n"

    @pytest.mark.parametrize("port", ["0", "65536", "70000", "-1"])
    def test_bad_port_is_refused_before_connecting(self, capsys, tmp_path, monkeypatch, port):
        # The resolver once truncated a port to 16 bits (70000 reached port
        # 4464, 65536 port 0), and -1 escaped as a gaierror.
        started = []
        monkeypatch.setattr(socket, "create_connection", lambda *args, **kw: started.append(args))
        status, out, err = run(
            capsys, "adaptor", "--code", fixture("double-press.code.json"),
            "--sut-tcp", f"127.0.0.1:{port}", "--inputs", _inputs(tmp_path),
        )
        assert (status, out, started) == (2, "", [])
        assert err == f"ERROR ValueError the port must be in 1..65535, got {port}\n"

    def test_game_is_solved_once(self, capsys, tmp_path, monkeypatch):
        calls = []

        def counting_solve(tree):
            calls.append(tree)
            return solve(tree)

        solve = adaptor._solve
        monkeypatch.setattr(adaptor, "_solve", counting_solve)
        status, out, _ = run(
            capsys, "adaptor", "--code", fixture("double-press.code.json"),
            "--sut-file", fixture("square.mealy.json"), "--inputs", _inputs(tmp_path),
        )
        assert status == 0 and out.count("OUT 0") == 1
        assert len(calls) == 1

    def test_printed_events_are_dropped(self, capsys, tmp_path, monkeypatch):
        # The transcript holds only the input being applied, however long the run.
        sizes = []

        def recording_apply(self, abstract_input):
            sizes.append(len(self.transcript))
            return apply(self, abstract_input)

        apply = adaptor.AdaptorSession.apply
        monkeypatch.setattr(adaptor.AdaptorSession, "apply", recording_apply)
        status, out, _ = run(
            capsys, "adaptor", "--code", fixture("double-press.code.json"),
            "--sut-file", fixture("square.mealy.json"), "--inputs", _inputs(tmp_path, "A\nB\n" * 100),
        )
        assert status == 0 and len(out.splitlines()) == 800
        assert sizes == [0] * 200

    def test_tcp_backend(self, capsys, tmp_path):
        server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        server.bind(("127.0.0.1", 0))
        server.listen(1)
        port = server.getsockname()[1]

        transitions = {
            ("q0", "b"): ("0", "q1"), ("q0", "a"): ("0", "q3"),
            ("q1", "a"): ("0", "q2"), ("q1", "b"): ("0", "q0"),
            ("q2", "b"): ("0", "q1"), ("q2", "a"): ("0", "q3"),
            ("q3", "a"): ("0", "q2"), ("q3", "b"): ("1", "q0"),
        }

        def serve():
            conn, _ = server.accept()
            state = "q0"
            buffer = b""
            while True:
                chunk = conn.recv(1024)
                if not chunk:
                    break
                buffer += chunk
                while b"\n" in buffer:
                    line, _, buffer = buffer.partition(b"\n")
                    symbol = line.decode()
                    if symbol == "RESET":
                        state = "q0"
                        continue
                    out, state = transitions[(state, symbol)]
                    conn.sendall(out.encode() + b"\n")
            conn.close()

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        try:
            status, out, _ = run(
                capsys, "adaptor", "--code", fixture("double-press.code.json"),
                "--sut-tcp", f"127.0.0.1:{port}", "--inputs", _inputs(tmp_path, "B\nA\n"),
            )
        finally:
            server.close()
        assert status == 0
        assert out.count("OUT 0") == 2


class TestDeepCode:
    """A code of one word of 4,000 letters a/0.  Naming each node by its
    rendered word before the game, as the tree form does, peaked at 36 MB
    under tracemalloc; the verbs read the map, whose words are not named."""

    @pytest.mark.parametrize("argv,last", [
        (["check", "determinate"], "PASS"),
        (["check", "winning"], "winning X a"),
        (["adaptor", "--sut-file", "{sut}", "--inputs", "{inputs}"], "OUT 0"),
    ], ids=["determinate", "winning", "adaptor"])
    def test_a_word_of_four_thousand_letters(self, capsys, tmp_path, argv, last):
        a, x = Label("a", "0"), Label("X", "0")
        code = CodeMap([a], [x], [(x, [a] * 4000)])
        files = {"code": code_to_document(code),
                 "sut": lts_to_document(Lts(["q0"], "q0", [("q0", a, "q0")], [a]))}
        for name, doc in files.items():
            (tmp_path / name).write_text(dumps(doc), encoding="utf-8")
        (tmp_path / "inputs").write_text("X\n", encoding="utf-8")
        argv = [arg.format(sut=tmp_path / "sut", inputs=tmp_path / "inputs") for arg in argv]
        tracemalloc.start()
        try:
            status = main(argv + ["--code", str(tmp_path / "code")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (status, capsys.readouterr().out.splitlines()[-1]) == (0, last)
        assert peak < 8_000_000


def test_galois2_on_a_word_over_two_thousand_outputs(capsys, tmp_path):
    # One class of 2,000 related outputs: concretization tested every
    # letter's related tuple at every node, 11 s.  The check runs
    # is_icomplete, contract, concretize and both simulations.
    source, word, code = one_input_word(2000, 200)
    x = Label("X", "0")
    files = {
        "code": code_to_document(code),
        "ring": lts_to_document(Lts([f"r{k}" for k in range(200)], "r0",
                                    [(f"r{k}", a, f"r{(k + 1) % 200}")
                                     for k, a in enumerate(word)], source)),
        "loop": lts_to_document(Lts(["q0"], "q0", [("q0", x, "q0")], [x])),
    }
    for name, doc in files.items():
        (tmp_path / name).write_text(dumps(doc), encoding="utf-8")
    start = time.process_time()
    status = main(["check", "galois2", "--code", str(tmp_path / "code"), "--rel",
                   "same-input", str(tmp_path / "ring"), str(tmp_path / "loop")])
    elapsed = time.process_time() - start
    assert (status, capsys.readouterr().out) == (0, "PASS\nicomplete True\n"
                                                 "contraction-simulated True\n"
                                                 "concretization-simulated True\n")
    assert elapsed < 1.0


def _closed_port() -> int:
    probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return port


def _inputs(tmp_path, text: str = "A\n") -> str:
    """A file of abstract inputs, one per line."""
    path = tmp_path / "inputs.txt"
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestOsErrors:
    @pytest.mark.parametrize(
        "argv,error",
        [
            (lambda tmp: ["to-tree", fixture("coffee.code.json"),
                          "--out", str(tmp / "missing" / "x.json")],
             "FileNotFoundError "),
            # An empty path once wrote to stdout and exited 0, then named the
            # working directory.
            (lambda tmp: ["contract", "--code", fixture("double-press.code.json"),
                          fixture("square.mealy.json"), "--out", ""],
             "FileNotFoundError [Errno 2] empty path: ''\n"),
            (lambda tmp: ["adaptor", "--code", fixture("double-press.code.json"),
                          "--sut-file", fixture("square.mealy.json"),
                          "--inputs", str(tmp / "missing.txt")],
             "DocumentError "),
            (lambda tmp: ["adaptor", "--code", fixture("double-press.code.json"),
                          "--sut-file", fixture("square.mealy.json"),
                          "--script", str(tmp / "missing.txt"), "--inputs", _inputs(tmp)],
             "DocumentError "),
            (lambda tmp: ["adaptor", "--code", fixture("double-press.code.json"),
                          "--sut-exec", str(tmp / "no-such-sut"), "--inputs", _inputs(tmp)],
             "FileNotFoundError "),
            (lambda tmp: ["adaptor", "--code", fixture("double-press.code.json"),
                          "--sut-tcp", f"127.0.0.1:{_closed_port()}",
                          "--inputs", _inputs(tmp)],
             "ConnectionRefusedError "),
        ],
        ids=["out", "empty-out", "inputs", "script", "sut-exec", "sut-tcp"],
    )
    def test_os_error_exits_2_with_error_line(self, capsys, tmp_path, argv, error):
        status, out, err = run(capsys, *argv(tmp_path))
        assert status == 2
        assert out == ""
        assert err.startswith(f"ERROR {error}")


def test_non_string_state_names_exit_2(capsys, tmp_path):
    doc = {
        "schema": "actioncodes/lts-v1",
        "kind": "lts",
        "alphabet": ["a"],
        "states": [1, "x"],
        "initial": "x",
        "transitions": [["x", "a", 1]],
    }
    path = tmp_path / "m.json"
    path.write_text(dumps(doc), encoding="utf-8")
    status, _, err = run(capsys, "check", "simulation", str(path), str(path))
    assert status == 2
    assert err == "ERROR DocumentError state name 1 is not a string\n"


def test_deeply_nested_json_exits_2(capsys, tmp_path):
    # Nesting deeper than the JSON parser's stack once escaped as a
    # RecursionError traceback with exit 1.
    path = tmp_path / "deep.json"
    path.write_text('{"a": ' + "[" * 200_000 + "]" * 200_000 + "}", encoding="utf-8")
    status, out, err = run(capsys, "check", "simulation", str(path), str(path))
    assert (status, out) == (2, "")
    assert err.startswith("ERROR DocumentError not valid JSON: ") and "recursion" in err
    assert err.count("\n") == 1


def test_an_integer_past_the_digit_limit_exits_2(capsys, tmp_path):
    # A 5,000-digit integer once escaped as a plain ValueError.
    path = tmp_path / "digits.json"
    path.write_text('{"kind": "lts", "states": ' + "1" * 5000 + "}", encoding="utf-8")
    status, out, err = run(capsys, "check", "simulation", str(path), str(path))
    assert (status, out) == (2, "")
    assert err.startswith("ERROR DocumentError not valid JSON: Exceeds the limit")
    assert err.count("\n") == 1


def test_a_repeated_key_exits_2(capsys, tmp_path):
    # The parser kept the last of two schema fields, and the call exited 0.
    path = tmp_path / "twice.json"
    text = (FIXTURES / "square.mealy.json").read_text(encoding="utf-8")
    path.write_text(text.replace("{", '{\n  "schema": "actioncodes/code-v1",', 1),
                    encoding="utf-8")
    status, out, err = run(capsys, "contract", "--code", str(FIXTURES / "double-press.code.json"),
                           str(path))
    assert (status, out) == (2, "")
    assert err == "ERROR DocumentError the key 'schema' is repeated in a JSON object\n"


def test_non_utf8_document_exits_2(capsys, tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"kind": "lts", "states": ["\xe9"]}')
    status, out, err = run(capsys, "check", "simulation", str(path), str(path))
    assert (status, out) == (2, "")
    assert err.startswith(f"ERROR DocumentError cannot read {path}: 'utf-8' codec can't decode")
    assert err.count("\n") == 1


@pytest.mark.parametrize("option", ["--inputs", "--script"])
@pytest.mark.parametrize("content", [None, b"A\n\xff\n", "directory"],
                         ids=["missing", "non-utf8", "directory"])
def test_unreadable_symbol_file_exits_2(capsys, tmp_path, option, content):
    # Any failure to read a symbol file names the path, as for documents; a
    # file that is not UTF-8 must not end as a bare UnicodeDecodeError.
    path = tmp_path / "symbols.txt"
    if content == "directory":
        path.mkdir()
    elif content is not None:
        path.write_bytes(content)
    argv = ["adaptor", "--code", fixture("double-press.code.json"),
            "--sut-file", fixture("square.mealy.json"), "--inputs", _inputs(tmp_path)]
    status, out, err = run(capsys, *argv, option, str(path))  # a repeated option wins
    assert (status, out) == (2, "")
    assert err.startswith(f"ERROR DocumentError cannot read {path}: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("option", ["--inputs", "--script"])
def test_an_empty_symbol_path_is_not_absent(capsys, monkeypatch, tmp_path, option):
    # An empty path once read stdin (--inputs) or ran with no script, then
    # named the working directory.
    monkeypatch.setattr(sys, "stdin", io.StringIO("A\n"))
    argv = ["adaptor", "--code", fixture("double-press.code.json"),
            "--sut-file", fixture("square.mealy.json"), "--inputs", _inputs(tmp_path)]
    status, out, err = run(capsys, *argv, option, "")  # a repeated option wins
    assert (status, out) == (2, "")
    assert err.startswith("ERROR DocumentError cannot read : [Errno 2] empty path: ''")
    assert err.count("\n") == 1


def test_a_bad_input_symbol_exits_2_before_the_sut_starts(capsys, monkeypatch, tmp_path):
    # It once reached the winning check and exited 3 with NotWinning.
    spawned = []
    monkeypatch.setattr(subprocess, "Popen", lambda *args, **kwargs: spawned.append(args))
    status, out, err = run(
        capsys, "adaptor", "--code", fixture("double-press.code.json"),
        "--sut-exec", "/nonexistent/sut", "--inputs", _inputs(tmp_path, "A\n a b \n"),
    )
    assert (status, out, spawned) == (2, "", [])
    assert err == ("ERROR ValueError bad symbol 'a b': symbols are non-empty and contain "
                   "no whitespace and no '/'\n")


def test_a_bad_script_symbol_exits_2_before_the_run(capsys, tmp_path):
    # It once failed only when the script reached it, at send time.
    script = tmp_path / "script.txt"
    script.write_text("0\n0/1\n", encoding="utf-8")
    status, out, err = run(
        capsys, "adaptor", "--code", fixture("double-press.code.json"),
        "--sut-file", fixture("square.mealy.json"), "--script", str(script),
        "--inputs", _inputs(tmp_path, "A\n"),
    )
    assert (status, out) == (2, "")
    assert err == ("ERROR ValueError bad symbol '0/1': symbols are non-empty and contain "
                   "no whitespace and no '/'\n")


def test_a_reset_input_exits_2_without_waiting(capsys, tmp_path):
    # Sent on the wire, RESET reset the SUT, which answered nothing, and the
    # call ended with a timeout.
    code = tmp_path / "reset.code.json"
    code.write_text(dumps({
        "schema": "actioncodes/code-v1", "source_alphabet": ["RESET/0"],
        "target_alphabet": ["X/0"], "entries": [["X/0", ["RESET/0"]]],
    }), encoding="utf-8")
    script = tmp_path / "zero.py"
    script.write_text("import sys\nfor line in sys.stdin:\n    if line != 'RESET\\n':\n"
                      "        print(0, flush=True)\n", encoding="utf-8")
    status, out, err = run(
        capsys, "adaptor", "--code", str(code),
        "--sut-exec", f"{sys.executable} {script}", "--inputs", _inputs(tmp_path, "X\n"),
    )
    assert (status, out) == (2, "")
    assert err == "ERROR SutProtocolError the input symbol 'RESET' is reserved on the wire\n"


@pytest.mark.parametrize("data,want", [
    (b"B\n", (0, "IN B\nSUT b/0\nSUT b/0\nOUT 0\n", "")),
    (b"A\n\xff\n", (2, "", "ERROR DocumentError cannot read <stdin>: 'utf-8' codec can't "
                     "decode byte 0xff in position 2: invalid start byte\n")),
], ids=["utf8", "non-utf8"])
def test_stdin_symbols_are_strict_utf8(capsys, monkeypatch, data, want):
    # Under the C and C.UTF-8 locales stdin decodes with surrogateescape, so
    # a byte that is not UTF-8 once reached the adaptor as a lone surrogate
    # symbol and ended as "ERROR NotWinning \udcff" with exit 3.
    stdin = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", errors="surrogateescape")
    monkeypatch.setattr(sys, "stdin", stdin)
    argv = ["adaptor", "--code", fixture("double-press.code.json"),
            "--sut-file", fixture("square.mealy.json")]
    assert run(capsys, *argv) == want


def test_non_utf8_stdin_exits_2_under_the_c_locale():
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src), "LC_ALL": "C.UTF-8"}
    result = subprocess.run(
        [sys.executable, "-m", "actioncodes.cli", "adaptor",
         "--code", fixture("double-press.code.json"), "--sut-file", fixture("square.mealy.json")],
        input=b"A\n\xff\n", env=env, capture_output=True, check=False,
    )
    assert (result.returncode, result.stdout) == (2, b"")
    assert result.stderr.startswith(b"ERROR DocumentError cannot read <stdin>: ")


def _child(*argv: str, unbuffered: bool, close: str = "") -> subprocess.Popen:
    """``python -m actioncodes.cli`` as a child, stdout and stderr piped;
    stdout is block-buffered unless ``unbuffered``.  A shell runs it with
    ``close``, ``<&-`` or ``>&-``, when given: its stdin or stdout is closed."""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    command = [sys.executable, "-m", "actioncodes.cli", *argv]
    if close:
        command = ["sh", "-c", f'exec "$@" {close}', "sh", *command]
    return subprocess.Popen(command, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)


@pytest.mark.parametrize("unbuffered", [False, True])
def test_stdout_closed_mid_output_exits_141_quietly(tmp_path, unbuffered):
    # 20,000 map lines are about 245 KB, more than a pipe holds, so a write
    # fails while the check prints: it once ended as exit 2 with an
    # "ERROR BrokenPipeError" line.
    big = tmp_path / "big.lts.json"
    big.write_text(dumps(lts_to_document(gen_lts(1, 20000, 3, True))), encoding="utf-8")
    proc = _child("check", "isomorphism", str(big), str(big), unbuffered=unbuffered)
    assert proc.stdout.readline() == b"PASS\n"
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert (err, proc.returncode) == (b"", 141)


@pytest.mark.parametrize("unbuffered", [False, True])
def test_stdout_closed_before_the_output_exits_141_quietly(unbuffered):
    # Buffered, the few lines wait in stdout's buffer, so the write fails
    # only when main flushes it; a flush left to the interpreter on the way
    # out would print "Exception ignored" and exit 120.
    choice = fixture("choice.lts.json")
    proc = _child("check", "isomorphism", choice, choice, unbuffered=unbuffered)
    proc.stdout.close()  # before the child has started up
    _, err = proc.communicate(timeout=60)
    assert (err, proc.returncode) == (b"", 141)


def test_a_closed_stdin_exits_2():
    # Python sets sys.stdin to None when fd 0 is closed: reading it once
    # ended in an AttributeError traceback and exit 1, the FAIL code.
    proc = _child("adaptor", "--code", fixture("double-press.code.json"),
                  "--sut-file", fixture("square.mealy.json"), unbuffered=False, close="<&-")
    out, err = proc.communicate(timeout=60)
    assert (proc.returncode, out) == (2, b"")
    assert err == b"ERROR DocumentError cannot read <stdin>: [Errno 9] Bad file descriptor\n"


@pytest.mark.parametrize("unbuffered", [False, True])
def test_stdout_closed_at_the_start_exits_141_quietly(unbuffered):
    # With fd 1 closed sys.stdout is None; flushing it once ended in an
    # AttributeError traceback and exit 1, a FAIL for a PASS.
    proc = _child("check", "determinate", "--code", fixture("double-press.code.json"),
                  unbuffered=unbuffered, close=">&-")
    _, err = proc.communicate(timeout=60)
    assert (err, proc.returncode) == (b"", 141)


def _interrupted(*argv: str, once: Path) -> subprocess.Popen:
    """``cli.main(argv)`` in a child that sends its main thread SIGINT 0.2 s
    after the file ``once`` exists; stdin is a pipe left open, stdout and
    stderr are piped."""
    probe = (
        "import os, signal, sys, threading, time\n"
        "from actioncodes.cli import main\n"
        "def interrupt():\n"
        f"    while not os.path.exists({str(once)!r}):\n"
        "        time.sleep(0.01)\n"
        "    time.sleep(0.2)\n"
        "    signal.pthread_kill(threading.main_thread().ident, signal.SIGINT)\n"
        "threading.Thread(target=interrupt, daemon=True).start()\n"
        f"sys.exit(main({list(argv)!r}))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    return subprocess.Popen([sys.executable, "-c", probe], env=env, stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)


def test_an_interrupted_run_exits_130_with_one_error_line():
    # Blocked reading its abstract inputs from stdin; the interrupt once
    # ended in a traceback and the death of the process by the signal.
    code = FIXTURES / "double-press.code.json"
    with _interrupted("adaptor", "--code", str(code), "--sut-file", fixture("square.mealy.json"),
                      once=code) as proc:
        proc.wait(timeout=60)
        assert (proc.returncode, proc.stdout.read()) == (130, b"")
        assert proc.stderr.read() == b"ERROR KeyboardInterrupt the run was interrupted\n"


def test_an_interrupted_run_closes_its_sut_child(tmp_path):
    # Blocked waiting for a reply from a SUT child that never answers: the
    # adaptor ends the child before it exits.
    pid_file = tmp_path / "sut.pid"
    script = tmp_path / "sut.sh"
    script.write_text(f'echo $$ > "{pid_file}"\nexec sleep 60\n', encoding="utf-8")
    with _interrupted("adaptor", "--code", fixture("double-press.code.json"),
                      "--sut-exec", f"sh {script}", "--timeout", "60",
                      "--inputs", _inputs(tmp_path), once=pid_file) as proc:
        proc.wait(timeout=60)
        assert (proc.returncode, proc.stdout.read()) == (130, b"")
        assert proc.stderr.read() == b"ERROR KeyboardInterrupt the run was interrupted\n"
    with pytest.raises(ProcessLookupError):
        os.kill(int(pid_file.read_text()), 0)


def test_stdout_closed_at_the_start_is_no_failure_with_out(tmp_path):
    target = tmp_path / "contraction.json"
    proc = _child("contract", "--code", fixture("double-press.code.json"), "--out", str(target),
                  fixture("square.mealy.json"), unbuffered=False, close=">&-")
    _, err = proc.communicate(timeout=60)
    assert (err, proc.returncode) == (b"", 0)
    assert target.read_bytes() == (FIXTURES / "double-press-contraction.mealy.json").read_bytes()


def test_a_dead_sut_is_no_closed_stdout(capsys, tmp_path):
    # The child exits without reading a line: the RESET or the input may
    # meet a broken pipe, or the read an end of stream; each is the SUT's
    # fault, exit 2 with an ERROR line, not the quiet 141.
    status, out, err = run(
        capsys, "adaptor", "--code", fixture("double-press.code.json"),
        "--sut-exec", f"{sys.executable} -c pass", "--inputs", _inputs(tmp_path, "A\n"),
    )
    assert (status, out) == (2, "")
    assert err.startswith("ERROR SutProtocolError ")


def test_a_sut_line_past_the_cap_exits_2(capsys, tmp_path):
    script = tmp_path / "verbose.py"
    script.write_text("import sys\nfor line in sys.stdin:\n    if line != 'RESET\\n':\n"
                      "        print('x' * 70000, flush=True)\n", encoding="utf-8")
    status, out, err = run(
        capsys, "adaptor", "--code", fixture("double-press.code.json"),
        "--sut-exec", f"{sys.executable} {script}", "--inputs", _inputs(tmp_path, "A\n"),
    )
    assert (status, out) == (2, "")
    assert err == "ERROR SutProtocolError an output line from the SUT is longer than 65536 bytes\n"


_TREE = {
    "schema": "actioncodes/tree-v1",
    "abstract_alphabet": ["X"],
    "leaf_labels": [[1, "X"]],
    "tree": {
        "schema": "actioncodes/lts-v1",
        "kind": "lts",
        "alphabet": ["a"],
        "states": ["1", "r"],
        "initial": "r",
        "transitions": [["r", "a", "1"]],
    },
}


@pytest.mark.parametrize(
    "verb,doc,error",
    [
        (["check", "simulation", "{doc}", "{doc}"],
         {"schema": "actioncodes/lts-v1", "kind": "lts", "alphabet": [[7]],
          "states": ["x"], "initial": "x", "transitions": []},
         "bad symbol [7]: symbols are strings"),
        (["to-tree", "{doc}"],
         {"schema": "actioncodes/code-v1", "source_alphabet": ["a"],
          "target_alphabet": ["X"], "entries": [[[1], ["a"]]]},
         "bad symbol [1]: symbols are strings"),
        (["to-map", "{doc}"], _TREE, "state name 1 is not a string"),
        (["to-map", "{doc}"], {**_TREE, "tree": 5}, "lts document must be an object, not int"),
        (["to-map", "{doc}"], {**_TREE, "tree": ["schema"]},
         "lts document must be an object, not list"),
    ],
    ids=["label-in-alphabet", "label-in-code-entry", "leaf-name", "carrier-int",
         "carrier-list"],
)
def test_non_string_document_values_exit_2(capsys, tmp_path, verb, doc, error):
    path = tmp_path / "doc.json"
    path.write_text(dumps(doc), encoding="utf-8")
    status, out, err = run(capsys, *(a.replace("{doc}", str(path)) for a in verb))
    assert (status, out, err) == (2, "", f"ERROR DocumentError {error}\n")


def test_a_leaf_labeled_twice_exits_2(capsys, tmp_path):
    # The tree form of a code, with its first leaf given a second label.
    status, text, _ = run(capsys, "to-tree", fixture("coffee.code.json"))
    assert status == 0
    doc = loads(text)
    leaf = doc["leaf_labels"][0][0]
    doc["abstract_alphabet"].append("tea/9")
    doc["leaf_labels"].append([leaf, "tea/9"])
    path = tmp_path / "tree.json"
    path.write_text(dumps(doc), encoding="utf-8")
    status, out, err = run(capsys, "to-map", str(path))
    assert (status, out, err) == (2, "", f"ERROR InvalidTree leaf {leaf} is labeled twice\n")


def test_import_leaves_the_transports_and_dataclasses_out():
    # Each SUT transport is imported by the backend that uses it, and the
    # value types are plain classes, so a CLI call imports none of these.
    heavy = ("dataclasses", "inspect", "socket", "subprocess", "select")
    probe = f"import sys, actioncodes.cli; print([m for m in {heavy!r} if m in sys.modules])"
    src = Path(__file__).resolve().parent.parent / "src"
    result = subprocess.run(
        [sys.executable, "-S", "-c", probe], env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, check=True,
    )
    assert result.stdout == "[]\n"


@pytest.mark.parametrize("argv,absent", [
    (["contract", "--code", fixture("double-press.code.json"), fixture("square.mealy.json")],
     ("adaptor", "simulation", "generate")),
    (["check", "simulation", fixture("octal-choice-nondet.lts.json"),
      fixture("octal-choice-det.lts.json")], ("adaptor", "generate")),
    (["check", "winning", "--code", fixture("coffee.code.json")], ("simulation", "generate")),
], ids=["contract", "check simulation", "check winning"])
def test_a_call_loads_only_the_modules_of_its_verb(argv, absent):
    probe = (
        "import contextlib, io, sys\n"
        "from actioncodes import cli\n"
        f"with contextlib.redirect_stdout(io.StringIO()): status = cli.main({argv!r})\n"
        f"print(status, [m for m in {absent!r} if 'actioncodes.' + m in sys.modules])"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    result = subprocess.run(
        [sys.executable, "-S", "-c", probe], env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, check=True,
    )
    assert result.stdout == "0 []\n"


def _parsed(parser, argv):
    """The namespace argparse gives for argv, or its exit code and output."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            return parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize(
    "argv",
    [argv for argv, _ in CALLS]
    + [[], ["-h"], ["nosuch"], ["check"], ["check", "nosuch"]]
    + [[verb, "-h"] for verb in _VERBS] + [["check", what, "-h"] for what in _CHECKS]
    + [["contract"], ["check", "winning", "--code"], ["gen", "lts", "--seed", "x"]],
    ids=" ".join,
)
def test_the_one_verb_parser_parses_as_the_full_parser(argv):
    assert _parsed(_build_parser(argv), argv) == _parsed(_build_parser(), argv)


@pytest.mark.parametrize("argv,listed", [
    (["-h"], _VERBS), (["nosuch"], _VERBS), (["check", "-h"], _CHECKS),
    (["check", "nosuch"], _CHECKS),
], ids=["-h", "nosuch", "check -h", "check nosuch"])
def test_a_vector_naming_no_verb_lists_every_verb(argv, listed):
    _, out, err = _parsed(_build_parser(argv), argv)
    assert "{" + ",".join(listed) + "}" in out + err
