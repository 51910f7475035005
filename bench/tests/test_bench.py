"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import harness  # noqa: E402
import run  # noqa: E402
import wl_adaptor  # noqa: E402
import wl_cli  # noqa: E402
import wl_decide  # noqa: E402
import wl_laws  # noqa: E402
from common import NULL_TRACER  # noqa: E402


def bench(*argv, cwd=ROOT):
    return subprocess.run([sys.executable, str(BENCH / "run.py"), *argv], capture_output=True,
                          text=True, cwd=cwd, timeout=600)


def declared(kind: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def test_declared_metrics_match_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert declared("end_to_end") == harness.END_TO_END
    assert declared("per_layer") == harness.PER_LAYER
    # adaptor-tcp runs on request only; see README.md.
    assert [w["name"] for w in spec["workloads"]] == [
        w for w in run.WORKLOADS if w != "adaptor-tcp"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_each_workload_runs_end_to_end(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "0.2",
                 "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == (harness.PER_LAYER if trace else harness.END_TO_END)
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


FACTORIES = {
    "decide": lambda seed: wl_decide.Decide(seed, "tiny"),
    "laws": lambda seed: wl_laws.Laws(seed, "tiny"),
    "adaptor-inproc": lambda seed: wl_adaptor.AdaptorStream("inproc", seed, "tiny"),
    "cli": lambda seed: wl_cli.CliCalls(seed, "tiny"),
}
FINGERPRINTS = {"decide": wl_decide.fingerprint, "laws": wl_laws.fingerprint,
                "adaptor-inproc": wl_adaptor.fingerprint, "cli": wl_cli.fingerprint}


@pytest.mark.parametrize("workload", sorted(FACTORIES))
def test_same_seed_same_instances(workload):
    make, fingerprint = FACTORIES[workload], FINGERPRINTS[workload]
    first, again, other = make(5), make(5), make(6)
    try:
        assert fingerprint(first) == fingerprint(again)
        assert fingerprint(first) != fingerprint(other)
    finally:
        for w in (first, again, other):
            w.close()


def test_wrong_expected_verdict_is_a_failure():
    workload = wl_decide.Decide(3, "tiny")
    case = workload.ops[0]
    case.expected = not case.expected
    timed = harness.measure(workload, NULL_TRACER, passes=1)
    assert timed.failed == 1 and len(timed.raw_ms) == len(workload.ops)


def test_corrupted_cli_golden_is_a_failure():
    workload = wl_cli.CliCalls(3, "tiny")
    try:
        call = next(c for c in workload.ops if c.kind == "bytes")
        call.expected = call.expected.replace(b'"initial"', b'"Initial"')
        timed = harness.measure(workload, NULL_TRACER, passes=1)
    finally:
        workload.close()
    assert timed.failed == 1


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "decide", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], capture_output=True, text=True,
                          cwd=tmp_path, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
