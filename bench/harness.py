"""Runs one workload: set-up, timed passes, checks, and the metrics.

End-to-end metrics come from an untraced run.  A traced run first repeats
the workload untraced for half the time, then replays the same number of
passes with every library call in a span; the per-layer metrics come from
those spans, per set-up or per pass, and ``trace.overhead_ratio`` compares
the two halves.
"""

from __future__ import annotations

import json
import sys
import traceback
from array import array
from time import perf_counter_ns

from common import (
    NULL_TRACER,
    Tracer,
    median,
    nearest_rank,
    peak_rss_mb,
    reference_ns,
    work_dir,
)

SETUP_REPEATS = 5
#: An operation's percentile needs this many samples beyond it.
TAIL_SAMPLES = 10
MIN_OPS = 10 * TAIL_SAMPLES
#: Time the reference loop after at least this much operation time.
REF_EVERY_NS = 2_000_000
#: Reference loop time that scaled times are expressed at (its median on a
#: 2-core x86-64 VM at 2.1 GHz with Python 3.11).
REF_NOMINAL_NS = 250_000

END_TO_END = {
    "op_ms.p50": "ms",
    "op_ms.p90": "ms",
    "ops_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "simulation.find_simulation.busy_s": "s",
    "simulation.find_simulation.calls": "count",
    "simulation.product_pairs": "count",
    "simulation.kept_ratio": "ratio",
    "simulation.find_delay_simulation.busy_s": "s",
    "simulation.find_delay_simulation.calls": "count",
    "simulation.iso_nondet.busy_s": "s",
    "simulation.iso_det.busy_s": "s",
    "operators.contract.busy_s": "s",
    "operators.refine.busy_s": "s",
    "operators.concretize.busy_s": "s",
    "operators.is_icomplete.busy_s": "s",
    "operators.states_out": "count",
    "operators.transitions_out": "count",
    "codes.to_tree.busy_s": "s",
    "codes.compose.busy_s": "s",
    "documents.dumps.busy_s": "s",
    "documents.parse.busy_s": "s",
    "documents.bytes": "B",
    "adaptor.adaptor_composition.busy_s": "s",
    "adaptor.split_io.busy_s": "s",
    "adaptor.composed_states": "count",
    "adaptor.solve_winning.busy_s": "s",
    "adaptor.is_determinate.busy_s": "s",
    "adaptor.sut_start_s.child": "s",
    "adaptor.sut_start_s.tcp": "s",
    "adaptor.self_s.inproc": "s",
    "adaptor.self_s.child": "s",
    "adaptor.self_s.tcp": "s",
    "adaptor.sut_wait_s.inproc": "s",
    "adaptor.sut_wait_s.child": "s",
    "adaptor.sut_wait_s.tcp": "s",
    "adaptor.exchanges.inproc": "count",
    "adaptor.exchanges.child": "count",
    "adaptor.exchanges.tcp": "count",
    "adaptor.exchanges_per_apply": "ratio",
    "cli.interp_start_ms": "ms",
    "cli.import_ms": "ms",
    "cli.main_ms": "ms",
    "generate.busy_s": "s",
    "lts.build.busy_s": "s",
    "trace.overhead_ratio": "ratio",
    "machine.ref_us": "us",
}


class Timings:
    """Operation times of some passes, raw and scaled to reference speed."""

    def __init__(self):
        # Single precision keeps a long adaptor run's samples out of the
        # peak memory the run reports.
        self.raw_ms = array("f")
        self.scaled_ms = array("f")
        self.refs_ns: list[int] = []
        self.failed = 0
        self.passes = 0


def measure(workload, tracer, seconds: float | None = None, min_ops: int = 0,
            passes: int | None = None) -> Timings:
    """Run whole passes over the workload's operations.

    Stops after ``passes`` passes when given, otherwise at the end of the
    first pass that ends after ``seconds`` with at least ``min_ops``
    operations timed.  Only ``run(op)`` is inside the timed interval; the
    workload's checks of each result run outside it, and so does the
    reference loop, timed after every ``REF_EVERY_NS`` of operations.  Each
    operation is scaled by the mean of the reference times around it.
    """
    out = Timings()
    raw, scaled = out.raw_ms, out.scaled_ms
    workload.set_tracer(tracer)
    run, check, ops = workload.run, workload.check, workload.ops
    start = perf_counter_ns()
    deadline = None if seconds is None else start + int(seconds * 1e9)
    ref_before = reference_ns()
    out.refs_ns.append(ref_before)
    pending = since = 0

    def rescale():
        nonlocal ref_before, pending, since
        ref_after = reference_ns()
        out.refs_ns.append(ref_after)
        factor = 2 * REF_NOMINAL_NS / (ref_before + ref_after)
        scaled.extend(x * factor for x in raw[pending:])
        ref_before, pending, since = ref_after, len(raw), 0

    while True:
        workload.begin_pass()
        for index, op in enumerate(ops):
            if tracer.enabled:
                tracer.instance = f"{out.passes}:{index}"
            error = None
            t0 = perf_counter_ns()
            try:
                result = run(op)
            except Exception:  # a failed operation is counted, not fatal
                error = traceback.format_exc()
                result = None
            t1 = perf_counter_ns()
            since += t1 - t0
            raw.append((t1 - t0) / 1e6)
            if error is not None:
                out.failed += 1
                print(f"op {index} raised:\n{error}", file=sys.stderr)
            elif not check(index, result):
                out.failed += 1
                print(f"op {index} ({workload.describe_op(index)}) failed its check",
                      file=sys.stderr)
            if since >= REF_EVERY_NS:
                rescale()
        out.passes += 1
        if passes is not None:
            if out.passes >= passes:
                break
        elif perf_counter_ns() >= deadline and len(raw) >= min_ops:
            break
    if pending < len(raw):
        rescale()
    return out


def set_up(factory, tracer):
    """Build the workload ``SETUP_REPEATS`` times; keep the last one.

    Returns it with the raw and the reference-scaled median set-up time.
    """
    raw, scaled = [], []
    workload = None
    for _ in range(SETUP_REPEATS):
        if workload is not None:
            workload.close()
            workload = None
        ref_before = reference_ns()
        start = perf_counter_ns()
        workload = factory(tracer)
        took = perf_counter_ns() - start
        ref_after = reference_ns()
        raw.append(took / 1e9)
        scaled.append(took / 1e9 * 2 * REF_NOMINAL_NS / (ref_before + ref_after))
    return workload, median(raw), median(scaled)


def run_workload(name: str, factory, seed: int, seconds: float, trace: bool,
                 children_rss: bool) -> dict:
    """One benchmark run; returns the result object and report lines."""
    setup_tracer = Tracer() if trace else NULL_TRACER
    workload, setup_raw, setup_scaled = set_up(factory, setup_tracer)
    try:
        if not trace:
            timed = measure(workload, NULL_TRACER, seconds=seconds, min_ops=MIN_OPS)
            # Read before the statistics below make their own sorted copies.
            rss = peak_rss_mb(children_rss)
            metrics, report = end_to_end(timed, setup_scaled, setup_raw, rss)
            attempted, failed = len(timed.raw_ms), timed.failed
        else:
            plain = measure(workload, NULL_TRACER, seconds=seconds / 2)
            tracer = Tracer()
            traced = measure(workload, tracer, passes=plain.passes)
            extra = workload.layer_metrics() if hasattr(workload, "layer_metrics") else {}
            metrics, report = per_layer(workload, setup_tracer, tracer, plain, traced, extra)
            attempted = len(plain.raw_ms) + len(traced.raw_ms)
            failed = plain.failed + traced.failed
            trace_file = work_dir("traces") / f"{name}-seed{seed}.json"
            trace_file.write_text(json.dumps(
                {"workload": name, "seed": seed, "setups": SETUP_REPEATS,
                 "passes": traced.passes, "setup": setup_tracer.dump(),
                 "run": tracer.dump()}) + "\n", encoding="utf-8")
            report.append(f"trace written to {trace_file}")
    finally:
        workload.close()
    report.append(f"fail_share {failed / max(attempted, 1):.6f} "
                  f"({failed} of {attempted} operations)")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics, "report": report}


def end_to_end(timed: Timings, setup_scaled: float, setup_raw: float,
               rss_mb: float) -> tuple[dict, list[str]]:
    scaled = sorted(timed.scaled_ms)
    raw = sorted(timed.raw_ms)
    p50, beyond50 = nearest_rank(scaled, 0.5)
    p90, beyond90 = nearest_rank(scaled, 0.9)
    values = {
        "op_ms.p50": p50,
        "op_ms.p90": p90,
        "ops_per_s": 1e3 * len(scaled) / sum(scaled),
        "setup_s": setup_scaled,
        "peak_rss_mb": rss_mb,
    }
    n = len(scaled)
    report = [
        f"op_ms.p50 {p50:.6f} ms (n={n}, {beyond50} beyond; raw {nearest_rank(raw, 0.5)[0]:.6f})",
        f"op_ms.p90 {p90:.6f} ms (n={n}, {beyond90} beyond; raw {nearest_rank(raw, 0.9)[0]:.6f})",
        f"ops_per_s {values['ops_per_s']:.3f} 1/s ({timed.passes} passes; "
        f"raw {1e3 * n / sum(raw):.3f})",
        f"setup_s {setup_scaled:.6f} s (median of {SETUP_REPEATS}; raw {setup_raw:.6f})",
        f"peak_rss_mb {values['peak_rss_mb']:.3f} MB",
        f"reference loop median {median(timed.refs_ns) / 1e3:.1f} us "
        f"(times above are scaled to {REF_NOMINAL_NS / 1e3:.0f} us)",
    ]
    if beyond90 < TAIL_SAMPLES:
        report.append(f"warning: only {beyond90} samples beyond p90")
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}, report


def per_layer(workload, setup_t: Tracer, run_t: Tracer, plain: Timings, traced: Timings,
              extra: dict) -> tuple[dict, list[str]]:
    passes = traced.passes

    def busy(name):  # per set-up plus per pass
        return setup_t.busy_s(name) / SETUP_REPEATS + run_t.busy_s(name) / passes

    def per_pass(name):
        return run_t.counts.get(name, 0) / passes

    values = {}
    for metric in PER_LAYER:
        if metric.endswith(".busy_s"):
            values[metric] = busy(metric[: -len(".busy_s")])
        elif metric.endswith(".calls"):
            values[metric] = run_t.calls(metric[: -len(".calls")]) / passes
    values["generate.busy_s"] = (setup_t.busy_prefix_s("generate.") / SETUP_REPEATS
                                 + run_t.busy_prefix_s("generate.") / passes)
    for name in ("simulation.product_pairs", "operators.states_out",
                 "operators.transitions_out", "documents.bytes", "adaptor.composed_states"):
        values[name] = per_pass(name)
    pairs = run_t.counts.get("simulation.product_pairs", 0)
    values["simulation.kept_ratio"] = (
        run_t.counts.get("simulation.kept_pairs", 0) / pairs if pairs else 0.0)
    for backend in ("child", "tcp"):
        values[f"adaptor.sut_start_s.{backend}"] = (
            setup_t.busy_s(f"adaptor.sut_start.{backend}") / SETUP_REPEATS)
    applies = run_t.calls("adaptor.apply")
    exchanges = run_t.calls("sut.receive")
    for backend in ("inproc", "child", "tcp"):
        mine = getattr(workload, "backend", None) == backend
        values[f"adaptor.self_s.{backend}"] = (
            run_t.self_s("adaptor.apply") / passes if mine else 0.0)
        values[f"adaptor.sut_wait_s.{backend}"] = (
            (run_t.busy_s("sut.send") + run_t.busy_s("sut.receive")) / passes if mine else 0.0)
        values[f"adaptor.exchanges.{backend}"] = exchanges / passes if mine else 0.0
    values["adaptor.exchanges_per_apply"] = exchanges / applies if applies else 0.0
    for name in ("cli.interp_start_ms", "cli.import_ms", "cli.main_ms"):
        values[name] = extra.get(name, 0.0)
    # Both halves replay the same operations; scaled times keep the machine's
    # changes of speed between the halves out of the ratio.
    values["trace.overhead_ratio"] = sum(traced.scaled_ms) / sum(plain.scaled_ms)
    values["machine.ref_us"] = median(traced.refs_ns) / 1e3
    metrics = {k: {"value": values[k], "unit": unit} for k, unit in PER_LAYER.items()}
    report = [f"{k} {v['value']:.6g} {v['unit']}" for k, v in metrics.items()]
    report.insert(0, f"per pass over {passes} traced passes, per set-up over {SETUP_REPEATS}")
    return metrics, report
