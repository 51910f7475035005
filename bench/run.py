"""Seeded benchmark for actioncodes.

    python3 bench/run.py --workload decide --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  The package is imported from ``src/`` of
that checkout and nowhere else.  Human-readable lines come first; the last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones; with ``--trace 1`` they are the per-layer ones and the
spans are written under ``.bench_work/traces/``.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "actioncodes"

WORKLOADS = ("decide", "laws", "adaptor-inproc", "adaptor-child", "adaptor-tcp", "cli")


def factory(workload: str, seed: int, size: str):
    """A function of the tracer that sets the named workload up once."""
    if workload == "decide":
        from wl_decide import Decide
        return lambda t: Decide(seed, size, t)
    if workload == "laws":
        from wl_laws import Laws
        return lambda t: Laws(seed, size, t)
    if workload.startswith("adaptor-"):
        from wl_adaptor import AdaptorStream
        backend = workload.split("-", 1)[1]
        return lambda t: AdaptorStream(backend, seed, size, t)
    from wl_cli import CliCalls
    return lambda t: CliCalls(seed, size, t)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny instances, for the benchmark's own tests")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (PACKAGE / "__init__.py").is_file() or not (ROOT / "fixtures").is_dir():
        print(f"error: no package sources under {PACKAGE.parent} or no fixtures/; "
              "run from the root of an actioncodes checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(PACKAGE.parent))
    import actioncodes

    if Path(actioncodes.__file__).resolve().parent != PACKAGE:
        print(f"error: actioncodes was imported from {actioncodes.__file__}, "
              f"not from {PACKAGE}", file=sys.stderr)
        return 2
    import harness

    result = harness.run_workload(
        args.workload, factory(args.workload, args.seed, args.size), args.seed,
        args.seconds, bool(args.trace), children_rss=args.workload == "cli")
    for line in result.pop("report"):
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
