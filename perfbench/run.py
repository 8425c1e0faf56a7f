"""End-to-end simulator benchmark: one workload, one seed, one result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper100 --seed 0 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics of untraced runs;
``--trace 1`` prints the per-layer metrics of a traced run.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it is a
report with the environment, the reps and the market payloads.  The
program under test is imported from ``src/`` next to this directory and
nowhere else; without it the benchmark exits with status 2.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOAD_NAMES = ("paper100", "tick1000", "zipf1000")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def import_program() -> None:
    """Put ``src/`` first on the path and prove ``repro`` comes from it."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise ImportError("no program at %s" % SRC)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import repro

    origin = Path(repro.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError("repro was imported from %s, not %s" % (origin, SRC))


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import_program()
    except ImportError as exc:
        print("perfbench: cannot import the program: %s" % exc, file=sys.stderr)
        return 2
    from measure import measure
    from workloads import WORKLOADS, load_reference

    workload = WORKLOADS[args.workload]
    reference = load_reference(workload.name) if args.seed == 0 else None
    try:
        metrics, ledger, report = measure(
            workload, args.seed, args.seconds, bool(args.trace), reference
        )
    except RuntimeError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 1
    for problem in ledger.problems:
        print("perfbench: FAILED %s" % problem, file=sys.stderr)
    print(json.dumps(report, sort_keys=True))
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
