"""Repository benchmark: one workload, one run, one JSON result line.

Usage (from the repository root; needs only the checkout's ``src/``)::

    python3 perfbench/run.py --workload azure-sample --seed 1 --seconds 40 --trace 0

Workloads (see ``perfbench/README.md`` for why each exists and which
layer metric should move which end-to-end metric):

- ``azure-sample`` -- replay of a perturbed Azure-shaped sample,
  continuous arrivals, pools above the working set;
- ``minute-burst`` -- the same sample floored to minutes, pools far
  below the working set;
- ``decide-http`` -- the sample's arrivals sent to ``/decide`` on a
  server in its own process: closed loop, saturated, batched.

The run, and any server process it starts, stays on one CPU
(``measure.pin_to_one_cpu``).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
workload with every layer's entry points wrapped in spans and prints the
per-layer metrics instead. The last line of standard output is the
result object ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import shutil
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Scratch space inside the checkout (listed in ``.gitignore``).
WORK = ROOT / ".perfbench-work"

WORKLOADS = ("azure-sample", "minute-burst", "decide-http")


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import report
    from measure import pin_to_one_cpu

    pin_to_one_cpu()

    work = WORK / f"run-{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        if args.workload == "decide-http":
            import decide_http

            result = (
                decide_http.run_traced(args.seed, args.seconds, work)
                if args.trace
                else decide_http.run(args.seed, args.seconds, work)
            )
        else:
            import replay

            result = (
                replay.run_traced(args.workload, args.seed, work)
                if args.trace
                else replay.run(args.workload, args.seed, args.seconds, work)
            )
    finally:
        spans = sorted(work.glob("spans-*.npz"))
        if spans:
            keep = WORK / "spans"
            keep.mkdir(exist_ok=True)
            for path in spans:
                path.replace(keep / path.name)
        shutil.rmtree(work, ignore_errors=True)

    units = report.PER_LAYER if args.trace else report.END_TO_END
    metrics = result["metrics"]
    if set(metrics) != set(units):
        raise RuntimeError(
            f"metric set mismatch: {sorted(set(metrics) ^ set(units))}"
        )
    print(
        json.dumps(
            {
                "correct": bool(result["correct"]),
                "attempted": int(result["attempted"]),
                "failed": int(result["failed"]),
                "metrics": {
                    name: {"value": float(metrics[name]), "unit": units[name]}
                    for name in units
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
