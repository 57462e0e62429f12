"""Run the repository benchmark.

Usage, from the root of a checkout::

    python3 perfbench/run.py                      # every workload
    python3 perfbench/run.py --workload bank --seed 3 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` alternates untraced and traced rounds and reports the
per-layer metrics, writing the last traced round's spans to
``.perfbench_out/spans-<workload>.bin``.  Every metric is printed by
name with its unit; the last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is 0 only when every check passed.

The benchmark runs the ``repro`` sources of the checkout it sits in
(``src/``), never an installed copy; without them it exits with code 2.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("bank", "sync-churn", "campaign")

#: A seed kept out of all tuning; every workload must pass its checks
#: on it (``--seed 9001``).
HELD_OUT_SEED = 9001


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description="Run the repository benchmark.")
    parser.add_argument("--workload", choices=WORKLOAD_NAMES,
                        help="one workload (default: all of them)")
    parser.add_argument("--seed", type=int, default=1,
                        help="workload seed (default 1)")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measuring time per workload (default 20)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run with per-layer metrics")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: {ROOT / 'src' / 'repro'} not found; run the "
              f"benchmark from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.bench import (END_TO_END, PER_LAYER, measure,
                                 measure_traced, print_table, result_line)
    from perfbench.workloads import WORKLOADS

    names = [args.workload] if args.workload else list(WORKLOAD_NAMES)
    lines = []
    for name in names:
        workload = WORKLOADS[name](args.seed)
        if args.trace:
            session, metrics = measure_traced(
                workload, args.seconds, ROOT / ".perfbench_out")
            names_units = PER_LAYER
        else:
            session, metrics = measure(workload, args.seconds)
            names_units = END_TO_END
        print_table(name, metrics, session.problems)
        lines.append(result_line(session, metrics, names_units))
    if len(lines) == 1:
        line = lines[0]
    else:
        line = {"correct": all(item["correct"] for item in lines),
                "attempted": sum(item["attempted"] for item in lines),
                "failed": sum(item["failed"] for item in lines),
                "metrics": {f"{name}.{metric}": value
                            for name, item in zip(names, lines)
                            for metric, value in item["metrics"].items()}}
    sys.stdout.flush()
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
