#!/usr/bin/env python3
"""A/B the repository benchmark between a git commit and this checkout.

Usage, from the root of a checkout::

    python3 benchmarks/ab.py REF [perfbench/run.py arguments]
    python3 benchmarks/ab.py HEAD --workload bank --seconds 2

``REF`` is checked out with ``git worktree add --detach`` into a
temporary directory, and that tree's ``perfbench/`` is replaced by this
checkout's copy, so both sides run identical benchmark code over their
own ``src/``.  ``perfbench/run.py`` then runs :data:`PAIRS` times per
side, alternating which side goes first.  For every end-to-end metric
and workload the runner prints each side's median and quartiles, how
many pairs the change won and lost, and a verdict (see
:func:`verdict`).  Bounds and "better" directions come from
``BENCHMARK.json``.  The worktree is always removed.

Exit code 1 when a metric regressed or a run failed a check it ran,
0 otherwise; an "unresolved" row is reported but does not fail the run
(rerun with a longer ``--seconds`` to resolve it).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` of ``values``."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def verdict(parent: Sequence[float], change: Sequence[float],
            better: str, bound: float) -> str:
    """Judge one metric from paired runs (``parent[i]`` ran beside
    ``change[i]``).

    * ``unresolved`` — either side's quartile spread, relative to its
      median, is wider than ``bound``, unless every change run beats
      every parent run;
    * ``regression`` — the change median is worse than the parent
      median by more than ``bound`` (relative);
    * ``gain`` — the change wins at least nine tenths of the pairs (ties
      count for neither side) and its median beats the parent's by more
      than the parent's quartile spread;
    * ``within bound`` — anything else.
    """
    sign = 1.0 if better == "higher" else -1.0
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)

    def relative(value: float, base: float) -> float:
        if base:
            return value / abs(base)
        return 0.0 if not value else float("inf")

    spread = max(relative(p_q3 - p_q1, p_med), relative(c_q3 - c_q1, c_med))
    every_run_beats = (min(sign * value for value in change)
                       > max(sign * value for value in parent))
    if spread > bound and not every_run_beats:
        return "unresolved"
    if relative(sign * (p_med - c_med), p_med) > bound:
        return "regression"
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    if wins * 10 >= 9 * len(parent) and sign * (c_med - p_med) > p_q3 - p_q1:
        return "gain"
    return "within bound"


def workload_arg(args: Sequence[str]) -> str:
    """The ``--workload`` passed through, or ``""`` for all of them."""
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument("--workload", default="")
    return parser.parse_known_args(list(args))[0].workload


def run_side(tree: Path, args: Sequence[str]) -> dict:
    """One ``perfbench/run.py`` run in ``tree``; its result line."""
    env = {key: value for key, value in os.environ.items()
           if key != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, str(tree / "perfbench" / "run.py"), *args],
        cwd=tree, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        raise SystemExit(f"ab: perfbench/run.py in {tree} exited "
                         f"{proc.returncode} without a result line:\n"
                         f"{proc.stderr[-2000:]}")


def collect(results: List[dict], workload: str) -> Dict[Tuple[str, str],
                                                        List[float]]:
    """``(workload, metric) -> [value per run]`` from result lines."""
    series: Dict[Tuple[str, str], List[float]] = {}
    for result in results:
        for key, entry in result["metrics"].items():
            name, _, metric = key.rpartition(".")
            series.setdefault((name or workload, metric),
                              []).append(entry["value"])
    return series


def report(parent: List[dict], change: List[dict], workload: str) -> bool:
    """Print the comparison table; True when nothing regressed and no
    run failed a check."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {entry["name"]: entry for entry in spec["end_to_end"]}
    before, after = collect(parent, workload), collect(change, workload)
    header = (f"{'workload':<11} {'metric':<14} {'parent median [q1, q3]':>34}"
              f" {'change median [q1, q3]':>34} {'delta':>8} "
              f"{'won':>4} {'lost':>4}  verdict")
    print(header)
    print("-" * len(header))
    ok = True
    rows = 0
    for (name, metric), values in sorted(before.items()):
        if metric not in metrics or (name, metric) not in after:
            continue
        rows += 1
        spec_entry = metrics[metric]
        new = after[(name, metric)]
        sign = 1.0 if spec_entry["better"] == "higher" else -1.0
        won = sum(sign * (c - p) > 0 for p, c in zip(values, new))
        lost = sum(sign * (c - p) < 0 for p, c in zip(values, new))
        judged = verdict(values, new, spec_entry["better"],
                         spec_entry["bound"])
        ok &= judged != "regression"
        p_q1, p_med, p_q3 = quartiles(values)
        c_q1, c_med, c_q3 = quartiles(new)
        delta = f"{(c_med - p_med) / abs(p_med):+.1%}" if p_med else "-"
        if values == new:
            judged += " (identical in every pair)"
        print(f"{name:<11} {metric:<14} "
              f"{f'{p_med:.4g} [{p_q1:.4g}, {p_q3:.4g}]':>34} "
              f"{f'{c_med:.4g} [{c_q1:.4g}, {c_q3:.4g}]':>34} "
              f"{delta:>8} {won:>4} {lost:>4}  {judged}")
    if not rows:
        print("ab: no end-to-end metric in the result lines (--trace 1 "
              "reports per-layer metrics only)")
        ok = False
    for side, results in (("parent", parent), ("change", change)):
        failed = sum(result["failed"] for result in results)
        attempted = sum(result["attempted"] for result in results)
        print(f"{side}: {failed}/{attempted} checks failed")
        ok &= failed == 0 and all(result["correct"] for result in results)
    return ok


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0].startswith("-"):
        print("usage: python3 benchmarks/ab.py REF "
              "[perfbench/run.py arguments]", file=sys.stderr)
        return 2
    ref, args = argv[0], argv[1:]
    # A termination signal unwinds through the cleanup below, like ^C.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    tree = Path(tempfile.mkdtemp(prefix="repro-ab-"))
    try:
        subprocess.run(["git", "worktree", "add", "--detach", str(tree),
                        ref], cwd=ROOT, check=True, capture_output=True,
                       text=True)
        shutil.rmtree(tree / "perfbench", ignore_errors=True)
        shutil.copytree(ROOT / "perfbench", tree / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        parent: List[dict] = []
        change: List[dict] = []
        for pair in range(PAIRS):
            sides = [(tree, parent), (ROOT, change)]
            for side_tree, results in sides[::1 if pair % 2 == 0 else -1]:
                results.append(run_side(side_tree, args))
            print(f"ab: pair {pair + 1}/{PAIRS} done", file=sys.stderr)
    except subprocess.CalledProcessError as error:
        print(f"ab: {' '.join(error.cmd)} failed: {error.stderr.strip()}",
              file=sys.stderr)
        return 2
    finally:
        subprocess.run(["git", "worktree", "remove", "--force", str(tree)],
                       cwd=ROOT, capture_output=True)
        shutil.rmtree(tree, ignore_errors=True)
        subprocess.run(["git", "worktree", "prune"], cwd=ROOT,
                       capture_output=True)
    print(f"A/B of {' '.join(['perfbench/run.py', *args])}: {ref} (parent) "
          f"vs this checkout (change), {PAIRS} alternated pairs")
    return 0 if report(parent, change, workload_arg(args)) else 1


if __name__ == "__main__":
    sys.exit(main())
