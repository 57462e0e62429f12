"""The verdict rule of the git-ref A/B runner (``benchmarks/ab.py``).

Synthetic per-pair values: ``parent[i]`` and ``change[i]`` stand for the
two runs of pair ``i``.  The module is loaded by path, so ``tests/``
does not need ``benchmarks/`` on ``sys.path``.
"""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "benchmarks" / "ab.py"
_SPEC = importlib.util.spec_from_file_location("repro_ab", _PATH)
ab = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab)

BOUND = 0.25
#: Parent throughput runs: median 100, quartiles 99 and 101 (IQR 2).
PARENT = [97, 98, 99, 99, 100, 100, 101, 101, 102, 103]


def test_ten_of_ten_wins_is_a_gain():
    change = [value + 10 for value in PARENT]
    assert ab.verdict(PARENT, change, "higher", BOUND) == "gain"


def test_nine_wins_and_median_gap_beyond_parent_iqr_is_a_gain():
    change = [value + 5 for value in PARENT]
    change[3] = PARENT[3] - 1          # one lost pair
    assert ab.verdict(PARENT, change, "higher", BOUND) == "gain"


def test_eight_wins_is_no_gain():
    change = [value + 5 for value in PARENT]
    change[3] = PARENT[3] - 1
    change[7] = PARENT[7] - 1          # a second lost pair
    assert ab.verdict(PARENT, change, "higher", BOUND) == "within bound"


def test_nine_wins_inside_parent_iqr_is_no_gain():
    change = [value + 1 for value in PARENT]
    change[3] = PARENT[3] - 1
    assert ab.verdict(PARENT, change, "higher", BOUND) == "within bound"


def test_identical_runs_are_within_bound():
    assert ab.verdict(PARENT, list(PARENT), "higher", BOUND) == (
        "within bound")
    ticks = [2_969_513] * 10
    assert ab.verdict(ticks, list(ticks), "lower", 0.1) == "within bound"


@pytest.mark.parametrize("better,scale", [("higher", 0.7), ("lower", 1.3)])
def test_median_worse_than_bound_is_a_regression(better, scale):
    change = [value * scale for value in PARENT]
    assert ab.verdict(PARENT, change, better, BOUND) == "regression"


def test_median_worse_but_inside_bound_is_within_bound():
    change = [value * 0.9 for value in PARENT]
    assert ab.verdict(PARENT, change, "higher", BOUND) == "within bound"


def test_parent_spread_wider_than_bound_is_unresolved():
    wide = [60, 70, 80, 90, 100, 100, 110, 120, 130, 140]
    change = [value + 5 for value in wide]
    assert ab.verdict(wide, change, "higher", BOUND) == "unresolved"


def test_wide_spread_resolves_when_every_change_run_beats_every_parent():
    wide = [60, 70, 80, 90, 100, 100, 110, 120, 130, 140]
    change = [value + 200 for value in wide]
    assert ab.verdict(wide, change, "higher", BOUND) == "gain"
    slower = [value + 200 for value in wide]
    assert ab.verdict(slower, wide, "lower", BOUND) == "gain"
