"""The benchmark's own tests, at small sizes.

Run from the repository root::

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.bench import END_TO_END, PER_LAYER, Session  # noqa: E402
from perfbench.ledger import (ACTIVITY_AREA, LedgerError,  # noqa: E402
                              ledger)
from perfbench.run import HELD_OUT_SEED, WORKLOAD_NAMES, main  # noqa: E402
from perfbench.tracer import (SpanLog, Tracer, coverage_failures,  # noqa: E402
                              read_spans)
from perfbench.workloads import (WORKLOADS, Bank, check_bank,  # noqa: E402
                                 check_campaign, check_sync_churn,
                                 count_failed)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SMALL = {"bank": 12, "sync-churn": 40, "campaign": 4}


@pytest.fixture
def small_workloads(monkeypatch):
    for name, size in SMALL.items():
        monkeypatch.setattr(WORKLOADS[name], "size", size)


def test_metric_names_and_units_are_well_formed():
    for name, unit in list(END_TO_END.items()) + list(PER_LAYER.items()):
        assert NAME.match(name), name
        assert UNIT.match(unit), (name, unit)


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert sorted(WORKLOADS) == sorted(WORKLOAD_NAMES)


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_result_line_shape(workload, trace, small_workloads, capsys):
    code = main(["--workload", workload, "--seed", "2", "--seconds", "0",
                 "--trace", trace])
    stdout = capsys.readouterr().out
    assert code == 0, stdout
    line = json.loads(stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True
    assert isinstance(line["attempted"], int) and line["attempted"] >= 1
    assert line["failed"] == 0
    expected = PER_LAYER if trace == "1" else END_TO_END
    assert {name: m["unit"] for name, m in line["metrics"].items()} \
        == expected
    for metric in line["metrics"].values():
        assert set(metric) == {"value", "unit"}
        assert isinstance(metric["value"], (int, float))
    for name in END_TO_END if trace == "0" else ():
        assert line["metrics"][name]["value"] > 0, name
    # Every metric is also printed by name with its unit.
    for name, unit in expected.items():
        assert re.search(rf"^{workload}\s+{re.escape(name)}\s+\S+ "
                         rf"{re.escape(unit)}$", stdout, re.M), name


def test_missing_sources_exit_nonzero_without_a_result(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run([sys.executable, "perfbench/run.py",
                           "--workload", "bank"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""


# -- output checks flag wrong outputs ------------------------------------

BANK_OK = {"tty": ["audit:24000"], "exits": {1: 0, 2: 0, 3: 0},
           "clients": [1, 2], "auditor": 3}


def test_bank_check_passes_good_output():
    names = ["client0.exit0", "client1.exit0", "auditor.exit0",
             "audit.sum"]
    assert count_failed(names, check_bank(BANK_OK, 24_000)) == 0


def test_bank_check_flags_wrong_audit_sum_and_exit():
    results = check_bank(dict(BANK_OK, tty=["audit:23999"]), 24_000)
    assert results["audit.sum"] is False
    results = check_bank(dict(BANK_OK, exits={1: 0, 2: 1, 3: 0}), 24_000)
    assert results["client1.exit0"] is False


def test_a_check_that_did_not_run_counts_as_failed():
    names = ["client0.exit0", "client1.exit0", "auditor.exit0",
             "audit.sum"]
    # No terminal output at all: the audit check never ran.
    results = check_bank({key: value for key, value in BANK_OK.items()
                          if key != "tty"}, 24_000)
    assert "audit.sum" not in results
    assert count_failed(names, results) == 1
    assert count_failed(names, {}) == len(names)


def test_sync_churn_check_flags_unapplied_syncs():
    outputs = {"exits": {5: 0, 6: 0}, "pids": [5, 6]}
    good = {"sync.performed": 40, "sync.applied": 40}
    assert all(check_sync_churn(outputs, good).values())
    bad = check_sync_churn(outputs, {"sync.performed": 40,
                                     "sync.applied": 39})
    assert bad["sync.applied_equals_performed"] is False
    none = check_sync_churn(outputs, {"sync.performed": 0})
    assert none["sync.applied_equals_performed"] is False


def test_campaign_check_flags_a_failed_seed():
    results = check_campaign({"passed": {10: True, 11: False}})
    assert count_failed(["seed10.passed", "seed11.passed"], results) == 1
    assert count_failed(["seed10.passed", "seed12.passed"], results) == 1


# -- ledger ----------------------------------------------------------------

def test_ledger_places_every_known_activity():
    busy = {f"{kind}[x]:{activity}": 1
            for kind, activity in ACTIVITY_AREA}
    totals = ledger(busy)
    assert sum(totals.values()) == len(ACTIVITY_AREA)


def test_ledger_fails_on_an_unmapped_activity():
    with pytest.raises(LedgerError, match="bus:teleport"):
        ledger({"executive[c0]:dispatch": 5, "bus:teleport": 1})


# -- tracing ---------------------------------------------------------------

def test_held_out_seed_passes_every_check():
    for name in WORKLOAD_NAMES:
        session = Session(WORKLOADS[name](HELD_OUT_SEED, SMALL[name]))
        try:
            session.round()
        finally:
            session.close()
        assert session.attempted and not session.failed, name
        assert not session.problems, (name, session.problems)


class _MeddlingTracer(Tracer):
    """Its MetricSet.incr wrapper counts every increment twice."""

    def _span(self, fn, nid):
        traced = super()._span(fn, nid)
        if fn.__name__ != "incr":
            return traced

        def meddle(metrics, name, amount=1):
            return traced(metrics, name, amount * 2)
        return meddle


def test_a_wrapper_that_changes_behaviour_fails_the_benchmark():
    session = Session(Bank(1, size=8))
    try:
        session.round()
        session.round(tracer=Tracer())
        assert not session.problems
        session.round(tracer=_MeddlingTracer())
    finally:
        session.close()
    assert any("traced round differs" in p for p in session.problems)


def test_a_late_install_is_reported_by_the_coverage_check():
    session = Session(Bank(1, size=8))
    tracer = Tracer()
    try:
        state = session.workload.setup()     # machine built first
        tracer.install()
        tracer.log.open_root()
        session.workload.run(state)
        tracer.log.close_root()
        merged = session.meter.merged()
    finally:
        tracer.uninstall()
        session.close()
    failures = coverage_failures(tracer.log, merged.events,
                                 merged.counters, 0)
    assert any("event spans" in failure for failure in failures)


def test_spans_round_trip_through_the_file(tmp_path):
    session = Session(Bank(1, size=8))
    tracer = Tracer()
    try:
        session.round(tracer=tracer)
    finally:
        session.close()
    path = tmp_path / "spans.bin"
    tracer.log.write(str(path))
    loaded = read_spans(str(path))
    assert len(loaded) == len(tracer.log) > 1
    assert loaded.by_layer() == tracer.log.by_layer()


def test_self_time_excludes_child_spans():
    log = SpanLog()
    outer = log.name_id("outer", "kernel")
    inner = log.name_id("inner", "hardware")
    for nid, parent, start, end in ((outer, -1, 0, 100),
                                    (inner, 0, 10, 40),
                                    (inner, 0, 50, 60)):
        log.name.append(nid)
        log.parent.append(parent)
        log.start.append(start)
        log.end.append(end)
    layers = log.by_layer()
    assert layers["kernel"] == {"self_ns": 60, "calls": 1}
    assert layers["hardware"] == {"self_ns": 40, "calls": 2}
