"""Rounds, metrics and the result line.

A *round* builds a workload's machines, runs them once and checks the
outputs.  An untraced run (``--trace 0``) repeats rounds for the given
number of seconds and reports medians of the end-to-end metrics; a
traced run (``--trace 1``) alternates untraced and traced rounds and
reports the per-layer metrics.  Every round of a run must produce the
same deterministic fingerprint (event counts, virtual time, counters,
busy time, latency digests and outputs), traced or not.
"""

from __future__ import annotations

import gc
import json
import time
import tracemalloc
from dataclasses import dataclass
from statistics import median
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from .ledger import AREAS, LedgerError, ledger
from .meter import Merged, RunMeter
from .tracer import LAYERS, Tracer, coverage_failures
from .workloads import Workload, count_failed

MIN_ROUNDS = 3
MIN_PAIRS = 2

#: name -> unit of every end-to-end metric in the result line.
END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "events_per_s": "1/s",
    "peak_mem_mb": "MiB",
    "virtual_ticks": "ticks",
}

#: Layers whose host time is reported in the result line.  ``recovery``
#: and ``faults`` run only in the campaign, so elsewhere their time is
#: always exactly zero; their calls and counts are still reported.
TIMED_LAYERS = tuple(layer for layer in LAYERS
                     if layer not in ("recovery", "faults")) \
    + ("unattributed",)

#: name -> unit of every per-layer metric in the result line.
PER_LAYER: Dict[str, str] = {}
PER_LAYER.update({f"{layer}.self_ns_per_event": "ns"
                  for layer in TIMED_LAYERS})
PER_LAYER.update({f"{layer}.calls_per_event": "count"
                  for layer in LAYERS})
PER_LAYER.update({
    "kernel.deliveries": "count",
    "kernel.queue_wait_p99_ticks": "ticks",
    "kernel.read_wait_p99_ticks": "ticks",
    "hardware.bus_transmissions": "count",
    "hardware.bus_bytes": "bytes",
    "hardware.bus_utilization": "ratio",
    "hardware.bus_queue_p99": "count",
    "messages.sent": "count",
    "messages.dropped": "count",
    "backup.syncs": "count",
    "backup.sync_pages": "count",
    "backup.sync_stall_p99_ticks": "ticks",
    "backup.messages_trimmed": "count",
    "paging.pages_shipped": "count",
    "paging.faults": "count",
    "servers.syncs_sent": "count",
    "servers.requests_discarded": "count",
    "recovery.crash_handlings": "count",
    "recovery.promotions": "count",
    "recovery.sends_suppressed": "count",
    "faults.reference_share": "ratio",
})
PER_LAYER.update({f"vt.{area}_ticks": "ticks" for area in AREAS})
PER_LAYER["trace.overhead_ratio"] = "ratio"

Metrics = Dict[str, Tuple[float, str]]


@dataclass
class Round:
    setup_s: float
    run_s: float
    merged: Merged
    outputs: Dict[str, object]
    #: Peak traced heap of the round (memory rounds only).
    peak_bytes: int = 0

    def fingerprint(self) -> str:
        return json.dumps({"metrics": self.merged.digest(),
                           "outputs": self.outputs},
                          sort_keys=True, default=str)


class Session:
    """Rounds of one workload, with their checks and determinism."""

    def __init__(self, workload: Workload) -> None:
        self.workload = workload
        self.meter = RunMeter()
        self.meter.install()
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self._fingerprint: Optional[str] = None

    def close(self) -> None:
        self.meter.uninstall()

    def round(self, tracer: Optional[Tracer] = None,
              measure_memory: bool = False) -> Round:
        workload, meter = self.workload, self.meter
        meter.reset()
        gc.collect()
        if measure_memory:
            tracemalloc.start()
        if tracer is not None:
            tracer.install()
        try:
            state = workload.setup()
            if tracer is not None:
                tracer.log.open_root()
            start = time.perf_counter()
            result = workload.run(state)
            run_s = time.perf_counter() - start
            if tracer is not None:
                tracer.log.close_root()
        finally:
            if tracer is not None:
                tracer.uninstall()
        rnd = Round(setup_s=meter.setup_seconds(), run_s=run_s,
                    merged=meter.merged(),
                    outputs=workload.outputs(state, result))
        if measure_memory:
            rnd.peak_bytes = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        self._check(rnd, traced=tracer is not None)
        return rnd

    def _check(self, rnd: Round, traced: bool) -> None:
        workload = self.workload
        names = workload.check_names()
        results = workload.checks(rnd.outputs, rnd.merged.counters)
        failed = count_failed(names, results)
        self.attempted += len(names)
        self.failed += failed
        if failed:
            bad = [name for name in names if results.get(name) is not True]
            self.problems.append(f"failed checks: {', '.join(bad[:8])}")
        try:
            ledger(rnd.merged.busy)
        except LedgerError as error:
            self.problems.append(str(error))
        fingerprint = rnd.fingerprint()
        if self._fingerprint is None:
            self._fingerprint = fingerprint
        elif fingerprint != self._fingerprint:
            kind = "traced round" if traced else "round"
            self.problems.append(f"{kind} differs from the first round "
                                 f"(events, virtual time, counters, "
                                 f"latency or outputs)")


def end_to_end(rounds: List[Round], peak_bytes: int) -> Metrics:
    return {
        "setup_s": (median([r.setup_s for r in rounds]), "s"),
        "run_s": (median([r.run_s for r in rounds]), "s"),
        "events_per_s": (median([r.merged.events / r.merged.sim_seconds
                                  for r in rounds]), "1/s"),
        "peak_mem_mb": (peak_bytes / 2 ** 20, "MiB"),
        "virtual_ticks": (rounds[0].merged.makespan(), "ticks"),
    }


def layer_counts(merged: Merged) -> Metrics:
    """Counts and virtual waits per layer, from the machines' own
    metric sets."""
    counter = merged.counter
    busy_bus = sum(ticks for key, ticks in merged.busy.items()
                   if key.startswith("bus:"))
    out: Metrics = {
        "kernel.deliveries": (counter("msg.delivered_primary")
                              + counter("msg.delivered_backup")
                              + counter("msg.counted_sender_backup"),
                              "count"),
        "kernel.queue_wait_p99_ticks": (
            merged.hist_p("latency.queue_wait", 99), "ticks"),
        "kernel.read_wait_p99_ticks": (
            merged.hist_p("latency.read_wait", 99), "ticks"),
        "hardware.bus_transmissions": (counter("bus.transmissions"),
                                       "count"),
        "hardware.bus_bytes": (counter("bus.bytes"), "bytes"),
        "hardware.bus_utilization": (
            busy_bus / merged.virtual_ticks if merged.virtual_ticks
            else 0.0, "ratio"),
        "hardware.bus_queue_p99": (merged.hist_p("bus.request_queue", 99),
                                   "count"),
        "messages.sent": (counter("msg.sent"), "count"),
        "messages.dropped": (merged.counters_with_prefix("msg.dropped_"),
                             "count"),
        "backup.syncs": (counter("sync.performed"), "count"),
        "backup.sync_pages": (counter("sync.pages"), "count"),
        "backup.sync_stall_p99_ticks": (
            merged.series_p("sync.stall_ticks", 99), "ticks"),
        "backup.messages_trimmed": (counter("backup.messages_trimmed"),
                                    "count"),
        "paging.pages_shipped": (counter("paging.pages_shipped"), "count"),
        "paging.faults": (counter("paging.faults"), "count"),
        "servers.syncs_sent": (counter("server.syncs_sent"), "count"),
        "servers.requests_discarded": (
            counter("server.requests_discarded"), "count"),
        "recovery.crash_handlings": (counter("recovery.crash_handlings"),
                                     "count"),
        "recovery.promotions": (counter("recovery.promotions"), "count"),
        "recovery.sends_suppressed": (counter("recovery.sends_suppressed"),
                                      "count"),
    }
    try:
        areas = ledger(merged.busy)
    except LedgerError:
        areas = {}
    for area in AREAS:
        out[f"vt.{area}_ticks"] = (areas.get(area, 0), "ticks")
    out["vt.application_ticks"] = (areas.get("application", 0), "ticks")
    return out


def measure(workload: Workload, seconds: float) -> Tuple[Session, Metrics]:
    """Untraced run: end-to-end metrics (plus report-only extras)."""
    session = Session(workload)
    try:
        session.round()                      # warm-up, checked
        # Peak memory gets a round of its own: tracemalloc slows the
        # round down, and the first round's peak is set by one-time
        # allocations (lazy imports), not by the workload.
        peak = session.round(measure_memory=True).peak_bytes
        rounds: List[Round] = []
        start = time.perf_counter()
        while len(rounds) < MIN_ROUNDS \
                or time.perf_counter() - start < seconds:
            rounds.append(session.round())
    finally:
        session.close()
    metrics = end_to_end(rounds, peak)
    metrics["failed_ops"] = (session.failed / session.attempted, "fraction")
    metrics.update(workload.latency(rounds[0].outputs, rounds[0].merged))
    return session, metrics


def measure_traced(workload: Workload, seconds: float,
                   spans_dir: Path) -> Tuple[Session, Metrics]:
    """Alternating untraced and traced rounds: per-layer metrics."""
    session = Session(workload)
    tracer = Tracer()
    plain: List[Round] = []
    traced: List[Round] = []
    self_ns: Dict[str, List[float]] = {}
    reference_share: List[float] = []
    calls: Optional[Dict[str, int]] = None
    try:
        session.round()                      # warm-up, checked
        start = time.perf_counter()
        while len(traced) < MIN_PAIRS \
                or time.perf_counter() - start < seconds:
            plain.append(session.round())
            rnd = session.round(tracer=tracer)
            traced.append(rnd)
            log = tracer.log
            events = rnd.merged.events
            layers = log.by_layer()
            for layer, entry in layers.items():
                self_ns.setdefault(layer, []).append(
                    entry["self_ns"] / events)
            round_calls = {layer: entry["calls"]
                           for layer, entry in layers.items()}
            if calls is None:
                calls = round_calls
            elif round_calls != calls:
                session.problems.append("span counts differ between "
                                        "traced rounds")
            session.problems.extend(coverage_failures(
                log, events, rnd.merged.counters,
                workload.seeds_checked(rnd.outputs)))
            reference_share.append(log.total_ns("Scenario.run")
                                   / log.root_ns())
        spans_dir.mkdir(parents=True, exist_ok=True)
        tracer.log.write(str(spans_dir / f"spans-{workload.name}.bin"))
    finally:
        session.close()
    merged = traced[0].merged
    metrics: Metrics = {}
    for layer in TIMED_LAYERS + ("recovery", "faults", "core",
                                 "workloads"):
        metrics[f"{layer}.self_ns_per_event"] = (
            median(self_ns.get(layer, [0.0])), "ns")
    for layer in LAYERS + ("core", "workloads"):
        metrics[f"{layer}.calls_per_event"] = (
            calls.get(layer, 0) / merged.events, "count")
    metrics.update(layer_counts(merged))
    metrics["faults.reference_share"] = (median(reference_share), "ratio")
    metrics["trace.overhead_ratio"] = (
        median([r.run_s for r in traced])
        / median([r.run_s for r in plain]), "ratio")
    return session, metrics


def result_line(session: Session, metrics: Metrics,
                names: Dict[str, str]) -> Dict[str, object]:
    """The last line of standard output: the checks and the metrics
    in ``names``."""
    return {
        "correct": not session.problems,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {name: {"value": metrics[name][0], "unit": unit}
                    for name, unit in names.items()},
    }


def print_table(workload: str, metrics: Metrics,
                problems: List[str]) -> None:
    for name, (value, unit) in metrics.items():
        if isinstance(value, float):
            text = f"{value:.6g}"
        else:
            text = str(value)
        print(f"{workload:<11} {name:<32} {text:>14} {unit}")
    for problem in problems:
        print(f"{workload:<11} PROBLEM: {problem}")
