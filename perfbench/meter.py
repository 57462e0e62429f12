"""Run meter: per-machine set-up time, event counts and metric sets.

The meter wraps three public :class:`repro.Machine` methods —
``__init__``, ``run`` and ``run_until_idle`` — so a workload that builds
its machines out of sight (``run_campaign`` builds two per seed) still
reports every machine it ran.  It costs two clock reads per machine
build and two per run call, never anything per event,
so it stays installed in untraced rounds too.

Per machine it records:

* ``setup_ns`` — from entering ``Machine.__init__`` to the first run
  call: building the machine and the workload before the first event;
* ``events`` / ``now`` — events executed and the final virtual clock;
* ``run_ns`` — host time inside the run calls, i.e. simulating;
* ``metrics`` — the machine's own :class:`~repro.metrics.MetricSet`,
  read after the round for counts, waits and busy time.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro import Machine
from repro.metrics import LogHistogram, MetricSet, exact_percentile


@dataclass
class MachineRun:
    """What one machine did during a metered round."""

    init_ns: int
    first_run_ns: Optional[int] = None
    events: int = 0
    now: int = 0
    run_ns: int = 0
    metrics: Optional[MetricSet] = None

    @property
    def setup_ns(self) -> int:
        return self.first_run_ns - self.init_ns


@dataclass
class Merged:
    """Every metered machine's metrics, summed (counters, busy time) or
    merged exactly (histograms, raw series)."""

    events: int
    #: Host seconds spent inside run calls (simulating).
    sim_seconds: float
    virtual_ticks: int
    machines: List[tuple]
    counters: Dict[str, int]
    busy: Dict[str, int]
    hists: Dict[str, LogHistogram]
    series: Dict[str, List[int]]

    def makespan(self) -> float:
        """Median final virtual clock over the machines: the makespan of
        a one-machine round, the typical scenario's in a campaign (whose
        sum is dominated by a few long fault scenarios)."""
        return statistics.median(now for _, now in self.machines)

    def counter(self, name: str) -> int:
        return self.counters.get(name, 0)

    def counters_with_prefix(self, prefix: str) -> int:
        return sum(value for name, value in self.counters.items()
                   if name.startswith(prefix))

    def hist_p(self, name: str, pct: float) -> int:
        hist = self.hists.get(name)
        if hist is None or not hist.count:
            return 0
        return hist.percentile(pct) or 0

    def series_p(self, name: str, pct: float) -> int:
        return exact_percentile(self.series.get(name, []), pct) or 0

    def digest(self) -> Dict[str, object]:
        """The deterministic fingerprint two equivalent runs share."""
        return {
            "events": self.events,
            "virtual_ticks": self.virtual_ticks,
            "machines": self.machines,
            "counters": self.counters,
            "busy": self.busy,
            "hists": {name: hist.summary()
                      for name, hist in sorted(self.hists.items())},
        }


#: Raw series pooled across machines (read with exact percentiles).
POOLED_SERIES = ("sync.stall_ticks", "recovery.crash_handle_latency")


class RunMeter:
    """Records every machine built while installed (see module doc)."""

    def __init__(self) -> None:
        self.runs: List[MachineRun] = []
        #: id(live machine) -> its record.  A dead machine's id may be
        #: reused by a new one; ``__init__`` rebinds it, and the old
        #: record stays in :attr:`runs`.
        self._by_id: Dict[int, MachineRun] = {}
        self._originals: Dict[str, object] = {}

    def install(self) -> None:
        if self._originals:
            return
        clock = time.perf_counter_ns
        runs, by_id = self.runs, self._by_id
        orig_init = Machine.__init__
        orig_run = Machine.run
        orig_idle = Machine.run_until_idle
        self._originals = {"__init__": orig_init, "run": orig_run,
                           "run_until_idle": orig_idle}

        def __init__(machine, *args, **kwargs):
            record = MachineRun(init_ns=clock())
            runs.append(record)
            by_id[id(machine)] = record
            orig_init(machine, *args, **kwargs)

        def metered(original):
            def call(machine, *args, **kwargs):
                record = by_id[id(machine)]
                start = clock()
                if record.first_run_ns is None:
                    record.first_run_ns = start
                try:
                    return original(machine, *args, **kwargs)
                finally:
                    record.run_ns += clock() - start
                    record.events = machine.sim.events_executed
                    record.now = machine.sim.now
                    record.metrics = machine.metrics
            call.__name__ = original.__name__
            call.__qualname__ = original.__qualname__
            return call

        Machine.__init__ = __init__
        Machine.run = metered(orig_run)
        Machine.run_until_idle = metered(orig_idle)

    def uninstall(self) -> None:
        for name, original in self._originals.items():
            setattr(Machine, name, original)
        self._originals = {}

    def reset(self) -> None:
        self.runs.clear()
        self._by_id.clear()

    def ran(self) -> List[MachineRun]:
        return [run for run in self.runs if run.first_run_ns is not None]

    def setup_seconds(self) -> float:
        return sum(run.setup_ns for run in self.ran()) / 1e9

    def merged(self) -> Merged:
        counters: Dict[str, int] = {}
        busy: Dict[str, int] = {}
        hists: Dict[str, LogHistogram] = {}
        series: Dict[str, List[int]] = {name: [] for name in POOLED_SERIES}
        ran = self.ran()
        for run in ran:
            metrics = run.metrics
            for name, value in metrics.counters().items():
                counters[name] = counters.get(name, 0) + value
            for resource in metrics.busy_resources():
                for activity, ticks in \
                        metrics.busy_breakdown(resource).items():
                    key = f"{resource}:{activity}"
                    busy[key] = busy.get(key, 0) + ticks
            for name, hist in metrics.histograms().items():
                hists.setdefault(name, LogHistogram()).merge(hist)
            for name in POOLED_SERIES:
                series[name].extend(metrics.series(name))
        return Merged(
            events=sum(run.events for run in ran),
            sim_seconds=sum(run.run_ns for run in ran) / 1e9,
            virtual_ticks=sum(run.now for run in ran),
            machines=[(run.events, run.now) for run in ran],
            counters=dict(sorted(counters.items())),
            busy=dict(sorted(busy.items())),
            hists=hists, series=series)
