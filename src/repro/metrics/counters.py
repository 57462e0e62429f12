"""Metric collection for simulation runs.

The paper's evaluation (section 8) argues about *where* overhead lands:
bus transmissions per message, executive-processor versus work-processor
time, sync stall on the primary, recovery latency.  :class:`MetricSet`
records exactly those quantities so the benchmark harness can print them.

Sample series are aggregated *streaming*: :meth:`MetricSet.record` folds
each value into a running ``(count, total, min, max)`` so
:meth:`MetricSet.stats` is O(1).  The raw samples are retained as well,
so reports, campaigns and tests can read the exact lists through
:meth:`MetricSet.series`.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .histogram import LogHistogram


@dataclass
class IntervalStats:
    """Summary statistics over recorded integer samples."""

    count: int
    total: int
    minimum: int
    maximum: int

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


class MetricSet:
    """Named counters, integer samples, and busy-time accumulators.

    Three kinds of metric cover everything the experiments need:

    * **counters** — monotonically increasing event counts
      (``bus.transmissions``, ``sync.performed``, ...);
    * **samples** — per-event integer measurements aggregated into
      :class:`IntervalStats` (``sync.stall_ticks``, ``recovery.latency``);
    * **busy time** — total ticks a named resource spent occupied, split by
      activity (``executive[c0].deliver_backup``, ``work[c1].user``), the
      paper's work-versus-executive accounting.

    :meth:`stats` reads the running aggregate; it always equals a
    recomputation from :meth:`series` (``tests/test_metrics_streaming.py``
    checks this on real workloads).
    """

    def __init__(self) -> None:
        self._counters: Dict[str, int] = defaultdict(int)
        #: name -> [count, total, minimum, maximum], updated per record().
        self._running: Dict[str, List[int]] = {}
        self._series: Dict[str, List[int]] = defaultdict(list)
        self._busy: Dict[Tuple[str, str], int] = defaultdict(int)
        #: Bounded-memory log-spaced histograms (latency percentiles).
        self._hists: Dict[str, LogHistogram] = {}

    # -- counters ---------------------------------------------------------

    def incr(self, name: str, amount: int = 1) -> None:
        """Increase counter ``name`` by ``amount``."""
        self._counters[name] += amount

    def counter(self, name: str) -> int:
        """Current value of counter ``name`` (0 if never incremented)."""
        return self._counters.get(name, 0)

    def counters(self, prefix: str = "") -> Dict[str, int]:
        """All counters whose name starts with ``prefix``."""
        return {name: value for name, value in self._counters.items()
                if name.startswith(prefix)}

    # -- samples ----------------------------------------------------------

    def record(self, name: str, value: int) -> None:
        """Fold one sample into series ``name``'s running stats and its
        retained raw series."""
        running = self._running.get(name)
        if running is None:
            self._running[name] = [1, value, value, value]
        else:
            running[0] += 1
            running[1] += value
            if value < running[2]:
                running[2] = value
            elif value > running[3]:
                running[3] = value
        self._series[name].append(value)

    def series(self, name: str) -> List[int]:
        """Raw samples recorded under ``name`` (empty list if none)."""
        return list(self._series.get(name, []))

    def stats(self, name: str) -> Optional[IntervalStats]:
        """Aggregate statistics for series ``name``, or ``None`` if empty.

        O(1): read from the running aggregate, never from the raw list.
        """
        running = self._running.get(name)
        if running is None:
            return None
        return IntervalStats(count=running[0], total=running[1],
                             minimum=running[2], maximum=running[3])

    # -- histograms -------------------------------------------------------

    def record_hist(self, name: str, value: int) -> None:
        """Fold one sample into the log-spaced histogram ``name`` (O(1),
        bounded memory; see :class:`~repro.metrics.histogram.LogHistogram`)."""
        hist = self._hists.get(name)
        if hist is None:
            hist = self._hists[name] = LogHistogram()
        hist.record(value)

    def histogram(self, name: str) -> Optional[LogHistogram]:
        """The histogram recorded under ``name``, or ``None`` if empty."""
        return self._hists.get(name)

    def histograms(self, prefix: str = "") -> Dict[str, LogHistogram]:
        """All histograms whose name starts with ``prefix``."""
        return {name: hist for name, hist in self._hists.items()
                if name.startswith(prefix)}

    # -- busy time --------------------------------------------------------

    def add_busy(self, resource: str, activity: str, ticks: int) -> None:
        """Account ``ticks`` of ``resource`` time to ``activity``."""
        self._busy[(resource, activity)] += ticks

    def busy(self, resource: str, activity: Optional[str] = None) -> int:
        """Total busy ticks for ``resource`` (optionally one activity)."""
        if activity is not None:
            return self._busy.get((resource, activity), 0)
        return sum(ticks for (res, _), ticks in self._busy.items()
                   if res == resource)

    def busy_breakdown(self, resource: str) -> Dict[str, int]:
        """Mapping activity -> ticks for one resource."""
        return {act: ticks for (res, act), ticks in self._busy.items()
                if res == resource}

    def busy_resources(self) -> List[str]:
        """Sorted list of resource names with any recorded busy time."""
        return sorted({res for (res, _) in self._busy})

    # -- reporting --------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """A plain-dict snapshot (counters, sample stats, busy totals)."""
        return {
            "counters": dict(self._counters),
            "samples": {name: self.stats(name) for name in self._running},
            "busy": {f"{res}:{act}": ticks
                     for (res, act), ticks in self._busy.items()},
            "histograms": {name: hist.summary()
                           for name, hist in sorted(self._hists.items())},
        }
