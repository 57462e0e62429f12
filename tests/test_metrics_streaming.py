"""Streaming ``MetricSet`` aggregates against the raw series on real
workloads.

``MetricSet`` folds every sample into a running ``(count, total, min,
max)`` so ``stats()`` is O(1), and it also retains the raw samples that
``series()`` returns.  The running aggregate must equal what recomputing
from the raw series gives.  Checked on the workloads the E1–E3
experiments drive (sync-heavy writer, message-heavy ping-pong, churn
with checkpointing stalls), which between them populate every sample
series the machine records (``sync.stall_ticks``,
``checkpoint.stall_ticks``, ``recovery.crash_handle_latency``).
"""

from __future__ import annotations

import pytest

from repro import BackupMode, Machine, MachineConfig
from repro.metrics import IntervalStats, MetricSet
from repro.workloads import (MemoryChurnProgram, PingProgram, PongProgram,
                             TtyWriterProgram, build_bank_workload)


def build_machine() -> Machine:
    return Machine(MachineConfig(n_clusters=3, seed=11,
                                 trace_enabled=False).validate())


def populate(machine: Machine, workload: str) -> None:
    if workload == "e1-overhead":
        # E1's shape: steady writers under backup sync plus a
        # checkpointing baseline process (exercises both stall series).
        machine.spawn(TtyWriterProgram(lines=10, tag="w", compute=2_000),
                      cluster=2, sync_reads_threshold=3)
        machine.spawn(MemoryChurnProgram(pages=4, rounds=10, compute=1_000,
                                         total_pages=48),
                      backup_mode=BackupMode.QUARTERBACK,
                      checkpoint_every=4)
    elif workload == "e2-messages":
        # E2's shape: message-dense request/reply traffic.
        machine.spawn(PingProgram(rounds=12, compute=400), cluster=2,
                      sync_reads_threshold=4)
        machine.spawn(PongProgram(rounds=12), cluster=1,
                      sync_reads_threshold=4)
    else:
        # E3's shape: sync cost under transaction load, plus a crash so
        # recovery.crash_handle_latency records samples.
        build_bank_workload(machine, n_clients=2, txns_per_client=6,
                            accounts=8, seed=11)
        machine.crash_cluster(2, at=10_000)


WORKLOADS = ("e1-overhead", "e2-messages", "e3-sync-crash")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_streaming_stats_match_raw_mode(workload: str) -> None:
    machine = build_machine()
    populate(machine, workload)
    machine.run_until_idle(max_events=10_000_000)
    metrics = machine.metrics

    sample_names = metrics.snapshot()["samples"].keys()
    assert sample_names, f"workload {workload} recorded no sample series"
    for name in sample_names:
        samples = metrics.series(name)
        assert metrics.stats(name) == IntervalStats(
            count=len(samples), total=sum(samples),
            minimum=min(samples), maximum=max(samples))


def test_series_access_rules() -> None:
    metrics = MetricSet()
    assert metrics.series("never.recorded") == []
    assert metrics.stats("never.recorded") is None
    metrics.record("x", 3)
    metrics.record("x", 5)
    assert metrics.series("x") == [3, 5]
    assert metrics.stats("x") == IntervalStats(count=2, total=8,
                                              minimum=3, maximum=5)
    # series() hands out a copy: callers cannot corrupt the retained list.
    metrics.series("x").append(99)
    assert metrics.series("x") == [3, 5]
