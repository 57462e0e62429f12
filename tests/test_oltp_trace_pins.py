"""Pinned traces for the OLTP bank workloads, healthy and under a crash.

Two workloads share one shape (4 clusters, seed 7, 4 clients x 60
transactions over 24 accounts):

* **bank OLTP** (``build_bank_workload``) is the closed-loop bank the
  core-throughput work was measured on; its healthy digest is the trace
  the pre-fast-path engine produced, so it witnesses that every later
  engine change left behaviour untouched;
* **dense OLTP** (``build_dense_oltp``) adds per-transaction application
  compute on every client.  It is the densest single-machine schedule in
  the repository: most of its events are scheduler dispatches, with long
  same-timestamp runs.  Its expected values were captured before the
  alternative event queues and the intra-run parallel loop were removed.

A change to event ordering anywhere in the loop, the heap or the
scheduler shows up here as a different trace digest, event count or
final clock.  Every case also pins the exit codes: each client and the
bank server exit cleanly, with or without the crash.
"""

import pytest

from repro import Machine, MachineConfig
from repro.faults.campaign import trace_digest
from repro.workloads import build_bank_workload, build_dense_oltp

WORKLOADS = {"bank-oltp": build_bank_workload,
             "dense-oltp": build_dense_oltp}

EXPECTED = {
    ("bank-oltp", "healthy"): (
        "adb5a8b935ee5cccd9088087ebb4a85ea5f180b819be4c4179ef708394cb8411",
        4_477, 126_600),
    ("bank-oltp", "crash-cluster-2"): (
        "70005f4c2ae0011e7d361c1040a7091abfa9e980330e8d10a87f3e4d881e7c40",
        4_162, 153_596),
    ("dense-oltp", "healthy"): (
        "b18f79e5aa41f2e081e5b3c91349f426f99d736f7f52cdbc85bc5f4ad011ac02",
        12_520, 1_061_717),
    ("dense-oltp", "crash-cluster-2"): (
        "07f4a7e2c7e1d20aa3b5ad56a304b80dd0d9316b811ccda48e93a416d6494298",
        12_100, 1_097_131),
}

EXITS = {6: 0, 7: 0, 1_000_001: 0, 2_000_001: 0, 3_000_001: 0}


@pytest.mark.parametrize("workload,case", sorted(EXPECTED),
                         ids=["-".join(key) for key in sorted(EXPECTED)])
def test_oltp_trace_is_pinned(workload, case):
    machine = Machine(MachineConfig(n_clusters=4, seed=7))
    WORKLOADS[workload](machine, n_clients=4, txns_per_client=60,
                        accounts=24, seed=7)
    if case == "crash-cluster-2":
        machine.crash_cluster(2, at=8_000)
    machine.run_until_idle(max_events=60_000_000)
    digest, events, end = EXPECTED[(workload, case)]
    assert (trace_digest(machine), machine.sim.events_executed,
            machine.sim.now) == (digest, events, end)
    assert machine.exits == EXITS
