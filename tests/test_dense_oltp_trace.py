"""Pinned traces for the dense-OLTP workload, healthy and under a crash.

Dense OLTP (the bank with per-transaction application compute on every
client) is the densest single-machine schedule in the repository: most
of its events are scheduler dispatches, with long same-timestamp runs.
A change to event ordering anywhere in the loop, the heap or the
scheduler shows up here as a different trace digest, event count or
final clock.  The expected values were captured before the alternative
event queues and the intra-run parallel loop were removed, so they also
witness that the removal left dispatch order untouched.
"""

import pytest

from repro import Machine, MachineConfig
from repro.faults.campaign import trace_digest
from repro.workloads import build_dense_oltp

EXPECTED = {
    "healthy": ("b18f79e5aa41f2e081e5b3c91349f426"
                "f99d736f7f52cdbc85bc5f4ad011ac02", 12_520, 1_061_717),
    "crash-cluster-2": ("07f4a7e2c7e1d20aa3b5ad56a304b80d"
                        "d0d9316b811ccda48e93a416d6494298", 12_100,
                        1_097_131),
}


@pytest.mark.parametrize("case", sorted(EXPECTED))
def test_dense_oltp_trace_is_pinned(case):
    machine = Machine(MachineConfig(n_clusters=4, seed=7))
    build_dense_oltp(machine, n_clients=4, txns_per_client=60,
                     accounts=24, seed=7)
    if case == "crash-cluster-2":
        machine.crash_cluster(2, at=8_000)
    machine.run_until_idle(max_events=60_000_000)
    digest, events, end = EXPECTED[case]
    assert (trace_digest(machine), machine.sim.events_executed,
            machine.sim.now) == (digest, events, end)
