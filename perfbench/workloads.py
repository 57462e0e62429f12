"""The benchmark's workloads and the checks on their outputs.

Each workload takes its seed as an argument and turns it into inputs
once; every round then builds fresh machines from those inputs
(``setup``), runs them (``run``) and reads their outputs (``outputs``).
Only public APIs are used: :class:`repro.Machine`, the programs in
:mod:`repro.workloads`, and :func:`repro.faults.run_campaign`.

Checks are declared up front (:meth:`Workload.check_names`), and
:func:`count_failed` counts a declared check that did not run as failed,
never as passed.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List, Optional

from repro import BackupMode, Machine, MachineConfig
from repro.faults import run_campaign
from repro.metrics import exact_percentile
from repro.sim.rng import DeterministicRNG
from repro.workloads import (BankAuditorProgram, BankClientProgram,
                             BankServerProgram, MemoryChurnProgram,
                             generate_transfers)

from .meter import Merged

#: Event budget per machine: far above any workload here, so hitting it
#: means a livelock, which run_until_idle raises as an error.
MAX_EVENTS = 50_000_000


def count_failed(names: List[str], results: Dict[str, bool]) -> int:
    """Declared checks that did not pass; a missing result is a fail."""
    return sum(1 for name in names if results.get(name) is not True)


class Workload:
    name = ""
    why = ""
    #: Default size (transfers per client, rounds, or seeds).
    size = 0

    def __init__(self, seed: int, size: Optional[int] = None) -> None:
        self.seed = seed
        if size is not None:
            self.size = size

    def setup(self):
        """Build the round's machines and workload (may be empty)."""
        return None

    def run(self, state):
        raise NotImplementedError

    def outputs(self, state, result) -> Dict[str, object]:
        """The round's externally visible, deterministic outputs."""
        raise NotImplementedError

    def check_names(self) -> List[str]:
        raise NotImplementedError

    def checks(self, outputs: Dict[str, object],
               counters: Dict[str, int]) -> Dict[str, bool]:
        raise NotImplementedError

    def seeds_checked(self, outputs: Dict[str, object]) -> int:
        """Campaign scenarios checked in the round (0 elsewhere)."""
        return 0

    def latency(self, outputs: Dict[str, object],
                merged: Merged) -> Dict[str, tuple]:
        """Workload-specific virtual-time latencies (report only)."""
        return {}


# ----------------------------------------------------------------------
# bank
# ----------------------------------------------------------------------

class Bank(Workload):
    name = "bank"
    why = ("the paper's OLTP target: closed-loop transfers load kernel "
           "delivery, three-way delivery and many small bus "
           "transmissions")
    size = 1_500
    clients = 4
    accounts = 24
    clusters = 4

    def __init__(self, seed: int, size: Optional[int] = None) -> None:
        super().__init__(seed, size)
        rng = DeterministicRNG(seed)
        streams = [rng.fork(f"client{index}")
                   for index in range(self.clients)]
        self.transfers = [generate_transfers(stream, self.size,
                                             self.accounts)
                          for stream in streams]
        #: Per-client think time (ticks) between a reply and the next
        #: transfer; the transfer contents alone do not change timing.
        self.think = [stream.randint(250, 350) for stream in streams]

    def setup(self):
        machine = Machine(MachineConfig(n_clusters=self.clusters,
                                        trace_enabled=False))
        server = BankServerProgram(
            clients=self.clients, accounts=self.accounts,
            expected_txns=self.clients * self.size, audit=True)
        machine.spawn(server, backup_mode=BackupMode.QUARTERBACK)
        clients = [machine.spawn(
            BankClientProgram(index=index, transfers=transfers,
                              think_time=think),
            backup_mode=BackupMode.QUARTERBACK)
            for index, (transfers, think) in enumerate(
                zip(self.transfers, self.think))]
        auditor = machine.spawn(BankAuditorProgram(accounts=self.accounts),
                                backup_mode=BackupMode.QUARTERBACK)
        return machine, clients, auditor

    def run(self, state):
        state[0].run_until_idle(max_events=MAX_EVENTS)

    def outputs(self, state, result) -> Dict[str, object]:
        machine, clients, auditor = state
        return {"tty": machine.tty_output(), "exits": dict(machine.exits),
                "clients": clients, "auditor": auditor}

    def check_names(self) -> List[str]:
        return ([f"client{index}.exit0" for index in range(self.clients)]
                + ["auditor.exit0", "audit.sum"])

    def checks(self, outputs, counters) -> Dict[str, bool]:
        return check_bank(outputs, self.accounts * 1_000)

    def latency(self, outputs, merged) -> Dict[str, tuple]:
        return {"req_p50_ticks": (merged.hist_p("latency.request", 50),
                                  "ticks"),
                "req_p99_ticks": (merged.hist_p("latency.request", 99),
                                  "ticks")}


def check_bank(outputs: Dict[str, object],
               expected_total: int) -> Dict[str, bool]:
    """Every client exits 0, and the auditor prints ``audit:<sum>``
    equal to accounts x 1000 (transfers conserve money)."""
    exits = outputs.get("exits", {})
    results = {f"client{index}.exit0": exits.get(pid) == 0
               for index, pid in enumerate(outputs.get("clients", []))}
    if "auditor" in outputs:
        results["auditor.exit0"] = exits.get(outputs["auditor"]) == 0
    if "tty" in outputs:
        audits = [line for line in outputs["tty"]
                  if line.startswith("audit:")]
        results["audit.sum"] = audits == [f"audit:{expected_total}"]
    return results


# ----------------------------------------------------------------------
# sync-churn
# ----------------------------------------------------------------------

class SyncChurn(Workload):
    name = "sync-churn"
    why = ("periodic syncs of dirty pages with no user messages: the "
           "sync write path, page-out and the page server, and a few "
           "large bus transfers")
    size = 2_000
    processes = 2
    clusters = 3
    pages = 16
    total_pages = 48
    #: Rounds of compute between time-triggered syncs.
    rounds_per_sync = 10

    def __init__(self, seed: int, size: Optional[int] = None) -> None:
        super().__init__(seed, size)
        rng = DeterministicRNG(seed)
        #: Per-process compute ticks per round.
        self.compute = [rng.fork(f"churn{index}").randint(1_900, 2_100)
                        for index in range(self.processes)]

    def setup(self):
        machine = Machine(MachineConfig(n_clusters=self.clusters,
                                        trace_enabled=False))
        pids = [machine.spawn(
            MemoryChurnProgram(pages=self.pages, rounds=self.size,
                               compute=compute,
                               total_pages=self.total_pages),
            backup_mode=BackupMode.QUARTERBACK,
            sync_time_threshold=compute * self.rounds_per_sync)
            for compute in self.compute]
        return machine, pids

    def run(self, state):
        state[0].run_until_idle(max_events=MAX_EVENTS)

    def outputs(self, state, result) -> Dict[str, object]:
        machine, pids = state
        return {"exits": dict(machine.exits), "pids": pids}

    def check_names(self) -> List[str]:
        return ([f"churn{index}.exit0" for index in range(self.processes)]
                + ["sync.applied_equals_performed"])

    def checks(self, outputs, counters) -> Dict[str, bool]:
        return check_sync_churn(outputs, counters)


def check_sync_churn(outputs: Dict[str, object],
                     counters: Dict[str, int]) -> Dict[str, bool]:
    """Every process exits 0, and every sync performed was applied at
    the backup (with at least one sync performed)."""
    exits = outputs.get("exits", {})
    results = {f"churn{index}.exit0": exits.get(pid) == 0
               for index, pid in enumerate(outputs.get("pids", []))}
    if "sync.performed" in counters:
        performed = counters["sync.performed"]
        results["sync.applied_equals_performed"] = (
            performed > 0 and counters.get("sync.applied") == performed)
    return results


# ----------------------------------------------------------------------
# campaign
# ----------------------------------------------------------------------

class Campaign(Workload):
    name = "campaign"
    why = ("the fault campaign users and CI run: generated scenarios, "
           "each failure-free then under one of 12 fault kinds, checked "
           "by the invariant registry")
    size = 96
    clusters = 3

    def __init__(self, seed: int, size: Optional[int] = None) -> None:
        super().__init__(seed, size)
        #: One block of consecutive campaign seeds per benchmark seed; a
        #: block of 12k seeds covers every fault kind k times.
        self.seeds = range(seed * self.size, (seed + 1) * self.size)

    def run(self, state):
        return run_campaign(self.seeds, n_clusters=self.clusters,
                            jobs=1, cache_dir=None)

    def outputs(self, state, report) -> Dict[str, object]:
        text = json.dumps(report.as_dict(), sort_keys=True)
        return {"passed": {result.seed: result.passed
                           for result in report.results},
                "report_sha256": hashlib.sha256(text.encode()).hexdigest(),
                "request": report.merged_latency("request").summary(),
                "recovery": report.pooled_recovery_latencies()}

    def check_names(self) -> List[str]:
        return [f"seed{seed}.passed" for seed in self.seeds]

    def checks(self, outputs, counters) -> Dict[str, bool]:
        return check_campaign(outputs)

    def seeds_checked(self, outputs) -> int:
        return len(outputs.get("passed", {}))

    def latency(self, outputs, merged) -> Dict[str, tuple]:
        request = outputs["request"]
        return {"req_p50_ticks": (request.get("p50") or 0, "ticks"),
                "req_p99_ticks": (request.get("p99") or 0, "ticks"),
                "recovery_p99_ticks": (
                    exact_percentile(outputs["recovery"], 99) or 0,
                    "ticks")}


def check_campaign(outputs: Dict[str, object]) -> Dict[str, bool]:
    """Every scenario passed the invariant registry."""
    return {f"seed{seed}.passed": passed is True
            for seed, passed in outputs.get("passed", {}).items()}


WORKLOADS = {cls.name: cls for cls in (Bank, SyncChurn, Campaign)}
