"""An on-line transaction processing workload (the paper's section 3
target environment): a bank account server and transfer clients.

The server keeps account balances in its paged address space; clients
connect over paired channels and submit transfer transactions.  Invariant
checked by tests: the sum of balances is conserved across any single
crash-and-recovery, and every client receives exactly one reply per
transaction.
"""

from __future__ import annotations

from typing import List, Tuple

from ..programs.actions import Compute, Exit, Open, Read, ReadAny, Write
from ..programs.program import StateProgram, StepContext
from ..sim.rng import DeterministicRNG


class BankServerProgram(StateProgram):
    """Holds ``accounts`` balances; serves transfers until it has
    processed ``expected_txns`` transactions, then exits.

    Protocol (on a paired channel per client):
    ``("xfer", src, dst, amount)`` -> ``("ok", src_balance, dst_balance)``
    ``("balance", acct)`` -> ``("balance", value)``
    """

    name = "bank_server"
    start_state = "open_next"

    def __init__(self, clients: int, accounts: int = 16,
                 initial_balance: int = 1_000,
                 expected_txns: int = 100,
                 channel_prefix: str = "chan:bank",
                 audit: bool = False,
                 audit_channel: str = "chan:bank_audit") -> None:
        self._clients = clients
        self._accounts = accounts
        self._initial = initial_balance
        self._expected = expected_txns
        self._prefix = channel_prefix
        #: With auditing on, the server also opens the audit channel and
        #: keeps serving (balance queries) after the transfer quota.
        self._audit = audit
        self._audit_channel = audit_channel

    def declare(self, space) -> None:
        space.declare("balances", self._accounts)
        space.declare("opened", 1)
        space.declare("served", 1)
        space.declare("audit_opened", 1)

    def init(self, mem, regs) -> None:
        super().init(mem, regs)
        for acct in range(self._accounts):
            mem.set("balances", self._initial, index=acct)
        mem.set("opened", 0)
        mem.set("served", 0)
        mem.set("audit_opened", 0)

    def state_open_next(self, ctx: StepContext):
        opened = ctx.mem.get("opened")
        if opened >= self._clients:
            ctx.goto("serve")
            return Compute(10)
        ctx.goto("channel_opened")
        return Open(f"{self._prefix}{opened}")

    def state_channel_opened(self, ctx: StepContext):
        ctx.mem.set("opened", ctx.mem.get("opened") + 1)
        ctx.goto("open_next")
        return Compute(10)

    def state_serve(self, ctx: StepContext):
        if ctx.mem.get("served") >= self._expected:
            if not self._audit:
                return Exit(0)
            if not ctx.mem.get("audit_opened"):
                # Transfer quota done: accept the auditor's connection
                # (pairing blocks until the auditor opens the same name).
                ctx.goto("audit_opened")
                return Open(self._audit_channel)
        ctx.goto("handle")
        return ReadAny(fds=())

    def state_audit_opened(self, ctx: StepContext):
        ctx.mem.set("audit_opened", 1)
        ctx.goto("serve")
        return Compute(10)

    def state_handle(self, ctx: StepContext):
        fd, payload = ctx.rv
        if not isinstance(payload, tuple) or not payload:
            ctx.goto("serve")
            return Compute(5)
        if payload[0] == "xfer":
            _, src, dst, amount = payload
            src_balance = ctx.mem.get("balances", index=src)
            dst_balance = ctx.mem.get("balances", index=dst)
            if src_balance >= amount:
                src_balance -= amount
                dst_balance += amount
                ctx.mem.set("balances", src_balance, index=src)
                ctx.mem.set("balances", dst_balance, index=dst)
            ctx.mem.set("served", ctx.mem.get("served") + 1)
            ctx.goto("serve")
            return Write(fd, ("ok", src_balance, dst_balance))
        if payload[0] == "deposit":
            _, acct, amount = payload
            balance = ctx.mem.get("balances", index=acct) + amount
            ctx.mem.set("balances", balance, index=acct)
            ctx.mem.set("served", ctx.mem.get("served") + 1)
            ctx.goto("serve")
            return Write(fd, ("ok", balance))
        if payload[0] == "balance":
            ctx.goto("serve")
            return Write(fd, ("balance",
                              ctx.mem.get("balances", index=payload[1])))
        ctx.goto("serve")
        return Compute(5)


class BankClientProgram(StateProgram):
    """Submits a fixed, seed-derived list of transfers and counts replies."""

    name = "bank_client"
    start_state = "open"

    def __init__(self, index: int, transfers: List[Tuple[int, int, int]],
                 think_time: int = 300,
                 channel_prefix: str = "chan:bank",
                 op: str = "xfer") -> None:
        self._index = index
        self._transfers = list(transfers)
        self._think = think_time
        self._prefix = channel_prefix
        #: "xfer" moves money between accounts; "deposit" creates it —
        #: the non-conservative op the duplicate-detection audit needs.
        self._op = op

    def declare(self, space) -> None:
        space.declare("done", 1)

    def init(self, mem, regs) -> None:
        super().init(mem, regs)
        mem.set("done", 0)

    def state_open(self, ctx: StepContext):
        ctx.goto("opened")
        return Open(f"{self._prefix}{self._index}")

    def state_opened(self, ctx: StepContext):
        ctx.regs["bank_fd"] = ctx.rv
        ctx.goto("submit")
        return Compute(10)

    def state_submit(self, ctx: StepContext):
        done = ctx.mem.get("done")
        if done >= len(self._transfers):
            return Exit(0)
        src, dst, amount = self._transfers[done]
        ctx.goto("reply")
        if self._op == "deposit":
            payload = ("deposit", src, amount)
        else:
            payload = ("xfer", src, dst, amount)
        return Write(ctx.regs["bank_fd"], payload, await_reply=True)

    def state_reply(self, ctx: StepContext):
        ctx.mem.set("done", ctx.mem.get("done") + 1)
        ctx.goto("submit")
        return Compute(self._think)


class DenseBankClientProgram(BankClientProgram):
    """A bank client that runs application compute after every reply.

    Real OLTP clients do not just fire transfers back to back: each
    committed transaction feeds application logic (interest accrual,
    fraud scoring, report accumulation) before the next request goes
    out.  This client models that as ``app_steps`` compute slices of
    ``app_cost`` ticks each, working over its own address space, between
    a reply and the next submit — which makes the workload *dense*: the
    scheduler dispatch path dominates the run instead of channel waits.
    """

    name = "bank_client_dense"

    def __init__(self, index: int, transfers: List[Tuple[int, int, int]],
                 app_steps: int = 16, app_cost: int = 500,
                 **kwargs) -> None:
        super().__init__(index, transfers, **kwargs)
        self._app_steps = app_steps
        self._app_cost = app_cost

    def state_reply(self, ctx: StepContext):
        ctx.mem.set("done", ctx.mem.get("done") + 1)
        # The app loop's counter lives in a register, like
        # BusyProgram's: scratch state, not data the application would
        # checkpoint.
        ctx.regs["app_i"] = 0
        ctx.goto("app")
        return Compute(self._think)

    def state_app(self, ctx: StepContext):
        i = ctx.regs["app_i"]
        if i >= self._app_steps:
            ctx.goto("submit")
            return Compute(10)
        ctx.regs["app_i"] = i + 1
        return Compute(self._app_cost)


class BankAuditorProgram(StateProgram):
    """Connects to the bank, sums every balance, prints the total at the
    terminal (``audit:<sum>``) — the conservation check: transfers move
    money but never create or destroy it."""

    name = "bank_auditor"
    start_state = "open"

    def __init__(self, accounts: int,
                 channel_name: str = "chan:bank_audit") -> None:
        self._accounts = accounts
        self._channel = channel_name

    def declare(self, space) -> None:
        space.declare("i", 1)
        space.declare("total", 1)

    def init(self, mem, regs) -> None:
        super().init(mem, regs)
        mem.set("i", 0)
        mem.set("total", 0)

    def state_open(self, ctx: StepContext):
        ctx.goto("opened")
        return Open(self._channel)

    def state_opened(self, ctx: StepContext):
        ctx.regs["bank_fd"] = ctx.rv
        ctx.goto("ask")
        return Compute(10)

    def state_ask(self, ctx: StepContext):
        i = ctx.mem.get("i")
        if i >= self._accounts:
            ctx.goto("open_tty")
            return Compute(10)
        ctx.goto("got")
        return Write(ctx.regs["bank_fd"], ("balance", i),
                     await_reply=True)

    def state_got(self, ctx: StepContext):
        tag, balance = ctx.rv
        ctx.mem.set("total", ctx.mem.get("total") + balance)
        ctx.mem.set("i", ctx.mem.get("i") + 1)
        ctx.goto("ask")
        return Compute(10)

    def state_open_tty(self, ctx: StepContext):
        ctx.goto("report")
        return Open("tty:0")

    def state_report(self, ctx: StepContext):
        ctx.regs["tty_fd"] = ctx.rv
        ctx.goto("reported")
        return Write(ctx.regs["tty_fd"],
                     ("twrite", f"audit:{ctx.mem.get('total')}",
                      None, None))

    def state_reported(self, ctx: StepContext):
        ctx.goto("done")
        return Read(ctx.regs["tty_fd"])

    def state_done(self, ctx: StepContext):
        return Exit(0)


def generate_transfers(rng: DeterministicRNG, count: int,
                       accounts: int, max_amount: int = 50
                       ) -> List[Tuple[int, int, int]]:
    """Seed-derived transfer list for one client."""
    transfers = []
    for _ in range(count):
        src = rng.randint(0, accounts - 1)
        dst = rng.randint(0, accounts - 1)
        while dst == src and accounts > 1:
            dst = rng.randint(0, accounts - 1)
        transfers.append((src, dst, rng.randint(1, max_amount)))
    return transfers


def build_bank_workload(machine, n_clients: int = 3,
                        txns_per_client: int = 10, accounts: int = 16,
                        seed: int = 7, server_mode=None, client_mode=None,
                        server_cluster=None, server_spawn_kwargs=None):
    """Spawn a bank server plus clients on ``machine``.

    ``server_spawn_kwargs`` forwards extra :meth:`Machine.spawn` knobs to
    the server (``sync_reads_threshold``, ``checkpoint_every``, ...) —
    how the recovery-design shootout (experiment F5) varies the server's
    protection scheme over an otherwise identical workload.

    Returns ``(server_pid, client_pids, expected_total)`` where
    ``expected_total`` is ``accounts * initial_balance`` (the conserved
    sum the tests check).
    """
    from ..backup.modes import BackupMode

    rng = DeterministicRNG(seed)
    server_mode = server_mode or BackupMode.QUARTERBACK
    client_mode = client_mode or BackupMode.QUARTERBACK
    server = BankServerProgram(clients=n_clients, accounts=accounts,
                               expected_txns=n_clients * txns_per_client)
    server_pid = machine.spawn(server, backup_mode=server_mode,
                               cluster=server_cluster,
                               **(server_spawn_kwargs or {}))
    client_pids = []
    for index in range(n_clients):
        transfers = generate_transfers(rng.fork(f"client{index}"),
                                       txns_per_client, accounts)
        client_pids.append(machine.spawn(
            BankClientProgram(index=index, transfers=transfers),
            backup_mode=client_mode))
    return server_pid, client_pids, accounts * 1_000


def build_dense_oltp(machine, n_clients: int = 4,
                     txns_per_client: int = 60, accounts: int = 24,
                     seed: int = 7, app_steps: int = 32,
                     app_cost: int = 500):
    """Spawn the bank with :class:`DenseBankClientProgram` clients: the
    transfer stream of :func:`build_bank_workload` (same seed-derived
    transfer lists) plus per-transaction application compute on every
    client.  This is the "dense OLTP" workload — event density comes
    from scheduler dispatch, not from channel waits.

    Returns ``(server_pid, client_pids, expected_total)`` like
    :func:`build_bank_workload`.
    """
    from ..backup.modes import BackupMode

    rng = DeterministicRNG(seed)
    server = BankServerProgram(clients=n_clients, accounts=accounts,
                               expected_txns=n_clients * txns_per_client)
    server_pid = machine.spawn(server,
                               backup_mode=BackupMode.QUARTERBACK)
    client_pids = []
    for index in range(n_clients):
        transfers = generate_transfers(rng.fork(f"client{index}"),
                                       txns_per_client, accounts)
        client_pids.append(machine.spawn(
            DenseBankClientProgram(index=index, transfers=transfers,
                                   app_steps=app_steps,
                                   app_cost=app_cost),
            backup_mode=BackupMode.QUARTERBACK))
    return server_pid, client_pids, accounts * 1_000
