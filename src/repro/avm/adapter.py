"""Run AVM programs as fault-tolerant processes.

:class:`AvmProcess` adapts an assembled instruction list to the
:class:`~repro.programs.Program` contract.  The mapping makes recovery
automatic:

* VM registers and the VM program counter live in the process register
  file (synced in every sync message);
* VM memory is the ``M`` array in the paged address space (dirty pages
  ship to the page server like any other process's);
* each step executes a run of pure instructions (batched into one
  ``Compute``) or exactly one syscall instruction, so replayed execution
  is instruction-for-instruction identical.

Dispatch is precompiled at construction: every instruction is bound to a
small closure over its decoded operands once, and the per-step loop walks
a handler table indexed by the VM program counter — no ``op in
SYSCALL_OPS`` membership test and no if/elif decode chain per executed
instruction.  Syscall slots hold ``None`` in the handler table, which
doubles as the pure-run/syscall-boundary split.

Terminal prints use a per-program print counter kept in a VM register
slot, giving the device-level dedup keys recovery needs.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional

from ..programs.actions import (Action, Compute, Exit, GetTime, Open, Read,
                                Write)
from ..programs.program import Program, StepContext
from .isa import AvmError, Instruction, SYSCALL_OPS

#: A compiled pure instruction: ``handler(ctx, regs, vpc) -> next_vpc``.
PureHandler = Callable[[StepContext, dict, int], int]


class AvmProcess(Program):
    """A Program executing assembled AVM code.

    Each step runs at most ``max_batch`` pure instructions and charges
    them as one Compute slice, stopping early at a syscall boundary.
    The batch size is fixed, so a backup replaying from its last sync
    slices virtual time exactly as the primary did.
    """

    name = "avm"

    def __init__(self, code: List[Instruction], memory_words: int = 64,
                 cost_per_instruction: int = 10,
                 max_batch: int = 32, name: Optional[str] = None) -> None:
        if not code:
            raise AvmError("cannot run an empty program")
        self._code = tuple(code)
        self._memory_words = memory_words
        self._cost = cost_per_instruction
        self._max_batch = max_batch
        #: vpc -> compiled pure handler, or None at syscall boundaries.
        self._handlers = tuple(
            None if instruction.op in SYSCALL_OPS
            else self._compile_pure(instruction)
            for instruction in self._code)
        if name is not None:
            self.name = name

    # -- Program contract ----------------------------------------------------

    def declare(self, space) -> None:
        space.declare("M", self._memory_words)

    def init(self, mem, regs) -> None:
        for register in ("r0", "r1", "r2", "r3", "r4", "r5", "r6", "r7"):
            regs[register] = 0
        regs["vpc"] = 0
        regs["sp"] = self._memory_words   # stack grows down from the top
        regs["_prints"] = 0
        regs["_phase"] = "run"

    def step(self, ctx: StepContext) -> Action:
        regs = ctx.regs
        if regs["_phase"] == "retire":
            # A syscall just completed: write back its result and advance.
            self._retire_syscall(ctx)
            regs["_phase"] = "run"
        handlers = self._handlers
        code_len = len(handlers)
        batch = self._max_batch
        executed = 0
        vpc = regs["vpc"]
        try:
            while executed < batch:
                if not 0 <= vpc < code_len:
                    raise AvmError(f"vpc {vpc} out of range")
                handler = handlers[vpc]
                if handler is None:           # syscall boundary
                    regs["vpc"] = vpc
                    if executed:
                        # Charge the pure prefix first; the syscall issues
                        # on the next step with vpc parked at it.
                        return Compute(executed * self._cost)
                    return self._issue_syscall(ctx, self._code[vpc])
                vpc = handler(ctx, regs, vpc)
                executed += 1
        except BaseException:
            # The register file must show the faulting instruction, as it
            # did when vpc was written back per executed instruction.
            regs["vpc"] = vpc
            raise
        regs["vpc"] = vpc
        return Compute(executed * self._cost)

    # -- pure instructions ---------------------------------------------------------

    def _compile_pure(self, instruction: Instruction) -> PureHandler:
        """Bind one pure instruction to a closure over its operands."""
        op, args = instruction.op, instruction.args
        words = self._memory_words
        if op == "MOVI":
            dst, value = args

            def handler(ctx, regs, vpc):
                regs[dst] = value
                return vpc + 1
        elif op == "MOV":
            dst, src = args

            def handler(ctx, regs, vpc):
                regs[dst] = regs[src]
                return vpc + 1
        elif op == "ADD":
            dst, lhs, rhs = args

            def handler(ctx, regs, vpc):
                regs[dst] = regs[lhs] + regs[rhs]
                return vpc + 1
        elif op == "SUB":
            dst, lhs, rhs = args

            def handler(ctx, regs, vpc):
                regs[dst] = regs[lhs] - regs[rhs]
                return vpc + 1
        elif op == "MUL":
            dst, lhs, rhs = args

            def handler(ctx, regs, vpc):
                regs[dst] = regs[lhs] * regs[rhs]
                return vpc + 1
        elif op == "ADDI":
            dst, src, imm = args

            def handler(ctx, regs, vpc):
                regs[dst] = regs[src] + imm
                return vpc + 1
        elif op == "MULI":
            dst, src, imm = args

            def handler(ctx, regs, vpc):
                regs[dst] = regs[src] * imm
                return vpc + 1
        elif op == "LOAD":
            dst, addr = args

            def handler(ctx, regs, vpc):
                regs[dst] = ctx.mem.get("M", index=regs[addr])
                return vpc + 1
        elif op == "STORE":
            addr, src = args

            def handler(ctx, regs, vpc):
                ctx.mem.set("M", regs[src], index=regs[addr])
                return vpc + 1
        elif op == "JMP":
            target = args[0]

            def handler(ctx, regs, vpc):
                return target
        elif op == "JZ":
            reg, target = args

            def handler(ctx, regs, vpc):
                return target if regs[reg] == 0 else vpc + 1
        elif op == "JLT":
            lhs, rhs, target = args

            def handler(ctx, regs, vpc):
                return target if regs[lhs] < regs[rhs] else vpc + 1
        elif op == "JGT":
            lhs, rhs, target = args

            def handler(ctx, regs, vpc):
                return target if regs[lhs] > regs[rhs] else vpc + 1
        elif op == "GETPID":
            dst = args[0]

            def handler(ctx, regs, vpc):
                regs[dst] = ctx.pid
                return vpc + 1
        elif op == "PUSH":
            src = args[0]

            def handler(ctx, regs, vpc):
                sp = regs["sp"] - 1
                if sp < 0:
                    raise AvmError("stack overflow")
                ctx.mem.set("M", regs[src], index=sp)
                regs["sp"] = sp
                return vpc + 1
        elif op == "POP":
            dst = args[0]

            def handler(ctx, regs, vpc):
                sp = regs["sp"]
                if sp >= words:
                    raise AvmError("stack underflow")
                regs[dst] = ctx.mem.get("M", index=sp)
                regs["sp"] = sp + 1
                return vpc + 1
        elif op == "CALL":
            target = args[0]

            def handler(ctx, regs, vpc):
                sp = regs["sp"] - 1
                if sp < 0:
                    raise AvmError("stack overflow")
                ctx.mem.set("M", vpc + 1, index=sp)
                regs["sp"] = sp
                return target
        elif op == "RET":
            def handler(ctx, regs, vpc):
                sp = regs["sp"]
                if sp >= words:
                    raise AvmError("stack underflow")
                regs["sp"] = sp + 1
                return ctx.mem.get("M", index=sp)
        else:  # pragma: no cover - decoder guarantees coverage
            raise AvmError(f"unhandled pure op {op}")
        return handler

    # -- syscalls ----------------------------------------------------------------

    def _issue_syscall(self, ctx: StepContext,
                       instruction: Instruction) -> Action:
        regs = ctx.regs
        op, args = instruction.op, instruction.args
        regs["_phase"] = "retire"
        if op == "HALT":
            return Exit(regs[args[0]])
        if op == "OPEN":
            return Open(args[1])
        if op == "WRITE":
            return Write(regs[args[0]], regs[args[1]])
        if op == "SEND":
            return Write(regs[args[0]], (args[1], regs[args[2]]))
        if op == "RECV":
            return Read(regs[args[1]])
        if op == "TIME":
            return GetTime()
        if op == "TTYPUT":
            seq = regs["_prints"]
            regs["_prints"] = seq + 1
            return Write(regs[args[0]],
                         ("twrite", f"{args[1]}:{regs['r0']}",
                          ctx.pid, seq),
                         await_reply=True)
        raise AvmError(f"unhandled syscall {op}")  # pragma: no cover

    def _retire_syscall(self, ctx: StepContext) -> None:
        regs = ctx.regs
        instruction = self._code[regs["vpc"]]
        op, args = instruction.op, instruction.args
        result: Any = ctx.rv
        if op == "OPEN":
            if result is None:
                raise AvmError(f"OPEN failed for {args[1]!r}")
            regs[args[0]] = result
        elif op == "RECV":
            regs[args[0]] = result
        elif op == "TIME":
            regs[args[0]] = result
        # WRITE / SEND / TTYPUT need no writeback.
        regs["vpc"] = regs["vpc"] + 1
