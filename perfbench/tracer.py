"""Traced run: spans around calls into each ``repro`` layer.

The layers are the ``repro`` subpackages.  :data:`LAYER_TARGETS` names,
per layer, the public functions whose calls become spans; on top of
those, every scheduled event becomes a span attributed to the layer of
the module that defined its callback, and every program step becomes a
span of ``programs`` (``servers`` for the peripheral servers' own
programs).  Nothing inside ``src/`` is edited: :class:`Tracer` swaps
wrappers in for the originals and :meth:`Tracer.uninstall` puts them
back.

Two things make a late install record nothing: ``Simulator.__init__``
rebinds ``call_after`` per instance, and ``Scheduler`` caches the bound
``kernel.sim.call_after`` (so does other hot-path code for its own
bindings).  The wrappers must therefore be installed before the traced
round builds its machines; :func:`coverage_failures` reports any gap.

A span records its name, start, end and parent span.  The spans of a
round stay in memory until the round ends and can then be written out
(:meth:`SpanLog.write`).  A layer's self time is the time of its spans
minus the time of their child spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array
from typing import Callable, Dict, List, Optional, Tuple

#: The layers reported, in report order (the ``repro`` subpackages the
#: benchmark drives).
LAYERS = ("sim", "kernel", "hardware", "messages", "backup", "paging",
          "servers", "recovery", "faults", "metrics", "programs")

#: layer -> ``"module:Qualified.name"`` of each function whose calls
#: are spans.  ``core`` and ``workloads`` are not reported layers; they
#: are traced so that machine construction and the campaign's
#: failure-free reference runs do not land in an unrelated layer.
LAYER_TARGETS: Dict[str, Tuple[str, ...]] = {
    "sim": ("repro.sim.loop:Simulator.call_at",
            "repro.sim.loop:Simulator.call_after",
            "repro.sim.loop:Simulator.run",
            "repro.sim.events:EventHeap.pop_batch"),
    "kernel": ("repro.kernel.kernel:ClusterKernel.handle_delivery",
               "repro.kernel.kernel:ClusterKernel.send_user_message",
               "repro.kernel.kernel:ClusterKernel.try_consume",
               "repro.kernel.kernel:ClusterKernel.page_fault",
               "repro.kernel.scheduler:Scheduler.dispatch"),
    "hardware": ("repro.hardware.bus:InterclusterBus.request",
                 "repro.hardware.cluster:Cluster.send",
                 "repro.hardware.cluster:Cluster.receive",
                 "repro.hardware.processor:ExecutiveProcessor.submit"),
    "messages": ("repro.messages.routing:RoutingTable.get",
                 "repro.messages.routing:RoutingTable.require",
                 "repro.messages.routing:RoutingTable.by_fd",
                 "repro.messages.routing:RoutingTable.entries_for_pid",
                 "repro.messages.routing:RoutingTable.all_entries",
                 "repro.messages.routing:RoutingTable.repair_after_crash",
                 "repro.messages.routing:RoutingTable.apply_backup_ready"),
    "backup": ("repro.backup.sync:perform_sync",
               "repro.backup.manager:apply_sync",
               "repro.backup.manager:apply_birth_notice"),
    "paging": ("repro.paging.store:PageStore.page_out",
               "repro.paging.store:PageStore.fetch",
               "repro.paging.store:PageStore.sync",
               "repro.paging.store:PageStore.promote"),
    "servers": ("repro.servers.base:PeripheralServerHarness._inject_request",
                "repro.servers.base:PeripheralServerHarness.on_cluster_crash",
                "repro.servers.base:PeripheralServerHarness._promote",
                "repro.servers.base:PeripheralServerHarness.reinstall_backup",
                "repro.servers.base:_handle_send_sync",
                "repro.servers.base:_handle_apply_sync"),
    "recovery": ("repro.recovery.crashhandler:begin_crash_handling",
                 "repro.recovery.rollforward:promote_backups",
                 "repro.recovery.rollforward:promote",
                 "repro.recovery.rollforward:handle_backup_ready"),
    "faults": ("repro.faults.invariants:check_scenario",),
    "metrics": ("repro.metrics.counters:MetricSet.incr",
                "repro.metrics.counters:MetricSet.record",
                "repro.metrics.counters:MetricSet.record_hist",
                "repro.metrics.counters:MetricSet.add_busy"),
    "core": ("repro.core.machine:Machine.__init__",),
    "workloads": ("repro.workloads.generator:Scenario.run",),
}

#: Packages imported before wrapping, so every module that binds a
#: traced function by name at import time is already loaded.
PACKAGES = ("repro", "repro.workloads", "repro.faults", "repro.servers",
            "repro.recovery", "repro.backup", "repro.avm",
            "repro.baselines", "repro.resilience")

ROOT = "bench.run"
SCHEDULERS = ("Simulator.call_at", "Simulator.call_after")


def _layer_of_module(module: str) -> str:
    parts = module.split(".")
    if len(parts) > 1 and parts[0] == "repro":
        return parts[1]
    return "other"


def _underlying_function(action: Callable) -> Callable:
    """The plain function behind a bound method, partial or wrapper."""
    func = action
    while True:
        if isinstance(func, functools.partial):
            func = func.func
        elif hasattr(func, "__func__"):
            func = func.__func__
        elif hasattr(func, "__wrapped__"):
            func = func.__wrapped__
        else:
            return func


class SpanLog:
    """Spans of one traced round, kept in four parallel arrays."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.layers: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.stack = [-1]
        self.active = False
        self._totals: Optional[Tuple[List[int], List[int]]] = None

    def name_id(self, name: str, layer: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.layers.append(layer)
        return nid

    def clear(self) -> None:
        for column in (self.name, self.parent, self.start, self.end):
            del column[:]
        self.stack = [-1]
        self._totals = None

    def __len__(self) -> int:
        return len(self.start)

    def open_root(self) -> None:
        self.clear()
        self.name.append(self.name_id(ROOT, "unattributed"))
        self.parent.append(-1)
        self.end.append(0)
        self.stack.append(0)
        self.active = True
        self.start.append(time.perf_counter_ns())

    def close_root(self) -> None:
        self.end[0] = time.perf_counter_ns()
        self.active = False
        if self.stack != [-1, 0]:
            raise RuntimeError(f"unbalanced spans: stack {self.stack}")
        self.stack = [-1]

    # -- analysis -----------------------------------------------------

    def self_times(self) -> Tuple[List[int], List[int]]:
        """(self ns, calls) per name id, computed once per round."""
        if self._totals is None:
            self._totals = self._compute_self_times()
        return self._totals

    def _compute_self_times(self) -> Tuple[List[int], List[int]]:
        n = len(self.start)
        start, end, parent, name = self.start, self.end, self.parent, \
            self.name
        child = [0] * n
        for i in range(1, n):
            child[parent[i]] += end[i] - start[i]
        self_ns = [0] * len(self.names)
        calls = [0] * len(self.names)
        for i in range(n):
            nid = name[i]
            self_ns[nid] += end[i] - start[i] - child[i]
            calls[nid] += 1
        return self_ns, calls

    def by_layer(self) -> Dict[str, Dict[str, int]]:
        """layer -> {"self_ns", "calls"} (every traced layer, zeros
        included)."""
        self_ns, calls = self.self_times()
        out = {layer: {"self_ns": 0, "calls": 0}
               for layer in LAYERS + ("unattributed",)}
        for nid, layer in enumerate(self.layers):
            entry = out.setdefault(layer, {"self_ns": 0, "calls": 0})
            entry["self_ns"] += self_ns[nid]
            entry["calls"] += calls[nid]
        # The root is the round itself, not a call into a layer.
        out["unattributed"]["calls"] = 0
        return out

    def calls_named(self) -> Dict[str, int]:
        _, calls = self.self_times()
        return {name: calls[nid] for nid, name in enumerate(self.names)
                if calls[nid]}

    def total_ns(self, name: str) -> int:
        """Summed duration of every span called ``name``."""
        nid = self._ids.get(name)
        if nid is None:
            return 0
        return sum(self.end[i] - self.start[i]
                   for i in range(len(self.start)) if self.name[i] == nid)

    def root_ns(self) -> int:
        return self.end[0] - self.start[0] if len(self.start) else 0

    # -- output -------------------------------------------------------

    def write(self, path: str) -> None:
        """One JSON header line, then the name, parent, start and end
        arrays as raw machine-order bytes (see :func:`read_spans`)."""
        header = {"format": "perfbench-spans/1", "count": len(self),
                  "names": self.names, "layers": self.layers,
                  "clock": "perf_counter_ns",
                  "columns": [["name", "i"], ["parent", "i"],
                              ["start", "q"], ["end", "q"]],
                  "byteorder": sys.byteorder}
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            for column in (self.name, self.parent, self.start, self.end):
                column.tofile(handle)


def read_spans(path: str) -> SpanLog:
    """Load a file written by :meth:`SpanLog.write`."""
    log = SpanLog()
    with open(path, "rb") as handle:
        header = json.loads(handle.readline())
        count = header["count"]
        for name, layer in zip(header["names"], header["layers"]):
            log.name_id(name, layer)
        for column in (log.name, log.parent, log.start, log.end):
            column.fromfile(handle, count)
    return log


def _resolve(target: str):
    module_name, qualname = target.split(":")
    owner = importlib.import_module(module_name)
    path = qualname.split(".")
    for part in path[:-1]:
        owner = getattr(owner, part)
    return owner, path[-1]


class Tracer:
    """Installs span wrappers on every :data:`LAYER_TARGETS` function,
    every scheduled event and every program step."""

    def __init__(self, log: Optional[SpanLog] = None) -> None:
        self.log = log if log is not None else SpanLog()
        #: (owner, attribute, original) per patch, for uninstall.
        self._patches: List[Tuple[object, str, object]] = []
        self._event_ids: Dict[object, int] = {}

    # -- wrappers -----------------------------------------------------

    def _span(self, fn: Callable, nid: int) -> Callable:
        log = self.log
        clock = time.perf_counter_ns
        name, parent, start, end = log.name, log.parent, log.start, \
            log.end

        def traced(*args, **kwargs):
            if not log.active:
                return fn(*args, **kwargs)
            stack = log.stack
            index = len(start)
            name.append(nid)
            parent.append(stack[-1])
            end.append(0)
            stack.append(index)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[index] = clock()
                stack.pop()

        return functools.update_wrapper(traced, fn)

    def _event_id(self, action: Callable) -> int:
        func = _underlying_function(action)
        # Keyed by code object: closures built per call share it.
        key = getattr(func, "__code__", None) or type(func)
        nid = self._event_ids.get(key)
        if nid is None:
            module = getattr(func, "__module__", None) or \
                type(func).__module__
            qualname = getattr(func, "__qualname__", type(func).__name__)
            nid = self.log.name_id(f"event:{module}.{qualname}",
                                   _layer_of_module(module))
            self._event_ids[key] = nid
        return nid

    def _scheduler(self, fn: Callable, nid: int, bound: bool) -> Callable:
        """Wrap ``call_at``/``call_after``: a span for the call itself,
        and the scheduled action wrapped in an event span."""
        span = self._span(fn, nid)
        event = self._event_span
        if bound:
            def schedule(when, action, *args, **kwargs):
                return span(when, event(action), *args, **kwargs)
        else:
            def schedule(sim, when, action, *args, **kwargs):
                return span(sim, when, event(action), *args, **kwargs)
        return functools.update_wrapper(schedule, fn)

    def _event_span(self, action: Callable) -> Callable:
        log = self.log
        nid = self._event_id(action)
        clock = time.perf_counter_ns
        name, parent, start, end = log.name, log.parent, log.start, \
            log.end

        def fire():
            if not log.active:
                return action()
            stack = log.stack
            index = len(start)
            name.append(nid)
            parent.append(stack[-1])
            end.append(0)
            stack.append(index)
            start.append(clock())
            try:
                return action()
            finally:
                end[index] = clock()
                stack.pop()

        return fire

    def _step(self, fn: Callable) -> Callable:
        """Program steps: one span name per program class."""
        log = self.log
        span_for: Dict[type, Callable] = {}

        def step(program, ctx):
            traced = span_for.get(type(program))
            if traced is None:
                cls = type(program)
                layer = ("servers" if cls.__module__.startswith(
                    "repro.servers.") else "programs")
                traced = span_for[cls] = self._span(
                    fn, log.name_id(f"step:{cls.__module__}.{cls.__name__}",
                                    layer))
            return traced(program, ctx)

        return functools.update_wrapper(step, fn)

    # -- install ------------------------------------------------------

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        """Wrap every target.  Call before the traced round builds its
        machines."""
        if self._patches:
            return
        for package in PACKAGES:
            importlib.import_module(package)
        from repro.programs.program import Program
        from repro.sim.loop import Simulator

        log = self.log
        for layer, targets in LAYER_TARGETS.items():
            for target in targets:
                owner, attr = _resolve(target)
                original = owner.__dict__[attr]
                name = target.split(":")[1]
                nid = log.name_id(name, layer)
                if name in SCHEDULERS:
                    wrapper = self._scheduler(original, nid, bound=False)
                else:
                    wrapper = self._span(original, nid)
                if isinstance(owner, type):
                    self._patch(owner, attr, wrapper)
                else:
                    # A module function: rebind it in every loaded repro
                    # module that imported it by name.
                    for module in list(sys.modules.values()):
                        if getattr(module, "__name__", "").startswith(
                                "repro") and \
                                module.__dict__.get(attr) is original:
                            self._patch(module, attr, wrapper)

        # Simulator.__init__ shadows call_after with a per-instance fast
        # path; wrap that instance attribute as each simulator is built.
        tracer = self
        call_after_id = log.name_id("Simulator.call_after", "sim")
        original_init = Simulator.__dict__["__init__"]

        def __init__(sim, *args, **kwargs):
            original_init(sim, *args, **kwargs)
            fast = sim.__dict__.get("call_after")
            if fast is not None:
                sim.call_after = tracer._scheduler(fast, call_after_id,
                                                   bound=True)

        self._patch(Simulator, "__init__",
                    functools.update_wrapper(__init__, original_init))

        pending = [Program]
        while pending:
            cls = pending.pop()
            pending.extend(cls.__subclasses__())
            if "step" in cls.__dict__:
                self._patch(cls, "step", self._step(cls.__dict__["step"]))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []


def coverage_failures(log: SpanLog, events: int,
                      counters: Dict[str, int],
                      seeds_checked: int) -> List[str]:
    """Cross-check span counts against the program's own counters.

    A wrapper installed too late, or bypassed by a cached binding,
    records nothing; this turns such a gap into a failure instead of a
    silently missing layer.
    """
    failures: List[str] = []
    calls = log.calls_named()
    layers = log.by_layer()
    event_spans = sum(count for name, count in calls.items()
                      if name.startswith("event:"))
    if event_spans != events:
        failures.append(f"event spans {event_spans} != events executed "
                        f"{events}")

    def at_least(span: str, counter: str) -> None:
        if calls.get(span, 0) < counters.get(counter, 0):
            failures.append(f"{span} calls {calls.get(span, 0)} < "
                            f"{counter} {counters.get(counter, 0)}")

    at_least("perform_sync", "sync.performed")
    at_least("begin_crash_handling", "recovery.crash_handlings")
    if calls.get("check_scenario", 0) != seeds_checked:
        failures.append(f"check_scenario calls "
                        f"{calls.get('check_scenario', 0)} != seeds "
                        f"{seeds_checked}")
    # layer -> counters whose being non-zero proves the layer ran.
    evidence = {
        "sim": events,
        "kernel": counters.get("msg.reads", 0),
        "hardware": counters.get("bus.transmissions", 0),
        "messages": counters.get("sync.performed", 0)
        + counters.get("proc.exited", 0),
        "backup": counters.get("sync.performed", 0),
        "paging": counters.get("paging.pages_shipped", 0),
        "servers": counters.get("server.syncs_sent", 0),
        "recovery": counters.get("recovery.crash_handlings", 0),
        "faults": seeds_checked,
        "metrics": sum(counters.values()),
        "programs": counters.get("proc.created", 0),
    }
    for layer, proof in evidence.items():
        if proof and not layers[layer]["calls"]:
            failures.append(f"layer {layer} shows no calls but its "
                            f"counters are non-zero ({proof})")
    return failures
