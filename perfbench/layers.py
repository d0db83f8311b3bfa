"""Hooks the benchmark installs on the simulator from outside.

Two levels, both installed by patching the program's classes and
module attributes at start-up (nothing under ``src/`` knows about
them):

* :class:`Probe` is present in every run.  It records each Network and
  PgmSession a session builds and the CPU time at which the session's
  first ``Simulator.run`` starts.  It costs a few calls per session.
* :class:`Tracer` is installed only in traced repetitions.  It wraps
  every public function and method of the program's layer modules,
  ``Simulator.schedule``/``schedule_at`` and every callback handed to
  them, and keeps a stack of layers.  Each clock reading charges the
  CPU time since the previous reading to the layer on top of the
  stack, so the per-layer self times partition the traced run exactly.
  A span is charged to the module that owns the callee: a link's own
  transmission and delivery callbacks count as ``link``, a Timer
  counts as the module of the callback it fires.
"""

from __future__ import annotations

import enum
import functools
import importlib
import pkgutil
import sys
import time
import types
from collections import defaultdict
from typing import Callable

from repro.pgm.session import PgmSession
from repro.simulator import engine
from repro.simulator.topology import Network

#: Module prefix -> layer; the first match wins.  Anything else
#: (experiment code, analysis, faults, liveness, misbehaviour, FEC,
#: PGM packet codecs, the flow trace) is ``other``.
MODULE_LAYERS = (
    ("repro.simulator.engine", "engine"),
    ("repro.simulator.link", "link"),
    ("repro.simulator.queues", "queues"),
    ("repro.simulator.loss_models", "loss_models"),
    ("repro.simulator.packet", "packet"),
    ("repro.simulator.node", "node"),
    ("repro.simulator.routing", "routing"),
    ("repro.simulator.topology", "topology"),
    ("repro.pgm.session", "session"),
    ("repro.pgm.aggregate", "pgm.aggregate"),
    ("repro.pgm.receiver", "pgm.receiver"),
    ("repro.pgm.network_element", "pgm.network_element"),
    ("repro.pgm.sender", "pgm.sender"),
    ("repro.pgm.guard", "pgm.guard"),
    ("repro.pgm.invariants", "pgm.invariants"),
    ("repro.pgm.telemetry", "telemetry"),
    ("repro.telemetry", "telemetry"),
    ("repro.core", "core"),
    ("repro.tcp", "tcp"),
)
OTHER = "other"
#: Every layer, in report order.
LAYERS = tuple(dict.fromkeys(layer for _, layer in MODULE_LAYERS)) + (OTHER,)
#: Network methods that compute routes (networkx runs inside them).
ROUTING_METHODS = ("graph", "build_routes", "set_group")
#: Engine methods that take a callback; wrapped by the tracer itself.
SCHEDULING = ("schedule", "schedule_at")


def module_layer(module: str | None) -> str:
    if module:
        for prefix, layer in MODULE_LAYERS:
            if module == prefix or module.startswith(prefix + "."):
                return layer
    return OTHER


class Probe:
    """Per-session bookkeeping shared by traced and untraced runs."""

    def __init__(self, clock: Callable[[], float]) -> None:
        self.clock = clock
        self.networks: list[Network] = []
        self.sessions: list[PgmSession] = []
        #: ``clock()`` when the current session's first run started
        self.run_started: float | None = None
        self.on_run_start: list[Callable[[], None]] = []

    def begin(self) -> None:
        self.networks = []
        self.sessions = []
        self.run_started = None

    def install(self) -> None:
        probe = self
        net_init = Network.__init__
        session_init = PgmSession.__init__
        sim_run = engine.Simulator.run

        @functools.wraps(net_init)
        def network_init(self, *args, **kwargs):
            net_init(self, *args, **kwargs)
            probe.networks.append(self)

        @functools.wraps(session_init)
        def pgm_session_init(self, *args, **kwargs):
            session_init(self, *args, **kwargs)
            probe.sessions.append(self)

        @functools.wraps(sim_run)
        def run(self, *args, **kwargs):
            if probe.run_started is None:
                probe.run_started = probe.clock()
                for fn in probe.on_run_start:
                    fn()
            return sim_run(self, *args, **kwargs)

        Network.__init__ = network_init
        PgmSession.__init__ = pgm_session_init
        engine.Simulator.run = run

    def counters(self) -> dict[str, int]:
        """Deterministic public counters of the session just run."""
        out = dict.fromkeys(COUNTERS, 0)
        sims = {}
        for net in self.networks:
            sims[id(net.sim)] = net.sim
            for node in net.nodes.values():
                out["node.forwards"] += node.packets_forwarded
                for link in node.links.values():
                    out["link.hops"] += link.delivered
                    out["link.drops"] += (
                        link.random_drops + link.queue.drops
                        + link.fault_drops + link.filter_drops
                        + link.corrupt_drops)
        out["engine.events"] = sum(s.events_processed for s in sims.values())
        for session in self.sessions:
            sender = session.sender
            out["pgm.sender.odata"] += sender.odata_sent
            out["pgm.sender.rdata"] += sender.rdata_sent
            out["core.acker_switches"] += sender.acker_switches
            out["pgm.receiver.naks"] += sum(rx.naks_sent
                                            for rx in session.receivers)
            if session.aggregate is not None:
                out["pgm.aggregate.synthetic_naks"] += (
                    session.aggregate.synthetic_naks())
        return out

    def invariant_violations(self) -> int:
        return sum(len(s.invariants.violations) for s in self.sessions
                   if s.invariants is not None)


COUNTERS = (
    "engine.events", "link.hops", "link.drops", "node.forwards",
    "pgm.sender.odata", "pgm.sender.rdata", "core.acker_switches",
    "pgm.receiver.naks", "pgm.aggregate.synthetic_naks",
)


class Tracer:
    """Layer-stack CPU attribution (see the module docstring)."""

    def __init__(self) -> None:
        self.clock = time.process_time
        self.stack = [OTHER]
        self.phases = {"setup": defaultdict(float), "run": defaultdict(float)}
        self.entries = {"setup": defaultdict(int), "run": defaultdict(int)}
        self.phase = "setup"
        self.acc = self.phases["setup"]
        self.calls = self.entries["setup"]
        self.last = self.clock()
        self._layer_cache: dict[types.CodeType, str] = {}
        self._timer_fire = engine.Timer._fire

    # -- phase bookkeeping ---------------------------------------------

    def reset(self) -> float:
        """Forget everything charged so far; returns the start time."""
        for phase in self.phases:
            self.phases[phase].clear()
            self.entries[phase].clear()
        self.stack[:] = [OTHER]
        self.last = self.clock()
        return self.last

    def close(self) -> float:
        """Charge the open interval; returns the end time."""
        self.switch(self.phase)
        return self.last

    def switch(self, phase: str) -> None:
        """Close the current interval and charge later time to ``phase``."""
        now = self.clock()
        self.acc[self.stack[-1]] += now - self.last
        self.last = now
        self.phase = phase
        self.acc = self.phases[phase]
        self.calls = self.entries[phase]

    def self_times(self, phase: str | None = None) -> dict[str, float]:
        phases = [phase] if phase else list(self.phases)
        return {layer: sum(self.phases[p].get(layer, 0.0) for p in phases)
                for layer in LAYERS}

    # -- spans -----------------------------------------------------------

    def span(self, layer: str, fn: Callable, tag: bool = True) -> Callable:
        tracer = self
        stack = self.stack
        clock = self.clock

        def traced(*args, **kwargs):
            top = stack[-1]
            if top is layer:
                return fn(*args, **kwargs)
            now = clock()
            tracer.acc[top] += now - tracer.last
            tracer.calls[layer] += 1
            stack.append(layer)
            tracer.last = now
            try:
                return fn(*args, **kwargs)
            finally:
                now = clock()
                tracer.acc[layer] += now - tracer.last
                stack.pop()
                tracer.last = now

        if tag:
            traced.perfbench_layer = layer
        return traced

    def callable_layer(self, fn: Callable) -> str:
        """Layer of the module that owns ``fn`` (bound method, function
        or lambda); a Timer resolves to the callback it fires."""
        func = getattr(fn, "__func__", fn)
        if func is self._timer_fire:
            return self.callable_layer(fn.__self__._callback)
        layer = getattr(func, "perfbench_layer", None)
        if layer is None:
            layer = self._layer_cache.get(func.__code__)
            if layer is None:
                layer = module_layer(func.__module__)
                self._layer_cache[func.__code__] = layer
        return layer

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        """Import every layer module, wrap its public functions and
        class methods, rebind the wrapped functions wherever another
        module imported them by name, then make each scheduled
        callback a span."""
        import repro

        for info in pkgutil.walk_packages(repro.__path__, "repro."):
            if module_layer(info.name) != OTHER:
                importlib.import_module(info.name)
        wrapped: dict[int, tuple[Callable, Callable]] = {}
        for name, module in list(sys.modules.items()):
            layer = module_layer(name)
            if layer == OTHER or not name.startswith("repro."):
                continue
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or getattr(value, "__module__", None) != name:
                    continue
                if isinstance(value, types.FunctionType):
                    wrapped[id(value)] = (value, self.span(layer, value))
                elif isinstance(value, type):
                    self._wrap_class(value, layer)
        for name, module in list(sys.modules.items()):
            if not name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                entry = wrapped.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, attr, entry[1])
        self._wrap_scheduling()

    def _wrap_class(self, cls: type, layer: str) -> None:
        if (issubclass(cls, (BaseException, enum.Enum, tuple))
                or getattr(cls, "_is_protocol", False)):
            return
        for name, raw in list(vars(cls).items()):
            if name.startswith("_") or (cls.__module__ == engine.__name__
                                        and name in SCHEDULING):
                continue
            span_layer = ("routing" if cls is Network and name in ROUTING_METHODS
                          else layer)
            if isinstance(raw, types.FunctionType):
                setattr(cls, name, self.span(span_layer, raw))

    def _wrap_scheduling(self) -> None:
        tracer = self
        span = self.span
        callable_layer = self.callable_layer
        for name in SCHEDULING:
            orig = vars(engine.Simulator)[name]

            def schedule(self, when, fn, *args, _orig=orig):
                return _orig(self, when, span(callable_layer(fn), fn, False),
                             *args)

            setattr(engine.Simulator, name, tracer.span("engine", schedule))
