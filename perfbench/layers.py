"""Outside-in layer accounting for the benchmark's traced run.

:class:`LayerTracer` replaces public entry points of each simulator
layer with timing wrappers for the length of one traced pass and puts
the originals back afterwards; nothing under ``src/`` changes.  Every
wrapper pushes a frame on one stack.  On exit it charges its duration
minus its children's to its layer (the layer's *self time*) and its
whole duration to its parent.  Self times therefore partition the
root frame exactly, in integer nanoseconds: that is the accounting
closure the benchmark checks.

Per-event entry points (event dispatch, core, network and bank
handlers) only accumulate call counts and self time in place, because
a 128-core interference point dispatches 10^5-10^6 events.  Spans are
kept in memory only at point, phase, cache and journal granularity and
are exported as a Chrome trace.

Kernel generator code (``sync``, ``algorithms``, ``workloads``) runs
inside core resumptions, so its time is counted in ``cores.self_s``.

Wrappers must be installed before a pass builds its first ``Machine``:
the network keeps bank, core and Qnode handlers as bound methods taken
at construction, so a machine built earlier keeps calling the
unwrapped methods.  No machine outlives a pass in any workload here.
"""

from __future__ import annotations

import contextlib
import dataclasses
import heapq
import inspect
import json
import os
from time import perf_counter_ns

#: Self-time buckets.  Together they partition a traced pass exactly.
LAYERS = ("engine", "machine", "cores", "interconnect",
          "memory.controller", "memory.adapter", "scenarios",
          "eval.lookup", "eval.store", "eval.flush", "dse.journal", "dse",
          "unattributed")

#: Spans whose outermost instances add up to the scenario phase times.
PHASES = ("build", "run", "collect")

#: Simulated counters summed over every ``Machine.run``/``run_for``.
SIM_KEYS = ("updates", "sc_successes", "sc_failures", "sleep_cycles",
            "core_cycles", "ingress_wait_cycles", "messages",
            "bank_accesses", "bank_conflicts")

#: Count keys that together make ``interconnect.messages``.
MESSAGE_KEYS = ("Network.send_request", "Network.send_response",
                "Network.send_successor_update", "Network.send_wakeup")


def _subclasses(cls) -> list:
    """``cls`` and every class derived from it, parents first."""
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(c for c in _subclasses(sub) if c not in found)
    return found


def _normalized_journal_bytes(path: str, document: dict) -> int:
    """Journal file size with every ``wall_ms`` written as ``0.0``.

    ``wall_ms`` is the journal's one host-timed field; its digit count
    varies run to run, the rest of the document does not.
    """
    size = os.path.getsize(path)
    for record in document.get("evaluations", ()):
        wall = record.get("wall_ms")
        if isinstance(wall, float):
            size -= len(repr(wall)) - len("0.0")
    return size


class LayerTracer:
    """Counts and self times per layer for one traced pass."""

    def __init__(self) -> None:
        self._self_ns = [0] * len(LAYERS)
        #: Frames of the calls in progress; ``[0]`` is the sentinel
        #: parent of the root frame.  A frame is ``[children_ns]``.
        self._stack = [[0]]
        self._counts: dict = {}
        self._phase_ns = dict.fromkeys(PHASES, 0)
        self._phase_open = dict.fromkeys(PHASES, 0)
        self._patches: list = []
        #: ``(name, layer, start_ns, duration_ns)`` of every span.
        self.spans: list = []
        self.sim = dict.fromkeys(SIM_KEYS, 0)
        self.journal_bytes = 0
        self.wall_ns = 0
        #: Entry points the program no longer has; their time falls to
        #: the caller's layer and their counts read 0.
        self.missing: list = []

    # -- wrappers ----------------------------------------------------------

    def _counter(self, key: str) -> list:
        return self._counts.setdefault(key, [0])

    def count(self, key: str) -> int:
        """Calls recorded under ``key`` (0 when never called)."""
        return self._counts.get(key, [0])[0]

    def _timed(self, fn, layer: str, key: str):
        # The per-event wrapper: no span and no phase bookkeeping.
        stack = self._stack
        self_ns = self._self_ns
        index = LAYERS.index(layer)
        calls = self._counter(key)

        def timed(*args, **kwargs):
            frame = [0]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter_ns() - start
                stack.pop()
                stack[-1][0] += elapsed
                self_ns[index] += elapsed - frame[0]
                calls[0] += 1
        return timed

    def _spanned(self, fn, layer: str, name: str, key: str = None):
        stack = self._stack
        self_ns = self._self_ns
        spans = self.spans
        index = LAYERS.index(layer)
        calls = self._counter(key or "span." + name)
        phase_ns = self._phase_ns if name in PHASES else None
        phase_open = self._phase_open

        def spanned(*args, **kwargs):
            frame = [0]
            stack.append(frame)
            if phase_ns is not None:
                phase_open[name] += 1
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter_ns() - start
                stack.pop()
                stack[-1][0] += elapsed
                self_ns[index] += elapsed - frame[0]
                calls[0] += 1
                if phase_ns is not None:
                    phase_open[name] -= 1
                    if not phase_open[name]:
                        phase_ns[name] += elapsed
                spans.append((name, layer, start, elapsed))
        return spanned

    def run_root(self, fn):
        """Run ``fn()`` as the root frame; its self time is unattributed."""
        frame = [0]
        self._stack.append(frame)
        start = perf_counter_ns()
        try:
            return fn()
        finally:
            elapsed = perf_counter_ns() - start
            self._stack.pop()
            self._self_ns[LAYERS.index("unattributed")] += \
                elapsed - frame[0]
            self.wall_ns += elapsed
            self.spans.append(("pass", "unattributed", start, elapsed))

    # -- custom entry points -------------------------------------------------

    def _sim_run(self, fn, key: str):
        """``Simulator.run``/``run_for``: count every heap pop."""
        if "_heappop" not in inspect.signature(fn).parameters:
            self.missing.append(key + "(_heappop=)")
            return self._timed(fn, "engine", key)
        events = self._counter("engine.events")
        pop = heapq.heappop

        def counting_pop(heap):
            events[0] += 1
            return pop(heap)

        def run(*args, **kwargs):
            kwargs["_heappop"] = counting_pop
            return fn(*args, **kwargs)
        return self._timed(run, "engine", key)

    def _machine_run(self, fn, watches_until: bool):
        """``Machine.run``/``run_for``: the run phase, the ``until``
        predicate, and the simulated counters of the finished run."""
        timed_run = self._spanned(fn, "scenarios", "run")
        wrap_until = (lambda until: self._timed(until, "machine",
                                                "machine.until"))
        record = self._record_stats

        def run(machine, *args, **kwargs):
            if watches_until:
                if args and args[0] is not None:
                    args = (wrap_until(args[0]),) + args[1:]
                elif kwargs.get("until") is not None:
                    kwargs["until"] = wrap_until(kwargs["until"])
            stats = timed_run(machine, *args, **kwargs)
            record(machine.stats)
            return stats
        return run

    def _record_stats(self, stats) -> None:
        sim = self.sim
        sim["updates"] += stats.total_ops
        sim["sc_successes"] += sum(c.sc_successes for c in stats.cores)
        sim["sc_failures"] += stats.total_sc_failures
        sim["sleep_cycles"] += stats.total_sleep_cycles
        sim["core_cycles"] += sum(c.total_cycles for c in stats.cores)
        sim["ingress_wait_cycles"] += stats.network.ingress_wait_cycles
        sim["messages"] += stats.network.total_messages
        sim["bank_accesses"] += sum(b.accesses for b in stats.banks)
        sim["bank_conflicts"] += sum(b.conflicts for b in stats.banks)

    def _workload_load(self, fn, key: str):
        """``Workload.load``: the build phase; the verify and finish
        callbacks it returns become the collect phase."""
        timed_load = self._spanned(fn, "scenarios", "build", key)
        spanned = self._spanned

        def load(*args, **kwargs):
            loaded = timed_load(*args, **kwargs)
            hooks = {name: spanned(getattr(loaded, name), "scenarios",
                                   "collect")
                     for name in ("verify", "finish")
                     if getattr(loaded, name) is not None}
            return dataclasses.replace(loaded, **hooks)
        return load

    def _cache_lookup(self, fn):
        hits = self._counter("eval.cache_hits")
        misses = self._counter("eval.cache_misses")

        def lookup(cache, config_hash, *args, **kwargs):
            default = args[0] if args else kwargs.get("default")
            result = fn(cache, config_hash, *args, **kwargs)
            (misses if result is default else hits)[0] += 1
            return result
        return self._spanned(lookup, "eval.lookup", "cache.lookup")

    def _journal(self, fn):
        timed_write = self._spanned(fn, "dse.journal", "journal",
                                    "dse.journal_writes")

        def write_journal(path, document, *args, **kwargs):
            result = timed_write(path, document, *args, **kwargs)
            self.journal_bytes += _normalized_journal_bytes(path, document)
            return result
        return write_journal

    # -- installation ----------------------------------------------------------

    def _patch(self, owner, name: str, make) -> None:
        label = getattr(owner, "__name__", str(owner)).rsplit(".", 1)[-1]
        key = f"{label}.{name}"
        original = vars(owner).get(name)
        if original is None:
            self.missing.append(key)
            return
        self._patches.append((owner, name, original))
        setattr(owner, name, make(original, key))

    def install(self) -> None:
        """Wrap every layer's entry points (see the module docstring)."""
        from repro.cores.core import Core
        from repro.cores.qnode import Qnode
        from repro.dse import campaign as dse_campaign
        from repro.engine.simulator import Simulator
        from repro.eval.runner import ResultCache
        from repro.interconnect.network import Network
        from repro.machine import Machine
        from repro.memory.adapter import AtomicAdapter
        from repro.memory.controller import BankController
        from repro.scenarios import batch as scenarios_batch
        from repro.scenarios import run as scenarios_run
        from repro.scenarios.registry import Workload, list_workloads

        def timed(layer):
            return lambda fn, key: self._timed(fn, layer, key)

        def spanned(layer, name, key=None):
            return lambda fn, k: self._spanned(fn, layer, name, key or k)

        patch = self._patch
        patch(Simulator, "run", self._sim_run)
        patch(Simulator, "run_for", self._sim_run)
        for name in ("schedule", "schedule_at", "schedule_event"):
            patch(Simulator, name, timed("engine"))
        patch(Machine, "run",
              lambda fn, key: self._machine_run(fn, watches_until=True))
        patch(Machine, "run_for",
              lambda fn, key: self._machine_run(fn, watches_until=False))
        patch(Machine, "__init__",
              spanned("scenarios", "build", "scenarios.machines_built"))
        patch(Machine, "reset",
              spanned("scenarios", "build", "scenarios.machines_reset"))
        for name in ("_resume", "_send", "deliver_response"):
            patch(Core, name, timed("cores"))
        patch(Qnode, "on_successor_update", timed("cores"))
        for key in MESSAGE_KEYS:
            patch(Network, key.split(".")[1], timed("interconnect"))
        for name in ("receive", "_service", "respond",
                     "send_successor_update"):
            patch(BankController, name, timed("memory.controller"))
        for cls in _subclasses(AtomicAdapter):
            for name in ("handle", "handle_wakeup"):
                if name in vars(cls):
                    patch(cls, name, timed("memory.adapter"))
        workload_classes = _subclasses(Workload)
        workload_classes += [type(w) for _name, w in list_workloads()
                             if type(w) not in workload_classes]
        for cls in workload_classes:
            if "run" in vars(cls):
                patch(cls, "run", spanned("scenarios", "point"))
            if "load" in vars(cls):
                patch(cls, "load", self._workload_load)
        patch(scenarios_batch, "execute", spanned("scenarios", "point"))
        for module in (scenarios_run, dse_campaign):
            patch(module, "run_scenarios",
                  spanned("scenarios", "run_scenarios"))
        patch(ResultCache, "lookup_hash",
              lambda fn, key: self._cache_lookup(fn))
        patch(ResultCache, "store_hash",
              spanned("eval.store", "cache.store", "eval.cache_stores"))
        patch(ResultCache, "flush_counters",
              spanned("eval.flush", "cache.flush"))
        patch(dse_campaign, "write_journal",
              lambda fn, key: self._journal(fn))
        patch(dse_campaign.Campaign, "run", spanned("dse", "campaign"))

    def uninstall(self) -> None:
        """Put every original entry point back."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    @contextlib.contextmanager
    def installed(self):
        """Wrappers in place for the body of the ``with`` block."""
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- results ---------------------------------------------------------------

    def self_seconds(self) -> dict:
        """Layer -> self time in seconds."""
        return {layer: ns / 1e9 for layer, ns in zip(LAYERS, self._self_ns)}

    def closes(self) -> bool:
        """Self times add up exactly to the root frame's duration."""
        return (len(self._stack) == 1 and self.wall_ns > 0
                and sum(self._self_ns) == self.wall_ns)

    def counts(self) -> dict:
        """Every exact count metric of :meth:`metrics`."""
        return {name: value for name, value in self.metrics().items()
                if isinstance(value, int)}

    def metrics(self) -> dict:
        """The per-layer metrics of the traced pass, by name."""
        count = self.count
        sim = self.sim
        own = self.self_seconds()
        updates = sim["updates"]
        events = count("engine.events")
        messages = sum(count(key) for key in MESSAGE_KEYS)
        sc_total = sim["sc_successes"] + sim["sc_failures"]

        def per_update(value):
            return value / updates if updates else 0.0

        return {
            "engine.events": events,
            "engine.events_per_update": per_update(events),
            "engine.self_s": own["engine"],
            "machine.until_calls": count("machine.until"),
            "machine.until_s": own["machine"],
            "cores.updates": updates,
            "cores.resumptions": (count("Core._resume")
                                  + count("Core.deliver_response")),
            "cores.requests": count("Network.send_request"),
            "cores.self_s": own["cores"],
            "cores.sc_success_ratio": (sim["sc_successes"] / sc_total
                                       if sc_total else 0.0),
            "cores.sleep_frac": (sim["sleep_cycles"] / sim["core_cycles"]
                                 if sim["core_cycles"] else 0.0),
            "interconnect.messages": messages,
            "interconnect.messages_per_update": per_update(messages),
            "interconnect.ingress_wait_cycles": sim["ingress_wait_cycles"],
            "interconnect.self_s": own["interconnect"],
            "memory.bank_accesses": sim["bank_accesses"],
            "memory.bank_conflicts": sim["bank_conflicts"],
            "memory.controller_self_s": own["memory.controller"],
            "memory.adapter_self_s": own["memory.adapter"],
            "scenarios.machines_built": count("scenarios.machines_built"),
            "scenarios.machines_reset": count("scenarios.machines_reset"),
            "scenarios.build_s": self._phase_ns["build"] / 1e9,
            "scenarios.run_s": self._phase_ns["run"] / 1e9,
            "scenarios.collect_s": self._phase_ns["collect"] / 1e9,
            "scenarios.self_s": own["scenarios"],
            "eval.cache_hits": count("eval.cache_hits"),
            "eval.cache_misses": count("eval.cache_misses"),
            "eval.cache_stores": count("eval.cache_stores"),
            "eval.cache_lookup_s": own["eval.lookup"],
            "eval.cache_store_s": own["eval.store"],
            "eval.cache_flush_s": own["eval.flush"],
            "dse.journal_writes": count("dse.journal_writes"),
            "dse.journal_bytes": self.journal_bytes,
            "dse.journal_s": own["dse.journal"],
            "dse.self_s": own["dse"],
            "traced_wall_s": self.wall_ns / 1e9,
            "unattributed_s": own["unattributed"],
        }

    def export_chrome(self, path: str, other: dict) -> str:
        """Write the spans as a Chrome trace (``chrome://tracing``)."""
        origin = min((start for _n, _l, start, _d in self.spans), default=0)
        events = [{"name": name, "cat": layer, "ph": "X", "pid": 1,
                   "tid": 1, "ts": (start - origin) / 1e3,
                   "dur": duration / 1e3}
                  for name, layer, start, duration in self.spans]
        with open(path, "w") as stream:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms",
                       "otherData": other}, stream)
        return path
