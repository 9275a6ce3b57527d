"""The simulation kernel.

:class:`Simulator` owns the clock and the event queue and offers the
scheduling API every modelled component uses.  It knows nothing about
cores, banks or messages — those register *completion conditions* and
*blocked-agent reporting* hooks so the kernel can distinguish a finished
run from a deadlocked one (paper §III: LRSCwait is blocking, so a buggy
kernel that never issues its SCwait deadlocks its successors; we detect
and report exactly that).

Hot-path design
---------------
``schedule``/``schedule_at`` allocate nothing but the raw heap entry —
no :class:`~repro.engine.events.Event` handle — because no modelled
component ever cancels (use :meth:`Simulator.schedule_event` when you
need a cancellable handle).  The run loop drains the heap directly with
:mod:`heapq`, writes the clock only when the cycle actually changes (a
burst of same-cycle events costs one clock update, and the runaway /
monotonicity guards run per cycle instead of per event).  Together with
the C-speed list-entry comparisons this roughly halves the per-event
cost of the seed kernel (see ``BENCH_engine.json``).

Early stops are pushed, not polled: a component that knows the run is
over calls :meth:`Simulator.stop` from inside its event handler (the
machine does this when the last watched core finishes, see
:meth:`~repro.machine.Machine.run_until_finished`), and the loop pays
one attribute test per event to notice.  The ``until`` predicate of
:meth:`Simulator.run` remains for external callers; it is evaluated
after every event, so it runs in a second copy of the loop and costs
nothing when absent.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Callable, Optional

from .errors import DeadlockError, SimulationError
from .events import Event, EventQueue, NO_ARG, PRIORITY_NORMAL
from .trace import Tracer


class Simulator:
    """Deterministic discrete-event simulator with an integer cycle clock."""

    __slots__ = ("now", "max_cycles", "tracer", "telemetry", "_queue",
                 "_heap", "_counter", "_blocked_reporters", "_finished",
                 "_stopping")

    def __init__(self, max_cycles: int = 100_000_000,
                 tracer: Optional[Tracer] = None,
                 telemetry: Optional["Telemetry"] = None) -> None:
        self.now: int = 0
        self.max_cycles = max_cycles
        self.tracer = tracer or Tracer(enabled=False)
        if telemetry is None:
            # Deferred import: at construction time every module is
            # loaded, so this cannot cycle regardless of the order in
            # which the engine/telemetry packages import each other.
            from ..telemetry.hub import Telemetry
            telemetry = Telemetry()
        #: Telemetry hook hub shared by every component of this
        #: simulation; probes subscribe here (see :mod:`repro.telemetry`).
        self.telemetry = telemetry
        self._queue = EventQueue()
        # Aliases into the queue's internals for the zero-indirection
        # hot path; the queue never reassigns either.
        self._heap = self._queue._heap
        self._counter = self._queue._counter
        #: Callbacks returning a human-readable description of any agent
        #: still blocked; consulted when the event queue drains.
        self._blocked_reporters: list = []
        self._finished = False
        #: Set by :meth:`stop`; the run loop ends after the current event.
        self._stopping = False

    # -- scheduling --------------------------------------------------------

    def schedule(self, delay: int, fn: Callable,
                 priority: int = PRIORITY_NORMAL, arg=NO_ARG,
                 _heappush=heappush, _next=next) -> None:
        """Run ``fn`` ``delay`` cycles from now (``delay >= 0``).

        This is the fire-and-forget fast path: it returns no handle.
        Use :meth:`schedule_event` if the event may need cancelling.
        With ``arg`` the callback fires as ``fn(arg)`` — delivery paths
        use this to avoid allocating a closure per message.
        """
        if delay < 0:
            raise SimulationError(f"negative delay {delay} at cycle {self.now}")
        _heappush(self._heap,
                  [self.now + delay, priority, _next(self._counter), fn, arg])

    def schedule_at(self, cycle: int, fn: Callable,
                    priority: int = PRIORITY_NORMAL, arg=NO_ARG,
                    _heappush=heappush, _next=next) -> None:
        """Run ``fn`` at absolute ``cycle`` (must not be in the past)."""
        if cycle < self.now:
            raise SimulationError(
                f"cannot schedule at {cycle}, now is {self.now}")
        _heappush(self._heap,
                  [cycle, priority, _next(self._counter), fn, arg])

    def schedule_event(self, delay: int, fn: Callable[[], None],
                       priority: int = PRIORITY_NORMAL) -> Event:
        """Like :meth:`schedule` but returns a cancellable handle."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay} at cycle {self.now}")
        return self._queue.push(self.now + delay, fn, priority)

    def reset(self) -> None:
        """Rewind the clock and drop every queued event (warm reuse).

        Used by the batch runner to return a finished simulator to its
        post-construction state without rebuilding.  The heap is cleared
        *in place* — components hold aliases into it — and the event
        counter deliberately keeps counting: sequence numbers only break
        ties between same-cycle entries relatively, so continuing the
        count cannot change any observable ordering.  Registered blocked
        reporters are kept; they belong to the machine, not to one run.
        A pending :meth:`stop` is dropped with the events.
        """
        self.now = 0
        self._finished = False
        self._stopping = False
        del self._heap[:]

    def stop(self) -> None:
        """End the current :meth:`run` right after the event being
        dispatched.

        Call it from inside an event handler.  The rest of the handler
        still runs; every other queued event stays queued (those of the
        same cycle included), exactly as when an ``until`` predicate
        returns ``True`` after that event.  The run returns without the
        deadlock check.
        """
        self._stopping = True

    # -- deadlock detection hooks -------------------------------------------

    def add_blocked_reporter(self, fn: Callable[[], list]) -> None:
        """Register a callback listing agents that are still blocked.

        Each callback returns a list of strings describing blocked
        agents (empty when none).  When the event queue drains, a
        non-empty union means deadlock.
        """
        self._blocked_reporters.append(fn)

    def _blocked_agents(self) -> list:
        agents: list = []
        for reporter in self._blocked_reporters:
            agents.extend(reporter())
        return agents

    # -- run loop ------------------------------------------------------------

    def run(self, until: Optional[Callable[[], bool]] = None,
            _heappop=heappop) -> int:
        """Drain events until done; return the final cycle.

        The run stops early when a handler calls :meth:`stop`, or when
        the optional ``until`` predicate, evaluated after every event,
        returns ``True``.  If the queue drains while registered
        reporters still list blocked agents, :class:`DeadlockError` is
        raised with the agent list — this is the §III progress-guarantee
        failure mode made observable.  A :meth:`stop` never outlives
        the run it ended.
        """
        heap = self._heap
        max_cycles = self.max_cycles
        no_arg = NO_ARG
        now = self.now
        try:
            if until is None:
                while heap:
                    entry = _heappop(heap)
                    fn = entry[3]
                    if fn is None:          # cancelled, dropped lazily
                        continue
                    cycle = entry[0]
                    if cycle != now:
                        if cycle > max_cycles:
                            raise SimulationError(
                                f"exceeded max_cycles={max_cycles} "
                                f"(runaway simulation?)")
                        if cycle < now:
                            raise SimulationError(
                                "event queue went backwards in time")
                        now = self.now = cycle
                    arg = entry[4]
                    if arg is no_arg:
                        fn()
                    else:
                        fn(arg)
                    if self._stopping:
                        self._finished = True
                        return now
            else:
                while heap:
                    entry = _heappop(heap)
                    fn = entry[3]
                    if fn is None:
                        continue
                    cycle = entry[0]
                    if cycle != now:
                        if cycle > max_cycles:
                            raise SimulationError(
                                f"exceeded max_cycles={max_cycles} "
                                f"(runaway simulation?)")
                        if cycle < now:
                            raise SimulationError(
                                "event queue went backwards in time")
                        now = self.now = cycle
                    arg = entry[4]
                    if arg is no_arg:
                        fn()
                    else:
                        fn(arg)
                    if self._stopping or until():
                        self._finished = True
                        return now
            blocked = self._blocked_agents()
            if blocked:
                raise DeadlockError(
                    "event queue drained with blocked agents: "
                    + "; ".join(blocked))
            self._finished = True
            return now
        finally:
            # However the run ends, raised errors included, its stop
            # request must not carry over into the next run.
            self._stopping = False

    def run_for(self, cycles: int, _heappop=heappop) -> int:
        """Run until the clock passes ``self.now + cycles`` or events drain.

        Unlike :meth:`run`, draining the queue early is *not* treated as
        deadlock here; time-boxed workloads legitimately stop issuing
        work.  As in :meth:`run`, an event past ``max_cycles`` raises
        the runaway :class:`SimulationError`, and :meth:`stop` ends the
        run right after the event being dispatched, with the clock at
        that event's cycle.  Otherwise the clock ends at the horizon,
        capped at ``max_cycles``; it never moves backwards.  Returns the
        final cycle.
        """
        deadline = self.now + cycles
        max_cycles = self.max_cycles
        heap = self._heap
        no_arg = NO_ARG
        try:
            while heap:
                entry = heap[0]
                cycle = entry[0]
                if cycle > deadline:
                    break
                _heappop(heap)
                fn = entry[3]
                if fn is None:
                    continue
                if cycle > max_cycles:
                    raise SimulationError(
                        f"exceeded max_cycles={max_cycles} "
                        f"(runaway simulation?)")
                self.now = cycle
                arg = entry[4]
                if arg is no_arg:
                    fn()
                else:
                    fn(arg)
                if self._stopping:
                    return cycle
            self.now = max(self.now, min(deadline, max_cycles))
            return self.now
        finally:
            # As in run(): a stop request never outlives its run.
            self._stopping = False

    @property
    def pending_events(self) -> int:
        """Number of queued entries (cancelled-but-unpopped included)."""
        return len(self._heap)
