"""A fixed reference kernel that gauges the host's current speed.

On a shared host the same pure-Python work takes 20-70% longer for
minutes at a time, so host seconds measured minutes apart disagree by
more than any useful bound.  The benchmark therefore runs this kernel
between the units it times and reports their time at a *reference
speed*: host seconds times ``REFERENCE_S`` over the kernel's mean time
in the same stretch.  The kernel imports nothing from the program, so a
change to the program cannot move it; it exercises what the simulator
spends its time on (a heap of timed events, generator processes,
``__slots__`` objects, dict counters and method calls), so a slow spell
of the host slows both alike.  Changing the kernel or ``REFERENCE_S``
re-bases every recorded timing, so both stay fixed.
"""

from __future__ import annotations

import heapq
import time

#: Seconds one kernel call takes at the reference speed (by definition).
REFERENCE_S = 0.01

_NODES, _EVENTS = 64, 5000


class _Node:
    __slots__ = ("ident", "value", "peers", "hits")

    def __init__(self, ident: int) -> None:
        self.ident = ident
        self.value = 0
        self.peers: list = []
        self.hits = 0

    def touch(self, value: int) -> None:
        self.value ^= value & 255
        self.hits += 1


def _process(node: _Node):
    while True:
        delay = yield
        node.value += delay
        for peer in node.peers:
            peer.touch(node.value)


def kernel() -> int:
    """A small deterministic event simulation; returns a checksum."""
    nodes = [_Node(i) for i in range(_NODES)]
    for node in nodes:
        node.peers = [nodes[(node.ident * 7 + k) % _NODES] for k in (1, 2)]
    procs, heap = [], []
    for node in nodes:
        proc = _process(node)
        next(proc)
        procs.append(proc)
        heapq.heappush(heap, ((node.ident * 5) % 11, node.ident))
    counts: dict = {}
    for _ in range(_EVENTS):
        when, ident = heapq.heappop(heap)
        procs[ident].send(when & 15)
        counts[ident & 31] = counts.get(ident & 31, 0) + 1
        heapq.heappush(heap, (when + 1 + (ident * 13 + when) % 9, ident))
    return sum(node.value + node.hits for node in nodes) + len(counts)


#: The kernel runs once per this many seconds since the last gap (at
#: least once per gap), so long units are gauged as densely as short
#: ones.  Its mean, not its median, tracks the program: the host's
#: short slow spikes slow the program too.
SAMPLE_EVERY_S = 0.25


class Gauge:
    """Kernel timings taken during one stretch of measurement."""

    def __init__(self) -> None:
        self.samples: list = []
        self._last = time.perf_counter()

    def sample(self, calls: int = 0) -> None:
        """Time the kernel in a gap between measured units, ``calls``
        times or, by default, in proportion to the time since the last
        gap."""
        if not calls:
            calls = 1 + int((time.perf_counter() - self._last)
                            / SAMPLE_EVERY_S)
        for _ in range(calls):
            start = time.perf_counter()
            kernel()
            self.samples.append(time.perf_counter() - start)
        self._last = time.perf_counter()

    def scale(self) -> float:
        """Factor from host seconds to reference-speed seconds."""
        return REFERENCE_S * len(self.samples) / sum(self.samples)
