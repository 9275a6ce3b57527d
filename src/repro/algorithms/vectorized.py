"""Vectorized (flat) drivers for identical-program workloads.

The scalar kernels express one update as a stack of nested generators:
``kernel → fetch_add → lrsc_fetch_modify → api.lr`` is four live Python
frames, and every yielded command climbs the whole stack twice (down via
``send``, up via ``yield from``).  For the workloads where all cores run
the same program — histogram, histogram_zipf, matmul and both halves of
interference (the endless pollers and the matmul workers of Fig. 5) —
that stack is pure overhead: the command sequence is known up front,
modulo the data-dependent retry loops and RNG draws.

The drivers here collapse each per-core program into **one flat
generator**: matmul steps through prebuilt load commands, the RMW
drivers step through an address stream with the retry state machines
inlined.  They are drop-in
kernel bodies behind the existing :class:`Workload` API and
**bit-identical to the scalar path** by construction:

* every command is yielded in exactly the scalar order with exactly the
  scalar cycle counts;
* RNG draws happen in the scalar sequence on the same per-core
  ``api.rng`` — in particular the LR/SC and QUEUE_FULL backoff draws
  *interleave* with the histogram's uniform bin draws, so those bin
  indices are drawn lazily, one per update, never precomputed (the
  Zipf streams come from a separate host RNG and can be precomputed);
* shared command singletons (``Retire(1)``, ``Compute(1)``...) are safe
  because the core FSM only reads command fields.

The loops read module-level ``Op``/``Status`` aliases: a class-level
``Op.X`` lookup goes through the Enum metaclass's ``__getattr__`` hook
on every evaluation.

``tests/scenarios/test_batch.py`` goldens each driver against the
scalar kernel it replaces, per RMW method, and
``tests/workloads/test_interference.py`` does the same for Fig. 5.
"""

from __future__ import annotations

from itertools import repeat

from ..cores.api import Compute, MemCmd, Retire
from ..interconnect.messages import Op, Status
from ..sync.backoff import DEFAULT_LRSC_BACKOFF, QUEUE_FULL_BACKOFF

# Members read once, outside every driver loop.
_LW, _SW, _AMO_ADD = Op.LW, Op.SW, Op.AMO_ADD
_LR, _SC, _LRWAIT, _SCWAIT = Op.LR, Op.SC, Op.LRWAIT, Op.SCWAIT
_OK, _QUEUE_FULL = Status.OK, Status.QUEUE_FULL

#: Immutable-in-practice command singletons (the core reads, never writes).
RETIRE = Retire(1)
COMPUTE_1 = Compute(1)
COMPUTE_2 = Compute(2)

#: Methods the flat RMW drivers implement (``"lock"`` stays scalar).
FLAT_RMW_METHODS = ("amo", "lrsc", "wait")


def _amo_stream(addrs):
    """One AMO and one retire per address; nothing else per update."""
    for addr in addrs:
        yield MemCmd(_AMO_ADD, addr, 1)
        yield RETIRE


def _lrsc_stream(api, addrs, backoff=DEFAULT_LRSC_BACKOFF):
    """Flat LR/SC retry loop over an address stream.

    Mirrors :func:`repro.sync.rmw.lrsc_fetch_modify` exactly: LR,
    one compute cycle, SC of old+1; on failure a ``backoff`` draw from
    ``api.rng`` and a compute of that many cycles.  The LR command of
    an update is built once and reissued on every retry.
    """
    rng = api.rng
    delay_of = backoff.delay
    for addr in addrs:
        lr = MemCmd(_LR, addr)
        attempt = 0
        while True:
            resp = yield lr
            yield COMPUTE_1
            resp = yield MemCmd(_SC, addr, resp.value + 1)
            if resp.status is _OK:
                break
            delay = delay_of(rng, attempt)
            if delay > 0:
                yield Compute(delay)
            attempt += 1
        yield RETIRE


def _wait_stream(api, addrs):
    """Flat LRwait/SCwait loop over an address stream.

    Mirrors :func:`repro.sync.rmw.wait_fetch_modify` exactly, including
    the QUEUE_FULL retry with its randomized short wait.
    """
    rng = api.rng
    delay_of = QUEUE_FULL_BACKOFF.delay
    for addr in addrs:
        lrwait = MemCmd(_LRWAIT, addr)
        attempt = 0
        while True:
            resp = yield lrwait
            if resp.status is _QUEUE_FULL:
                delay = delay_of(rng, attempt)
                if delay > 0:
                    yield Compute(delay)
                attempt += 1
                continue
            yield COMPUTE_1
            resp = yield MemCmd(_SCWAIT, addr, resp.value + 1)
            if resp.status is _OK:
                break
            attempt += 1
        yield RETIRE


def flat_stream_rmw(api, addrs, method: str,
                    backoff=DEFAULT_LRSC_BACKOFF):
    """Fetch-add each address of ``addrs`` (in order) via ``method``.

    ``addrs`` is consumed lazily, one address per update, at the point
    where the scalar kernel would compute it: a generator that draws
    from ``api.rng`` therefore interleaves its draws with the retry
    loops' backoff draws exactly as the scalar kernel does.  ``backoff``
    is the LR/SC retry policy; the other methods never retry on it.
    """
    if method == "amo":
        return _amo_stream(addrs)
    if method == "lrsc":
        return _lrsc_stream(api, addrs, backoff)
    if method == "wait":
        return _wait_stream(api, addrs)
    raise ValueError(f"no flat driver for RMW method {method!r}")


def flat_uniform_rmw(api, base: int, word: int, num_bins: int,
                     updates, method: str, backoff=DEFAULT_LRSC_BACKOFF):
    """Uniform-random histogram updates, bin indices drawn inline.

    The scalar kernel draws one bin index from ``api.rng`` per update
    *between* the retry loops' backoff draws, so the index of each
    update is drawn when that update starts.  ``updates=None`` runs
    forever (the endless pollers of Fig. 5); ``backoff`` is the LR/SC
    retry policy.
    """
    randrange = api.rng.randrange
    count = repeat(None) if updates is None else range(updates)
    addrs = (base + randrange(num_bins) * word for _ in count)
    return flat_stream_rmw(api, addrs, method, backoff)


def flat_matmul_kernel(api, matmul, rows):
    """Flat GEMM worker: prebuilt load commands, runtime accumulation.

    The A-row and B-column load commands are built once per kernel and
    *reused* across iterations (the core only reads command fields);
    the store value is data-dependent, so SW commands are built inline.
    Command order and cycle costs match
    :meth:`repro.algorithms.matmul.Matmul.worker_kernel` exactly.
    """
    dim = matmul.dim
    word = matmul.word
    a_base, b_base, c_base = matmul.a_base, matmul.b_base, matmul.c_base
    b_cmds = [[MemCmd(_LW, b_base + (k * dim + col) * word)
               for k in range(dim)]
              for col in range(dim)]
    for row in rows:
        a_cmds = [MemCmd(_LW, a_base + (row * dim + k) * word)
                  for k in range(dim)]
        for col in range(dim):
            col_cmds = b_cmds[col]
            acc = 0
            for k in range(dim):
                resp_a = yield a_cmds[k]
                resp_b = yield col_cmds[k]
                yield COMPUTE_2  # mul + add
                acc += resp_a.value * resp_b.value
            yield MemCmd(_SW, c_base + (row * dim + col) * word, acc)
            yield RETIRE
