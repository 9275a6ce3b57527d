"""``Machine.run_until_finished`` against the per-event predicate it
replaced.

The countdown stops the simulator from the last watched core's finish
hook; the old loop evaluated ``all(core.finished ...)`` after every
event.  Both must stop after the same event, leaving the same clock,
statistics and queued events behind.
"""

import pytest

from repro import VariantSpec
from repro.algorithms.histogram import Histogram
from repro.algorithms.matmul import Matmul
from repro.workloads.interference import endless_histogram_kernel

from ..conftest import make_machine

CORES = 16
WORKERS = 4
#: Far beyond every point's stop (~3k cycles): a countdown that never
#: reaches zero fails fast as a runaway instead of spinning.
MAX_CYCLES = 100_000

POINTS = [(VariantSpec.lrsc(), "lrsc"), (VariantSpec.colibri(), "wait")]


def interfered_machine(variant, method, bins):
    """A Fig. 5 interfered run: matmul workers on the top core ids,
    endless histogram pollers on the rest."""
    machine = make_machine(CORES, variant, max_cycles=MAX_CYCLES)
    matmul = Matmul(machine, 8)
    matmul.fill_inputs()
    histogram = Histogram(machine, bins)
    worker_ids = list(range(CORES - WORKERS, CORES))
    rows = matmul.partition_rows(WORKERS)
    for index, core_id in enumerate(worker_ids):
        machine.load(core_id, lambda api, r=rows[index]:
                     matmul.worker_kernel(api, r))
    for core_id in range(CORES - WORKERS):
        machine.load(core_id, lambda api:
                     endless_histogram_kernel(histogram, api, method))
    return machine, worker_ids


def observed(machine):
    return (machine.sim.now,
            [core.finish_cycle for core in machine.cores],
            machine.stats,
            machine.sim.pending_events)


def run_with_predicate(machine, core_ids):
    """The reference: the per-event ``until`` loop of the old machine."""
    watched = [machine.cores[i] for i in core_ids]
    machine.run(until=lambda: all(core.finished for core in watched))
    return observed(machine)


@pytest.mark.parametrize("bins", [1, 16])
@pytest.mark.parametrize("variant,method", POINTS,
                         ids=[method for _v, method in POINTS])
def test_countdown_stops_where_the_predicate_stopped(variant, method, bins):
    reference, worker_ids = interfered_machine(variant, method, bins)
    expected = run_with_predicate(reference, worker_ids)
    machine, _ = interfered_machine(variant, method, bins)
    machine.run_until_finished(worker_ids)
    assert observed(machine) == expected
    # Pollers never finish: events were still queued at the stop.
    assert expected[3] > 0


@pytest.mark.parametrize("variant,method", POINTS,
                         ids=[method for _v, method in POINTS])
def test_watched_ids_listed_twice_count_once(variant, method):
    reference, worker_ids = interfered_machine(variant, method, 16)
    expected = run_with_predicate(reference, worker_ids)
    machine, _ = interfered_machine(variant, method, 16)
    machine.run_until_finished(worker_ids + worker_ids[::-1])
    assert observed(machine) == expected


def test_finish_hooks_are_removed_after_the_run():
    machine, worker_ids = interfered_machine(VariantSpec.lrsc(), "lrsc", 1)
    machine.run_until_finished(worker_ids)
    assert all(core.on_finish is None for core in machine.cores)
