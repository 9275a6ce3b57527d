"""Tests for the Machine facade itself."""

import pytest

from repro import Machine, SystemConfig, VariantSpec
from repro.engine.errors import ConfigError

from ..conftest import increment_kernel_amo, make_machine


def test_construction_wires_all_components():
    machine = make_machine(16, VariantSpec.colibri())
    assert len(machine.cores) == 16
    assert len(machine.banks) == machine.config.num_banks == 64
    assert len(machine.apis) == 16
    assert machine.stats.cores[3].core_id == 3
    assert machine.stats.banks[5].bank_id == 5


def test_invalid_config_rejected_at_construction():
    bad = SystemConfig(num_cores=10, cores_per_tile=4)
    with pytest.raises(ConfigError):
        Machine(bad, VariantSpec.amo())


def test_poke_peek_array_roundtrip():
    machine = make_machine(4, VariantSpec.amo())
    base = machine.allocator.alloc_interleaved(6)
    machine.poke_array(base, [10, 20, 30, 40, 50, 60])
    assert machine.peek_array(base, 6) == [10, 20, 30, 40, 50, 60]
    machine.poke(base + 8, 99)
    assert machine.peek(base + 8) == 99


def test_load_range_loads_exactly_those_cores():
    machine = make_machine(8, VariantSpec.amo())
    counter = machine.allocator.alloc_interleaved(1)
    machine.load_range([1, 3, 5], increment_kernel_amo(counter, 2))
    machine.run()
    assert machine.peek(counter) == 6
    assert machine.cores[1].finished
    assert not machine.cores[0].finished  # never loaded


def test_run_for_freezes_endless_kernels():
    machine = make_machine(4, VariantSpec.amo())
    counter = machine.allocator.alloc_interleaved(1)

    def endless(api):
        while True:
            yield from api.amo_add(counter, 1)
            yield from api.retire()

    machine.load_all(endless)
    stats = machine.run_for(500)
    assert stats.cycles == 500
    assert stats.total_ops > 0
    assert not machine.cores[0].finished


def test_run_until_finished_stops_pollers():
    machine = make_machine(4, VariantSpec.amo())
    counter = machine.allocator.alloc_interleaved(1)
    flag = machine.allocator.alloc_interleaved(1)

    def finite(api):
        yield from api.compute(100)
        yield from api.sw(flag, 1)

    def endless(api):
        while True:
            yield from api.amo_add(counter, 1)

    machine.load(0, finite)
    machine.load(1, endless)
    machine.run_until_finished([0])
    assert machine.cores[0].finished
    assert not machine.cores[1].finished
    assert machine.peek(flag) == 1


def test_run_until_finished_rejects_a_watched_core_without_kernel():
    # Pollers never finish and core 15 has nothing to run: this used to
    # spin until max_cycles, then fail as a runaway simulation.
    machine = make_machine(16, VariantSpec.lrsc())
    counter = machine.allocator.alloc_interleaved(1)

    def poller(api):
        while True:
            resp = yield from api.lr(counter)
            yield from api.sc(counter, resp.value + 1)

    machine.load_range(range(15), poller)
    with pytest.raises(ValueError, match=r"\[15\]"):
        machine.run_until_finished([15])
    with pytest.raises(ValueError, match=r"\[15\]"):
        machine.run_until_finished([3, 15, 15])
    assert machine.sim.now == 0
    assert machine.sim.pending_events == 0


def test_run_until_finished_rejects_an_empty_watch_list():
    machine = make_machine(4, VariantSpec.amo())
    machine.load(0, lambda api: api.compute(10))
    with pytest.raises(ValueError, match="at least one"):
        machine.run_until_finished([])
    assert machine.sim.pending_events == 0


def test_makespan_uses_last_finisher():
    machine = make_machine(4, VariantSpec.amo())

    def quick(api):
        yield from api.compute(10)

    def slow(api):
        yield from api.compute(500)

    machine.load(0, quick)
    machine.load(1, slow)
    stats = machine.run()
    assert stats.cycles == 500


def test_stats_shared_with_components():
    machine = make_machine(4, VariantSpec.amo())
    counter = machine.allocator.alloc_interleaved(1)
    machine.load_all(increment_kernel_amo(counter, 3))
    stats = machine.run()
    assert stats is machine.stats
    assert sum(b.accesses for b in stats.banks) > 0
