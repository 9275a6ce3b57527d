"""Tests for the Fig. 5 interference workload."""

import pytest

from repro.arch.config import SystemConfig
from repro.memory.variants import VariantSpec
from repro.workloads.interference import InterferenceResult, run_interference


def test_baseline_equals_interfered_without_pollers():
    result = InterferenceResult(
        num_pollers=0, num_workers=4, num_bins=1, method="wait",
        baseline_cycles=100, interfered_cycles=100)
    assert result.relative_throughput == 1.0


def test_relative_throughput_below_one_when_slowed():
    result = InterferenceResult(
        num_pollers=12, num_workers=4, num_bins=1, method="lrsc",
        baseline_cycles=100, interfered_cycles=400)
    assert result.relative_throughput == 0.25


def test_more_workers_than_cores_rejected():
    config = SystemConfig.scaled(8)
    with pytest.raises(ValueError):
        run_interference(config, VariantSpec.amo(), "amo",
                         num_workers=9, num_bins=1)


def test_colibri_pollers_barely_interfere():
    config = SystemConfig.scaled(16)
    result = run_interference(config, VariantSpec.colibri(), "wait",
                              num_workers=4, num_bins=1, matmul_dim=8)
    assert result.num_pollers == 12
    assert result.relative_throughput > 0.9


def test_lrsc_pollers_interfere_at_least_as_much_as_colibri():
    config = SystemConfig.scaled(16)
    colibri = run_interference(config, VariantSpec.colibri(), "wait",
                               num_workers=4, num_bins=1, matmul_dim=8)
    lrsc = run_interference(config, VariantSpec.lrsc(), "lrsc",
                            num_workers=4, num_bins=1, matmul_dim=8)
    assert lrsc.relative_throughput <= colibri.relative_throughput + 0.02


def test_workers_are_remote_from_hot_tile():
    """Workers take the top core ids so the bins' tile is not theirs."""
    config = SystemConfig.scaled(16)
    result = run_interference(config, VariantSpec.amo(), "amo",
                              num_workers=2, num_bins=1, matmul_dim=6)
    assert result.num_workers == 2
    assert result.baseline_cycles > 0


# -- flat drivers == scalar kernels ------------------------------------------


def _scalar_interference_runs(config, variant, method, num_workers,
                              num_bins, matmul_dim, seed=0):
    """Both runs of :func:`measure_interference`, built from the scalar
    reference kernels: ``[(machine, stats)]``, baseline first."""
    from repro.algorithms.histogram import Histogram
    from repro.algorithms.matmul import Matmul
    from repro.machine import Machine
    from repro.workloads.interference import endless_histogram_kernel

    worker_ids = list(range(config.num_cores - num_workers,
                            config.num_cores))
    runs = []
    for load_pollers in (False, True):
        machine = Machine(config, variant, seed=seed)
        matmul = Matmul(machine, matmul_dim)
        matmul.fill_inputs()
        histogram = Histogram(machine, num_bins)
        rows = matmul.partition_rows(num_workers)
        for index, core_id in enumerate(worker_ids):
            machine.load(core_id, lambda api, r=rows[index]:
                         matmul.worker_kernel(api, r))
        if load_pollers:
            for core_id in range(config.num_cores - num_workers):
                machine.load(core_id, lambda api: endless_histogram_kernel(
                    histogram, api, method))
        runs.append((machine, machine.run_until_finished(worker_ids)))
    return runs


@pytest.mark.parametrize("num_bins", [1, 16])
@pytest.mark.parametrize("method,variant", [
    ("amo", VariantSpec.amo()),
    ("lrsc", VariantSpec.lrsc()),
    ("wait", VariantSpec.colibri()),
])
def test_flat_interference_matches_scalar_kernels(monkeypatch, method,
                                                  variant, num_bins):
    from repro.machine import Machine
    from repro.workloads import interference

    built = []

    class RecordingMachine(Machine):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(interference, "Machine", RecordingMachine)
    config = SystemConfig.scaled(16)
    num_workers, dim = 4, 6
    result, stats = interference.measure_interference(
        config, variant, method, num_workers, num_bins, matmul_dim=dim)
    scalar = _scalar_interference_runs(config, variant, method,
                                       num_workers, num_bins, dim)

    workers = range(config.num_cores - num_workers, config.num_cores)
    assert len(built) == 2
    for flat_machine, (scalar_machine, scalar_stats) in zip(built, scalar):
        assert ([flat_machine.cores[i].finish_cycle for i in workers]
                == [scalar_machine.cores[i].finish_cycle for i in workers])
        assert flat_machine.stats == scalar_stats
    assert result.baseline_cycles == max(
        scalar[0][0].cores[i].finish_cycle for i in workers)
    assert result.interfered_cycles == max(
        scalar[1][0].cores[i].finish_cycle for i in workers)
    assert stats == scalar[1][1]
    pollers = stats.cores[:config.num_cores - num_workers]
    assert sum(core.ops_completed for core in pollers) > 0
