"""Batched execution: goldens, reset hygiene, cache, CLI plumbing."""

import dataclasses
import random

import pytest

from repro.algorithms.histogram import Histogram
from repro.algorithms.matmul import Matmul
from repro.cli import main
from repro.engine.batch import BatchRunner
from repro.engine.errors import ConfigError, SimulationError
from repro.eval.runner import ResultCache
from repro.scenarios import default_spec, run_scenario, run_scenarios
from repro.scenarios.batch import execute_batch, machine_key
from repro.scenarios.registry import get_workload, list_workloads
from repro.scenarios.run import (
    apply_settings,
    build_machine,
    scenario_cache_key,
    execute,
    sweep,
)
from repro.workloads.interference import endless_histogram_kernel
from repro.workloads.streams import zipf_stream


def smoke_spec(workload: str, **params):
    workload_cls = get_workload(workload)
    spec = apply_settings(default_spec(workload),
                          dict(workload_cls.smoke))
    if params:
        spec = spec.with_params(**params)
    spec.validate()
    return spec


# -- batch == sequential goldens -----------------------------------------------


def test_batch_equals_sequential_across_all_workloads():
    specs = [smoke_spec(name) for name, _cls in list_workloads()]
    sequential = run_scenarios(specs)
    batched = run_scenarios(specs, batch=True)
    assert batched == sequential


def test_batch_equals_sequential_across_methods_and_variants():
    specs = []
    for method, variant in [("amo", "lrsc"), ("lrsc", "lrsc"),
                            ("lrsc", "lrsc_table"),
                            ("wait", "lrscwait:2"), ("wait", "colibri"),
                            ("wait", "ticket")]:
        specs.append(dataclasses.replace(
            smoke_spec("histogram", method=method), variant=variant))
    assert run_scenarios(specs, batch=True) == run_scenarios(specs)


def test_batch_results_align_with_input_order():
    specs = [smoke_spec("histogram", bins=bins) for bins in (1, 2, 4)]
    results = execute_batch(specs)
    assert [r.spec for r in results] == specs


def test_batch_handles_composite_workloads():
    spec = smoke_spec("interference")
    assert run_scenarios([spec], batch=True) == run_scenarios([spec])


# -- machine reuse and reset hygiene -------------------------------------------


def test_batch_actually_shares_machines():
    # 3 points, one shape/variant/seed: one build, two resets.
    specs = [smoke_spec("histogram", bins=bins) for bins in (1, 2, 4)]
    assert len({machine_key(spec) for spec in specs}) == 1
    runner = BatchRunner()
    for spec in specs:
        runner.acquire(machine_key(spec),
                       lambda s=spec: build_machine(s))
    assert runner.builds == 1
    assert runner.resets == 2
    assert runner.pooled == 1


def test_reset_leaves_no_state_behind_a_b_a():
    # A-B-A through one warm machine: the third result must equal the
    # first bit-for-bit, or the reset leaked state from B.
    spec_a = smoke_spec("histogram", bins=2)
    spec_b = smoke_spec("histogram", bins=8, updates_per_core=4)
    first, _middle, third = execute_batch([spec_a, spec_b, spec_a])
    assert third == first


def test_batch_stats_are_detached_copies():
    spec = smoke_spec("histogram")
    results = execute_batch([spec, spec])
    assert results[0].stats == results[1].stats
    assert results[0].stats is not results[1].stats


def test_machine_reset_restores_fresh_behavior():
    spec = smoke_spec("histogram", method="wait")
    reference = run_scenario(spec)
    machine = build_machine(spec)
    execute(get_workload(spec.workload), spec, machine=machine)
    machine.reset()
    warm = execute(get_workload(spec.workload), spec, machine=machine)
    assert warm.cycles == reference.cycles
    assert warm.stats == reference.stats


def test_machine_reset_after_stopped_run_restores_fresh_behavior():
    # The run_until_finished point: endless pollers leave events queued
    # when the watched workers stop the run.  Neither those events nor
    # a stop request may reach the warm machine's next point.
    def interfered(machine):
        matmul = Matmul(machine, 4)
        matmul.fill_inputs()
        histogram = Histogram(machine, 2)
        workers = [6, 7]
        for worker, rows in zip(workers, matmul.partition_rows(2)):
            machine.load(worker,
                         lambda api, r=rows: matmul.worker_kernel(api, r))
        machine.load_range(range(6), lambda api:
                           endless_histogram_kernel(histogram, api, "lrsc"))
        stats = machine.run_until_finished(workers)
        return (machine.sim.now, machine.sim.pending_events,
                stats.snapshot())

    spec = dataclasses.replace(smoke_spec("histogram", method="lrsc"),
                               variant="lrsc")
    reference = interfered(build_machine(spec))
    assert reference[1] > 0  # a stopped run, not a drained one
    machine = build_machine(spec)
    interfered(machine)
    machine.sim.stop()  # even a stray stop request is dropped by reset
    machine.reset()
    assert interfered(machine) == reference
    machine.reset()
    execute(get_workload(spec.workload), spec, machine=machine)
    machine.reset()
    assert interfered(machine) == reference


def test_machine_reset_refuses_probes():
    spec = smoke_spec("histogram")
    machine = build_machine(spec)
    machine.attach_probes(["bank_contention"])
    with pytest.raises(SimulationError, match="probes"):
        machine.reset()


def test_batch_runner_rebuilds_non_resettable_machines():
    class Unresettable:
        resettable = False

        def __init__(self):
            self.reset_called = False

        def reset(self):
            self.reset_called = True

    runner = BatchRunner()
    first = runner.acquire("key", Unresettable)
    second = runner.acquire("key", Unresettable)
    assert second is not first
    assert not first.reset_called
    assert runner.builds == 2
    assert runner.resets == 0


# -- vectorized drivers == scalar kernels --------------------------------------


@pytest.mark.parametrize("method,variant",
                         [("amo", "colibri"), ("lrsc", "lrsc"),
                          ("wait", "lrscwait:2"), ("wait", "colibri")])
def test_flat_histogram_driver_matches_scalar(method, variant):
    spec = dataclasses.replace(smoke_spec("histogram", method=method),
                               variant=variant)
    flat = run_scenario(spec)            # workload path = flat driver
    machine = build_machine(spec)
    params = get_workload("histogram").resolve_params(spec)
    histogram = Histogram(machine, params["bins"])
    machine.load_all(histogram.kernel_factory(
        method, params["updates_per_core"]))
    scalar_stats = machine.run()
    assert scalar_stats == flat.stats


@pytest.mark.parametrize("method", ["amo", "lrsc", "wait"])
def test_flat_zipf_driver_matches_scalar(method):
    variant = "lrsc" if method == "lrsc" else "colibri"
    spec = dataclasses.replace(smoke_spec("histogram_zipf", method=method),
                               variant=variant)
    flat = run_scenario(spec)
    machine = build_machine(spec)
    params = get_workload("histogram_zipf").resolve_params(spec)
    histogram = Histogram(machine, params["bins"])
    streams = [
        list(zipf_stream(random.Random(spec.seed * 1_000_003 + core),
                         params["bins"], params["updates_per_core"],
                         exponent=params["exponent"]))
        for core in range(machine.config.num_cores)
    ]
    from repro.sync.rmw import fetch_add

    def kernel(api):
        for index in streams[api.core_id]:
            yield from fetch_add(api, histogram.bin_addr(index), 1,
                                 method)
            yield from api.retire()

    machine.load_all(kernel)
    assert machine.run() == flat.stats


def test_flat_matmul_driver_matches_scalar():
    spec = smoke_spec("matmul")
    flat = run_scenario(spec)
    machine = build_machine(spec)
    params = get_workload("matmul").resolve_params(spec)
    workers = machine.config.num_cores
    matmul = Matmul(machine, params["dim"])
    matmul.fill_inputs()
    for worker, rows in enumerate(matmul.partition_rows(workers)):
        machine.load(worker,
                     lambda api, r=rows: matmul.worker_kernel(api, r))
    scalar_stats = machine.run_until_finished(list(range(workers)))
    matmul.verify()
    assert scalar_stats == flat.stats


def test_flat_factories_reject_lock_method():
    spec = smoke_spec("histogram")
    machine = build_machine(spec)
    histogram = Histogram(machine, 2)
    with pytest.raises(ValueError, match="lock"):
        histogram.flat_kernel_factory("lock", 2)
    with pytest.raises(ValueError, match="lock"):
        histogram.flat_stream_factory([[0]], "lock")


# -- cache interaction ---------------------------------------------------------


def test_batch_populates_and_hits_result_cache(tmp_path):
    cache = ResultCache(str(tmp_path))
    specs = [smoke_spec("histogram", bins=bins) for bins in (2, 4)]
    first = run_scenarios(specs, cache=cache, batch=True)
    for spec in specs:
        assert cache.lookup_hash(scenario_cache_key(spec), None) \
            is not None
    assert cache.stores == len(specs)
    hits_before = cache.hits
    second = run_scenarios(specs, cache=cache, batch=True)
    assert cache.hits == hits_before + len(specs)
    # Cache entries drop the bulky stats tree (as on the sequential
    # path); everything else round-trips bit-identically.
    assert second == [dataclasses.replace(result, stats=None)
                      for result in first]


def test_batch_rejects_parallel_jobs():
    with pytest.raises(ConfigError, match="incompatible with jobs"):
        run_scenarios([smoke_spec("histogram")], jobs=2, batch=True)


# -- sweep / CLI plumbing ------------------------------------------------------


def test_sweep_batch_equals_sequential():
    base = smoke_spec("histogram")
    axes = {"bins": [2, 4], "method": ["amo", "wait"]}
    assert sweep(base, axes, batch=True) == sweep(base, axes)


def run_cli(capsys, argv, expect_code=0):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == expect_code, captured.out + captured.err
    return captured.out + captured.err


def test_cli_sweep_batch_matches_non_batch(capsys):
    argv = ["sweep", "histogram", "--axis", "bins=2,4",
            "--set", "updates_per_core=2", "--cores", "8"]
    plain = run_cli(capsys, argv)
    batched = run_cli(capsys, argv + ["--batch"])
    assert batched == plain


def test_cli_sweep_batch_with_jobs_exits_2(capsys):
    out = run_cli(capsys, ["sweep", "histogram", "--axis", "bins=2,4",
                           "--batch", "--jobs", "2"], expect_code=2)
    assert "incompatible" in out


def test_cli_explore_batch_journal_identical(capsys, tmp_path):
    argv = ["explore", "histogram", "--smoke",
            "--axis", "bins=2,4", "--axis", "method=amo,wait",
            "--objective", "min:cycles", "--budget", "8"]
    from repro.dse import load_journal
    run_cli(capsys, argv + ["--out", str(tmp_path / "plain")])
    run_cli(capsys, argv + ["--batch", "--out", str(tmp_path / "batch")])
    plain = load_journal(str(tmp_path / "plain" / "journal.json"))
    batch = load_journal(str(tmp_path / "batch" / "journal.json"))
    # wall_ms is real measured time, the one field allowed to differ.
    for journal in (plain, batch):
        for record in journal["evaluations"]:
            assert record.pop("wall_ms") > 0
    assert batch == plain


def test_cli_explore_batch_with_jobs_exits_2(capsys):
    out = run_cli(capsys, ["explore", "histogram", "--smoke",
                           "--axis", "bins=2,4", "--budget", "4",
                           "--batch", "--jobs", "2"], expect_code=2)
    assert "incompatible" in out
