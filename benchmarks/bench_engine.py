"""Microbenchmarks of the simulator substrate itself.

Not a paper experiment: these track the host-side cost of the
discrete-event kernel and a representative end-to-end simulation, so
regressions in simulator performance are caught alongside the paper
benches.  ``test_variant_registry_dispatch`` guards the PR-5 open
variant API: adapter construction and capability queries now go
through a registry lookup, which must stay within noise of the
``PR1-fast-path`` end-to-end baseline (the registry sits on the
machine-build path, never in the event loop).
"""

from repro import Machine, SystemConfig, VariantSpec
from repro.engine.simulator import Simulator
from repro.workloads.interference import measure_interference

from common import NOISE_FACTOR, baseline_median


def test_event_kernel_throughput(benchmark):
    """Schedule-and-run cost of 20k chained events."""

    def run():
        sim = Simulator()
        remaining = [20_000]

        def tick():
            remaining[0] -= 1
            if remaining[0]:
                sim.schedule(1, tick)

        sim.schedule(1, tick)
        sim.run()
        return sim.now

    cycles = benchmark(run)
    assert cycles == 20_000


def test_end_to_end_histogram_sim(benchmark):
    """A representative 16-core Colibri histogram, measured end to end."""

    def run():
        machine = Machine(SystemConfig.scaled(16), VariantSpec.colibri(),
                          seed=1)
        counter = machine.allocator.alloc_interleaved(1)

        def kernel(api):
            for _ in range(8):
                resp = yield from api.lrwait(counter)
                yield from api.compute(1)
                yield from api.scwait(counter, resp.value + 1)
                yield from api.retire()

        machine.load_all(kernel)
        stats = machine.run()
        return stats.total_ops

    ops = benchmark(run)
    assert ops == 16 * 8


def test_interference_point(benchmark):
    """One Fig. 5 point: 64 cores, 48 LR/SC pollers on 1 bin, 16 matmul
    workers (dim 12), baseline and interfered run.

    Watched mode with endless pollers: the run stops when the last
    worker finishes, and every poller retry is a message through the
    core, network and bank paths.
    """

    def run():
        result, stats = measure_interference(
            SystemConfig.scaled(64), VariantSpec.lrsc(), "lrsc",
            num_workers=16, num_bins=1, matmul_dim=12)
        return result.baseline_cycles, result.interfered_cycles, stats.cycles

    assert benchmark(run) == (3296, 4131, 4131)


def test_variant_registry_dispatch(benchmark):
    """Machine build + run with registry-dispatched adapters.

    Identical workload to ``test_end_to_end_histogram_sim`` — the
    adapter now comes from the variant registry instead of an if/elif
    chain, and this bench asserts (when timing) that the whole
    build-and-run stays within noise of the pre-registry baseline.
    """

    variants = [VariantSpec.colibri(), VariantSpec.lrscwait(8),
                VariantSpec.lrsc(), VariantSpec.amo()]

    def run():
        machine = Machine(SystemConfig.scaled(16), VariantSpec.colibri(),
                          seed=1)
        counter = machine.allocator.alloc_interleaved(1)

        def kernel(api):
            for _ in range(8):
                resp = yield from api.lrwait(counter)
                yield from api.compute(1)
                yield from api.scwait(counter, resp.value + 1)
                yield from api.retire()

        machine.load_all(kernel)
        stats = machine.run()
        # Registry-built machines for the other kinds: construction is
        # where the dispatch changed, so it belongs in the measurement.
        for variant in variants:
            Machine(SystemConfig.scaled(16), variant, seed=1)
        return stats.total_ops

    ops = benchmark(run)
    assert ops == 16 * 8
    if not benchmark.enabled:
        return  # --benchmark-disable: correctness-only execution
    median = benchmark.stats.stats.median
    baseline = baseline_median("test_end_to_end_histogram_sim")
    benchmark.extra_info["pr1_fast_path_median_s"] = baseline
    # 4 extra machine constructions ride along; allow them one extra
    # noise factor on top of the end-to-end budget.
    budget = baseline * NOISE_FACTOR + 4 * baseline * 0.25
    assert median <= budget, (
        f"registry-dispatch build+run median {median:.6f}s exceeds "
        f"{budget:.6f}s — variant-registry dispatch regressed the "
        f"machine-build/fast path")
