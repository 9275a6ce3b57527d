"""Design-space exploration benchmarks.

A campaign is a scheduling layer over the scenario runner: space
enumeration, spec building/validation, journal bookkeeping, objective
extraction, Pareto accounting.  The contract pinned down here is that
this layer stays negligible next to the simulations it schedules —
**campaign scheduling overhead under 5% of raw evaluation time** for a
grid campaign whose points each run a real (tiny) simulation.

The raw baseline is measured in-process with ``time.perf_counter``
(best of several runs of the identical spec list through
``run_scenarios``), the campaign with pytest-benchmark; the assertion
only fires when the benchmark actually timed (``--benchmark-disable``
CI runs still execute everything once for the correctness checks — see
``benchmarks/common.py`` on why CI never compares timings).  Medians
land in ``BENCH_engine.json`` under the ``PR4-dse-campaign`` label.

The ``dse.journal`` layer has its own case: checkpointing a
2,000-record journal in 8-record batches, the way a campaign rewrites
``journal.json`` after every batch.  Each record must be encoded once,
not once per checkpoint; its before/after medians are the
``dse-journal-memo`` entry of ``BENCH_engine.json``.
"""

import json
import time

from repro.dse import Campaign, SearchSpace, parse_objectives, write_journal
from repro.dse.journal import new_journal
from repro.scenarios import default_spec
from repro.scenarios.run import run_scenarios

from common import report

#: Same-machine allowance for the scheduling-overhead assertion.
MAX_OVERHEAD = 0.05

SPACE = SearchSpace.from_axes({"bins": [1, 2, 4, 8],
                               "variant": ["lrsc", "colibri"]})

#: Journal checkpoint case: records in the journal, records per batch.
JOURNAL_RECORDS = 2000
JOURNAL_BATCH = 8


def _base():
    return default_spec("histogram", num_cores=16).with_params(
        updates_per_core=4)


def _campaign():
    return Campaign(base=_base(), space=SPACE, sampler="grid",
                    objectives=parse_objectives(["min:cycles"]),
                    budget=SPACE.grid_size())


def _raw_seconds(rounds: int = 3) -> float:
    """Best-of-N wall time of the same points without the engine."""
    campaign = _campaign()
    specs = [campaign._spec_for(combo, "full")
             for combo in SPACE.points()]
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        run_scenarios(specs, jobs=1)
        best = min(best, time.perf_counter() - start)
    return best


def test_campaign_scheduling_overhead_under_5_percent(benchmark):
    """Campaign run == raw evaluations + a sliver of scheduling."""

    def run():
        return _campaign().run()

    result = benchmark(run)
    assert result.status == "complete"
    assert result.paid == SPACE.grid_size()
    assert len(result.evaluations) == SPACE.grid_size()
    assert result.best() is not None
    if not benchmark.enabled:
        return  # --benchmark-disable: correctness-only execution
    raw = _raw_seconds()
    campaign_median = benchmark.stats.stats.median
    overhead = campaign_median / raw - 1.0
    report(benchmark, f"campaign {campaign_median:.6f}s vs raw "
                      f"{raw:.6f}s -> overhead {overhead:+.2%}",
           raw_eval_s=raw, overhead_fraction=overhead)
    assert overhead <= MAX_OVERHEAD, (
        f"campaign scheduling overhead {overhead:.2%} exceeds "
        f"{MAX_OVERHEAD:.0%} of raw evaluation time "
        f"({campaign_median:.6f}s vs {raw:.6f}s)")


def test_halving_campaign_executes(benchmark):
    """The adaptive path (smoke rungs, promotion) stays healthy."""

    def run():
        return Campaign(base=_base(), space=SPACE, sampler="halving",
                        objectives=parse_objectives(["min:cycles"]),
                        budget=SPACE.grid_size() * 2).run()

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert result.status == "complete"
    assert any(e.fidelity == "smoke" for e in result.evaluations)
    assert all(e.fidelity == "full" for e in result.ranking())
    if benchmark.enabled:
        report(benchmark, "halving campaign over "
                          f"{SPACE.grid_size()} points",
               paid=result.paid, evaluations=len(result.evaluations))


def _journal_records(count: int):
    """A campaign header and ``count`` distinct evaluation records
    shaped like the ones a 16-core histogram campaign journals."""
    result = Campaign(base=_base(),
                      space=SearchSpace.from_axes({"bins": [1]}),
                      sampler="grid",
                      objectives=parse_objectives(["min:cycles"]),
                      budget=1).run()
    template = result.journal["evaluations"][0]
    return result.journal["campaign"], [
        dict(template, index=index, batch=index // JOURNAL_BATCH)
        for index in range(count)]


def test_journal_checkpoints_2000_records(benchmark, tmp_path):
    """``dse.journal``: 250 checkpoints of a journal growing to 2,000
    records, written after every 8-record batch."""
    header, records = _journal_records(JOURNAL_RECORDS)
    path = str(tmp_path / "journal.json")

    def checkpoint_all():
        document = new_journal(header)
        for start in range(0, len(records), JOURNAL_BATCH):
            document["evaluations"].extend(
                records[start:start + JOURNAL_BATCH])
            write_journal(path, document)
        return document

    document = benchmark.pedantic(checkpoint_all, rounds=5, iterations=1)
    with open(path, "rb") as stream:
        assert stream.read() == (json.dumps(
            document, indent=2, sort_keys=True) + "\n").encode("ascii")
    if benchmark.enabled:
        report(benchmark, f"{JOURNAL_RECORDS}-record journal in "
                          f"{JOURNAL_BATCH}-record batches: median "
                          f"{benchmark.stats.stats.median:.3f}s",
               records=JOURNAL_RECORDS,
               writes=JOURNAL_RECORDS // JOURNAL_BATCH)
