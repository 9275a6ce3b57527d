"""Design-space exploration benchmarks.

A campaign is a scheduling layer over the scenario runner: space
enumeration, spec building/validation, journal bookkeeping, objective
extraction, Pareto accounting.  The contract pinned down here is that
this layer stays negligible next to the simulations it schedules —
**campaign scheduling overhead under 5% of raw evaluation time** for a
grid campaign whose points each run a real (tiny) simulation.

The assertion compares like with like: the campaign and the raw
baseline (the identical spec list through ``run_scenarios``) are timed
in interleaved pairs, and the overhead is the median of the pairs'
ratios, so both sides of every ratio see the same host state (see
:func:`_paired_overhead`).  It only fires when the benchmark actually
timed (``--benchmark-disable`` CI runs still execute everything once
for the correctness checks — see ``benchmarks/common.py`` on why CI
never compares timings).  The pytest-benchmark medians of the campaign
land in ``BENCH_engine.json`` under the ``PR4-dse-campaign`` label.

The ``dse.journal`` layer has its own case: checkpointing a
2,000-record journal in 8-record batches, the way a campaign rewrites
``journal.json`` after every batch.  Each record must be encoded once,
not once per checkpoint; its before/after medians are the
``dse-journal-memo`` entry of ``BENCH_engine.json``.
"""

import gc
import json
import statistics
import time

from repro.dse import Campaign, SearchSpace, parse_objectives, write_journal
from repro.dse.journal import new_journal
from repro.scenarios import default_spec
from repro.scenarios.run import run_scenarios

from common import report

#: Same-machine allowance for the scheduling-overhead assertion.
MAX_OVERHEAD = 0.05
#: Interleaved campaign/raw pairs behind the overhead assertion.
OVERHEAD_ROUNDS = 20

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


def _paired_overhead(rounds: int = OVERHEAD_ROUNDS) -> tuple:
    """``(overhead, campaign_s, raw_s)`` from interleaved pairs.

    Each round times one raw pass over the campaign's points and one
    whole campaign run back to back, in alternating order, each from a
    freshly collected heap, so neither side always goes first or
    inherits the other's garbage.  The overhead is the median over the
    rounds of ``campaign / raw - 1``: the two runs of a pair see the
    same host state, and the median drops the pairs a burst of host
    load hit on one side only.  Both sides read the process CPU clock;
    the work is single-process (``jobs=1``), and CPU time leaves out
    the spells a shared host spends running other processes.  The
    returned times are the two sides' medians.
    """
    campaign = _campaign()
    specs = [campaign._spec_for(combo, "full")
             for combo in SPACE.points()]

    def raw():
        run_scenarios(specs, jobs=1)

    def whole():
        _campaign().run()

    times = {raw: [], whole: []}
    for index in range(rounds):
        for side in ((raw, whole) if index % 2 == 0 else (whole, raw)):
            gc.collect()
            start = time.process_time()
            side()
            times[side].append(time.process_time() - start)
    overhead = statistics.median(
        campaign_s / raw_s - 1.0
        for campaign_s, raw_s in zip(times[whole], times[raw]))
    return (overhead, statistics.median(times[whole]),
            statistics.median(times[raw]))


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
    overhead, campaign_s, raw = _paired_overhead()
    report(benchmark, f"campaign {campaign_s:.6f}s vs raw {raw:.6f}s "
                      f"(medians of {OVERHEAD_ROUNDS} interleaved pairs) "
                      f"-> overhead {overhead:+.2%}",
           raw_eval_s=raw, campaign_s=campaign_s,
           overhead_fraction=overhead)
    assert overhead <= MAX_OVERHEAD, (
        f"campaign scheduling overhead {overhead:.2%} exceeds "
        f"{MAX_OVERHEAD:.0%} of raw evaluation time (median of "
        f"{OVERHEAD_ROUNDS} interleaved pairs; campaign {campaign_s:.6f}s "
        f"vs raw {raw:.6f}s)")


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
