"""The benchmark's workloads: inputs, one timed pass, output checks.

Every workload is a closed-loop batch job run in one process with
``jobs=1``: a pass submits its points one after another and each waits
for the previous one.  The simulated specs are the paper figures' own
(simulation seed 0 for Figs. 3-5, the grid's seed axis for the DSE
campaign), so every point of every run is checked bit-exactly against
``goldens.json``.  The workload seed draws what varies between runs:
the order in which points are submitted and, for ``dse_campaign``,
which half of the grid starts in the result cache.

A workload writes only under the ``workdir`` it is given.  Its life in
one benchmark run: ``setup()`` (repeatable, untimed), then per pass
``prepare()`` (untimed) and ``run_pass(between)``, whose raw result
``outputs()`` turns into golden records and ``unit_seconds()`` into
the host time of each separately timed unit (a point, or the whole
campaign).  ``run_pass`` calls ``between()`` between units (between
the campaign's batches) and keeps its time out of the units' time.
"""

from __future__ import annotations

import dataclasses
import json
import os
import random
import shutil
import statistics
import time
import traceback

from repro.arch.config import SystemConfig
from repro.dse import Campaign, SearchSpace, parse_objectives
from repro.dse.journal import load_journal
from repro.dse.samplers import GridSampler
from repro.eval import fig3, fig4, fig5
from repro.eval.harness import FIG3_SERIES, FIG4_SERIES, histogram_spec
from repro.eval.runner import ResultCache
from repro.memory.variants import VariantSpec
from repro.scenarios import run as scenarios_run
from repro.scenarios.run import apply_settings, default_spec
from repro.scenarios.workloads import interference_spec

GOLDENS = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "goldens.json")


def load_goldens(path: str = GOLDENS) -> dict:
    """Workload name -> point label -> recorded output."""
    with open(path) as stream:
        return json.load(stream)


def _plain(value):
    """``value`` as it reads back from JSON (tuples become lists...)."""
    return json.loads(json.dumps(value))


def _failure(exc: BaseException) -> str:
    return "".join(traceback.format_exception_only(type(exc), exc)).strip()


def _run_point(spec):
    """One spec through ``run_scenarios``; an exception is the result."""
    try:
        return scenarios_run.run_scenarios([spec])[0]
    except Exception as exc:  # a failing point is counted, not fatal
        return exc


def _timed_point(spec) -> tuple:
    """``(result, host seconds)`` of one point."""
    start = time.perf_counter()
    result = _run_point(spec)
    return result, time.perf_counter() - start


def _nothing() -> None:
    pass


def _point_record(result) -> dict:
    return _plain({"scalars": result.scalars(),
                   "point": dataclasses.asdict(result.point)})


class Workload:
    """Shared pass loop over a fixed list of ``(label, spec)`` points."""

    name = ""

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.workdir = workdir
        self.points: list = []

    def canonical_points(self) -> list:
        raise NotImplementedError

    def setup(self) -> dict:
        """Generate the inputs and run one untimed warm-up point."""
        points = self.canonical_points()
        label, spec = points[0]
        warm_up = {label: self._record(_run_point(spec))}
        random.Random(self.seed).shuffle(points)
        self.points = points
        return warm_up

    def prepare(self) -> None:
        """Untimed per-pass preparation."""

    def run_pass(self, between=_nothing):
        """Every point, timed; ``between()`` runs before each point and
        after the last, outside the points' time."""
        raw = []
        for label, spec in self.points:
            between()
            raw.append((label,) + _timed_point(spec))
        between()
        return raw

    def unit_seconds(self, raw) -> dict:
        """Host seconds of each separately timed unit of one pass."""
        return {label: seconds for label, _result, seconds in raw}

    def _record(self, result):
        if isinstance(result, Exception):
            return _failure(result)
        return _point_record(result)

    def outputs(self, raw) -> dict:
        """Label -> golden-comparable record, or an error string."""
        return {label: self._record(result) for label, result, _s in raw}

    def paper_rel_err(self, outputs: dict) -> float:
        raise NotImplementedError


def check(outputs: dict, goldens: dict) -> dict:
    """Label -> reason, for every point that is not exactly its golden."""
    bad = {}
    for label, record in outputs.items():
        if isinstance(record, str):
            bad[label] = record
        elif label not in goldens:
            bad[label] = "no recorded golden"
        elif record != goldens[label]:
            bad[label] = "differs from its golden"
    return bad


def _mean_rel_err(pairs) -> float:
    """Mean |measured - reference| / reference over the pairs."""
    errors = [abs(measured - ref) / ref for measured, ref in pairs]
    return statistics.fmean(errors) if errors else 0.0


class Fig34Histogram(Workload):
    """The 10 distinct histogram series of Figs. 3 and 4, 64 cores."""

    name = "fig34_histogram"
    CORES, BINS, UPDATES = 64, (1, 64), 8
    #: Our half-queue series is the paper's LRSCwait_128 at 256 cores.
    PAPER_LABEL = {"LRSCwait_half": "LRSCwait_128"}

    def canonical_points(self) -> list:
        labels = {s.label for s in FIG3_SERIES}
        series = FIG3_SERIES + [s for s in FIG4_SERIES
                                if s.label not in labels]
        return [(f"{s.label}/bins={bins}",
                 histogram_spec(s, self.CORES, bins, self.UPDATES))
                for s in series for bins in self.BINS]

    def paper_rel_err(self, outputs: dict) -> float:
        """Each series' 1-bin throughput ratio to LRSC vs the paper's."""
        reference = {**fig3.PAPER_REFERENCE, **fig4.PAPER_REFERENCE}
        throughput = {label.split("/")[0]: record["scalars"]["throughput"]
                      for label, record in outputs.items()
                      if label.endswith("/bins=1")
                      and not isinstance(record, str)}
        lrsc = throughput.get("LRSC")
        if not lrsc:
            return 0.0
        ref_lrsc = reference["LRSC"]["1"]
        return _mean_rel_err(
            (value / lrsc,
             reference[self.PAPER_LABEL.get(label, label)]["1"] / ref_lrsc)
            for label, value in throughput.items() if label != "LRSC")


class Fig5Interference(Workload):
    """Fig. 5 at the CI scale of ``repro reproduce``: 128 cores."""

    name = "fig5_interference"
    CORES, MATMUL_DIM, BINS = 128, 12, (1, 16)
    PAPER_CORES = 256

    def _rows(self) -> list:
        """``(method name, variant, poller method, workers)``, as
        ``run_fig5``: Colibri at the fewest workers, LR/SC at all."""
        workers = sorted({max(1, round(self.CORES * fraction))
                          for fraction in fig5.PAPER_WORKER_FRACTIONS},
                         reverse=True)
        rows = [("Colibri", VariantSpec.colibri(), "wait", workers[-1])]
        rows += [("LRSC", VariantSpec.lrsc(), "lrsc", count)
                 for count in workers]
        return rows

    def canonical_points(self) -> list:
        config = SystemConfig.scaled(self.CORES)
        return [(f"{name}, {self.CORES - count}:{count}/bins={bins}",
                 interference_spec(config, variant, method, count, bins,
                                   matmul_dim=self.MATMUL_DIM))
                for name, variant, method, count in self._rows()
                for bins in self.BINS]

    def paper_rel_err(self, outputs: dict) -> float:
        """1-bin relative throughput vs the paper, matched by the
        workers' share of the cores."""
        pairs = []
        for name, _variant, _method, count in self._rows():
            record = outputs.get(
                f"{name}, {self.CORES - count}:{count}/bins=1")
            if record is None or isinstance(record, str):
                continue
            paper_workers = count * self.PAPER_CORES // self.CORES
            paper = (f"{name}, {self.PAPER_CORES - paper_workers}:"
                     f"{paper_workers}")
            pairs.append((record["scalars"]["relative_throughput"],
                          fig5.PAPER_REFERENCE[paper]))
        return _mean_rel_err(pairs)


class _BetweenBatches(GridSampler):
    """The grid sampler, calling ``between()`` before it proposes each
    batch and recording how long each call took.  The journal header
    keeps only scalar sampler options, so it reads as the plain grid's."""

    def __init__(self, between) -> None:
        super().__init__()
        self._between = between
        self.spent: list = []

    def batches(self, space, budget, rng):
        grid = super().batches(space, budget, rng)
        scores = None
        while True:
            start = time.perf_counter()
            self._between()
            self.spent.append(time.perf_counter() - start)
            try:
                batch = grid.send(scores)
            except StopIteration:
                return
            scores = yield batch


class DseCampaign(Workload):
    """A 480-point grid campaign with half of its points pre-cached."""

    name = "dse_campaign"
    AXES = {"variant": ["lrsc", "colibri", "amo", "lrscwait:half"],
            "seed": list(range(8)),
            "bins": [1, 2, 4, 8, 16],
            "updates_per_core": [2, 4, 8]}
    CORES = 16
    #: Variant -> its Fig. 3 legend entry, for the 1-bin ratio to LR/SC.
    PAPER_LABEL = {"amo": "Atomic Add", "colibri": "Colibri",
                   "lrscwait:half": "LRSCwait_128"}

    def __init__(self, seed: int, workdir: str) -> None:
        super().__init__(seed, workdir)
        self.space = SearchSpace.from_axes(self.AXES)
        self.base = default_spec("histogram", num_cores=self.CORES)
        self.template = os.path.join(workdir, "template")
        self.pass_dir = os.path.join(workdir, "pass")
        self.warm: set = set()

    @staticmethod
    def label(combo: dict) -> str:
        return (f"{combo['variant']}/seed={combo['seed']}/"
                f"bins={combo['bins']}/updates={combo['updates_per_core']}")

    def canonical_points(self) -> list:
        return [(self.label(combo), apply_settings(self.base, combo))
                for combo in self.space.points()]

    def setup(self) -> dict:
        """Warm up on one point, then store a seeded half of the grid
        in a fresh result cache (the template every pass copies)."""
        points = self.canonical_points()
        label, spec = points[0]
        warm_up = {label: self._record(_run_point(spec))}
        half = random.Random(self.seed).sample(points, len(points) // 2)
        self.warm = {label for label, _spec in half}
        shutil.rmtree(self.template, ignore_errors=True)
        scenarios_run.run_scenarios([spec for _label, spec in half],
                                    cache=ResultCache(self.template),
                                    batch=True)
        return warm_up

    def _record(self, result):
        """The scalars a campaign journals for a point."""
        if isinstance(result, Exception):
            return _failure(result)
        return _plain({"scalars": result.scalars()})

    def prepare(self) -> None:
        shutil.rmtree(self.pass_dir, ignore_errors=True)
        shutil.copytree(self.template, self.pass_dir)

    def run_pass(self, between=_nothing):
        """The campaign, timed as one unit; ``between()`` runs before
        each batch the grid proposes, outside the campaign's time."""
        sampler = _BetweenBatches(between)
        start = time.perf_counter()
        result = self._campaign(sampler)
        return result, time.perf_counter() - start - sum(sampler.spent)

    def _campaign(self, sampler):
        try:
            campaign = Campaign(
                base=self.base, space=self.space, sampler=sampler,
                objectives=parse_objectives(["min:cycles"]),
                budget=self.space.grid_size(),
                cache=ResultCache(self.pass_dir),
                journal_file=os.path.join(self.pass_dir, "journal.json"),
                batch=True)
            return campaign.run()
        except Exception as exc:  # a failing campaign is counted
            return exc

    def unit_seconds(self, raw) -> dict:
        return {"campaign": raw[1]}

    def outputs(self, raw) -> dict:
        """Scalars of every evaluation; a point served from the wrong
        place, or a journal that does not load, is an error."""
        raw = raw[0]
        if isinstance(raw, Exception):
            return {label: _failure(raw)
                    for label, _spec in self.canonical_points()}
        try:
            load_journal(raw.journal_file)
            journal_error = None
        except Exception as exc:  # checked output, reported per point
            journal_error = _failure(exc)
        outputs = {}
        for evaluation in raw.evaluations:
            label = self.label(evaluation.overrides)
            if journal_error is not None:
                outputs[label] = journal_error
            elif evaluation.cached != (label in self.warm):
                outputs[label] = (f"cached={evaluation.cached}, expected "
                                  f"{label in self.warm}")
            else:
                outputs[label] = _plain({"scalars": evaluation.scalars})
        for label, _spec in self.canonical_points():
            outputs.setdefault(label, "not evaluated")
        return outputs

    def paper_rel_err(self, outputs: dict) -> float:
        """1-bin throughput ratio to LR/SC of every other variant, per
        (seed, updates), against the Fig. 3 reference ratio."""
        reference = fig3.PAPER_REFERENCE
        pairs = []
        for seed in self.AXES["seed"]:
            for updates in self.AXES["updates_per_core"]:
                def throughput(variant):
                    record = outputs[self.label({
                        "variant": variant, "seed": seed, "bins": 1,
                        "updates_per_core": updates})]
                    return (None if isinstance(record, str)
                            else record["scalars"]["throughput"])
                lrsc = throughput("lrsc")
                for variant, paper in self.PAPER_LABEL.items():
                    value = throughput(variant)
                    if lrsc and value is not None:
                        pairs.append((value / lrsc,
                                      reference[paper]["1"]
                                      / reference["LRSC"]["1"]))
        return _mean_rel_err(pairs)


WORKLOADS = {cls.name: cls
             for cls in (Fig34Histogram, Fig5Interference, DseCampaign)}
