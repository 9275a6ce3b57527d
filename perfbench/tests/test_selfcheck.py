"""Self-tests of the benchmark's layer accounting and golden check.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

import copy
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

import pytest  # noqa: E402

from perfbench import layers, reference, workloads  # noqa: E402
from perfbench.run import Tally  # noqa: E402
from repro.interconnect.network import Network  # noqa: E402

GOLDENS = workloads.load_goldens()["fig34_histogram"]


def _noop():
    pass


def _traced_pass(workload):
    tracer = layers.LayerTracer()
    workload.prepare()
    with tracer.installed():
        raw = tracer.run_root(workload.run_pass)
    return tracer, workload.outputs(raw)


@pytest.fixture(scope="module")
def histogram(tmp_path_factory):
    workload = workloads.Fig34Histogram(
        0, str(tmp_path_factory.mktemp("fig34")))
    workload.setup()
    return workload


@pytest.fixture(scope="module")
def baseline(histogram):
    return _traced_pass(histogram)


def test_traced_pass_closes_and_matches_goldens(baseline):
    tracer, outputs = baseline
    assert tracer.closes()
    assert tracer.missing == []
    assert workloads.check(outputs, GOLDENS) == {}
    metrics = tracer.metrics()
    assert metrics["interconnect.messages"] == tracer.sim["messages"]
    assert metrics["machine.until_calls"] == 0
    assert metrics["eval.cache_hits"] == metrics["dse.journal_writes"] == 0


def test_wrappers_are_removed_after_the_pass(baseline):
    from repro.machine import Machine
    assert Machine.run.__qualname__ == "Machine.run"
    assert Network.send_request.__qualname__ == "Network.send_request"


def test_counts_repeat_exactly(histogram, baseline):
    again, _outputs = _traced_pass(histogram)
    assert again.counts() == baseline[0].counts()


def test_extra_event_per_request_raises_events_per_update(
        histogram, baseline, monkeypatch):
    send_request = Network.send_request

    def send_request_and_noop(self, req, bank_id):
        send_request(self, req, bank_id)
        self.sim.schedule(0, _noop)

    monkeypatch.setattr(Network, "send_request", send_request_and_noop)
    tracer, outputs = _traced_pass(histogram)
    before, after = baseline[0].metrics(), tracer.metrics()
    requests = before["cores.requests"]
    assert requests > 0
    assert after["engine.events"] - before["engine.events"] == requests
    assert (after["engine.events_per_update"]
            - before["engine.events_per_update"]) == pytest.approx(
        requests / before["cores.updates"], rel=1e-9)
    # The no-op event changes no simulated output.
    assert workloads.check(outputs, GOLDENS) == {}


def test_perturbed_golden_makes_error_rate_positive(baseline):
    _tracer, outputs = baseline
    goldens = copy.deepcopy(GOLDENS)
    label = sorted(goldens)[0]
    goldens[label]["scalars"]["cycles"] += 1
    tally = Tally(goldens, workloads.check)
    tally.add(outputs)
    assert (tally.failed, tally.attempted) == (1, len(outputs))
    assert tally.reasons == {label: "differs from its golden"}


def test_between_runs_outside_the_points(histogram):
    calls = []
    raw = histogram.run_pass(lambda: calls.append(None))
    assert len(calls) == len(histogram.points) + 1
    assert workloads.check(histogram.outputs(raw), GOLDENS) == {}


def test_between_batches_leaves_the_campaign_as_the_plain_grid(tmp_path):
    campaign = workloads.DseCampaign(1, str(tmp_path))
    campaign.setup()
    campaign.prepare()
    calls = []
    raw = campaign.run_pass(lambda: calls.append(None))
    result, seconds = raw
    # One call before each of the grid's batches of 8, one after the last.
    assert len(calls) == campaign.space.grid_size() // 8 + 1
    assert result.journal["campaign"]["sampler"] == {
        "name": "grid", "options": {"batch_size": 8}}
    assert seconds > 0
    goldens = workloads.load_goldens()["dse_campaign"]
    assert workloads.check(campaign.outputs(raw), goldens) == {}


def test_reference_scale_is_seconds_per_kernel_call():
    gauge = reference.Gauge()
    gauge.samples = [0.02, 0.03]
    assert gauge.scale() == pytest.approx(
        reference.REFERENCE_S / 0.025)


def test_fails_without_the_program(tmp_path):
    """Outside a checkout (only BENCHMARK.json and perfbench/) the
    benchmark exits non-zero and prints no result."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {key: value for key, value in os.environ.items()
           if key != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dse_campaign",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
