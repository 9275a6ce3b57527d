"""Journal checkpoints: byte-identical files, each record encoded once.

``write_journal`` builds the file from per-record encodings it keeps
for the campaign's lifetime instead of re-encoding the whole document
on every batch.  These tests pin the two halves of that contract:

* every write is byte-for-byte the reference encoding
  ``json.dumps(document, indent=2, sort_keys=True) + "\\n"`` of the same
  document, across every campaign path that writes a journal;
* each evaluation record is encoded exactly once per campaign — a
  regression to re-encoding on every checkpoint fails as an exact
  count, not as a timing.
"""

import json

import pytest

import repro.dse.campaign as campaign_module
import repro.dse.journal as journal_module
from repro.dse import (
    Campaign,
    SearchSpace,
    journal_path,
    load_journal,
    parse_objectives,
)
from repro.dse.objectives import Objective
from repro.engine.errors import ConfigError
from repro.eval.runner import ResultCache
from repro.scenarios import default_spec

SPACE = SearchSpace.from_axes({"bins": [1, 2, 4, 8],
                               "variant": ["lrsc", "colibri"]})


def make_campaign(sampler="grid", budget=20, **kwargs):
    options = {} if sampler == "halving" else {"batch_size": 2}
    return Campaign(
        base=default_spec("histogram", num_cores=8).with_params(
            updates_per_core=2),
        space=SPACE, sampler=sampler, sampler_options=options,
        objectives=parse_objectives(["min:cycles", "min:energy"]),
        budget=budget, **kwargs)


def reference(document) -> bytes:
    """The journal encoding every write must reproduce byte for byte."""
    return (json.dumps(document, indent=2, sort_keys=True)
            + "\n").encode("ascii")


@pytest.fixture
def writes(monkeypatch):
    """Wrap ``write_journal``; check each file against the reference.

    Collects the record count of every write, so tests can also assert
    when writes happened (or were held back).
    """
    counts = []
    original = campaign_module.write_journal

    def checked(path, document):
        result = original(path, document)
        with open(path, "rb") as stream:
            assert stream.read() == reference(document)
        counts.append(len(document["evaluations"]))
        return result

    monkeypatch.setattr(campaign_module, "write_journal", checked)
    return counts


@pytest.fixture
def encodings(monkeypatch):
    """Count evaluation-record encodings (one entry per encoded record)."""
    encoded = []
    original = journal_module._encode_record

    def counting(record):
        encoded.append(record["index"])
        return original(record)

    monkeypatch.setattr(journal_module, "_encode_record", counting)
    return encoded


# -- byte identity ------------------------------------------------------------


def test_grid_campaign_writes_are_byte_identical(tmp_path, writes):
    result = make_campaign(journal_file=journal_path(str(tmp_path))).run()
    assert result.status == "complete"
    # Four 2-point batches, then the finalize write.
    assert writes == [2, 4, 6, 8, 8]


def test_halving_campaign_writes_are_byte_identical(tmp_path, writes):
    result = make_campaign(sampler="halving", budget=30,
                           journal_file=journal_path(str(tmp_path))).run()
    fidelities = {e.fidelity for e in result.evaluations}
    assert fidelities == {"smoke", "full"}
    assert len({e.rung for e in result.evaluations}) > 1
    assert len(writes) > 2
    assert writes[-1] == len(result.evaluations)


def test_budget_truncated_campaign_writes_are_byte_identical(tmp_path,
                                                             writes):
    journal_file = journal_path(str(tmp_path))
    result = make_campaign(budget=3, journal_file=journal_file).run()
    assert result.status == "budget"
    assert writes == [2, 3, 3]
    assert load_journal(journal_file)["status"] == "budget"


def test_resume_writes_are_byte_identical_and_never_shrink(tmp_path,
                                                           writes):
    journal_file = journal_path(str(tmp_path))
    make_campaign(budget=5, journal_file=journal_file).run()
    assert writes[-1] == 5
    partial = load_journal(journal_file)

    # A resume under a smaller budget stops mid-replay: the guard holds
    # back every write, and the richer journal stays on disk untouched.
    writes.clear()
    with open(journal_file, "rb") as stream:
        before = stream.read()
    smaller = make_campaign(budget=2, journal_file=journal_file,
                            resume=partial).run()
    assert smaller.status == "budget"
    assert writes == []
    with open(journal_file, "rb") as stream:
        assert stream.read() == before

    # A larger budget replays the five records, then continues; writes
    # resume only once the replay has caught up with the journal.
    resumed = make_campaign(budget=20, journal_file=journal_file,
                            resume=partial).run()
    assert resumed.status == "complete"
    assert writes == [6, 8, 8]
    assert resumed.journal["evaluations"][:5] == partial["evaluations"]


def test_exception_flush_write_is_byte_identical(tmp_path, writes,
                                                 monkeypatch):
    # Objective extraction fails on the fourth point, in the second
    # batch, after that batch's first record has already landed.
    original = Objective.value
    calls = []

    def failing(self, scalars, telemetry=None):
        calls.append(self.metric)
        if len(calls) > 3 * 2:  # two objectives per point
            raise ConfigError("objective extraction failed")
        return original(self, scalars, telemetry)

    monkeypatch.setattr(Objective, "value", failing)
    journal_file = journal_path(str(tmp_path))
    with pytest.raises(ConfigError, match="extraction failed"):
        make_campaign(journal_file=journal_file).run()
    assert writes == [2, 3]
    assert load_journal(journal_file)["status"] == "partial"


# -- linear work --------------------------------------------------------------


def test_each_record_is_encoded_exactly_once(tmp_path, writes, encodings):
    result = make_campaign(journal_file=journal_path(str(tmp_path))).run()
    points = len(result.evaluations)
    assert points == SPACE.grid_size() == 8
    assert len(writes) == 5
    # Re-encoding every record on every write would take
    # 2 + 4 + 6 + 8 + 8 = 28 encodings.
    assert sorted(encodings) == list(range(points))


def test_resumed_records_are_encoded_once(tmp_path, writes, encodings):
    journal_file = journal_path(str(tmp_path))
    make_campaign(budget=5, journal_file=journal_file).run()
    encodings.clear()
    make_campaign(budget=20, journal_file=journal_file,
                  resume=load_journal(journal_file)).run()
    assert sorted(encodings) == list(range(SPACE.grid_size()))


def test_sequential_campaigns_share_no_memo(tmp_path, writes, encodings):
    # Warm a cache so the two measured campaigns produce identical
    # records (all cache hits, wall_ms 0.0): a memo shared across
    # campaigns would then serve the second one without encoding.
    cache = ResultCache(str(tmp_path / "cache"))
    make_campaign(cache=cache).run()
    results = []
    for name in ("first", "second"):
        encodings.clear()
        journal_file = journal_path(str(tmp_path / name))
        results.append(make_campaign(cache=cache,
                                     journal_file=journal_file).run())
        assert sorted(encodings) == list(range(SPACE.grid_size()))
        # The campaign's finished document no longer carries a memo.
        assert type(results[-1].journal["evaluations"]) is list
    first, second = (load_journal(journal_path(str(tmp_path / name)))
                     for name in ("first", "second"))
    assert first == second
    assert all(record["cache_hit"] for record in first["evaluations"])
