"""The campaign journal: durable, resumable search state.

One JSON document per campaign (``journal.json`` in the campaign
directory) recording the campaign's full identity — base spec, search
space, sampler, objectives, budget, seed — plus one record per
evaluation in execution order.  The journal is rewritten atomically
after every batch, so a killed campaign loses at most the batch in
flight; ``repro explore --resume DIR`` replays the records instead of
re-simulating them (see :mod:`repro.dse.campaign`).

A checkpoint encodes only the records that are new since the previous
one: a live document's ``evaluations`` is a :class:`JournalRecords`
list that remembers its records' encoded text, and
:func:`write_journal` assembles the file around that text.  The file
format is unchanged — every write is byte-identical to
``json.dumps(document, indent=2, sort_keys=True) + "\n"``.  Encoding
work thus grows linearly with campaign size instead of quadratically;
each checkpoint still writes the whole file.

Layout is validated by :mod:`repro.dse.schema`; ``repro frontier``
renders rankings and Pareto frontiers from the journal alone.
"""

from __future__ import annotations

import json
import os

from ..engine.errors import ConfigError
from .schema import SchemaError, validate_journal

#: Bump when the journal layout changes incompatibly.  Version 2 added
#: per-evaluation ``wall_ms``/``cache_hit`` time attribution; version-1
#: journals carry neither but stay valid and resumable (the fields
#: default on replay), hence :data:`COMPATIBLE_VERSIONS`.
JOURNAL_VERSION = 2

#: Journal versions this code can validate and resume.
COMPATIBLE_VERSIONS = (1, 2)

#: File name inside a campaign directory.
JOURNAL_NAME = "journal.json"


def journal_path(directory: str) -> str:
    """The journal file of a campaign directory."""
    return os.path.join(directory, JOURNAL_NAME)


def _encode(value, depth: int = 1) -> bytes:
    """``value`` as the journal file holds it, ``depth`` levels deep.

    ``ensure_ascii`` (json's default) makes the text pure ASCII, and
    re-indenting by newline replacement is exact because JSON text
    holds no raw newline outside its structure (strings escape them).
    """
    text = json.dumps(value, indent=2, sort_keys=True)
    return text.replace("\n", "\n" + "  " * depth).encode("ascii")


def _encode_record(record: dict) -> bytes:
    """One evaluation record, two levels deep (inside ``evaluations``)."""
    return _encode(record, depth=2)


class JournalRecords(list):
    """The ``evaluations`` list of a live journal document.

    A list of record dicts like any other — JSON, the schema and every
    reader see nothing else — that also keeps the records' encoded
    text, so :func:`write_journal` encodes a record once per campaign
    rather than once per checkpoint.  The memo lives and dies with the
    document that holds the list.

    Invariant that makes the memo correct: a journaled record (and the
    :class:`~repro.dse.campaign.Evaluation` it was built from) is never
    mutated, reordered or removed after it is first written.  Append
    new records; never edit old ones.
    """

    __slots__ = ("_encoded", "_count")

    def __init__(self, records=()) -> None:
        super().__init__(records)
        #: The first ``_count`` records' file text, separators included;
        #: a bytearray so appending stays amortized O(new records).
        self._encoded = bytearray()
        self._count = 0

    def encoded(self) -> bytearray:
        """All records' file text, encoding only the unseen ones."""
        blob = self._encoded
        for record in self[self._count:]:
            if blob:
                blob += b",\n    "
            blob += _encode_record(record)
        self._count = len(self)
        return blob


def _journal_chunks(document: dict) -> list:
    """The journal file of ``document``, as byte chunks.

    Together byte-identical to ``json.dumps(document, indent=2,
    sort_keys=True) + "\n"``, built member by member: the header and
    the mutable fields (``paid``, ``status``, ``best``, ``frontier``)
    are encoded afresh, the evaluation records come from their
    :class:`JournalRecords` memo when the document has one.
    """
    chunks = []
    for key in sorted(document):
        value = document[key]
        chunks += [b",\n  " if chunks else b"{\n  ", _encode(key), b": "]
        if key == "evaluations" and value:
            if not isinstance(value, JournalRecords):
                value = JournalRecords(value)
            chunks += [b"[\n    ", value.encoded(), b"\n  ]"]
        else:
            chunks.append(_encode(value))
    chunks.append(b"\n}\n" if chunks else b"{}\n")
    return chunks


def write_journal(path: str, document: dict) -> str:
    """Atomically write ``document``; returns the path.

    Atomic replace means a kill mid-write leaves the previous journal
    intact — resume never sees a torn file.
    """
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    chunks = _journal_chunks(document)
    tmp = path + ".tmp"
    with open(tmp, "wb") as stream:
        stream.writelines(chunks)
    os.replace(tmp, path)
    return path


def load_journal(path: str) -> dict:
    """Read and schema-validate a journal file."""
    try:
        with open(path) as stream:
            data = json.load(stream)
    except OSError as exc:
        raise ConfigError(f"cannot read journal {path!r}: {exc}")
    except ValueError as exc:
        raise ConfigError(f"journal {path!r} is not valid JSON: {exc}")
    try:
        validate_journal(data)
    except SchemaError as exc:
        raise ConfigError(f"journal {path!r} is malformed: {exc}")
    return data


def load_journal_tolerant(path: str):
    """Best-effort journal read for monitoring: ``(data, warnings)``.

    ``repro status`` must render something useful from whatever a
    killed campaign left behind, so unlike :func:`load_journal` this
    salvages a truncated document (largest valid JSON prefix) and skips
    schema validation — evaluation records are consumed defensively by
    the caller.  Unreadable or unsalvageable files still raise
    :class:`~repro.engine.errors.ConfigError`.
    """
    from ..obs.artifacts import load_artifact
    kind, data, warnings = load_artifact(path, tolerant=True)
    if kind != "journal":
        raise ConfigError(f"{path!r} is not a campaign journal "
                          f"(detected: {kind})")
    return data, warnings


def new_journal(campaign: dict) -> dict:
    """A fresh (no evaluations yet) journal document."""
    return {
        "version": JOURNAL_VERSION,
        "status": "partial",
        "paid": 0,
        "campaign": campaign,
        "evaluations": JournalRecords(),
        "best": None,
        "frontier": [],
    }


def check_resumable(journal: dict, campaign: dict) -> None:
    """Reject resuming under a different campaign configuration.

    A journal replays deterministically only when space, sampler,
    objectives, seed and base spec all match; resuming with anything
    else changed would silently mix two different searches.  The one
    deliberate exception is ``budget``: a budget-exhausted campaign is
    *meant* to be resumed with a larger budget (replay is positional
    and hash-checked, so a budget-sensitive custom sampler that
    proposes differently still fails loudly rather than mixing runs).
    """
    if journal.get("version") not in COMPATIBLE_VERSIONS:
        raise ConfigError(
            f"journal version {journal.get('version')!r} is not among "
            f"the versions this code resumes {COMPATIBLE_VERSIONS}")
    recorded = journal["campaign"]
    for key in sorted(set(recorded) | set(campaign)):
        if key != "budget" and recorded.get(key) != campaign.get(key):
            raise ConfigError(
                f"cannot resume: journal was written for {key}="
                f"{recorded.get(key)!r}, this invocation has "
                f"{campaign.get(key)!r} — rerun with matching options "
                f"or start a fresh --out directory")
