"""Cluster run records: canonical, replayable artifacts of one run.

A :class:`ClusterRunResult` captures everything a cluster run did -- the
arrival trace it served, the policy and fleet it ran on, one
:class:`~repro.cluster.jobs.JobRecord` per job, and the fleet-level
:class:`~repro.cluster.metrics.SloReport` -- as canonical JSON.

Replay contract: the **replay digest** (sha256 over the canonical JSON
of trace + policy + fleet + queue bound + records + report) is a pure
function of the simulated schedule.  Re-running a record's trace through
the same policy on the same fleet must reproduce that digest byte for
byte; the cold/warm split of the study resolutions (``study_stats``) is
deliberately excluded, because a warm replay resolves every per-job
simulation from the StudyCache without changing a single metric.

Encoding: one encoder emits canonical JSON in chunks, one per section
and one per job record.  ``replay_digest`` streams sha256 over the
payload's chunks, each record encoded straight from its fields, so no
payload string is built; ``save`` writes the chunks of ``to_dict``.
Nothing is memoized: results are mutable, and a stale cached digest
would let :func:`verify_replay` pass a record that no longer matches.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Union

from repro.cluster.arrivals import ArrivalTrace
from repro.cluster.fleet import Fleet
from repro.cluster.jobs import JobRecord
from repro.cluster.metrics import SloReport
from repro.utils.jsonutil import canonical_json, to_builtin

#: Bump when the run-record JSON schema changes.
RECORD_SCHEMA_VERSION = 1


@dataclass
class ClusterRunResult:
    """The complete audited outcome of one cluster run."""

    trace: ArrivalTrace
    policy: str
    fleet: Fleet
    max_queue_depth: int
    records: List[JobRecord]
    report: SloReport
    #: CostModel counters (computed / cache_hits / memo_hits /
    #: unique_specs, plus batches / prefetched when the parallel
    #: cost-model front ran).  Excluded from the replay digest: a warm
    #: replay differs here and nowhere else.
    study_stats: Dict[str, int] = field(default_factory=dict)
    #: The source discipline the run was served under
    #: (:meth:`~repro.cluster.arrivals.Source.to_dict`), or ``None``
    #: for the legacy open loop.  Part of the replay digest -- a
    #: closed-loop run replays under the same backoff parameters.
    source: Optional[Dict] = None

    # ------------------------------------------------------------------ #

    def _sections(self, records: Iterable[Dict]) -> Dict:
        """The payload sections by key, with *records* as ``records`` --
        the one table :meth:`payload_dict` and the encoder both read."""
        out = {
            "schema_version": RECORD_SCHEMA_VERSION,
            "trace": self.trace.to_dict(),
            "policy": self.policy,
            "fleet": self.fleet.to_dict(),
            "max_queue_depth": int(self.max_queue_depth),
            "records": records,
            "report": self.report.to_dict(),
        }
        # Open-loop runs omit the key so pre-engine records (and their
        # digests) remain byte-identical.
        if self.source is not None:
            out["source"] = to_builtin(dict(self.source))
        return out

    def _payload_chunks(self) -> Iterator[str]:
        """The payload's canonical JSON, lazily, one record at a time."""
        return _chunks(self._sections(r._fields_dict() for r in self.records))

    def payload_dict(self) -> Dict:
        """The replay-deterministic portion of the record."""
        return self._sections([record.to_dict() for record in self.records])

    def payload_json(self) -> str:
        """Canonical JSON of the replay-deterministic portion."""
        return "".join(self._payload_chunks())

    @property
    def replay_digest(self) -> str:
        """sha256 of :meth:`payload_json` -- equal across replays."""
        digest = hashlib.sha256()
        for chunk in self._payload_chunks():
            digest.update(chunk.encode("utf-8"))
        return digest.hexdigest()

    def to_dict(self) -> Dict:
        out = self.payload_dict()
        out["replay_digest"] = self.replay_digest
        out["study_stats"] = to_builtin(dict(self.study_stats))
        return out

    @classmethod
    def from_dict(cls, data: Dict) -> "ClusterRunResult":
        if not isinstance(data, dict):
            raise ValueError("malformed cluster record: not a JSON object")
        version = data.get("schema_version", RECORD_SCHEMA_VERSION)
        if version != RECORD_SCHEMA_VERSION:
            raise ValueError(
                f"record schema version {version} not supported "
                f"(expected {RECORD_SCHEMA_VERSION})"
            )
        try:
            return cls(
                trace=ArrivalTrace.from_dict(data["trace"]),
                policy=data["policy"],
                fleet=Fleet.from_dict(data["fleet"]),
                max_queue_depth=int(data["max_queue_depth"]),
                records=[JobRecord.from_dict(r) for r in data["records"]],
                report=SloReport.from_dict(data["report"]),
                study_stats=dict(data.get("study_stats", {})),
                source=data.get("source"),
            )
        except (KeyError, TypeError, AttributeError, ValueError) as exc:
            raise ValueError(
                f"malformed cluster record: {type(exc).__name__}: {exc}"
            ) from None

    def save(self, path: Union[str, Path]) -> None:
        """Write :meth:`to_dict` as canonical JSON, chunk by chunk."""
        with open(path, "w") as handle:
            handle.writelines(_chunks(self.to_dict()))
            handle.write("\n")

    @classmethod
    def load(cls, path: Union[str, Path]) -> "ClusterRunResult":
        with open(path) as handle:
            return cls.from_dict(json.load(handle))


def _chunks(document: Dict) -> Iterator[str]:
    """``canonical_json(document)`` in chunks: one per section and one
    per entry of ``records``, which may be any iterable of dicts."""
    opener = "{"
    for key in sorted(document):
        yield f"{opener}{canonical_json(key)}:"
        opener = ","
        if key != "records":
            yield canonical_json(document[key])
            continue
        yield "["
        for index, record in enumerate(document[key]):
            yield ("," if index else "") + canonical_json(record)
        yield "]"
    yield "}"


def replay(
    record: ClusterRunResult,
    cache=None,
    prefetch_jobs: Optional[int] = None,
) -> ClusterRunResult:
    """Re-run a recorded cluster run (same trace, policy, fleet, source).

    With a warm *cache* the replay resolves every per-job simulation from
    the StudyCache -- ``result.study_stats["computed"] == 0`` -- and must
    reproduce the record's :attr:`~ClusterRunResult.replay_digest`.
    A closed-loop record replays under its recorded source parameters.
    *prefetch_jobs* routes the replay's study resolutions through the
    parallel cost-model front (the batch counters land in
    ``study_stats`` and never touch the digest).
    """
    from repro.cluster.arrivals import source_from_dict
    from repro.cluster.service import ClusterService

    service = ClusterService(
        record.fleet,
        policy=record.policy,
        cache=cache,
        max_queue_depth=record.max_queue_depth,
        prefetch_jobs=prefetch_jobs,
    )
    return service.run(source_from_dict(record.trace, record.source))


def verify_replay(
    record: ClusterRunResult, replayed: ClusterRunResult
) -> Optional[str]:
    """``None`` when *replayed* reproduces *record* byte for byte, else a
    one-line description of the first divergence."""
    if replayed.replay_digest == record.replay_digest:
        return None
    original = record.payload_dict()
    fresh = replayed.payload_dict()
    for key in original:
        if canonical_json(original[key]) != canonical_json(fresh.get(key)):
            return (
                f"replay diverged at {key!r}: digest "
                f"{record.replay_digest[:12]} != {replayed.replay_digest[:12]}"
            )
    return "replay diverged (unlocated)"
