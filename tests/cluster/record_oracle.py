"""Reference run-record encoding: the whole-document path.

Builds the record the straightforward way -- every section as one
builtin tree from dataclass fields, one recursive conversion, one
``json.dumps`` of the whole payload -- so the chunked encoder in
:mod:`repro.cluster.record` can be checked byte for byte against it.
"""

import hashlib
from dataclasses import fields
from typing import Dict

from repro.cluster.arrivals import TRACE_SCHEMA_VERSION
from repro.cluster.record import RECORD_SCHEMA_VERSION, ClusterRunResult
from tests.utils.json_oracle import canonical_json, to_builtin


def job_dict(job) -> Dict:
    return {f.name: getattr(job, f.name) for f in fields(job)}


def record_dict(record) -> Dict:
    out = {
        "job": job_dict(record.job),
        "status": record.status,
        "chip_id": record.chip_id,
        "admitted_s": record.admitted_s,
        "dispatched_s": record.dispatched_s,
        "completed_s": record.completed_s,
        "transfer_s": record.transfer_s,
        "service_s": record.service_s,
        "energy_j": record.energy_j,
        "extra": dict(record.extra),
    }
    if record.attempts != 1:
        out["attempts"] = record.attempts
    if record.preemptions != 0:
        out["preemptions"] = record.preemptions
    if record.wasted_transfer_s != 0.0:
        out["wasted_transfer_s"] = record.wasted_transfer_s
    return to_builtin(out)


def payload_dict(result: ClusterRunResult) -> Dict:
    out = {
        "schema_version": RECORD_SCHEMA_VERSION,
        "trace": {
            "schema_version": TRACE_SCHEMA_VERSION,
            "name": result.trace.name,
            "seed": result.trace.seed,
            "jobs": [job_dict(job) for job in result.trace.jobs],
        },
        "policy": result.policy,
        "fleet": result.fleet.to_dict(),
        "max_queue_depth": int(result.max_queue_depth),
        "records": [record_dict(record) for record in result.records],
        "report": result.report.to_dict(),
    }
    if result.source is not None:
        out["source"] = to_builtin(dict(result.source))
    return out


def payload_json(result: ClusterRunResult) -> str:
    return canonical_json(payload_dict(result))


def replay_digest(result: ClusterRunResult) -> str:
    return hashlib.sha256(payload_json(result).encode("utf-8")).hexdigest()


def saved_text(result: ClusterRunResult) -> str:
    """The bytes :meth:`ClusterRunResult.save` must write."""
    out = payload_dict(result)
    out["replay_digest"] = replay_digest(result)
    out["study_stats"] = to_builtin(dict(result.study_stats))
    return canonical_json(out) + "\n"
