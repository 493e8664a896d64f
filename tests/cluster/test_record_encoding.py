"""Chunked run-record encoding against the whole-document oracle.

:class:`ClusterRunResult` encodes its payload section by section and
record by record, hashes the chunks as a stream, and writes the saved
file from the chunks of ``to_dict``.  Every one of those outputs must
equal, byte for byte, what the reference path in
:mod:`tests.cluster.record_oracle` produces from the same result:
``payload_json()``, ``replay_digest``, the saved bytes and the result
of loading them back.
"""

import json
import os
import tempfile

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster import ArrivalTrace, ClusterJob, fleet_for
from repro.cluster.jobs import COMPLETED, REJECTED, JobRecord
from repro.cluster.metrics import SloReport
from repro.cluster.record import ClusterRunResult
from tests.cluster import record_oracle as oracle
from tests.cluster.test_properties import RUN_CONFIGS, serve
from tests.utils.json_oracle import canonical_json

APPS = ("histogram", "wordcount", "kmeans", "linear_regression")

finite = st.floats(
    min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False
)


def _maybe_numpy(strategy, cast):
    """*strategy*'s values, some of them cast to a numpy scalar."""
    return st.one_of(strategy, strategy.map(cast))


timestamps = st.one_of(st.none(), _maybe_numpy(finite, np.float64))

extra_values = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(min_value=-10**6, max_value=10**6),
        finite,
        st.text(max_size=6),
        st.integers(min_value=-100, max_value=100).map(np.int64),
        finite.map(np.float64),
        finite.map(np.float32),
    ),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(st.text(max_size=4), inner, max_size=3),
    ),
    max_leaves=8,
)


@st.composite
def jobs(draw, job_id):
    arrival = draw(finite)
    deadline = None
    if draw(st.booleans()):
        deadline = arrival + draw(st.floats(min_value=0.5, max_value=100.0))
    return ClusterJob(
        job_id=job_id,
        app=draw(st.sampled_from(APPS)),
        arrival_s=arrival,
        scale=draw(st.sampled_from((0.05, 0.1, 1.0))),
        seed=draw(st.integers(min_value=0, max_value=99)),
        priority=draw(st.integers(min_value=0, max_value=3)),
        deadline_s=deadline,
        input_mb=draw(finite),
    )


@st.composite
def job_records(draw, job):
    return JobRecord(
        job=job,
        status=draw(st.sampled_from((COMPLETED, REJECTED))),
        chip_id=draw(
            st.one_of(st.none(), _maybe_numpy(st.integers(0, 7), np.int64))
        ),
        admitted_s=draw(timestamps),
        dispatched_s=draw(timestamps),
        completed_s=draw(timestamps),
        transfer_s=draw(_maybe_numpy(finite, np.float64)),
        service_s=draw(_maybe_numpy(finite, np.float64)),
        energy_j=draw(_maybe_numpy(finite, np.float64)),
        attempts=draw(_maybe_numpy(st.integers(1, 4), np.int64)),
        preemptions=draw(st.integers(0, 3)),
        wasted_transfer_s=draw(st.one_of(st.just(0.0), finite)),
        extra=draw(st.dictionaries(st.text(max_size=5), extra_values, max_size=3)),
    )


@st.composite
def run_results(draw):
    n = draw(st.integers(min_value=0, max_value=6))
    trace = ArrivalTrace(
        name=draw(st.text(min_size=1, max_size=8)),
        seed=draw(st.integers(0, 99)),
        jobs=tuple(draw(jobs(job_id)) for job_id in range(n)),
    )
    fleet = fleet_for(draw(st.integers(1, 3)), num_workers=16)
    records = [draw(job_records(job)) for job in trace.jobs]
    source = draw(
        st.one_of(
            st.none(),
            st.fixed_dictionaries(
                {
                    "kind": st.just("closed"),
                    "retry_limit": _maybe_numpy(st.integers(0, 5), np.int64),
                    "backoff_base_s": _maybe_numpy(finite, np.float64),
                    "seed": st.integers(0, 9),
                }
            ),
        )
    )
    report = SloReport(
        policy="fifo",
        num_jobs=len(records),
        completed=draw(st.integers(0, n)),
        makespan_s=draw(_maybe_numpy(finite, np.float64)),
        total_energy_j=draw(_maybe_numpy(finite, np.float64)),
        chip_utilization={
            str(chip.chip_id): draw(_maybe_numpy(finite, np.float64))
            for chip in fleet
        },
        retries=draw(st.integers(0, 9)),
    )
    return ClusterRunResult(
        trace=trace,
        policy="fifo",
        fleet=fleet,
        max_queue_depth=draw(_maybe_numpy(st.integers(1, 16), np.int64)),
        records=records,
        report=report,
        study_stats=draw(
            st.dictionaries(
                st.sampled_from(("computed", "cache_hits", "memo_hits")),
                _maybe_numpy(st.integers(0, 10**6), np.int64),
            )
        ),
        source=source,
    )


def _assert_matches_oracle(result: ClusterRunResult) -> None:
    expected_json = oracle.payload_json(result)
    expected_digest = oracle.replay_digest(result)
    expected_text = oracle.saved_text(result)
    assert result.payload_json() == expected_json
    assert canonical_json(result.payload_dict()) == expected_json
    assert result.replay_digest == expected_digest
    assert canonical_json(result.to_dict()) + "\n" == expected_text
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "run.json")
        result.save(path)
        with open(path) as handle:
            assert handle.read() == expected_text
        loaded = ClusterRunResult.load(path)
        resaved = os.path.join(tmp, "again.json")
        loaded.save(resaved)
        with open(resaved) as handle:
            assert handle.read() == expected_text
    assert loaded.payload_json() == expected_json
    assert loaded.replay_digest == expected_digest
    assert loaded.study_stats == json.loads(expected_text)["study_stats"]


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(result=run_results())
def test_random_records_encode_like_the_oracle(result):
    _assert_matches_oracle(result)


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(config=RUN_CONFIGS)
def test_served_runs_encode_like_the_oracle(config):
    _assert_matches_oracle(serve(config))


def test_empty_records_and_open_loop_source():
    trace = ArrivalTrace(name="empty", seed=0, jobs=())
    result = ClusterRunResult(
        trace=trace,
        policy="fifo",
        fleet=fleet_for(1, num_workers=16),
        max_queue_depth=4,
        records=[],
        report=SloReport(policy="fifo"),
    )
    assert '"records":[]' in result.payload_json()
    assert '"source"' not in result.payload_json()
    _assert_matches_oracle(result)


def test_mutating_a_record_after_reading_the_digest_changes_it(
    smoke_trace, small_fleet, study_cache
):
    # ClusterRunResult is mutable: the digest must be recomputed on
    # every read, never served from a cache that a mutation left stale.
    from repro.cluster import run_workload

    result = run_workload(smoke_trace, small_fleet, "fifo", cache=study_cache)
    before = result.replay_digest
    result.records[0].energy_j += 1.0
    after = result.replay_digest
    assert after != before
    assert after == oracle.replay_digest(result)
    result.records.pop()
    assert result.replay_digest not in (before, after)
    assert result.replay_digest == oracle.replay_digest(result)
