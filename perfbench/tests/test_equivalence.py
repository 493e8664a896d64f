"""The traced run measures the same program the untraced run does.

Run from the repository root (about two minutes)::

    python3 -m pytest perfbench/tests -q
"""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.serialization import study_to_dict
from repro.orchestrator.cache import StudyCache
from repro.orchestrator.spec import StudySpec
from repro.utils.jsonutil import canonical_json

from layers import WRAPPED, Spans, instrument
from workloads import (
    CLUSTER_SOURCE,
    DEFAULT_SEED,
    STUDY_WORKLOADS,
    cluster_fleet,
    cluster_service,
    cluster_trace,
    study,
)

BENCH = Path(__file__).resolve().parents[1]

STUDY_CASES = [
    (name, app)
    for name, workload in STUDY_WORKLOADS.items()
    for app in workload.apps
]


def _names(spans):
    return {span[0] for span in spans.spans}


@pytest.mark.parametrize("name,app", STUDY_CASES)
def test_traced_study_matches_untraced(name, app):
    workload = STUDY_WORKLOADS[name]
    spec = StudySpec(
        app=app, scale=workload.scale, seed=DEFAULT_SEED,
        num_workers=workload.num_workers,
    )
    spans = Spans(True)
    with instrument(spans), spans.unit(0), spans.span("unit.serve"):
        traced = study(spec)
    assert canonical_json(study_to_dict(traced)) == canonical_json(
        study_to_dict(study(spec))
    )
    assert _names(spans) >= {
        "apps.run", "core.design_flow.design_vfi", "core.platforms.build_mesh",
        "core.platforms.build_winoc", "sim.construct", "sim.run",
    }
    assert spans.coverage() >= 0.95


def test_traced_cluster_run_matches_untraced(tmp_path):
    trace = cluster_trace(DEFAULT_SEED)
    fleet = cluster_fleet()
    cache = StudyCache(tmp_path / "cache")
    plain = cluster_service(fleet, cache, 2).run(trace, source=CLUSTER_SOURCE)

    spans = Spans(True)
    with instrument(spans), spans.unit(0):
        with spans.span("unit.serve"):
            traced = cluster_service(fleet, cache, 1).run(trace, source=CLUSTER_SOURCE)
        with spans.span("unit.record"):
            traced.save(tmp_path / "record.json")
    assert traced.study_stats["computed"] == 0
    assert traced.replay_digest == plain.replay_digest
    assert _names(spans) == {
        "unit.serve", "cluster.costmodel.prefetch", "unit.record",
        "cluster.record.to_dict", "cluster.record.digest",
    }


def test_instrument_restores_the_program():
    before = [vars(owner)[attribute] for owner, attribute, _ in WRAPPED]
    spans = Spans(True)
    with instrument(spans):
        assert all(
            vars(owner)[attribute] is not original
            for (owner, attribute, _), original in zip(WRAPPED, before)
        )
    assert [vars(owner)[attribute] for owner, attribute, _ in WRAPPED] == before


def test_wrapped_calls_outside_a_span_are_untimed():
    spans = Spans(True)
    noop = spans.wrap("probe", lambda: 1)
    assert noop() == 1
    assert spans.spans == []
    with spans.span("outer"):
        noop()
    assert [span[0] for span in spans.spans] == ["outer", "probe"]


def test_self_time_subtracts_children():
    spans = Spans(True)
    spans.spans = [
        ["unit.serve", 0.0, 8.0, None, 0],
        ["sim.construct", 1.0, 4.0, 0, 0],
        ["sim.run", 4.0, 7.5, 0, 0],
        ["unit.record", 8.5, 10.5, None, 0],
        ["orchestrator.cache_put", 8.5, 10.5, 3, 0],
        ["cluster.arrivals.generate", 20.0, 21.0, None, None],
    ]
    assert spans.self_times() == {
        "unit.serve": 1.5, "sim.construct": 3.0, "sim.run": 3.5,
        "unit.record": 0.0, "orchestrator.cache_put": 2.0,
        "cluster.arrivals.generate": 1.0,
    }
    assert spans.coverage() == 0.85


def test_disabled_spans_record_nothing():
    spans = Spans(False)
    with spans.unit(0), spans.span("apps.run"):
        pass
    assert spans.spans == []


def test_fails_without_the_program(tmp_path):
    """In a directory holding only the benchmark, run.py exits nonzero
    and prints no result."""
    shutil.copytree(
        BENCH, tmp_path / BENCH.name,
        ignore=shutil.ignore_patterns("__pycache__", "tests"),
    )
    proc = subprocess.run(
        [sys.executable, str(tmp_path / BENCH.name / "run.py"),
         "--workload", "paper64", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
