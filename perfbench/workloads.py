"""The benchmark's three workloads: set-up, timed rounds and output checks.

A *unit* is the thing a user waits for:

* study workloads (``paper64``, ``die256``): one cold full app study
  (serve) followed by a ``StudyCache.put`` (record) and ``get`` (replay);
* ``cluster_saturated``: one cluster run -- ``ClusterService.run`` with
  its own warm prefetch (serve), ``replay_digest`` + ``save`` (record),
  ``load`` + ``replay`` + ``verify_replay`` (replay).

A *round* is one pass over the workload's units (six studies, one study,
one cluster run).  The timed region runs whole rounds, serially in this
process, until ``seconds`` have passed.  Output checks run after each
unit, outside its timing.  All times are host seconds.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import statistics
import sys
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Tuple

from repro.cluster import ClusterService, fleet_for, generate_trace
from repro.cluster.record import ClusterRunResult, replay, verify_replay
from repro.core.experiment import (
    NVFI_MESH,
    VFI2_WINOC,
    clear_study_cache,
    run_app_study,
)
from repro.core.serialization import result_to_dict, study_to_dict
from repro.orchestrator.cache import StudyCache
from repro.orchestrator.spec import StudySpec
from repro.utils.jsonutil import canonical_json

from calibration import Calibration
from layers import Spans, instrument

#: Seed at which outputs must match the digests in ``golden.json``.
DEFAULT_SEED = 7
#: Set-up repetitions whose median is ``setup_s`` (after the imports).
SETUP_REPEATS = 3
#: Worker processes for the untimed cold StudyCache fill.
FILL_JOBS = 2

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"

TABLE1_APPS = (
    "histogram", "kmeans", "linear_regression", "matrix_multiply", "pca",
    "wordcount",
)


@dataclass(frozen=True)
class StudyWorkload:
    apps: Tuple[str, ...]
    scale: float
    num_workers: int


#: ``cluster_saturated``: about 10k arrivals near saturation of 8
#: 16-core chips, served by ``edf_preempt`` from a closed-loop source.
CLUSTER = "cluster_saturated"
CLUSTER_POLICY = "edf_preempt"
CLUSTER_QUEUE_DEPTH = 64
CLUSTER_SOURCE = "closed"


def cluster_trace(seed: int):
    # App dataset seeds derive from the benchmark seed: (7, 9) at 7.
    return generate_trace(
        CLUSTER,
        seed=seed,
        num_jobs=10_000,
        mean_gap_s=2.8,
        burstiness=0.6,
        deadline_fraction=0.3,
        deadline_slack_s=(30.0, 90.0),
        priority_levels=3,
        dataset_seeds=(seed, seed + 2),
    )


def cluster_fleet():
    return fleet_for(8, num_workers=16)


def cluster_service(fleet, cache, prefetch_jobs: int) -> ClusterService:
    """The service ``repro cluster run --jobs N`` builds for this workload."""
    return ClusterService(
        fleet,
        policy=CLUSTER_POLICY,
        cache=cache,
        max_queue_depth=CLUSTER_QUEUE_DEPTH,
        prefetch_jobs=prefetch_jobs,
    )


STUDY_WORKLOADS = {
    "paper64": StudyWorkload(apps=TABLE1_APPS, scale=0.1, num_workers=64),
    "die256": StudyWorkload(apps=("histogram",), scale=0.05, num_workers=256),
}

#: The cheapest full pipeline; set-up fills the study workloads' cache
#: with it, which also finishes lazy imports before the timed region.
WARMUP_SPEC = dict(app="histogram", scale=0.05, num_workers=16)


def result_digest(result) -> str:
    return hashlib.sha256(
        canonical_json(result_to_dict(result)).encode("utf-8")
    ).hexdigest()


def load_golden() -> Dict:
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


def study(spec: StudySpec):
    """One cold full study: the program's pipeline, never memoized."""
    return run_app_study(
        spec.app, scale=spec.scale, seed=spec.seed,
        num_workers=spec.num_workers, use_cache=False,
    )


PHASES = ("serve", "record", "replay")


@dataclass
class Outcome:
    """Everything one workload run measured, in host seconds."""

    calibration: Calibration = field(default_factory=Calibration)
    #: Host seconds of each set-up repetition.
    setup_s: List[float] = field(default_factory=list)
    #: Host seconds per phase, one entry per passed unit.
    phase_s: Dict[str, List[float]] = field(
        default_factory=lambda: {phase: [] for phase in PHASES}
    )
    #: The round each passed unit ran in.
    unit_round: List[int] = field(default_factory=list)
    rounds: int = 0
    attempted: int = 0
    failed: int = 0
    edp_ratios: List[float] = field(default_factory=list)
    #: Per-layer counts summed over the rounds.
    counts: Dict[str, float] = field(default_factory=dict)

    @property
    def unit_s(self) -> List[float]:
        return [sum(parts) for parts in zip(*self.phase_s.values())]

    def count(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0.0) + value

    def add_unit(self, phases: "UnitPhases") -> None:
        for phase in PHASES:
            self.phase_s[phase].append(phases.host_s[phase])
        self.unit_round.append(self.rounds)

    def round_totals(self, phase: str) -> List[float]:
        """Host seconds of *phase* summed over each round's units."""
        totals: Dict[int, float] = {}
        for index, seconds in zip(self.unit_round, self.phase_s[phase]):
            totals[index] = totals.get(index, 0.0) + seconds
        return list(totals.values())

    def winoc_edp_ratio(self) -> float:
        if not self.edp_ratios:
            return 0.0
        return math.exp(statistics.fmean(math.log(r) for r in self.edp_ratios))


class UnitPhases:
    """Times the serve, record and replay phases of one unit.

    Each phase is a root span of the unit.  A full garbage collection
    runs first, outside the phases, so a unit does not pay for the
    garbage the unit before it left.  A calibration probe runs before
    the first phase and after each one, also outside the phases.
    """

    def __init__(self, spans: Spans, calibration: Calibration):
        self.spans = spans
        self.calibration = calibration
        self.host_s: Dict[str, float] = {}
        gc.collect()
        calibration.probe()

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        with self.spans.span(f"unit.{name}"):
            start = time.perf_counter()
            yield
            self.host_s[name] = time.perf_counter() - start
        self.calibration.probe()


def _unit(outcome: Outcome, label: str, body: Callable[[], None]) -> None:
    """Run one unit; an exception or failed check counts it as failed."""
    outcome.attempted += 1
    try:
        body()
    except Exception:  # the benchmark must report, not stop, on a bad unit
        outcome.failed += 1
        print(f"unit {label} failed:", file=sys.stderr)
        traceback.print_exc()


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def _timed_rounds(seconds: float, run_round: Callable[[], None], outcome: Outcome) -> None:
    """Run whole rounds until *seconds* of host time have passed."""
    start = time.perf_counter()
    while True:
        run_round()
        outcome.rounds += 1
        if time.perf_counter() - start >= seconds:
            return


# ---------------------------------------------------------------------- #
# study workloads
# ---------------------------------------------------------------------- #


def _fill_study_cache(root: Path, seed: int) -> StudyCache:
    cache = StudyCache(root)
    spec = StudySpec(seed=seed, **WARMUP_SPEC)
    cache.put(spec, study(spec))
    return cache


def run_study_workload(
    name: str, seed: int, seconds: float, spans: Spans, workdir: Path,
) -> Outcome:
    workload = STUDY_WORKLOADS[name]
    outcome = Outcome()
    for repeat in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        cache = _fill_study_cache(workdir / f"cache{repeat}", seed)
        outcome.setup_s.append(time.perf_counter() - t0)
    golden = load_golden()["studies"] if seed == DEFAULT_SEED else None

    def one_study(app: str) -> None:
        spec = StudySpec(
            app=app, scale=workload.scale, seed=seed,
            num_workers=workload.num_workers,
        )
        with spans.unit(outcome.attempted):
            timer = UnitPhases(spans, outcome.calibration)
            with timer.phase("serve"):
                served = study(spec)
            with timer.phase("record"), spans.span("orchestrator.cache_put"):
                path = cache.put(spec, served)
            with timer.phase("replay"), spans.span("orchestrator.cache_get"):
                loaded = cache.get(spec)

        _check(loaded is not None, "StudyCache.get missed right after put")
        _check(
            canonical_json(study_to_dict(loaded))
            == canonical_json(study_to_dict(served)),
            "StudyCache round trip changed the study document",
        )
        if golden is not None:
            digests = {c: result_digest(r) for c, r in served.results.items()}
            _check(
                digests == golden[f"{name}/{app}"],
                f"{name}/{app}: result digests differ from golden.json",
            )
        outcome.add_unit(timer)
        outcome.edp_ratios.append(
            served.result(VFI2_WINOC).edp / served.result(NVFI_MESH).edp
        )
        tasks = len(served.trace.all_tasks())
        outcome.count("mapreduce.tasks", tasks)
        outcome.count("sim.simulators", len(served.results))
        outcome.count("sim.tasks_scheduled", tasks * len(served.results))
        outcome.count(
            "sim.phases", sum(len(r.phases) for r in served.results.values())
        )
        outcome.count("orchestrator.cache_bytes", path.stat().st_size)

    def run_round() -> None:
        for app in workload.apps:
            _unit(outcome, f"{name}/{app}", lambda: one_study(app))

    _timed_rounds(seconds, run_round, outcome)
    return outcome


# ---------------------------------------------------------------------- #
# cluster workload
# ---------------------------------------------------------------------- #


def _fill_cluster_cache(seed: int, spans: Spans, root: Path):
    """A cold ``cluster run --jobs 2``: fills the StudyCache through the
    service's own prefetch.  Returns the trace, fleet, cache and the
    run's digest, which every timed (warm) run must reproduce."""
    with spans.span("cluster.arrivals.generate"):
        trace = cluster_trace(seed)
    fleet = cluster_fleet()
    cache = StudyCache(root)
    cold = cluster_service(fleet, cache, FILL_JOBS).run(trace, source=CLUSTER_SOURCE)
    # The timed region must resolve every study from the StudyCache.
    clear_study_cache()
    return trace, fleet, cache, cold.replay_digest


def trace_specs(trace, fleet) -> List[StudySpec]:
    """The distinct studies *trace* resolves on *fleet*."""
    jobs = {(job.app, job.scale, job.seed): job for job in trace.jobs}
    return list({job.spec_for(chip): None for job in jobs.values() for chip in fleet})


def run_cluster_workload(
    seed: int, seconds: float, spans: Spans, workdir: Path,
) -> Outcome:
    outcome = Outcome()
    for repeat in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        trace, fleet, cache, cold_digest = _fill_cluster_cache(
            seed, spans, workdir / f"cache{repeat}"
        )
        outcome.setup_s.append(time.perf_counter() - t0)
    golden = load_golden()["cluster"] if seed == DEFAULT_SEED else None
    record_path = workdir / "record.json"

    def one_run() -> None:
        with spans.unit(outcome.attempted):
            timer = UnitPhases(spans, outcome.calibration)
            with timer.phase("serve"):
                service = cluster_service(fleet, cache, 1)
                with spans.span("cluster.service.run"):
                    result = service.run(trace, source=CLUSTER_SOURCE)
            with timer.phase("record"):
                digest = result.replay_digest
                with spans.span("cluster.record.save"):
                    result.save(record_path)
            with timer.phase("replay"):
                with spans.span("cluster.record.load"):
                    loaded = ClusterRunResult.load(record_path)
                with spans.span("cluster.record.replay"):
                    replayed = replay(loaded, cache=cache)
                with spans.span("cluster.record.verify"):
                    divergence = verify_replay(loaded, replayed)

        _check(divergence is None, f"verify_replay: {divergence}")
        _check(
            digest == cold_digest,
            "the warm run differs from the cold set-up run",
        )
        _check(
            loaded.replay_digest == digest,
            "the saved record differs from the served run",
        )
        _check(
            result.study_stats["computed"] == 0
            and replayed.study_stats["computed"] == 0,
            "a study was simulated in the timed region (cold cache)",
        )
        if golden is not None:
            _check(
                digest == golden["replay_digest"],
                "cluster replay_digest differs from golden.json",
            )
        outcome.add_unit(timer)
        if not outcome.edp_ratios:
            for spec in trace_specs(trace, fleet):
                resolved = service.cost_model.study(spec)
                outcome.edp_ratios.append(
                    resolved.result(VFI2_WINOC).edp / resolved.result(NVFI_MESH).edp
                )
        report = result.report
        outcome.count("cluster.arrivals", len(trace))
        outcome.count("cluster.unique_specs", result.study_stats["unique_specs"])
        outcome.count("cluster.memo_hits", result.study_stats["memo_hits"])
        outcome.count("cluster.completed", report.completed)
        outcome.count("cluster.preemptions", report.preemptions)
        outcome.count("cluster.retries", report.retries)
        outcome.count("cluster.rejected", report.rejected)
        outcome.count("cluster.deadlined", report.deadlined)
        outcome.count("cluster.deadlines_met", report.deadlines_met)
        outcome.count("cluster.record.bytes", record_path.stat().st_size)

    _timed_rounds(seconds, lambda: _unit(outcome, CLUSTER, one_run), outcome)
    return outcome


def run_workload(
    name: str, seed: int, seconds: float, spans: Spans, workdir: Path
) -> Outcome:
    """Set up and run workload *name*, with the layer spans installed
    when *spans* is enabled."""
    with instrument(spans):
        if name == CLUSTER:
            return run_cluster_workload(seed, seconds, spans, workdir)
        return run_study_workload(name, seed, seconds, spans, workdir)
