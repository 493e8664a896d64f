"""The vectorized duration evaluators against the scalar oracle.

Every reduce and merge record's duration from
``SystemSimulator._barrier_durations`` must equal
:func:`tests.sim.scalar_oracle.barrier_duration` with ``==`` -- on the
home workers and on arbitrary substitute workers, on a 64-core die
(exact float64 tables) and a 128-core die (blocked float32 tables).
The map-phase matrix and the single-task path are held to
:func:`tests.sim.scalar_oracle.task_time` the same way.
"""

import numpy as np
import pytest

from repro.apps import create_app
from repro.core.platforms import build_nvfi_mesh, die_for
from repro.sim.system import SystemSimulator
from tests.sim.scalar_oracle import barrier_duration, task_time


@pytest.fixture(scope="module", params=[64, 128], ids=["64core", "128core"])
def case(request):
    """A simulator whose latency tables carry a real run's load, and a
    frequency map perturbed the way stragglers and throttles do."""
    num_workers = request.param
    app = create_app("histogram", scale=0.05, seed=9)
    trace = app.run(num_workers=num_workers)
    simulator = SystemSimulator(
        build_nvfi_mesh(die_for(num_workers)), locality=app.profile.l2_locality
    )
    simulator.run(trace)
    rng = np.random.default_rng(num_workers)
    simulator._worker_freqs = simulator._worker_freqs * rng.uniform(
        0.5, 1.0, num_workers
    )
    return simulator, trace, rng


def barrier_phases(trace):
    for iteration in trace.iterations:
        yield iteration.reduce_phase.tasks
        for stage in iteration.merge_stages:
            yield stage.tasks


def test_blocked_tables_are_float32(case):
    simulator, _, _ = case
    expected = np.float32 if simulator.platform.num_cores > 64 else np.float64
    assert simulator.memory.bulk_raw_bottleneck_bps.dtype == expected


def test_barrier_durations_on_home_workers(case):
    simulator, trace, _ = case
    for records in barrier_phases(trace):
        plan = simulator._kv_plan(records)
        durations = simulator._barrier_durations(plan, plan.home)
        for row, record in enumerate(records):
            want = barrier_duration(simulator, record, record.home_worker)
            assert float(durations[row]) == want


def test_barrier_durations_on_substitute_workers(case):
    simulator, trace, rng = case
    num_workers = simulator.platform.num_cores
    for records in barrier_phases(trace):
        plan = simulator._kv_plan(records)
        for workers in (
            rng.integers(0, num_workers, size=len(records)),
            np.full(len(records), int(rng.integers(num_workers))),
        ):
            durations = simulator._barrier_durations(plan, workers)
            for row, record in enumerate(records):
                want = barrier_duration(simulator, record, int(workers[row]))
                assert float(durations[row]) == want


def test_map_durations_match_per_task_time(case):
    simulator, trace, rng = case
    records = trace.iterations[0].map_phase.tasks
    durations = simulator._map_durations(
        np.array([r.cost.instructions for r in records]),
        np.array([r.cost.l2_accesses for r in records]),
        np.array([r.cost.memory_accesses for r in records]),
    )
    rows = rng.choice(len(records), size=min(len(records), 40), replace=False)
    for row in rows:
        for worker in range(simulator.platform.num_cores):
            want = task_time(simulator, records[row], worker)
            assert float(durations[row, worker]) == want


def test_single_task_matches_task_time(case):
    simulator, trace, _ = case
    record = trace.iterations[0].lib_init
    cost = record.cost
    for worker in range(simulator.platform.num_cores):
        compute, stall = simulator._compute_stall(
            cost.instructions, cost.l2_accesses, cost.memory_accesses, worker
        )
        assert float(compute + stall) == task_time(simulator, record, worker)
