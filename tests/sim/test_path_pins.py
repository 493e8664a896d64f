"""Pins for the simulator runs the 64-core study golden does not reach.

``tests/core/test_golden_64core.py`` pins clean, faulted (64 cores,
exact float64 tables) and telemetry summaries.  The constants below pin
three more code paths at ``rel=1e-12``, captured from the simulator
before its barrier-phase evaluator and energy fold were unified:

* a 128-core NVFI mesh under core failures -- barrier-phase
  substitution and re-execution on the blocked float32 tables, plus a
  lib-init re-execution;
* a 64-core study under a binding power cap -- the governor's energy
  segments;
* a 64-core :class:`~repro.sim.adaptive.PhaseAdaptiveSimulator` run --
  one energy segment per V/F assignment.

Run this module as a script (``PYTHONPATH=src python -m
tests.sim.test_path_pins``) to print the current values for re-pinning.
"""

import pytest

from repro.apps import create_app
from repro.core.design_flow import design_vfi, structural_bottleneck_workers
from repro.core.experiment import run_app_study
from repro.core.platforms import build_nvfi_mesh, build_vfi_mesh, die_for
from repro.core.traffic import total_node_traffic
from repro.faults.spec import FaultKind, FaultPlan, FaultSpec
from repro.power import PowerCapSpec, default_caps_w
from repro.sim.adaptive import PhaseAdaptiveSimulator, phase_adaptive_schedule
from repro.sim.config import SimulationParams
from repro.sim.system import simulate
from tests.core.test_golden_64core import _assert_matches, _fingerprint

APP = "histogram"
SCALE = 0.05
SEED = 9

#: Worker 0 dies inside lib init, 37 mid-map, 64 mid-reduce (it also
#: owns merge tasks) and 32 inside the fifth merge stage.
FAULTS_128 = FaultPlan(
    events=(
        FaultSpec(FaultKind.CORE_FAILURE, 2.0, (0,)),
        FaultSpec(FaultKind.CORE_FAILURE, 30.0, (37,)),
        FaultSpec(FaultKind.CORE_FAILURE, 67.0, (64,)),
        FaultSpec(FaultKind.CORE_FAILURE, 70.75, (32,)),
    ),
    name="pins-128",
)

PINS = {
    "capped_64": {
        "nvfi_mesh.average_hops": 4.291697760116866,
        "nvfi_mesh.bits_moved": 35338442086794.99,
        "nvfi_mesh.busy_sum_s": 3119.2767466024466,
        "nvfi_mesh.committed_sum": 10412735325595.715,
        "nvfi_mesh.core_dynamic_j": 5685.613776714264,
        "nvfi_mesh.core_static_j": 845.675737945114,
        "nvfi_mesh.noc_dynamic_j": 519.4907762544992,
        "nvfi_mesh.noc_static_j": 13.706436865242347,
        "nvfi_mesh.num_phases": 9,
        "nvfi_mesh.throttle_events": 14,
        "nvfi_mesh.throttled_s": 33.9773408723087,
        "nvfi_mesh.total_energy_j": 7064.486727779119,
        "nvfi_mesh.total_time_s": 58.60754743687098,
        "nvfi_mesh.wireless_fraction": 0.0,
        "vfi1_mesh.average_hops": 4.287058411209182,
        "vfi1_mesh.bits_moved": 35338442086794.99,
        "vfi1_mesh.busy_sum_s": 3425.738658900189,
        "vfi1_mesh.committed_sum": 10412735325595.715,
        "vfi1_mesh.core_dynamic_j": 4622.862695697592,
        "vfi1_mesh.core_static_j": 715.855381021695,
        "vfi1_mesh.noc_dynamic_j": 518.9428451711167,
        "vfi1_mesh.noc_static_j": 15.03195503976502,
        "vfi1_mesh.num_phases": 9,
        "vfi1_mesh.throttle_events": 14,
        "vfi1_mesh.throttled_s": 28.5084562318539,
        "vfi1_mesh.total_energy_j": 5872.692876930169,
        "vfi1_mesh.total_time_s": 61.857408032966525,
        "vfi1_mesh.wireless_fraction": 0.0,
        "vfi2_mesh.average_hops": 4.287058411209182,
        "vfi2_mesh.bits_moved": 35338442086794.99,
        "vfi2_mesh.busy_sum_s": 3354.1480369650935,
        "vfi2_mesh.committed_sum": 10412735325595.715,
        "vfi2_mesh.core_dynamic_j": 4911.415261088158,
        "vfi2_mesh.core_static_j": 760.6645460804921,
        "vfi2_mesh.noc_dynamic_j": 518.9428451711166,
        "vfi2_mesh.noc_static_j": 12.727990284464987,
        "vfi2_mesh.num_phases": 9,
        "vfi2_mesh.throttle_events": 14,
        "vfi2_mesh.throttled_s": 27.393825651801393,
        "vfi2_mesh.total_energy_j": 6203.750642624232,
        "vfi2_mesh.total_time_s": 61.22742340800647,
        "vfi2_mesh.wireless_fraction": 0.0,
        "vfi2_winoc.average_hops": 2.9556320398144074,
        "vfi2_winoc.bits_moved": 35338442086794.99,
        "vfi2_winoc.busy_sum_s": 3239.859291707826,
        "vfi2_winoc.committed_sum": 10412735325595.715,
        "vfi2_winoc.core_dynamic_j": 4739.707826265659,
        "vfi2_winoc.core_static_j": 727.2664090760001,
        "vfi2_winoc.noc_dynamic_j": 578.9164641167121,
        "vfi2_winoc.noc_static_j": 12.170382385463109,
        "vfi2_winoc.num_phases": 9,
        "vfi2_winoc.throttle_events": 14,
        "vfi2_winoc.throttled_s": 26.53523309251775,
        "vfi2_winoc.total_energy_j": 6058.061081843834,
        "vfi2_winoc.total_time_s": 58.585556912964364,
        "vfi2_winoc.wireless_fraction": 0.004305338763771008,
    },
    "faulted_128": {
        "average_hops": 6.405665830174212,
        "bits_moved": 75366479678080.39,
        "busy_sum_s": 6873.5441093521,
        "committed_sum": 22271204715836.13,
        "core_dynamic_j": 13279.884866198978,
        "core_static_j": 2297.7309179432536,
        "lost_busy_s": 9.469103588629949,
        "noc_dynamic_j": 1641.947623338323,
        "noc_static_j": 36.763694687092,
        "num_phases": 10,
        "reexecuted_tasks": 4,
        "substituted_tasks": 15,
        "total_energy_j": 17256.32710216765,
        "total_time_s": 71.80409118572653,
        "wireless_fraction": 0.0,
    },
    "phase_adaptive_64": {
        "average_hops": 4.287189754920704,
        "bits_moved": 35338442086797.02,
        "busy_sum_s": 3295.927458258493,
        "committed_sum": 10412735325595.715,
        "core_dynamic_j": 4998.113699673885,
        "core_static_j": 769.3505803009435,
        "noc_dynamic_j": 518.9583838476422,
        "noc_static_j": 12.841064448074551,
        "num_phases": 9,
        "total_energy_j": 6299.2637282705455,
        "total_time_s": 60.86385621137196,
        "wireless_fraction": 0.0,
    },
}


def faulted_128():
    app = create_app(APP, scale=SCALE, seed=SEED)
    trace = app.run(num_workers=128)
    result = simulate(
        build_nvfi_mesh(die_for(128)),
        trace,
        locality=app.profile.l2_locality,
        params=SimulationParams(fault_plan=FAULTS_128),
    )
    impact = result.faults
    return dict(
        _fingerprint(result),
        reexecuted_tasks=impact.reexecuted_tasks,
        substituted_tasks=impact.substituted_tasks,
        lost_busy_s=impact.lost_busy_s,
    )


def capped_64():
    cap = PowerCapSpec(chip_cap_w=default_caps_w(64)[-1])
    study = run_app_study(
        APP, scale=SCALE, seed=SEED, num_workers=64,
        use_cache=False, power_cap=cap,
    )
    pins = {}
    for name, result in sorted(study.results.items()):
        for key, value in _fingerprint(result).items():
            pins[f"{name}.{key}"] = value
        pins[f"{name}.throttled_s"] = result.power.throttled_s
        pins[f"{name}.throttle_events"] = len(result.power.throttle_events)
    return pins


def phase_adaptive_64():
    app = create_app(APP, scale=SCALE, seed=SEED)
    locality = app.profile.l2_locality
    trace = app.run(num_workers=64)
    nvfi = simulate(build_nvfi_mesh(), trace, locality=locality)
    design = design_vfi(
        nvfi.utilization,
        total_node_traffic(trace, locality),
        seed=3,
        structural_workers=structural_bottleneck_workers(trace),
    )
    simulator = PhaseAdaptiveSimulator(
        build_vfi_mesh(design, "vfi2", seed=3),
        phase_adaptive_schedule(design),
        locality=locality,
        stealing_policy=design.stealing_policy("vfi2"),
    )
    return _fingerprint(simulator.run(trace))


RUNS = {
    "faulted_128": faulted_128,
    "capped_64": capped_64,
    "phase_adaptive_64": phase_adaptive_64,
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_run_matches_pin(name):
    _assert_matches(RUNS[name](), PINS[name], name)


def test_faulted_128_recovers_in_barrier_phases():
    # The pin is only worth having if the run actually substitutes and
    # re-executes work.
    pins = PINS["faulted_128"]
    assert pins["substituted_tasks"] > 0
    assert pins["reexecuted_tasks"] > 0


def test_capped_64_throttles():
    pins = PINS["capped_64"]
    assert any(
        value > 0 for key, value in pins.items() if key.endswith("throttled_s")
    )


if __name__ == "__main__":
    import pprint

    pprint.pprint({name: run() for name, run in sorted(RUNS.items())})
