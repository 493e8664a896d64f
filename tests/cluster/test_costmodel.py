"""CostModel estimate memo: one lookup per repeat, counters unchanged.

A repeated (app, scale, seed, chip class) estimate is served from the
estimate memo instead of rebuilding the job's StudySpec.  It must give
the estimate, and count the memo hit, exactly as resolving the study
again would.  :class:`UnmemoizedCostModel` is that reference path.
"""

import pytest

from repro.cluster import ChipSpec, ClusterService, CostModel, Fleet, JobEstimate
from repro.core.experiment import NVFI_MESH, VFI2_WINOC
from repro.orchestrator.cache import StudyCache


class UnmemoizedCostModel(CostModel):
    """Every estimate resolves its study (memo -> cache -> simulate)."""

    def estimate(self, job, chip):
        result = self.study(job.spec_for(chip)).result(chip.config)
        return JobEstimate(
            service_s=float(result.total_time_s),
            energy_j=float(result.total_energy_j),
        )


def _serve(model, trace, fleet, policy):
    service = ClusterService(fleet, policy=policy, cost_model=model)
    result = service.run(trace)
    probes = [model.estimate(job, chip) for job in trace.jobs for chip in fleet]
    return result, probes, model.stats()


@pytest.mark.parametrize("policy", ["fifo", "least_edp", "edf_preempt"])
@pytest.mark.parametrize("warm", [False, True])
def test_memoized_estimates_match_the_unmemoized_path(
    policy, warm, burst_trace, small_fleet, study_cache, tmp_path
):
    if warm:
        caches = (study_cache, study_cache)
        # Fill the shared cache first so both runs below are warm.
        _serve(CostModel(study_cache), burst_trace, small_fleet, policy)
    else:
        caches = (StudyCache(tmp_path / "a"), StudyCache(tmp_path / "b"))
    memo = _serve(CostModel(caches[0]), burst_trace, small_fleet, policy)
    reference = _serve(
        UnmemoizedCostModel(caches[1]), burst_trace, small_fleet, policy
    )
    result, probes, stats = memo
    ref_result, ref_probes, ref_stats = reference
    assert probes == ref_probes
    assert stats == ref_stats
    assert result.study_stats == ref_result.study_stats
    assert result.payload_json() == ref_result.payload_json()
    if warm:
        assert stats["computed"] == 0
    else:
        assert stats["computed"] == stats["unique_specs"] > 0
    assert stats["memo_hits"] > 0


def test_chips_of_one_class_share_an_estimate(burst_trace, study_cache):
    """Chips that differ only in id share one estimate per job; a chip
    of another config is its own class and gets its own estimate."""
    twin_a, twin_b, other = (
        ChipSpec(0, 16, VFI2_WINOC), ChipSpec(1, 16, VFI2_WINOC),
        ChipSpec(2, 16, NVFI_MESH),
    )
    job = burst_trace.jobs[0]
    CostModel(study_cache).estimate(job, twin_a)  # both models below run warm
    model, reference = CostModel(study_cache), UnmemoizedCostModel(study_cache)
    probes = (twin_a, twin_b, other, twin_b, twin_a)
    assert [model.estimate(job, chip) for chip in probes] == [
        reference.estimate(job, chip) for chip in probes
    ]
    assert model.stats() == reference.stats()
    assert model.estimate(job, twin_b) is model.estimate(job, twin_a)
    assert model.estimate(job, other) != model.estimate(job, twin_a)
    assert len(model._estimates) == 2
