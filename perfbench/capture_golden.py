"""Write ``golden.json``: default-seed output digests of every workload.

The digests come from the program's own one-call paths
(``run_app_study(..., use_cache=False)`` and ``ClusterService.run`` with
its built-in prefetch), with no spans installed.  Regenerate only when a
change is meant to alter results::

    python3 perfbench/capture_golden.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from repro.orchestrator.spec import StudySpec  # noqa: E402

from workloads import (  # noqa: E402
    CLUSTER_SOURCE,
    DEFAULT_SEED,
    GOLDEN_PATH,
    STUDY_WORKLOADS,
    cluster_fleet,
    cluster_service,
    cluster_trace,
    result_digest,
    study,
)


def capture() -> dict:
    studies = {}
    for name, workload in STUDY_WORKLOADS.items():
        for app in workload.apps:
            spec = StudySpec(
                app=app, scale=workload.scale, seed=DEFAULT_SEED,
                num_workers=workload.num_workers,
            )
            studies[f"{name}/{app}"] = {
                config: result_digest(result)
                for config, result in study(spec).results.items()
            }
    result = cluster_service(cluster_fleet(), None, 1).run(
        cluster_trace(DEFAULT_SEED), source=CLUSTER_SOURCE
    )
    return {
        "seed": DEFAULT_SEED,
        "studies": studies,
        "cluster": {"replay_digest": result.replay_digest},
    }


if __name__ == "__main__":
    with open(GOLDEN_PATH, "w") as handle:
        json.dump(capture(), handle, indent=2, sort_keys=True)
        handle.write("\n")
