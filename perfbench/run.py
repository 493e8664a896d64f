"""End-to-end benchmark of app studies and cluster runs, timed per layer.

Run from the repository root::

    python3 perfbench/run.py --workload paper64 --seed 7 --seconds 36 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
table (and writes the spans to ``.perfbench_out/``).  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 only if
every unit ran and passed its output checks.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Known before the program is imported, so a checkout without ``src``
#: still parses its arguments and fails with exit code 2.
WORKLOAD_NAMES = ("paper64", "die256", "cluster_saturated")

#: name -> unit, for the end-to-end (``--trace 0``) metrics.
END_TO_END = {
    "setup_s": "s",
    "units_per_min": "1/min",
    "serve_s.p50": "s",
    "record_s": "s",
    "replay_s": "s",
    "peak_rss_mb": "MB",
    "winoc_edp_ratio": "ratio",
}

#: Layer self-time metrics: metric name -> span name.
LAYER_SPANS = {
    "apps.run_s": "apps.run",
    "core.design_flow.design_vfi_s": "core.design_flow.design_vfi",
    "core.platforms.build_mesh_s": "core.platforms.build_mesh",
    "core.platforms.build_winoc_s": "core.platforms.build_winoc",
    "sim.construct_s": "sim.construct",
    "sim.run_s": "sim.run",
    "orchestrator.cache_put_s": "orchestrator.cache_put",
    "orchestrator.cache_get_s": "orchestrator.cache_get",
    "cluster.costmodel.prefetch_s": "cluster.costmodel.prefetch",
    "cluster.service.run_s": "cluster.service.run",
    "cluster.record.to_dict_s": "cluster.record.to_dict",
    "cluster.record.digest_s": "cluster.record.digest",
    "cluster.record.save_s": "cluster.record.save",
    "cluster.record.load_s": "cluster.record.load",
    "cluster.record.replay_s": "cluster.record.replay",
    "cluster.record.verify_s": "cluster.record.verify",
}

#: Counts reported per round as measured.
LAYER_COUNTS = (
    "mapreduce.tasks", "sim.simulators", "sim.phases", "sim.tasks_scheduled",
    "orchestrator.cache_bytes", "cluster.unique_specs", "cluster.memo_hits",
    "cluster.completed", "cluster.preemptions", "cluster.retries",
    "cluster.rejected", "cluster.record.bytes",
)


def _import_program():
    """Import the program from this checkout's ``src``; ``None`` if absent."""
    sys.path[:0] = [str(SRC), str(HERE)]
    try:
        import repro
    except ImportError:
        return None
    if Path(repro.__file__).resolve().parent.parent != SRC:
        return None
    import workloads

    return workloads


def _p50(values):
    return statistics.median(values) if values else 0.0


def end_to_end_metrics(outcome, import_s: float) -> dict:
    factor = outcome.calibration.factor()
    unit_s = outcome.unit_s
    return {
        "setup_s": (import_s + _p50(outcome.setup_s)) * factor,
        "units_per_min": (
            len(unit_s) * 60.0 / (sum(unit_s) * factor) if unit_s else 0.0
        ),
        "serve_s.p50": _p50(outcome.phase_s["serve"]) * factor,
        "record_s": _p50(outcome.round_totals("record")) * factor,
        "replay_s": _p50(outcome.round_totals("replay")) * factor,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "winoc_edp_ratio": outcome.winoc_edp_ratio(),
    }


def per_layer_metrics(outcome, spans) -> dict:
    """Per-round layer metrics (``(value, unit)``) from a traced run."""
    rounds = max(outcome.rounds, 1)
    factor = outcome.calibration.factor()
    self_s = spans.self_times()
    metrics = {
        name: (self_s.get(span, 0.0) * factor / rounds, "s")
        for name, span in LAYER_SPANS.items()
    }
    # Trace generation happens once per set-up repetition.
    metrics["cluster.arrivals.generate_s"] = (
        self_s.get("cluster.arrivals.generate", 0.0) * factor
        / max(len(outcome.setup_s), 1),
        "s",
    )
    counts = {name: outcome.counts.get(name, 0.0) / rounds for name in LAYER_COUNTS}
    for name, value in counts.items():
        metrics[name] = (value, "bytes" if name.endswith("bytes") else "count")

    round_s = sum(outcome.unit_s) * factor / rounds
    serve_s = sum(outcome.phase_s["serve"]) * factor / rounds
    replay_s = sum(outcome.phase_s["replay"]) * factor / rounds
    construct_s = metrics["sim.construct_s"][0]
    tasks = counts["sim.tasks_scheduled"]
    arrivals = outcome.counts.get("cluster.arrivals", 0.0) / rounds
    attempts = arrivals + counts["cluster.retries"]
    deadlined = outcome.counts.get("cluster.deadlined", 0.0)
    metrics.update({
        "sim.construct_share": (construct_s / round_s if round_s else 0.0, "ratio"),
        "sim.run_us_per_task": (
            metrics["sim.run_s"][0] * 1e6 / tasks if tasks else 0.0, "us"
        ),
        "cluster.run_us_per_arrival": (
            metrics["cluster.service.run_s"][0] * 1e6 / arrivals if arrivals else 0.0,
            "us",
        ),
        "cluster.arrivals_per_s": (arrivals / serve_s if arrivals else 0.0, "1/s"),
        "cluster.useful_ratio": (
            counts["cluster.completed"] / attempts if attempts else 0.0, "ratio"
        ),
        "cluster.deadline_met_frac": (
            outcome.counts.get("cluster.deadlines_met", 0.0) / deadlined
            if deadlined else 0.0,
            "ratio",
        ),
        "cluster.record.replay_over_run": (
            replay_s / serve_s if arrivals else 0.0, "ratio"
        ),
        "failed_frac": (outcome.failed / max(outcome.attempted, 1), "ratio"),
        "trace.units": (float(len(outcome.unit_s)), "count"),
        "trace.unit_s.p50": (_p50(outcome.unit_s) * factor, "s"),
        "trace.coverage": (spans.coverage(), "ratio"),
        "trace.spans": (float(len(spans.spans)), "count"),
        # Direct cost of the spans inside units, as a share of unit time.
        "trace.calibration": (factor, "ratio"),
        "trace.overhead_frac": (
            sum(1 for span in spans.spans if span[4] is not None)
            * spans.span_cost_s() / sum(outcome.unit_s)
            if outcome.unit_s else 0.0,
            "ratio",
        ),
    })
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workloads = _import_program()
    if workloads is None:
        print(
            f"perfbench: cannot import the program from {SRC}",
            file=sys.stderr,
        )
        return 2
    from layers import Spans

    import_s = time.perf_counter() - _START
    tmp_root = ROOT / ".perfbench_tmp"
    workdir = tmp_root / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    spans = Spans(enabled=bool(args.trace))
    try:
        outcome = workloads.run_workload(
            args.workload, args.seed, args.seconds, spans, workdir
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            tmp_root.rmdir()
        except OSError:
            pass

    if args.trace:
        metrics = per_layer_metrics(outcome, spans)
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        with open(out_dir / f"spans-{args.workload}-{args.seed}.json", "w") as handle:
            json.dump(spans.to_dict(), handle)
    else:
        values = end_to_end_metrics(outcome, import_s)
        metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}

    print(
        f"{args.workload} seed={args.seed} rounds={outcome.rounds} "
        f"units={len(outcome.unit_s)} failed={outcome.failed}/{outcome.attempted} "
        f"calibration={outcome.calibration.factor():.6f}"
    )
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:14.6g} {unit}")
    correct = outcome.failed == 0 and outcome.attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
