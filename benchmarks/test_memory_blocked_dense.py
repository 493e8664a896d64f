"""Memory guard: blocked dense tables on the 256-core die.

The all-pairs static layers (dense latency tables, pairwise energy,
flow-usage matrices, memory-system expectations) are the simulator's
peak-RSS driver at large core counts.  ``NocParams.dense_block_nodes``
switches them to blocked float32 builds; this benchmark measures the
additional allocation peak (tracemalloc) of constructing every static
table -- network plus :class:`repro.sim.memory.MemorySystem`, which
triggers the dense latency/bulk tables, both pairwise-energy tables,
both flow-usage matrices, the miss-usage table and the latency refresh
-- on a 256-core die, blocked against unblocked.

Acceptance: absolute tracemalloc ceilings on both sides.  The blocked
peak must stay within ``BLOCKED_CEILING_MB``, the allowance of the
earlier ratio guard (unblocked peak 207.0 MB / 4); the exact unblocked
float64 peak must stay within ``UNBLOCKED_CEILING_MB``, its peak when
it was still built from per-pair Python path lists.  (A ratio guard
would fail whenever the unblocked side gets cheaper.)  The committed
``results/memory_blocked_dense.json`` records both sides.
"""

import json
import tracemalloc
from dataclasses import replace

from conftest import write_result

from repro.core.geometry import DieGeometry
from repro.core.platforms import LARGE_DIE_BLOCK_NODES, build_nvfi_mesh
from repro.noc.network import NocParams
from repro.sim.memory import MemorySystem

NUM_CORES = 256
UNBLOCKED_CEILING_MB = 207.0
BLOCKED_CEILING_MB = UNBLOCKED_CEILING_MB / 4.0
RESULT_NAME = "memory_blocked_dense.json"


def _static_table_peak(block_nodes) -> float:
    """Peak additional bytes while building every static table."""
    platform = build_nvfi_mesh(DieGeometry.for_cores(NUM_CORES))
    params = (
        NocParams() if block_nodes is None
        else replace(NocParams(), dense_block_nodes=block_nodes)
    )
    object.__setattr__(platform, "noc_params", params)
    platform.network = platform.build_network()
    tracemalloc.start()
    try:
        MemorySystem(platform, locality=0.6)
        return float(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()


def test_blocked_dense_memory_footprint(results_dir):
    blocked = _static_table_peak(LARGE_DIE_BLOCK_NODES) / 1e6
    unblocked = _static_table_peak(None) / 1e6
    write_result(results_dir, RESULT_NAME, json.dumps({
        "num_cores": NUM_CORES,
        "block_nodes": LARGE_DIE_BLOCK_NODES,
        "blocked_peak_mb": blocked,
        "unblocked_peak_mb": unblocked,
        "blocked_ceiling_mb": BLOCKED_CEILING_MB,
        "unblocked_ceiling_mb": UNBLOCKED_CEILING_MB,
    }, indent=2))
    assert blocked <= BLOCKED_CEILING_MB, (
        f"blocked static tables peak at {blocked:.1f} MB "
        f"(ceiling {BLOCKED_CEILING_MB:.1f} MB)"
    )
    assert unblocked <= UNBLOCKED_CEILING_MB, (
        f"unblocked static tables peak at {unblocked:.1f} MB "
        f"(ceiling {UNBLOCKED_CEILING_MB:.1f} MB)"
    )
