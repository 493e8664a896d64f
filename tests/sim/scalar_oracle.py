"""Per-record scalar reference for the simulator's task durations.

The simulator evaluates durations in vectorized passes
(``SystemSimulator._compute_stall``, ``_map_durations`` and
``_barrier_durations``).  This module keeps the plain per-record
arithmetic those passes must reproduce bit for bit: Python-float
compute and stall terms, and a sequential ``total += term`` sum over a
task's key-value sources.
"""

import numpy as np

from repro.noc.packets import kv_stream_bits


def task_time(simulator, record, worker):
    """Compute + memory-stall seconds of *record* on *worker*'s core."""
    core = simulator.platform.core_params
    memory = simulator.memory
    node = int(simulator._worker_nodes[worker])
    frequency = float(simulator._worker_freqs[worker])
    cost = record.cost
    compute = cost.instructions / core.ipc / frequency
    stall = (
        cost.l2_accesses * float(memory.l2_round_trip_all_s()[node])
        + cost.memory_accesses * float(memory.memory_extra_all_s()[node])
    ) / core.mlp_overlap
    return compute + stall


def kv_pull_time(simulator, record, worker):
    """Seconds to stream *record*'s remote key-value inputs into
    *worker*'s node, one source at a time."""
    memory = simulator.memory
    base = memory.bulk_base_latency_s
    raw = memory.bulk_raw_bottleneck_bps
    effective = memory.bulk_capacity_bps
    nodes = simulator._worker_nodes
    chunk_bytes = simulator.params.kv_chunk_bytes
    chunk_bits = kv_stream_bits(chunk_bytes)
    dst = nodes[worker]
    total = 0.0
    for src_worker, nbytes in simulator._kv_sources(record):
        src = nodes[src_worker]
        bits = kv_stream_bits(nbytes, chunk_bytes)
        line_rate = raw[src, dst]
        head = base[src, dst] + (
            min(bits, chunk_bits) / line_rate if np.isfinite(line_rate) else 0.0
        )
        capacity = effective[src, dst]
        streaming = bits / capacity if np.isfinite(capacity) else 0.0
        total += head + streaming
    return float(total)


def barrier_duration(simulator, record, worker):
    """Duration of a reduce or merge task run on *worker*."""
    return task_time(simulator, record, worker) + kv_pull_time(
        simulator, record, worker
    )
