"""Per-pair reference builders for the exact static tables, and the
reference load refresh.

The builders are the scalar walks the vectorized builders in
:mod:`repro.noc.dense`, :meth:`repro.noc.network.FlowNetworkModel._flow_usage`
and :func:`repro.noc.calibration.channel_utilizations` must reproduce
byte for byte: one Python path walk per (src, dst) pair through
``FlowNetworkModel._path``, each hop's terms added in src-to-dst order.

The refresh oracles (:func:`resource_load` through
:func:`memory_refresh`) recompute what one
:meth:`repro.sim.memory.MemorySystem.refresh_latencies` derives from the
current NoC load the straightforward way: a Python loop over links for
the resource loads, utilization recomputed by every consumer, and the
per-pair bottleneck as a segmented ``np.maximum.reduceat`` over the
deduplicated usage csr.  They are oracles only -- far too slow for the
simulator.
"""

from typing import Dict, List

import numpy as np
from scipy.sparse import csr_matrix

from repro.noc.network import FlowNetworkModel
from repro.noc.topology import LinkKind


def dense_static(model: FlowNetworkModel, bulk: bool) -> Dict:
    """Scalar build of :class:`repro.noc.dense.DenseLatencyModel`'s tables."""
    n = model.topology.num_nodes
    links = model.topology.links
    num_links = len(links)
    num_channels = max(model.wireless.num_channels, 1)
    num_resources = 2 * num_links + num_channels

    service = np.zeros(num_resources)
    capacity = np.zeros(num_resources)
    buffer_flits = np.zeros(num_resources)
    node_freq = model._node_freq
    params = model.params
    for index, link in enumerate(links):
        if link.kind is LinkKind.WIRELESS:
            continue
        f_link = min(node_freq[link.a], node_freq[link.b])
        cap = params.flit_bits * f_link / params.link_traversal_cycles
        for direction in (0, 1):
            resource = 2 * index + direction
            service[resource] = params.link_traversal_cycles / f_link
            capacity[resource] = cap
            buffer_flits[resource] = params.wire_buffer_flits
    for channel in range(num_channels):
        resource = 2 * num_links + channel
        service[resource] = params.flit_bits / model.wireless.bandwidth_bps
        capacity[resource] = model.wireless.bandwidth_bps
        buffer_flits[resource] = params.wi_buffer_flits

    head = np.zeros((n, n))
    rows: List[int] = []
    cols: List[int] = []
    resources_per_pair: List[np.ndarray] = []
    for src in range(n):
        for dst in range(n):
            pair = src * n + dst
            if src == dst:
                head[src, dst] = params.router_pipeline_cycles / node_freq[src]
                resources_per_pair.append(np.empty(0, dtype=np.int64))
                continue
            pair_resources: List[int] = []
            t = 0.0
            node = src
            path_links, directions = model._path(src, dst, bulk=bulk)
            for link, direction in zip(path_links, directions):
                peer = link.other(node)
                t += params.router_pipeline_cycles / node_freq[node]
                index = model._link_index[link.key]
                if link.kind is LinkKind.WIRELESS:
                    t += (
                        model.wireless.propagation_s
                        + model.wireless.token_overhead_s
                    )
                    resource = 2 * num_links + link.channel
                else:
                    f_link = min(node_freq[node], node_freq[peer])
                    t += params.link_traversal_cycles / f_link
                    resource = 2 * index + direction
                pair_resources.append(resource)
                if model.clusters[node] != model.clusters[peer]:
                    t += params.domain_sync_cycles / min(
                        node_freq[node], node_freq[peer]
                    )
                node = peer
            t += params.router_pipeline_cycles / node_freq[dst]
            head[src, dst] = t
            unique = np.array(sorted(set(pair_resources)), dtype=np.int64)
            resources_per_pair.append(unique)
            rows.extend([pair] * len(pair_resources))
            cols.extend(pair_resources)
    usage = csr_matrix(
        (np.ones(len(rows)), (rows, cols)),
        shape=(n * n, num_resources),
    )
    binary_rows = np.concatenate(
        [np.full(len(r), pair, dtype=np.int64)
         for pair, r in enumerate(resources_per_pair)]
    )
    binary_cols = np.concatenate(resources_per_pair)
    binary_usage = csr_matrix(
        (np.ones(len(binary_rows)), (binary_rows, binary_cols)),
        shape=(n * n, num_resources),
    )
    raw_bottleneck = np.full(n * n, np.inf)
    for pair, resources in enumerate(resources_per_pair):
        if len(resources):
            raw_bottleneck[pair] = capacity[resources].min()
    return {
        "node_freq": node_freq.copy(),
        "num_resources": num_resources,
        "service": service,
        "capacity": capacity,
        "buffer_flits": buffer_flits,
        "head": head,
        "usage": usage,
        "binary_usage": binary_usage,
        "raw_bottleneck": raw_bottleneck.reshape(n, n),
    }


def pairwise_static(model: FlowNetworkModel, bulk: bool):
    """Scalar build of :class:`repro.noc.dense.PairwiseEnergy`'s tables:
    ``(energy_per_bit, hops, wireless_links)``."""
    n = model.topology.num_nodes
    params = model.energy.params
    energy_per_bit = np.zeros((n, n))
    hops = np.zeros((n, n))
    wireless_links = np.zeros((n, n))
    for src in range(n):
        for dst in range(n):
            if src == dst:
                continue
            links, _ = model._path(src, dst, bulk=bulk)
            pj_per_bit = params.router_pj_per_bit  # ejection router
            wireless = 0
            for link in links:
                pj_per_bit += params.router_pj_per_bit
                if link.kind is LinkKind.WIRELESS:
                    pj_per_bit += params.wireless_pj_per_bit
                    wireless += 1
                else:
                    pj_per_bit += params.wire_pj_per_bit_per_mm * link.length_mm
            energy_per_bit[src, dst] = pj_per_bit * 1e-12
            hops[src, dst] = len(links)
            wireless_links[src, dst] = wireless
    return energy_per_bit, hops, wireless_links


def flow_usage(model: FlowNetworkModel, bulk: bool) -> csr_matrix:
    """Scalar build of :meth:`FlowNetworkModel._flow_usage`."""
    n = model.topology.num_nodes
    num_links = len(model.topology.links)
    num_channels = model.load.channel_load.shape[0]
    rows: List[int] = []
    cols: List[int] = []
    for src in range(n):
        for dst in range(n):
            if src == dst:
                continue
            pair = src * n + dst
            for link, direction in zip(*model._path(src, dst, bulk=bulk)):
                index = model._link_index[link.key]
                rows.append(pair)
                cols.append(2 * index + direction)
                if link.kind is LinkKind.WIRELESS:
                    rows.append(pair)
                    cols.append(2 * num_links + link.channel)
    return csr_matrix(
        (np.ones(len(rows)), (rows, cols)),
        shape=(n * n, 2 * num_links + num_channels),
    )


def channel_loads(model: FlowNetworkModel, traffic_rate_bps: np.ndarray) -> np.ndarray:
    """Channel loads of the scalar calibration loop: one ``add_flow`` per
    loaded pair, row-major, onto an unloaded *model*."""
    model.reset_flows()
    n = model.topology.num_nodes
    for src in range(n):
        for dst in range(n):
            rate = traffic_rate_bps[src, dst]
            if rate > 0 and src != dst:
                model.add_flow(src, dst, rate)
    return model.load.channel_load.copy()


def resource_load(dense) -> np.ndarray:
    """Per-resource load of *dense*'s network, one link at a time;
    wireless-link columns stay zero (their hops bill the channel)."""
    load = np.zeros(dense.num_resources)
    link_load = dense.model.load.link_load
    links = dense.model.topology.links
    for index, link in enumerate(links):
        if link.kind is LinkKind.WIRELESS:
            continue
        load[2 * index] = link_load[index, 0]
        load[2 * index + 1] = link_load[index, 1]
    channels = dense.model.load.channel_load
    load[2 * len(links) : 2 * len(links) + len(channels)] = channels
    return load


def utilization(dense) -> np.ndarray:
    load = resource_load(dense)
    with np.errstate(divide="ignore", invalid="ignore"):
        rho = np.where(dense._capacity > 0, load / dense._capacity, 0.0)
    return np.minimum(rho, dense.model.params.max_utilization)


def latency_matrices(dense, payload_bits) -> Dict[float, np.ndarray]:
    """All-pairs latency per payload, utilization and serialization
    recomputed on the spot."""
    n = dense.num_nodes
    rho = utilization(dense)
    queue_per_resource = np.minimum(
        dense._service * rho / (2.0 * (1.0 - rho)),
        np.maximum(dense._buffer_flits - 1, 0) * dense._service,
    )
    queue = np.asarray(dense._usage @ queue_per_resource).reshape(n, n)
    bottleneck = dense._raw_bottleneck
    head = dense._head + queue
    return {
        bits: head + np.where(np.isinf(bottleneck), 0.0, bits / bottleneck)
        for bits in payload_bits
    }


def bottleneck_matrix(dense) -> np.ndarray:
    """Effective per-pair capacity: a per-row ``np.maximum.reduceat`` of
    inverse capacities over the deduplicated usage csr."""
    rho = utilization(dense)
    effective = dense._capacity * (1.0 - rho)
    inverse = np.zeros(dense.num_resources)
    used = effective > 0
    inverse[used] = 1.0 / effective[used]
    usage = csr_matrix(
        (np.ones_like(dense._usage.data), dense._usage.indices, dense._usage.indptr),
        shape=dense._usage.shape,
    )
    worst = np.zeros(usage.shape[0])
    if len(usage.indices):
        data = inverse[usage.indices]
        indptr = usage.indptr
        starts = np.minimum(indptr[:-1], len(data) - 1)
        worst = np.maximum.reduceat(data, starts)
        worst[indptr[:-1] == indptr[1:]] = 0.0
    n = dense.num_nodes
    bottleneck = np.full(n * n, np.inf)
    nonzero = worst > 0
    bottleneck[nonzero] = 1.0 / worst[nonzero]
    return bottleneck.reshape(n, n)


def memory_refresh(memory):
    """The four arrays one ``MemorySystem.refresh_latencies`` sets:
    ``(l2_round_trip, mem_extra, bulk_base_latency_s, bulk_capacity_bps)``."""
    l_ctrl = latency_matrices(memory.dense, [memory._ctrl_bits])[memory._ctrl_bits]
    bulk = latency_matrices(memory.dense_bulk, [memory._data_bits, 0.0])
    l_data = bulk[memory._data_bits]
    n = memory.num_nodes
    mem = memory.platform.memory_params
    mc = memory.controller_of_bank
    banks = np.arange(n)
    extra_per_bank = l_ctrl[banks, mc] + l_data[mc, banks] + mem.dram_latency_s
    block = memory.platform.noc_params.dense_block_nodes or n
    l2_round_trip = np.empty(n)
    mem_extra = np.empty(n)
    for start in range(0, n, block):
        end = min(start + block, n)
        round_trip = (
            l_ctrl[start:end]
            + memory._bank_service_s[None, :]
            + l_data.T[start:end]
        )
        prob = memory.bank_prob[start:end]
        l2_round_trip[start:end] = (prob * round_trip).sum(axis=1)
        mem_extra[start:end] = (prob * extra_per_bank[None, :]).sum(axis=1)
    return l2_round_trip, mem_extra, bulk[0.0], bottleneck_matrix(memory.dense_bulk)
