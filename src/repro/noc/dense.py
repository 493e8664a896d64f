"""Vectorized all-pairs latency evaluation.

:meth:`repro.noc.network.FlowNetworkModel.latency` walks a path per call;
the system simulator needs all-pairs latencies for several packet classes
at every phase relaxation, which would cost ~10^4 path walks per refresh.
:class:`DenseLatencyModel` precomputes the load-independent pieces
(router pipeline, wire traversal, synchronizers, wireless propagation and
token overhead, per-payload serialization) per (src, dst) pair once, and
reduces the load-dependent pieces, given one utilization vector per load
refresh, to one sparse mat-vec (queueing) plus a per-hop gather-max
(bottleneck capacity) over shared *resources* -- directed wire links and
wireless channels.

The load-independent tables come from vectorized route walks
(:mod:`repro.noc.pathwalk`), never from per-pair Python paths: with
``NocParams.dense_block_nodes=None`` one forward-order walk over all
sources yields exact float64 tables, bit-identical to a scalar src-to-dst
accumulation (``tests/noc/test_static_tables.py`` compares them byte for
byte with per-pair reference builders); with a block size set, a blocked
walk yields float32 tables in bounded memory for large dies.
``tests/noc/test_dense.py`` checks the loaded latencies against the
per-path :meth:`~repro.noc.network.FlowNetworkModel.latency`.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np
from scipy.sparse import csr_matrix

from repro.noc.network import FlowNetworkModel
from repro.noc.pathwalk import (
    assemble_blocked_csr, edge_resource_tables, walk_steps_block,
)
from repro.noc.topology import LinkKind


def _resource_tables(model: FlowNetworkModel):
    """Per-resource service time, raw capacity and buffer bound.

    Returns ``(num_resources, service, capacity, buffer_flits)``;
    resource columns are directed wire links (``2 * index + direction``)
    followed by the shared wireless channels.  Wireless links' own
    columns keep zero capacity: their hops bill against the channel.
    """
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
            continue  # wireless hops bill against their channel
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
    return num_resources, service, capacity, buffer_flits


def _hop_head_terms(model: FlowNetworkModel, u, v, wireless):
    """Link and synchronizer head-latency terms (s) of hops ``u -> v``.

    Each is evaluated exactly as a scalar per-hop walk evaluates it: the
    link term is the pre-summed wireless propagation + token overhead, or
    ``link_traversal_cycles`` over the slower endpoint clock; the
    synchronizer term is zero on same-island hops (adding ``+0.0`` to a
    positive sum is exact).
    """
    node_freq = model._node_freq
    params = model.params
    f_link = np.minimum(node_freq[u], node_freq[v])
    link_s = np.where(
        wireless,
        model.wireless.propagation_s + model.wireless.token_overhead_s,
        params.link_traversal_cycles / f_link,
    )
    clusters = np.asarray(model.clusters)
    sync_s = np.where(
        clusters[u] != clusters[v], params.domain_sync_cycles / f_link, 0.0
    )
    return link_s, sync_s


def _link_energy_tables(model: FlowNetworkModel, n: int):
    """Per-edge ``(link pJ/bit, wireless hop count)`` tables, (n, n).

    The link energy excludes the hop's router, which the builders add
    separately.
    """
    params = model.energy.params
    link_pj = np.zeros((n, n))
    wireless = np.zeros((n, n))
    for link in model.topology.links:
        if link.kind is LinkKind.WIRELESS:
            pj, radio = params.wireless_pj_per_bit, 1.0
        else:
            pj, radio = params.wire_pj_per_bit_per_mm * link.length_mm, 0.0
        link_pj[link.a, link.b] = link_pj[link.b, link.a] = pj
        wireless[link.a, link.b] = wireless[link.b, link.a] = radio
    return link_pj, wireless


def _static_entries(model, resources, head, usage, raw_bottleneck) -> Dict:
    """The static-table dict both builders return; ``serialization``
    and ``layout`` fill on first use."""
    num_resources, service, capacity, buffer_flits = resources
    return dict(
        node_freq=model._node_freq.copy(), num_resources=num_resources,
        service=service, capacity=capacity, buffer_flits=buffer_flits,
        head=head, usage=usage, raw_bottleneck=raw_bottleneck,
        serialization={}, layout=None,
    )


class DenseLatencyModel:
    """All-pairs latency under load, vectorized over path resources.

    With ``bulk=True`` the model evaluates the wire-preferring bulk
    message class (see :class:`repro.noc.network.FlowNetworkModel`)."""

    def __init__(self, model: FlowNetworkModel, bulk: bool = False):
        self.model = model
        self.bulk = bulk
        self.num_nodes = model.topology.num_nodes
        self._num_links = len(model.topology.links)
        # Everything below is load-independent; share it across rebuilt
        # networks of the same platform (same fabric and clocks) through
        # the network's static cache.  The frequency fingerprint guards
        # against a stale cache being handed to a re-clocked network.
        key = (
            "dense_static",
            bulk,
            model.topology.epoch,
            len(model.topology.links),
        )
        static = model.static_cache.get(key)
        if static is None or not np.array_equal(
            static["node_freq"], model._node_freq
        ):
            static = self._build_static(model, bulk)
            model.static_cache[key] = static
        self.num_resources = static["num_resources"]
        self._service = static["service"]
        self._capacity = static["capacity"]
        self._buffer_flits = static["buffer_flits"]
        self._head = static["head"]
        self._usage = static["usage"]
        self._raw_bottleneck = static["raw_bottleneck"]
        self._static = static

    def _build_static(self, model: FlowNetworkModel, bulk: bool) -> Dict:
        """Exact float64 tables, or the blocked float32 build when
        ``NocParams.dense_block_nodes`` is set.

        The exact build replays, column by forward column of
        :meth:`FlowNetworkModel._route_hops`, the per-hop ``+=`` sequence
        of a scalar src-to-dst walk -- router pipeline, then link term,
        then domain synchronizer, then the destination's ejection
        pipeline -- so every head latency is bit-identical to it.
        """
        if model.params.dense_block_nodes is not None:
            return self._build_static_blocked(
                model, bulk, model.params.dense_block_nodes
            )
        n = self.num_nodes
        resources = _resource_tables(model)
        num_resources, capacity = resources[0], resources[2]
        node_freq = model._node_freq
        link_col, chan_col = edge_resource_tables(model)
        hops = model._route_hops(bulk)
        u, v = hops.prev, hops.cur
        channel = chan_col[u, v]
        wireless = channel >= 0
        billed = np.where(wireless, channel, link_col[u, v])
        pipeline_s = model.params.router_pipeline_cycles / node_freq
        link_s, sync_s = _hop_head_terms(model, u, v, wireless)
        head = np.zeros(n * n)
        for column in hops.columns():
            pair = hops.pair[column]
            head[pair] += pipeline_s[u[column]]
            head[pair] += link_s[column]
            head[pair] += sync_s[column]
        # Ejection pipeline at the destination; the diagonal (zero hops)
        # is the local-port traversal.
        head += np.tile(pipeline_s, n)
        usage = csr_matrix(
            (np.ones(len(billed)), (hops.pair, billed)),
            shape=(n * n, num_resources),
        )
        raw_bottleneck = np.full(n * n, np.inf)
        np.minimum.at(raw_bottleneck, hops.pair, capacity[billed])
        return _static_entries(
            model, resources, head.reshape(n, n), usage,
            raw_bottleneck.reshape(n, n),
        )

    def _build_static_blocked(
        self, model: FlowNetworkModel, bulk: bool, block: int
    ) -> Dict:
        """Blocked float32 build of the static tables (large dies).

        Same quantities as the exact build, but sources walk in blocks of
        *block* (:func:`repro.noc.pathwalk.walk_steps_block`), each hop's
        head terms are pre-summed per edge and accumulate back-to-front,
        head latencies store as float32, and usage entries assemble per
        source block, so peak transient memory is bounded by the block.
        """
        n = self.num_nodes
        resources = _resource_tables(model)
        num_resources, capacity = resources[0], resources[2]
        node_freq = model._node_freq

        # Dense per-edge tables over every (u, v) (only adjacent entries
        # are ever read): billed resource column and pre-summed head
        # latency of the hop u -> v.
        link_col, chan_col = edge_resource_tables(model)
        billed_col = np.where(chan_col >= 0, chan_col, link_col)
        pipeline_s = model.params.router_pipeline_cycles / node_freq
        u, v = np.indices((n, n))
        link_s, sync_s = _hop_head_terms(model, u, v, chan_col >= 0)
        hop_head = pipeline_s[:, None] + link_s + sync_s

        routing = model.bulk_routing if bulk else model.routing
        pred = routing.predecessor_matrix()
        head = np.zeros((n, n), dtype=np.float32)
        raw_bottleneck = np.full((n, n), np.inf, dtype=np.float32)

        def block_entries(start, end):
            # The whole block walks in lockstep: per step, each still-
            # walking (src, dst) route appears exactly once, so the 2-D
            # fancy-indexed += sees no duplicate indices.
            srcs = np.arange(start, end)
            base = (srcs * n).astype(np.int32)
            acc_head = np.zeros((end - start, n))
            acc_cap = np.full((end - start, n), np.inf)
            rows_parts: List[np.ndarray] = []
            cols_parts: List[np.ndarray] = []
            for rows, dst, prev, cur in walk_steps_block(
                pred[start:end], srcs, n
            ):
                acc_head[rows, dst] += hop_head[prev, cur]
                billed = billed_col[prev, cur]
                acc_cap[rows, dst] = np.minimum(
                    acc_cap[rows, dst], capacity[billed]
                )
                rows_parts.append(base[rows] + dst.astype(np.int32))
                cols_parts.append(billed)
            # Ejection pipeline at every destination; the diagonal
            # (zero hops) collapses to the local-port traversal.
            acc_head += pipeline_s
            head[start:end] = acc_head
            raw_bottleneck[start:end] = acc_cap
            if not rows_parts:
                empty = np.empty(0, dtype=np.int32)
                return empty, empty
            return np.concatenate(rows_parts), np.concatenate(cols_parts)

        usage = assemble_blocked_csr(block_entries, n, block, num_resources)
        return _static_entries(model, resources, head, usage, raw_bottleneck)

    # ------------------------------------------------------------------ #

    def _resource_load(self) -> np.ndarray:
        """Current load per resource (bits/s); wireless-link columns
        (zero capacity) read zero, as their hops bill the channel."""
        load = self.model.load
        return np.where(
            self._capacity > 0,
            np.concatenate((load.link_load.reshape(-1), load.channel_load)),
            0.0,
        )

    def utilization(self) -> np.ndarray:
        """Per-resource utilization (capped at the model's maximum).

        Both message classes share the resource tables, so one load
        refresh computes this once for either class's queries."""
        load = self._resource_load()
        with np.errstate(divide="ignore", invalid="ignore"):
            rho = np.where(self._capacity > 0, load / self._capacity, 0.0)
        return np.minimum(rho, self.model.params.max_utilization)

    def _queue_per_resource(self, rho: np.ndarray) -> np.ndarray:
        return np.minimum(
            self._service * rho / (2.0 * (1.0 - rho)),
            np.maximum(self._buffer_flits - 1, 0) * self._service,
        )

    def record_token_wait(self, rho: np.ndarray) -> None:
        """Channel-access wait (token acquisition + queueing) per shared
        channel at utilization *rho*; one observation per load refresh."""
        model = self.model
        if not (model._tracer.enabled and model._wireless_channels):
            return
        queue_per_resource = self._queue_per_resource(rho)
        token = model.wireless.token_overhead_s
        for channel in model._wireless_channels:
            model._tracer.histogram_record(
                f"noc.token_wait_s/{model.trace_label}",
                token + queue_per_resource[2 * self._num_links + channel],
            )

    def latency_matrices(
        self, payload_bits: Sequence[float], rho: np.ndarray
    ) -> Dict[float, np.ndarray]:
        """All-pairs latency for each payload size at utilization *rho*."""
        n = self.num_nodes
        queue = np.asarray(
            self._usage @ self._queue_per_resource(rho)
        ).reshape(n, n)
        # Serialization at the raw line rate (contention is already in the
        # queueing term; see repro.noc.network module docs), once per size.
        serialization, raw = self._static["serialization"], self._raw_bottleneck
        for bits in set(payload_bits) - serialization.keys():
            serialization[bits] = np.where(np.isinf(raw), 0.0, bits / raw)
        head = self._head + queue
        return {bits: head + serialization[bits] for bits in payload_bits}

    def raw_bottleneck_matrix(self) -> np.ndarray:
        """Load-independent per-pair bottleneck line rate (bits/s)."""
        return self._raw_bottleneck

    def _layout(self):
        """``(order, members)``: pairs by descending count of distinct
        resources (usage csr rows), so the ``k``-th resource of every pair
        that has one is ``members[k]``, a prefix of ``order`` (``intp``:
        narrower indices gather slower).  Built on the first bottleneck
        query; the simulator asks only the bulk class (~6 MB at 256 cores).
        """
        if self._static["layout"] is None:
            indptr = self._usage.indptr
            counts = np.diff(indptr)
            order = np.argsort(-counts, kind="stable")
            starts = indptr[:-1][order].astype(np.intp)
            indices = self._usage.indices.astype(np.intp)
            # widths[k]: number of pairs with more than k resources.
            widths = np.cumsum(np.bincount(counts)[::-1])[::-1][1:]
            members = [indices[starts[:w] + k] for k, w in enumerate(widths)]
            self._static["layout"] = (order, members)
        return self._static["layout"]

    def bottleneck_matrix(self, rho: np.ndarray) -> np.ndarray:
        """Effective per-pair path capacity (bits/s) at utilization *rho*.

        The per-pair min over path resources is a max of inverse
        capacities (positive, as utilization is capped below 1): one
        gather and one in-place max per hop position of :meth:`_layout`,
        then one scatter back to pair order.  Pairs without resources
        keep 0 and read infinite capacity.
        """
        effective = self._capacity * (1.0 - rho)
        inverse = np.zeros(self.num_resources)
        used = effective > 0
        inverse[used] = 1.0 / effective[used]
        order, members_by_hop = self._layout()
        worst = np.zeros(len(order))
        for members in members_by_hop:
            prefix = worst[: len(members)]
            np.maximum(prefix, inverse[members], out=prefix)
        n = self.num_nodes
        bottleneck = np.full(n * n, np.inf)
        nonzero = worst > 0
        bottleneck[order[nonzero]] = 1.0 / worst[nonzero]
        return bottleneck.reshape(n, n)


class PairwiseEnergy:
    """Load-independent per-pair transfer energy, hops and wireless share.

    Path energy per bit never depends on load, so it is precomputed for
    every (src, dst) pair; recording a transfer is then O(1) while still
    feeding the same counters as
    :meth:`repro.noc.energy.NocEnergyModel.transfer_energy`.
    """

    def __init__(self, model: FlowNetworkModel, bulk: bool = False):
        self.model = model
        self.bulk = bulk
        # Path energies depend only on the fabric, never on clocks or
        # load; share the tables across rebuilt networks of one platform.
        key = (
            "pairwise_static",
            bulk,
            model.topology.epoch,
            len(model.topology.links),
        )
        static = model.static_cache.get(key)
        if static is None:
            static = self._build_static(model, bulk)
            model.static_cache[key] = static
        self.energy_per_bit, self.hops, self.wireless_links = static

    @staticmethod
    def _build_static(model: FlowNetworkModel, bulk: bool):
        """Exact float64 tables, or the blocked float32 build when
        ``NocParams.dense_block_nodes`` is set.

        The exact build starts every route at the ejection router and
        adds, column by forward column, each hop's router and then its
        link energy -- the scalar walk's ``+=`` order -- before the final
        pJ -> J scaling, so the tables are bit-identical to it.
        """
        if model.params.dense_block_nodes is not None:
            return PairwiseEnergy._build_static_blocked(model, bulk)
        n = model.topology.num_nodes
        params = model.energy.params
        edge_pj, edge_wireless = _link_energy_tables(model, n)
        hops = model._route_hops(bulk)
        link_pj = edge_pj[hops.prev, hops.cur]
        pj_per_bit = np.full((n, n), params.router_pj_per_bit)  # ejection router
        np.fill_diagonal(pj_per_bit, 0.0)
        flat = pj_per_bit.reshape(-1)
        for column in hops.columns():
            pair = hops.pair[column]
            flat[pair] += params.router_pj_per_bit
            flat[pair] += link_pj[column]
        count = np.bincount(hops.pair, minlength=n * n).astype(float)
        wireless_links = np.bincount(
            hops.pair, weights=edge_wireless[hops.prev, hops.cur], minlength=n * n
        )
        return (
            pj_per_bit * 1e-12,  # joules per bit
            count.reshape(n, n),
            wireless_links.reshape(n, n),  # wireless hops on path
        )

    @staticmethod
    def _build_static_blocked(model: FlowNetworkModel, bulk: bool):
        """Blocked float32 build: per-edge energy tables (router and link
        pJ pre-summed) accumulated back-to-front per source block."""
        n = model.topology.num_nodes
        params = model.energy.params
        link_pj, hop_wireless = _link_energy_tables(model, n)
        hop_pj = params.router_pj_per_bit + link_pj
        routing = model.bulk_routing if bulk else model.routing
        pred = routing.predecessor_matrix()
        energy_per_bit = np.zeros((n, n), dtype=np.float32)
        hops = np.zeros((n, n), dtype=np.float32)
        wireless_links = np.zeros((n, n), dtype=np.float32)
        block = model.params.dense_block_nodes or n
        for start in range(0, n, block):
            end = min(start + block, n)
            srcs = np.arange(start, end)
            acc_pj = np.zeros((end - start, n))
            acc_hops = np.zeros((end - start, n))
            acc_wireless = np.zeros((end - start, n))
            # Lockstep over the whole block; each (src, dst) route shows
            # up at most once per step, so the fancy-indexed += is safe.
            for rows, dst, prev, cur in walk_steps_block(
                pred[start:end], srcs, n
            ):
                acc_pj[rows, dst] += hop_pj[prev, cur]
                acc_hops[rows, dst] += 1.0
                acc_wireless[rows, dst] += hop_wireless[prev, cur]
            # Ejection router on every non-trivial path (diagonal stays 0).
            acc_pj[acc_hops > 0] += params.router_pj_per_bit
            energy_per_bit[start:end] = acc_pj * 1e-12
            hops[start:end] = acc_hops
            wireless_links[start:end] = acc_wireless
        return energy_per_bit, hops, wireless_links

    def record(self, src: int, dst: int, bits: float) -> float:
        """O(1) equivalent of ``model.record_transfer(src, dst, bits)``."""
        if bits < 0:
            raise ValueError(f"bits must be >= 0, got {bits}")
        if src == dst or bits == 0:
            return 0.0
        energy = self.energy_per_bit[src, dst] * bits
        counters = self.model.energy
        counters.dynamic_joules += energy
        counters.bits_moved += bits
        counters.bit_hops += bits * self.hops[src, dst]
        counters.wireless_bits += bits * self.wireless_links[src, dst]
        if self.model._tracer.enabled:
            # Path lists are cached, so this is a lookup + O(hops) loop;
            # with the default NullTracer it costs one attribute check.
            links, _ = self.model._path(src, dst, bulk=self.bulk)
            self.model._count_flits(links, bits)
        return energy

    def record_aggregate(
        self,
        energy_j: float,
        bits: float,
        bit_hops: float,
        wireless_bits: float,
    ) -> float:
        """Feed pre-expected aggregates (e.g. bank-distribution averages)
        into the energy counters."""
        counters = self.model.energy
        counters.dynamic_joules += energy_j
        counters.bits_moved += bits
        counters.bit_hops += bit_hops
        counters.wireless_bits += wireless_bits
        tracer = self.model._tracer
        if tracer.enabled:
            # Aggregates have no single path; attribute expected (possibly
            # fractional) flit-hops to the medium-level counters only.
            flit_bits = self.model.params.flit_bits
            label = self.model.trace_label
            tracer.counter_add(
                "noc.flits.wireless", wireless_bits / flit_bits, key=label
            )
            tracer.counter_add(
                "noc.flits.wired", (bit_hops - wireless_bits) / flit_bits,
                key=label,
            )
        return energy_j
