"""DenseLatencyModel must agree with the reference per-path loop, and a
load refresh must match the reference refresh byte for byte."""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.platforms import build_nvfi_mesh
from repro.noc.dense import DenseLatencyModel, PairwiseEnergy
from repro.noc.network import FlowNetworkModel, NocParams
from repro.noc.routing import build_mesh_routing, build_routing_table
from repro.noc.smallworld import build_small_world
from repro.noc.topology import GridGeometry, LinkKind, build_mesh
from repro.noc.wireless import assign_wireless_links
from repro.noc.placement import center_wireless_placement
from repro.sim.memory import MemorySystem
from repro.vfi.islands import DVFS_LADDER, NOMINAL, quadrant_clusters
from tests.noc import reference_tables
from tests.noc.fabrics import FABRICS, channel_twice, winoc

GEO = GridGeometry(8, 8)
CLUSTERS = list(quadrant_clusters(GEO).node_cluster)
MIXED_FREQS = [2.5e9, 2.25e9, 2.0e9, 1.75e9]


def build_models():
    wireline = build_small_world(GEO, CLUSTERS, seed=3)
    winoc = assign_wireless_links(
        wireline, center_wireless_placement(GEO, CLUSTERS)
    )
    model = FlowNetworkModel(
        winoc, build_routing_table(winoc), CLUSTERS, MIXED_FREQS
    )
    return model


@pytest.fixture(scope="module")
def loaded_model():
    model = build_models()
    rng = np.random.default_rng(0)
    for _ in range(200):
        src, dst = rng.integers(64), rng.integers(64)
        if src != dst:
            model.add_flow(int(src), int(dst), float(rng.uniform(1e8, 5e9)))
    return model


class TestDenseAgreesWithReference:
    @pytest.mark.parametrize("payload", [64.0, 544.0, 2080.0])
    def test_all_pairs_match(self, loaded_model, payload):
        dense = DenseLatencyModel(loaded_model)
        matrix = dense.latency_matrices([payload], dense.utilization())[payload]
        rng = np.random.default_rng(1)
        for _ in range(150):
            src, dst = int(rng.integers(64)), int(rng.integers(64))
            assert matrix[src, dst] == pytest.approx(
                loaded_model.latency(src, dst, payload), rel=1e-9
            )

    def test_unloaded_match_too(self):
        model = build_models()
        dense = DenseLatencyModel(model)
        matrix = dense.latency_matrices([544.0], dense.utilization())[544.0]
        for src, dst in [(0, 63), (5, 5), (17, 43)]:
            assert matrix[src, dst] == pytest.approx(
                model.latency(src, dst, 544.0), rel=1e-9
            )


class TestPairwiseEnergy:
    def test_record_matches_reference(self, loaded_model):
        pairwise = PairwiseEnergy(loaded_model)
        reference = FlowNetworkModel(
            loaded_model.topology,
            loaded_model.routing,
            loaded_model.clusters,
            loaded_model.cluster_frequencies_hz,
        )
        rng = np.random.default_rng(2)
        for _ in range(50):
            src, dst = int(rng.integers(64)), int(rng.integers(64))
            bits = float(rng.uniform(1e3, 1e6))
            assert pairwise.record(src, dst, bits) == pytest.approx(
                reference.record_transfer(src, dst, bits), rel=1e-12
            )
        # counters agree too
        assert pairwise.model.energy.bits_moved == pytest.approx(
            reference.energy.bits_moved
        )
        assert pairwise.model.energy.bit_hops == pytest.approx(
            reference.energy.bit_hops
        )
        assert pairwise.model.energy.wireless_bits == pytest.approx(
            reference.energy.wireless_bits
        )

    def test_rejects_negative_bits(self, loaded_model):
        pairwise = PairwiseEnergy(loaded_model)
        with pytest.raises(ValueError):
            pairwise.record(0, 1, -5)


class TestUtilization:
    def test_capped(self, loaded_model):
        dense = DenseLatencyModel(loaded_model)
        rho = dense.utilization()
        assert (rho <= loaded_model.params.max_utilization + 1e-12).all()
        assert (rho >= 0).all()


class TestBulkClass:
    def test_bulk_dense_matches_reference(self, loaded_model):
        dense_bulk = DenseLatencyModel(loaded_model, bulk=True)
        matrix = dense_bulk.latency_matrices([544.0], dense_bulk.utilization())[544.0]
        rng = np.random.default_rng(3)
        for _ in range(60):
            src, dst = int(rng.integers(64)), int(rng.integers(64))
            assert matrix[src, dst] == pytest.approx(
                loaded_model.latency(src, dst, 544.0, bulk=True), rel=1e-9
            )

    def test_bulk_pairwise_energy_matches_reference(self, loaded_model):
        pairwise = PairwiseEnergy(loaded_model, bulk=True)
        reference = FlowNetworkModel(
            loaded_model.topology,
            loaded_model.routing,
            loaded_model.clusters,
            loaded_model.cluster_frequencies_hz,
            bulk_routing=loaded_model.bulk_routing,
        )
        rng = np.random.default_rng(4)
        for _ in range(30):
            src, dst = int(rng.integers(64)), int(rng.integers(64))
            bits = float(rng.uniform(1e3, 1e6))
            assert pairwise.record(src, dst, bits) == pytest.approx(
                reference.record_transfer(src, dst, bits, bulk=True), rel=1e-12
            )


def blocked_winoc():
    exact = winoc()
    return FlowNetworkModel(
        exact.topology,
        exact.routing,
        exact.clusters,
        exact.cluster_frequencies_hz,
        params=NocParams(dense_block_nodes=5),
        bulk_routing=exact.bulk_routing,
    )


REFRESH_FABRICS = {
    **FABRICS,
    "blocked_winoc": blocked_winoc,
    "channel_twice": channel_twice,
}
PAYLOADS = [0.0, 64.0, 544.0, 2080.0]


def assert_same_bits(actual, expected):
    assert actual.dtype == expected.dtype
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


def load_randomly(model, seed):
    """Random flows over both message classes, plus one flow from node 0
    to the last node (the route crossing a channel twice on the
    ``channel_twice`` line) heavy enough to pin its resources at the
    utilization cap."""
    rng = np.random.default_rng(seed)
    n = model.topology.num_nodes
    model.add_flow(0, n - 1, 2e11)
    for _ in range(4 * n):
        src, dst = rng.integers(n, size=2)
        model.add_flow(
            int(src), int(dst), float(rng.lognormal(21.0, 1.5)),
            bulk=bool(rng.integers(2)),
        )


class TestRefreshMatchesReference:
    """Utilization, latency and bottleneck under random loads equal the
    reference refresh (loop resource load, per-consumer utilization,
    reduceat bottleneck) bit for bit."""

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("fabric", sorted(REFRESH_FABRICS))
    def test_dense_refresh(self, fabric, seed):
        model = REFRESH_FABRICS[fabric]()
        wireless = [
            index for index, link in enumerate(model.topology.links)
            if link.kind is LinkKind.WIRELESS
        ]
        classes = [DenseLatencyModel(model, bulk=bulk) for bulk in (False, True)]
        # Two refreshes: the second reuses the cached serialization terms.
        for round_seed in (2 * seed, 2 * seed + 1):
            load_randomly(model, round_seed)
            # add_flow bills wireless links too; their columns must read 0.
            assert not wireless or model.load.link_load[wireless].any()
            rho = classes[0].utilization()
            assert (rho == model.params.max_utilization).any()
            for dense in classes:
                assert_same_bits(
                    dense._resource_load(), reference_tables.resource_load(dense)
                )
                assert_same_bits(
                    dense.utilization(), reference_tables.utilization(dense)
                )
                assert_same_bits(dense.utilization(), rho)
                got = dense.latency_matrices(PAYLOADS, rho)
                want = reference_tables.latency_matrices(dense, PAYLOADS)
                for bits in PAYLOADS:
                    assert_same_bits(got[bits], want[bits])
                bottleneck = dense.bottleneck_matrix(rho)
                assert_same_bits(bottleneck, reference_tables.bottleneck_matrix(dense))
                # Zero-hop diagonal pairs: no resources, infinite capacity.
                assert np.isinf(np.diag(bottleneck)).all()

    @pytest.mark.parametrize(
        "fabric", sorted(set(REFRESH_FABRICS) - {"channel_twice"})
    )
    def test_memory_refresh(self, fabric):
        model = REFRESH_FABRICS[fabric]()
        points = [NOMINAL] * 4 if fabric == "xy_mesh" else list(DVFS_LADDER[-4:])
        platform = replace(
            build_nvfi_mesh(),
            name=fabric,
            topology=model.topology,
            routing=model.routing,
            vf_points=points,
            noc_params=model.params,
        )
        memory = MemorySystem(platform, locality=0.3)
        rng = np.random.default_rng(5)
        for round_seed in (0, 1):
            load_randomly(platform.network, round_seed)
            memory.add_miss_flows_batch(rng.uniform(0.0, 5e7, 64))
            memory.refresh_latencies()
            got = (
                memory.l2_round_trip_all_s(),
                memory.memory_extra_all_s(),
                memory.bulk_base_latency_s,
                memory.bulk_capacity_bps,
            )
            for actual, expected in zip(got, reference_tables.memory_refresh(memory)):
                assert_same_bits(actual, expected)
