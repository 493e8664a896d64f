"""The exact static tables equal the per-pair reference walks byte for byte.

:class:`DenseLatencyModel`, :class:`PairwiseEnergy`,
:meth:`FlowNetworkModel._flow_usage` and
:func:`repro.noc.calibration.channel_utilizations` build their tables
from one vectorized forward-order walk (:func:`repro.noc.pathwalk.route_hops`).
Every float must come out with the bits of the scalar src-to-dst
accumulation in :mod:`tests.noc.reference_tables`, every csr with
the same ``indices``/``indptr``/``data`` arrays, and the bottleneck
member layout with each pair's distinct resources in csr order.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.noc.calibration import channel_utilizations
from repro.noc.dense import DenseLatencyModel, PairwiseEnergy
from repro.noc.network import FlowNetworkModel, NocParams
from repro.noc.routing import build_mesh_routing, build_routing_table
from repro.noc.topology import GridGeometry, Link, LinkKind, Topology, build_mesh
from repro.noc.wireless import WirelessSpec
from tests.noc import reference_tables as reference
from tests.noc.fabrics import FABRICS, channel_twice, winoc, wire_preferring


def assert_same_array(actual, expected):
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.dtype == expected.dtype
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


def assert_same_csr(actual, expected):
    assert actual.shape == expected.shape
    for part in ("indices", "indptr", "data"):
        assert_same_array(getattr(actual, part), getattr(expected, part))


def assert_members_match(dense, binary_usage):
    """Every pair's member list, rebuilt hop position by hop position
    from the bottleneck member layout, is exactly its row of the
    deduplicated usage (distinct resources, csr order); the layout is
    intp prefixes of non-increasing width."""
    order, members_by_hop = dense._layout()
    assert order.dtype == np.intp
    assert all(members.dtype == np.intp for members in members_by_hop)
    widths = [len(members) for members in members_by_hop]
    assert widths == sorted(widths, reverse=True)
    rows = [[] for _ in range(len(order))]
    for members in members_by_hop:
        for pair, resource in zip(order[: len(members)], members):
            rows[pair].append(resource)
    indptr, indices = binary_usage.indptr, binary_usage.indices
    for pair, row in enumerate(rows):
        assert row == list(indices[indptr[pair] : indptr[pair + 1]])


def assert_tables_match(model, bulk):
    expected = reference.dense_static(model, bulk)
    dense = DenseLatencyModel(model, bulk=bulk)
    assert_same_array(dense._head, expected["head"])
    assert_same_array(dense._raw_bottleneck, expected["raw_bottleneck"])
    assert_same_array(dense._service, expected["service"])
    assert_same_array(dense._capacity, expected["capacity"])
    assert_same_array(dense._buffer_flits, expected["buffer_flits"])
    assert dense.num_resources == expected["num_resources"]
    assert_same_csr(dense._usage, expected["usage"])
    assert_members_match(dense, expected["binary_usage"])

    pairwise = PairwiseEnergy(model, bulk=bulk)
    energy, hops, wireless = reference.pairwise_static(model, bulk)
    assert_same_array(pairwise.energy_per_bit, energy)
    assert_same_array(pairwise.hops, hops)
    assert_same_array(pairwise.wireless_links, wireless)

    assert_same_csr(model._flow_usage(bulk), reference.flow_usage(model, bulk))


@pytest.mark.parametrize("bulk", [False, True], ids=["latency", "bulk"])
@pytest.mark.parametrize("fabric", sorted(FABRICS))
def test_exact_tables_match_reference(fabric, bulk):
    assert_tables_match(FABRICS[fabric](), bulk)


def test_winoc_routing_classes_differ():
    """The WiNoC case exercises two genuinely different route sets."""
    model = winoc()
    assert model._flow_usage(False).nnz != model._flow_usage(True).nnz


@pytest.mark.parametrize("block", [5, 64])
@pytest.mark.parametrize("fabric", sorted(FABRICS))
def test_blocked_tables_match_exact(fabric, block):
    """The blocked float32 build stores the exact tables' values up to
    float32 rounding (its float64 sums run back-to-front), with the same
    csr structure."""
    exact = FABRICS[fabric]()
    blocked = FlowNetworkModel(
        exact.topology,
        exact.routing,
        exact.clusters,
        exact.cluster_frequencies_hz,
        params=NocParams(dense_block_nodes=block),
        bulk_routing=exact.bulk_routing,
    )
    for bulk in (False, True):
        want = DenseLatencyModel(exact, bulk=bulk)
        got = DenseLatencyModel(blocked, bulk=bulk)
        assert got._head.dtype == np.float32
        np.testing.assert_allclose(got._head, want._head, rtol=1e-6)
        assert_same_array(got._raw_bottleneck, want._raw_bottleneck.astype(np.float32))
        for got_csr, want_csr in [
            (got._usage, want._usage),
            (blocked._flow_usage(bulk), exact._flow_usage(bulk)),
        ]:
            assert_same_array(got_csr.indices, want_csr.indices)
            assert_same_array(got_csr.indptr, want_csr.indptr)
            assert_same_array(got_csr.data, want_csr.data.astype(np.float32))
        (got_order, got_members), (want_order, want_members) = (
            got._layout(), want._layout()
        )
        assert_same_array(got_order, want_order)
        assert len(got_members) == len(want_members)
        for got_hop, want_hop in zip(got_members, want_members):
            assert_same_array(got_hop, want_hop)
        got_e = PairwiseEnergy(blocked, bulk=bulk)
        want_e = PairwiseEnergy(exact, bulk=bulk)
        np.testing.assert_allclose(got_e.energy_per_bit, want_e.energy_per_bit, rtol=1e-6)
        assert_same_array(got_e.hops, want_e.hops.astype(np.float32))
        assert_same_array(got_e.wireless_links, want_e.wireless_links.astype(np.float32))


@st.composite
def random_fabrics(draw):
    """Small meshes plus random wire/wireless shortcuts (small-world
    style), random island maps and island clocks; XY routing when the
    fabric is a plain mesh, weighted shortest paths otherwise."""
    geo = GridGeometry(draw(st.integers(2, 5)), draw(st.integers(1, 4)))
    n = geo.num_nodes
    islands = draw(st.integers(1, 4))
    clusters = draw(st.lists(st.integers(0, islands - 1), min_size=n, max_size=n))
    freqs = draw(
        st.lists(
            st.sampled_from([1.5e9, 1.75e9, 2.0e9, 2.25e9, 2.5e9]),
            min_size=islands,
            max_size=islands,
        )
    )
    num_channels = draw(st.integers(1, 3))
    shortcuts = draw(
        st.lists(
            st.tuples(
                st.integers(0, n - 1),
                st.integers(0, n - 1),
                st.integers(-1, num_channels - 1),
            ),
            max_size=8,
        )
    )
    links = list(build_mesh(geo).links)
    keys = {link.key for link in links}
    for a, b, channel in shortcuts:
        if a == b or frozenset((a, b)) in keys:
            continue
        keys.add(frozenset((a, b)))
        if channel < 0:
            links.append(Link(a, b, LinkKind.WIRE, geo.distance_mm(a, b)))
        else:
            links.append(Link(a, b, LinkKind.WIRELESS, 0.0, channel))
    topology = Topology(name="random", geometry=geo, links=links)
    if len(links) == len(build_mesh(geo).links):
        routing = bulk_routing = build_mesh_routing(topology)
    else:
        routing = build_routing_table(topology)
        bulk_routing = wire_preferring(topology)
    model = FlowNetworkModel(
        topology,
        routing,
        clusters,
        freqs,
        wireless=WirelessSpec(num_channels=num_channels),
        bulk_routing=bulk_routing,
    )
    return model


@given(random_fabrics(), st.booleans())
@settings(max_examples=60, deadline=None)
def test_random_fabrics_match_reference(model, bulk):
    assert_tables_match(model, bulk)


def calibration_loads(model, traffic):
    """(vectorized, scalar) channel loads for *traffic* on *model*."""
    rho = channel_utilizations(
        model.topology,
        model.routing,
        model.clusters,
        model.cluster_frequencies_hz,
        traffic,
        model.wireless,
    )
    scalar = reference.channel_loads(model, traffic)
    return rho, scalar / model.wireless.bandwidth_bps


def random_traffic(n, seed):
    rng = np.random.default_rng(seed)
    traffic = rng.lognormal(mean=20.0, sigma=3.0, size=(n, n))
    traffic[rng.random((n, n)) < 0.2] = 0.0  # unloaded pairs are skipped
    np.fill_diagonal(traffic, 1e9)  # self traffic never loads a channel
    return traffic


class TestChannelUtilizations:
    def test_route_crossing_one_channel_twice(self):
        """0 -radio- 2 -wire- 3 -radio- 5, both radios on channel 0: the
        scalar loop adds such a route's rate to the channel twice, one
        ``+=`` at a time, in (pair, hop) order."""
        model = channel_twice()
        path, _ = model._path(0, 5)
        assert [link.channel for link in path].count(0) == 2
        for seed in range(20):
            rho, expected = calibration_loads(model, random_traffic(6, seed))
            assert_same_array(rho, expected)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_winoc_matches_sequential_add_flow(self, seed):
        model = winoc()
        rho, expected = calibration_loads(model, random_traffic(64, seed))
        assert (rho > 0).any()
        assert_same_array(rho, expected)

    @given(random_fabrics(), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_random_fabrics_match_sequential_add_flow(self, model, seed):
        n = model.topology.num_nodes
        rho, expected = calibration_loads(model, random_traffic(n, seed))
        assert_same_array(rho, expected)

    def test_rejects_mismatched_traffic(self):
        model = winoc()
        with pytest.raises(ValueError, match="does not match"):
            channel_utilizations(
                model.topology, model.routing, model.clusters,
                model.cluster_frequencies_hz, np.zeros((4, 4)), model.wireless,
            )
