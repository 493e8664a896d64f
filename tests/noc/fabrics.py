"""Test fabrics shared by the static-table and load-refresh suites.

Four 8x8 fabrics (XY mesh, four-island VFI mesh, WiNoC with a
wire-preferring bulk class, and a fault-degraded WiNoC) plus a six-node
line whose latency route crosses one wireless channel twice.
"""

from repro.noc.network import FlowNetworkModel
from repro.noc.placement import center_wireless_placement
from repro.noc.routing import (
    build_mesh_routing,
    build_routing_table,
    default_link_weight,
)
from repro.noc.smallworld import build_small_world
from repro.noc.topology import GridGeometry, Link, LinkKind, Topology, build_mesh
from repro.noc.wireless import WirelessSpec, assign_wireless_links
from repro.vfi.islands import quadrant_clusters

GEO = GridGeometry(8, 8)
CLUSTERS = list(quadrant_clusters(GEO).node_cluster)
MIXED_FREQS = [2.5e9, 2.25e9, 2.0e9, 1.75e9]


def wire_preferring(topology):
    """Bulk-class routing: wireless hops priced out, as on the platforms."""

    def weight(link):
        if link.kind is LinkKind.WIRELESS:
            return 1e4
        return default_link_weight(link)

    return build_routing_table(topology, weight=weight)


def winoc_topology():
    wireline = build_small_world(GEO, CLUSTERS, seed=3)
    return assign_wireless_links(
        wireline, center_wireless_placement(GEO, CLUSTERS)
    )


def xy_mesh():
    mesh = build_mesh(GEO)
    return FlowNetworkModel(mesh, build_mesh_routing(mesh), [0] * 64, [2.5e9])


def vfi_mesh():
    mesh = build_mesh(GEO)
    return FlowNetworkModel(mesh, build_mesh_routing(mesh), CLUSTERS, MIXED_FREQS)


def winoc():
    topology = winoc_topology()
    return FlowNetworkModel(
        topology,
        build_routing_table(topology),
        CLUSTERS,
        MIXED_FREQS,
        bulk_routing=wire_preferring(topology),
    )


def degraded_winoc():
    """Failed wires and one lost wireless link, rerouted by shortest path
    (what :class:`repro.faults.engine.FaultEngine` builds)."""
    topology = winoc_topology()
    wires = [l for l in topology.links if l.kind is LinkKind.WIRE]
    radios = [l for l in topology.links if l.kind is LinkKind.WIRELESS]
    drop = [wires[3].key, wires[17].key, wires[40].key, radios[0].key]
    degraded = topology.without_links(drop, name="degraded")
    assert degraded.is_connected()
    return FlowNetworkModel(
        degraded,
        build_routing_table(degraded),
        CLUSTERS,
        MIXED_FREQS,
        bulk_routing=wire_preferring(degraded),
    )


FABRICS = {
    "xy_mesh": xy_mesh,
    "vfi_mesh": vfi_mesh,
    "winoc": winoc,
    "degraded_winoc": degraded_winoc,
}


def channel_twice():
    """0 -radio- 2 -wire- 3 -radio- 5, both radios on channel 0: the
    latency route 0 -> 5 crosses channel 0 twice."""
    geo = GridGeometry(6, 1)
    links = [Link(i, i + 1, LinkKind.WIRE, 2.5) for i in range(5)]
    links += [
        Link(0, 2, LinkKind.WIRELESS, 0.0, 0),
        Link(3, 5, LinkKind.WIRELESS, 0.0, 0),
    ]
    topology = Topology(name="twice", geometry=geo, links=links)
    routing = build_routing_table(
        topology,
        weight=lambda link: 0.5 if link.kind is LinkKind.WIRELESS else 1.0,
    )
    return FlowNetworkModel(
        topology, routing, [0] * 6, [2.5e9], wireless=WirelessSpec(num_channels=1)
    )
