"""Vectorized predecessor-chain walks for the dense all-pairs tables.

Every static table of the flow model (dense head latency, bottleneck
line rate, pairwise energy, flow-usage csr) and the wireless routing
calibration sum per-hop terms along each (src, dst) route.  Rather than
walking one Python path per pair, :func:`walk_steps_block` advances every
route of a block of sources at once, one predecessor hop per numpy
step, over the routing table's predecessor matrix: ~diameter array
steps instead of ~``n * n * diameter`` Python loop iterations.

Two consumers sit on top of it:

* :func:`route_hops` walks all sources in one block and regroups the
  hops into *forward* columns (column ``j`` = every route's ``j``-th hop
  counted from the source).  Accumulating column by column replays the
  exact per-route ``+=`` order of a scalar src-to-dst path walk, so the
  exact float64 builders (``NocParams.dense_block_nodes=None``) are
  bit-identical to it.
* The blocked float32 builders (``dense_block_nodes`` set, large dies)
  walk one source block at a time and accumulate back-to-front, keeping
  transient memory bounded by the block.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple, Tuple

import numpy as np

from repro.noc.topology import LinkKind


def edge_resource_tables(model) -> Tuple[np.ndarray, np.ndarray]:
    """Dense per-edge resource-column lookups for *model*'s topology.

    Returns ``(link_col, chan_col)``, both ``(n, n)`` int32:
    ``link_col[u, v]`` is the directed-link resource column for the hop
    ``u -> v`` (``2 * index + direction``, the layout of
    :meth:`FlowNetworkModel.apply_resource_load`), ``chan_col[u, v]`` the
    shared wireless-channel column for wireless hops; ``-1`` where the
    nodes are not adjacent (or the hop is wired, for ``chan_col``).
    """
    topology = model.topology
    n = topology.num_nodes
    num_links = len(topology.links)
    link_col = np.full((n, n), -1, dtype=np.int32)
    chan_col = np.full((n, n), -1, dtype=np.int32)
    for index, link in enumerate(topology.links):
        link_col[link.a, link.b] = 2 * index
        link_col[link.b, link.a] = 2 * index + 1
        if link.kind is LinkKind.WIRELESS:
            column = 2 * num_links + link.channel
            chan_col[link.a, link.b] = column
            chan_col[link.b, link.a] = column
    return link_col, chan_col


def _describe_cycle(pred_row: np.ndarray, src: int, dst: int, n: int) -> str:
    """Human-readable report of the cycle a predecessor walk fell into.

    Retraces the chain from *dst* toward *src*, recording every node
    until one repeats, and formats the closed cycle plus the hop count at
    which the walk entered it.
    """
    seen = {int(dst): 0}
    path = [int(dst)]
    node = int(dst)
    for _ in range(2 * n + 1):
        node = int(pred_row[node])
        if node < 0:
            return f"chain from {dst} hits unroutable node after {len(path)} hops"
        if node == src:
            return f"chain from {dst} terminates (no cycle found)"
        if node in seen:
            cycle = path[seen[node]:] + [node]
            arrows = " -> ".join(str(c) for c in reversed(cycle))
            return (
                f"route {src} -> {dst} enters the cycle [{arrows}] "
                f"{len(path) - len(cycle) + 1} hop(s) before {dst}"
            )
        seen[node] = len(path)
        path.append(node)
    return f"chain from {dst} exceeds {2 * n} hops without repeating"


def walk_steps_block(
    pred_rows: np.ndarray, srcs: np.ndarray, n: int
) -> Iterator[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """Walk every (src, dst) route of a whole source block in lockstep.

    ``pred_rows`` holds the predecessor rows of the block's sources
    (``pred[srcs]``, shape ``(len(srcs), n)``).  Yields
    ``(rows, dst, prev, cur)`` per step, flattened over the block:
    ``rows`` indexes into *srcs*, and for each still-walking route the
    step contributes the hop ``prev -> cur`` (forward direction).  Step
    ``k`` carries the ``k``-th hop counted backward from each
    destination, and within one step every (src, dst) pair appears at
    most once, so consumers may accumulate with plain fancy-indexed
    ``+=``.

    Validation is per step (materializing a block's full walk would
    defeat the bounded-memory contract of the blocked builders); a cycle
    or an unroutable destination raises with the offending route spelled
    out.
    """
    srcs = np.asarray(srcs)
    block = len(srcs)
    rows = np.repeat(np.arange(block), n)
    dst = np.tile(np.arange(n), block)
    cur = dst.copy()
    keep = cur != srcs[rows]
    rows, dst, cur = rows[keep], dst[keep], cur[keep]
    steps = 0
    while rows.size:
        steps += 1
        if steps > 2 * n:
            row = int(rows[0])
            raise RuntimeError(
                f"predecessor chains do not terminate for {rows.size} "
                f"route(s) in source block {srcs[0]}..{srcs[-1]}: "
                f"{_describe_cycle(pred_rows[row], int(srcs[row]), int(dst[0]), n)}"
            )
        prev = pred_rows[rows, cur]
        if (prev < 0).any():
            bad = prev < 0
            pairs = list(zip(srcs[rows[bad]][:8].tolist(), dst[bad][:8].tolist()))
            raise RuntimeError(
                f"no route for (src, dst) pair(s) {pairs}"
                f"{'...' if bad.sum() > 8 else ''}: predecessor chain "
                f"breaks {steps} hop(s) before the destination"
            )
        yield rows, dst, prev, cur
        keep = prev != srcs[rows]
        rows, dst, cur = rows[keep], dst[keep], prev[keep]


class RouteHops(NamedTuple):
    """Every hop of every (src, dst) route, in forward columns.

    Entry ``i`` is the hop ``prev[i] -> cur[i]`` of the route with pair
    index ``pair[i] = src * n + dst``.  Entries are sorted by (forward
    hop index, pair): column ``j`` -- entries ``bounds[j]:bounds[j + 1]``
    -- holds the ``j``-th hop (counted from the source) of every route
    with more than ``j`` hops, each pair at most once.
    """

    pair: np.ndarray
    prev: np.ndarray
    cur: np.ndarray
    bounds: np.ndarray

    def columns(self) -> Iterator[slice]:
        """Entry slices of the forward columns, first hop first."""
        for lo, hi in zip(self.bounds[:-1].tolist(), self.bounds[1:].tolist()):
            yield slice(lo, hi)


def route_hops(pred: np.ndarray, n: int) -> RouteHops:
    """All routes of predecessor matrix *pred*, regrouped into forward
    columns (see :class:`RouteHops`).

    One :func:`walk_steps_block` over every source yields the hops
    back-to-front; a hop found at backward step ``k`` of a route with
    ``h`` hops is its forward hop ``h - 1 - k``.
    """
    pairs, prevs, curs = [], [], []
    for rows, dst, prev, cur in walk_steps_block(pred, np.arange(n), n):
        pairs.append(rows * n + dst)
        prevs.append(prev)
        curs.append(cur)
    if not pairs:
        empty = np.empty(0, dtype=np.int64)
        return RouteHops(empty, empty, empty, np.zeros(1, dtype=np.int64))
    pair = np.concatenate(pairs)
    back = np.repeat(np.arange(len(pairs)), [len(p) for p in pairs])
    forward = np.bincount(pair, minlength=n * n)[pair] - 1 - back
    order = np.lexsort((pair, forward))
    bounds = np.searchsorted(forward[order], np.arange(len(pairs) + 1))
    return RouteHops(
        pair[order],
        np.concatenate(prevs)[order],
        np.concatenate(curs)[order],
        bounds,
    )


def assemble_blocked_csr(block_entries, n: int, block: int, num_resources: int):
    """Assemble the (n*n, num_resources) usage csr from per-block entries.

    *block_entries(start, end)* yields ``(rows, cols)`` int32 entry
    arrays for sources ``start <= src < end`` (rows are global pair
    indices ``src * n + dst``; duplicates sum, encoding multiplicity).
    Each block becomes its own csr and the result is a ``vstack``: no
    full-size coo intermediate (whose sort/dedup copies dominated peak
    memory) ever exists, so transient storage is bounded per block.
    Entries are int32 -- a pair index fits for any die below ~46k nodes.
    """
    from scipy.sparse import csr_matrix, vstack

    parts = []
    for start in range(0, n, block):
        end = min(start + block, n)
        rows, cols = block_entries(start, end)
        parts.append(
            csr_matrix(
                (
                    np.ones(len(rows), dtype=np.float32),
                    (rows - np.int32(start * n), cols),
                ),
                shape=((end - start) * n, num_resources),
            )
        )
    if not parts:
        return csr_matrix((n * n, num_resources), dtype=np.float32)
    return vstack(parts, format="csr")


def flow_usage_blocked(model, bulk: bool, block: int, num_resources: int):
    """Blocked build of :meth:`FlowNetworkModel._flow_usage`'s csr.

    Same entries as the exact build -- one per directed-link hop (wire
    *and* wireless) plus one per wireless-channel crossing, duplicates
    summed into multiplicities -- but float32 data.  The whole block
    walks in vectorized lockstep (:func:`walk_steps_block`), so entry
    assembly is ~diameter array appends and one concatenate per block.
    """
    n = model.topology.num_nodes
    routing = model.bulk_routing if bulk else model.routing
    pred = routing.predecessor_matrix()
    link_col, chan_col = edge_resource_tables(model)

    def block_entries(start, end):
        srcs = np.arange(start, end)
        base = (srcs * n).astype(np.int32)
        rows_parts = []
        cols_parts = []
        for rows, dst, prev, cur in walk_steps_block(pred[start:end], srcs, n):
            pair = base[rows] + dst.astype(np.int32)
            rows_parts.append(pair)
            cols_parts.append(link_col[prev, cur])
            wireless = chan_col[prev, cur]
            on_channel = wireless >= 0
            if on_channel.any():
                rows_parts.append(pair[on_channel])
                cols_parts.append(wireless[on_channel])
        if not rows_parts:
            empty = np.empty(0, dtype=np.int32)
            return empty, empty
        return np.concatenate(rows_parts), np.concatenate(cols_parts)

    return assemble_blocked_csr(block_entries, n, block, num_resources)
