"""Weighted directed graphs: validation, file parsing, weak connectivity.

Node ids are plain string tokens. Node and edge weights are finite and
strictly positive; at most one edge may join an ordered (source, target)
pair. ``Graph`` is the only code that reads, checks and totals weights:
per measure it keeps what each node adds when soiled and the finite total
that S divides by.
Graphs are immutable once built; reachability is computed here, as bit masks.
Node i is ``node_ids[i]``: bit i of a mask, column i of a row. ``_mask_of``,
``_ids_of``, ``_rows`` and ``_masks`` convert between ids, masks and rows.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Union

import numpy as np

MEASURE_MODES = ("node", "edge")

NodeSpec = Union[str, tuple]
EdgeSpec = tuple


class GraphError(ValueError):
    """Invalid graph structure, weights, or measure mode."""


class GraphParseError(GraphError):
    """Malformed graph file content."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def _check_weight(value, what: str) -> float:
    try:
        w = float(value)
    except (TypeError, ValueError):
        raise GraphError(f"non-numeric weight {value!r} on {what}") from None
    if not math.isfinite(w):
        raise GraphError(f"non-finite weight {value!r} on {what}")
    if not w > 0:
        raise GraphError(f"non-positive weight {value!r} on {what}")
    return w


def _add_to_total(total: float, w: float, what: str) -> float:
    total += w
    if not math.isfinite(total):
        raise GraphError(f"weight {w!r} on {what} makes the weight total non-finite")
    return total


class Graph:
    """Immutable directed graph with positive node and edge weights.

    ``nodes`` entries are ids or ``(id, weight)`` pairs (weight defaults
    to 1); ``edges`` entries are ``(src, dst)`` or ``(src, dst, weight)``.
    Self-loops, cycles, and disconnected graphs are all allowed.
    """

    __slots__ = ("_node_w", "_edge_w", "_ids", "_index", "_succ", "_weights", "_totals", "_hash")

    def __init__(self, nodes: Iterable[NodeSpec], edges: Iterable[EdgeSpec] = ()):
        # Records are checked one at a time, in order, and so are the running
        # totals: parse_graph names the line of the record being read.
        node_w: dict[str, float] = {}
        node_total = 0.0
        for spec in nodes:
            try:
                node_id, w = (spec, 1.0) if isinstance(spec, str) else spec
            except (TypeError, ValueError):
                raise GraphError(f"malformed node spec {spec!r}: expected an id or (id, weight)") from None
            if not isinstance(node_id, str) or not node_id or node_id.split() != [node_id]:
                raise GraphError(f"node id must be a non-empty token without whitespace, got {node_id!r}")
            if node_id in node_w:
                raise GraphError(f"duplicate node id {node_id!r}")
            what = f"node {node_id!r}"
            w = node_w[node_id] = _check_weight(w, what)
            node_total = _add_to_total(node_total, w, what)

        ids = tuple(node_w)
        index = {v: i for i, v in enumerate(ids)}
        edge_w: dict[tuple[str, str], float] = {}
        succ: list[list[int]] = [[] for _ in ids]
        out_w = [0.0] * len(ids)  # entry i: node i's out-edge total, in edge order
        running = 0.0
        for spec in edges:
            try:
                src, dst, w = (*spec, 1.0) if len(spec) == 2 else spec
            except (TypeError, ValueError):
                raise GraphError(f"malformed edge spec {spec!r}: expected (src, dst) or (src, dst, weight)") from None
            for endpoint in (src, dst):
                if endpoint not in node_w:
                    raise GraphError(f"edge ({src!r}, {dst!r}) references undeclared node {endpoint!r}")
            if (src, dst) in edge_w:
                raise GraphError(f"duplicate edge ({src!r}, {dst!r})")
            what = f"edge ({src!r}, {dst!r})"
            w = edge_w[(src, dst)] = _check_weight(w, what)
            running = _add_to_total(running, w, what)
            succ[index[src]].append(index[dst])
            out_w[index[src]] += w
        edge_total = 0.0
        for w in out_w:
            edge_total += w
        if not math.isfinite(edge_total):
            raise GraphError("the edge weight total is not finite")

        self._node_w = node_w
        self._edge_w = edge_w
        self._ids = ids
        self._index = index
        self._succ = succ  # entry i: the indices of node i's successors
        # Per measure, what each node adds when soiled, and their total in node order.
        self._weights = {"node": tuple(node_w.values()), "edge": tuple(out_w)}
        self._totals = {"node": node_total, "edge": edge_total}
        self._hash = None

    @property
    def node_ids(self) -> tuple[str, ...]:
        return self._ids

    @property
    def n_nodes(self) -> int:
        return len(self._node_w)

    @property
    def n_edges(self) -> int:
        return len(self._edge_w)

    @property
    def edges(self) -> tuple[tuple[str, str, float], ...]:
        return tuple((s, t, w) for (s, t), w in self._edge_w.items())

    def has_node(self, node_id: str) -> bool:
        return node_id in self._node_w

    def has_edge(self, src: str, dst: str) -> bool:
        return (src, dst) in self._edge_w

    def node_weight(self, node_id: str) -> float:
        try:
            return self._node_w[node_id]
        except KeyError:
            raise GraphError(f"unknown node id {node_id!r}") from None

    def edge_weight(self, src: str, dst: str) -> float:
        try:
            return self._edge_w[(src, dst)]
        except KeyError:
            raise GraphError(f"no edge ({src!r}, {dst!r})") from None

    def successors(self, node_id: str) -> tuple[str, ...]:
        try:
            return tuple(self._ids[j] for j in self._succ[self._index[node_id]])
        except KeyError:
            raise GraphError(f"unknown node id {node_id!r}") from None

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._node_w == other._node_w and self._edge_w == other._edge_w

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((frozenset(self._node_w.items()), frozenset(self._edge_w.items())))
        return self._hash

    def __repr__(self) -> str:
        return f"Graph({self.n_nodes} nodes, {self.n_edges} edges)"


@dataclass(frozen=True)
class ComponentPartition:
    """Disjoint node sets connected when edge direction is ignored."""

    components: tuple[frozenset[str], ...]
    component_of: dict[str, int]


@lru_cache(maxsize=128)
def weak_components(g: Graph) -> ComponentPartition:
    """Partition nodes by connectivity in the undirected view of ``g``."""
    neighbors = [list(ts) for ts in g._succ]
    for i, ts in enumerate(g._succ):
        for j in ts:
            neighbors[j].append(i)

    components: list[frozenset[str]] = []
    seen = 0
    for i in range(g.n_nodes):
        if not seen >> i & 1:
            component = _closure(neighbors, 1 << i)
            seen |= component
            components.append(_ids_of(g, component))
    return ComponentPartition(tuple(components), {v: k for k, c in enumerate(components) for v in c})


def _closure(adjacency: list[list[int]], starts: int) -> int:
    """Bit mask of the indices reachable along ``adjacency`` from those of
    the mask ``starts``, the starts included."""
    stack = list(_bits(starts))
    seen = starts
    while stack:
        v = stack.pop()
        for u in adjacency[v]:
            bit = 1 << u
            if not seen & bit:
                seen |= bit
                stack.append(u)
    return seen


def _bits(mask: int):
    """The indices of the set bits of ``mask``, in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _mask_of(g: Graph, ids: Iterable[str]) -> int:
    """The mask of the node ids ``ids``, every one a node of ``g``."""
    index = g._index
    mask = 0
    for v in ids:
        mask |= 1 << index[v]
    return mask


def _ids_of(g: Graph, mask: int) -> frozenset[str]:
    """The node ids of the set bits of ``mask``."""
    ids = g._ids
    return frozenset(ids[i] for i in _bits(mask))


def _rows(masks: Iterable[int], n: int) -> np.ndarray:
    """Bool array of n columns whose row j, column u is bit u of ``masks[j]``."""
    # Bit u of a little-endian integer is bit u % 8 of its byte u // 8.
    width = (n + 7) // 8
    packed = np.frombuffer(b"".join(m.to_bytes(width, "little") for m in masks), dtype=np.uint8)
    return np.unpackbits(packed.reshape(-1, width), axis=1, count=n, bitorder="little").view(bool)


def _masks(rows) -> list[int]:
    """The mask of each row of ``rows``, nonzero column u setting bit u."""
    return [int.from_bytes(row.tobytes(), "little") for row in np.packbits(rows, axis=1, bitorder="little")]


def total_weight(g: Graph, mode: str = "node") -> float:
    """Total node weight (``mode="node"``) or edge weight (``"edge"``):
    the denominator of S, bit for bit. It adds, in node order, each node's
    weight or the total of its out-edges in edge order."""
    if mode not in MEASURE_MODES:
        raise GraphError(f"unknown measure mode {mode!r}; expected one of {MEASURE_MODES}")
    if mode == "edge" and g.n_edges == 0:
        raise GraphError("edge measure is undefined on an edgeless graph")
    return g._totals[mode]


def parse_graph(text: str) -> Graph:
    """Parse graph file content into a Graph.

    One record per line: ``node <id> [weight]``, ``edge <src> <dst>
    [weight]``, or ``# comment``. Fields are whitespace separated and
    weights default to 1. Errors report the offending line number.
    """
    nodes: list[tuple[int, NodeSpec]] = []
    edge_lines: list[tuple[int, EdgeSpec]] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        kind = fields[0]
        # Weights stay text: Graph converts and checks them.
        if kind == "node" and len(fields) in (2, 3):
            nodes.append((line_no, fields[1] if len(fields) == 2 else tuple(fields[1:])))
        elif kind == "edge" and len(fields) in (3, 4):
            edge_lines.append((line_no, tuple(fields[1:])))
        else:
            raise GraphParseError(line_no, f"malformed record {line!r}")

    # Graph reads the records one at a time, nodes first, so the line of
    # the record it was reading when it raised is the line at fault.
    reading = [0]

    def specs(records):
        for line_no, spec in records:
            reading[0] = line_no
            yield spec

    try:
        g = Graph(specs(nodes), specs(edge_lines))
    except GraphError as exc:
        raise GraphParseError(reading[0], str(exc)) from None
    if not g.n_nodes:
        raise GraphError("graph file declares no nodes")
    return g


def serialize_graph(g: Graph) -> str:
    """Render ``g`` in the graph file format; parses back to an equal Graph."""
    lines = []
    for node_id in g.node_ids:
        w = g.node_weight(node_id)
        lines.append(f"node {node_id}" if w == 1.0 else f"node {node_id} {w!r}")
    for src, dst, w in g.edges:
        lines.append(f"edge {src} {dst}" if w == 1.0 else f"edge {src} {dst} {w!r}")
    return "\n".join(lines) + "\n"
