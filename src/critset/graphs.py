"""Weighted directed graphs: validation, file parsing, weak connectivity.

Node ids are plain string tokens. Node and edge weights are finite and
strictly positive, and so are their totals; at most one edge may join an
ordered (source, target) pair.
Graphs are immutable once built; reachability is computed here, as bit masks.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Union

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
    w = float(value)
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

    __slots__ = ("_node_w", "_edge_w", "_succ", "_total_node_w", "_total_edge_w", "_hash")

    def __init__(self, nodes: Iterable[NodeSpec], edges: Iterable[EdgeSpec] = ()):
        # Records are checked one at a time, in order, and so are the running
        # totals: parse_graph names the line of the record being read.
        node_w: dict[str, float] = {}
        running = 0.0
        for spec in nodes:
            node_id, w = (spec, 1.0) if isinstance(spec, str) else spec
            if not isinstance(node_id, str) or not node_id or node_id.split() != [node_id]:
                raise GraphError(f"node id must be a non-empty token without whitespace, got {node_id!r}")
            if node_id in node_w:
                raise GraphError(f"duplicate node id {node_id!r}")
            what = f"node {node_id!r}"
            node_w[node_id] = _check_weight(w, what)
            running = _add_to_total(running, node_w[node_id], what)

        edge_w: dict[tuple[str, str], float] = {}
        succ: dict[str, list[str]] = {v: [] for v in node_w}
        running = 0.0
        for spec in edges:
            if len(spec) == 2:
                src, dst, w = spec[0], spec[1], 1.0
            else:
                src, dst, w = spec
            for endpoint in (src, dst):
                if endpoint not in node_w:
                    raise GraphError(f"edge ({src!r}, {dst!r}) references undeclared node {endpoint!r}")
            if (src, dst) in edge_w:
                raise GraphError(f"duplicate edge ({src!r}, {dst!r})")
            what = f"edge ({src!r}, {dst!r})"
            edge_w[(src, dst)] = _check_weight(w, what)
            running = _add_to_total(running, edge_w[(src, dst)], what)
            succ[src].append(dst)

        self._node_w = node_w
        self._edge_w = edge_w
        self._succ = {v: tuple(ts) for v, ts in succ.items()}
        # sum() rather than the running totals: from Python 3.12 it
        # compensates rounding, so the two can differ in the last bits.
        self._total_node_w = sum(node_w.values())
        self._total_edge_w = sum(edge_w.values())
        if not (math.isfinite(self._total_node_w) and math.isfinite(self._total_edge_w)):
            raise GraphError("node or edge weight total is not finite")
        self._hash = None

    @property
    def node_ids(self) -> tuple[str, ...]:
        return tuple(self._node_w)

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
            return self._succ[node_id]
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

    @property
    def n_components(self) -> int:
        return len(self.components)


@lru_cache(maxsize=128)
def weak_components(g: Graph) -> ComponentPartition:
    """Partition nodes by connectivity in the undirected view of ``g``."""
    ids = g.node_ids
    index = {v: i for i, v in enumerate(ids)}
    neighbors: list[list[int]] = [[] for _ in ids]
    for src, dst, _ in g.edges:
        neighbors[index[src]].append(index[dst])
        neighbors[index[dst]].append(index[src])

    component_of: dict[str, int] = {}
    components: list[frozenset[str]] = []
    for i, start in enumerate(ids):
        if start in component_of:
            continue
        members = frozenset(ids[j] for j in _bits(_closure(neighbors, (i,))))
        component_of.update(dict.fromkeys(members, len(components)))
        components.append(members)
    return ComponentPartition(tuple(components), component_of)


def _successor_indices(g: Graph) -> list[list[int]]:
    """Entry i lists the indices of the successors of ``g.node_ids[i]``."""
    index = {v: i for i, v in enumerate(g.node_ids)}
    return [[index[u] for u in g.successors(v)] for v in g.node_ids]


def _closure(adjacency: list[list[int]], starts: Iterable[int]) -> int:
    """Bit mask of the indices reachable from ``starts`` along ``adjacency``,
    the starts included: bit i set means index i is reached."""
    stack = list(starts)
    seen = sum({1 << v for v in stack})
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


def total_weight(g: Graph, mode: str = "node") -> float:
    """Sum of node weights (``mode="node"``) or edge weights (``"edge"``)."""
    if mode not in MEASURE_MODES:
        raise GraphError(f"unknown measure mode {mode!r}; expected one of {MEASURE_MODES}")
    if mode == "node":
        return g._total_node_w
    if g.n_edges == 0:
        raise GraphError("edge measure is undefined on an edgeless graph")
    return g._total_edge_w


def parse_graph(text: str) -> Graph:
    """Parse graph file content into a Graph.

    One record per line: ``node <id> [weight]``, ``edge <src> <dst>
    [weight]``, or ``# comment``. Fields are whitespace separated and
    weights default to 1. Errors report the offending line number.
    """
    nodes: list[tuple[str, float, int]] = []
    edge_lines: list[tuple[str, str, float, int]] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        kind = fields[0]
        try:
            if kind == "node" and len(fields) in (2, 3):
                w = float(fields[2]) if len(fields) == 3 else 1.0
                nodes.append((fields[1], w, line_no))
            elif kind == "edge" and len(fields) in (3, 4):
                w = float(fields[3]) if len(fields) == 4 else 1.0
                edge_lines.append((fields[1], fields[2], w, line_no))
            else:
                raise GraphParseError(line_no, f"malformed record {line!r}")
        except ValueError as exc:
            if isinstance(exc, GraphParseError):
                raise
            raise GraphParseError(line_no, f"bad weight in {line!r}") from None

    # Graph reads the records one at a time, nodes first, so the line of
    # the record it was reading when it raised is the line at fault.
    reading = [0]

    def specs(records):
        for *spec, line_no in records:
            reading[0] = line_no
            yield tuple(spec)

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
