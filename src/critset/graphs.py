"""Weighted directed graphs: validation, file parsing, weak connectivity.

Node ids are plain string tokens. Node and edge weights are finite and
strictly positive; at most one edge may join an ordered (source, target)
pair. ``Graph`` is the only code that reads, checks and totals weights:
per measure it keeps what each node adds when soiled, as an exact integer
count of one unit (``_units``), and the finite total that S divides by,
the correctly rounded sum of the weights (``math.fsum``).
Graphs are immutable once built. Reachability, as bit masks, comes from one
iterative SCC pass (``_scc_pass``), run at most once per graph over its edges
for the reach masks and once over their undirected view for the weak components.
Node i is ``node_ids[i]``: bit i of a mask, column i of a row. ``_mask_of``,
``_ids_of``, ``_rows`` and ``_masks`` convert between ids, masks and rows.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
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


def _not_a_string(values, name: str, error=GraphError):
    """``values``, refused if a string: that would iterate as its characters."""
    if isinstance(values, str):
        raise error(f"{name} must be an iterable, not the string {values!r}")
    return values


def _check_token(value, what: str, error=GraphError) -> str:
    """``value``, refused with ``error`` unless a non-empty string without whitespace."""
    if not isinstance(value, str) or value.split() != [value]:
        raise error(f"{what} must be a non-empty token without whitespace, got {value!r}")
    return value


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


def _exact_total(weights: Iterable[float], what: str) -> float:
    """The sum of ``weights``, correctly rounded, which must be finite."""
    try:
        return math.fsum(weights)
    except OverflowError:
        raise GraphError(f"the {what} weight total is not finite") from None


def _units(weights: Iterable[float]) -> tuple[list[int], int]:
    """Each of ``weights`` as an integer count of 2^-K, and K.

    Write each weight as p / 2^e and let K be the largest e: the weight is
    p * 2^(K - e) units of 2^-K, so a sum of weights is exactly its sum of
    units times 2^-K.
    """
    ratios = [w.as_integer_ratio() for w in weights]
    # A float's ratio has a power-of-two denominator 2^e; e is its bit length - 1.
    k = max((d.bit_length() - 1 for _, d in ratios), default=0)
    return [p << (k - d.bit_length() + 1) for p, d in ratios], k


class Graph:
    """Immutable directed graph with positive node and edge weights.

    ``nodes`` entries are ids or ``(id, weight)`` pairs (weight defaults
    to 1); ``edges`` entries are ``(src, dst)`` or ``(src, dst, weight)``.
    Self-loops, cycles, and disconnected graphs are all allowed.
    """

    __slots__ = ("_node_w", "_edge_w", "_ids", "_index", "_succ", "_units", "_totals", "_scc", "_partition")

    def __init__(self, nodes: Iterable[NodeSpec], edges: Iterable[EdgeSpec] = ()):
        # Records are checked one at a time, in order, and so are the running
        # totals: parse_graph names the line of the record being read.
        node_w: dict[str, float] = {}
        node_total = 0.0
        for spec in _not_a_string(nodes, "nodes"):
            try:
                node_id, w = (spec, 1.0) if isinstance(spec, str) else spec
            except (TypeError, ValueError):
                raise GraphError(f"malformed node spec {spec!r}: expected an id or (id, weight)") from None
            if _check_token(node_id, "node id") in node_w:
                raise GraphError(f"duplicate node id {node_id!r}")
            what = f"node {node_id!r}"
            w = node_w[node_id] = _check_weight(w, what)
            node_total = _add_to_total(node_total, w, what)

        ids = tuple(node_w)
        index = {v: i for i, v in enumerate(ids)}
        edge_w: dict[tuple[str, str], float] = {}
        succ: list[list[int]] = [[] for _ in ids]
        running = 0.0
        for spec in _not_a_string(edges, "edges"):
            try:
                if isinstance(spec, str):  # it would unpack into its characters
                    raise ValueError
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
        edge_units, edge_k = _units(edge_w.values())
        out_units = [0] * len(ids)  # entry i: the units of node i's out-edges
        for (src, _), u in zip(edge_w, edge_units):
            out_units[index[src]] += u

        self._node_w = node_w
        self._edge_w = edge_w
        self._ids = ids
        self._index = index
        self._succ = succ  # entry i: the indices of node i's successors
        # Per measure, what each node adds when soiled in units of 2^-K, and K;
        # and the total weight.
        self._units = {"node": _units(node_w.values()), "edge": (out_units, edge_k)}
        self._totals = {"node": _exact_total(node_w.values(), "node"), "edge": _exact_total(edge_w.values(), "edge")}
        # Filled on first use and kept here: indexed by node order, which __eq__ ignores.
        self._scc = self._partition = None

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
        return hash((frozenset(self._node_w.items()), frozenset(self._edge_w.items())))

    def __repr__(self) -> str:
        return f"Graph({self.n_nodes} nodes, {self.n_edges} edges)"


@dataclass(frozen=True)
class ComponentPartition:
    """Disjoint node sets connected when edge direction is ignored."""

    components: tuple[frozenset[str], ...]
    component_of: dict[str, int]


def weak_components(g: Graph) -> ComponentPartition:
    """Partition nodes by connectivity in the undirected view of ``g``, in
    the order of their first nodes: the SCCs of the undirected adjacency."""
    if g._partition is None:
        neighbors = [list(ts) for ts in g._succ]
        for src, dst in g._edge_w:
            neighbors[g._index[dst]].append(g._index[src])
        comp, members, _ = _scc_pass(neighbors)
        g._partition = ComponentPartition(tuple(_ids_of(g, m) for m in members), dict(zip(g._ids, comp)))
    return g._partition


def _reach_and_sources(g: Graph) -> tuple[list[int], list[int]]:
    """The reach mask of each node (the nodes it reaches, itself included),
    and the node of smallest id of each source SCC (one no condensation edge
    enters), in node order. Kept on ``g``, so the lists are not to be changed."""
    if g._scc is None:
        comp, reach, entered = _scc_pass(g._succ)
        # Assigned in descending id order, the last member kept is the smallest.
        smallest = {comp[v]: v for v in sorted(range(len(comp)), key=g._ids.__getitem__, reverse=True)}
        g._scc = [reach[k] for k in comp], sorted(v for k, v in smallest.items() if not entered[k])
    return g._scc


def _reach_of(g: Graph, seeds: int) -> int:
    """The closure of the seed mask ``seeds``: the OR of its nodes' reach masks."""
    reach = _reach_and_sources(g)[0]
    closure = 0
    for i in _bits(seeds):
        closure |= reach[i]
    return closure


def _scc_pass(adjacency: list[list[int]]) -> tuple[list[int], list[int], list[bool]]:
    """Per node of the digraph whose node i has the successors
    ``adjacency[i]``, its strongly connected component (SCC), numbered in
    the order done; per SCC, its reach mask and whether a condensation edge
    enters it. One iterative pass of Tarjan's algorithm (Tarjan 1972),
    searching from nodes 0, 1, ... in turn, does the SCCs in reverse
    topological order: those an SCC's out-edges enter are done before it,
    so its reach is its members ORed with theirs, one OR per condensation edge.
    """
    n = len(adjacency)
    order = [-1] * n  # discovery number, -1 until visited
    low = [0] * n
    comp = [-1] * n  # SCC number, -1 while on the stack
    reach: list[int] = []  # SCC k's reach mask
    entered: list[bool] = []  # whether a condensation edge enters SCC k
    stack: list[int] = []
    count = 0
    for root in range(n):
        if order[root] >= 0:
            continue
        order[root] = low[root] = count
        count += 1
        stack.append(root)
        path = [(root, iter(adjacency[root]))]
        while path:
            v, todo = path[-1]
            for u in todo:
                if order[u] < 0:
                    order[u] = low[u] = count
                    count += 1
                    stack.append(u)
                    path.append((u, iter(adjacency[u])))
                    break
                if comp[u] < 0:
                    low[v] = min(low[v], order[u])
            else:
                path.pop()
                if path:
                    parent = path[-1][0]
                    low[parent] = min(low[parent], low[v])
                if low[v] == order[v]:
                    k = len(reach)
                    mask, w = 0, -1
                    while w != v:
                        w = stack.pop()
                        comp[w] = k
                        mask |= 1 << w
                    for w in _bits(mask):
                        for u in adjacency[w]:
                            if comp[u] != k:
                                mask |= reach[comp[u]]
                                entered[comp[u]] = True
                    reach.append(mask)
                    entered.append(False)
    return comp, reach, entered


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
    """Total node weight (``mode="node"``) or edge weight (``"edge"``),
    correctly rounded (``math.fsum``): the denominator of S, bit for bit."""
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
