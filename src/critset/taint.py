"""Soiling: spread a marker transaction from seed nodes along directed edges.

A soiled node is anything forward-reachable from the seed set; an edge is
soiled when its source node is soiled, so an edge leaving a corrupt element
carries the corruption regardless of where it points. Cycles contribute each
node and edge exactly once because both collections are sets.

``soil()`` and ``cost.SubsetEvaluator`` share the closure of a seed set,
the OR of the graph's reach masks (``graphs._reach_of``), and one soiled
measure, ``_Measure``, so they agree bit for bit on every Python version.
It only sums soiled weights: the per-node weights, in integer units, and
their total, S's denominator, come from the graph.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .graphs import Graph, _ids_of, _mask_of, _not_a_string, _reach_of, _rows, total_weight


@dataclass(frozen=True)
class SoiledReport:
    """Seed set together with the node/edge closure it soils."""

    seeds: frozenset[str]
    soiled_nodes: frozenset[str]
    soiled_edges: frozenset[tuple[str, str]]

    @property
    def n(self) -> int:
        return len(self.seeds)


def seed_set(g: Graph, nodes: Iterable[str]) -> frozenset[str]:
    """Validate ``nodes`` as a seed set for ``g``: nonempty, all present."""
    seeds = frozenset(_not_a_string(nodes, "nodes", ValueError))
    if not seeds:
        raise ValueError("seed set must be nonempty")
    for v in seeds:
        if not g.has_node(v):
            raise ValueError(f"seed node {v!r} not in graph")
    return seeds


def propagate(g: Graph, nodes: Iterable[str]) -> SoiledReport:
    """Forward-reachability closure of the seed set.

    Returns the soiled node set and the soiled edge set (edges whose
    source is soiled). Terminates on cyclic graphs; every node and edge
    appears at most once.
    """
    seeds = seed_set(g, nodes)
    soiled = _ids_of(g, _reach_of(g, _mask_of(g, seeds)))
    soiled_edges = frozenset((s, t) for s, t, _ in g.edges if s in soiled)
    return SoiledReport(seeds, soiled, soiled_edges)


class _Measure:
    """The soiled measure S of one graph under one mode, the only place that
    computes it: S = fsum(soiled weights) / fsum(all weights), bit for bit.

    ``units[u]`` is what soiled node u adds in units of 2^-``exponent``, as
    the graph keeps it: its weight, or under the edge measure the sum of
    its out-edges'. So a subset's soiled weight U is an exact integer, the
    same in any order, and fsum(soiled weights) is U * 2^-exponent rounded
    once. ``total`` is ``total_weight(g, mode)``. S grows with U, and is 1
    when all is soiled. U is an int64 where the total units are below 2^63
    and the exponent at most 1022, so that no S is subnormal; else a Python
    int, joined from int64 sums of the units' 31-bit limbs."""

    def __init__(self, g: Graph, mode: str):
        self.total = total_weight(g, mode)  # rejects an unknown mode, and the edge measure without edges
        units, self.exponent = g._units[mode]
        narrow = sum(units) < 1 << 63 and self.exponent <= 1022
        self.units = np.array(units, dtype=np.int64 if narrow else object)
        # Column j: bits 31j .. 31j + 30 of each unit; a column sums in int64
        # below 2^63 for any graph of under 2^32 nodes.
        width = 0 if narrow else -(-max(units).bit_length() // 31)
        self._limbs = np.array([[u >> 31 * j & (1 << 31) - 1 for j in range(width)] for u in units], dtype=np.int64)

    def weigh(self, covered: np.ndarray) -> np.ndarray:
        """U of each row of the 0/1 array ``covered`` (column u: node u soiled)."""
        if self.units.dtype != object:
            return covered @ self.units
        sums = (covered @ self._limbs).tolist()
        return np.array([sum(s << 31 * j for j, s in enumerate(row)) for row in sums], dtype=object)

    def soiled(self, covered: np.ndarray) -> np.ndarray:
        """S of each row of the 0/1 array ``covered``."""
        return self.share(self.weigh(covered))

    def share(self, weight: np.ndarray) -> np.ndarray:
        """S of each soiled weight U of the array ``weight``, in units."""
        if self.units.dtype == object:
            # Python's int division is correctly rounded, subnormals included.
            scale = 1 << self.exponent
            return np.array([u / scale for u in weight.tolist()], dtype=np.float64) / self.total
        # U < 2^63 rounds once to float64; scaling by 2^-exponent is then exact.
        return np.ldexp(weight.astype(np.float64), -self.exponent) / self.total


def soiled_measure(g: Graph, report: SoiledReport, mode: str = "node") -> float:
    """Weight of the soiled segment as a fraction of the graph's total weight.

    ``mode="node"`` weighs soiled nodes, ``mode="edge"`` weighs soiled
    edges, those leaving the report's soiled nodes (each counted once even
    across cycles). Always in [0, 1].
    """
    unknown = sorted(v for v in report.soiled_nodes if not g.has_node(v))
    if unknown:
        raise ValueError(f"soiled node {unknown[0]!r} not in graph")
    return _Measure(g, mode).soiled(_rows([_mask_of(g, report.soiled_nodes)], g.n_nodes)).tolist()[0]


def soil(g: Graph, nodes: Iterable[str], mode: str = "node") -> tuple[SoiledReport, float, float]:
    """Propagate and measure in one step: ``(report, soiled, clean)``."""
    report = propagate(g, nodes)
    s = soiled_measure(g, report, mode)
    return report, s, 1.0 - s
