"""Soiling: spread a marker transaction from seed nodes along directed edges.

A soiled node is anything forward-reachable from the seed set; an edge is
soiled when its source node is soiled, so an edge leaving a corrupt element
carries the corruption regardless of where it points. Cycles contribute each
node and edge exactly once because both collections are sets.

``soil()`` and ``cost.SubsetEvaluator`` share the closure of a seed set,
the OR of the graph's reach masks (``graphs._reach_of``), and one soiled
measure, ``_Measure``, so they agree bit for bit on every Python version.
It only sums soiled weights, in one float64 product over the limbs of
integer units, exact in any order; the per-node units and their total,
S's denominator, come from the graph.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .graphs import Graph, GraphError, _ids_of, _mask_of, _not_a_string, _reach_of, _rows, total_weight


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
    soiled_edges = frozenset(e for e in g._edge_w if e[0] in soiled)
    return SoiledReport(seeds, soiled, soiled_edges)


class _Measure:
    """The soiled measure S of one graph under one mode, the only place that
    computes it: S = fsum(soiled weights) / fsum(all weights), bit for bit.

    ``units[u]`` is what soiled node u adds in units of 2^-``exponent``, as
    the graph keeps it: its weight, or under the edge measure the sum of
    its out-edges'. So a subset's soiled weight U is an exact integer, the
    same in any order, and fsum(soiled weights) is U * 2^-exponent rounded
    once. ``total`` is ``total_weight(g, mode)``. S grows with U, and is 1
    when all is soiled. U is a float64 product of the 0/1 rows with the
    units' limbs, exact in any order. S is taken from it in float64 where
    two limbs hold each unit and no S is subnormal, else from ``share``."""

    def __init__(self, g: Graph, mode: str):
        if not g.n_nodes:
            raise GraphError("the graph has no nodes")
        self.total = total_weight(g, mode)  # rejects an unknown mode, and the edge measure without edges
        self.units, self.exponent = g._units[mode]
        # Column j: bits bj .. bj + b - 1 of each unit. A column sums N limbs
        # below 2^b, so below 2^53, exactly; b is 31 under 2^22 nodes.
        b = self.bits = min(31, 53 - g.n_nodes.bit_length())
        width = -(-max(self.units).bit_length() // b)
        self._limbs = np.array([[u >> b * j & (1 << b) - 1 for j in range(width)] for u in self.units], dtype=np.float64)
        self._radix = 2.0 ** (b * np.arange(width)) if width <= 2 and self.exponent <= 1022 else None

    def weigh(self, covered: np.ndarray) -> list[int]:
        """U of each row of the 0/1 array ``covered`` (column u: node u soiled)."""
        *lower, weights = (covered @ self._limbs).astype(np.int64).T.tolist()
        for limb in reversed(lower):
            weights = [(u << self.bits) + s for u, s in zip(weights, limb)]
        return weights

    def soiled(self, covered: np.ndarray) -> np.ndarray:
        """S of each row of the 0/1 array ``covered``."""
        if self._radix is None:
            return np.array(self.share(self.weigh(covered)))
        # The high limb's sum times 2^b is exact: adding the low one's rounds U once.
        return np.ldexp(covered @ self._limbs @ self._radix, -self.exponent) / self.total

    def share(self, weights: list[int]) -> list[float]:
        """S of each soiled weight U of ``weights``, in units, by Python's int
        division: correctly rounded, subnormals included."""
        return [u / (1 << self.exponent) / self.total for u in weights]


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
