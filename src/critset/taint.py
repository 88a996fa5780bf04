"""Soiling: spread a marker transaction from seed nodes along directed edges.

A soiled node is anything forward-reachable from the seed set; an edge is
soiled when its source node is soiled, so an edge leaving a corrupt element
carries the corruption regardless of where it points. Cycles contribute each
node and edge exactly once because both collections are sets.

``soil()`` and ``cost.SubsetEvaluator`` share one soiled measure,
``_Measure``, so they agree bit for bit on every Python version. It only
sums soiled weights: the per-node weights and their total, S's
denominator, come from the graph.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .graphs import Graph, _closure, _ids_of, _mask_of, _rows, total_weight


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
    seeds = frozenset(nodes)
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
    soiled = _ids_of(g, _closure(g._succ, _mask_of(g, seeds)))
    soiled_edges = frozenset((s, t) for s, t, _ in g.edges if s in soiled)
    return SoiledReport(seeds, soiled, soiled_edges)


def _sums_exact(weights: Sequence[float]) -> bool:
    """Whether every sum of positive ``weights``, over any subset and in any
    order, is exact in float64.

    Write each weight as p / 2^e and let K be the largest e. Every partial
    sum is then a multiple of 2^-K, at most the total of p * 2^(K - e) of
    them. A float64 holds such a sum exactly when that total is below 2^53
    and K <= 1022 (so no sum is subnormal), and then no addition rounds.
    """
    ratios = [w.as_integer_ratio() for w in weights]
    # A float's ratio has a power-of-two denominator 2^e; e is its bit length - 1.
    k = max((d.bit_length() - 1 for _, d in ratios), default=0)
    units = 0
    for p, d in ratios:
        units += p << (k - d.bit_length() + 1)
    return k <= 1022 and units < 1 << 53


class _Measure:
    """The soiled measure of one graph under one mode. ``weights[u]`` is
    what soiled node u adds, as the graph keeps it: its weight, or under
    the edge measure the total of its out-edges in edge order. A soiled
    weight is a matrix-vector product when every sum of the weights is
    exact in float64 (``exact``), else an ordered sum in ascending node
    order. ``total`` is ``total_weight(g, mode)``, the same weights added
    in node order, so S is at most 1, and 1 when all is soiled."""

    def __init__(self, g: Graph, mode: str):
        self.total = total_weight(g, mode)  # rejects an unknown mode, and the edge measure without edges
        weights = g._weights[mode]
        self.weights = np.array(weights, dtype=np.float64)
        self.exact = _sums_exact(weights)

    def soiled(self, covered: np.ndarray) -> list[float]:
        """S of each row of the bool array ``covered`` (column u: node u soiled)."""
        if self.exact:
            weight = covered @ self.weights
        else:
            weight = np.add.accumulate(np.where(covered, self.weights, 0.0), axis=1)[:, -1]
        return (weight / self.total).tolist()


def soiled_measure(g: Graph, report: SoiledReport, mode: str = "node") -> float:
    """Weight of the soiled segment as a fraction of the graph's total weight.

    ``mode="node"`` weighs soiled nodes, ``mode="edge"`` weighs soiled
    edges, those leaving the report's soiled nodes (each counted once even
    across cycles). Always in [0, 1].
    """
    unknown = sorted(v for v in report.soiled_nodes if not g.has_node(v))
    if unknown:
        raise ValueError(f"soiled node {unknown[0]!r} not in graph")
    return _Measure(g, mode).soiled(_rows([_mask_of(g, report.soiled_nodes)], g.n_nodes))[0]


def soil(g: Graph, nodes: Iterable[str], mode: str = "node") -> tuple[SoiledReport, float, float]:
    """Propagate and measure in one step: ``(report, soiled, clean)``."""
    report = propagate(g, nodes)
    s = soiled_measure(g, report, mode)
    return report, s, 1.0 - s
