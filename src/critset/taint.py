"""Soiling: spread a marker transaction from seed nodes along directed edges.

A soiled node is anything forward-reachable from the seed set; an edge is
soiled when its source node is soiled, so an edge leaving a corrupt element
carries the corruption regardless of where it points. Cycles contribute each
node and edge exactly once because both collections are sets.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .graphs import Graph, _closure, _ids_of, _mask_of, total_weight


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


def soiled_measure(g: Graph, report: SoiledReport, mode: str = "node") -> float:
    """Weight of the soiled segment as a fraction of the graph's total weight.

    ``mode="node"`` weighs soiled nodes, ``mode="edge"`` weighs soiled
    edges (each counted once even across cycles). Always in [0, 1].
    """
    total = total_weight(g, mode)
    if mode == "node":
        members = report.soiled_nodes
        soiled = sum(g.node_weight(v) for v in g.node_ids if v in members)
    else:
        members = report.soiled_edges
        soiled = sum(w for s, t, w in g.edges if (s, t) in members)
    return soiled / total


def soil(g: Graph, nodes: Iterable[str], mode: str = "node") -> tuple[SoiledReport, float, float]:
    """Propagate and measure in one step: ``(report, soiled, clean)``."""
    report = propagate(g, nodes)
    s = soiled_measure(g, report, mode)
    return report, s, 1.0 - s
