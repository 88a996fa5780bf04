"""Constraint evaluators for seed subsets, usable as penalties or gates.

Crisp evaluators return exactly 0 or 1; fuzzy evaluators return a
membership degree in [0, 1]. Every evaluator is stateless and resolvable
from a plain string id, so config files and the command line can name
them: ``same-component``, ``cardinality:<min>:<max>``,
``require:<id,...>``, ``forbid:<id,...>``, ``fuzzy-small:<scale>``.

``evaluate`` takes a frozenset of node ids and is the reference form.
``compile`` turns an evaluator into a ``MaskPredicate`` for one graph,
the form the optimizers score with.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from .graphs import Graph, weak_components

CRISP = "crisp"
FUZZY = "fuzzy"


class ConstraintError(ValueError):
    """Bad constraint parameters."""


class UnknownConstraintError(ConstraintError):
    """Constraint id not recognized by the registry."""

    def __init__(self, constraint_id: str):
        super().__init__(f"unknown constraint id {constraint_id!r}")
        self.constraint_id = constraint_id


MaskPredicate = Callable[[Any, Any], Any]
"""``pred(mask, n)``: the degree of the subset whose bit i is set when node
``graph.node_ids[i]`` is a seed, and whose size is n. It takes Python ints,
or numpy int64 arrays of masks and sizes (graphs of at most 63 nodes) to
score many subsets at once. Crisp predicates give bools, fuzzy ones floats."""


@dataclass(frozen=True)
class ConstraintEvaluator:
    """Named, deterministic map from (graph, seed set) to a degree in [0, 1]."""

    id: str
    kind: str
    evaluate: Callable[[Graph, frozenset[str]], float] = field(repr=False)
    compile: Callable[[Graph], MaskPredicate] = field(repr=False)


def same_component(g: Graph, seeds: frozenset[str]) -> float:
    """1 iff all seeds share one weak component (singletons always do)."""
    partition = weak_components(g)
    try:
        indices = {partition.component_of[v] for v in seeds}
    except KeyError as exc:
        raise ValueError(f"seed node {exc.args[0]!r} not in graph") from None
    return 1.0 if len(indices) == 1 else 0.0


def _compile_same_component(g: Graph) -> MaskPredicate:
    partition = weak_components(g)
    components = [0] * partition.n_components
    for i, v in enumerate(g.node_ids):
        components[partition.component_of[v]] |= 1 << i

    def holds(mask, n):
        inside = False
        for c in components:
            inside = inside | ((mask & c) == mask)
        return inside

    return holds

SAME_COMPONENT = ConstraintEvaluator("same-component", CRISP, same_component, _compile_same_component)


def cardinality_between(lo: int, hi: int) -> ConstraintEvaluator:
    """1 iff lo <= |seeds| <= hi."""
    if not 1 <= lo <= hi:
        raise ConstraintError(f"cardinality bounds must satisfy 1 <= min <= max, got ({lo}, {hi})")

    def evaluate(g: Graph, seeds: frozenset[str]) -> float:
        return 1.0 if lo <= len(seeds) <= hi else 0.0

    def compile(g: Graph) -> MaskPredicate:
        return lambda mask, n: (n >= lo) & (n <= hi)

    return ConstraintEvaluator(f"cardinality:{lo}:{hi}", CRISP, evaluate, compile)


def _check_known(g: Graph, ids: frozenset[str]):
    for v in ids:
        if not g.has_node(v):
            raise ValueError(f"constraint references unknown node id {v!r}")


def _known_mask(g: Graph, ids: frozenset[str]) -> int:
    """Bit mask of ``ids`` over ``g.node_ids``, once every id is checked."""
    _check_known(g, ids)
    index = {v: i for i, v in enumerate(g.node_ids)}
    mask = 0
    for v in ids:
        mask |= 1 << index[v]
    return mask


def require_nodes(required) -> ConstraintEvaluator:
    """1 iff every required node is seeded (vacuously 1 when empty)."""
    wanted = frozenset(required)

    def evaluate(g: Graph, seeds: frozenset[str]) -> float:
        _check_known(g, wanted)
        return 1.0 if wanted <= seeds else 0.0

    def compile(g: Graph) -> MaskPredicate:
        want = _known_mask(g, wanted)
        return lambda mask, n: (mask & want) == want

    return ConstraintEvaluator("require:" + ",".join(sorted(wanted)), CRISP, evaluate, compile)


def forbid_nodes(forbidden) -> ConstraintEvaluator:
    """1 iff no forbidden node is seeded."""
    banned = frozenset(forbidden)

    def evaluate(g: Graph, seeds: frozenset[str]) -> float:
        _check_known(g, banned)
        return 1.0 if not (banned & seeds) else 0.0

    def compile(g: Graph) -> MaskPredicate:
        ban = _known_mask(g, banned)
        return lambda mask, n: (mask & ban) == 0

    return ConstraintEvaluator("forbid:" + ",".join(sorted(banned)), CRISP, evaluate, compile)


def fuzzy_small_subset(scale: float) -> ConstraintEvaluator:
    """Decreasing membership in "the subset is small": 1 at n=1, linear ramp.

    Returns max(0, 1 - (n - 1) / scale).
    """
    if not scale > 0:
        raise ConstraintError(f"fuzzy-small scale must be positive, got {scale}")

    def evaluate(g: Graph, seeds: frozenset[str]) -> float:
        return max(0.0, 1.0 - (len(seeds) - 1) / scale)

    def compile(g: Graph) -> MaskPredicate:
        # By size: a lookup for a Python int is cheap, np.maximum on one is not.
        degree = np.maximum(0.0, 1.0 - (np.arange(g.n_nodes + 1) - 1) / scale)
        return lambda mask, n: degree[n]

    return ConstraintEvaluator(f"fuzzy-small:{scale:g}", FUZZY, evaluate, compile)


def resolve(constraint_id: str) -> ConstraintEvaluator:
    """Look up a constraint evaluator by registry id."""
    if constraint_id == "same-component":
        return SAME_COMPONENT
    head, _, rest = constraint_id.partition(":")
    try:
        if head == "cardinality" and rest:
            lo, hi = rest.split(":")
            return cardinality_between(int(lo), int(hi))
        if head == "require":
            return require_nodes(x for x in rest.split(",") if x)
        if head == "forbid":
            return forbid_nodes(x for x in rest.split(",") if x)
        if head == "fuzzy-small" and rest:
            return fuzzy_small_subset(float(rest))
    except (ConstraintError, ValueError) as exc:
        if isinstance(exc, ConstraintError):
            raise
        raise ConstraintError(f"bad parameters in constraint id {constraint_id!r}") from None
    raise UnknownConstraintError(constraint_id)
