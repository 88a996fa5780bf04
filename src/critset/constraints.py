"""Constraint evaluators for seed subsets, usable as penalties or gates.

Crisp evaluators return exactly 0 or 1; fuzzy evaluators return a
membership degree in [0, 1]. Every evaluator is stateless and resolvable
from a plain string id, so config files and the command line can name
them: ``same-component``, ``cardinality:<min>:<max>``,
``require:<id,...>``, ``forbid:<id,...>``, ``fuzzy-small:<scale>``.

``evaluate`` takes a frozenset of node ids and is the reference form.
``compile`` gives an evaluator's ``MaskPredicate`` on one graph, the form
the optimizers score with. Every constraint has that one form, and so do
gates composed by min (``&``), so a search reads from it which subsets
pass.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable

import numpy as np

from .graphs import Graph, _mask_of, _not_a_string, weak_components

CRISP = "crisp"
FUZZY = "fuzzy"


class ConstraintError(ValueError):
    """Bad constraint parameters."""


class UnknownConstraintError(ConstraintError):
    """Constraint id not recognized by the registry."""

    def __init__(self, constraint_id: str):
        super().__init__(f"unknown constraint id {constraint_id!r}")
        self.constraint_id = constraint_id


@dataclass(frozen=True)
class MaskPredicate:
    """``pred(mask, n)``: the degree of the subset whose bit i is set when
    node ``graph.node_ids[i]`` is a seed, and whose size is n. It is
    ``by_size[n]`` where the mask lies inside one mask of ``within``, holds
    every node of ``required`` and none of ``forbidden``, and 0 elsewhere.
    It takes Python ints, or numpy arrays of masks (int64, or Python ints
    as objects, which it takes one by one) and sizes to score many subsets
    at once. A degree outside [0, 1] is rejected when it is built."""

    by_size: tuple[float, ...]
    within: tuple[int, ...]
    required: int = 0
    forbidden: int = 0

    def __post_init__(self):
        for d in self.by_size:
            if not 0.0 <= d <= 1.0:
                raise ValueError(f"degree {d!r} outside [0, 1]")

    @cached_property
    def _by_size(self) -> np.ndarray:
        return np.array(self.by_size)

    def __call__(self, mask, n):
        holds = ((mask & self.required) == self.required) & ((mask & self.forbidden) == 0)
        inside = False
        for w in self.within:
            inside = inside | ((mask & w) == mask)
        if isinstance(mask, int):
            return self.by_size[n] if holds and inside else 0.0
        return np.where(holds & inside, self._by_size[n], 0.0)

    def __and__(self, other: MaskPredicate) -> MaskPredicate:
        """The min of the two, as gates compose: no degree is below 0, so
        it is 0 wherever either is."""
        return MaskPredicate(
            tuple(map(min, self.by_size, other.by_size)),
            tuple(a & b for a in self.within for b in other.within if a & b),
            self.required | other.required,
            self.forbidden | other.forbidden,
        )


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


def _compile(g: Graph, by_size=lambda n: 1.0, components=False, required=(), forbidden=()) -> MaskPredicate:
    """A constraint's ``MaskPredicate`` on g: degree ``by_size(n)`` at each
    size n >= 1 (0 for the empty subset), inside one weak component where
    ``components`` is set, else the whole graph, with every node id of
    ``required`` and none of ``forbidden``."""
    within = [_mask_of(g, c) for c in weak_components(g).components] if components else [(1 << g.n_nodes) - 1]
    degrees = (0.0, *map(by_size, range(1, g.n_nodes + 1)))
    return MaskPredicate(degrees, tuple(within), _check_known(g, required), _check_known(g, forbidden))


SAME_COMPONENT = ConstraintEvaluator("same-component", CRISP, same_component, partial(_compile, components=True))


def _on_size(constraint_id: str, kind: str, degree: Callable[[int], float]) -> ConstraintEvaluator:
    """A constraint on the number of seeds alone, of degree ``degree(n)``."""
    return ConstraintEvaluator(constraint_id, kind, lambda g, seeds: degree(len(seeds)), partial(_compile, by_size=degree))


def cardinality_between(lo: int, hi: int) -> ConstraintEvaluator:
    """1 iff lo <= |seeds| <= hi."""
    if not 1 <= lo <= hi:
        raise ConstraintError(f"cardinality bounds must satisfy 1 <= min <= max, got ({lo}, {hi})")
    return _on_size(f"cardinality:{lo}:{hi}", CRISP, lambda n: 1.0 if lo <= n <= hi else 0.0)


def _check_known(g: Graph, ids: frozenset[str]) -> int:
    """The mask of ``ids``, once every one is checked to be a node of ``g``."""
    for v in ids:
        if not g.has_node(v):
            raise ValueError(f"constraint references unknown node id {v!r}")
    return _mask_of(g, ids)


def require_nodes(required) -> ConstraintEvaluator:
    """1 iff every required node is seeded (vacuously 1 when empty)."""
    wanted = frozenset(_not_a_string(required, "required", ConstraintError))

    def evaluate(g: Graph, seeds: frozenset[str]) -> float:
        _check_known(g, wanted)
        return 1.0 if wanted <= seeds else 0.0

    return ConstraintEvaluator("require:" + ",".join(sorted(wanted)), CRISP, evaluate, partial(_compile, required=wanted))


def forbid_nodes(forbidden) -> ConstraintEvaluator:
    """1 iff no forbidden node is seeded."""
    banned = frozenset(_not_a_string(forbidden, "forbidden", ConstraintError))

    def evaluate(g: Graph, seeds: frozenset[str]) -> float:
        _check_known(g, banned)
        return 1.0 if not (banned & seeds) else 0.0

    return ConstraintEvaluator("forbid:" + ",".join(sorted(banned)), CRISP, evaluate, partial(_compile, forbidden=banned))


def fuzzy_small_subset(scale: float) -> ConstraintEvaluator:
    """Decreasing membership in "the subset is small": 1 at n=1, linear ramp.

    Returns max(0, 1 - (n - 1) / scale).
    """
    if not scale > 0:
        raise ConstraintError(f"fuzzy-small scale must be positive, got {scale}")
    return _on_size(f"fuzzy-small:{scale:g}", FUZZY, lambda n: max(0.0, 1.0 - (n - 1) / scale))


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
