"""Cost functions over seed subsets.

The score of a subset trades its soiled measure S against its size n out
of N graph nodes. The basic form is S^2 + beta(n) * (1 - n/N)^2; the
generalized form is alpha(n)*S^2 + beta(n)*(gamma(n) - delta(n)*n/N)^2
plus penalty terms eps_k * C_k. Gate constraints are composed by min
(fuzzy AND); a failing gate makes the score undefined rather than low,
and undefined scores can never be ranked.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from . import constraints as _constraints
from .graphs import MEASURE_MODES, Graph, _bits, _closure, _ids_of, _mask_of, _rows, total_weight
from .taint import seed_set

CONST = "const"
OVER_N = "inv"


class CostConfigError(ValueError):
    """Malformed cost config text."""


@dataclass(frozen=True)
class CoefficientFn:
    """Coefficient as a function of subset size n: a constant or c/n."""

    form: str
    c: float

    def __post_init__(self):
        if self.form not in (CONST, OVER_N):
            raise ValueError(f"unknown coefficient form {self.form!r}")
        if not math.isfinite(self.c):
            raise ValueError(f"coefficient must be finite, got {self.c!r}")

    def __call__(self, n: int) -> float:
        return self.c if self.form == CONST else self.c / n

    def __str__(self) -> str:
        return f"{self.form} {self.c:g}"


def constant(c: float) -> CoefficientFn:
    return CoefficientFn(CONST, float(c))


def over_n(c: float) -> CoefficientFn:
    """c/n, e.g. ``over_n(2)`` gives 2/n."""
    return CoefficientFn(OVER_N, float(c))


_ONE = constant(1.0)


@dataclass(frozen=True)
class CostSpec:
    """Everything needed to score a subset: coefficients, penalties, gates.

    ``penalties`` holds (epsilon, constraint-id) pairs added as
    eps * C_k; ``gates`` holds (constraint-id, tau) pairs composed by
    min and thresholded at tau. ``mode`` picks the soiled-measure
    weighting (node or edge).
    """

    alpha: CoefficientFn = _ONE
    beta: CoefficientFn = _ONE
    gamma: CoefficientFn = _ONE
    delta: CoefficientFn = _ONE
    penalties: tuple[tuple[float, str], ...] = ()
    gates: tuple[tuple[str, float], ...] = ()
    mode: str = "node"

    def __post_init__(self):
        object.__setattr__(self, "penalties", tuple((_check_eps(e), cid) for e, cid in self.penalties))
        object.__setattr__(self, "gates", tuple((cid, _check_tau(t)) for cid, t in self.gates))
        _check_mode(self.mode)
        for _, cid in self.penalties:
            _constraints.resolve(cid)
        for cid, _ in self.gates:
            _constraints.resolve(cid)


def _check_eps(eps) -> float:
    eps = float(eps)
    if not math.isfinite(eps):
        raise ValueError(f"penalty epsilon must be finite, got {eps!r}")
    return eps


def _check_mode(mode: str) -> str:
    if mode not in MEASURE_MODES:
        raise ValueError(f"unknown measure mode {mode!r}; expected one of {MEASURE_MODES}")
    return mode


def _check_tau(tau) -> float:
    tau = float(tau)
    if not 0.0 < tau <= 1.0:
        raise ValueError(f"gate threshold must be in (0, 1], got {tau}")
    return tau


@dataclass(frozen=True)
class Score:
    """Evaluated subset: soiled measure, size, gate degree, and the value
    (present only when every gate passed)."""

    defined: bool
    value: float | None
    soiled: float
    n: int
    gate_degree: float


def _check_n(n: int, n_total: int):
    if not 1 <= n <= n_total:
        raise ValueError(f"subset size n={n} out of range [1, {n_total}]")


def basic_cost(soiled: float, n: int, n_total: int, beta: CoefficientFn = _ONE) -> float:
    """S^2 + beta(n) * (1 - n/N)^2."""
    _check_n(n, n_total)
    return soiled * soiled + beta(n) * (1.0 - n / n_total) ** 2


def generalized_cost(
    soiled: float,
    n: int,
    n_total: int,
    spec: CostSpec,
    constraint_values: Sequence[float] = (),
) -> float:
    """alpha(n)*S^2 + beta(n)*(gamma(n) - delta(n)*n/N)^2 + sum eps_k*C_k."""
    _check_n(n, n_total)
    if len(constraint_values) != len(spec.penalties):
        raise ValueError(
            f"got {len(constraint_values)} constraint values for {len(spec.penalties)} penalties"
        )
    value = spec.alpha(n) * soiled * soiled
    value += _size_term(spec, n, n_total)
    for (eps, _), c in zip(spec.penalties, constraint_values):
        value += eps * c
    return value


def _size_term(spec: CostSpec, n: int, n_total: int) -> float:
    try:
        square = (spec.gamma(n) - spec.delta(n) * (n / n_total)) ** 2
    except OverflowError:  # float ** raises where float * gives inf
        square = math.inf
    return spec.beta(n) * square


def gated_cost(
    soiled: float,
    n: int,
    n_total: int,
    spec: CostSpec,
    gate_degrees: Sequence[float] = (),
    constraint_values: Sequence[float] = (),
) -> Score:
    """Compose gate degrees by min and score the subset if they pass.

    The composed degree mu must reach every gate's threshold tau for the
    score to be defined; an empty gate list always passes (mu = 1).
    """
    if len(gate_degrees) != len(spec.gates):
        raise ValueError(f"got {len(gate_degrees)} gate degrees for {len(spec.gates)} gates")
    mu = 1.0
    for d in gate_degrees:
        if not 0.0 <= d <= 1.0:
            raise ValueError(f"gate degree {d!r} outside [0, 1]")
        mu = min(mu, d)
    if all(mu >= tau for _, tau in spec.gates):
        value = generalized_cost(soiled, n, n_total, spec, constraint_values)
        if not math.isfinite(value):
            raise ValueError(f"cost value is not finite: {value!r}")
        return Score(True, value, soiled, n, mu)
    _check_n(n, n_total)
    return Score(False, None, soiled, n, mu)


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
    return k <= 1022 and sum(p << (k - d.bit_length() + 1) for p, d in ratios) < 1 << 53


class SubsetEvaluator:
    """Scores seed subsets of one graph under one CostSpec.

    Subsets are encoded as bit masks over ``graph.node_ids`` (bit i is
    node i), which keeps the optimizers' inner loops cheap; reachability
    closures are precomputed per node. It keeps no scores: a search that
    meets a subset again looks it up in its own table. ``evaluate``
    accepts plain node-id iterables and matches propagate + gated_cost
    done by hand; ``evaluate_mask`` scores one mask into a ``Score``.
    ``flip_values`` scores one-node changes of several subsets from
    per-node coverage counts. Both sum soiled weights in one numpy pass,
    ``_soiled``, and value them through one scalar tail, ``_value`` (size
    tables, gates, penalties, finiteness). That pass is a matrix-vector
    product when every subset sum of the weights is exact in float64:
    each weight a multiple of 2^-K with K <= 1022, the weights adding up
    to fewer than 2^53 such units (``_sums_exact``). Otherwise it is an
    ordered sum in ascending node order.
    ``evaluate_block`` values many subsets from their closures, which
    ``subset_closures`` enumerates, through that tail done over arrays.
    Constraints are compiled once into mask predicates for all of these.
    """

    def __init__(self, graph: Graph, spec: CostSpec):
        self.graph = graph
        self.spec = spec
        self._n_total = graph.n_nodes
        if not self._n_total:
            raise ValueError("the graph has no nodes")

        self._gate_preds = tuple(_constraints.resolve(cid).compile(graph) for cid, _ in spec.gates)
        # A score is defined when mu reaches every gate's tau: the largest one.
        self._tau = max((tau for _, tau in spec.gates), default=0.0)
        self._penalties = tuple((eps, _constraints.resolve(cid).compile(graph)) for eps, cid in spec.penalties)

        self._reach = [_closure(graph._succ, 1 << v) for v in range(self._n_total)]

        if spec.mode == "node":
            weight = [graph.node_weight(v) for v in graph.node_ids]
        else:
            weight = [0.0] * self._n_total
            for s, _, w in graph.edges:
                weight[graph._index[s]] += w
        self._weight = weight
        self._weight_arr = np.array(weight, dtype=np.float64)
        self._exact_sums = _sums_exact(weight)
        self._total = total_weight(graph, spec.mode)

    @property
    def n_total(self) -> int:
        return self._n_total

    def mask_of(self, seeds: Iterable[str]) -> int:
        return _mask_of(self.graph, seed_set(self.graph, seeds))

    def seeds_of(self, mask: int) -> frozenset[str]:
        return _ids_of(self.graph, mask)

    def evaluate(self, seeds: Iterable[str]) -> Score:
        return self.evaluate_mask(self.mask_of(seeds))

    def evaluate_mask(self, mask: int) -> Score:
        if mask <= 0 or mask >> self._n_total:
            raise ValueError(f"mask {mask:#x} is not a nonempty subset of the graph's nodes")
        closure = 0
        for i in _bits(mask):
            closure |= self._reach[i]
        (s,) = self._soiled(_rows([closure], self._n_total))
        n = mask.bit_count()
        value, mu = self._value(mask, n, s)
        return Score(value is not None, value, s, n, mu)

    @cached_property
    def _reach_steps(self) -> np.ndarray:
        """What adding seed v does to coverage counts (row v: reach(v) as
        0/1), what removing it does (row N + v: the negation), and a row of
        zeros (row 2N) for no change; int32 like the counts, since numpy adds
        and compares arrays of one dtype about twice as fast."""
        rows = _rows(self._reach, self._n_total).astype(np.int32)
        return np.concatenate((rows, -rows, np.zeros((1, self._n_total), dtype=np.int32)))

    def flip_values(
        self,
        counts: np.ndarray,
        moves: list[list[int]],
        rows: Sequence[int],
        masks: Sequence[int],
        steps: Sequence[int],
    ) -> list[float | None]:
        """The value of each ``masks[j]``, or None where a gate rules it out;
        bit for bit that of ``evaluate_mask``.

        Moves are ``_reach_steps`` rows: v adds node v, N + v removes it.
        ``counts[r, u]`` is how many seeds reach node u in the mask that row
        r held before the moves ``moves[r]``, and ``masks[j]`` is the mask
        that row ``rows[j]`` reaches after them by one more move,
        ``steps[j]``. The moves are applied first, one round per move, and
        the lists emptied, so a walk pays only for the moves it made. Each
        soiled weight then takes O(N) array operations rather than one reach
        set per seed, summed by ``_soiled`` as ``evaluate_mask`` sums it.
        """
        n = self._n_total
        table = self._reach_steps
        for k in range(max(map(len, moves))):
            # take() gathers rows faster than fancy indexing does.
            counts += table.take([m[k] if k < len(m) else 2 * n for m in moves], axis=0)
        for m in moves:
            m.clear()
        # counts + row s > 0 is counts > -row s, and row s +- N is -row s.
        negated = [s + n if s < n else s - n for s in steps]
        covered = counts.take(rows, axis=0) > table.take(negated, axis=0)
        return [self._value(m, m.bit_count(), s)[0] for m, s in zip(masks, self._soiled(covered))]

    def _soiled(self, covered: np.ndarray) -> list[float]:
        """The soiled measure of each row of the bool array ``covered``
        (column u: node u is soiled): a matrix-vector product when no sum
        rounds (``_exact_sums``), else a cumsum in ascending node order."""
        if self._exact_sums:
            soiled_w = covered @ self._weight_arr
        else:
            soiled_w = np.where(covered, self._weight_arr, 0.0).cumsum(axis=1)[:, -1]
        return (soiled_w / self._total).tolist()

    def _value(self, mask: int, n: int, s: float) -> tuple[float | None, float]:
        """The value of a mask of n seeds and soiled measure s (None where a
        gate rules it out) and its gate degree, computed as ``gated_cost``
        computes them."""
        mu = 1.0
        for pred in self._gate_preds:
            d = float(pred(mask, n))
            if not 0.0 <= d <= 1.0:
                raise ValueError(f"gate degree {d!r} outside [0, 1]")
            mu = min(mu, d)
        if mu < self._tau:
            return None, mu
        alpha, size_term = self._size_tables
        value = alpha[n] * s * s
        value += size_term[n]
        for eps, pred in self._penalties:
            value += eps * float(pred(mask, n))
        if not math.isfinite(value):
            raise ValueError(f"cost value is not finite: {value!r}")
        return value, mu

    def subset_closures(self, first: int, count: int) -> tuple[np.ndarray, np.ndarray]:
        """Closures and sizes of all subsets of nodes ``first`` .. ``first + count - 1``.

        Entry j of each int64 array is for the subset ``j << first``; both
        are built by doubling, entry j + 2^t extending entry j by node
        ``first + t``.
        """
        closures = np.zeros(1 << count, dtype=np.int64)
        sizes = np.zeros(1 << count, dtype=np.int64)
        for t in range(count):
            half = 1 << t
            closures[half : 2 * half] = closures[:half] | self._reach[first + t]
            sizes[half : 2 * half] = sizes[:half] + 1
        return closures, sizes

    def evaluate_block(self, masks: np.ndarray, closures: np.ndarray, sizes: np.ndarray) -> np.ndarray:
        """The value of each nonempty subset given as int64 arrays of masks,
        their closures and sizes, NaN where a gate rules it out; bit for bit
        those of ``evaluate_mask``.

        Raises ``ValueError`` as ``gated_cost`` does, for a gate degree
        outside [0, 1] or a non-finite defined score.
        """
        soiled_w = np.zeros(len(masks))
        for i, w in enumerate(self._weight):
            # Ascending node order, as _soiled adds; adding 0.0 changes no sum.
            soiled_w += np.where((closures >> i) & 1, w, 0.0)
        # _value over arrays.
        s = soiled_w / self._total
        mu = np.ones(len(masks))
        for pred in self._gate_preds:
            degree = np.asarray(pred(masks, sizes), dtype=np.float64)
            outside = ~((degree >= 0.0) & (degree <= 1.0))
            if outside.any():
                raise ValueError(f"gate degree {degree[outside][0].item()!r} outside [0, 1]")
            mu = np.minimum(mu, degree)
        defined = mu >= self._tau
        alpha, size_term = map(np.array, self._size_tables)
        # Overflow to inf is reported below, as _value reports it.
        with np.errstate(all="ignore"):
            value = alpha[sizes] * s * s + size_term[sizes]
            for eps, pred in self._penalties:
                value += eps * np.asarray(pred(masks, sizes), dtype=np.float64)
        not_finite = defined & ~np.isfinite(value)
        if not_finite.any():
            raise ValueError(f"cost value is not finite: {value[not_finite][0].item()!r}")
        return np.where(defined, value, np.nan)

    @cached_property
    def _size_tables(self) -> tuple[list[float], list[float]]:
        """alpha(n) and ``_size_term`` for n = 1..N at index n (index 0 unused),
        computed as ``generalized_cost`` computes them."""
        sizes = range(1, self._n_total + 1)
        alpha = [math.nan, *(self.spec.alpha(n) for n in sizes)]
        size_term = [math.nan, *(_size_term(self.spec, n, self._n_total) for n in sizes)]
        return alpha, size_term


def _parse_coefficient(value: str) -> CoefficientFn:
    fields = value.split()
    if len(fields) != 2 or fields[0] not in (CONST, OVER_N):
        raise ValueError(f"expected '{CONST} <c>' or '{OVER_N} <c>', got {value!r}")
    return CoefficientFn(fields[0], float(fields[1]))


def parse_cost_config(text: str) -> CostSpec:
    """Parse cost config text into a CostSpec.

    Key-value lines: ``alpha = const 1``, ``beta = inv 2`` (meaning 2/n),
    ``measure = node``, ``gate = <constraint-id> [tau=<t>]``,
    ``penalty = <constraint-id> eps=<e>``. Gate and penalty lines may
    repeat; ``#`` starts a comment.
    """
    kwargs: dict = {}
    gates: list[tuple[str, float]] = []
    penalties: list[tuple[float, str]] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = (f.strip() for f in line.partition("="))
        if not sep or not value:
            raise CostConfigError(f"line {line_no}: expected 'key = value', got {line!r}")
        try:
            if key in ("alpha", "beta", "gamma", "delta"):
                kwargs[key] = _parse_coefficient(value)
            elif key == "measure":
                kwargs["mode"] = _check_mode(value)
            elif key == "gate":
                fields = value.split()
                tau = 1.0
                if len(fields) == 2 and fields[1].startswith("tau="):
                    tau = _check_tau(fields[1][4:])
                elif len(fields) != 1:
                    raise ValueError(f"expected '<constraint-id> [tau=<t>]', got {value!r}")
                _constraints.resolve(fields[0])
                gates.append((fields[0], tau))
            elif key == "penalty":
                fields = value.split()
                if len(fields) != 2 or not fields[1].startswith("eps="):
                    raise ValueError(f"expected '<constraint-id> eps=<e>', got {value!r}")
                _constraints.resolve(fields[0])
                penalties.append((_check_eps(fields[1][4:]), fields[0]))
            else:
                raise ValueError(f"unknown key {key!r}")
        except ValueError as exc:
            raise CostConfigError(f"line {line_no}: {exc}") from None
    return CostSpec(gates=tuple(gates), penalties=tuple(penalties), **kwargs)
