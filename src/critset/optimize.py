"""Maximize a cost spec over nonempty seed subsets.

Three searchers score subsets through a ``SubsetEvaluator``, which keeps
no scores: exhaustive enumeration (exact, capped at 22 nodes), which
values all 2^N - 1 subsets in numpy blocks from closures built by
doubling and keeps masks, values and sizes of those that can still
rank; simulated annealing; and a genetic algorithm. The two heuristics
walk over int masks and each keep one table of mask -> value (None where
gated out) that is both their cache and the pool they rank, and stop
once it holds every nonempty subset. Annealing's restarts walk in
lockstep over it: each step values the flips missing from it in one
numpy pass over the per-node coverage counts each restart keeps
current, with the measure and tail ``evaluate_mask`` uses. ``_result``
builds ``Score``s only for the masks that make the ranking. The two
randomized searchers are heuristics; the test suite verifies them
against the exhaustive result instead of assuming global optimality.
All are deterministic for a fixed rng seed; annealing restarts draw
independent streams derived from (seed, restart index).
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .cost import CostSpec, Score, SubsetEvaluator
from .graphs import Graph, _bits, _masks

EXHAUSTIVE_NODE_CAP = 22
# Subsets exhaustive search scores per numpy pass; a power of two. It bounds
# memory to a few arrays of this length whatever the node count. Blocks
# whose arrays fit in cache run fastest: at 22 nodes 2^12 and 2^13 ran
# alike, 2^14 up to 30% and 2^16 over twice as slow.
EXHAUSTIVE_BLOCK_SIZE = 1 << 13
_MAX_START_ATTEMPTS = 1000


class InfeasibleSearchError(RuntimeError):
    """No gate-feasible candidate could be found."""


@dataclass(frozen=True)
class Candidate:
    """A seed subset together with its evaluated score."""

    seeds: frozenset[str]
    score: Score

    @property
    def sorted_seeds(self) -> tuple[str, ...]:
        return tuple(sorted(self.seeds))


@dataclass(frozen=True)
class AnnealingSchedule:
    """Geometric cooling schedule with random restarts."""

    initial_temperature: float = 1.0
    cooling_factor: float = 0.95
    steps_per_temperature: int = 50
    minimum_temperature: float = 1e-4
    restarts: int = 10

    def __post_init__(self):
        if not self.initial_temperature > 0:
            raise ValueError("initial_temperature must be positive")
        if not 0.0 < self.cooling_factor < 1.0:
            raise ValueError("cooling_factor must be in (0, 1)")
        if self.steps_per_temperature < 1:
            raise ValueError("steps_per_temperature must be >= 1")
        if not self.minimum_temperature > 0:
            raise ValueError("minimum_temperature must be positive")
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")


@dataclass(frozen=True)
class GaParams:
    """Genetic algorithm knobs; ``mutation_rate=None`` means 1/N."""

    population_size: int = 40
    generations: int = 100
    mutation_rate: float | None = None
    crossover_rate: float = 0.9
    tournament_size: int = 3
    elitism_count: int = 1

    def __post_init__(self):
        if self.population_size < 2:
            raise ValueError("population_size must be >= 2")
        if self.generations < 1:
            raise ValueError("generations must be >= 1")
        if self.mutation_rate is not None and not 0.0 < self.mutation_rate <= 1.0:
            raise ValueError("mutation_rate must be in (0, 1]")
        if not 0.0 <= self.crossover_rate <= 1.0:
            raise ValueError("crossover_rate must be in [0, 1]")
        if self.tournament_size < 2:
            raise ValueError("tournament_size must be >= 2")
        if not 0 <= self.elitism_count < self.population_size:
            raise ValueError("elitism_count must be in [0, population_size)")


@dataclass(frozen=True)
class SearchResult:
    """Best candidate plus the top-k ranking and bookkeeping."""

    best: Candidate
    ranked: tuple[Candidate, ...]
    evaluations: int
    rng_seed: int
    optimizer: str


def rank_key(candidate: Candidate):
    """Descending score, then fewer seeds, then lexicographic node ids."""
    return (-candidate.score.value, len(candidate.seeds), candidate.sorted_seeds)


def _result(evaluator, values, evaluations, rng_seed, optimizer, top_k) -> SearchResult:
    """Rank the masks of ``values`` (mask -> value, or None where gated out)."""
    if top_k < 1:
        raise ValueError("top_k must be >= 1")
    defined = [v for v in values.values() if v is not None]
    if not defined:
        raise InfeasibleSearchError("no gate-feasible candidate was found")
    # The k-th on (score, size) has the k-th largest score. Only masks tied
    # with it can need the id tie-break, so Scores and seed sets are built
    # for those and the ones before them.
    floor = heapq.nlargest(top_k, defined)[-1]
    pool = [(-v, m.bit_count(), m) for m, v in values.items() if v is not None and v >= floor]
    cut = heapq.nsmallest(top_k, pool)[-1][:2]
    candidates = [
        Candidate(evaluator.seeds_of(m), evaluator.evaluate_mask(m)) for key, n, m in pool if (key, n) <= cut
    ]
    candidates.sort(key=rank_key)
    ranked = tuple(candidates[:top_k])
    return SearchResult(ranked[0], ranked, evaluations, rng_seed, optimizer)


def exhaustive_search(
    g: Graph,
    spec: CostSpec,
    top_k: int = 10,
    *,
    rng_seed: int = 0,
) -> SearchResult:
    """Evaluate every nonempty subset; the returned best is the true
    global maximum among defined scores.

    Deterministic, and independent of ``rng_seed`` (recorded only).
    Refuses graphs beyond ``EXHAUSTIVE_NODE_CAP`` nodes rather than sampling.
    """
    if top_k < 1:
        raise ValueError("top_k must be >= 1")
    n = g.n_nodes
    if n > EXHAUSTIVE_NODE_CAP:
        raise ValueError(
            f"exhaustive search over {n} nodes would take 2^{n} evaluations; cap is {EXHAUSTIVE_NODE_CAP}"
        )
    evaluator = SubsetEvaluator(g, spec)
    # Mask (high << low_bits) | low has as closure the OR of those of its
    # high and low parts, and as size their sum: one table for each part.
    low_bits = min(n, EXHAUSTIVE_BLOCK_SIZE.bit_length() - 1)
    low_closures, low_sizes = evaluator.subset_closures(0, low_bits)
    high_closures, high_sizes = evaluator.subset_closures(low_bits, n - low_bits)
    low_masks = np.arange(1 << low_bits, dtype=np.int64)
    # Masks, values and sizes of every mask up to and tied with the k-th on
    # (score, size): _result breaks those ties by seed ids. The first cut
    # keeps every defined mask; NaN, the value of a gated-out one, fails
    # every comparison in _at_or_above, so no cut keeps it.
    kept = (np.zeros(0, dtype=np.int64), np.zeros(0), np.zeros(0, dtype=np.int64))
    cut = (-math.inf, n)
    for high in range(1 << (n - low_bits)):
        start = 1 if high == 0 else 0  # skip the empty subset
        masks = low_masks[start:] | (high << low_bits)
        sizes = low_sizes[start:] + high_sizes[high]
        values = evaluator.evaluate_block(masks, low_closures[start:] | high_closures[high], sizes)
        keep = _at_or_above(values, sizes, cut)
        masks, values, sizes = (np.concatenate((a, b[keep])) for a, b in zip(kept, (masks, values, sizes)))
        if len(masks) >= top_k:
            kth = np.lexsort((sizes, -values))[top_k - 1]
            cut = (values[kth], sizes[kth])
            keep = _at_or_above(values, sizes, cut)
            masks, values, sizes = masks[keep], values[keep], sizes[keep]
        kept = masks, values, sizes
    if len(masks) == 0:
        raise InfeasibleSearchError("every subset is gated out; no defined candidate exists")
    values = dict(zip(masks.tolist(), values.tolist()))
    return _result(evaluator, values, (1 << n) - 1, rng_seed, "exhaustive", top_k)


def _at_or_above(values: np.ndarray, sizes: np.ndarray, cut) -> np.ndarray:
    """Which masks of these values and sizes rank at or before (value, n) =
    ``cut`` on (-value, n)."""
    value, n = cut
    return (values > value) | ((values == value) & (sizes <= n))


def _feasible_start(evaluator, rng, n):
    """A gate-feasible start, its value and the number of subsets scored to
    find it: uniformly random subsets first, then the singletons in a
    random order."""
    used = 0
    for _ in range(_MAX_START_ATTEMPTS):
        mask = _masks([rng.integers(0, 2, n)])[0]
        if not mask:
            continue
        value = evaluator.evaluate_mask(mask).value
        used += 1
        if value is not None:
            return mask, value, used
    # Random subsets hold about n/2 seeds, which a gate on size or on
    # components can rule out almost everywhere.
    for v in rng.permutation(n).tolist():
        value = evaluator.evaluate_mask(1 << v).value
        used += 1
        if value is not None:
            return 1 << v, value, used
    raise InfeasibleSearchError(
        f"no gate-feasible starting subset found in {_MAX_START_ATTEMPTS} random attempts"
        f" or among the {n} single-node subsets"
    )


def anneal(
    g: Graph,
    spec: CostSpec,
    schedule: AnnealingSchedule = AnnealingSchedule(),
    rng_seed: int = 0,
    *,
    top_k: int = 10,
) -> SearchResult:
    """Simulated annealing over subsets.

    Each restart starts from a random gate-feasible nonempty subset and
    flips one node's membership per step; moves that empty the set or
    fail a gate are rejected, worse moves are accepted with probability
    exp(delta/T). Restarts draw from independent RNG streams and walk in
    lockstep, so each step scores their unscored flips in one batch; the
    incumbent best is kept across them. The search stops early once it
    has scored every nonempty subset, when its ranking is exact.
    """
    evaluator = SubsetEvaluator(g, spec)
    n = g.n_nodes
    every_subset = (1 << n) - 1
    rngs = [np.random.default_rng([rng_seed, r]) for r in range(schedule.restarts)]
    # Every subset scored so far: its value, or None where a gate rules it
    # out. It is both the search's cache and the pool it ranks.
    table: dict[int, float | None] = {}
    current: list[int] = []
    values: list[float] = []
    evaluations = 0
    for rng in rngs:
        mask, value, used = _feasible_start(evaluator, rng, n)
        table[mask] = value
        current.append(mask)
        values.append(value)
        evaluations += used
    # Per-node seed counts of each restart's mask, brought up to date at the
    # end of every step by adding each restart's reach-step row (v adds node
    # v, n + v removes it, 2n is no move) in one array add, a third of the
    # time of an indexed add over the rows that moved.
    reach_steps = evaluator._reach_steps
    counts = np.array([reach_steps[list(_bits(m))].sum(axis=0, dtype=np.int32) for m in current])
    still = [2 * n] * len(rngs)
    steps = schedule.steps_per_temperature
    temperature = schedule.initial_temperature
    exp = math.exp
    lookup = table.get
    unscored = object()
    while temperature >= schedule.minimum_temperature and len(table) < every_subset:
        # Each stream draws as a restart walking alone would: flips, then draws.
        flips = list(zip(*[rng.integers(0, n, steps).tolist() for rng in rngs]))
        draws = list(zip(*[rng.random(steps).tolist() for rng in rngs]))
        for step_flips, step_draws in zip(flips, draws):
            # Restarts whose neighbour is scored move at once; the others'
            # neighbours are scored together, and then they move. A flip
            # that would empty the subset is no move.
            misses, neighbors, miss_moves = [], [], []
            made = still.copy()
            for r, (mask, v, draw) in enumerate(zip(current, step_flips, step_draws)):
                neighbor = mask ^ (1 << v)
                if neighbor == 0:
                    continue
                evaluations += 1
                value = lookup(neighbor, unscored)
                if value is unscored:
                    misses.append(r)
                    neighbors.append(neighbor)
                    # The flip adds v exactly when it makes the mask larger.
                    miss_moves.append(v if neighbor > mask else n + v)
                elif value is not None:
                    delta = value - values[r]
                    # math.exp, not np.exp: the two can differ in the last bit.
                    if delta >= 0.0 or draw < exp(delta / temperature):
                        current[r] = neighbor
                        values[r] = value
                        made[r] = v if neighbor > mask else n + v
            if misses:
                scored = evaluator.flip_values(counts, misses, neighbors, miss_moves)
                for r, neighbor, move, value in zip(misses, neighbors, miss_moves, scored):
                    table[neighbor] = value
                    if value is not None:
                        delta = value - values[r]
                        if delta >= 0.0 or step_draws[r] < exp(delta / temperature):
                            current[r] = neighbor
                            values[r] = value
                            made[r] = move
                if len(table) == every_subset:
                    break
            if made != still:
                counts += reach_steps.take(made, axis=0)
        temperature *= schedule.cooling_factor
    return _result(evaluator, table, evaluations, rng_seed, "sa", top_k)


def _tournament(rng, fitness, size):
    # max keeps the first of equal fitnesses.
    return max(rng.integers(0, len(fitness), size).tolist(), key=fitness.__getitem__)


def evolve(
    g: Graph,
    spec: CostSpec,
    params: GaParams = GaParams(),
    rng_seed: int = 0,
    *,
    top_k: int = 10,
) -> SearchResult:
    """Genetic algorithm over seed masks.

    Individuals are int masks, as annealing's subsets are. Crossover and
    mutation draw numpy 0/1 rows, one column per node, packed into masks.
    Gate-undefined individuals get fitness below every defined score, so
    they lose tournaments to any defined rival and are never kept as
    elites over a defined one. If the whole first population is undefined,
    individual 0 is replaced by a feasible start as annealing finds one.
    Empty offspring are repaired by setting one random bit. Individuals
    already in the table of scored subsets are looked up, not rescored,
    but ``evaluations`` counts every one assessed; the ranking is over
    the whole table. The search stops early once it has scored every
    nonempty subset, when its ranking is exact.
    """
    n = g.n_nodes
    evaluator = SubsetEvaluator(g, spec)
    mutation_rate = params.mutation_rate if params.mutation_rate is not None else 1.0 / n
    rng = np.random.default_rng([rng_seed])
    pop_size = params.population_size

    population = _masks(rng.integers(0, 2, (pop_size, n), dtype=np.uint8))
    for i in range(pop_size):
        if not population[i]:
            # int(): 1 << np.int64(k) wraps to 0 from k = 64 on.
            population[i] = 1 << int(rng.integers(0, n))

    # Every subset scored so far: its value, or None where a gate rules it
    # out. It is both the search's cache and the pool it ranks.
    table: dict[int, float | None] = {}
    evaluations = 0

    def assess(pop):
        nonlocal evaluations
        evaluations += len(pop)
        for mask in pop:
            if mask not in table:
                table[mask] = evaluator.evaluate_mask(mask).value
        return [-math.inf if table[mask] is None else table[mask] for mask in pop]

    fitness = assess(population)
    if max(fitness) == -math.inf:
        mask, value, used = _feasible_start(evaluator, rng, n)
        population[0] = mask
        fitness[0] = table[mask] = value
        evaluations += used
    for _ in range(params.generations):
        if len(table) == (1 << n) - 1:
            break  # every subset is scored: the ranking is exact
        order = sorted(range(pop_size), key=lambda i: (-fitness[i], i))
        elites = [i for i in order if fitness[i] > -math.inf][: params.elitism_count]
        offspring = [population[i] for i in elites]
        while len(offspring) < pop_size:
            a = population[_tournament(rng, fitness, params.tournament_size)]
            b = population[_tournament(rng, fitness, params.tournament_size)]
            if rng.random() < params.crossover_rate:
                # Uniform crossover: each bit from a where pick has it, else from b.
                pick = _masks([rng.integers(0, 2, n, dtype=np.uint8)])[0]
                a = a & pick | b & ~pick
            child = a ^ _masks([rng.random(n) < mutation_rate])[0]
            if not child:
                child = 1 << int(rng.integers(0, n))
            offspring.append(child)
        population = offspring
        fitness = assess(population)
    return _result(evaluator, table, evaluations, rng_seed, "ga", top_k)
