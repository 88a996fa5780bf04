"""Maximize a cost spec over nonempty seed subsets.

Three searchers score subsets through a ``SubsetEvaluator``, which keeps
no scores: exhaustive enumeration (exact, capped at 22 nodes), simulated
annealing and a genetic algorithm. Each keeps one table of mask -> value
(None where gated out); ``_contenders`` cuts a table to the subsets that
can still rank. ``evaluate_block`` values every batch of known subsets
from bool coverage rows, in blocks of at most one exhaustive block's
cells (``_block_values``): exhaustive search's blocks, built by
doubling; the prefixes of a greedy max-coverage order over the source
SCCs (``_greedy_prefixes``), which the heuristics score first and rank
with their pool; a proven prefix's one-node flips; each generation's new
individuals. Where the walk cannot score every subset, and the cost has
no penalty and alpha(n) >= 0, an exact upper bound per subset size
(``_size_bounds``), with S as every score takes it, may prove the best
prefix optimal; the search then ranks it with its flips and does not
walk. The walks start from random subsets, or from the gates' composed
predicate where those fail, so they report no feasible subset only where
none exists. Their table of int masks is both their cache and, with the
prefixes, the pool they rank; they stop once it holds every nonempty
subset. Annealing's restarts walk in lockstep: each step values the
flips missing from the table through ``flip_values``, from the per-node
coverage counts each restart keeps current. Where its schedule cannot
fill the table, annealing cuts it to its contenders once it holds more
than ``TABLE_KEEP``, so its memory is bounded; exhaustive search cuts
its table after every block. ``_result`` builds ``Score``s only for the
contenders. The randomized searchers are heuristics; the tests check
them against exhaustive search. All are deterministic for a fixed rng
seed; annealing restarts draw independent streams derived from (seed,
restart index).
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .cost import CostSpec, Score, SubsetEvaluator
from .graphs import Graph, _bits, _masks, _reach_of, _rows

EXHAUSTIVE_NODE_CAP = 22
# Subsets exhaustive search scores per numpy pass; a power of two. It bounds
# memory to a few arrays of this length whatever the node count. Blocks
# whose arrays fit in cache run fastest: at 22 nodes 2^12 and 2^13 ran
# alike, 2^14 up to 30% and 2^16 over twice as slow.
EXHAUSTIVE_BLOCK_SIZE = 1 << 13
# Subsets annealing's table may hold at the end of a temperature level
# before it is cut to its ranking contenders, so it holds at most
# TABLE_KEEP + restarts * steps per level plus the ranking's ties. With
# the default schedule and rng seed 0, the golden sa-200-walk and
# gated-73-sa walks score 63,954 and 43,667 subsets in 6,971 and 5,897
# numpy passes; a table that forgets nothing scores 63,900 and 41,029
# (6,971 and 5,706 passes), 2^12 64,104 and 44,788, and 1 85,207 and
# 71,705 (9,000 and 8,986 passes), as the walks come back to subsets.
TABLE_KEEP = 1 << 13


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


def _contenders(values, top_k):
    """The masks of ``values`` (mask -> value, or None where gated out) that
    can still make the top ``top_k``, with their values: every defined mask
    up to and tied with the k-th on (score, size). Only those tied with the
    k-th can need the id tie-break, and a mask that ranks among the top k of
    a larger table is one of these in any part of it that holds it."""
    defined = [v for v in values.values() if v is not None]
    if not defined:
        return {}
    # The k-th on (score, size) has the k-th largest score.
    floor = heapq.nlargest(top_k, defined)[-1]
    pool = [(-v, m.bit_count(), m) for m, v in values.items() if v is not None and v >= floor]
    cut = heapq.nsmallest(top_k, pool)[-1][:2]
    return {m: values[m] for key, n, m in pool if (key, n) <= cut}


def _result(evaluator, values, evaluations, rng_seed, optimizer, top_k) -> SearchResult:
    """Rank the masks of ``values`` (mask -> value, or None where gated out);
    Scores and seed sets are built only for its contenders."""
    contenders = _contenders(values, top_k)
    if not contenders:
        raise InfeasibleSearchError("no gate-feasible candidate was found")
    candidates = [Candidate(evaluator.seeds_of(m), evaluator.evaluate_mask(m)) for m in contenders]
    candidates.sort(key=rank_key)
    ranked = tuple(candidates[:top_k])
    return SearchResult(ranked[0], ranked, evaluations, rng_seed, optimizer)


def _check_top_k(top_k: int):
    if top_k < 1:
        raise ValueError("top_k must be >= 1")


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
    _check_top_k(top_k)
    n = g.n_nodes
    if n > EXHAUSTIVE_NODE_CAP:
        raise ValueError(
            f"exhaustive search over {n} nodes would take 2^{n} evaluations; cap is {EXHAUSTIVE_NODE_CAP}"
        )
    evaluator = SubsetEvaluator(g, spec)
    # Mask (high << low_bits) | low has as closure the OR of those of its
    # high and low parts, and as size their sum: one table for each part.
    low_bits = min(n, EXHAUSTIVE_BLOCK_SIZE.bit_length() - 1)
    low_covered, low_sizes = evaluator.subset_closures(0, low_bits)
    high_covered, high_sizes = evaluator.subset_closures(low_bits, n - low_bits)
    low_masks = np.arange(1 << low_bits, dtype=np.int64)
    # The contenders so far, and the (value, size) of the worst of them once
    # there are top_k: a mask ranked after it cannot rank. The first cut
    # keeps every defined mask; NaN, the value of a gated-out one, fails
    # every comparison in _at_or_above, so no cut keeps it.
    table: dict[int, float] = {}
    cut = (-math.inf, n)
    for high in range(1 << (n - low_bits)):
        start = 1 if high == 0 else 0  # skip the empty subset
        masks = low_masks[start:] | (high << low_bits)
        sizes = low_sizes[start:] + high_sizes[high]
        values = evaluator.evaluate_block(masks, low_covered[start:] | high_covered[high], sizes)
        keep = _at_or_above(values, sizes, cut)
        table.update(zip(masks[keep].tolist(), values[keep].tolist()))
        if len(table) >= top_k:
            table = _contenders(table, top_k)
            value, fewer = min((v, -m.bit_count()) for m, v in table.items())
            cut = (value, -fewer)
    return _result(evaluator, table, (1 << n) - 1, rng_seed, "exhaustive", top_k)


def _at_or_above(values: np.ndarray, sizes: np.ndarray, cut) -> np.ndarray:
    """Which masks of these values and sizes rank at or before (value, n) =
    ``cut`` on (-value, n)."""
    value, n = cut
    return (values > value) | ((values == value) & (sizes <= n))


def _feasible_start(evaluator, rng, n):
    """A gate-feasible start, its value and the number of subsets tested to
    find it (1 or 2); only the start is scored. The start is the first
    uniformly random nonempty subset if it passes the gates; else it is
    drawn from their composed predicate (``SubsetEvaluator._gate``):
    uniformly one (mask of ``within``, size) pair that some subset passes,
    then the required nodes and enough others of that mask. No pair means
    that no subset passes: infeasibility is then proven."""
    mask = 0
    while not mask:
        mask = _masks([rng.integers(0, 2, n)])[0]
    gate, tau = evaluator._gate, evaluator._tau
    if gate is None or gate(mask, mask.bit_count()) >= tau:
        return mask, evaluator.evaluate_mask(mask).value, 1
    required, r = gate.required, gate.required.bit_count()
    # Per mask of within holding every required node and no forbidden one, the nodes that may join them.
    free = [w & ~gate.forbidden & ~required for w in gate.within if not required & ~(w & ~gate.forbidden)]
    pairs = [(f, k) for f in free for k in range(r, r + f.bit_count() + 1) if gate.by_size[k] >= tau]
    if not pairs:
        raise InfeasibleSearchError("no subset passes the gates")
    f, k = pairs[rng.integers(len(pairs))]
    mask = required | sum(1 << v for v in rng.permutation(list(_bits(f)))[: k - r].tolist())
    return mask, evaluator.evaluate_mask(mask).value, 2


def _greedy_prefixes(evaluator) -> dict[int, float | None]:
    """The prefixes of a greedy max-coverage order, each with its value
    (None where a gate rules it out), as ``evaluate_mask`` scores it.

    Each step adds the source SCC representative (``_sources``) whose reach
    soils the most weight not yet soiled, in ``_Measure``'s exact units,
    the first in id order on ties, as ``rank_key`` breaks them, until none
    soils more. A source reaches all that any node it reaches does, and
    every node is reached from a source, so no other node gains more.
    """
    sources = evaluator._sources
    rows = evaluator._reach_rows[sources]
    unsoiled = np.ones(evaluator._n_total, dtype=bool)
    # In id order, so index() finds the first.
    left = sorted(range(len(sources)), key=lambda i: evaluator.graph.node_ids[sources[i]])
    mask = 0
    covered = {}  # each prefix's coverage row
    while left:
        gains = evaluator._measure.weigh(rows[left] & unsoiled)
        gain = max(gains)
        if not gain:
            break
        pick = left[gains.index(gain)]
        unsoiled &= ~rows[pick]
        mask |= 1 << sources[pick]
        covered[mask] = ~unsoiled
        # A gain never grows as more is soiled.
        left = [i for i, g in zip(left, gains) if g and i != pick]
    return _block_values(evaluator, list(covered), lambda block: np.array([covered[m] for m in block]))


def _block_values(evaluator, masks, covered) -> dict[int, float | None]:
    """mask -> value (None where gated out) of ``masks`` by ``evaluate_block``, in blocks
    of at most one exhaustive block's cells, from their coverage rows ``covered(block)``."""
    step = max(1, EXHAUSTIVE_BLOCK_SIZE * EXHAUSTIVE_NODE_CAP // evaluator._n_total)
    values = []
    for i in range(0, len(masks), step):
        block = masks[i : i + step]
        values += evaluator.evaluate_block(block, covered(block), np.array([m.bit_count() for m in block])).tolist()
    return {m: None if math.isnan(v) else v for m, v in zip(masks, values)}


def _size_bounds(evaluator) -> list[float] | None:
    """At index k = 1..N, a value that no gate-feasible subset of k seeds
    scores above, as ``_value`` computes scores; None where the cost has a
    penalty or a negative alpha(k), under which no bound on S bounds it.

    Of the m source SCCs, every seed lies in the reach of one, so k seeds
    soil at most the k largest source reaches. A seed that soils weight
    only source i reaches (i's private weight p_i) is reached by i alone,
    so k seeds miss at least the m - k smallest p_i. So they soil at most
    W(k) = min(T - the m - k smallest p_i, the min(k, m) largest reaches)
    of the total weight T, all in ``_Measure``'s exact units. S grows with
    the soiled weight, so ``_Measure.share`` of W(k) bounds it, and with
    alpha >= 0 no step of ``_value`` decreases as S grows.
    """
    alpha, size_term = evaluator._size_tables
    if evaluator._penalties or min(alpha[1:]) < 0.0:
        return None
    measure = evaluator._measure
    sources = evaluator._sources
    rows = evaluator._reach_rows[sources]
    private = rows & (rows.sum(axis=0) == 1)
    largest = list(accumulate(sorted(measure.weigh(rows), reverse=True), initial=0))
    smallest = list(accumulate(sorted(measure.weigh(private)), initial=0))
    m, total = len(sources), sum(measure.units)
    covered = [min(total - smallest[max(m - k, 0)], largest[min(k, m)]) for k in range(1, evaluator._n_total + 1)]
    bounds = [math.nan]
    for k, s in enumerate(measure.share(covered), start=1):
        value = alpha[k] * s * s
        value += size_term[k]
        bounds.append(value)
    return bounds


def _proven_best(evaluator, prefixes) -> int | None:
    """The best of the greedy ``prefixes`` (mask -> value) if ``_size_bounds``
    proves that no subset scores above it, nor as much with fewer seeds;
    else None."""
    defined = [(v, -m.bit_count(), m) for m, v in prefixes.items() if v is not None]
    if not defined:
        return None
    value, fewer, best = max(defined)
    bounds = _size_bounds(evaluator)
    if bounds is None:
        return None
    for k in range(1, len(bounds)):
        if not (bounds[k] < value or bounds[k] == value and k >= -fewer):
            return None
    return best


def _proven_result(evaluator, prefixes, best, rng_seed, optimizer, top_k) -> SearchResult:
    """Rank the proven ``best`` among the greedy ``prefixes`` and its one-node
    flips, scored in blocks from best's per-node coverage counts; each
    counts as an evaluation."""
    reach = evaluator._reach_rows
    counts = reach[list(_bits(best))].sum(axis=0, dtype=np.int32)

    def covered(flips):
        rows = reach[[(m ^ best).bit_length() - 1 for m in flips]]
        # A flip below best removes a seed: what that seed alone covers is lost.
        return np.where(np.array([m < best for m in flips])[:, None], counts > rows, (counts > 0) | rows)

    flips = _block_values(evaluator, [best ^ 1 << v for v in range(evaluator._n_total) if best != 1 << v], covered)
    return _result(evaluator, {**prefixes, **flips}, len(prefixes) + len(flips), rng_seed, optimizer, top_k)


def anneal(
    g: Graph,
    spec: CostSpec,
    schedule: AnnealingSchedule = AnnealingSchedule(),
    rng_seed: int = 0,
    *,
    top_k: int = 10,
) -> SearchResult:
    """Simulated annealing over subsets.

    It first scores the greedy prefixes (``_greedy_prefixes``). Where the
    schedule cannot score every nonempty subset and ``_proven_best``
    proves the best prefix optimal, it ranks that prefix's one-node flips
    with the prefixes and stops: rank 1's score and size are proven, and
    a tie with another subset of that score and size is broken only among
    the subsets scored; ranks 2..k are the best found. Otherwise it walks
    as below and ranks the prefixes with its table; ``evaluations``
    counts them either way, and counts each subset a start tested.

    Each restart starts from a gate-feasible subset (``_feasible_start``),
    which exists unless the search raises ``InfeasibleSearchError``, and
    flips one node's membership per step; moves that empty the set or
    fail a gate are rejected, worse moves are accepted with probability
    exp(delta/T). Restarts draw from independent RNG streams and walk in
    lockstep, so each step scores their unscored flips in one batch; the
    incumbent best is kept across them. Scored subsets are kept in one
    table: once it holds more than ``TABLE_KEEP`` at the end of a
    temperature level, it is cut to its ranking contenders
    (``_contenders``) and the rest is forgotten; a forgotten subset met
    again is scored again, to the same value. So memory is bounded by
    ``TABLE_KEEP`` and one level's flips rather than by the number of
    levels, and the walk and ranking are those of a table that keeps
    everything. Where the schedule can score every nonempty subset,
    nothing is forgotten, and the search stops early once it has, when
    its ranking is exact.
    """
    _check_top_k(top_k)
    evaluator = SubsetEvaluator(g, spec)
    n = g.n_nodes
    every_subset = (1 << n) - 1
    temperatures = []
    temperature = schedule.initial_temperature
    while temperature >= schedule.minimum_temperature:
        temperatures.append(temperature)
        temperature *= schedule.cooling_factor
    steps = schedule.steps_per_temperature
    # The table holds at most each restart's start and one subset per flip.
    forgets = every_subset > schedule.restarts * (1 + len(temperatures) * steps)
    prefixes = _greedy_prefixes(evaluator)
    if forgets and (best := _proven_best(evaluator, prefixes)) is not None:
        return _proven_result(evaluator, prefixes, best, rng_seed, "sa", top_k)
    rngs = [np.random.default_rng([rng_seed, r]) for r in range(schedule.restarts)]
    # Subsets scored since the last turnover, and the contenders it kept:
    # their value, or None where a gate rules it out.
    table: dict[int, float | None] = {}
    current: list[int] = []
    values: list[float] = []
    evaluations = len(prefixes)
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
    exp = math.exp
    lookup = table.get
    unscored = object()
    for temperature in temperatures:
        if len(table) == every_subset:
            break
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
                    continue
                if value is not None:
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
        if forgets and len(table) > TABLE_KEEP:
            # A subset of the final top k is a contender of every part of the
            # scored subsets that holds it, so each turnover carries it.
            table = _contenders(table, top_k)
            lookup = table.get
    return _result(evaluator, {**prefixes, **table}, evaluations, rng_seed, "sa", top_k)


def _nonempty(rows, rng):
    """Bool ``rows`` with one random column set in each empty row, in place."""
    empty = np.flatnonzero(~rows.any(axis=1))
    rows[empty, rng.integers(0, rows.shape[1], len(empty))] = True
    return rows


def evolve(
    g: Graph,
    spec: CostSpec,
    params: GaParams = GaParams(),
    rng_seed: int = 0,
    *,
    top_k: int = 10,
) -> SearchResult:
    """Genetic algorithm over seed masks.

    Greedy prefixes, the proof stop and ``evaluations`` are as in
    ``anneal``; the generations cannot score every subset when
    2^N - 1 > ``population_size`` * (``generations`` + 1).

    Individuals are int masks, as annealing's subsets are. Each generation
    keeps its elites and breeds the rest from one set of draws, with one
    numpy bool row per child: two tournaments' entrants, a crossover flag,
    a uniform crossover pick row and a per-bit mutation row. The children
    are packed into masks in one call. A tournament's winner is its
    fittest entrant, the first drawn of equal fitnesses. Gate-undefined
    individuals get fitness below every defined score, so they lose
    tournaments to any defined rival and are never kept as elites over a
    defined one. If the whole first population is undefined, individual 0
    is replaced by a feasible start as annealing finds one. Empty rows are
    repaired by setting one random bit (``_nonempty``). Individuals
    already in the table of scored subsets are looked up; a generation's
    others are scored together from their closures (``_block_values``).
    ``evaluations`` counts every one assessed; the ranking is over the
    whole table and the prefixes. The search stops early once its table
    holds every nonempty subset, when its ranking is exact.
    """
    _check_top_k(top_k)
    n = g.n_nodes
    evaluator = SubsetEvaluator(g, spec)
    pop_size = params.population_size
    prefixes = _greedy_prefixes(evaluator)
    # Each generation assesses pop_size individuals, the first one too.
    forgets = (1 << n) - 1 > pop_size * (params.generations + 1)
    if forgets and (best := _proven_best(evaluator, prefixes)) is not None:
        return _proven_result(evaluator, prefixes, best, rng_seed, "ga", top_k)
    mutation_rate = params.mutation_rate if params.mutation_rate is not None else 1.0 / n
    rng = np.random.default_rng([rng_seed])
    population = _masks(_nonempty(rng.integers(0, 2, (pop_size, n), dtype=np.uint8).view(bool), rng))

    # Every subset the walk scored so far: its value, or None where a gate
    # rules it out. It is both the walk's cache and, with the prefixes, the
    # pool the search ranks.
    table: dict[int, float | None] = {}
    evaluations = len(prefixes)

    def assess(pop):
        nonlocal evaluations
        evaluations += len(pop)
        new = [m for m in dict.fromkeys(pop) if m not in table]
        table.update(_block_values(evaluator, new, lambda block: _rows([_reach_of(g, m) for m in block], n)))
        return np.array([-math.inf if table[mask] is None else table[mask] for mask in pop])

    fitness = assess(population)
    if fitness.max() == -math.inf:
        mask, value, used = _feasible_start(evaluator, rng, n)
        population[0] = mask
        fitness[0] = table[mask] = value
        evaluations += used
    for _ in range(params.generations):
        if len(table) == (1 << n) - 1:
            break  # every subset is scored: the ranking is exact
        # A stable sort and argmax keep the first of equal fitnesses first.
        order = np.argsort(-fitness, kind="stable")
        elites = order[fitness[order] > -math.inf][: params.elitism_count].tolist()
        children = pop_size - len(elites)
        entrants = rng.integers(0, pop_size, (children, 2, params.tournament_size))
        winners = np.take_along_axis(entrants, fitness[entrants].argmax(axis=2)[..., None], axis=2)[..., 0]
        crossed = rng.random(children) < params.crossover_rate
        pick = rng.integers(0, 2, (children, n), dtype=np.uint8).view(bool)
        mutated = rng.random((children, n)) < mutation_rate
        rows = _rows(population, n)
        # Uniform crossover: each bit from parent 0 where pick has it, else from parent 1.
        offspring = np.where(crossed[:, None] & ~pick, rows[winners[:, 1]], rows[winners[:, 0]]) ^ mutated
        population = [population[i] for i in elites] + _masks(_nonempty(offspring, rng))
        fitness = assess(population)
    return _result(evaluator, {**prefixes, **table}, evaluations, rng_seed, "ga", top_k)
