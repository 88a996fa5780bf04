import dataclasses
import functools
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from critset import optimize
from critset.constraints import same_component
from critset.cost import CoefficientFn, CostSpec, Score, SubsetEvaluator, constant, gated_cost, over_n
from critset.graphs import MEASURE_MODES, Graph, parse_graph
from critset.ingest import build_from_log, generate_log
from critset.optimize import (
    AnnealingSchedule,
    Candidate,
    GaParams,
    InfeasibleSearchError,
    SearchResult,
    anneal,
    evolve,
    _result,
    exhaustive_search,
    rank_key,
)
from critset.taint import soil

from .strategies import cost_specs, edgeless_graphs, graphs, star_graphs, wide_graphs

BETA_ONE = CostSpec()
BETA_OVER_N = CostSpec(beta=over_n(2.0))
GATED = CostSpec(gates=(("same-component", 1.0),))
FORBID_ALL = CostSpec(gates=(("forbid:1,2,3,4,5,6,7", 1.0),))
# The golden gated-73-ga cost: a penalty, so no proof stops the search.
GATED_73_GA = CostSpec(penalties=((0.25, "fuzzy-small:8"),), gates=(("same-component", 1.0),))
GOLDEN = Path(__file__).parent / "golden"

FAST_SCHEDULE = AnnealingSchedule(steps_per_temperature=5, minimum_temperature=0.05, restarts=2)
FAST_GA = GaParams(population_size=8, generations=5)


def test_exhaustive_beta_one(demo):
    result = exhaustive_search(demo, BETA_ONE)
    assert result.best.seeds == frozenset({"1", "4", "6"})
    assert abs(result.best.score.value - 65 / 49) < 1e-12
    assert result.evaluations == 127
    assert result.optimizer == "exhaustive"


def test_exhaustive_beta_over_n(demo):
    result = exhaustive_search(demo, BETA_OVER_N)
    assert result.best.seeds == frozenset({"1"})
    assert abs(result.best.score.value - 88 / 49) < 1e-12


def test_exhaustive_gated(demo):
    result = exhaustive_search(demo, GATED)
    assert result.best.seeds == frozenset({"1"})
    assert abs(result.best.score.value - 52 / 49) < 1e-12
    assert all(c.score.defined for c in result.ranked)


def test_exhaustive_is_seed_independent(demo):
    a = exhaustive_search(demo, BETA_ONE, rng_seed=0)
    b = exhaustive_search(demo, BETA_ONE, rng_seed=999)
    assert a.best == b.best
    assert a.ranked == b.ranked


def test_exhaustive_ranking_is_sorted(demo):
    result = exhaustive_search(demo, BETA_ONE, top_k=20)
    assert len(result.ranked) == 20
    values = [c.score.value for c in result.ranked]
    assert values == sorted(values, reverse=True)
    assert result.best == result.ranked[0]


def test_exhaustive_node_cap():
    g = Graph([f"v{i}" for i in range(optimize.EXHAUSTIVE_NODE_CAP + 1)])
    with pytest.raises(ValueError, match="cap is"):
        exhaustive_search(g, BETA_ONE)


def test_exhaustive_infeasible(demo):
    with pytest.raises(InfeasibleSearchError):
        exhaustive_search(demo, FORBID_ALL)


def test_tie_ranking_smaller_then_lexicographic():
    g = Graph(["a", "b"])
    result = exhaustive_search(g, BETA_ONE, top_k=3)
    # the singletons tie at 0.5; lexicographic order must break the tie
    assert [c.sorted_seeds for c in result.ranked] == [("a", "b"), ("a",), ("b",)]
    assert result.ranked[1].score.value == result.ranked[2].score.value


def test_anneal_finds_demo_optimum(demo):
    result = anneal(demo, BETA_ONE, rng_seed=42)
    assert abs(result.best.score.value - 65 / 49) < 1e-9
    assert result.optimizer == "sa"


def test_anneal_deterministic(demo):
    a = anneal(demo, BETA_ONE, rng_seed=11)
    b = anneal(demo, BETA_ONE, rng_seed=11)
    assert a == b


def test_anneal_single_node_graph():
    g = Graph(["only"])
    result = anneal(g, BETA_ONE, FAST_SCHEDULE, rng_seed=0)
    assert result.best.seeds == frozenset({"only"})
    assert result.best.score.value == 1.0


def test_anneal_infeasible(demo):
    with pytest.raises(InfeasibleSearchError):
        anneal(demo, FORBID_ALL, FAST_SCHEDULE, rng_seed=0)


def test_anneal_respects_gates(demo):
    result = anneal(demo, GATED, rng_seed=3)
    assert same_component(demo, result.best.seeds) == 1.0
    assert abs(result.best.score.value - 52 / 49) < 1e-9


def test_evolve_finds_demo_optimum(demo):
    result = evolve(demo, BETA_ONE, rng_seed=7)
    assert abs(result.best.score.value - 65 / 49) < 1e-9
    assert result.optimizer == "ga"


def test_evolve_deterministic(demo):
    assert evolve(demo, BETA_ONE, rng_seed=9) == evolve(demo, BETA_ONE, rng_seed=9)


def test_evolve_best_is_gate_feasible(demo):
    result = evolve(demo, GATED, rng_seed=7)
    assert result.best.score.defined
    assert same_component(demo, result.best.seeds) == 1.0


def test_evolve_single_node_graph():
    result = evolve(Graph(["only"]), BETA_ONE, FAST_GA, rng_seed=1)
    assert result.best.seeds == frozenset({"only"})


@pytest.mark.parametrize("search", [exhaustive_search, anneal, evolve])
def test_searchers_reject_a_graph_without_nodes(search):
    with pytest.raises(ValueError, match="^the graph has no nodes$"):
        search(Graph([]), BETA_ONE)


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_evolve_ranks_every_subset_it_scored(data):
    # evaluations counts the greedy prefixes, every individual assessed,
    # repeats included, and the subsets a feasible start took; the ranking
    # is the full sort of every defined subset that was scored. A walk whose
    # table fills stops after the first generation that fills it. The proof
    # is off, so every search walks.
    g = data.draw(st.one_of(graphs(max_nodes=7), star_graphs(6)))
    spec = data.draw(cost_specs(g))
    params = GaParams(population_size=data.draw(st.integers(2, 8)), generations=data.draw(st.integers(1, 6)))
    rng_seed = data.draw(st.integers(0, 2**32))
    top_k = data.draw(st.integers(1, 12))
    every_subset = (1 << g.n_nodes) - 1
    calls, starts, prefixes, ranked_at = [], [], [], []
    evaluate_block, feasible_start, greedy = SubsetEvaluator.evaluate_block, optimize._feasible_start, optimize._greedy_prefixes

    def run(generations):
        calls.clear(), starts.clear(), prefixes.clear(), ranked_at.clear()
        result = _outcome(
            functools.partial(evolve, top_k=top_k), g, spec, dataclasses.replace(params, generations=generations), rng_seed
        )
        used = sum(u for _, _, u in starts)
        # Before ranking, the blocks have scored the prefixes and each mask
        # of the walk's table once, but for a feasible start, which enters it.
        return result, used, ranked_at[0] - len(prefixes[0]) + len(starts) if ranked_at else None

    def counted_block(self, masks, *args):
        calls.extend(masks)
        return evaluate_block(self, masks, *args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(SubsetEvaluator, "evaluate_block", counted_block)
        patch.setattr(optimize, "_feasible_start", lambda *a: starts.append(feasible_start(*a)) or starts[-1])
        patch.setattr(optimize, "_greedy_prefixes", lambda ev: prefixes.append(greedy(ev)) or prefixes[-1])
        patch.setattr(optimize, "_proven_best", lambda *a: None)
        patch.setattr(optimize, "_result", lambda *a: ranked_at.append(len(calls)) or _result(*a))
        result, used, table = run(params.generations)
        scored, greedy_count = {*calls, *(m for m, _, _ in starts)}, len(prefixes[0])
        if isinstance(result, SearchResult) and table == every_subset:
            generations, rest = divmod(result.evaluations - used - greedy_count, params.population_size)
            generations -= 1
            assert rest == 0 and 0 <= generations <= params.generations
            if generations > 1:
                # One generation fewer leaves the table short of every subset.
                assert run(generations - 1)[2] < every_subset
        else:
            generations = params.generations
    if not isinstance(result, SearchResult):
        return
    evaluator = SubsetEvaluator(g, spec)
    assert greedy(evaluator).keys() <= scored
    seen = {m: sc for m in scored if (sc := evaluator.evaluate_mask(m)).defined}
    ranked = _full_sort_ranking(evaluator, seen, top_k)
    evaluations = params.population_size * (generations + 1) + used + greedy_count
    assert result == SearchResult(ranked[0], ranked, evaluations, rng_seed, "ga")


def test_schedule_validation():
    with pytest.raises(ValueError):
        AnnealingSchedule(initial_temperature=0)
    with pytest.raises(ValueError):
        AnnealingSchedule(cooling_factor=1.0)
    with pytest.raises(ValueError):
        AnnealingSchedule(steps_per_temperature=0)
    with pytest.raises(ValueError):
        AnnealingSchedule(restarts=0)


def test_ga_params_validation():
    with pytest.raises(ValueError):
        GaParams(population_size=1)
    with pytest.raises(ValueError):
        GaParams(mutation_rate=0.0)
    with pytest.raises(ValueError):
        GaParams(crossover_rate=1.5)
    with pytest.raises(ValueError):
        GaParams(tournament_size=1)
    with pytest.raises(ValueError):
        GaParams(elitism_count=40)


def test_top_k_validation(demo):
    with pytest.raises(ValueError):
        exhaustive_search(demo, BETA_ONE, top_k=0)


@pytest.mark.parametrize("search", [exhaustive_search, anneal, evolve])
def test_top_k_is_checked_before_any_subset_is_scored(demo, search, monkeypatch):
    calls = []
    evaluate_mask = SubsetEvaluator.evaluate_mask
    monkeypatch.setattr(SubsetEvaluator, "evaluate_mask", lambda self, m: calls.append(m) or evaluate_mask(self, m))
    with pytest.raises(ValueError, match="^top_k must be >= 1$"):
        search(demo, BETA_ONE, top_k=0)
    assert calls == []


@given(graphs(max_nodes=6))
@settings(max_examples=60, deadline=None)
def test_heuristics_never_beat_the_oracle(g):
    oracle = exhaustive_search(g, BETA_ONE).best.score.value
    sa = anneal(g, BETA_ONE, FAST_SCHEDULE, rng_seed=1).best.score.value
    ga = evolve(g, BETA_ONE, FAST_GA, rng_seed=1).best.score.value
    assert sa <= oracle + 1e-12
    assert ga <= oracle + 1e-12


@given(graphs(max_nodes=6))
@settings(max_examples=60, deadline=None)
def test_search_results_are_sound(g):
    # Best score must be reproducible from scratch on best.seeds.
    for result in (
        exhaustive_search(g, BETA_ONE),
        anneal(g, BETA_ONE, FAST_SCHEDULE, rng_seed=2),
        evolve(g, BETA_ONE, FAST_GA, rng_seed=2),
    ):
        seeds = result.best.seeds
        _, s, _ = soil(g, seeds)
        redone = gated_cost(s, len(seeds), g.n_nodes, BETA_ONE)
        assert math.isclose(result.best.score.value, redone.value, rel_tol=1e-12, abs_tol=1e-12)


def _full_sort_ranking(evaluator, seen, top_k):
    # Reference: a Candidate for every seen mask, sorted by rank_key.
    candidates = sorted((Candidate(evaluator.seeds_of(m), sc) for m, sc in seen.items()), key=rank_key)
    return tuple(candidates[:top_k])


def _values(seen):
    return {m: sc.value for m, sc in seen.items()}


def _all_defined(g, spec):
    evaluator = SubsetEvaluator(g, spec)
    scores = {m: evaluator.evaluate_mask(m) for m in range(1, 1 << g.n_nodes)}
    return evaluator, {m: sc for m, sc in scores.items() if sc.defined}


def _straddles_cut(ranked_all, top_k):
    key = lambda c: (-c.score.value, len(c.seeds))  # noqa: E731
    return top_k < len(ranked_all) and key(ranked_all[top_k - 1]) == key(ranked_all[top_k])


def test_mask_ranking_matches_full_sort_on_demo_ties(demo):
    evaluator, seen = _all_defined(demo, BETA_ONE)
    everything = _full_sort_ranking(evaluator, seen, len(seen))
    straddled = 0
    for top_k in range(1, len(seen) + 2):
        result = _result(evaluator, _values(seen), 0, 0, "sa", top_k)
        assert result.ranked == _full_sort_ranking(evaluator, seen, top_k)
        straddled += _straddles_cut(everything, top_k)
    assert straddled >= 10  # the demo graph has many equal (score, n) pairs


@given(star_graphs(max_leaves=6), st.integers(1, 20))
@settings(max_examples=100, deadline=None)
def test_mask_ranking_matches_full_sort_on_stars(g, top_k):
    evaluator, seen = _all_defined(g, BETA_OVER_N)
    result = _result(evaluator, _values(seen), 0, 0, "sa", top_k)
    assert result.ranked == _full_sort_ranking(evaluator, seen, top_k)
    assert result.best == result.ranked[0]


class _TableEvaluator:
    """``seeds_of`` and ``evaluate_mask`` of a 6-node graph whose subsets
    have the values of a mask -> value table (None where gated out)."""

    def __init__(self, values):
        self.values = values
        self.seeds_of = SubsetEvaluator(Graph([f"v{i}" for i in range(6)]), BETA_ONE).seeds_of

    def evaluate_mask(self, mask):
        value = self.values[mask]
        return Score(value is not None, value, 0.0, mask.bit_count(), 1.0)


@given(st.dictionaries(st.integers(1, 63), st.sampled_from([None, -1.0, 0.0, 0.5, 2.0])), st.data())
@settings(max_examples=300, deadline=None)
def test_contenders_of_any_part_leave_the_ranking_as_it_is(values, data):
    # Annealing's turnover replaces a part of its table by that part's
    # contenders. Few distinct values over masks of 6 nodes make many ties
    # on score and on (score, size) at the k-th place.
    top_k = data.draw(st.integers(1, len(values) + 2))
    part = data.draw(st.sets(st.sampled_from(sorted(values)))) if values else set()
    a = {m: v for m, v in values.items() if m in part}
    b = {m: v for m, v in values.items() if m not in part}
    evaluator = _TableEvaluator(values)
    contenders = optimize._contenders(a, top_k)
    assert contenders.items() <= a.items()
    whole = _outcome(_result, evaluator, values, 0, 0, "sa", top_k)
    assert _outcome(_result, evaluator, {**contenders, **b}, 0, 0, "sa", top_k) == whole
    defined = {m: evaluator.evaluate_mask(m) for m, v in values.items() if v is not None}
    if defined:
        assert whole.ranked == _full_sort_ranking(evaluator, defined, top_k)


def _outcome(search, *args):
    try:
        return search(*args)
    except InfeasibleSearchError as exc:
        return type(exc), str(exc)


def _brute_force_search(g, spec, top_k):
    # Reference: evaluate_mask on every mask, all defined ones ranked by rank_key.
    evaluator, seen = _all_defined(g, spec)
    if not seen:
        raise InfeasibleSearchError("no gate-feasible candidate was found")
    ranked = _full_sort_ranking(evaluator, seen, top_k)
    return SearchResult(ranked[0], ranked, (1 << g.n_nodes) - 1, 0, "exhaustive")


small_graphs = st.one_of(graphs(max_nodes=7), graphs(max_nodes=7, weighted=False), edgeless_graphs(7), star_graphs(6))


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_exhaustive_equals_brute_force(data):
    g = data.draw(small_graphs)
    spec = data.draw(cost_specs(g))
    top_k = data.draw(st.integers(1, (1 << g.n_nodes) + 2))
    assert _outcome(exhaustive_search, g, spec, top_k) == _outcome(_brute_force_search, g, spec, top_k)


def _in_blocks_of_four(g, spec, top_k):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(optimize, "EXHAUSTIVE_BLOCK_SIZE", 4)
        return _outcome(exhaustive_search, g, spec, top_k)


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_exhaustive_blocks_match_one_block(data):
    g = data.draw(st.one_of(graphs(max_nodes=10), edgeless_graphs(10)))
    spec = data.draw(cost_specs(g))
    top_k = data.draw(st.integers(1, 40))
    assert _in_blocks_of_four(g, spec, top_k) == _outcome(exhaustive_search, g, spec, top_k)


def test_exhaustive_block_cut_keeps_ties_across_blocks():
    # Edgeless with unit weights: a subset's score depends on its size
    # alone, so each size's C(8, n) tied masks are spread over many blocks.
    g = Graph([f"v{i}" for i in range(8)])
    evaluator, seen = _all_defined(g, BETA_ONE)
    everything = _full_sort_ranking(evaluator, seen, len(seen))
    straddled = 0
    for top_k in range(1, len(seen) + 2):
        expected = SearchResult(everything[0], everything[:top_k], 255, 0, "exhaustive")
        assert _in_blocks_of_four(g, BETA_ONE, top_k) == expected
        straddled += _straddles_cut(everything, top_k)
    assert straddled >= 100


def _walk_alone(g, spec, schedule, rng_seed, top_k):
    # Reference: each restart in turn walks on its own stream, as a loop of
    # single flips scored from scratch by evaluate_mask. The restarts are
    # then replayed side by side, step by step, until together they have
    # scored every nonempty subset, where the search stops. The greedy
    # prefixes join the ranking.
    evaluator = SubsetEvaluator(g, spec)
    n = g.n_nodes
    prefixes = optimize._greedy_prefixes(evaluator)
    scored = {}  # mask -> value, or None where gated out
    evaluations = len(prefixes)
    walks = []  # per restart, the neighbour each step scores, or 0 for none
    for r in range(schedule.restarts):
        rng = np.random.default_rng([rng_seed, r])
        current, value, used = optimize._feasible_start(evaluator, rng, n)
        evaluations += used
        scored[current] = value
        walk = []
        temperature = schedule.initial_temperature
        while temperature >= schedule.minimum_temperature:
            flips = rng.integers(0, n, schedule.steps_per_temperature).tolist()
            draws = rng.random(schedule.steps_per_temperature).tolist()
            for v, draw in zip(flips, draws):
                neighbor = current ^ (1 << v)
                walk.append(neighbor)
                if neighbor == 0:
                    continue
                sc = evaluator.evaluate_mask(neighbor)
                if not sc.defined:
                    continue
                delta = sc.value - value
                if delta >= 0.0 or draw < math.exp(delta / temperature):
                    current, value = neighbor, sc.value
            temperature *= schedule.cooling_factor
        walks.append(walk)
    for step in zip(*walks):
        if len(scored) == (1 << n) - 1:
            break
        for neighbor in step:
            if neighbor:
                evaluations += 1
                scored[neighbor] = evaluator.evaluate_mask(neighbor).value
    return optimize._result(evaluator, {**prefixes, **scored}, evaluations, rng_seed, "sa", top_k)


short_schedules = st.builds(
    AnnealingSchedule,
    initial_temperature=st.sampled_from([0.05, 0.3, 1.0]),
    cooling_factor=st.sampled_from([0.5, 0.8]),
    steps_per_temperature=st.integers(1, 6),
    minimum_temperature=st.sampled_from([0.02, 0.1]),
    restarts=st.integers(1, 4),
)


def _lockstep_equals_walking_alone(g, data):
    spec = data.draw(cost_specs(g))
    schedule = data.draw(short_schedules)
    rng_seed = data.draw(st.integers(0, 2**32))
    top_k = data.draw(st.integers(1, 12))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(optimize, "_proven_best", lambda *a: None)
        got = _outcome(functools.partial(anneal, top_k=top_k), g, spec, schedule, rng_seed)
    assert got == _outcome(_walk_alone, g, spec, schedule, rng_seed, top_k)
    return got, schedule


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_anneal_equals_restarts_walking_alone(data):
    g = data.draw(st.one_of(graphs(max_nodes=7), edgeless_graphs(7), star_graphs(6)))
    _lockstep_equals_walking_alone(g, data)


@given(wide_graphs(), st.data())
@settings(max_examples=25, deadline=None)
def test_anneal_equals_restarts_walking_alone_past_64_nodes(g, data):
    # Masks no longer fit in an int64; the walk stays on Python ints.
    _lockstep_equals_walking_alone(g, data)


@given(wide_graphs(), st.data())
@settings(max_examples=25, deadline=None)
def test_anneal_turning_over_every_level_equals_walking_alone(g, data):
    # No schedule drawn here can score all 2^64 subsets, so the table turns
    # over at the end of every level where its size passes TABLE_KEEP: with
    # 0, every level, each forgetting all but its contenders.
    calls = []
    contenders = optimize._contenders
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(optimize, "TABLE_KEEP", 0)
        patch.setattr(optimize, "_contenders", lambda values, k: calls.append(k) or contenders(values, k))
        got, schedule = _lockstep_equals_walking_alone(g, data)
    if isinstance(got, SearchResult):
        levels, temperature = 0, schedule.initial_temperature
        while temperature >= schedule.minimum_temperature:
            levels, temperature = levels + 1, temperature * schedule.cooling_factor
        # One call from each search's _result, and one per turnover.
        assert len(calls) == 2 + levels


@pytest.mark.parametrize(
    "n_nodes,rng_seed,used", [(2, 4, 2), (2, 10, 2), (2, 11, 1), (30, 0, 2)], ids=["2-4", "2-10", "2-11", "30-0"]
)
def test_feasible_start_counts_the_subsets_it_scored(n_nodes, rng_seed, used):
    # Only singletons pass the gate. On 2 nodes these streams first draw
    # both nodes (seeds 4 and 10), or none (not tested) and then a singleton
    # (seed 11); on 30 nodes the first draw holds about 15. A first nonempty
    # draw that fails the gate is followed by one drawn from the gate's
    # predicate, which passes. Each is tested against the gate alone, and
    # only the start is scored.
    g = Graph([f"v{i}" for i in range(n_nodes)])
    evaluator = SubsetEvaluator(g, CostSpec(gates=(("cardinality:1:1", 1.0),)))
    calls = []
    evaluate_mask = evaluator.evaluate_mask
    evaluator.evaluate_mask = lambda mask: calls.append(mask) or evaluate_mask(mask)
    mask, value, tested = optimize._feasible_start(evaluator, np.random.default_rng([rng_seed, 0]), n_nodes)
    assert value is not None and mask.bit_count() == 1
    assert tested == used
    assert calls == [mask]


@given(graphs(max_nodes=8), st.data())
@settings(max_examples=1000, deadline=None)
def test_feasible_start_exists_exactly_when_some_subset_passes_the_gates(g, data):
    # A start is found, defined and scored alone, wherever exhaustive search
    # finds a defined subset; elsewhere no subset passes, which the start
    # proves by raising.
    spec = data.draw(cost_specs(g))
    evaluator = SubsetEvaluator(g, spec)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32)))
    feasible = isinstance(_outcome(exhaustive_search, g, spec, 1), SearchResult)
    try:
        mask, value, tested = optimize._feasible_start(evaluator, rng, g.n_nodes)
    except InfeasibleSearchError:
        assert not feasible
        return
    assert feasible
    assert value is not None and value == evaluator.evaluate_mask(mask).value
    assert tested in (1, 2)


def test_anneal_single_node_graph_equals_walking_alone():
    # Every flip of the only node would empty the subset, so no move is
    # made: the evaluations are the one greedy prefix and the three starts.
    g = Graph(["only"])
    schedule = AnnealingSchedule(steps_per_temperature=3, minimum_temperature=0.1, restarts=3)
    result = anneal(g, BETA_ONE, schedule, rng_seed=4)
    assert result == _walk_alone(g, BETA_ONE, schedule, 4, 10)
    assert result.evaluations == 4


@pytest.mark.parametrize("rng_seed", range(1, 11))
def test_anneal_stops_with_the_exact_ranking_once_every_subset_is_scored(demo, rng_seed, monkeypatch):
    # The default schedule makes 90,000 flips in 9,000 lockstep steps of 10
    # restarts; on the 7-node demo graph they score all 127 subsets within
    # the first 150 steps. The table can fill, so it never turns over,
    # however small TABLE_KEEP is.
    monkeypatch.setattr(optimize, "TABLE_KEEP", 1)
    result = anneal(demo, BETA_ONE, rng_seed=rng_seed)
    assert result.ranked == exhaustive_search(demo, BETA_ONE).ranked
    assert result.evaluations < 1_500


@pytest.mark.parametrize("rng_seed", range(1, 11))
def test_evolve_stops_with_the_exact_ranking_once_every_subset_is_scored(demo, rng_seed):
    # 40 individuals over 100 generations make 4,040 evaluations. At the
    # default mutation rate of 1/7 the population on the 7-node demo graph
    # settles before it has met all 127 subsets; at 0.5 it meets them all
    # within 35 generations, and the search stops there.
    result = evolve(demo, BETA_ONE, GaParams(mutation_rate=0.5), rng_seed=rng_seed)
    assert result.ranked == exhaustive_search(demo, BETA_ONE).ranked
    assert result.evaluations < 4_040


def test_evolve_draws_each_generation_in_as_many_generator_calls_at_any_population_size(monkeypatch):
    # On gated-73 under the gated-73-ga cost, 6 populations of 8 or 64 can
    # neither fill the table of 2^73 - 1 subsets nor be proven, so all 5
    # generations breed: the evaluations are the greedy prefixes, the 6
    # populations and the 2 subsets the feasible start tests.
    g = parse_graph((GOLDEN / "gated-73.graph").read_text(encoding="utf-8"))
    default_rng = np.random.default_rng
    calls = []

    class Counted:
        def __init__(self, seed):
            self._rng = default_rng(seed)

        def __getattr__(self, name):
            draw = getattr(self._rng, name)
            return lambda *args, **kwargs: calls.append(name) or draw(*args, **kwargs)

    monkeypatch.setattr(np.random, "default_rng", Counted)
    counts = []
    for population_size in (8, 64):
        calls.clear()
        result = evolve(g, GATED_73_GA, GaParams(population_size=population_size, generations=5))
        assert result.evaluations == len(optimize._greedy_prefixes(SubsetEvaluator(g, GATED_73_GA))) + 6 * population_size + 2
        counts.append(len(calls))
    assert counts[0] == counts[1]


def test_evolve_finds_the_gated_73_ga_rank_1_on_20_rng_seeds():
    g = parse_graph((GOLDEN / "gated-73.graph").read_text(encoding="utf-8"))
    found = [evolve(g, GATED_73_GA, rng_seed=rng_seed).best.score.value.hex() for rng_seed in range(20)]
    assert found == [(1.2650121974103958).hex()] * 20


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_size_bounds_hold_and_a_proven_best_is_the_optimum(data):
    # F_k bounds every defined k-subset's value, as exhaustive search scores
    # it, under both measures, with or without gates, with float weights
    # and dyadic ones; both sum exactly in units and round S once. There is
    # no bound under a penalty or where some alpha(k) < 0.
    g = data.draw(st.one_of(graphs(max_nodes=8), graphs(max_nodes=8, dyadic=True), star_graphs(7)))
    spec = data.draw(cost_specs(g))
    for field, value in [
        ("penalties", ()),
        ("alpha", CoefficientFn(spec.alpha.form, abs(spec.alpha.c))),
        ("gates", ()),
    ]:
        if data.draw(st.booleans()):
            spec = dataclasses.replace(spec, **{field: value})
    evaluator = SubsetEvaluator(g, spec)
    bounds = optimize._size_bounds(evaluator)
    assert (bounds is None) == (bool(spec.penalties) or min(evaluator._size_tables[0][1:]) < 0.0)
    if bounds is None:
        return
    exact = _outcome(exhaustive_search, g, spec, 1 << g.n_nodes)
    ranked = exact.ranked if isinstance(exact, SearchResult) else ()
    for candidate in ranked:
        assert candidate.score.value <= bounds[candidate.score.n]
    best = optimize._proven_best(evaluator, optimize._greedy_prefixes(evaluator))
    if best is not None:
        assert ranked[0].score.value.hex() == evaluator.evaluate_mask(best).value.hex()


@pytest.mark.parametrize("beta", [constant(1.0), over_n(2.0)], ids=["beta-1", "beta-2/n"])
def test_the_proof_fires_on_sa_200_under_the_edge_measure(beta):
    # Its edge weights, 0.0025 and 0.005, are not dyadic. The bound and the
    # greedy prefixes take the same S of exact sums, so greedy's best meets
    # the bound with no margin to cover rounding.
    g = parse_graph((GOLDEN / "sa-200.graph").read_text(encoding="utf-8"))
    evaluator = SubsetEvaluator(g, CostSpec(beta=beta, mode="edge"))
    assert optimize._proven_best(evaluator, optimize._greedy_prefixes(evaluator)) is not None


@given(wide_graphs(), st.sampled_from([BETA_ONE, BETA_OVER_N]), st.integers(0, 2**32))
@settings(max_examples=25, deadline=None)
def test_heuristics_never_return_less_than_the_best_greedy_prefix(g, spec, rng_seed):
    prefixes = optimize._greedy_prefixes(SubsetEvaluator(g, spec))
    floor = max(prefixes.values())
    assert anneal(g, spec, FAST_SCHEDULE, rng_seed).best.score.value >= floor
    assert evolve(g, spec, FAST_GA, rng_seed).best.score.value >= floor


@pytest.mark.parametrize("search", [anneal, evolve])
def test_a_proven_best_is_ranked_with_its_one_node_flips(search):
    # The hub alone soils everything: the greedy prefix {hub} is proven
    # under beta = 2/n, and the 64 leaves cannot fill either table.
    g = Graph(["hub", *(f"leaf{i}" for i in range(64))], [("hub", f"leaf{i}") for i in range(64)])
    result = search(g, BETA_OVER_N, rng_seed=3)
    assert result.best.seeds == frozenset({"hub"})
    assert result.evaluations == 1 + 64
    assert [c.sorted_seeds for c in result.ranked[1:3]] == [("hub", "leaf0"), ("hub", "leaf1")]


@given(st.sampled_from(MEASURE_MODES), st.data())
@settings(max_examples=200, deadline=None)
def test_proof_flips_score_as_evaluate_mask_scores_them(mode, data):
    # _proven_result scores each one-node flip from the best's coverage
    # counts, in blocks of 22 // N rows here, so that several run. Any
    # subset serves as the best: no proof is needed to rank its flips.
    g = data.draw(graphs(min_nodes=6))
    assume(mode == "node" or g.n_edges)
    evaluator = SubsetEvaluator(g, dataclasses.replace(data.draw(cost_specs(g)), mode=mode))
    best = data.draw(st.integers(1, (1 << g.n_nodes) - 1))
    tables, blocks = [], []
    evaluate_block = SubsetEvaluator.evaluate_block
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(optimize, "EXHAUSTIVE_BLOCK_SIZE", 1)
        patch.setattr(optimize, "_result", lambda ev, values, *a: tables.append(values))
        patch.setattr(
            SubsetEvaluator, "evaluate_block", lambda self, masks, *a: blocks.append(len(masks)) or evaluate_block(self, masks, *a)
        )
        optimize._proven_result(evaluator, {}, best, 0, "sa", 1)
    flips = [best ^ 1 << v for v in range(g.n_nodes) if best != 1 << v]
    assert len(blocks) > 1 and sum(blocks) == len(flips)
    expected = {m: evaluator.evaluate_mask(m).value for m in flips}
    assert {m: None if v is None else v.hex() for m, v in tables[0].items()} == {
        m: None if v is None else v.hex() for m, v in expected.items()
    }


@pytest.mark.parametrize(
    "search,graph,walks",
    [(anneal, "sa-200.graph", False), (evolve, "sa-200.graph", False), (anneal, None, True), (evolve, None, True)],
    ids=["sa-proven", "ga-proven", "sa-walk", "ga-walk"],
)
def test_only_the_annealing_walk_builds_reach_steps(demo, search, graph, walks, monkeypatch):
    # The proof scores its flips from reach rows; the lockstep walk keeps
    # its counts current with reach-step rows. On the demo graph the
    # tables can hold every subset, so no proof is tried and both walk.
    g = parse_graph((GOLDEN / graph).read_text(encoding="utf-8")) if graph else demo
    evaluators, proofs = [], []
    result, proven_result = optimize._result, optimize._proven_result
    monkeypatch.setattr(optimize, "_result", lambda ev, *a: evaluators.append(ev) or result(ev, *a))
    monkeypatch.setattr(optimize, "_proven_result", lambda *a: proofs.append(a) or proven_result(*a))
    search(g, BETA_ONE)
    assert len(proofs) == (not walks)
    assert ["_reach_steps" in ev.__dict__ for ev in evaluators] == [walks and search is anneal]


@pytest.mark.parametrize(
    "log,spec",
    [((20, 20, 3), BETA_ONE), ((20, 20, 3), BETA_OVER_N), ((20, 20, 3), CostSpec(mode="edge")), ((18, 18, 18), BETA_OVER_N)],
    ids=["beta-1", "beta-2/n", "edge", "tie-beta-2/n"],
)
def test_a_proven_best_has_the_exhaustive_rank_1_seeds(log, spec):
    # On these graphs (18 and 17 nodes) the proof fires under each cost. On
    # the first, n4 and n12 lie in one source SCC, n4 first in node order:
    # greedy must take n12, the smaller id, as rank_key does, to return
    # exhaustive search's rank 1. On the second, the sources n4 and n15 tie
    # on gain and on score, n4 first in node order: greedy must take n15,
    # the smaller id, first.
    g = build_from_log(generate_log(*log))
    expected = exhaustive_search(g, spec).best
    for search in (anneal, evolve):
        result = search(g, spec)
        assert result.evaluations < 30
        assert result.best == expected
