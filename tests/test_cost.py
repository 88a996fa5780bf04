import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from critset import constraints
from critset.constraints import UnknownConstraintError, same_component
from critset.cost import (
    CoefficientFn,
    CostConfigError,
    CostSpec,
    SubsetEvaluator,
    _sums_exact,
    basic_cost,
    constant,
    gated_cost,
    generalized_cost,
    over_n,
    parse_cost_config,
)
from critset.graphs import MEASURE_MODES, Graph, _bits, _mask_of, total_weight
from critset.ingest import build_from_log, generate_log
from critset.taint import propagate, soil

from .strategies import cost_specs, graphs, graphs_and_seeds, wide_graphs

SAME_COMPONENT_GATE = CostSpec(gates=(("same-component", 1.0),))

coefficients = st.one_of(
    st.floats(min_value=-3.0, max_value=3.0, allow_nan=False).map(constant),
    st.floats(min_value=-3.0, max_value=3.0, allow_nan=False).map(over_n),
)


def test_coefficient_forms():
    assert constant(2.5)(1) == 2.5
    assert constant(2.5)(9) == 2.5
    assert over_n(2.0)(4) == 0.5
    assert str(over_n(2.0)) == "inv 2"


def test_coefficient_validation():
    with pytest.raises(ValueError):
        CoefficientFn("quadratic", 1.0)
    with pytest.raises(ValueError):
        constant(float("nan"))
    with pytest.raises(ValueError):
        over_n(float("inf"))


def test_basic_cost_values():
    assert abs(basic_cost(6 / 7, 2, 7) - 61 / 49) < 1e-12
    assert abs(basic_cost(1.0, 3, 7, over_n(2.0)) - 179 / 147) < 1e-12
    assert basic_cost(1.0, 7, 7) == 1.0


def test_basic_cost_range_check():
    with pytest.raises(ValueError):
        basic_cost(0.5, 0, 7)
    with pytest.raises(ValueError):
        basic_cost(0.5, 8, 7)


@given(
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    st.integers(1, 30),
    st.integers(1, 30),
    coefficients,
)
@settings(max_examples=500)
def test_generalized_reduces_to_basic_exactly(s, n, n_total, beta):
    if n > n_total:
        n, n_total = n_total, n
    spec = CostSpec(beta=beta)
    assert generalized_cost(s, n, n_total, spec) == basic_cost(s, n, n_total, beta)


def test_generalized_zero_case():
    spec = CostSpec(beta=constant(0.0), penalties=((1.0, "same-component"),))
    assert generalized_cost(0.0, 2, 7, spec, constraint_values=[0.0]) == 0.0


def test_generalized_penalty_addition():
    base = basic_cost(2 / 7, 2, 7)
    spec = CostSpec(penalties=((0.5, "same-component"),))
    assert abs(generalized_cost(2 / 7, 2, 7, spec, [1.0]) - (base + 0.5)) < 1e-12
    assert abs(generalized_cost(2 / 7, 2, 7, spec, [1.0]) - (29 / 49 + 0.5)) < 1e-12


def test_generalized_arity_mismatch():
    spec = CostSpec(penalties=((0.5, "same-component"),))
    with pytest.raises(ValueError):
        generalized_cost(0.5, 1, 7, spec, [])
    with pytest.raises(ValueError):
        generalized_cost(0.5, 1, 7, CostSpec(), [1.0])


def test_gated_demo_rows(demo):
    defined = gated_cost(5 / 7, 2, 7, SAME_COMPONENT_GATE, [1.0])
    assert defined.defined
    assert abs(defined.value - 50 / 49) < 1e-12
    undefined = gated_cost(6 / 7, 2, 7, SAME_COMPONENT_GATE, [0.0])
    assert not undefined.defined
    assert undefined.value is None
    assert undefined.gate_degree == 0.0


def test_no_gates_always_defined():
    score = gated_cost(0.5, 1, 4, CostSpec())
    assert score.defined and score.gate_degree == 1.0


def test_gate_degree_range_checked():
    with pytest.raises(ValueError):
        gated_cost(0.5, 1, 4, SAME_COMPONENT_GATE, [1.5])
    with pytest.raises(ValueError):
        gated_cost(0.5, 1, 4, SAME_COMPONENT_GATE, [-0.1])


def test_gate_arity_checked():
    with pytest.raises(ValueError):
        gated_cost(0.5, 1, 4, SAME_COMPONENT_GATE, [])


def test_min_composition_and_threshold():
    two_gates = CostSpec(gates=(("fuzzy-small:6", 0.5), ("same-component", 0.5)))
    passing = gated_cost(0.5, 2, 7, two_gates, [0.9, 0.6])
    assert passing.defined
    assert passing.gate_degree == 0.6
    failing = gated_cost(0.5, 2, 7, two_gates, [0.9, 0.4])
    assert not failing.defined


def test_undefined_is_absorbing():
    one_gate = CostSpec(gates=(("same-component", 1.0),))
    two_gates = CostSpec(gates=(("same-component", 1.0), ("fuzzy-small:6", 1.0)))
    assert not gated_cost(0.5, 2, 7, one_gate, [0.0]).defined
    assert not gated_cost(0.5, 2, 7, two_gates, [0.0, 1.0]).defined


def test_spec_validation():
    with pytest.raises(UnknownConstraintError):
        CostSpec(gates=(("no-such-constraint", 1.0),))
    with pytest.raises(UnknownConstraintError):
        CostSpec(penalties=((1.0, "no-such-constraint"),))
    with pytest.raises(ValueError):
        CostSpec(gates=(("same-component", 0.0),))
    with pytest.raises(ValueError):
        CostSpec(gates=(("same-component", 1.5),))
    with pytest.raises(ValueError):
        CostSpec(mode="area")
    for eps in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="penalty epsilon must be finite"):
            CostSpec(penalties=((eps, "fuzzy-small:6"),))


def test_parse_cost_config_full():
    spec = parse_cost_config(
        """
        # demo config
        alpha = const 1
        beta = inv 2
        gamma = const 1
        delta = const 1
        measure = node
        gate = same-component tau=0.5
        gate = fuzzy-small:6
        penalty = cardinality:1:3 eps=0.25
        """
    )
    assert spec.beta(2) == 1.0
    assert spec.gates == (("same-component", 0.5), ("fuzzy-small:6", 1.0))
    assert spec.penalties == ((0.25, "cardinality:1:3"),)
    assert spec.mode == "node"


@pytest.mark.parametrize(
    "text",
    [
        "alpha const 1",
        "alpha = const",
        "alpha = quad 2",
        "beta = const x",
        "measure = area",
        "gate = same-component tau=2",
        "penalty = same-component",
        "penalty = same-component eps=x",
        "speed = const 1",
    ],
)
def test_parse_cost_config_errors(text):
    with pytest.raises((CostConfigError, ValueError)):
        parse_cost_config(text)


def test_parse_cost_config_reports_line():
    with pytest.raises(CostConfigError) as err:
        parse_cost_config("alpha = const 1\nbeta = const x\n")
    assert "line 2" in str(err.value)


@pytest.mark.parametrize(
    "line, message",
    [
        ("gate = same-component tau=2", "gate threshold must be in (0, 1], got 2.0"),
        ("gate = same-component tau=0", "gate threshold must be in (0, 1], got 0.0"),
        ("gate = same-component tau=nan", "gate threshold must be in (0, 1], got nan"),
        ("penalty = same-component eps=nan", "penalty epsilon must be finite, got nan"),
        ("penalty = same-component eps=-inf", "penalty epsilon must be finite, got -inf"),
        ("measure = bogus", "unknown measure mode 'bogus'; expected one of ('node', 'edge')"),
        ("gate = nope", "unknown constraint id 'nope'"),
        ("penalty = cardinality:3:1 eps=0.5", "cardinality bounds must satisfy 1 <= min <= max, got (3, 1)"),
    ],
)
def test_parse_cost_config_names_the_line_of_a_bad_tau_or_eps(line, message):
    with pytest.raises(CostConfigError) as err:
        parse_cost_config(f"alpha = const 1\n{line}\n")
    assert str(err.value) == f"line 2: {message}"


def test_evaluator_matches_demo_scores(demo):
    ev = SubsetEvaluator(demo, CostSpec())
    assert abs(ev.evaluate({"1", "4", "6"}).value - 65 / 49) < 1e-12
    assert abs(ev.evaluate({"3", "5"}).value - 29 / 49) < 1e-12


def test_evaluator_mask_round_trip(demo):
    ev = SubsetEvaluator(demo, CostSpec())
    mask = ev.mask_of({"2", "6"})
    assert ev.seeds_of(mask) == frozenset({"2", "6"})
    assert ev.evaluate_mask(mask) == ev.evaluate({"2", "6"})


def test_evaluator_rejects_bad_masks(demo):
    ev = SubsetEvaluator(demo, CostSpec())
    with pytest.raises(ValueError):
        ev.evaluate_mask(0)
    with pytest.raises(ValueError):
        ev.evaluate_mask(1 << demo.n_nodes)
    with pytest.raises(ValueError):
        ev.evaluate({"99"})


def test_evaluator_requires_edges_in_edge_mode():
    with pytest.raises(ValueError):
        SubsetEvaluator(Graph(["a"]), CostSpec(mode="edge"))


@given(graphs_and_seeds())
@settings(max_examples=300)
def test_evaluator_agrees_with_direct_route(case):
    # Same score through two independent paths: fast mask evaluator vs
    # direct propagate + measure + gated_cost.
    g, seeds = case
    spec = CostSpec(
        beta=over_n(2.0),
        gates=(("fuzzy-small:6", 0.25),),
        penalties=((0.5, "cardinality:1:3"),),
    )
    ev = SubsetEvaluator(g, spec)
    got = ev.evaluate(seeds)
    _, s, _ = soil(g, seeds)
    from critset.constraints import cardinality_between, fuzzy_small_subset

    expected = gated_cost(
        s,
        len(seeds),
        g.n_nodes,
        spec,
        [fuzzy_small_subset(6).evaluate(g, seeds)],
        [cardinality_between(1, 3).evaluate(g, seeds)],
    )
    assert got.defined == expected.defined
    assert got.soiled == expected.soiled
    assert got.n == expected.n
    assert got.gate_degree == expected.gate_degree
    if got.defined:
        assert math.isclose(got.value, expected.value, rel_tol=1e-12, abs_tol=1e-12)


@given(graphs_and_seeds())
@settings(max_examples=200)
def test_evaluator_edge_mode_agrees(case):
    g, seeds = case
    if g.n_edges == 0:
        return
    ev = SubsetEvaluator(g, CostSpec(mode="edge"))
    _, s, _ = soil(g, seeds, mode="edge")
    assert math.isclose(ev.evaluate(seeds).soiled, s, rel_tol=1e-12, abs_tol=1e-12)


@given(st.sampled_from(MEASURE_MODES), graphs_and_seeds())
@settings(max_examples=300)
def test_evaluate_mask_soiled_is_the_ascending_loop(mode, case):
    # The soiled measure, bit for bit: propagate's soiled nodes in ascending
    # node order, each adding its weight (under the edge measure its
    # out-edge total), over the graph's total. The weights are not dyadic,
    # so these sums round and their order shows.
    g, seeds = case
    assume(mode == "node" or g.n_edges)
    out_w = dict.fromkeys(g.node_ids, 0.0)
    for s, _, w in g.edges:
        out_w[s] += w
    soiled = propagate(g, seeds).soiled_nodes
    expected = 0.0
    for v in g.node_ids:
        if v in soiled:
            expected += g.node_weight(v) if mode == "node" else out_w[v]
    ev = SubsetEvaluator(g, CostSpec(mode=mode))
    assert ev.evaluate_mask(ev.mask_of(seeds)).soiled.hex() == (expected / total_weight(g, mode)).hex()


@given(graphs_and_seeds())
@settings(max_examples=200)
def test_same_component_gate_via_evaluator(case):
    g, seeds = case
    ev = SubsetEvaluator(g, SAME_COMPONENT_GATE)
    assert ev.evaluate(seeds).defined == (same_component(g, seeds) == 1.0)


def _walk_flips_side_by_side(g, spec, data):
    # Random flip walks side by side: every flip's value must equal, bit for
    # bit, a fresh evaluator's value of the flipped mask (None where gated
    # out), and every counts row the counts of its walk's mask from scratch.
    n = g.n_nodes
    ev = SubsetEvaluator(g, spec)
    reach = [_mask_of(g, propagate(g, [v]).soiled_nodes) for v in g.node_ids]
    subsets = st.integers(1, (1 << n) - 1)
    masks = data.draw(st.lists(subsets, min_size=2, max_size=4))
    counts = np.zeros((len(masks), n), dtype=np.int32)
    # Each walk's moves since its counts row was last brought up to date, as
    # reach-step rows: v adds node v, n + v removes it.
    moves = [list(_bits(mask)) for mask in masks]
    # Per walk and step: the node to flip, whether to accept, and sometimes
    # a jump elsewhere first; per step, whether flips are scored at all (an
    # unscored step accepts every flip), so that rows lag by several moves.
    action = st.tuples(st.integers(0, n - 1), st.booleans(), st.none() | subsets)
    walk_step = st.tuples(st.lists(action, min_size=len(masks), max_size=len(masks)), st.booleans())
    for step, scored in data.draw(st.lists(walk_step, max_size=20)):
        for r, (_, _, jump) in enumerate(step):
            if jump:
                moves[r] += [v if jump >> v & 1 else n + v for v in _bits(masks[r] ^ jump)]
                masks[r] = jump
        rows = [r for r, (v, _, _) in enumerate(step) if masks[r] != 1 << v]
        flips = [step[r][0] for r in rows]
        flipped = [masks[r] ^ (1 << v) for r, v in zip(rows, flips)]
        flip_moves = [v if m >> v & 1 else n + v for m, v in zip(flipped, flips)]
        if scored:
            fresh = [SubsetEvaluator(g, spec).evaluate_mask(m) for m in flipped]
            got = ev.flip_values(counts, moves, rows, flipped, flip_moves)
            assert [None if v is None else v.hex() for v in got] == [
                sc.value.hex() if sc.defined else None for sc in fresh
            ]
            assert moves == [[] for _ in masks]
            for mask, row in zip(masks, counts.tolist()):
                assert row == [sum(reach[s] >> u & 1 for s in _bits(mask)) for u in range(n)]
        for r, m, move in zip(rows, flipped, flip_moves):
            if step[r][1] or not scored:
                masks[r] = m
                moves[r].append(move)


# Float weights take the ordered sum, multiples of 1/64 the matrix-vector
# product; each kind gets about as many examples as the float kind alone had.
@given(st.booleans(), st.sampled_from(MEASURE_MODES), st.data())
@settings(max_examples=600, deadline=None)
def test_flip_scoring_equals_evaluate_mask(dyadic, mode, data):
    g = data.draw(graphs(dyadic=dyadic))
    assume(mode == "node" or g.n_edges)
    spec = CostSpec(
        beta=over_n(2.0),
        gates=(("same-component", 1.0),),
        penalties=((0.7, "fuzzy-small:3"),),
        mode=mode,
    )
    assert SubsetEvaluator(g, spec)._exact_sums or not dyadic
    _walk_flips_side_by_side(g, spec, data)


@given(st.booleans(), st.data())
@settings(max_examples=50, deadline=None)
def test_flip_scoring_equals_evaluate_mask_past_64_nodes(dyadic, data):
    # Masks no longer fit in an int64: the compiled gates and penalties
    # score them as Python ints.
    g = data.draw(wide_graphs(dyadic=dyadic))
    spec = data.draw(cost_specs(g).filter(lambda spec: spec.gates))
    assert SubsetEvaluator(g, spec)._exact_sums or not dyadic
    _walk_flips_side_by_side(g, spec, data)


@pytest.mark.parametrize(
    "weights, exact",
    [
        ([1.0] * 196, True),
        ([k / 64 for k in range(1, 200)], True),
        ([1.0, 0.1], False),
        ([2.0**52, 2.0**52 - 1], True),
        ([2.0**52, 2.0**52], False),
        ([2.0**-1022, 2.0**-1022], True),
        ([2.0**-1023], False),
    ],
)
def test_sums_exact_boundary(weights, exact):
    assert _sums_exact(weights) is exact
    g = Graph([(f"v{i}", w) for i, w in enumerate(weights)])
    assert SubsetEvaluator(g, CostSpec())._exact_sums is exact


def test_ingested_edge_measure_is_not_exact():
    # Ingested edge weights are count / total: the node measure is exact,
    # the edge measure is not.
    g = build_from_log(generate_log(200, 400, 1))
    assert SubsetEvaluator(g, CostSpec())._exact_sums
    assert not SubsetEvaluator(g, CostSpec(mode="edge"))._exact_sums


def _scoring_routes(g, spec, mask):
    # The same mask scored by the scalar tail (through evaluate_mask and
    # through flip_values) and by the batched tail (through evaluate_block).
    ev = SubsetEvaluator(g, spec)
    n = g.n_nodes
    closures, sizes = ev.subset_closures(0, n)
    return (
        lambda: ev.evaluate_mask(mask),
        # From mask ^ 1, the move that adds or removes node 0.
        lambda: ev.flip_values(
            np.zeros((1, n), dtype=np.int32), [list(_bits(mask ^ 1))], [0], [mask], [0 if mask & 1 else n]
        ),
        lambda: ev.evaluate_block(np.array([mask]), closures[[mask]], sizes[[mask]]),
    )


# beta * (gamma - delta * n/N)^2 overflows to inf for every subset.
OVERFLOWING = CostSpec(beta=constant(1e308), gamma=constant(10.0))


def test_batched_tail_rejects_a_non_finite_defined_value(demo):
    for route in _scoring_routes(demo, OVERFLOWING, 0b101):
        with pytest.raises(ValueError, match="cost value is not finite"):
            route()


def test_batched_tail_accepts_a_non_finite_value_gated_out(demo):
    spec = dataclasses.replace(OVERFLOWING, gates=(("cardinality:1:1", 1.0),))
    by_score, by_flip, by_block = (route() for route in _scoring_routes(demo, spec, 0b101))
    assert not by_score.defined
    assert by_flip == [None]
    assert np.isnan(by_block).tolist() == [True]
    for route in _scoring_routes(demo, spec, 0b100):
        with pytest.raises(ValueError, match="cost value is not finite"):
            route()


def test_overflowing_size_term_is_a_non_finite_value(demo):
    # (gamma - delta * n/N) ** 2 overflows, and float ** raises where * would
    # give inf: the size term is inf, so a defined score is an error.
    spec = CostSpec(gamma=constant(1e200))
    assert generalized_cost(0.5, 2, 7, spec) == math.inf
    with pytest.raises(ValueError, match="cost value is not finite"):
        gated_cost(0.5, 2, 7, spec)
    for route in _scoring_routes(demo, spec, 0b101):
        with pytest.raises(ValueError, match="cost value is not finite"):
            route()
    gated = dataclasses.replace(spec, gates=(("cardinality:1:1", 1.0),))
    assert not gated_cost(0.5, 2, 7, gated, gate_degrees=[0.0]).defined
    by_score, by_flip, by_block = (route() for route in _scoring_routes(demo, gated, 0b101))
    assert not by_score.defined
    assert by_flip == [None]
    assert np.isnan(by_block).tolist() == [True]


@pytest.mark.parametrize("degree", [-0.5, 1.5, math.nan])
def test_batched_tail_rejects_a_gate_degree_outside_0_1(demo, degree, monkeypatch):
    # No registered constraint leaves [0, 1], so one that does is put in.
    bad = constraints.ConstraintEvaluator(
        "bad", constraints.FUZZY, lambda g, seeds: degree, lambda g: lambda mask, n: n * 0.0 + degree
    )
    resolve = constraints.resolve
    monkeypatch.setattr(constraints, "resolve", lambda cid: bad if cid == "bad" else resolve(cid))
    spec = CostSpec(gates=(("bad", 0.5),))
    for route in _scoring_routes(demo, spec, 0b101):
        with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
            route()


@given(graphs(max_nodes=6), st.data())
@settings(max_examples=100, deadline=None)
def test_block_values_equal_evaluate_mask(g, data):
    # Every nonempty subset in one block: its value bit for bit, NaN where
    # a gate rules it out.
    ev = SubsetEvaluator(g, data.draw(cost_specs(g)))
    closures, sizes = ev.subset_closures(0, g.n_nodes)
    masks = np.arange(1 << g.n_nodes)
    values = ev.evaluate_block(masks[1:], closures[1:], sizes[1:])
    expected = [ev.evaluate_mask(m).value for m in range(1, 1 << g.n_nodes)]
    assert [None if math.isnan(v) else v.hex() for v in values.tolist()] == [None if v is None else v.hex() for v in expected]


@given(graphs(max_nodes=6), st.data())
@settings(max_examples=200, deadline=None)
def test_score_tail_equals_gated_cost(g, data):
    # The evaluator scores from per-size tables and compiled predicates;
    # gated_cost on frozensets of ids is the reference, bit for bit.
    spec = data.draw(cost_specs(g))
    ev = SubsetEvaluator(g, spec)
    for mask in range(1, 1 << g.n_nodes):
        got = ev.evaluate_mask(mask)
        seeds = ev.seeds_of(mask)
        degrees = [constraints.resolve(cid).evaluate(g, seeds) for cid, _ in spec.gates]
        cvals = [constraints.resolve(cid).evaluate(g, seeds) for _, cid in spec.penalties]
        assert got == gated_cost(got.soiled, len(seeds), g.n_nodes, spec, degrees, cvals)
