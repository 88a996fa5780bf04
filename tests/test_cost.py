import dataclasses
import math
from types import SimpleNamespace

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
    basic_cost,
    constant,
    gated_cost,
    generalized_cost,
    over_n,
    parse_cost_config,
)
from critset.graphs import MEASURE_MODES, Graph, _bits, _mask_of, _reach_of, _rows
from critset.optimize import _size_bounds
from critset.taint import _Measure, propagate, soil

from .strategies import cost_specs, graphs, graphs_and_nested_seeds, graphs_and_seeds, wide_graphs

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


@given(st.booleans(), st.sampled_from(MEASURE_MODES), st.data())
@settings(max_examples=400)
def test_evaluator_edge_mode_agrees(dyadic, mode, data):
    # soil() measures through the evaluator's core: the same S bit for bit
    # under both measures, whether the sums round (float weights) or not.
    g = data.draw(graphs(dyadic=dyadic))
    assume(mode == "node" or g.n_edges)
    seeds = data.draw(st.sets(st.sampled_from(list(g.node_ids)), min_size=1))
    ev = SubsetEvaluator(g, CostSpec(mode=mode))
    assert soil(g, seeds, mode)[1].hex() == ev.evaluate(seeds).soiled.hex()


def _fsum_s(g, seeds, mode):
    """fsum of the soiled weights over fsum of all: the soiled nodes' weights,
    or under the edge measure those of the edges whose source is soiled."""
    soiled = propagate(g, seeds).soiled_nodes
    if mode == "node":
        return math.fsum(g.node_weight(v) for v in soiled) / math.fsum(g.node_weight(v) for v in g.node_ids)
    return math.fsum(w for s, _, w in g.edges if s in soiled) / math.fsum(w for _, _, w in g.edges)


def _soiled_by_every_path(g, mode, mask):
    """S of ``mask`` by evaluate_mask, flip_values, evaluate_block and soil(),
    as hex strings; the ungated basic cost at beta = 0 is S^2, which flip_values
    and evaluate_block return in place of S."""
    spec = CostSpec(beta=constant(0.0), mode=mode)
    ev = SubsetEvaluator(g, spec)
    by_score, by_flip, by_block = (route() for route in _scoring_routes(g, spec, mask))
    s = by_score.soiled
    assert by_flip[0] == by_block.tolist()[0] == s * s
    return {s.hex(), soil(g, ev.seeds_of(mask), mode)[1].hex()}


@given(st.sampled_from(MEASURE_MODES), st.booleans(), st.integers(0, 20), graphs_and_seeds())
@settings(max_examples=300, deadline=None)
def test_every_scoring_path_gives_s_as_fsum_over_fsum(mode, tiny, wide, case):
    # The weights are not dyadic, so sums in float64 round and their order
    # shows; S is the correctly rounded soiled sum over the correctly
    # rounded total, bit for bit, by every path, and exactly 1 where every
    # node is soiled. Scaled by 2^-1000, a weight with over 22 fraction
    # bits needs units of 2^-K with K > 1022, so S comes from U as a Python
    # int. The first node's and first edge's weights, times 2^wide, take
    # their units past 62 bits from wide = 10 or so: past two limbs.
    g, seeds = case
    assume(mode == "node" or g.n_edges)
    scale = 2.0**-1000 if tiny else 1.0
    g = Graph(
        [(v, g.node_weight(v) * scale * (2.0**wide if i == 0 else 1.0)) for i, v in enumerate(g.node_ids)],
        [(s, t, w * scale * (2.0**wide if i == 0 else 1.0)) for i, (s, t, w) in enumerate(g.edges)],
    )
    mask = _mask_of(g, seeds)
    assert _soiled_by_every_path(g, mode, mask) == {_fsum_s(g, seeds, mode).hex()}
    assert _soiled_by_every_path(g, mode, (1 << g.n_nodes) - 1) == {"0x1.0000000000000p+0"}


@given(graphs_and_nested_seeds())
@settings(max_examples=300)
def test_edge_measure_is_monotone_under_inclusion(case):
    # Acceptance criterion 7a checks the node measure.
    g, a, b = case
    assume(g.n_edges)
    ev = SubsetEvaluator(g, CostSpec(mode="edge"))
    assert ev.evaluate(a).soiled <= ev.evaluate(b).soiled


@pytest.mark.parametrize("j", [1, 2, 3, 4, 6, 8, 9])
def test_s_of_twelfths_is_their_share(j):
    # Twelve edges of weight 1/12, two of them leaving node a. Added one
    # node's out-edges at a time, in node order, the total rounds up to
    # 1 + 2^-52, and four of twelve read 0.33333333333333326. For these j,
    # j copies of the float nearest 1/12 sum to the float nearest j/12.
    sources = ["b1", "b2", "b3", "b4", "a", *(f"b{i}" for i in range(5, 11))]
    sinks = [f"t{i}" for i in range(12)]
    edges = [("a", "t10", 1 / 12), ("a", "t11", 1 / 12), *((b, t, 1 / 12) for b, t in zip(sources[:4] + sources[5:], sinks))]
    g = Graph([*sources, *sinks], edges)
    assert soil(g, [f"b{i}" for i in range(1, j + 1)], "edge")[1] == j / 12
    assert soil(g, sources, "edge")[1] == 1.0


@given(graphs_and_seeds())
@settings(max_examples=200)
def test_same_component_gate_via_evaluator(case):
    g, seeds = case
    ev = SubsetEvaluator(g, SAME_COMPONENT_GATE)
    assert ev.evaluate(seeds).defined == (same_component(g, seeds) == 1.0)


def _walk_flips_side_by_side(g, spec, data):
    # Random flip walks side by side, keeping their per-node coverage counts
    # current with reach-step rows (v adds node v, n + v removes it) as
    # anneal does: every counts row must equal the counts of its walk's
    # mask from scratch, and every flip's value, bit for bit, a fresh
    # evaluator's value of the flipped mask (None where gated out).
    n = g.n_nodes
    ev = SubsetEvaluator(g, spec)
    reach_steps = ev._reach_steps
    reach = [_mask_of(g, propagate(g, [v]).soiled_nodes) for v in g.node_ids]
    subsets = st.integers(1, (1 << n) - 1)
    masks = data.draw(st.lists(subsets, min_size=2, max_size=4))
    counts = np.array([reach_steps[list(_bits(mask))].sum(axis=0, dtype=np.int32) for mask in masks])
    # Per walk and step: the node to flip, whether to accept, and sometimes
    # a jump elsewhere first; per step, whether flips are scored at all (an
    # unscored step accepts every flip).
    action = st.tuples(st.integers(0, n - 1), st.booleans(), st.none() | subsets)
    walk_step = st.tuples(st.lists(action, min_size=len(masks), max_size=len(masks)), st.booleans())
    for step, scored in data.draw(st.lists(walk_step, max_size=20)):
        for r, (_, _, jump) in enumerate(step):
            if jump:
                jumps = [v if jump >> v & 1 else n + v for v in _bits(masks[r] ^ jump)]
                counts[r] += reach_steps[jumps].sum(axis=0, dtype=np.int32)
                masks[r] = jump
        for mask, row in zip(masks, counts.tolist()):
            assert row == [sum(reach[s] >> u & 1 for s in _bits(mask)) for u in range(n)]
        rows = [r for r, (v, _, _) in enumerate(step) if masks[r] != 1 << v]
        flips = [step[r][0] for r in rows]
        flipped = [masks[r] ^ (1 << v) for r, v in zip(rows, flips)]
        flip_moves = [v if m >> v & 1 else n + v for m, v in zip(flipped, flips)]
        if scored:
            fresh = [SubsetEvaluator(g, spec).evaluate_mask(m) for m in flipped]
            got = ev.flip_values(counts, rows, flipped, flip_moves)
            assert [None if v is None else v.hex() for v in got] == [
                sc.value.hex() if sc.defined else None for sc in fresh
            ]
        # One array add per step, as in anneal: row 2n for a walk that stays.
        made = [2 * n] * len(masks)
        for r, m, move in zip(rows, flipped, flip_moves):
            if step[r][1] or not scored:
                masks[r] = m
                made[r] = move
        counts += reach_steps.take(made, axis=0)


# Float weights and multiples of 1/64; each kind gets about as many
# examples as the float kind alone had.
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
    _walk_flips_side_by_side(g, spec, data)


@given(st.booleans(), st.data())
@settings(max_examples=50, deadline=None)
def test_flip_scoring_equals_evaluate_mask_past_64_nodes(dyadic, data):
    # Masks no longer fit in an int64: the compiled gates and penalties
    # score them as Python ints.
    g = data.draw(wide_graphs(dyadic=dyadic))
    spec = data.draw(cost_specs(g).filter(lambda spec: spec.gates))
    _walk_flips_side_by_side(g, spec, data)


@pytest.mark.parametrize(
    "weights, floats",
    [
        ([2.0**63 - 2.0**11, 2047.0], False),  # a 63-bit unit; 2^63 - 1 units of 1 in all
        ([2.0**63 - 2.0**11, 2048.0], False),  # 2^63 units of 1
        ([2.0**-1022, 3 * 2.0**-1022], True),  # K = 1022
        ([2.0**-1023, 3 * 2.0**-1023], False),  # K = 1023: a subnormal weight
        ([1e-300, 1e300, 0.1], False),
        ([0.1, 0.2, 0.3], True),
        ([2.0**62 - 2.0**10, 1.0], True),  # a 62-bit unit
        ([2.0**62, 1.0], False),  # a 63-bit unit
        ([2.0**62 - 2.0**10] * 3, True),  # 62-bit units, past 2^63 in all
    ],
)
def test_s_is_taken_from_float_limb_sums_only_where_two_limbs_hold_each_unit(weights, floats):
    # Soiled weights sum as float64 limb sums, exactly. S is taken from them
    # in float64 where two 31-bit limbs hold each unit and K <= 1022, else
    # from U as a Python int; either way every scoring path gives fsum over
    # fsum, and the per-size bound of k seeds is the value of the k
    # heaviest, which soil only themselves.
    nodes = [f"v{i}" for i in range(len(weights))]
    g = Graph(list(zip(nodes, weights)), [(v, v, w) for v, w in zip(nodes, weights)])
    for mode in MEASURE_MODES:
        ev = SubsetEvaluator(g, CostSpec(mode=mode))
        assert (ev._measure._radix is not None) is floats
        for mask in range(1, 1 << g.n_nodes):
            assert _soiled_by_every_path(g, mode, mask) == {_fsum_s(g, ev.seeds_of(mask), mode).hex()}
        heaviest = sorted(range(g.n_nodes), key=weights.__getitem__, reverse=True)
        bounds = _size_bounds(ev)
        for k in range(1, g.n_nodes + 1):
            assert bounds[k].hex() == ev.evaluate_mask(sum(1 << v for v in heaviest[:k])).value.hex()


@pytest.mark.parametrize("n_nodes, bits", [(1, 31), (2**22 - 1, 31), (2**22, 30), (2**30, 22)])
def test_limbs_narrow_from_2_to_the_22_nodes(n_nodes, bits):
    # A limb column sums up to N limbs below 2^bits, exact in float64 while
    # below 2^53. From 2^22 nodes limbs are 30 bits or less, so a 62-bit unit
    # takes three and S comes from U as a Python int. Only the node count of
    # this stand-in graph is that large; its units are two.
    g = SimpleNamespace(n_nodes=n_nodes, _units={"node": ([2**62 - 1, 1], 0)}, _totals={"node": 2.0**62})
    measure = _Measure(g, "node")
    assert measure.bits == bits and n_nodes * (2**bits - 1) < 2**53
    assert (measure._radix is not None) is (bits == 31)


def _scoring_routes(g, spec, mask):
    # The same mask scored by the scalar tail (through evaluate_mask and
    # through flip_values) and by the batched tail (through evaluate_block,
    # from the mask as a list of ints and its bool coverage row).
    ev = SubsetEvaluator(g, spec)
    n = g.n_nodes
    covered = _rows([_reach_of(g, mask)], n)
    return (
        lambda: ev.evaluate_mask(mask),
        # From the counts of mask ^ 1, the move that adds or removes node 0.
        lambda: ev.flip_values(
            ev._reach_steps[list(_bits(mask ^ 1))].sum(axis=0, keepdims=True, dtype=np.int32),
            [0],
            [mask],
            [0 if mask & 1 else n],
        ),
        lambda: ev.evaluate_block([mask], covered, np.array([mask.bit_count()])),
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
    # No registered constraint leaves [0, 1], so one that does is put in. Its
    # degree table is checked when the evaluator compiles it, before any
    # route scores a subset.
    bad = constraints.ConstraintEvaluator(
        "bad",
        constraints.FUZZY,
        lambda g, seeds: degree,
        lambda g: constraints.MaskPredicate((degree,) * (g.n_nodes + 1), ((1 << g.n_nodes) - 1,)),
    )
    resolve = constraints.resolve
    monkeypatch.setattr(constraints, "resolve", lambda cid: bad if cid == "bad" else resolve(cid))
    with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
        SubsetEvaluator(demo, CostSpec(gates=(("bad", 0.5),)))


@given(graphs(max_nodes=6), st.data())
@settings(max_examples=100, deadline=None)
def test_block_values_equal_evaluate_mask(g, data):
    # Every nonempty subset in one block, as an int64 array of masks with
    # the coverage rows that subset_closures builds by doubling: its value
    # bit for bit, NaN where a gate rules it out.
    ev = SubsetEvaluator(g, data.draw(cost_specs(g)))
    covered, sizes = ev.subset_closures(0, g.n_nodes)
    masks = np.arange(1 << g.n_nodes)
    values = ev.evaluate_block(masks[1:], covered[1:], sizes[1:])
    expected = [ev.evaluate_mask(m).value for m in range(1, 1 << g.n_nodes)]
    assert [None if math.isnan(v) else v.hex() for v in values.tolist()] == [None if v is None else v.hex() for v in expected]


@given(st.booleans(), st.data())
@settings(max_examples=50, deadline=None)
def test_block_values_equal_evaluate_mask_past_63_nodes(dyadic, data):
    # Masks no longer fit in an int64: evaluate_block takes them as a list
    # of ints, and the compiled gates and penalties score them one by one.
    # Subsets of one to three nodes pass a same-component gate more often.
    g = data.draw(wide_graphs(dyadic=dyadic))
    spec = data.draw(cost_specs(g).filter(lambda spec: spec.gates and spec.penalties))
    ev = SubsetEvaluator(g, spec)
    few = st.sets(st.integers(0, g.n_nodes - 1), min_size=1, max_size=3).map(lambda vs: sum(1 << v for v in vs))
    masks = data.draw(st.lists(st.integers(1, (1 << g.n_nodes) - 1) | few, min_size=1, max_size=20))
    covered = _rows([_reach_of(g, m) for m in masks], g.n_nodes)
    values = ev.evaluate_block(masks, covered, np.array([m.bit_count() for m in masks]))
    expected = [ev.evaluate_mask(m).value for m in masks]
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
