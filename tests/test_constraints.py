import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from critset.constraints import (
    ConstraintError,
    UnknownConstraintError,
    cardinality_between,
    forbid_nodes,
    fuzzy_small_subset,
    require_nodes,
    resolve,
    same_component,
)
from critset.cost import CostSpec, SubsetEvaluator
from critset.graphs import Graph

from .strategies import constraint_ids, graphs, graphs_and_seeds


@pytest.mark.parametrize(
    "seeds,expected",
    [
        ({"3", "5"}, 1.0),
        ({"2", "4", "7"}, 0.0),
        ({"6"}, 1.0),
        ({"1", "6"}, 0.0),
        ({"2", "6"}, 0.0),
        ({"1", "4", "6"}, 0.0),
        ({"1", "4"}, 1.0),
        ({"2", "4"}, 1.0),
    ],
)
def test_same_component_demo(demo, seeds, expected):
    assert same_component(demo, frozenset(seeds)) == expected


def test_same_component_unknown_seed(demo):
    with pytest.raises(ValueError):
        same_component(demo, frozenset({"99"}))


@given(graphs_and_seeds())
@settings(max_examples=200)
def test_singletons_always_share_a_component(case):
    g, seeds = case
    for v in seeds:
        assert same_component(g, frozenset({v})) == 1.0


def test_union_across_components_is_zero():
    g = Graph(["a", "b", "x", "y"], [("a", "b"), ("x", "y")])
    assert same_component(g, frozenset({"a", "b"})) == 1.0
    assert same_component(g, frozenset({"x", "y"})) == 1.0
    assert same_component(g, frozenset({"a", "b", "x", "y"})) == 0.0


def test_cardinality(demo):
    assert cardinality_between(1, 2).evaluate(demo, frozenset({"1", "4", "6"})) == 0.0
    assert cardinality_between(1, 7).evaluate(demo, frozenset({"1", "4", "6"})) == 1.0
    assert cardinality_between(3, 3).evaluate(demo, frozenset({"2", "4", "7"})) == 1.0


@pytest.mark.parametrize("lo,hi", [(0, 2), (3, 2), (-1, -1)])
def test_cardinality_bad_bounds(lo, hi):
    with pytest.raises(ConstraintError):
        cardinality_between(lo, hi)


@pytest.mark.parametrize("make, name", [(require_nodes, "required"), (forbid_nodes, "forbidden")])
def test_node_constraints_reject_a_string(make, name):
    # Iterated, "16" would name the nodes 1 and 6.
    with pytest.raises(ConstraintError, match=f"{name} must be an iterable, not the string '16'"):
        make("16")


def test_require_and_forbid(demo):
    seeds = frozenset({"1", "6"})
    assert require_nodes({"1"}).evaluate(demo, seeds) == 1.0
    assert require_nodes({"2"}).evaluate(demo, seeds) == 0.0
    assert require_nodes(()).evaluate(demo, seeds) == 1.0
    assert forbid_nodes({"6"}).evaluate(demo, seeds) == 0.0
    assert forbid_nodes({"5"}).evaluate(demo, seeds) == 1.0


def test_require_unknown_node_rejected_at_evaluation(demo):
    with pytest.raises(ValueError):
        require_nodes({"nope"}).evaluate(demo, frozenset({"1"}))


@pytest.mark.parametrize("cid", ["require:nope", "forbid:1,nope"])
def test_unknown_node_rejected_at_compile(demo, cid):
    with pytest.raises(ValueError, match="unknown node id 'nope'"):
        resolve(cid).compile(demo)
    with pytest.raises(ValueError, match="unknown node id 'nope'"):
        SubsetEvaluator(demo, CostSpec(penalties=((0.5, cid),)))


def test_fuzzy_small_values(demo):
    ev = fuzzy_small_subset(6)
    assert ev.evaluate(demo, frozenset({"1"})) == 1.0
    assert ev.evaluate(demo, frozenset(demo.node_ids)) == 0.0
    assert ev.evaluate(demo, frozenset({"1", "2", "3", "4"})) == 0.5
    assert ev.kind == "fuzzy"


def test_fuzzy_small_bad_scale():
    with pytest.raises(ConstraintError):
        fuzzy_small_subset(0)
    with pytest.raises(ConstraintError):
        fuzzy_small_subset(-2)


@given(graphs_and_seeds())
@settings(max_examples=300)
def test_crisp_evaluators_are_binary(case):
    g, seeds = case
    some = next(iter(seeds))
    crisp = [
        resolve("same-component"),
        cardinality_between(1, 3),
        require_nodes({some}),
        forbid_nodes({some}),
    ]
    for ev in crisp:
        assert ev.evaluate(g, seeds) in (0.0, 1.0)
    assert 0.0 <= fuzzy_small_subset(4).evaluate(g, seeds) <= 1.0


@pytest.mark.parametrize(
    "cid",
    ["same-component", "cardinality:2:4", "require:1,4", "forbid:6", "fuzzy-small:6"],
)
def test_resolve_known_ids(cid):
    assert resolve(cid).id == cid


def test_resolve_normalizes_listed_ids():
    assert resolve("require:4,1").id == "require:1,4"


def test_resolve_unknown_id_names_it():
    with pytest.raises(UnknownConstraintError) as err:
        resolve("made-up-id")
    assert "made-up-id" in str(err.value)
    assert err.value.constraint_id == "made-up-id"


@pytest.mark.parametrize("cid", ["cardinality:x:y", "cardinality:9", "fuzzy-small:-1", "fuzzy-small:abc"])
def test_resolve_bad_parameters(cid):
    with pytest.raises(ConstraintError):
        resolve(cid)


def test_resolved_matches_direct_construction(demo):
    seeds = frozenset({"1", "4"})
    assert resolve("cardinality:2:4").evaluate(demo, seeds) == cardinality_between(2, 4).evaluate(demo, seeds)
    assert resolve("fuzzy-small:6").evaluate(demo, seeds) == fuzzy_small_subset(6).evaluate(demo, seeds)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_compiled_predicates_match_evaluate(data):
    g = data.draw(graphs(max_nodes=8))
    full = (1 << g.n_nodes) - 1
    masks = data.draw(st.lists(st.integers(1, full), min_size=1, max_size=16))
    sizes = [m.bit_count() for m in masks]
    seed_sets = [frozenset(v for i, v in enumerate(g.node_ids) if m >> i & 1) for m in masks]
    for cid in data.draw(constraint_ids(g)):
        ev = resolve(cid)
        pred = ev.compile(g)
        expected = [ev.evaluate(g, seeds) for seeds in seed_sets]
        assert [float(pred(m, n)) for m, n in zip(masks, sizes)] == expected, cid
        bulk = pred(np.array(masks, dtype=np.int64), np.array(sizes, dtype=np.int64))
        assert np.asarray(bulk, dtype=np.float64).tolist() == expected, cid
