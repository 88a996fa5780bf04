import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from critset.graphs import Graph, GraphError
from critset.taint import SoiledReport, propagate, seed_set, soil, soiled_measure

from .strategies import graphs_and_nested_seeds, graphs_and_seeds

ALL_NODES = frozenset("1234567")


def fixpoint_closure(g, seeds):
    # Independent oracle: repeated single-step expansion until stable.
    soiled = set(seeds)
    while True:
        grown = set(soiled)
        for s, t, _ in g.edges:
            if s in soiled:
                grown.add(t)
        if grown == soiled:
            return soiled
        soiled = grown


def test_propagate_demo_full_coverage(demo):
    assert propagate(demo, {"1", "4", "6"}).soiled_nodes == ALL_NODES


def test_propagate_demo_sink_pair(demo):
    report = propagate(demo, {"3", "5"})
    assert report.soiled_nodes == frozenset({"3", "5"})
    assert report.soiled_edges == frozenset({("3", "5")})


def test_propagate_all_nodes_saturates(demo):
    report = propagate(demo, ALL_NODES)
    assert report.soiled_nodes == ALL_NODES
    assert soiled_measure(demo, report) == 1.0


@pytest.mark.parametrize(
    "seeds,expected",
    [
        ({"1", "6"}, 6 / 7),
        ({"3", "5"}, 2 / 7),
        ({"2", "4", "7"}, 5 / 7),
        ({"2", "6"}, 4 / 7),
        ({"1", "4", "6"}, 7 / 7),
        ({"1", "4"}, 5 / 7),
        ({"6"}, 2 / 7),
        ({"2", "4"}, 4 / 7),
    ],
)
def test_demo_soiled_measures(demo, seeds, expected):
    _, s, clean = soil(demo, seeds)
    assert s == expected
    assert clean == 1.0 - expected


def test_cycle_counted_once_edge_mode():
    g = Graph(["a", "b", "c"], [("a", "b"), ("b", "c"), ("c", "a")])
    _, s, _ = soil(g, {"a"}, mode="edge")
    assert s == 1.0


def test_seed_validation():
    g = Graph(["a", "b"], [("a", "b")])
    with pytest.raises(ValueError):
        seed_set(g, [])
    with pytest.raises(ValueError):
        seed_set(g, ["z"])
    with pytest.raises(ValueError):
        propagate(g, set())
    # Iterated, "ab" would seed the nodes a and b.
    with pytest.raises(ValueError, match="^nodes must be an iterable, not the string 'ab'$"):
        soil(g, "ab")


def test_report_n_is_seed_count(demo):
    assert propagate(demo, {"1", "6"}).n == 2


@given(graphs_and_seeds())
@settings(max_examples=300)
def test_propagate_matches_fixpoint_oracle(case):
    g, seeds = case
    report = propagate(g, seeds)
    closure = fixpoint_closure(g, seeds)
    assert report.soiled_nodes == frozenset(closure)
    assert report.soiled_edges == frozenset((s, t) for s, t, _ in g.edges if s in closure)


@given(graphs_and_seeds())
@settings(max_examples=300)
def test_report_invariants(case):
    g, seeds = case
    report = propagate(g, seeds)
    assert seeds <= report.soiled_nodes
    for s, t, _ in g.edges:
        if s in report.soiled_nodes:
            assert t in report.soiled_nodes
            assert (s, t) in report.soiled_edges


@given(graphs_and_seeds())
@settings(max_examples=300)
def test_measure_range_node_mode(case):
    g, seeds = case
    _, s, clean = soil(g, seeds)
    assert 0.0 < s <= 1.0
    assert clean == 1.0 - s


@given(graphs_and_nested_seeds())
@settings(max_examples=300)
def test_measure_monotone_under_inclusion(case):
    g, a, b = case
    _, s_a, _ = soil(g, a)
    _, s_b, _ = soil(g, b)
    assert s_a <= s_b
    if g.n_edges:
        _, e_a, _ = soil(g, a, mode="edge")
        _, e_b, _ = soil(g, b, mode="edge")
        assert e_a <= e_b


@given(graphs_and_seeds())
@settings(max_examples=200)
def test_measure_saturates_on_full_seeding(case):
    g, _ = case
    _, s, _ = soil(g, set(g.node_ids))
    assert s == 1.0
    if g.n_edges:
        _, e, _ = soil(g, set(g.node_ids), mode="edge")
        assert e == 1.0


@given(graphs_and_seeds())
@settings(max_examples=200)
def test_absorption_of_reachable_nodes(case):
    g, seeds = case
    report = propagate(g, seeds)
    for extra in report.soiled_nodes:
        grown = propagate(g, seeds | {extra})
        assert grown.soiled_nodes == report.soiled_nodes
        assert grown.soiled_edges == report.soiled_edges


@given(graphs_and_seeds(), st.sampled_from([0.5, 2.0, 10.0]))
@settings(max_examples=300)
def test_measure_scale_invariance(case, k):
    g, seeds = case
    scaled = Graph(
        [(v, k * g.node_weight(v)) for v in g.node_ids],
        [(s, t, k * w) for s, t, w in g.edges],
    )
    _, s, _ = soil(g, seeds)
    _, s_scaled, _ = soil(scaled, seeds)
    assert math.isclose(s, s_scaled, rel_tol=1e-12, abs_tol=1e-12)
    if g.n_edges:
        _, e, _ = soil(g, seeds, mode="edge")
        _, e_scaled, _ = soil(scaled, seeds, mode="edge")
        assert math.isclose(e, e_scaled, rel_tol=1e-12, abs_tol=1e-12)


def test_unknown_measure_mode(demo):
    report = propagate(demo, {"1"})
    with pytest.raises(ValueError):
        soiled_measure(demo, report, mode="bogus")


def test_soiled_measure_rejects_a_report_from_another_graph(demo):
    report = propagate(Graph(["1", "x"], [("1", "x")]), {"1"})
    for mode in ("node", "edge"):
        with pytest.raises(ValueError, match="'x' not in graph"):
            soiled_measure(demo, report, mode)


def test_edge_mode_requires_edges():
    g = Graph(["a"])
    report = propagate(g, {"a"})
    with pytest.raises(ValueError):
        soiled_measure(g, report, mode="edge")


@pytest.mark.parametrize("mode", ["node", "edge"])
def test_soiled_measure_on_a_graph_without_nodes_is_a_graph_error(mode):
    empty = SoiledReport(frozenset(), frozenset(), frozenset())
    with pytest.raises(GraphError, match="the graph has no nodes"):
        soiled_measure(Graph([]), empty, mode)
