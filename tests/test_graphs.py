import math
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from critset.cost import CostSpec, SubsetEvaluator
from critset.graphs import (
    MEASURE_MODES,
    Graph,
    GraphError,
    GraphParseError,
    _masks,
    _rows,
    parse_graph,
    serialize_graph,
    total_weight,
    weak_components,
)

from .strategies import graphs


def test_minimal_self_loop():
    g = parse_graph("node 1\nedge 1 1")
    assert g.node_ids == ("1",)
    assert g.edges == (("1", "1", 1.0),)
    assert g.node_weight("1") == 1.0


def test_demo_fixture_shape(demo):
    assert demo.n_nodes == 7
    assert demo.n_edges == 6
    assert all(demo.node_weight(v) == 1.0 for v in demo.node_ids)
    assert all(w == 1.0 for _, _, w in demo.edges)


def test_default_weights_and_explicit_weights():
    g = parse_graph("node a 2.5\nnode b\nedge a b 0.5")
    assert g.node_weight("a") == 2.5
    assert g.node_weight("b") == 1.0
    assert g.edge_weight("a", "b") == 0.5


def test_comments_and_blank_lines_ignored():
    g = parse_graph("# header\n\nnode a\n  \n# mid\nnode b\nedge a b\n")
    assert g.n_nodes == 2
    assert g.has_edge("a", "b")


@pytest.mark.parametrize("text", ["", "\n  \n", "# only a comment\n"])
def test_graph_file_without_nodes_is_rejected(text):
    with pytest.raises(GraphError, match="^graph file declares no nodes$"):
        parse_graph(text)


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("node 1\nnode 1", "duplicate"),
        ("node 1\nedge 1 2", "undeclared"),
        ("node 1\nnode 2\nedge 1 2 -0.5", "positive"),
        ("node 1\nnode 2\nedge 1 2 0", "positive"),
        ("node 1 -3", "positive"),
        ("node 1\nnode 2\nedge 1 2\nedge 1 2", "duplicate"),
        ("vertex 1", "malformed"),
        ("node", "malformed"),
        ("node 1\nedge 1", "malformed"),
        ("node 1 x", "weight"),
        ("node 1 inf", "finite"),
        ("node 1 nan", "finite"),
        ("node 1\nnode 2\nedge 1 2 inf", "finite"),
        ("node 1 1e308\nnode 2 1e308", "total non-finite"),
        ("node 1\nnode 2\nedge 1 2 1e308\nedge 2 1 1e308", "total non-finite"),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(GraphParseError) as err:
        parse_graph(text)
    assert fragment in str(err.value)


def test_parse_error_carries_line_number():
    with pytest.raises(GraphParseError) as err:
        parse_graph("node 1\nnode 2\nedge 1 2 -0.5")
    assert err.value.line_no == 3
    assert "line 3" in str(err.value)


@pytest.mark.parametrize(
    "text,line_no",
    [
        ("node 1\nnode 2 inf\nedge 1 2", 2),
        ("node 1 1e308\n# two huge nodes\nnode 2 1e308\nedge 1 2", 3),
        ("node 1\nnode 2\nedge 1 2 1e308\nedge 1 1 1\nedge 2 1 1e308", 5),
    ],
)
def test_non_finite_weight_error_names_its_line(text, line_no):
    with pytest.raises(GraphParseError, match="finite") as err:
        parse_graph(text)
    assert err.value.line_no == line_no


@pytest.mark.parametrize(
    "text,line_no,fragment",
    [
        ("node a\n# c\nnode b\nnode a", 4, "duplicate node"),
        ("node a\nnode b\nedge a b\nedge b c", 4, "undeclared node 'c'"),
        ("node a\nnode b\nedge a b\nedge b a\nedge a b", 5, "duplicate edge"),
        ("node a\nnode b 0\nedge a b", 2, "non-positive"),
        ("node a\nnode b\nedge a b\nedge b a -1", 4, "non-positive"),
        ("node a\nnode b\nedge a b nan\nedge b a", 3, "non-finite weight"),
        ("node a\nnode b\nedge a b 1e308\nedge b b\nedge b a 1e308", 5, "total non-finite"),
        ("node 1 x", 1, "non-numeric weight 'x' on node '1'"),
        ("node a\nnode b\nedge a b 1e400", 3, "non-finite weight '1e400' on edge"),
    ],
)
def test_graph_errors_name_the_line_of_their_record(text, line_no, fragment):
    with pytest.raises(GraphParseError, match=fragment) as err:
        parse_graph(text)
    assert err.value.line_no == line_no
    assert str(err.value).startswith(f"line {line_no}: ")


@given(
    st.lists(st.integers(1, 10**6), min_size=1, max_size=30),
    st.integers(1, 10**6),
    st.sampled_from(MEASURE_MODES),
)
@settings(max_examples=200)
def test_parsed_totals_equal_sum_of_fractional_weights(counts, total, mode):
    # Weights count/total, as ingest writes them; the stored totals add
    # them left to right (sum() compensates from Python 3.12 on).
    weights = [c / total for c in counts]
    names = [f"v{i}" for i in range(len(weights))]
    if mode == "node":
        lines = [f"node {v} {w!r}" for v, w in zip(names, weights)]
    else:
        # A chain v0 -> v1 -> ... plus a self-loop on the last node.
        lines = [f"node {v}" for v in names]
        lines += [f"edge {v} {u} {w!r}" for v, u, w in zip(names, [*names[1:], names[-1]], weights)]
    assert total_weight(parse_graph("\n".join(lines)), mode).hex() == _left_to_right(weights).hex()


def _left_to_right(weights):
    total = 0.0
    for w in weights:
        total += w
    return total


def _measure_weights(g, mode):
    """What each node adds to the ``mode`` measure, in node order."""
    if mode == "node":
        return [g.node_weight(v) for v in g.node_ids]
    out = dict.fromkeys(g.node_ids, 0.0)
    for s, _, w in g.edges:
        out[s] += w
    return list(out.values())


@given(st.one_of(graphs(), graphs(dyadic=True)), st.sampled_from(MEASURE_MODES))
@settings(max_examples=300)
def test_total_weight_is_the_denominator_of_s(g, mode):
    if mode == "edge" and not g.n_edges:
        with pytest.raises(GraphError, match="edgeless"):
            total_weight(g, mode)
        return
    expected = _left_to_right(_measure_weights(g, mode))
    assert total_weight(g, mode).hex() == expected.hex()
    assert SubsetEvaluator(g, CostSpec(mode=mode))._measure.total.hex() == expected.hex()


@pytest.mark.parametrize(
    "graph, total",
    [("sa-200", "0x1.fffffffffffe9p-1"), ("exhaustive-gated", "0x1.0000000000001p+0")],
)
def test_golden_graph_edge_totals(graph, total):
    g = parse_graph((Path(__file__).parent / "golden" / f"{graph}.graph").read_text(encoding="utf-8"))
    assert total_weight(g, "edge").hex() == total
    assert SubsetEvaluator(g, CostSpec(mode="edge"))._measure.total.hex() == total


def test_node_total_adds_left_to_right():
    # A compensated sum (Python 3.12's sum()) would give 0x1.0000000000001p+0.
    g = Graph([("a", 1.0), ("b", 1e-16), ("c", 1e-16)])
    assert total_weight(g, "node").hex() == "0x1.0000000000000p+0"


def test_constructor_rejects_bad_ids():
    with pytest.raises(GraphError):
        Graph([""])
    with pytest.raises(GraphError):
        Graph(["a b"])


@pytest.mark.parametrize(
    "nodes,edges",
    [
        ([("a", math.inf)], []),
        ([("a", math.nan)], []),
        (["a"], [("a", "a", math.inf)]),
        ([("a", 1e308), ("b", 1e308)], []),
        (["a", "b"], [("a", "b", 1e308), ("b", "a", 1e308)]),
    ],
)
def test_constructor_rejects_non_finite_weights(nodes, edges):
    with pytest.raises(GraphError, match="finite"):
        Graph(nodes, edges)


def test_edge_total_in_node_order_must_be_finite():
    # Edge order: 2^1023 + 2^970 is a tie that rounds to even, 2^1023, and
    # adding max - 2^1023 gives max. Node order: node a's out-edges add to
    # max, and max + 2^970 is a tie that rounds to even, past max: infinity.
    big = sys.float_info.max - 2.0**1023
    with pytest.raises(GraphError, match="^the edge weight total is not finite$"):
        Graph(["a", "b"], [("a", "b", 2.0**1023), ("b", "a", 2.0**970), ("a", "a", big)])


@pytest.mark.parametrize(
    "nodes, edges, fragment",
    [
        (["a", "b"], [("a",)], "malformed edge spec ('a',)"),
        ([5], [], "malformed node spec 5"),
        ([("a", "x")], [], "non-numeric weight 'x' on node 'a'"),
    ],
)
def test_constructor_rejects_malformed_specs(nodes, edges, fragment):
    with pytest.raises(GraphError) as info:
        Graph(nodes, edges)
    assert fragment in str(info.value)


@pytest.mark.parametrize("n", [1, 7, 8, 9, 63, 64, 65, 196])
@given(st.data())
@settings(max_examples=50)
def test_mask_row_codec_round_trips(n, data):
    full = (1 << n) - 1
    masks = [0, full, *data.draw(st.lists(st.integers(0, full), max_size=5))]
    rows = _rows(masks, n)
    assert rows.dtype == bool and rows.shape == (len(masks), n)
    assert _masks(rows) == masks
    assert all(rows[j, u] == (m >> u & 1) for j, m in enumerate(masks) for u in range(n))


def test_unknown_node_lookups_raise():
    g = Graph(["a"])
    with pytest.raises(GraphError):
        g.node_weight("z")
    with pytest.raises(GraphError):
        g.successors("z")
    with pytest.raises(GraphError):
        g.edge_weight("a", "z")


def test_weak_components_demo(demo):
    partition = weak_components(demo)
    assert set(partition.components) == {
        frozenset({"1", "2", "3", "4", "5"}),
        frozenset({"6", "7"}),
    }
    assert partition.component_of["1"] == partition.component_of["5"]
    assert partition.component_of["1"] != partition.component_of["6"]


def test_weak_components_singleton():
    partition = weak_components(Graph(["a"]))
    assert partition.components == (frozenset({"a"}),)


def test_weak_components_two_cycle():
    g = Graph(["a", "b"], [("a", "b"), ("b", "a")])
    assert weak_components(g).components == (frozenset({"a", "b"}),)


def test_total_weight_demo(demo):
    assert total_weight(demo, "node") == 7.0
    assert total_weight(demo, "edge") == 6.0


def test_total_weight_edge_mode_requires_edges():
    with pytest.raises(GraphError):
        total_weight(Graph(["a"]), "edge")


def test_total_weight_unknown_mode(demo):
    with pytest.raises(GraphError):
        total_weight(demo, "weird")


@given(graphs(), st.sampled_from([0.5, 2.0, 10.0]))
@settings(max_examples=200)
def test_total_weight_scales_linearly(g, k):
    scaled = Graph(
        [(v, k * g.node_weight(v)) for v in g.node_ids],
        [(s, t, k * w) for s, t, w in g.edges],
    )
    assert math.isclose(total_weight(scaled, "node"), k * total_weight(g, "node"), rel_tol=1e-12)
    if g.n_edges:
        assert math.isclose(total_weight(scaled, "edge"), k * total_weight(g, "edge"), rel_tol=1e-12)


@given(graphs())
@settings(max_examples=300)
def test_serialize_parse_round_trip(g):
    assert parse_graph(serialize_graph(g)) == g


@given(graphs(), st.data())
@settings(max_examples=200)
def test_weak_components_ignore_edge_direction(g, data):
    flips = data.draw(st.lists(st.booleans(), min_size=g.n_edges, max_size=g.n_edges))
    seen = set()
    for (s, t, _), flip in zip(g.edges, flips):
        pair = (t, s) if flip else (s, t)
        seen.add(pair)
    reversed_g = Graph(list(g.node_ids), sorted(seen))
    original = {frozenset(c) for c in weak_components(g).components}
    flipped = {frozenset(c) for c in weak_components(reversed_g).components}
    assert original == flipped


def _components_by_fixpoint(g):
    # Independent oracle: every node starts with its own label, and each
    # edge pulls both endpoints down to the smaller label until nothing moves.
    label = {v: i for i, v in enumerate(g.node_ids)}
    changed = True
    while changed:
        changed = False
        for s, t, _ in g.edges:
            low = min(label[s], label[t])
            if label[s] != low or label[t] != low:
                label[s] = label[t] = low
                changed = True
    groups = {}
    for v in g.node_ids:
        groups.setdefault(label[v], set()).add(v)
    return [frozenset(groups[k]) for k in sorted(groups)]


@given(st.one_of(graphs(), graphs(max_nodes=20, weighted=False)))
@settings(max_examples=300)
def test_weak_components_match_fixpoint_oracle(g):
    partition = weak_components(g)
    # Components come in the order of their first node in node_ids.
    assert list(partition.components) == _components_by_fixpoint(g)
    assert partition.component_of == {v: i for i, c in enumerate(partition.components) for v in c}


def test_graph_equality_and_hash():
    g1 = Graph(["a", "b"], [("a", "b", 2.0)])
    g2 = Graph(["a", "b"], [("a", "b", 2.0)])
    g3 = Graph(["a", "b"], [("a", "b", 3.0)])
    assert g1 == g2
    assert hash(g1) == hash(g2)
    assert g1 != g3
