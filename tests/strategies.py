"""Shared hypothesis strategies: small random digraphs, seed sets and cost specs."""
import random

from hypothesis import strategies as st

from critset.cost import CONST, OVER_N, CoefficientFn, CostSpec
from critset.graphs import Graph

weights = st.floats(min_value=0.1, max_value=10.0, allow_nan=False, allow_infinity=False)
# Multiples of 1/64 in the same range: every sum of a few of them is exact.
dyadic_weights = st.integers(7, 640).map(lambda k: k / 64)


@st.composite
def graphs(draw, max_nodes=10, weighted=True, min_nodes=1, dyadic=False):
    n = draw(st.integers(min_nodes, max_nodes))
    ids = [f"v{i}" for i in range(n)]
    weight = dyadic_weights if dyadic else weights
    if weighted:
        nodes = [(v, draw(weight)) for v in ids]
    else:
        nodes = list(ids)
    pairs = [(s, t) for s in ids for t in ids]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    if weighted:
        edges = [(s, t, draw(weight)) for s, t in chosen]
    else:
        edges = chosen
    return Graph(nodes, edges)


@st.composite
def graphs_and_seeds(draw, max_nodes=10, weighted=True):
    g = draw(graphs(max_nodes=max_nodes, weighted=weighted))
    seeds = draw(st.sets(st.sampled_from(list(g.node_ids)), min_size=1))
    return g, frozenset(seeds)


@st.composite
def graphs_and_nested_seeds(draw, max_nodes=10, weighted=True):
    """(graph, A, B) with A a subset of B."""
    g = draw(graphs(max_nodes=max_nodes, weighted=weighted))
    b = draw(st.sets(st.sampled_from(list(g.node_ids)), min_size=1))
    a = draw(st.sets(st.sampled_from(sorted(b)), min_size=1))
    return g, frozenset(a), frozenset(b)


@st.composite
def star_graphs(draw, max_leaves=9):
    """Hub with out-edges to every leaf; the hub alone soils everything."""
    k = draw(st.integers(1, max_leaves))
    ids = ["hub"] + [f"leaf{i}" for i in range(k)]
    return Graph(ids, [("hub", leaf) for leaf in ids[1:]])


@st.composite
def wide_graphs(draw, min_nodes=64, max_nodes=80, dyadic=False):
    """Random weighted digraphs too wide for int64 masks, built from a
    drawn seed (drawing each of thousands of node pairs would be slow);
    with ``dyadic``, every weight is a multiple of 1/64."""
    n = draw(st.integers(min_nodes, max_nodes))
    rnd = random.Random(draw(st.integers(0, 2**32)))
    ids = [f"v{i}" for i in range(n)]
    pairs = rnd.sample([(s, t) for s in ids for t in ids], rnd.randint(0, 2 * n))
    weight = (lambda: rnd.randint(7, 640) / 64) if dyadic else (lambda: rnd.uniform(0.1, 10.0))
    nodes = [(v, weight()) for v in ids]
    return Graph(nodes, [(s, t, weight()) for s, t in pairs])


@st.composite
def edgeless_graphs(draw, max_nodes=8):
    """Unit-weight nodes and no edges: every subset of one size ties."""
    n = draw(st.integers(1, max_nodes))
    return Graph([f"v{i}" for i in range(n)])


@st.composite
def constraint_ids(draw, g):
    """One registry id of each constraint kind, with parameters fitting ``g``."""
    node_lists = st.sets(st.sampled_from(list(g.node_ids)), max_size=3).map(lambda s: ",".join(sorted(s)))
    lo = draw(st.integers(1, g.n_nodes + 1))
    hi = draw(st.integers(lo, g.n_nodes + 2))
    scale = draw(st.floats(min_value=0.5, max_value=8.0))
    return [
        "same-component",
        f"cardinality:{lo}:{hi}",
        "require:" + draw(node_lists),
        "forbid:" + draw(node_lists),
        f"fuzzy-small:{scale!r}",
    ]


coefficients = st.builds(
    CoefficientFn,
    st.sampled_from([CONST, OVER_N]),
    st.floats(min_value=-2.0, max_value=3.0, allow_nan=False),
)


@st.composite
def cost_specs(draw, g):
    """Any coefficients, measure and gates and penalties of every constraint kind."""
    constraint = st.sampled_from(draw(constraint_ids(g)))
    gates = st.tuples(constraint, st.floats(min_value=0.05, max_value=1.0))
    penalties = st.tuples(st.floats(min_value=-2.0, max_value=2.0), constraint)
    return CostSpec(
        alpha=draw(coefficients),
        beta=draw(coefficients),
        gamma=draw(coefficients),
        delta=draw(coefficients),
        gates=tuple(draw(st.lists(gates, max_size=2))),
        penalties=tuple(draw(st.lists(penalties, max_size=2))),
        mode="edge" if g.n_edges and draw(st.booleans()) else "node",
    )
