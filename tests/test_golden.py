"""`critset analyze` stdout against reports kept in tests/golden/.

Each case is a graph file there and the flags it runs with; the
expected report beside it is the stdout of an earlier version, so any
change to a search's walk, ranking, scores or counts shows here. The
graphs come from ``critset gen-log`` and ``critset ingest``:

- sa-200.graph: ``--nodes 200 --transactions 400 --rng-seed 1`` (196
  nodes), the benchmark's sa-200 graph;
- gated-73.graph: ``--nodes 100 --transactions 64 --rng-seed 1`` (73
  nodes in 10 weak components, so masks do not fit in an int64);
- edge-18.graph: ``--nodes 18 --transactions 32 --rng-seed 1`` (18
  nodes, weak components of 16 and 2);
- exhaustive-gated.graph: ``--nodes 18 --transactions 12 --rng-seed 1``
  (16 nodes in weak components of 9, 3, 2 and 2), the benchmark's
  exhaustive-gated graph;
- proof-1000.graph: ``--nodes 1000 --transactions 2000 --rng-seed 1``
  (985 nodes);
- wide-units.graph: written by hand (8 nodes, edges of weight 100.5 and
  0.1), so that under the edge measure a node's units reach 62 bits and
  their total passes 2^63.

Every case sums its soiled weights exactly, as integer counts of one
unit, and rounds S once. The sa-200 edge weights, 0.0025 and 0.005, and
the exhaustive-gated ones, multiples of 1/12, are not dyadic: there the
exact sums show in the last bits: ``sa-200-edge``'s rank 1 has S =
0.9825, and ``exhaustive-gated``'s has S = 0.3333333333333333 for 4 of 12
equal weights.

In ``gated-73-ga`` no member of the genetic algorithm's first population
passes the gate, so individual 0 is replaced by a feasible start; the
first random draw for it fails too, so the start is drawn from the gate's
predicate: one of the 10 weak components and a size, then the nodes. So
is each start of ``gated-73-sa``.

A report is rewritten by running its case from the repository root and
keeping stdout; for ``gated-73-ga``::

    critset analyze --graph tests/golden/gated-73.graph --optimizer ga --gate same-component --penalty fuzzy-small:8:0.25 --format json > tests/golden/gated-73-ga.json

On ``sa-200``, ``sa-200-ga``, ``sa-200-edge`` and ``sa-200-ga-edge`` the
per-size bound proves the best greedy prefix optimal, so no search walks.
So does it on ``proof-1000`` and ``proof-1000-edge`` (the edge measure,
beta = 2/n), whose 985 one-node flips of the proven best are scored in
several blocks. Under a penalty or a negative alpha it does not apply, so the
``gated-73`` cases and ``sa-200-walk`` (sa-200-walk.cost: the edge
measure, alpha = -0.25) pin the walks.

``wide-units`` (exhaustive search) and ``wide-units-sa`` run under
wide-units.cost, the same edge measure and alpha. Their reports were
written when a total of 2^63 units or more sent every soiled sum through
Python ints; S now comes from two 31-bit limbs in float64, so they pin
that both paths give the same report.
"""
from pathlib import Path

import pytest

from critset import optimize
from critset.cli import main
from critset.cost import SubsetEvaluator

GOLDEN = Path(__file__).parent / "golden"
GATED = ["--gate", "same-component", "--penalty"]
CASES = {
    "sa-200": ("sa-200.graph", []),
    "gated-73-sa": ("gated-73.graph", ["--optimizer", "sa", "--measure", "edge", *GATED, "fuzzy-small:8:0.25"]),
    "sa-200-edge": ("sa-200.graph", ["--measure", "edge"]),
    "sa-200-walk": ("sa-200.graph", ["--cost", str(GOLDEN / "sa-200-walk.cost")]),
    "edge-18-exhaustive": ("edge-18.graph", ["--measure", "edge", *GATED, "fuzzy-small:6:0.5"]),
    "exhaustive-gated": ("exhaustive-gated.graph", ["--measure", "edge", *GATED, "fuzzy-small:6:0.5"]),
    "sa-200-ga": ("sa-200.graph", ["--optimizer", "ga"]),
    "sa-200-ga-edge": ("sa-200.graph", ["--optimizer", "ga", "--measure", "edge"]),
    "gated-73-ga": ("gated-73.graph", ["--optimizer", "ga", *GATED, "fuzzy-small:8:0.25"]),
    "wide-units": ("wide-units.graph", ["--optimizer", "exhaustive", "--cost", str(GOLDEN / "wide-units.cost")]),
    "wide-units-sa": ("wide-units.graph", ["--optimizer", "sa", "--cost", str(GOLDEN / "wide-units.cost")]),
    "proof-1000": ("proof-1000.graph", []),
    "proof-1000-edge": ("proof-1000.graph", ["--measure", "edge", "--beta-over-n", "2"]),
}


@pytest.mark.parametrize("name", CASES)
def test_analyze_report_matches_golden(name, capsys):
    graph, flags = CASES[name]
    assert main(["analyze", "--graph", str(GOLDEN / graph), *flags, "--format", "json"]) == 0
    assert capsys.readouterr().out == (GOLDEN / f"{name}.json").read_text(encoding="utf-8")


@pytest.mark.parametrize("name", ["sa-200-walk", "gated-73-sa"])
def test_sa_report_is_the_same_when_the_table_turns_over_every_level(name, capsys, monkeypatch):
    monkeypatch.setattr(optimize, "TABLE_KEEP", 1)
    test_analyze_report_matches_golden(name, capsys)


def test_annealing_on_sa_200_ranks_a_bounded_table(capsys, monkeypatch):
    # On the sa-200-walk cost the walk and the greedy prefixes score or meet
    # 63,936 subsets; a table that kept them all would hand every one to
    # _result.
    sizes = []
    result = optimize._result
    monkeypatch.setattr(optimize, "_result", lambda ev, values, *a: sizes.append(len(values)) or result(ev, values, *a))
    test_analyze_report_matches_golden("sa-200-walk", capsys)
    assert sizes and sizes[0] < 10_000


@pytest.mark.parametrize("name,passes,scored", [("sa-200-walk", 6_971, 63_954), ("gated-73-sa", 5_897, 43_667)])
def test_annealing_scoring_work_on_the_golden_walks(name, passes, scored, capsys, monkeypatch):
    # With the default schedule and rng seed 0: the numpy passes of
    # flip_values, the subsets they score, and the evaluate_mask calls the
    # ten restarts' starts make. A table that forgets more rescores more.
    work = {"passes": 0, "scored": 0, "starts": 0}
    calls = []
    flip_values, evaluate_mask, feasible_start = (
        SubsetEvaluator.flip_values, SubsetEvaluator.evaluate_mask, optimize._feasible_start
    )

    def counted_flips(self, counts, rows, masks, steps):
        work["passes"] += 1
        work["scored"] += len(masks)
        return flip_values(self, counts, rows, masks, steps)

    def counted_start(*args):
        before = len(calls)
        start = feasible_start(*args)
        work["starts"] += len(calls) - before
        return start

    monkeypatch.setattr(SubsetEvaluator, "flip_values", counted_flips)
    monkeypatch.setattr(SubsetEvaluator, "evaluate_mask", lambda self, m: calls.append(m) or evaluate_mask(self, m))
    monkeypatch.setattr(optimize, "_feasible_start", counted_start)
    test_analyze_report_matches_golden(name, capsys)
    assert work == {"passes": passes, "scored": scored, "starts": 10}
