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
  nodes, weak components of 16 and 2).

Node weights are 1, and edge-18 and gated-73 have edge weights that are
multiples of 1/64 or 1/32: every soiled sum there is exact, so annealing
sums its flips' soiled weights in one matrix-vector product. The
sa-200 edge weights, 0.0025 and 0.005, are not dyadic, so
``sa-200-edge`` pins the ordered sum that rounds, in annealing's flips,
and ``sa-200-ga-edge`` pins it in ``evaluate_mask``, which scores every
individual of the genetic algorithm; the other ``ga`` cases sum exactly.
In ``gated-73-ga`` no member of the genetic algorithm's first population
passes the gate, so individual 0 is replaced by a feasible start.
"""
from pathlib import Path

import pytest

from critset.cli import main

GOLDEN = Path(__file__).parent / "golden"
GATED = ["--gate", "same-component", "--penalty"]
CASES = {
    "sa-200": ("sa-200.graph", []),
    "gated-73-sa": ("gated-73.graph", ["--optimizer", "sa", "--measure", "edge", *GATED, "fuzzy-small:8:0.25"]),
    "sa-200-edge": ("sa-200.graph", ["--measure", "edge"]),
    "edge-18-exhaustive": ("edge-18.graph", ["--measure", "edge", *GATED, "fuzzy-small:6:0.5"]),
    "sa-200-ga": ("sa-200.graph", ["--optimizer", "ga"]),
    "sa-200-ga-edge": ("sa-200.graph", ["--optimizer", "ga", "--measure", "edge"]),
    "gated-73-ga": ("gated-73.graph", ["--optimizer", "ga", *GATED, "fuzzy-small:8:0.25"]),
}


@pytest.mark.parametrize("name", CASES)
def test_analyze_report_matches_golden(name, capsys):
    graph, flags = CASES[name]
    assert main(["analyze", "--graph", str(GOLDEN / graph), *flags, "--format", "json"]) == 0
    assert capsys.readouterr().out == (GOLDEN / f"{name}.json").read_text(encoding="utf-8")
