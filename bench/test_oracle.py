"""Self-test of the benchmark's oracle on the built-in demo graph.

Run from the repository root: python3 -m pytest -q bench/test_oracle.py

Genuine `critset analyze` reports must pass, and a report tampered in
any of the ways the oracle exists to catch must be rejected.
"""
import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import oracle  # noqa: E402
from critset import cli  # noqa: E402
from critset.datasets import DEMO_GRAPH_TEXT  # noqa: E402

COSTS = [
    oracle.Cost(),
    oracle.Cost(beta=2.0, beta_over_n=True),
    oracle.Cost(same_component=True),
    oracle.Cost(measure="edge", same_component=True, fuzzy_small=(6.0, 0.5)),
]
GRAPH = oracle.parse(DEMO_GRAPH_TEXT)


def analyze(tmp_path, cost):
    path = tmp_path / "demo.graph"
    path.write_text(DEMO_GRAPH_TEXT, encoding="utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["analyze", "--graph", str(path), "--format", "json", *cost.cli_flags()]) == 0
    return out.getvalue()


def problems(text, cost):
    return oracle.check_report(text, GRAPH, cost, "exhaustive", 10, oracle.brute_force(GRAPH, cost, 10))


def tamper(text, edit):
    report = json.loads(text)
    edit(report["ranked"])
    report["best"] = report["ranked"][0]
    return json.dumps(report)


@pytest.mark.parametrize("cost", COSTS)
def test_genuine_reports_pass(tmp_path, cost):
    assert problems(analyze(tmp_path, cost), cost) == []


def test_brute_force_matches_one_by_one_enumeration():
    for cost in COSTS:
        scored = []
        for mask in range(1, 1 << GRAPH.n):
            seeds = sorted(v for i, v in enumerate(GRAPH.ids) if mask >> i & 1)
            defined, _, value = oracle.score(GRAPH, cost, seeds)
            if defined:
                scored.append((seeds, value))
        scored.sort(key=lambda item: oracle.rank_key(*item))
        assert oracle.brute_force(GRAPH, cost, 10) == scored[:10]


def test_score_off_by_1e6_is_rejected(tmp_path):
    cost = COSTS[0]

    def nudge(ranked):
        ranked[4]["score"] += 1e-6

    assert problems(tamper(analyze(tmp_path, cost), nudge), cost)


def test_swapped_ranks_are_rejected(tmp_path):
    cost = COSTS[0]

    def swap(ranked):
        ranked[0], ranked[1] = ranked[1], ranked[0]

    assert problems(tamper(analyze(tmp_path, cost), swap), cost)


def test_wrong_tie_break_is_rejected(tmp_path):
    cost = COSTS[0]
    text = analyze(tmp_path, cost)
    ranked = json.loads(text)["ranked"]
    # Ranks 3 to 6 tie on score and size: only the id order separates them.
    assert ranked[2]["score"] == ranked[3]["score"] and ranked[2]["n"] == ranked[3]["n"]

    def swap(ranked):
        ranked[2], ranked[3] = ranked[3], ranked[2]

    assert problems(tamper(text, swap), cost)
