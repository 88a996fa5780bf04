"""The set-up `critset analyze` does before it searches, in a fresh interpreter.

Usage: python3 bench/setup_child.py GRAPH SPEC_JSON

Imports `critset`, reads and parses the graph file and builds a
`SubsetEvaluator` for the cost given as JSON keyword data (see
`oracle.Cost.spec_json`). The parent times the whole process. The last
line printed is the file `critset` was imported from, so the parent can
check that it measured the checkout's own source.
"""
import json
import sys

import critset


def main(graph_path: str, spec_json: str) -> int:
    data = json.loads(spec_json)
    form, c = data["beta"]
    beta = critset.over_n(c) if form == "inv" else critset.constant(c)
    spec = critset.CostSpec(
        beta=beta,
        mode=data["mode"],
        gates=tuple((cid, tau) for cid, tau in data["gates"]),
        penalties=tuple((eps, cid) for eps, cid in data["penalties"]),
    )
    with open(graph_path, encoding="utf-8") as fh:
        graph = critset.parse_graph(fh.read())
    critset.SubsetEvaluator(graph, spec)
    print(critset.__file__)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(*sys.argv[1:]))
