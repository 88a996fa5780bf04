"""Write reference.json: the exact top-k of each exhaustive workload.

Usage: python3 bench/pin_reference.py [FIRST_SEED LAST_SEED]   (default 1 20)

The references come from the oracle's own brute force, never from
`critset`. run.py recomputes the brute force on every run and reports a
problem if it disagrees with a pinned entry, or if the generated graph's
hash differs from the pinned one.
"""
import json
import sys
from pathlib import Path

import oracle
from workloads import TOP_K, WORKLOADS, generate

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))


def main(first: int = 1, last: int = 20) -> int:
    pinned = {}
    for w in WORKLOADS.values():
        if not w.exact:
            continue
        pinned[w.name] = {}
        for seed in range(first, last + 1):
            inst = generate(w, seed)
            top = oracle.brute_force(inst.graph, w.cost, TOP_K)
            pinned[w.name][str(seed)] = {"graph_sha256": inst.sha256, "top": top}
    (HERE / "reference.json").write_text(json.dumps(pinned, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(*map(int, sys.argv[1:])))
