"""The benchmark's four workloads and how their graphs are generated.

Each graph comes from `critset`'s public log generator
(`generate_log` -> `build_from_log` -> `serialize_graph`), seeded from the
benchmark's ``--seed``. Search time depends on the node count (2^N
subsets for exhaustive search, big-integer width for the heuristics) and,
under the gate, on the weak component sizes (they fix how many subsets
are feasible), so a workload pins those: generator seeds are tried in a
fixed order derived from ``--seed`` until the graph has the stated shape.
Bench seed 1 always tries generator seed 1 first, and for every workload
here that graph already has the shape.

BENCHMARK.json lists the workloads every comparison runs: exhaustive-gated
and sa-200. Together they reach every layer (parse, evaluator build, mask
evaluation, constraints, search, ranking, render). On a shared 2-vCPU
machine whose speed drifts by tens of percent over minutes, runs have to
be long to be steady, and a comparison's time budget only fits two
workloads at that length. exhaustive-basic (the exact path without
constraints) and ga-1000 (where parse and evaluator build are visible,
and whose time and memory also vary with the seed's graph) stay here for
runs by hand.
"""
from __future__ import annotations

import hashlib
import itertools
from collections import Counter
from dataclasses import dataclass

from oracle import Cost, OGraph, parse, weak_components

MAX_SHAPE_ATTEMPTS = 20000
TOP_K = 10


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    log_nodes: int
    log_transactions: int
    nodes: int  # exact node count the graph must have
    components: tuple[int, ...] | None  # weak component sizes, largest first, if pinned
    cost: Cost
    optimizer: str  # the optimizer the report must name
    extra_flags: tuple[str, ...] = ()

    @property
    def exact(self) -> bool:
        return self.optimizer == "exhaustive"

    def analyze_args(self, graph_path: str) -> list[str]:
        return [
            "analyze", "--graph", graph_path, "--format", "json", "--rng-seed", "0",
            "--top", str(TOP_K), *self.cost.cli_flags(), *self.extra_flags,
        ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "exhaustive-basic",
            "exact search over 2^16 subsets; mask evaluation and top-k key building, no constraints",
            16, 34, nodes=16, components=(16,),
            cost=Cost(beta=2.0, beta_over_n=True),
            optimizer="exhaustive",
        ),
        Workload(
            "exhaustive-gated",
            "exact search over 2^16 subsets under a same-component gate and fuzzy penalty on the edge measure; mask evaluation and constraints",
            18, 12, nodes=16, components=(9, 3, 2, 2),
            cost=Cost(measure="edge", same_component=True, fuzzy_small=(6.0, 0.5)),
            optimizer="exhaustive",
        ),
        Workload(
            "sa-200",
            "default path past 22 nodes: annealing on 196 nodes, evaluation and ranking of ~77k candidates",
            200, 400, nodes=196, components=None,
            cost=Cost(),
            optimizer="sa",
        ),
        Workload(
            "ga-1000",
            "genetic search on 985 nodes; wide big-integer evaluation, parse and evaluator build visible",
            1000, 2000, nodes=985, components=None,
            cost=Cost(),
            optimizer="ga",
            extra_flags=("--optimizer", "ga"),
        ),
    )
}


@dataclass(frozen=True)
class Instance:
    """One generated input: the graph file text and what it was made from."""

    workload: Workload
    seed: int
    generator_seed: int
    text: str
    graph: OGraph

    @property
    def sha256(self) -> str:
        return hashlib.sha256(self.text.encode()).hexdigest()

    def fingerprint(self) -> dict:
        return {
            "nodes": self.graph.n,
            "edges": len(self.graph.edges),
            "components": component_sizes(self.graph),
            "generator_seed": self.generator_seed,
            "graph_sha256": self.sha256,
        }


def component_sizes(graph: OGraph) -> tuple[int, ...]:
    return tuple(sorted(Counter(weak_components(graph)).values(), reverse=True))


def generator_seeds(seed: int):
    """``seed`` itself, then seeds no other bench seed's first try uses."""
    yield seed
    for attempt in itertools.count(1):
        yield (seed << 20) | attempt


def generate(workload: Workload, seed: int) -> Instance:
    from critset import build_from_log, generate_log, serialize_graph

    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    for generator_seed in itertools.islice(generator_seeds(seed), MAX_SHAPE_ATTEMPTS):
        records = generate_log(workload.log_nodes, workload.log_transactions, generator_seed)
        text = serialize_graph(build_from_log(records))
        graph = parse(text)
        if graph.n != workload.nodes:
            continue
        if workload.components is not None and component_sizes(graph) != workload.components:
            continue
        return Instance(workload, seed, generator_seed, text, graph)
    raise RuntimeError(f"{workload.name}: no graph of the required shape in {MAX_SHAPE_ATTEMPTS} tries")
