"""Independent output oracle for `critset analyze` reports.

Everything here is re-derived from the graph file text: its own parser,
a fixpoint reachability, the cost formula and a numpy brute force over
all subsets. Nothing is imported from `critset`, so a change to the
program's taint or cost code cannot also change what the benchmark
accepts as correct.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

# Reported S and score must match the re-derived ones to this tolerance.
TOL = 1e-9


@dataclass(frozen=True)
class OGraph:
    """Graph as parsed by the oracle: node ids, weights and edges by index."""

    ids: tuple[str, ...]
    node_w: tuple[float, ...]
    edges: tuple[tuple[int, int, float], ...]
    succ: tuple[tuple[int, ...], ...]

    @property
    def n(self) -> int:
        return len(self.ids)


def parse(text: str) -> OGraph:
    """Parse the `node ID [w]` / `edge SRC DST [w]` graph file format."""
    ids: list[str] = []
    node_w: list[float] = []
    index: dict[str, int] = {}
    edges: list[tuple[int, int, float]] = []
    for line in text.splitlines():
        fields = line.split()
        if not fields or fields[0].startswith("#"):
            continue
        if fields[0] == "node":
            index[fields[1]] = len(ids)
            ids.append(fields[1])
            node_w.append(float(fields[2]) if len(fields) > 2 else 1.0)
        elif fields[0] == "edge":
            w = float(fields[3]) if len(fields) > 3 else 1.0
            edges.append((index[fields[1]], index[fields[2]], w))
        else:
            raise ValueError(f"unexpected graph record {line!r}")
    succ: list[list[int]] = [[] for _ in ids]
    for src, dst, _ in edges:
        succ[src].append(dst)
    return OGraph(tuple(ids), tuple(node_w), tuple(edges), tuple(map(tuple, succ)))


def closure(g: OGraph, seeds) -> set[int]:
    """Nodes reachable from ``seeds``: the least set containing them and
    closed under successors, grown from a worklist until nothing changes."""
    soiled = set(seeds)
    work = list(soiled)
    while work:
        for t in g.succ[work.pop()]:
            if t not in soiled:
                soiled.add(t)
                work.append(t)
    return soiled


def weak_components(g: OGraph) -> list[int]:
    """Component label per node, ignoring edge direction (union-find)."""
    parent = list(range(g.n))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for s, t, _ in g.edges:
        parent[find(s)] = find(t)
    return [find(v) for v in range(g.n)]


@dataclass(frozen=True)
class Cost:
    """The cost functions the workloads use.

    score = S^2 + beta(n) * (1 - n/N)^2 [+ eps * max(0, 1 - (n-1)/scale)],
    with beta(n) = beta or beta/n, S weighted by node weights or by the
    weights of edges leaving soiled nodes, and an optional gate that keeps
    only subsets inside one weak component.
    """

    beta: float = 1.0
    beta_over_n: bool = False
    measure: str = "node"
    same_component: bool = False
    fuzzy_small: tuple[float, float] | None = None  # (scale, eps)

    def cli_flags(self) -> list[str]:
        flags = []
        if self.beta_over_n:
            flags += ["--beta-over-n", repr(self.beta)]
        elif self.beta != 1.0:
            flags += ["--beta-const", repr(self.beta)]
        if self.measure != "node":
            flags += ["--measure", self.measure]
        if self.same_component:
            flags += ["--gate", "same-component"]
        if self.fuzzy_small:
            scale, eps = self.fuzzy_small
            flags += ["--penalty", f"fuzzy-small:{scale:g}:{eps!r}"]
        return flags

    def spec_json(self) -> dict:
        """The same cost as keyword data for `critset.CostSpec`."""
        return {
            "beta": ["inv" if self.beta_over_n else "const", self.beta],
            "mode": self.measure,
            "gates": [["same-component", 1.0]] if self.same_component else [],
            "penalties": [[self.fuzzy_small[1], f"fuzzy-small:{self.fuzzy_small[0]:g}"]] if self.fuzzy_small else [],
        }

    def value(self, soiled: float, n: int, n_total: int) -> float:
        beta = self.beta / n if self.beta_over_n else self.beta
        value = soiled * soiled + beta * (1.0 - n / n_total) ** 2
        if self.fuzzy_small:
            scale, eps = self.fuzzy_small
            value += eps * max(0.0, 1.0 - (n - 1) / scale)
        return value


def _measure_weights(g: OGraph, measure: str) -> list[float]:
    """Per-node weight counted when the node is soiled."""
    if measure == "node":
        return list(g.node_w)
    out = [0.0] * g.n
    for s, _, w in g.edges:
        out[s] += w
    return out


def score(g: OGraph, cost: Cost, seeds: list[str]) -> tuple[bool, float, float]:
    """(defined, S, score) of one seed subset, computed on its own."""
    index = {v: i for i, v in enumerate(g.ids)}
    members = [index[v] for v in seeds]
    soiled = closure(g, members)
    if cost.measure == "node":
        s = sum(g.node_w[v] for v in sorted(soiled)) / sum(g.node_w)
    else:
        s = sum(w for src, _, w in g.edges if src in soiled) / sum(w for _, _, w in g.edges)
    if cost.same_component:
        labels = weak_components(g)
        if len({labels[v] for v in members}) != 1:
            return False, s, float("nan")
    return True, s, cost.value(s, len(members), g.n)


def rank_key(seeds: list[str], value: float):
    """Score descending, then fewer seeds, then lexicographic ids."""
    return (-value, len(seeds), tuple(seeds))


def brute_force(g: OGraph, cost: Cost, top_k: int) -> list[tuple[list[str], float]]:
    """Exact top-k (seeds, score) over every nonempty subset.

    Closures of all 2^N subsets are built by doubling (the closure of
    ``m | bit i`` is the closure of ``m`` or'ed with node i's reach set),
    scored in bulk, and the candidates near the k-th best score are
    re-scored one by one with ``score`` so the ranking uses the scalar
    arithmetic and tie-break.
    """
    n = g.n
    if n > 24:
        raise ValueError(f"brute force over {n} nodes is too large")
    reach = np.array([sum(1 << v for v in closure(g, [i])) for i in range(n)], dtype=np.int64)
    size = 1 << n
    masks = np.zeros(size, dtype=np.int64)
    for i in range(n):
        masks[1 << i : 2 << i] = masks[: 1 << i] | reach[i]
    weights = _measure_weights(g, cost.measure)
    total = sum(g.node_w) if cost.measure == "node" else sum(w for _, _, w in g.edges)
    soiled_w = np.zeros(size)
    popcount = np.zeros(size, dtype=np.int64)
    subsets = np.arange(size, dtype=np.int64)
    for lo in range(0, n, 8):
        byte = np.arange(256)
        table_w = np.array([sum(weights[lo + b] for b in range(8) if lo + b < n and x >> b & 1) for x in byte])
        table_c = np.array([bin(x).count("1") for x in byte])
        soiled_w += table_w[(masks >> lo) & 255]
        popcount += table_c[(subsets >> lo) & 255]
    popcount[0] = 1  # the empty subset is dropped below; avoids dividing by 0
    s = soiled_w / total
    beta = cost.beta / popcount if cost.beta_over_n else cost.beta
    values = s * s + beta * (1.0 - popcount / n) ** 2
    if cost.fuzzy_small:
        scale, eps = cost.fuzzy_small
        values = values + eps * np.maximum(0.0, 1.0 - (popcount - 1) / scale)
    values[0] = -np.inf
    if cost.same_component:
        labels = weak_components(g)
        feasible = np.zeros(size, dtype=bool)
        for label in set(labels):
            comp = sum(1 << v for v in range(n) if labels[v] == label)
            feasible |= (subsets & ~comp) == 0
        values[~feasible] = -np.inf
    k = min(top_k, int(np.isfinite(values).sum()))
    kth = np.partition(values, size - k)[size - k]
    near = np.flatnonzero(values >= kth - 1e-6)
    found = []
    for m in near.tolist():
        seeds = sorted(g.ids[v] for v in range(n) if m >> v & 1)
        defined, _, value = score(g, cost, seeds)
        if defined:
            found.append((seeds, value))
    found.sort(key=lambda item: rank_key(*item))
    return found[:k]


def greedy_reference(g: OGraph, cost: Cost) -> tuple[list[str], float]:
    """Best prefix of the greedy max-coverage order: a quality yardstick.

    Repeatedly adds the node whose reach set soils the most not yet
    soiled weight (lowest index on ties) and scores every prefix. Not an
    optimum; heuristic results are reported as a ratio to it.
    """
    if cost.same_component or cost.fuzzy_small:
        raise ValueError("the greedy reference covers ungated costs without penalties")
    reach = np.zeros((g.n, g.n))
    for i in range(g.n):
        reach[i, list(closure(g, [i]))] = 1.0
    weights = np.array(_measure_weights(g, cost.measure))
    total = weights.sum()
    soiled = np.zeros(g.n, dtype=bool)
    chosen: list[int] = []
    best: tuple[list[str], float] | None = None
    while True:
        gains = reach @ np.where(soiled, 0.0, weights)
        pick = int(np.argmax(gains))
        if gains[pick] <= 0:
            return best
        chosen.append(pick)
        soiled |= reach[pick] > 0
        value = cost.value(float(weights[soiled].sum() / total), len(chosen), g.n)
        if best is None or value > best[1]:
            best = (sorted(g.ids[v] for v in chosen), value)


def check_report(
    text: str,
    g: OGraph,
    cost: Cost,
    optimizer: str,
    top_k: int,
    reference: list[tuple[list[str], float]] | None = None,
) -> list[str]:
    """Problems found in one JSON report; an empty list means it is correct.

    Every ranked candidate's S and score are re-derived to ``TOL``; the
    ranking must be strictly ordered by score descending, then fewer
    seeds, then lexicographic ids. With a ``reference`` (the exact top-k),
    each rank's score must match it, and so must its seeds unless another
    reference candidate is within ``TOL`` of that score (a float-level
    near-tie that summation order may break either way).
    """
    try:
        report = json.loads(text)
        ranked = report["ranked"]
        candidates = [(list(c["seeds"]), int(c["n"]), float(c["S"]), float(c["score"])) for c in ranked]
        best = report["best"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"report is not the expected JSON: {exc!r}"]
    problems = []
    if report.get("optimizer") != optimizer:
        problems.append(f"optimizer {report.get('optimizer')!r}, expected {optimizer!r}")
    if not 1 <= len(candidates) <= top_k:
        problems.append(f"{len(candidates)} ranked candidates, expected 1..{top_k}")
    if not isinstance(report.get("evaluations"), int) or report["evaluations"] < len(candidates):
        problems.append(f"implausible evaluation count {report.get('evaluations')!r}")
    if candidates and best != ranked[0]:
        problems.append("best differs from rank 1")
    known = set(g.ids)
    for rank, (seeds, n, s, value) in enumerate(candidates, start=1):
        if not seeds or seeds != sorted(set(seeds)) or not set(seeds) <= known or n != len(seeds):
            problems.append(f"rank {rank}: malformed seed list {seeds!r} (n={n})")
            continue
        defined, s_ref, v_ref = score(g, cost, seeds)
        if not defined:
            problems.append(f"rank {rank}: subset {seeds} is gated out")
        elif abs(s - s_ref) > TOL or abs(value - v_ref) > TOL:
            problems.append(f"rank {rank}: S={s!r} score={value!r}, oracle S={s_ref!r} score={v_ref!r}")
    for rank in range(1, len(candidates)):
        a, b = candidates[rank - 1], candidates[rank]
        if not rank_key(a[0], a[3]) < rank_key(b[0], b[3]):
            problems.append(f"ranks {rank} and {rank + 1} are out of order")
    if reference is not None:
        if len(candidates) != len(reference):
            problems.append(f"{len(candidates)} ranked candidates, reference has {len(reference)}")
        for rank, ((seeds, _, _, value), (ref_seeds, ref_value)) in enumerate(zip(candidates, reference), start=1):
            if abs(value - ref_value) > TOL:
                problems.append(f"rank {rank}: score {value!r}, reference {ref_value!r}")
            elif seeds != ref_seeds and not any(
                abs(other - ref_value) <= TOL for j, (_, other) in enumerate(reference, start=1) if j != rank
            ):
                problems.append(f"rank {rank}: seeds {seeds}, reference {ref_seeds}")
    return problems
