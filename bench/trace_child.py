"""Run `critset analyze` once in this process, timed layer by layer.

Usage: python3 bench/trace_child.py OUT.json analyze --graph PATH ...

Before calling `critset.cli.main`, this wraps the layers' entry points
from the outside (nothing in `critset` is edited) with spans kept in
memory, then writes the report it captured from stdout, the wall time of
`main` and the per-layer metrics to OUT.json. A span's self time is its
duration minus the time of the spans directly inside it. An entry point
that no longer exists is listed under "missing" together with every
metric that needs it, so it can never read as 0.
"""
from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import sys
from time import perf_counter


class Tracer:
    """Per-name span totals: calls, inclusive time and self time."""

    def __init__(self):
        self._stack: list[list[float]] = []  # [start, time of direct children]
        self.totals: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.top_level_s = 0.0
        self.counts: dict[str, int] = {}
        self.missing: set[str] = set()  # entry points that no longer exist

    def wrap(self, name, fn, after=None):
        stack = self._stack
        agg = self.totals.setdefault(name, [0, 0.0, 0.0])

        def traced(*args, **kwargs):
            frame = [perf_counter(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - frame[0]
                stack.pop()
                agg[0] += 1
                agg[1] += duration
                agg[2] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                else:
                    self.top_level_s += duration
            if after is not None:
                after(args, result)
            return result

        return traced

    def counted(self, name, fn):
        counts = self.counts
        counts[name] = 0

        def counting(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counting

    def patch(self, owner, attr, replace) -> str:
        """Replace ``owner.attr`` with ``replace(original)``; returns the symbol name."""
        where = f"{owner.__module__}.{owner.__qualname__}" if isinstance(owner, type) else owner.__name__
        symbol = f"{where}.{attr}"
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.add(symbol)
        else:
            setattr(owner, attr, replace(original))
        return symbol


def install(tracer: Tracer):
    """Wrap the entry points; returns the symbol behind each layer, and the counters."""
    from critset import cli, constraints, cost, optimize

    masks: set[int] = set()
    defined = [0]
    ranked = [0]

    def after_eval(args, score):
        masks.add(args[1])
        if getattr(score, "defined", False):
            defined[0] += 1

    def after_rank(args, result):
        ranked[0] = len(args[1])

    evaluate_symbol = f"{constraints.__name__}.ConstraintEvaluator.evaluate"

    def traced_resolve(resolve):
        def wrapped(constraint_id):
            ev = resolve(constraint_id)
            if not (dataclasses.is_dataclass(ev) and callable(getattr(ev, "evaluate", None))):
                tracer.missing.add(evaluate_symbol)
                return ev
            return dataclasses.replace(ev, evaluate=tracer.wrap("constraints.evaluate", ev.evaluate))

        return wrapped

    def search(f):
        return tracer.wrap("optimize.search", f)

    evaluator = getattr(cost, "SubsetEvaluator", None)
    if evaluator is None:
        tracer.missing.add(f"{cost.__name__}.SubsetEvaluator")
        evaluator_symbols = dict.fromkeys(("build", "eval", "seeds_of"), f"{cost.__name__}.SubsetEvaluator")
    else:
        evaluator_symbols = {
            "build": tracer.patch(evaluator, "__init__", lambda f: tracer.wrap("cost.build", f)),
            "eval": tracer.patch(evaluator, "evaluate_mask", lambda f: tracer.wrap("cost.eval", f, after_eval)),
            "seeds_of": tracer.patch(evaluator, "seeds_of", lambda f: tracer.counted("cost.seeds_of", f)),
        }
    symbols = {
        "parse": (tracer.patch(cli, "parse_graph", lambda f: tracer.wrap("graphs.parse", f)),),
        "render": (tracer.patch(cli, "render_json", lambda f: tracer.wrap("cli.render", f)),),
        "rank": (tracer.patch(optimize, "_result", lambda f: tracer.wrap("optimize.rank", f, after_rank)),),
        "constraints": (tracer.patch(constraints, "resolve", traced_resolve), evaluate_symbol),
        "search": tuple(tracer.patch(cli, name, search) for name in ("exhaustive_search", "anneal", "evolve")),
        **{layer: (symbol,) for layer, symbol in evaluator_symbols.items()},
    }
    return symbols, masks, defined, ranked


def main(argv: list[str]) -> int:
    out_path, analyze_argv = argv[0], argv[1:]
    tracer = Tracer()
    symbols, masks, defined, ranked = install(tracer)
    from critset import cli

    captured = io.StringIO()
    start = perf_counter()
    with contextlib.redirect_stdout(captured):
        rc = cli.main(analyze_argv)
    wall = perf_counter() - start

    def total(name, field=1):
        return tracer.totals[name][field] if name in tracer.totals else 0.0

    calls = tracer.totals.get("cost.eval", [0])[0]
    metrics = {
        "graphs.parse_s": (total("graphs.parse"), "s", ("parse",)),
        "cost.build_s": (total("cost.build"), "s", ("build",)),
        "cost.eval_calls": (calls, "count", ("eval",)),
        "cost.eval_s": (total("cost.eval"), "s", ("eval",)),
        "cost.eval_us": (total("cost.eval") / calls * 1e6 if calls else 0.0, "us", ("eval",)),
        "cost.cache_hit_ratio": (1.0 - len(masks) / calls if calls else 0.0, "ratio", ("eval",)),
        "cost.defined_ratio": (defined[0] / calls if calls else 0.0, "ratio", ("eval",)),
        "cost.seeds_of_calls": (tracer.counts.get("cost.seeds_of", 0), "count", ("seeds_of",)),
        "constraints.calls": (tracer.totals.get("constraints.evaluate", [0])[0], "count", ("constraints",)),
        "constraints.s": (total("constraints.evaluate"), "s", ("constraints",)),
        "optimize.search_s": (total("optimize.search"), "s", ("search",)),
        "optimize.self_s": (total("optimize.search", 2), "s", ("search", "build", "eval", "rank")),
        "optimize.rank_s": (total("optimize.rank"), "s", ("rank",)),
        "optimize.ranked_candidates": (ranked[0], "count", ("rank",)),
        "cli.render_s": (total("cli.render"), "s", ("render",)),
        "trace.uncovered_s": (wall - tracer.top_level_s, "s", ("parse", "search", "render")),
    }
    if rc == 0:
        metrics["optimize.evaluations"] = (json.loads(captured.getvalue())["evaluations"], "count", ())

    def lacking(needs):
        return sorted({sym for layer in needs for sym in symbols[layer] if sym in tracer.missing})

    result = {
        "rc": rc,
        "stdout": captured.getvalue(),
        "wall_s": wall,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, needs) in metrics.items() if not lacking(needs)},
        "missing": {k: lacking(needs) for k, (_, _, needs) in metrics.items() if lacking(needs)},
    }
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
