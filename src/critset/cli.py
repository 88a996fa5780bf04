"""Command-line driver.

Subcommands: ``analyze`` runs a subset search over a graph file,
``tables`` prints the three bundled demo-graph score tables, ``ingest``
turns a transaction log CSV into a graph file, and ``gen-log`` writes a
synthetic log. Results go to stdout, diagnostics to stderr. Exit codes:
0 success, 1 parse or validation failure, 2 no gate-feasible subset found
(a proof that gates rule out every subset only under ``exhaustive``; the
heuristics give up after 1000 random draws and every singleton).
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import constraints, ingest
from .cost import CostConfigError, CostSpec, SubsetEvaluator, constant, over_n, parse_cost_config
from .datasets import DEMO_SHORTLIST, DEMO_SHORTLIST_GATED, demo_graph
from .graphs import Graph, GraphError, parse_graph, serialize_graph
from .optimize import (
    EXHAUSTIVE_NODE_CAP,
    AnnealingSchedule,
    GaParams,
    InfeasibleSearchError,
    SearchResult,
    anneal,
    evolve,
    exhaustive_search,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad usage; 2 is reserved for "infeasible" here.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _u64(text: str) -> int:
    """An ``--rng-seed`` value: an integer in [0, 2^64)."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if not 0 <= value < 1 << 64:
        raise argparse.ArgumentTypeError(f"expected an integer in [0, 2^64), got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="critset", description="Critical node-subset detection on weighted digraphs.")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    an = sub.add_parser("analyze", help="search a graph file for high-scoring seed subsets")
    an.add_argument("--graph", required=True, metavar="PATH", help="graph file to analyze")
    an.add_argument("--cost", metavar="PATH", help="cost config file; overrides inline cost flags")
    an.add_argument("--beta-const", type=float, metavar="X", help="constant beta coefficient")
    an.add_argument("--beta-over-n", type=float, metavar="X", help="beta coefficient of the form X/n")
    an.add_argument("--measure", choices=["node", "edge"], help="soiled-measure weighting (default node)")
    an.add_argument(
        "--optimizer",
        choices=["exhaustive", "sa", "ga"],
        help=f"search strategy (default exhaustive when the graph has at most {EXHAUSTIVE_NODE_CAP} nodes, else sa)",
    )
    an.add_argument("--gate", action="append", default=[], metavar="ID", help="gate constraint id (repeatable)")
    an.add_argument(
        "--penalty",
        action="append",
        default=[],
        metavar="ID:EPS",
        help="penalty constraint id and epsilon weight (repeatable)",
    )
    an.add_argument("--rng-seed", type=_u64, default=0, metavar="U64", help="random seed (default 0)")
    an.add_argument("--top", type=int, default=10, metavar="K", help="how many candidates to report (default 10)")
    an.add_argument("--format", choices=["tsv", "json"], default="tsv", help="report format (default tsv)")
    an.set_defaults(func=cmd_analyze)

    tb = sub.add_parser("tables", help="print the bundled demo-graph score tables")
    tb.set_defaults(func=cmd_tables)

    ig = sub.add_parser("ingest", help="build a graph file from a transaction log CSV")
    ig.add_argument("log", metavar="LOG", help="transaction log CSV (src,dst[,count])")
    ig.add_argument("out", metavar="OUT", help="graph file to write, or - for stdout")
    ig.set_defaults(func=cmd_ingest)

    gl = sub.add_parser("gen-log", help="write a synthetic transaction log CSV")
    gl.add_argument("out", metavar="OUT", help="log CSV to write, or - for stdout")
    gl.add_argument("--nodes", type=int, required=True, metavar="K", help="number of distinct nodes")
    gl.add_argument("--transactions", type=int, required=True, metavar="M", help="number of log records")
    gl.add_argument("--rng-seed", type=_u64, default=0, metavar="U64", help="random seed (default 0)")
    gl.set_defaults(func=cmd_genlog)
    return parser


def _fail(message: str) -> int:
    print(f"critset: error: {message}", file=sys.stderr)
    return EXIT_USAGE


def _read_text(path: str, what: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except OSError as exc:
        raise ValueError(f"cannot read {what} {path!r}: {exc.strerror or exc}") from None


def _write_text(path: str, text: str):
    if path == "-":
        sys.stdout.write(text)
        return
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot write {path!r}: {exc.strerror or exc}") from None


def _parse_penalty_flag(value: str) -> tuple[float, str]:
    cid, sep, eps = value.rpartition(":")
    if not sep or not cid:
        raise ValueError(f"expected ID:EPS, got {value!r}")
    return float(eps), cid


def _spec_from_args(args) -> CostSpec:
    inline_flags = [
        name
        for name, given in (
            ("--beta-const", args.beta_const is not None),
            ("--beta-over-n", args.beta_over_n is not None),
            ("--measure", args.measure is not None),
            ("--gate", bool(args.gate)),
            ("--penalty", bool(args.penalty)),
        )
        if given
    ]
    if args.cost is not None:
        if inline_flags:
            print(
                f"critset: warning: --cost overrides inline cost flags ({', '.join(inline_flags)})",
                file=sys.stderr,
            )
        return parse_cost_config(_read_text(args.cost, "cost config"))
    if args.beta_const is not None and args.beta_over_n is not None:
        raise ValueError("--beta-const and --beta-over-n are mutually exclusive")
    if args.beta_const is not None:
        beta = constant(args.beta_const)
    elif args.beta_over_n is not None:
        beta = over_n(args.beta_over_n)
    else:
        beta = constant(1.0)
    try:
        penalties = tuple(_parse_penalty_flag(p) for p in args.penalty)
    except ValueError as exc:
        raise ValueError(f"bad --penalty: {exc}") from None
    return CostSpec(
        beta=beta,
        penalties=penalties,
        gates=tuple((g, 1.0) for g in args.gate),
        mode=args.measure or "node",
    )


def _run_search(g: Graph, spec: CostSpec, args) -> SearchResult:
    optimizer = args.optimizer
    if optimizer is None:
        optimizer = "exhaustive" if g.n_nodes <= EXHAUSTIVE_NODE_CAP else "sa"
    if args.top < 1:
        raise ValueError("--top must be >= 1")
    if optimizer == "exhaustive":
        return exhaustive_search(g, spec, args.top, rng_seed=args.rng_seed)
    if optimizer == "sa":
        return anneal(g, spec, AnnealingSchedule(), args.rng_seed, top_k=args.top)
    return evolve(g, spec, GaParams(), args.rng_seed, top_k=args.top)


def _fmt(x: float) -> str:
    return format(x, ".4f")


def render_tsv(result: SearchResult) -> str:
    lines = ["rank\tseeds\tn\tS\tclean\tgate_degree\tscore"]
    for rank, cand in enumerate(result.ranked, start=1):
        sc = cand.score
        lines.append(
            "\t".join(
                (
                    str(rank),
                    ",".join(cand.sorted_seeds),
                    str(sc.n),
                    _fmt(sc.soiled),
                    _fmt(1.0 - sc.soiled),
                    _fmt(sc.gate_degree),
                    _fmt(sc.value),
                )
            )
        )
    return "\n".join(lines) + "\n"


def result_to_dict(result: SearchResult) -> dict:
    def candidate(c):
        return {
            "seeds": list(c.sorted_seeds),
            "n": c.score.n,
            "S": c.score.soiled,
            "score": c.score.value,
            "gate_degree": c.score.gate_degree,
        }

    return {
        "optimizer": result.optimizer,
        "rng_seed": result.rng_seed,
        "evaluations": result.evaluations,
        "best": candidate(result.best),
        "ranked": [candidate(c) for c in result.ranked],
    }


def render_json(result: SearchResult) -> str:
    return json.dumps(result_to_dict(result), indent=2) + "\n"


def cmd_analyze(args) -> int:
    try:
        g = parse_graph(_read_text(args.graph, "graph file"))
        spec = _spec_from_args(args)
        result = _run_search(g, spec, args)
    except (ValueError, CostConfigError, GraphError, constraints.ConstraintError) as exc:
        return _fail(str(exc))
    except InfeasibleSearchError as exc:
        print(f"critset: infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    render = render_json if args.format == "json" else render_tsv
    sys.stdout.write(render(result))
    return EXIT_OK


def _render_table(title: str, g: Graph, spec: CostSpec, shortlist, gated: bool) -> list[str]:
    evaluator = SubsetEvaluator(g, spec)
    header = ["row", "seeds", "n", "S", "clean"]
    if gated:
        header.append("gate")
    header.append("score")
    lines = [title, "\t".join(header)]
    for row, seeds in enumerate(shortlist, start=1):
        sc = evaluator.evaluate(seeds)
        cells = [
            str(row),
            ",".join(sorted(seeds)),
            str(sc.n),
            _fmt(sc.soiled),
            _fmt(1.0 - sc.soiled),
        ]
        if gated:
            cells.append(_fmt(sc.gate_degree))
        cells.append(_fmt(sc.value) if sc.defined else "-")
        lines.append("\t".join(cells))
    return lines


def render_tables() -> str:
    g = demo_graph()
    sections = [
        _render_table("basic cost, beta = 1", g, CostSpec(), DEMO_SHORTLIST, gated=False),
        _render_table("basic cost, beta = 2/n", g, CostSpec(beta=over_n(2.0)), DEMO_SHORTLIST, gated=False),
        _render_table(
            "gated cost, beta = 1, gate same-component",
            g,
            CostSpec(gates=(("same-component", 1.0),)),
            DEMO_SHORTLIST_GATED,
            gated=True,
        ),
    ]
    return "\n\n".join("\n".join(section) for section in sections) + "\n"


def cmd_tables(args) -> int:
    sys.stdout.write(render_tables())
    return EXIT_OK


def cmd_ingest(args) -> int:
    try:
        records = ingest.read_log_csv(_read_text(args.log, "log file"))
        g = ingest.build_from_log(records)
        _write_text(args.out, serialize_graph(g))
    except (ValueError, ingest.LogFormatError) as exc:
        return _fail(str(exc))
    return EXIT_OK


def cmd_genlog(args) -> int:
    try:
        records = ingest.generate_log(args.nodes, args.transactions, args.rng_seed)
        _write_text(args.out, ingest.write_log_csv(records))
    except ValueError as exc:
        return _fail(str(exc))
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


def entry():
    raise SystemExit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()
