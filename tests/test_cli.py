import gc
import json
from pathlib import Path

import pytest

from critset.cli import main, render_tables, result_to_dict
from critset.cost import CostSpec, over_n
from critset.graphs import Graph, serialize_graph, weak_components
from critset.optimize import exhaustive_search


def test_analyze_tsv_top_row(demo_graph_file, capsys):
    assert main(["analyze", "--graph", str(demo_graph_file), "--top", "3"]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0] == "rank\tseeds\tn\tS\tclean\tgate_degree\tscore"
    assert lines[1] == "1\t1,4,6\t3\t1.0000\t0.0000\t1.0000\t1.3265"


def test_analyze_single_node_graph(tmp_path, capsys):
    path = tmp_path / "one.graph"
    path.write_text("node solo\n")
    assert main(["analyze", "--graph", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == "1\tsolo\t1\t1.0000\t0.0000\t1.0000\t1.0000"


def test_analyze_json_matches_library(demo_graph_file, demo, capsys):
    assert main(["analyze", "--graph", str(demo_graph_file), "--beta-over-n", "2", "--format", "json"]) == 0
    parsed = json.loads(capsys.readouterr().out)
    expected = result_to_dict(exhaustive_search(demo, CostSpec(beta=over_n(2.0))))
    assert parsed == expected
    assert parsed["best"]["seeds"] == ["1"]
    assert parsed["optimizer"] == "exhaustive"
    assert parsed["evaluations"] == 127


def test_analyze_gate_flag(demo_graph_file, capsys):
    assert main(["analyze", "--graph", str(demo_graph_file), "--gate", "same-component", "--top", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].startswith("1\t1\t1\t")


def test_analyze_penalty_flag_splits_on_last_colon(demo_graph_file, demo, capsys):
    code = main(["analyze", "--graph", str(demo_graph_file), "--penalty", "fuzzy-small:6:0.5", "--top", "1"])
    assert code == 0
    top = capsys.readouterr().out.splitlines()[1]
    expected = exhaustive_search(demo, CostSpec(penalties=((0.5, "fuzzy-small:6"),))).best
    assert top.split("\t")[1] == ",".join(expected.sorted_seeds)
    assert top.split("\t")[6] == f"{expected.score.value:.4f}"


def test_analyze_unknown_constraint(demo_graph_file, capsys):
    assert main(["analyze", "--graph", str(demo_graph_file), "--gate", "never-heard-of-it"]) == 1
    assert "never-heard-of-it" in capsys.readouterr().err


@pytest.mark.parametrize("flag", [["--gate", "forbid:nope"], ["--penalty", "require:nope:0.5"]])
def test_analyze_unknown_constraint_node(demo_graph_file, capsys, flag):
    assert main(["analyze", "--graph", str(demo_graph_file), *flag]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "constraint references unknown node id 'nope'" in captured.err


def test_analyze_conflicting_beta_flags(demo_graph_file, capsys):
    code = main(["analyze", "--graph", str(demo_graph_file), "--beta-const", "1", "--beta-over-n", "2"])
    assert code == 1
    assert "mutually exclusive" in capsys.readouterr().err


def test_analyze_missing_graph_file(capsys):
    assert main(["analyze", "--graph", "/no/such/file"]) == 1
    assert "cannot read" in capsys.readouterr().err


def test_analyze_infeasible_exit_code(demo_graph_file, capsys):
    code = main(["analyze", "--graph", str(demo_graph_file), "--gate", "forbid:1,2,3,4,5,6,7"])
    assert code == 2
    assert "infeasible" in capsys.readouterr().err


def test_analyze_overflowing_cost_is_an_error(demo_graph_file, tmp_path, run_cli):
    cost = tmp_path / "huge.cost"
    cost.write_text("gamma = const 1e200\n")
    proc = run_cli("analyze", "--graph", demo_graph_file, "--cost", cost, expect=1)
    assert proc.stdout == ""
    assert proc.stderr.startswith("critset: error: cost value is not finite")
    assert len(proc.stderr.splitlines()) == 1


def test_analyze_overflowing_penalties_print_one_error_line(demo_graph_file, run_cli):
    # Two penalties of 1e308 add up to inf in exhaustive search's batched
    # tail: the finiteness check reports it, and numpy prints no warning.
    penalty = ["--penalty", "fuzzy-small:6:1e308"]
    proc = run_cli("analyze", "--graph", demo_graph_file, *penalty, *penalty, expect=1)
    assert proc.stdout == ""
    assert proc.stderr == "critset: error: cost value is not finite: inf\n"


@pytest.mark.parametrize("text", ["", "# only a comment\n"])
@pytest.mark.parametrize("optimizer", ["exhaustive", "sa", "ga"])
def test_analyze_graph_file_without_nodes_is_an_error(tmp_path, capsys, optimizer, text):
    path = tmp_path / "empty.graph"
    path.write_text(text)
    assert main(["analyze", "--graph", str(path), "--optimizer", optimizer]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "critset: error: graph file declares no nodes\n"


@pytest.mark.parametrize("eps", ["nan", "inf", "-inf"])
def test_analyze_non_finite_penalty_epsilon_is_an_error(demo_graph_file, tmp_path, capsys, eps):
    # Rejected when the spec is built, by flag and by cost file alike, not
    # when the first defined score comes out non-finite.
    assert main(["analyze", "--graph", str(demo_graph_file), "--penalty", f"fuzzy-small:6:{eps}"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"critset: error: penalty epsilon must be finite, got {float(eps)!r}\n"
    cost = tmp_path / "eps.cost"
    cost.write_text(f"beta = inv 2\npenalty = fuzzy-small:6 eps={eps}\n")
    assert main(["analyze", "--graph", str(demo_graph_file), "--cost", str(cost)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"critset: error: line 2: penalty epsilon must be finite, got {float(eps)!r}\n"


SA_GRAPH = Path(__file__).parent / "golden" / "gated-73.graph"


@pytest.mark.parametrize("seed", ["-5", "-1", str(2**64), "x"])
@pytest.mark.parametrize("command", ["exhaustive", "sa", "gen-log"])
def test_rng_seed_outside_u64_is_a_usage_error(demo_graph_file, command, seed, capsys):
    argv = {
        "exhaustive": ["analyze", "--graph", str(demo_graph_file)],  # 7 nodes: exhaustive by default
        "sa": ["analyze", "--graph", str(SA_GRAPH)],  # 73 nodes: sa by default
        "gen-log": ["gen-log", "-", "--nodes", "5", "--transactions", "10"],
    }[command]
    with pytest.raises(SystemExit) as exc:
        main([*argv, f"--rng-seed={seed}"])
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: argument --rng-seed: expected an integer in [0, 2^64), got {seed!r}" in captured.err


@pytest.mark.parametrize("optimizer", ["exhaustive", "sa"])
def test_rng_seed_largest_u64(demo_graph_file, capsys, optimizer):
    seed = 2**64 - 1
    argv = ["analyze", "--graph", str(demo_graph_file), "--optimizer", optimizer, "--format", "json"]
    assert main([*argv, "--rng-seed", str(seed)]) == 0
    assert json.loads(capsys.readouterr().out)["rng_seed"] == seed
    assert main(["gen-log", "-", "--nodes", "5", "--transactions", "10", "--rng-seed", str(seed)]) == 0


def test_config_file_wins_with_warning(demo_graph_file, tmp_path, capsys):
    config = tmp_path / "cost.cfg"
    config.write_text("beta = inv 2\n")
    code = main(
        [
            "analyze",
            "--graph",
            str(demo_graph_file),
            "--cost",
            str(config),
            "--beta-const",
            "5",
            "--top",
            "1",
        ]
    )
    assert code == 0
    captured = capsys.readouterr()
    assert "warning" in captured.err and "--beta-const" in captured.err
    assert captured.out.splitlines()[1].split("\t")[1] == "1"  # the 2/n optimum, not beta=5's


def test_bad_usage_exits_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["analyze"])  # --graph is required
    assert exc.value.code == 1


def test_unknown_subcommand_exits_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 1


def test_tables_output(capsys):
    assert main(["tables"]) == 0
    out = capsys.readouterr().out
    assert out == render_tables()
    lines = out.splitlines()
    assert "basic cost, beta = 1" in lines[0]
    undefined_rows = [line for line in lines if line.endswith("\t-")]
    assert len(undefined_rows) == 4


def test_tables_reference_cells():
    table_lines = render_tables().splitlines()
    score_of = {}
    section = None
    for line in table_lines:
        if line and "\t" not in line:
            section = line
        elif line and not line.startswith("row"):
            cells = line.split("\t")
            score_of[(section, cells[1])] = cells[-1]
    assert score_of[("basic cost, beta = 1", "1,6")] == "1.2449"
    assert score_of[("basic cost, beta = 1", "1,4,6")] == "1.3265"
    assert score_of[("basic cost, beta = 2/n", "2,4,7")] == "0.7279"
    assert score_of[("basic cost, beta = 2/n", "1,4,6")] == "1.2177"
    assert score_of[("gated cost, beta = 1, gate same-component", "1,6")] == "-"
    assert score_of[("gated cost, beta = 1, gate same-component", "1,4")] == "1.0204"


def test_ingest_two_record_log(tmp_path, capsys):
    log = tmp_path / "log.csv"
    log.write_text("a,b\nb,c\n")
    assert main(["ingest", str(log), "-"]) == 0
    out = capsys.readouterr().out
    assert "edge a b 0.5" in out
    assert "edge b c 0.5" in out


@pytest.mark.parametrize("header", ["src,dst,count", "src,dst"])
def test_ingest_skips_a_header_after_a_byte_order_mark(tmp_path, capsys, header):
    log = tmp_path / "log.csv"
    log.write_text(f"{header}\na,b\n", encoding="utf-8-sig")
    assert main(["ingest", str(log), "-"]) == 0
    assert capsys.readouterr().out == "node a\nnode b\nedge a b\n"


def test_ingest_empty_log(tmp_path, capsys):
    log = tmp_path / "empty.csv"
    log.write_text("")
    assert main(["ingest", str(log), "-"]) == 1
    assert "empty" in capsys.readouterr().err


def test_genlog_then_ingest_round_trip(tmp_path, capsys):
    log = tmp_path / "gen.csv"
    graph_file = tmp_path / "gen.graph"
    assert main(["gen-log", str(log), "--nodes", "6", "--transactions", "40", "--rng-seed", "3"]) == 0
    assert main(["ingest", str(log), str(graph_file)]) == 0
    from critset.graphs import parse_graph

    g = parse_graph(graph_file.read_text())
    assert g.n_nodes <= 6
    assert abs(sum(w for _, _, w in g.edges) - 1.0) < 1e-12


def test_genlog_deterministic_files(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["gen-log", str(a), "--nodes", "5", "--transactions", "100", "--rng-seed", "3"])
    main(["gen-log", str(b), "--nodes", "5", "--transactions", "100", "--rng-seed", "3"])
    assert a.read_bytes() == b.read_bytes()


def test_genlog_bad_bounds(tmp_path, capsys):
    assert main(["gen-log", str(tmp_path / "x.csv"), "--nodes", "1", "--transactions", "5"]) == 1


@pytest.mark.parametrize("optimizer", ["sa", "ga"])
def test_analyze_sa_finds_a_start_under_a_narrow_gate(tmp_path, capsys, optimizer):
    # About 1,800 of the 2^60 subsets pass the gate, so a random start almost
    # always fails; both heuristics must draw a start from the gate's sizes
    # 1 and 2 instead, not exit 2.
    log, graph_file = tmp_path / "gen.csv", tmp_path / "gen.graph"
    assert main(["gen-log", str(log), "--nodes", "60", "--transactions", "120", "--rng-seed", "1"]) == 0
    assert main(["ingest", str(log), str(graph_file)]) == 0
    argv = ["analyze", "--graph", str(graph_file), "--optimizer", optimizer, "--gate", "cardinality:1:2"]
    assert main([*argv, "--format", "json"]) == 0
    best = json.loads(capsys.readouterr().out)["ranked"][0]
    assert 1 <= best["n"] <= 2
    assert best["gate_degree"] == 1.0
    assert best["score"] is not None


@pytest.mark.parametrize("optimizer", ["sa", "ga"])
def test_heuristics_exit_2_only_when_no_subset_passes_the_gates(tmp_path, capsys, optimizer):
    # On 65 nodes {n1, n2} is the one subset that passes both gates, which no
    # random start finds; under cardinality:1:1 none passes, which is proven.
    log, graph_file = tmp_path / "gen.csv", tmp_path / "gen.graph"
    assert main(["gen-log", str(log), "--nodes", "80", "--transactions", "60", "--rng-seed", "1"]) == 0
    assert main(["ingest", str(log), str(graph_file)]) == 0
    argv = ["analyze", "--graph", str(graph_file), "--optimizer", optimizer, "--gate", "require:n1,n2"]
    assert main([*argv, "--gate", "cardinality:2:2", "--format", "json"]) == 0
    best = json.loads(capsys.readouterr().out)["ranked"][0]
    assert best["seeds"] == ["n1", "n2"]
    assert best["score"] == 0.9431952662721893
    assert main([*argv, "--gate", "cardinality:1:1"]) == 2
    assert "infeasible" in capsys.readouterr().err


@pytest.mark.parametrize("optimizer", ["sa", "ga"])
def test_heuristics_find_the_best_single_seed_under_beta_over_n(optimizer, capsys):
    # Random starts hold about half the nodes and slide into the subset that
    # soils everything, which scores about 1.06 under beta = 2/n; the best
    # single seed scores 2.6798.
    graph = Path(__file__).parent / "golden" / "sa-200.graph"
    args = ["analyze", "--graph", str(graph), "--beta-over-n", "2", "--optimizer", optimizer, "--format", "json"]
    assert main(args) == 0
    best = json.loads(capsys.readouterr().out)["best"]
    assert best["score"] >= 2.6797
    assert best["n"] == 1


def test_cli_entrypoint_subprocess(demo_graph_file, run_cli):
    # python -m critset runs entry(), which freezes the collector before main().
    proc = run_cli("analyze", "--graph", demo_graph_file, "--top", "2")
    assert proc.stdout.splitlines()[1].split("\t")[1] == "1,4,6"
    proc = run_cli("analyze", "--graph", demo_graph_file, "--gate", "forbid:1,2,3,4,5,6,7", expect=2)
    assert proc.stdout == ""
    assert proc.stderr.startswith("critset: infeasible:")


def test_an_equal_graph_in_another_node_order_does_not_change_a_later_run(tmp_path, capsys, run_cli):
    # v0 -> v1, v2 -> v3, ..., v26 -> v27: 16 weak components of 30 nodes.
    # Equal graphs whatever their node order, but a gated run draws its
    # starts from the components, listed in node order.
    ids = [f"v{i}" for i in range(30)]
    edges = list(zip(ids[:28:2], ids[1:28:2]))
    a, b = Graph(ids, edges), Graph(ids[::-1], edges)
    assert a == b
    assert weak_components(a).components[0] == {"v0", "v1"}
    assert weak_components(b).components[0] == {"v29"}
    args = ["analyze", "--optimizer", "sa", "--gate", "same-component", "--rng-seed", "3", "--format", "json"]
    for name, g in (("a", a), ("b", b)):
        (tmp_path / f"{name}.graph").write_text(serialize_graph(g), encoding="utf-8")
    assert main([*args, "--graph", str(tmp_path / "a.graph")]) == 0
    capsys.readouterr()
    assert main([*args, "--graph", str(tmp_path / "b.graph")]) == 0
    after_a = capsys.readouterr().out
    # A new process has analysed no other graph.
    assert after_a == run_cli(*args, "--graph", tmp_path / "b.graph").stdout


def test_main_in_process_leaves_the_collector_unfrozen(demo_graph_file, capsys):
    # Only entry() freezes: a library caller of main() keeps normal collection.
    before = gc.get_freeze_count()
    assert main(["analyze", "--graph", str(demo_graph_file), "--top", "2"]) == 0
    assert gc.get_freeze_count() == before


def test_sa_and_ga_selectable(demo_graph_file, capsys):
    for optimizer in ("sa", "ga"):
        code = main(
            [
                "analyze",
                "--graph",
                str(demo_graph_file),
                "--optimizer",
                optimizer,
                "--rng-seed",
                "4",
                "--top",
                "1",
            ]
        )
        assert code == 0
        top = capsys.readouterr().out.splitlines()[1]
        assert top.split("\t")[1] == "1,4,6"
