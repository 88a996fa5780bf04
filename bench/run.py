"""Benchmark of `critset analyze`, end to end and layer by layer.

Run from the repository root:

    python3 bench/run.py --workload sa-200 --seed 1 --seconds 55 --trace 0
    python3 bench/run.py                      # every workload, untraced and traced

Each workload's graph is generated from ``--seed`` (see workloads.py) and
`python -m critset analyze --format json` is run on it as a subprocess,
one at a time, for about ``--seconds``. Every report is checked by an
independent oracle (oracle.py) and all reports of one run must be
byte-identical.

``--trace 0`` prints the end-to-end metrics:

  analyze_s         wall time of one `analyze` process, spawn to exit (median)
  setup_s           wall time of a fresh interpreter that imports critset, parses
                    the graph and builds SubsetEvaluator (median of several)
  peak_rss_mb       peak RSS of one `analyze` process, from its own rusage (median)
  best_score_ratio  rank-1 score over a reference the oracle computes: the exact
                    optimum on the exhaustive workloads, the best greedy-coverage
                    prefix on the heuristic ones

``--trace 1`` alternates untraced runs with runs of trace_child.py, which
calls `critset.cli.main` in-process with spans around each layer, and
prints the per-layer metrics. The last stdout line is one JSON object
with the keys correct, attempted, failed and metrics; the lines before
it describe the inputs, the environment and each metric for a reader.
Exit code 0 means the benchmark ran (the JSON says whether the outputs
were correct); anything else means it could not run.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import oracle
from workloads import TOP_K, WORKLOADS, Instance, Workload, generate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_MIN_SAMPLES = 5
MIN_REPORTS = 2  # so that every run compares reports byte for byte
IMPORT_SAMPLES = 5
RUN_LIMIT_S = 170  # a single-workload run must end well inside 180 s
REFERENCE_FILE = HERE / "reference.json"


class RunTimeout(Exception):
    pass


@dataclass
class Child:
    wall_s: float
    rc: int
    rss_mb: float
    stdout: bytes
    stderr: bytes


def run_child(cmd: list[str], work: Path) -> Child:
    """Run one process to completion; time it and read its own rusage."""
    out_path, err_path = work / "stdout", work / "stderr"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(wall, proc.returncode, usage.ru_maxrss / 1024.0, out_path.read_bytes(), err_path.read_bytes())


@dataclass
class Result:
    workload: Workload
    trace: bool
    instance: Instance
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems


def pinned_reference(inst: Instance) -> list[tuple[list[str], float]] | None:
    if not REFERENCE_FILE.is_file():
        return None
    entry = json.loads(REFERENCE_FILE.read_text()).get(inst.workload.name, {}).get(str(inst.seed))
    if entry is None:
        return None
    if entry["graph_sha256"] != inst.sha256:
        raise ValueError(f"generated graph {inst.sha256[:12]} differs from the pinned one {entry['graph_sha256'][:12]}")
    return [(list(seeds), value) for seeds, value in entry["top"]]


def reference(inst: Instance, result: Result):
    """(exact top-k or None, reference best score) for the ratio metric."""
    w = inst.workload
    if not w.exact:
        seeds, value = oracle.greedy_reference(inst.graph, w.cost)
        result.notes.append(f"greedy reference: {value!r} with {len(seeds)} seeds")
        return None, value
    top = oracle.brute_force(inst.graph, w.cost, TOP_K)
    try:
        pinned = pinned_reference(inst)
    except ValueError as exc:
        result.problems.append(f"pinned reference: {exc}")
        pinned = None
    if pinned is not None and pinned != top:
        result.problems.append("brute force disagrees with the pinned reference")
    result.notes.append(f"exact reference: {top[0][1]!r} {top[0][0]} ({'pinned' if pinned else 'brute force'})")
    return top, top[0][1]


def tail_note(samples: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(samples)
    for p in (99.9, 99.0, 90.0, 50.0):
        if n * (100.0 - p) / 100.0 >= 10:
            q = statistics.quantiles(samples, n=1000, method="inclusive")[round(p * 10) - 1]
            return f"p{p:g} {q:.4f} s"
    return "no percentile has >= 10 samples beyond it"


def setup_sample(cmd: list[str], work: Path, result: Result) -> float:
    child = run_child(cmd, work)
    result.attempted += 1
    origin = child.stdout.decode().strip().splitlines()[-1:] if child.rc == 0 else []
    if not origin or not Path(origin[0]).resolve().is_relative_to(SRC):
        result.failed += 1
        result.problems.append(f"set-up run failed (rc {child.rc}): {child.stderr.decode()[-300:]}")
    return child.wall_s


def median_import(work: Path, result: Result) -> float:
    times = []
    for _ in range(IMPORT_SAMPLES):
        child = run_child([sys.executable, "-c", "import critset"], work)
        result.attempted += 1
        if child.rc != 0:
            result.failed += 1
            result.problems.append(f"import failed: {child.stderr.decode()[-300:]}")
        times.append(child.wall_s)
    return statistics.median(times)


def measure(w: Workload, seed: int, seconds: float, trace: bool, work: Path) -> Result:
    """One run: about ``seconds`` of wall time, preparation included."""
    start = perf_counter()
    inst = generate(w, seed)
    result = Result(w, trace, inst)
    graph_path = work / "graph.txt"
    graph_path.write_text(inst.text, encoding="utf-8")
    top, ref_value = reference(inst, result)
    analyze = [sys.executable, "-m", "critset", *w.analyze_args(str(graph_path))]
    setup = [sys.executable, str(HERE / "setup_child.py"), str(graph_path), json.dumps(w.cost.spec_json())]

    outputs: list[bytes] = []
    walls: list[float] = []
    rss: list[float] = []
    setups: list[float] = []
    traced: list[dict] = []
    if trace:
        import_s = median_import(work, result)

    # Set-up samples alternate with analyze runs so both span the same
    # stretch of time on a machine whose speed drifts.
    loop_start = perf_counter()
    while True:
        child = run_child(analyze, work)
        outputs.append(child.stdout if child.rc == 0 else b"")
        if child.rc != 0:
            result.problems.append(f"analyze exited {child.rc}: {child.stderr.decode()[-300:]}")
        walls.append(child.wall_s)
        rss.append(child.rss_mb)
        if trace:
            spans = work / "spans.json"
            tchild = run_child([sys.executable, str(HERE / "trace_child.py"), str(spans), *analyze[3:]], work)
            data = json.loads(spans.read_text()) if tchild.rc == 0 else None
            if data is None or data["rc"] != 0:
                result.problems.append(f"traced run failed (rc {tchild.rc}): {tchild.stderr.decode()[-300:]}")
                outputs.append(b"")
            else:
                outputs.append(data["stdout"].encode())
                traced.append(data)
        else:
            setups.append(setup_sample(setup, work, result))
        now = perf_counter()
        if len(outputs) >= MIN_REPORTS and now - start + (now - loop_start) / len(walls) > seconds:
            break
    while not trace and len(setups) < SETUP_MIN_SAMPLES:
        setups.append(setup_sample(setup, work, result))

    result.attempted += len(outputs)
    failed, canonical = check_outputs(outputs, inst, top, result)
    result.failed += failed
    try:
        best = float(json.loads(canonical)["best"]["score"])
    except (TypeError, ValueError, KeyError):  # no report, or one the oracle already rejected
        best = None
    result.notes.append(f"best_score {best!r}, reference {ref_value!r}")
    analyze_s = statistics.median(walls)
    result.notes.append(
        f"analyze_s over {len(walls)} runs: median {analyze_s:.4f} s, "
        f"all {' '.join(f'{x:.4f}' for x in walls)} s; {tail_note(walls)}"
    )
    result.notes.append(f"failed_frac {result.failed / result.attempted:g} ({result.failed} of {result.attempted} runs)")
    if trace:
        result.metrics["process.import_s"] = (import_s, "s")
        result.metrics.update(layer_metrics(traced, analyze_s, result))
    else:
        result.metrics["analyze_s"] = (analyze_s, "s")
        result.metrics["setup_s"] = (statistics.median(setups), "s")
        result.metrics["peak_rss_mb"] = (statistics.median(rss), "MB")
        if best is not None:
            result.metrics["best_score_ratio"] = (best / ref_value, "ratio")
    return result


def layer_metrics(traced: list[dict], analyze_s: float, result: Result) -> dict[str, tuple[float, str]]:
    """Median of each per-layer metric over the traced runs."""
    values: dict[str, list] = {}
    missing: dict[str, list[str]] = {}
    for data in traced:
        for name, metric in data["metrics"].items():
            values.setdefault(name, [metric["unit"]]).append(metric["value"])
        missing.update(data["missing"])
    for name, symbols in missing.items():
        result.notes.append(f"MISSING {name}: {', '.join(symbols)} no longer exists")
    metrics = {name: (statistics.median(vs), unit) for name, (unit, *vs) in values.items()}
    if traced:
        wall = statistics.median(d["wall_s"] for d in traced)
        metrics["trace.overhead_ratio"] = (wall / analyze_s, "ratio")
        result.notes.append(f"traced runs: {len(traced)}, median in-process wall {wall:.4f} s")
    return metrics


def check_outputs(outputs: list[bytes], inst: Instance, top, result: Result) -> tuple[int, str | None]:
    """(failed runs, the run's canonical report). A run fails when it
    crashed, when the oracle rejects its report, or when its report is not
    byte-identical to the most common one of the run."""
    digests = [hashlib.sha256(o).hexdigest() if o else None for o in outputs]
    counts = {d: digests.count(d) for d in digests if d is not None}
    if not counts:
        return len(outputs), None
    common = max(counts, key=counts.get)
    canonical = outputs[digests.index(common)].decode()
    problems = oracle.check_report(canonical, inst.graph, inst.workload.cost, inst.workload.optimizer, TOP_K, top)
    result.problems.extend(f"oracle: {p}" for p in problems)
    mismatched = sum(1 for d in digests if d not in (None, common))
    if mismatched:
        result.problems.append(f"{mismatched} of {len(outputs)} outputs differ from the others")
    crashed = digests.count(None)
    return (len(outputs) if problems else crashed + mismatched), canonical


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "loadavg": [round(x, 2) for x in os.getloadavg()],
    }


def print_result(result: Result):
    w = result.workload
    print(f"== {w.name} seed {result.instance.seed} trace {int(result.trace)}: {w.why}")
    print(f"   input {json.dumps(result.instance.fingerprint())}")
    for note in result.notes:
        print(f"   {note}")
    for problem in result.problems:
        print(f"   PROBLEM {problem}")
    for name, (value, unit) in result.metrics.items():
        print(f"   {name:28s} {value:.6g} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", choices=["0", "1", "both"], default="both")
    args = parser.parse_args(argv)
    if not (SRC / "critset" / "__init__.py").is_file():
        print(f"bench: no critset source at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    sys.path.insert(0, str(SRC))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    modes = [False, True] if args.trace == "both" else [args.trace == "1"]

    def on_alarm(signum, frame):
        raise RunTimeout(f"run exceeded {RUN_LIMIT_S} s")

    signal.signal(signal.SIGALRM, on_alarm)
    work = ROOT / ".bench_build" / f"critset-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    print(f"env {json.dumps(environment())}")
    results = []
    try:
        for name in names:
            for trace in modes:
                signal.alarm(RUN_LIMIT_S)
                result = measure(WORKLOADS[name], args.seed, args.seconds, trace, work)
                signal.alarm(0)
                print_result(result)
                results.append(result)
    except RunTimeout as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 3
    finally:
        signal.alarm(0)
        shutil.rmtree(work, ignore_errors=True)

    if len(results) == 1:
        metrics = results[0].metrics
    else:
        metrics = {f"{r.workload.name}:{name}": m for r in results for name, m in r.metrics.items()}
    print(
        json.dumps(
            {
                "correct": all(r.correct for r in results),
                "attempted": sum(r.attempted for r in results),
                "failed": sum(r.failed for r in results),
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
