import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import critset
from critset.datasets import demo_graph


@pytest.fixture(scope="session")
def demo():
    return demo_graph()


@pytest.fixture
def demo_graph_file(tmp_path):
    from critset.datasets import DEMO_GRAPH_TEXT

    path = tmp_path / "demo.graph"
    path.write_text(DEMO_GRAPH_TEXT, encoding="utf-8")
    return path


@pytest.fixture(scope="session")
def cli_env():
    """Environment for `python -m critset` subprocesses: the source root of
    the package under test leads PYTHONPATH, so they run the same code, and
    a numpy RuntimeWarning fails them as it fails the tests in process (the
    last PYTHONWARNINGS entry takes precedence)."""
    src = str(Path(critset.__file__).resolve().parent.parent)
    paths = [src, os.environ.get("PYTHONPATH", "")]
    warnings = [os.environ.get("PYTHONWARNINGS", ""), "error::RuntimeWarning"]
    return dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(p for p in paths if p),
        PYTHONWARNINGS=",".join(w for w in warnings if w),
    )


@pytest.fixture(scope="session")
def run_cli(cli_env):
    def run(*argv, expect=0):
        proc = subprocess.run(
            [sys.executable, "-m", "critset", *map(str, argv)],
            capture_output=True,
            text=True,
            env=cli_env,
        )
        assert proc.returncode == expect, proc.stderr
        return proc

    return run


_CRITERION = re.compile(r"test_criterion_(\d+)")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    # One pass/fail line per acceptance criterion, in criterion order.
    rows = []
    for status, word in (("passed", "PASS"), ("failed", "FAIL"), ("error", "FAIL")):
        for report in terminalreporter.stats.get(status, []):
            if "test_acceptance" not in report.nodeid:
                continue
            match = _CRITERION.search(report.nodeid)
            if match:
                rows.append((int(match.group(1)), report.nodeid.split("::")[-1], word))
    if rows:
        terminalreporter.write_sep("-", "acceptance criteria")
        for _, name, word in sorted(rows):
            terminalreporter.write_line(f"{word}  {name}")
