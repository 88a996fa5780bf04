import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_demos_are_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo, cli_env):
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True, env=cli_env, timeout=300)
    assert proc.returncode == 0, proc.stderr
