"""The README's "Library use" example and the demos it lists run as written."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((REPO_ROOT / "demos").glob("*.py"))


def run_python(*args):
    """Run ``python -W error *args`` from the repo root with the package on its path."""
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
    return subprocess.run([sys.executable, "-W", "error", *args], cwd=REPO_ROOT, env=env,
                          capture_output=True, text=True, timeout=120)


def test_library_use_example_runs():
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    match = re.search(r"^## Library use\n\n```python\n(.*?)^```$", readme, re.M | re.S)
    assert match, "README has no fenced python block under '## Library use'"
    result = run_python("-c", match.group(1))
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("ClassMetrics(precision="), result.stdout


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.name for demo in DEMOS])
def test_demo_runs_without_warnings(demo):
    """Each demo exits 0 under -W error and writes nothing to stderr."""
    result = run_python(str(demo))
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""
