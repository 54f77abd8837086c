"""The README's "Library use" example runs as written."""

import os
import re
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]


def test_library_use_example_runs():
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    match = re.search(r"^## Library use\n\n```python\n(.*?)^```$", readme, re.M | re.S)
    assert match, "README has no fenced python block under '## Library use'"
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
    result = subprocess.run([sys.executable, "-W", "error", "-c", match.group(1)],
                            cwd=REPO_ROOT, env=env, capture_output=True, text=True,
                            timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("ClassMetrics(precision="), result.stdout
