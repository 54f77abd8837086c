"""The README's "Library use" example and the demos it lists run as written."""

import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((REPO_ROOT / "demos").glob("*.py"))

# sha256 of the stdout of the demos that print only catalog entries and
# feature counts or rates. The training demos print trained floats, whose
# last bits depend on the CPU's BLAS kernels, so their stdout is not pinned.
STDOUT_DIGESTS = {
    "01_feature_hits.py": "aa31ba9e5e58d940b3c5335fef5614e6a6e1f024f44277a68ecd1a3722e5f9ab",
    "02_feature_vectors.py": "7a62503eb70a4feee1fd6deb87d093541e890b5124650cc64b2ddabdd600179e",
}


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
    """Each demo exits 0 under -W error and writes nothing to stderr; the
    feature demos print exactly their pinned stdout."""
    result = run_python(str(demo))
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""
    if demo.name in STDOUT_DIGESTS:
        digest = hashlib.sha256(result.stdout.encode("utf-8")).hexdigest()
        assert digest == STDOUT_DIGESTS[demo.name], result.stdout


def test_minicorpus_regeneration_command_rebuilds_the_bundled_files(tmp_path):
    """README's `python3 -m sarcnet.minicorpus <dir>` writes the shipped bytes."""
    result = run_python("-m", "sarcnet.minicorpus", str(tmp_path))
    assert result.returncode == 0, result.stderr
    for name in ("reviews.jsonl", "labels.jsonl"):
        assert ((tmp_path / name).read_bytes()
                == (REPO_ROOT / "data" / "minicorpus" / name).read_bytes()), name
