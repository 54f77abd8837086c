"""Tests of the benchmark's own code.

Run from the repository root: python -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import corpora  # noqa: E402
import run  # noqa: E402
from spans import Tracer  # noqa: E402


def _digests(directory: Path) -> dict:
    return {p.name: corpora.file_digest(p) for p in sorted(directory.iterdir())}


def test_same_seed_gives_same_input_digests(tmp_path):
    for name, seed in (("a", 5), ("b", 5), ("c", 6)):
        corpora.write_corpus(tmp_path / name, seed, per_class=4)
        corpora.write_predict_lines(tmp_path / name / "lines.txt", seed, n_lines=30,
                                    per_class=4)
    assert _digests(tmp_path / "a") == _digests(tmp_path / "b")
    changed = _digests(tmp_path / "c")
    assert all(changed[name] != digest for name, digest in _digests(tmp_path / "a").items())


def test_predict_lines_are_distinct(tmp_path):
    path = tmp_path / "lines.txt"
    assert corpora.write_predict_lines(path, 3, n_lines=200, per_class=4) == 200
    lines = path.read_text(encoding="utf-8").splitlines()
    assert len(set(lines)) == 200
    assert all(line.strip() for line in lines)


def test_self_time_of_nested_toy_call():
    ticks = iter([0, 10, 30, 40, 45, 100])
    tracer = Tracer(clock=lambda: next(ticks))
    inner = tracer.wrap("inner", lambda: None)

    def outer_body():
        inner()
        inner()

    tracer.wrap("outer", outer_body)()
    stats = tracer.summary()
    assert stats["outer"] == {"calls": 1, "self_ms": 75 / 1e6, "total_ms": 100 / 1e6}
    assert stats["inner"] == {"calls": 2, "self_ms": 25 / 1e6, "total_ms": 25 / 1e6}


def test_wrapping_reaches_every_namespace_and_is_undone():
    import sarcnet.features
    import sarcnet.text
    from sarcnet.features import FeaturePipeline

    original = sarcnet.text.tokenize
    targets = [("text.tokenize", "sarcnet.text", "tokenize", None),
               ("features.vector", "sarcnet.features", "FeaturePipeline.vector", None),
               ("gone.function", "sarcnet.text", "no_such_function", None)]
    tracer = Tracer()
    pipeline = FeaturePipeline()
    with tracer.installed(targets):
        assert sarcnet.features.tokenize is not original
        pipeline.vector("Wow!! What a GREAT wait...")
    assert sarcnet.features.tokenize is original and sarcnet.text.tokenize is original
    stats = tracer.summary()
    assert stats["text.tokenize"]["calls"] == 1
    assert stats["features.vector"]["calls"] == 1
    assert "gone.function" not in stats
    vector = stats["features.vector"]
    assert vector["self_ms"] == pytest.approx(
        vector["total_ms"] - stats["text.tokenize"]["total_ms"])


def _op(name="op", check=lambda stdout: []):
    return run.Op(name, ("noop",), check)


def _outcome(code=0, stdout=b"ok\n"):
    return run.Outcome(code, 0.1, 1.0, stdout, b"")


def test_host_scaled_divides_by_the_median_reference_wall():
    scaled = run.host_scaled([1.0, 3.0], [0.5, 2.0, 1.5, 9.0])
    assert scaled == pytest.approx([run.REFERENCE_S / 1.75, 3 * run.REFERENCE_S / 1.75])


def test_reference_task_prints_its_fixed_checksum():
    done = subprocess.run([sys.executable, str(run.REFERENCE)], capture_output=True,
                          timeout=60)
    assert (done.returncode, done.stdout) == (0, run.REFERENCE_STDOUT)


def test_nonzero_exit_counts_as_failure():
    ledger = run.Ledger()
    ledger.record(_op(), _outcome(code=0), {"stdout": "x"})
    ledger.record(_op(), _outcome(code=2), {"stdout": "x"})
    assert (ledger.attempted, ledger.failed) == (2, 1)


def test_corrupted_artifact_on_a_repeat_counts_as_failure(tmp_path):
    contents = iter([b"model-a", b"model-a", b"model-corrupt"])

    def execute(op):
        (tmp_path / "out" / "model.json").write_bytes(next(contents))
        return _outcome()

    ledger = run.Ledger()
    for _ in range(3):
        run.run_cycle([_op()], execute, tmp_path / "out", ledger)
    assert (ledger.attempted, ledger.failed) == (3, 1)


def test_failed_check_counts_as_failure():
    ledger = run.Ledger()
    ledger.record(_op(check=lambda stdout: checks.check_predict(stdout, 2)),
                  _outcome(stdout=b"sarcastic 0.9000\nmaybe\n"), {})
    assert ledger.failed == 1


def _manifest(path, stars, train, test):
    path.write_text(json.dumps({"stars": stars, "train_review_ids": train,
                                "test_review_ids": test}))


def test_manifest_checks(tmp_path):
    stars_by_id = {f"r{s}-{i}": s for s in range(1, 6) for i in range(5)}
    for s in range(1, 6):
        _manifest(tmp_path / f"split-{s}.json", s, [f"r{s}-0", f"r{s}-1", f"r{s}-2"],
                  [f"r{s}-3", f"r{s}-4"])
    assert checks.check_manifests(tmp_path, stars_by_id, 3, 2) == []
    _manifest(tmp_path / "split-2.json", 2, ["r2-0", "r2-1", "r2-3"], ["r2-3", "r2-4"])
    _manifest(tmp_path / "split-4.json", 4, ["r4-0", "r4-1", "r1-2"], ["r4-3", "r4-4"])
    (tmp_path / "split-5.json").write_text("{not json")
    problems = checks.check_manifests(tmp_path, stars_by_id, 3, 2)
    assert [p.split(":")[0] for p in problems] == ["split-2.json", "split-4.json",
                                                   "split-5.json"]


def test_score_checks(tmp_path):
    history = tmp_path / "history-1.jsonl"
    history.write_text('{"provenance": {}}\n{"train_accuracy": 0.5}\n')
    assert checks.check_histories(tmp_path)
    history.write_text('{"provenance": {}}\n{"train_accuracy": 1.0}\n')
    assert checks.check_histories(tmp_path) == []
    report = tmp_path / "report.json"
    report.write_text('{"macro": {"f1": 0.98}}')
    assert checks.check_report(report)
    report.write_text('{"macro": {"f1": 0.995}}')
    assert checks.check_report(report) == []


def test_benchmark_json_matches_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        run.per_layer_metrics()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert list(run.layer_values(Tracer(), 0.0)) == [m["name"] for m in spec["per_layer"]]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "paper-scale",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == b""
