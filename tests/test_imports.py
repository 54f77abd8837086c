"""Each CLI command loads only the modules its own code path runs.

Every command runs in a fresh interpreter, started the way
``python -m sarcnet.cli`` starts it, and reports the modules it had
loaded when it exited. The package exports its public names lazily
(PEP 562); the last tests pin that table.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import sarcnet
import sarcnet.training

SRC = Path(sarcnet.__file__).resolve().parents[1]

# Runs sarcnet.cli as ``python -m`` does, then writes the names of the
# loaded modules to the file named by its first argument.
PROBE = """
import json, runpy, sys
out = sys.argv.pop(1)
try:
    runpy.run_module("sarcnet.cli", run_name="__main__", alter_sys=True)
finally:
    with open(out, "w") as fh:
        json.dump(sorted(sys.modules), fh)
"""

SPLIT = ["--stars", "2", "--train-size", "40", "--test-size", "10", "--seed", "4"]
FAST_TRAIN = [*SPLIT, "--stages", "main", "--epochs", "2", "--batch-size", "10"]

NUMPY = {"numpy"}
NUMPY_RANDOM = {"numpy.random"}
TRAINER = {"sarcnet.training"}
ALL_MODULES = {"numpy", "numpy.random", "sarcnet.features", "sarcnet.network",
               "sarcnet.training"}

# command -> (modules it must not load, modules it must load)
EXPECTED = {
    "help": (NUMPY | {"sarcnet.features", "sarcnet.network", "sarcnet.training"}, set()),
    "ingest": (NUMPY, set()),
    "label": (NUMPY, set()),
    "extract": (NUMPY_RANDOM | TRAINER | {"sarcnet.network"}, {"sarcnet.features"}),
    "train": (set(), ALL_MODULES),
    "eval": (NUMPY_RANDOM, {"sarcnet.training"}),
    "predict": (NUMPY_RANDOM | TRAINER, {"sarcnet.network", "sarcnet.features"}),
    "sweep": (set(), ALL_MODULES),
}


def python(args, cwd, stdin=""):
    """Run a fresh interpreter on args, with warnings as errors."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-W", "error", *args], input=stdin,
                          capture_output=True, text=True, cwd=cwd, timeout=300,
                          env=dict(os.environ, PYTHONPATH=path))


@pytest.fixture(scope="module")
def loaded(minicorpus_dir, tmp_path_factory):
    """command -> the set of modules loaded by one run of it, run in this order."""
    work = tmp_path_factory.mktemp("imports")
    shutil.copy(minicorpus_dir / "labels.jsonl", work / "labels.jsonl")
    corpus = ["--reviews", str(minicorpus_dir / "reviews.jsonl"), "--labels", "labels.jsonl"]
    commands = {
        "help": (["--help"], ""),
        "ingest": (["ingest", *corpus, "--train-size", "70", "--test-size", "30",
                    "--out", "split-{stars}.json"], ""),
        "label": (["label", *corpus, "--annotator", "probe"], "q\n"),
        "extract": (["extract", *corpus, "--out", "features.csv"], ""),
        "train": (["train", *corpus, *FAST_TRAIN, "--model", "model-{stars}.json",
                   "--out", "history-{stars}.jsonl"], ""),
        "eval": (["eval", *corpus, *SPLIT, "--model", "model-{stars}.json",
                  "--out", "report.json"], ""),
        "predict": (["predict", "--model", "model-2.json"], "Wow!! just great...\n"),
        "sweep": (["sweep", *corpus, *FAST_TRAIN, "--lr-grid", "0.01,0.1"], ""),
    }
    modules = {}
    for name, (argv, stdin) in commands.items():
        report = work / f"{name}.modules.json"
        done = python(["-c", PROBE, str(report), *argv], work, stdin)
        assert (done.returncode, done.stderr) == (0, ""), name
        modules[name] = set(json.loads(report.read_text()))
    return modules


@pytest.mark.parametrize("command", list(EXPECTED))
def test_command_loads_only_what_it_runs(loaded, command):
    absent, present = EXPECTED[command]
    assert not absent & loaded[command]
    assert present <= loaded[command]


def test_importing_the_package_loads_no_submodule(tmp_path):
    done = python(["-c", "import json, sys, sarcnet; "
                         "json.dump(sorted(m for m in sys.modules if 'sarcnet' in m "
                         "or m.startswith('numpy')), sys.stdout)"], tmp_path)
    assert done.returncode == 0
    assert json.loads(done.stdout) == ["sarcnet"]


def test_module_entry_point_runs_without_warnings(tmp_path):
    done = python(["-m", "sarcnet.cli", "--version"], tmp_path)
    assert (done.returncode, done.stdout, done.stderr) == (
        0, f"sarcnet {sarcnet.__version__}\n", "")


class TestLazyExports:
    def test_every_public_name_is_its_defining_modules_object(self):
        assert len(sarcnet.__all__) == len(set(sarcnet.__all__)) == 62
        for name in sarcnet.__all__:
            value = getattr(sarcnet, name)
            assert value.__module__.startswith("sarcnet.")
            assert getattr(sys.modules[value.__module__], name) is value
            assert name not in vars(sarcnet)  # resolved on access, never cached

    def test_dir_and_star_import_list_every_public_name(self):
        assert set(sarcnet.__all__) <= set(dir(sarcnet))
        namespace = {}
        exec("from sarcnet import *", namespace)
        assert set(sarcnet.__all__) <= set(namespace)

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="'sarcnet' has no attribute 'no_such_name'"):
            sarcnet.no_such_name

    def test_a_function_replaced_in_its_module_is_what_the_package_returns(self,
                                                                           monkeypatch):
        original = sarcnet.training.train

        def replacement(*args, **kwargs):
            raise AssertionError("not called")

        monkeypatch.setattr(sarcnet.training, "train", replacement)
        assert sarcnet.train is replacement
        monkeypatch.undo()
        assert sarcnet.train is original

    def test_derive_seed_is_shared_by_corpus_and_training(self):
        assert sarcnet.derive_seed is sarcnet.corpus.derive_seed
        assert sarcnet.training.derive_seed is sarcnet.corpus.derive_seed
