"""CLI behavior: subcommands, exit codes, artifacts, determinism.

The tests drive ``sarcnet.cli.main`` in-process so coverage and
monkeypatching work. Only ten run the CLI in a fresh interpreter: those
that need a real stdin, a pipe, a redirected file, a named file read
beside those two, or a child reaped by the system, and those that run
with every warning, or dev mode's, made an error.
"""

import errno
import hashlib
import io
import json
import math
import os
import re
import select
import shutil
import signal
import subprocess
import sys
import time
from collections.abc import Iterator
from pathlib import Path

import pytest

import sarcnet.cli as cli
import sarcnet.corpus
import sarcnet.training
from sarcnet.corpus import Review, SarcasmLabel, append_labels, write_labels, write_reviews
from sarcnet.errors import DataError, TrainingDivergence
from sarcnet.lexicons import DEFAULT_LEXICON_DIR, ENV_LEXICON_DIR
from sarcnet.network import load_model


def run(*argv):
    return cli.main(list(argv))


def sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def cli_process(argv, python_flags=()) -> dict:
    """The arguments of a subprocess call that runs the CLI in a fresh interpreter."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {"args": [sys.executable, *python_flags, "-m", "sarcnet.cli", *argv],
            "env": dict(os.environ, PYTHONPATH=path)}


def run_process(argv, python_flags=(), **stdin):
    """The CLI in a fresh interpreter; stdin is run's input= or stdin= argument."""
    return subprocess.run(**cli_process(argv, python_flags), **stdin, capture_output=True)


FAST_TRAIN = [
    "--train-size", "40", "--test-size", "10",
    "--stages", "main", "--epochs", "3", "--batch-size", "10",
    "--seed", "42",
]


@pytest.fixture(scope="module")
def corpus(minicorpus_dir):
    return {
        "reviews": str(minicorpus_dir / "reviews.jsonl"),
        "labels": str(minicorpus_dir / "labels.jsonl"),
    }


@pytest.fixture(scope="module")
def trained(corpus, tmp_path_factory):
    """One 2-star model shared by the eval/predict tests."""
    out = tmp_path_factory.mktemp("trained")
    model = out / "model-2.json"
    history = out / "history-2.jsonl"
    code = run("train", "--reviews", corpus["reviews"], "--labels", corpus["labels"],
               "--stars", "2", *FAST_TRAIN,
               "--model", str(model), "--out", str(history))
    assert code == 0
    return {"model": model, "history": history, **corpus}


class TestParsingAndExitCodes:
    def test_version(self, capsys):
        assert run("--version") == 0
        assert "sarcnet" in capsys.readouterr().out

    def test_no_subcommand_is_usage_error(self):
        assert run() == 1

    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert run("bogus") == 1

    def test_missing_reviews_file_is_data_error(self, tmp_path, capsys):
        code = run("ingest", "--reviews", str(tmp_path / "nope.jsonl"),
                   "--labels", str(tmp_path / "nope2.jsonl"),
                   "--out", str(tmp_path / "split-{stars}.json"))
        assert code == 2
        assert "data error" in capsys.readouterr().err

    def test_bad_star_value(self, corpus, tmp_path, capsys):
        for stars, message in [("7", "1..5"), ("2,1,2", "star 2 is selected twice")]:
            for out in ("s.json", "s-{stars}.json"):
                code = run("ingest", "--reviews", corpus["reviews"],
                           "--labels", corpus["labels"], "--stars", stars,
                           "--out", str(tmp_path / out))
                assert code == 1
                assert message in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_hidden_width_out_of_range(self, corpus, tmp_path, capsys):
        code = run("train", "--reviews", corpus["reviews"],
                   "--labels", corpus["labels"], "--stars", "1",
                   "--hidden", "99", *FAST_TRAIN,
                   "--model", str(tmp_path / "m.json"),
                   "--out", str(tmp_path / "h.jsonl"))
        assert code == 1
        assert "7..15" in capsys.readouterr().err

    def test_three_hidden_layers_rejected(self, corpus, tmp_path, capsys):
        code = run("train", "--reviews", corpus["reviews"],
                   "--labels", corpus["labels"], "--stars", "1",
                   "--hidden", "9,9,9", *FAST_TRAIN,
                   "--model", str(tmp_path / "m.json"),
                   "--out", str(tmp_path / "h.jsonl"))
        assert code == 1

    def test_bad_stage_spec(self, corpus, tmp_path, capsys):
        code = run("train", "--reviews", corpus["reviews"],
                   "--labels", corpus["labels"], "--stars", "1",
                   "--stages", "warmup", "--train-size", "40",
                   "--test-size", "10",
                   "--model", str(tmp_path / "m.json"),
                   "--out", str(tmp_path / "h.jsonl"))
        assert code == 1
        assert "unknown stage" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, token", [
        (["sweep", "--lr", "0.1"], "--lr"),
        (["train", "--batch", "7"], "--batch"),
        (["train", "--stages", "sarcastic:2:9,main"], "'sarcastic:2:9'"),
        (["train", "--stages", "dominated:2:3:4,main"], "'dominated:2:3:4'"),
        (["train", "--stages", "main:7"], "'main:7'"),
        (["train", "--stages", "sarcastic_only:3,main"], "unknown stage 'sarcastic_only'"),
        (["train", "--hidden", "9,"], "got '9,'"),
        (["train", "--hidden", ",9"], "got ',9'"),
        (["sweep", "--lr-grid", ""], "got ''"),
        (["sweep", "--lr-grid", "1e-3,"], "got '1e-3,'"),
        (["train", "--stars", " 1"], "got ' 1'"),
        (["train", "--stars", "1,2 "], "got '2 '"),
        (["train", "--hidden", "9 "], "got '9 '"),
        (["sweep", "--lr-grid", " 1e-3"], "got ' 1e-3'"),
        (["train", "--stages", " main"], "unknown stage ' main'"),
        (["train", "--stages", "sarcastic:3,main "], "unknown stage 'main '"),
        (["train", "--stages", "sarcastic: 3,main"], "'sarcastic: 3'"),
        (["train", "--stages", "dominated:4:3\t,main"], "'dominated:4:3\\t'"),
        (["train", "--epochs", " 1"], "invalid int value: ' 1'"),
        (["train", "--seed", "+1"], "invalid int value: '+1'"),
        (["train", "--batch-size", "1_0"], "invalid int value: '1_0'"),
        (["train", "--train-size", "040"], "invalid int value: '040'"),
        (["train", "--test-size", "-0"], "invalid int value: '-0'"),
        (["sweep", "--seed", "１"], "invalid int value: '１'"),
        (["train", "--hidden", "1_0"], "got '1_0'"),
        (["train", "--hidden", "１０"], "got '１０'"),
        (["train", "--hidden", "9,+9"], "got '9,+9'"),
        (["train", "--stars", "١"], "got '١'"),
        (["train", "--stars", "01"], "got '01'"),
        (["train", "--stages", "sarcastic:+3,main"], "'sarcastic:+3'"),
        (["train", "--stages", "dominated:007,main"], "'dominated:007'"),
        (["train", "--keep-prob", " 0.5"], "invalid float value: ' 0.5'"),
        (["train", "--lr", "1_0e-3"], "invalid float value: '1_0e-3'"),
        (["train", "--lr", "１e-3"], "invalid float value: '１e-3'"),
        (["sweep", "--lr-grid", "1e-3,１e-2"], "got '1e-3,１e-2'"),
        (["train", "--stages", "dominated:10:3_0,main"], "'dominated:10:3_0'"),
        (["train", "--stages", "dominated:10:٣,main"], "'dominated:10:٣'"),
        (["sweep", "--lr-grid", "0.01,0.01"], "got 0.01 after 0.01"),
        (["sweep", "--lr-grid", "0.01,1e-2"], "got 0.01 after 0.01"),
        (["sweep", "--lr-grid", "1e-3,0.01,0.010"], "got 0.01 after 0.01"),
    ], ids=["sweep-lr", "flag-prefix", "sarcastic-extra", "dominated-extra", "main-extra",
            "stage-alias", "hidden-trailing-comma", "hidden-leading-comma", "lr-grid-empty",
            "lr-grid-trailing-comma", "stars-leading-space", "stars-trailing-space",
            "hidden-trailing-space", "lr-grid-leading-space", "stage-leading-space",
            "stage-trailing-space", "stage-size-space", "stage-ratio-tab",
            "epochs-leading-space", "seed-plus", "batch-size-underscore",
            "train-size-leading-zero", "test-size-minus-zero", "seed-fullwidth",
            "hidden-underscore", "hidden-fullwidth", "hidden-plus", "stars-arabic-indic",
            "stars-leading-zero", "stage-size-plus", "stage-size-leading-zero",
            "keep-prob-leading-space", "lr-underscore", "lr-fullwidth", "lr-grid-fullwidth",
            "stage-ratio-underscore", "stage-ratio-arabic-indic", "lr-grid-repeat",
            "lr-grid-repeat-respelled", "lr-grid-repeat-last"])
    def test_one_spelling_per_setting(self, corpus, tmp_path, monkeypatch, capsys, argv,
                                      token):
        """Flag prefixes, sweep's --lr, extra or aliased stage parts, empty list parts,
        whitespace around a part, and any number that is not spelled the one plain way
        (a sign other than '-', '_', leading zeros, '-0', non-ASCII digits) are refused,
        and so is a learning rate that --lr-grid names twice, however it is spelled.
        """
        def refuse(*args, **kwargs):
            raise AssertionError("training started")

        monkeypatch.setattr(sarcnet.training, "_train_stars", refuse)
        monkeypatch.setattr(sarcnet.training, "lr_sweep", refuse)
        monkeypatch.chdir(tmp_path)
        command, *flags = argv
        code = run(command, "--reviews", corpus["reviews"], "--labels", corpus["labels"],
                   "--stars", "1", *FAST_TRAIN, *flags, "--out", "out.txt")
        assert code == 1
        assert token in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_insufficient_pool_is_data_error(self, corpus, tmp_path, capsys):
        code = run("ingest", "--reviews", corpus["reviews"],
                   "--labels", corpus["labels"], "--stars", "3",
                   "--train-size", "700", "--test-size", "300",
                   "--out", str(tmp_path / "s.json"))
        assert code == 2
        err = capsys.readouterr().err
        assert "3-star split" in err and "need 1000, have 100" in err

    @pytest.mark.parametrize("flags, message", [
        (["--train-size", "-5"], "got train -5, test 10"),
        (["--stages", "sarcastic:-3,main"], "size must be at least 1, got -3"),
        (["--stages", "dominated:10:-1,main"], "ratio must be positive and finite, got -1.0"),
        (["--stages", "dominated:10:nan,main"], "ratio must be positive and finite, got nan"),
        (["--lr", "nan"], "lr must be positive and finite, got nan"),
    ])
    def test_bad_size_or_ratio_is_usage_error(self, corpus, tmp_path, capsys, flags,
                                              message):
        code = run("train", "--reviews", corpus["reviews"],
                   "--labels", corpus["labels"], "--stars", "1", *FAST_TRAIN, *flags,
                   "--model", str(tmp_path / "m.json"),
                   "--out", str(tmp_path / "h.jsonl"))
        assert code == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "m.json").exists()

    def test_lexicon_file_with_invalid_utf8_is_data_error(self, corpus, tmp_path,
                                                          monkeypatch, capsys):
        lexicons = tmp_path / "lexicons"
        shutil.copytree(DEFAULT_LEXICON_DIR, lexicons)
        with open(lexicons / "intensifiers.txt", "ab") as fh:
            fh.write(b"\xff\n")
        monkeypatch.setenv(ENV_LEXICON_DIR, str(lexicons))
        code = run("extract", "--reviews", corpus["reviews"],
                   "--out", str(tmp_path / "features.csv"))
        assert code == 2
        assert str(lexicons / "intensifiers.txt") in capsys.readouterr().err

    def test_missing_labels_file_is_data_error(self, corpus, tmp_path, capsys):
        code = run("ingest", "--reviews", corpus["reviews"],
                   "--labels", str(tmp_path / "nope.jsonl"),
                   "--out", str(tmp_path / "split-{stars}.json"))
        assert code == 2
        assert "cannot read labels file" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error")
    def test_overflowing_learning_rate_prints_one_line(self, corpus, tmp_path, capsys):
        code = run("train", "--reviews", corpus["reviews"],
                   "--labels", corpus["labels"], "--stars", "1", *FAST_TRAIN,
                   "--lr", "1e308",
                   "--model", str(tmp_path / "m.json"),
                   "--out", str(tmp_path / "h.jsonl"))
        assert code == 3
        assert capsys.readouterr().err == (
            "sarcnet: training failed: 1-star model: non-finite loss in stage 'main', "
            "epoch 1, batch 2\n")
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.filterwarnings("error")
    def test_non_finite_output_after_the_last_step_prints_one_line(self, corpus, tmp_path,
                                                                   capsys):
        code = run("train", "--reviews", corpus["reviews"],
                   "--labels", corpus["labels"], "--stars", "1",
                   "--train-size", "40", "--test-size", "10", "--stages", "main",
                   "--epochs", "1", "--batch-size", "40", "--lr", "1e300",
                   "--model", str(tmp_path / "m.json"),
                   "--out", str(tmp_path / "h.jsonl"))
        assert code == 3
        assert capsys.readouterr().err == (
            "sarcnet: training failed: 1-star model: non-finite output in stage 'main', "
            "epoch 1\n")
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.filterwarnings("error")
    def test_parameters_beyond_the_limit_print_one_line(self, corpus, tmp_path, capsys):
        """A step that leaves a parameter beyond what load_model accepts diverges."""
        code = run("train", "--reviews", corpus["reviews"],
                   "--labels", corpus["labels"], "--stars", "1",
                   "--train-size", "40", "--test-size", "10", "--stages", "main",
                   "--epochs", "1", "--batch-size", "10", "--lr", "1e101",
                   "--model", str(tmp_path / "m.json"),
                   "--out", str(tmp_path / "h.jsonl"))
        assert code == 3
        assert capsys.readouterr() == (
            "", "sarcnet: training failed: 1-star model: parameters beyond 1e+100 "
                "in stage 'main', epoch 1\n")
        assert list(tmp_path.iterdir()) == []

    def test_divergence_exits_three(self, corpus, tmp_path, monkeypatch, capsys):
        def explode(*args, **kwargs):
            raise TrainingDivergence("non-finite gradient in W1")

        monkeypatch.setattr(sarcnet.training, "_train_stars", explode)
        code = run("train", "--reviews", corpus["reviews"],
                   "--labels", corpus["labels"], "--stars", "1", *FAST_TRAIN,
                   "--model", str(tmp_path / "m.json"),
                   "--out", str(tmp_path / "h.jsonl"))
        assert code == 3
        assert "training failed" in capsys.readouterr().err


class TestHugeParameters:
    """A model with a finite parameter beyond PARAM_LIMIT, whose logits could
    overflow, is a data error for each command that loads a model."""

    @pytest.fixture
    def huge_model(self, trained, tmp_path):
        doc = json.loads(trained["model"].read_text())
        weights = doc["layers"][0]["weights"]
        weights[:] = [(1e308).hex()] * len(weights)
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        return path

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command", ["predict", "eval"])
    def test_is_a_data_error(self, trained, huge_model, tmp_path, monkeypatch, capsys,
                             command):
        monkeypatch.setattr(sys, "stdin", io.StringIO("Oh great, cold soup?!\n"))
        argv = {
            "predict": [],
            "eval": ["--reviews", trained["reviews"], "--labels", trained["labels"],
                     "--stars", "2", "--train-size", "40", "--test-size", "10",
                     "--seed", "42", "--out", str(tmp_path / "report.json")],
        }[command]
        assert run(command, "--model", str(huge_model), *argv) == 2
        assert capsys.readouterr() == (
            "", "sarcnet: data error: layer 1 contains non-finite parameters "
                "or ones beyond 1e+100\n")
        assert not (tmp_path / "report.json").exists()


class TestOutputTemplates:
    """A per-star path without {stars} on a multi-star run fails before any work."""

    @pytest.mark.parametrize("argv", [
        ["train", *FAST_TRAIN, "--model", "m.json"],
        ["train", *FAST_TRAIN, "--out", "h.jsonl"],
        ["ingest", "--out", "split.json"],
        ["eval", "--model", "m.json"],
    ])
    def test_usage_error_before_the_corpus_is_read(self, corpus, tmp_path, monkeypatch,
                                                   capsys, argv):
        def refuse(*args, **kwargs):
            raise AssertionError("work started before the output paths were checked")

        monkeypatch.setattr(cli, "read_reviews", refuse)
        monkeypatch.setattr(sarcnet.training, "_train_stars", refuse)
        monkeypatch.chdir(tmp_path)
        code = run(argv[0], "--reviews", corpus["reviews"], "--labels", corpus["labels"],
                   "--stars", "1,2", *argv[1:])
        assert code == 1
        assert "needs a {stars} placeholder" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())


class TestEmptyOutputPath:
    """An empty output path gets open("")'s error before any input is read."""

    @pytest.mark.parametrize("argv", [
        ["ingest", "--out", ""],
        ["extract", "--out", ""],
        ["train", *FAST_TRAIN, "--model", ""],
        ["train", *FAST_TRAIN, "--out", ""],
        ["eval", "--out", ""],
        ["sweep", *FAST_TRAIN, "--out", ""],
    ], ids=["ingest", "extract", "train-model", "train-out", "eval", "sweep"])
    def test_is_a_data_error_before_the_corpus_is_read(self, corpus, tmp_path, monkeypatch,
                                                       capsys, argv):
        def refuse(*args, **kwargs):
            raise AssertionError("the corpus was read before the output paths were checked")

        monkeypatch.setattr(cli, "read_reviews", refuse)
        monkeypatch.chdir(tmp_path)
        code = run(argv[0], "--reviews", corpus["reviews"], "--labels", corpus["labels"],
                   "--stars", "3", *argv[1:])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "sarcnet: data error: [Errno 2] No such file or directory: ''\n"
        assert list(tmp_path.iterdir()) == []


class TestOutputIsADirectory:
    """An output path that is an existing directory gets open()'s error before any write."""

    @pytest.mark.parametrize("argv, directory", [
        (["train", *FAST_TRAIN, "--stars", "1,2",
          "--model", "m-{stars}.json", "--out", "h-{stars}.jsonl"], "m-2.json"),
        (["ingest", "--stars", "2,3", "--train-size", "40", "--test-size", "10",
          "--out", "s-{stars}.json"], "s-3.json"),
    ], ids=["train", "ingest"])
    def test_is_a_data_error_that_writes_nothing(self, corpus, tmp_path, monkeypatch,
                                                 capsys, argv, directory):
        (tmp_path / directory).mkdir()
        (tmp_path / directory / "kept.txt").write_text("kept\n")
        (tmp_path / "s-2.json").write_text("an earlier manifest\n")

        def contents():
            return {path: path.is_dir() or path.read_bytes() for path in tmp_path.rglob("*")}

        before = contents()
        monkeypatch.chdir(tmp_path)
        code = run(argv[0], "--reviews", corpus["reviews"], "--labels", corpus["labels"],
                   *argv[1:])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"sarcnet: data error: [Errno 21] Is a directory: {directory!r}\n"
        assert contents() == before


class TestOutputUnderAFile:
    """An output whose nearest existing ancestor is a file is refused before any write."""

    @pytest.mark.parametrize("argv, blocker, path", [
        (["train", *FAST_TRAIN, "--stars", "1,2",
          "--model", "d-{stars}/m.json", "--out", "d-{stars}/h.jsonl"], "d-2", "d-2/m.json"),
        (["ingest", "--stars", "1,2", "--train-size", "40", "--test-size", "10",
          "--out", "f/x/s-{stars}.json"], "f", "f/x/s-1.json"),
    ], ids=["train", "ingest"])
    def test_is_a_data_error_that_writes_nothing(self, corpus, tmp_path, monkeypatch,
                                                 capsys, argv, blocker, path):
        (tmp_path / blocker).write_text("a file\n")
        monkeypatch.chdir(tmp_path)
        code = run(argv[0], "--reviews", corpus["reviews"], "--labels", corpus["labels"],
                   *argv[1:])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"sarcnet: data error: [Errno 20] Not a directory: {path!r}\n"
        assert [entry.name for entry in tmp_path.iterdir()] == [blocker]


class TestSharedPaths:
    """An output that names an input or another output is refused before any read."""

    CORPUS = ["--reviews", "reviews.jsonl", "--labels", "labels.jsonl", "--stars", "2"]
    SPLIT = ["--train-size", "40", "--test-size", "10", "--seed", "42"]

    @pytest.fixture
    def work(self, trained, tmp_path, monkeypatch):
        """A directory holding copies of the corpus, a hard link and the 2-star model."""
        for name in ("reviews", "labels"):
            shutil.copy(trained[name], tmp_path / f"{name}.jsonl")
        shutil.copy(trained["model"], tmp_path / "model-2.json")
        os.link(tmp_path / "labels.jsonl", tmp_path / "hard-link.jsonl")
        monkeypatch.chdir(tmp_path)
        return tmp_path

    @pytest.mark.parametrize("argv, message", [
        (["train", *FAST_TRAIN, "--model", "same.json", "--out", "same.json"],
         "--out 'same.json' names the same file as --model 'same.json'"),
        (["ingest", *SPLIT, "--out", "reviews.jsonl"],
         "--out 'reviews.jsonl' names the same file as --reviews 'reviews.jsonl'"),
        (["eval", *SPLIT, "--model", "model-{stars}.json", "--out", "labels.jsonl"],
         "--out 'labels.jsonl' names the same file as --labels 'labels.jsonl'"),
        (["eval", *SPLIT, "--model", "model-{stars}.json", "--out", "./model-{stars}.json"],
         "--out './model-2.json' names the same file as --model 'model-2.json'"),
        (["extract", "--out", "new/../reviews.jsonl"],
         "--out 'new/../reviews.jsonl' names the same file as --reviews 'reviews.jsonl'"),
        (["sweep", *FAST_TRAIN, "--out", "hard-link.jsonl"],
         "--out 'hard-link.jsonl' names the same file as --labels 'labels.jsonl'"),
    ])
    def test_is_a_usage_error_that_leaves_every_file_alone(self, work, capsys, argv,
                                                          message):
        before = {path: path.read_bytes() for path in work.iterdir()}
        assert run(argv[0], *self.CORPUS, *argv[1:]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"sarcnet: error: {message}\n"
        assert {path: path.read_bytes() for path in work.iterdir()} == before

    @pytest.mark.parametrize("labels", ["reviews.jsonl", "./reviews.jsonl",
                                        "reviews-link.jsonl"],
                             ids=["same-path", "dot-slash", "hard-link"])
    @pytest.mark.parametrize("argv", [
        ["ingest", *SPLIT],
        ["extract"],
        ["train", *FAST_TRAIN],
        ["eval", *SPLIT, "--model", "model-{stars}.json"],
        ["sweep", *FAST_TRAIN],
    ], ids=["ingest", "extract", "train", "eval", "sweep"])
    def test_labels_naming_the_reviews_file_is_refused_before_any_read(
            self, work, capsys, monkeypatch, argv, labels):
        """The reviews would be read as votes: one warning per review, then empty
        labels (extract) or empty pools (the others)."""
        def refuse(*args, **kwargs):
            raise AssertionError("a corpus file was read before --labels was checked")

        monkeypatch.setattr(sarcnet.corpus, "_runs", refuse)
        os.link(work / "reviews.jsonl", work / "reviews-link.jsonl")
        before = {path: path.read_bytes() for path in work.iterdir()}
        assert run(argv[0], "--reviews", "reviews.jsonl", "--labels", labels,
                   "--stars", "2", *argv[1:]) == 1
        assert capsys.readouterr() == ("", f"sarcnet: error: --labels {labels!r} names the "
                                           "same file as --reviews 'reviews.jsonl'\n")
        assert {path: path.read_bytes() for path in work.iterdir()} == before


class TestIngest:
    def test_invalid_utf8_vote_costs_one_vote(self, corpus, tmp_path, capsys):
        labels = tmp_path / "labels.jsonl"
        labels.write_bytes(b'{"review_id": "mc-1s-000", "\xc3(": 1}\n'
                           + Path(corpus["labels"]).read_bytes())
        code = run("ingest", "--reviews", corpus["reviews"], "--labels", str(labels),
                   "--stars", "1", "--train-size", "70", "--test-size", "30",
                   "--out", str(tmp_path / "split.json"))
        assert code == 0
        assert capsys.readouterr().err == f"warning: {labels}:1: invalid UTF-8\n"

    def test_writes_one_manifest_per_star(self, corpus, tmp_path, capsys):
        out = tmp_path / "split-{stars}.json"
        code = run("ingest", "--reviews", corpus["reviews"],
                   "--labels", corpus["labels"], "--stars", "all",
                   "--train-size", "70", "--test-size", "30", "--seed", "5",
                   "--out", str(out))
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 5
        for stars in range(1, 6):
            doc = json.loads((tmp_path / f"split-{stars}.json").read_text())
            assert doc["stars"] == stars
            assert doc["train_n"] == 70 and doc["test_n"] == 30
            assert len(doc["train_review_ids"]) == 70
            assert len(doc["test_review_ids"]) == 30
            assert doc["provenance"]["tool"] == "sarcnet"
            assert "lexicon_digest" in doc["provenance"]

    def test_multi_star_without_placeholder_is_usage_error(self, corpus, tmp_path,
                                                           capsys):
        code = run("ingest", "--reviews", corpus["reviews"],
                   "--labels", corpus["labels"], "--stars", "all",
                   "--train-size", "70", "--test-size", "30",
                   "--out", str(tmp_path / "split.json"))
        assert code == 1
        assert "{stars}" in capsys.readouterr().err

    def test_rerun_is_byte_identical_and_leaves_inputs_alone(self, corpus, tmp_path,
                                                             capsys):
        reviews_sha = sha(Path(corpus["reviews"]))
        out_a = tmp_path / "a" / "split-{stars}.json"
        out_b = tmp_path / "b" / "split-{stars}.json"
        args = ["ingest", "--reviews", corpus["reviews"], "--labels",
                corpus["labels"], "--stars", "2", "--train-size", "70",
                "--test-size", "30", "--seed", "7"]
        assert run(*args, "--out", str(out_a)) == 0
        assert run(*args, "--out", str(out_b)) == 0
        assert sha(tmp_path / "a" / "split-2.json") == \
               sha(tmp_path / "b" / "split-2.json")
        after = sha(Path(corpus["reviews"]))
        assert reviews_sha == after

    def test_each_star_pool_is_every_labeled_review_of_that_star(self, corpus, tmp_path,
                                                                 capsys):
        """100 labeled reviews per star, cut 70/30: each manifest names all of its star."""
        assert run("ingest", "--reviews", corpus["reviews"], "--labels", corpus["labels"],
                   "--stars", "all", "--train-size", "70", "--test-size", "30",
                   "--out", str(tmp_path / "split-{stars}.json")) == 0
        reviews, _ = sarcnet.corpus.read_reviews(corpus["reviews"])
        with sarcnet.corpus.open_jsonl(corpus["labels"]) as lines:
            labeled = sarcnet.corpus.label_reviews(reviews,
                                                   sarcnet.corpus.iter_labels(lines, []))
        for stars in range(1, 6):
            doc = json.loads((tmp_path / f"split-{stars}.json").read_text())
            named = doc["train_review_ids"] + doc["test_review_ids"]
            assert sorted(named) == sorted(lr.review.review_id for lr in labeled
                                           if lr.review.stars == stars)

    def write_tiny_corpus(self, tmp_path):
        """Reviews a, b (1 star), c (5 stars) and d (3 stars, no votes)."""
        reviews = tmp_path / "reviews.jsonl"
        labels = tmp_path / "labels.jsonl"
        write_reviews(reviews, [Review("a", 1, "x"), Review("b", 1, "y"),
                                Review("c", 5, "z"), Review("d", 3, "w")])
        write_labels(labels, [SarcasmLabel("ann", rid, True) for rid in ("a", "b", "c")])
        return ["--reviews", str(reviews), "--labels", str(labels)]

    def test_hand_counted_star_pools(self, tmp_path, capsys):
        files = self.write_tiny_corpus(tmp_path)
        for stars, sizes, ids in (("1", ("1", "1"), ["a", "b"]), ("5", ("1", "0"), ["c"])):
            out = tmp_path / f"split-{stars}.json"
            assert run("ingest", *files, "--stars", stars, "--train-size", sizes[0],
                       "--test-size", sizes[1], "--out", str(out)) == 0
            doc = json.loads(out.read_text())
            assert sorted(doc["train_review_ids"] + doc["test_review_ids"]) == ids

    @pytest.mark.parametrize("stars", ["2", "3"], ids=["no-reviews", "no-votes"])
    def test_empty_star_pool_is_data_error(self, tmp_path, capsys, stars):
        files = self.write_tiny_corpus(tmp_path)
        assert run("ingest", *files, "--stars", stars, "--train-size", "1",
                   "--test-size", "0", "--out", str(tmp_path / "split.json")) == 2
        assert f"{stars}-star split: need 1, have 0" in capsys.readouterr().err
        assert not (tmp_path / "split.json").exists()

    def test_manifest_names_the_split_train_fits(self, corpus, tmp_path, monkeypatch,
                                                 capsys):
        """A manifest audits a model: same seed and sizes, same reviews on each side."""
        split_args = ["--reviews", corpus["reviews"], "--labels", corpus["labels"],
                      "--stars", "2", "--train-size", "40", "--test-size", "10",
                      "--seed", "42"]
        assert run("ingest", *split_args, "--out", str(tmp_path / "split.json")) == 0
        fitted = []
        real_train_stars = sarcnet.training._train_stars

        def recording_train_stars(splits, *args, **kwargs):
            fitted.extend(splits.values())
            return real_train_stars(splits, *args, **kwargs)

        monkeypatch.setattr(sarcnet.training, "_train_stars", recording_train_stars)
        assert run("train", *split_args, "--stages", "main", "--epochs", "1",
                   "--batch-size", "10", "--model", str(tmp_path / "model.json"),
                   "--out", str(tmp_path / "history.jsonl")) == 0
        (split,) = fitted
        doc = json.loads((tmp_path / "split.json").read_text())
        assert doc["seed"] == split.seed
        assert doc["train_review_ids"] == [lr.review.review_id for lr in split.train]
        assert doc["test_review_ids"] == [lr.review.review_id for lr in split.test]


class TestLabelStream:
    """Every command streams the votes from the labels file into the tally."""

    def commands(self, corpus, out):
        return [
            ["ingest", "--reviews", corpus["reviews"], "--labels", corpus["labels"],
             "--stars", "all", "--train-size", "70", "--test-size", "30", "--seed", "3",
             "--out", str(out / "split-{stars}.json")],
            ["extract", "--reviews", corpus["reviews"], "--labels", corpus["labels"],
             "--out", str(out / "features.csv")],
        ]

    @pytest.mark.parametrize("fork_min_bytes", [0, None], ids=["child", "small-file"])
    def test_no_vote_list_is_built(self, corpus, tmp_path, monkeypatch, capsys,
                                   fork_min_bytes):
        """The tally takes the votes as an iterator, never a list, in the child if any.

        A labels file under cli._FORK_MIN_BYTES, as the mini-corpus's is,
        is tallied in the command's own process; with the bound at 0 every
        file goes to a forked child. Each call is recorded in a file, with
        the pid of the process that made it.
        """
        if fork_min_bytes is not None:
            monkeypatch.setattr(cli, "_FORK_MIN_BYTES", fork_min_bytes)
        received = tmp_path / "tallies.txt"
        tally = cli.resolve_labels

        def record(votes):
            with open(received, "a", encoding="utf-8") as fh:
                fh.write(f"{os.getpid()} {type(votes).__name__} "
                         f"{isinstance(votes, Iterator)}\n")
            return tally(votes)

        monkeypatch.setattr(cli, "resolve_labels", record)
        for argv in self.commands(corpus, tmp_path):
            assert run(*argv) == 0
        calls = [line.split() for line in received.read_text(encoding="utf-8").splitlines()]
        assert len(calls) == 2  # ingest's, then extract's
        for pid, votes, is_iterator in calls:
            assert (int(pid) == os.getpid()) is (fork_min_bytes is None), pid
            assert is_iterator == "True", votes

    def test_label_warnings_follow_review_warnings_in_line_order(self, corpus, tmp_path,
                                                                   capsys):
        reviews = tmp_path / "reviews.jsonl"
        labels = tmp_path / "labels.jsonl"
        review_lines = Path(corpus["reviews"]).read_text(encoding="utf-8").splitlines()
        label_lines = Path(corpus["labels"]).read_text(encoding="utf-8").splitlines()
        reviews.write_text("\n".join(["{", *review_lines, "[]"]) + "\n", encoding="utf-8")
        labels.write_text("\n".join([
            label_lines[0], '{"review_id": "x"}', *label_lines[1:],
            '{"review_id": "x", "sarcastic": 1, "annotator": "a"}']) + "\n",
            encoding="utf-8")
        code = run("ingest", "--reviews", str(reviews), "--labels", str(labels),
                   "--stars", "1", "--train-size", "70", "--test-size", "30",
                   "--out", str(tmp_path / "split.json"))
        assert code == 0
        last = len(label_lines) + 2
        assert capsys.readouterr().err.splitlines() == [
            f"warning: {reviews}:1: invalid JSON: Expecting property name enclosed "
            "in double quotes",
            f"warning: {reviews}:{len(review_lines) + 2}: record is not an object",
            f"warning: {labels}:2: missing field: sarcastic, annotator",
            f"warning: {labels}:{last}: sarcastic must be a boolean",
        ]

    def test_label_skips_reviews_this_annotator_voted_on(self, tmp_path, capsys,
                                                         monkeypatch):
        reviews = tmp_path / "reviews.jsonl"
        labels = tmp_path / "labels.jsonl"
        TestLabel().write_reviews(reviews)
        labels.write_text("".join(json.dumps(vote) + "\n" for vote in [
            {"review_id": "a", "sarcastic": True, "annotator": "erin"},
            {"review_id": "b", "sarcastic": True, "annotator": "frank"},
        ]) + "{\n")
        monkeypatch.setattr("builtins.input", lambda prompt: "q")
        code = run("label", "--reviews", str(reviews), "--labels", str(labels),
                   "--annotator", "erin")
        assert code == 0
        captured = capsys.readouterr()
        assert "2 reviews awaiting a vote from erin" in captured.out
        assert captured.err == (f"warning: {labels}:3: invalid JSON: Expecting property "
                                "name enclosed in double quotes\n")


class TestLabelsChild:
    """The labels file is tallied in a forked child, and no exit path leaves it behind.

    Each case gives the exit code and stderr the command gave when it read
    the labels file in its own process. The mini-corpus's labels file is
    under cli._FORK_MIN_BYTES, so the tests set that bound to 0, and the
    ones that run a fresh process build a larger file.
    """

    @pytest.fixture(autouse=True)
    def fork_every_file(self, monkeypatch):
        self.fork_min_bytes = cli._FORK_MIN_BYTES
        monkeypatch.setattr(cli, "_FORK_MIN_BYTES", 0)

    @staticmethod
    def assert_no_child():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @staticmethod
    def argv(command, reviews, labels, out):
        sizes = ["--train-size", "70", "--test-size", "30"] if command == "ingest" else []
        return [command, "--reviews", str(reviews), "--labels", str(labels), *sizes,
                "--out", str(out / ("split-{stars}.json" if command == "ingest"
                                    else "features.csv"))]

    @pytest.mark.parametrize("command", ["ingest", "extract"])
    @pytest.mark.parametrize("case", ["success", "missing-reviews", "empty-reviews",
                                      "missing-labels", "labels-directory", "tally-raises"])
    def test_every_exit_path_waits_for_the_child(self, corpus, tmp_path, monkeypatch,
                                                 capsys, command, case):
        reviews, labels = corpus["reviews"], corpus["labels"]
        out = tmp_path / "out"
        err = ""
        if case == "missing-reviews":
            reviews = tmp_path / "none.jsonl"
            err = ("cannot read reviews file: [Errno 2] No such file or directory: "
                   f"{str(reviews)!r}")
        elif case == "empty-reviews":
            reviews = tmp_path / "empty.jsonl"
            reviews.write_text("")
            err = f"no valid reviews in {reviews}"
        elif case == "missing-labels":
            labels = tmp_path / "none.jsonl"
            err = ("cannot read labels file: [Errno 2] No such file or directory: "
                   f"{str(labels)!r}")
        elif case == "labels-directory":
            labels = tmp_path / "labels"
            labels.mkdir()
            err = f"cannot read labels file: [Errno 21] Is a directory: {str(labels)!r}"
        elif case == "tally-raises":
            def fail(tally, votes):
                raise DataError("the tally failed")

            monkeypatch.setattr(sarcnet.corpus, "_tally", fail)
            err = "the tally failed"
        code = run(*self.argv(command, reviews, labels, out))
        assert (code, capsys.readouterr().err) == ((2, f"sarcnet: data error: {err}\n")
                                                   if err else (0, ""))
        self.assert_no_child()

    def test_a_child_gone_before_the_ids_are_sent(self, corpus, tmp_path, monkeypatch,
                                                  capsys):
        """The ids meet a closed pipe; this process reads the file, and meets its error."""
        labels = tmp_path / "labels"
        labels.mkdir()
        load_reviews = cli._load_reviews

        def after_the_child_ended(*args):
            deadline = time.monotonic() + 60
            while os.waitid(os.P_ALL, 0, os.WEXITED | os.WNOHANG | os.WNOWAIT) is None:
                assert time.monotonic() < deadline, "the child did not end"
                time.sleep(0.001)
            return load_reviews(*args)

        monkeypatch.setattr(cli, "_load_reviews", after_the_child_ended)
        code = run(*self.argv("ingest", corpus["reviews"], labels, tmp_path / "out"))
        assert (code, capsys.readouterr().err) == (
            2, f"sarcnet: data error: cannot read labels file: [Errno 21] Is a directory: "
               f"{str(labels)!r}\n")
        self.assert_no_child()

    def test_a_split_shortage_waits_for_the_child(self, corpus, tmp_path, capsys):
        code = run("ingest", "--reviews", corpus["reviews"], "--labels", corpus["labels"],
                   "--stars", "2", "--train-size", "700", "--out", str(tmp_path / "s.json"))
        assert (code, capsys.readouterr().err) == (
            2, "sarcnet: data error: 2-star split: need 1000, have 100\n")
        self.assert_no_child()

    @pytest.fixture
    def noisy_labels(self, corpus, tmp_path):
        """The mini-corpus votes with an invalid line near each end."""
        lines = Path(corpus["labels"]).read_text(encoding="utf-8").splitlines(keepends=True)
        path = tmp_path / "labels.jsonl"
        path.write_text("".join(["{\n", *lines, '{"review_id": "x"}\n']), encoding="utf-8")
        return path

    def outcome(self, corpus, labels, out, capsys):
        """{command: (code, stdout, stderr)} and the bytes of every file written to out."""
        results = {}
        for command in ("ingest", "extract"):
            results[command] = (run(*self.argv(command, corpus["reviews"], labels, out)),
                                *capsys.readouterr())
            self.assert_no_child()
        written = {path.name: path.read_bytes() for path in sorted(out.iterdir())}
        return results, written

    @pytest.mark.parametrize("how", ["no-fork", "fork-fails", "child-killed",
                                     "child-raises"])
    def test_reading_in_this_process_gives_the_same_bytes(self, corpus, noisy_labels,
                                                          tmp_path, monkeypatch, capsys,
                                                          how):
        """Without fork, or a child that ends without a reply, the parent reads the file."""
        forked = self.outcome(corpus, noisy_labels, tmp_path / "forked", capsys)
        parent = os.getpid()
        tally = sarcnet.corpus._tally

        def in_child_only(act):
            def patched(*args):
                if os.getpid() != parent:
                    act()
                return tally(*args)
            return patched

        if how == "no-fork":
            monkeypatch.delattr(os, "fork")
        elif how == "fork-fails":
            def no_fork():
                raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))

            monkeypatch.setattr(os, "fork", no_fork)
        elif how == "child-killed":
            monkeypatch.setattr(sarcnet.corpus, "_tally", in_child_only(
                lambda: os.kill(os.getpid(), signal.SIGKILL)))
        else:
            def fail():
                raise RuntimeError("only the child fails")

            monkeypatch.setattr(sarcnet.corpus, "_tally", in_child_only(fail))
        here = self.outcome(corpus, noisy_labels, tmp_path / "here", capsys)
        assert forked[0]["ingest"][2].count("warning: ") == 2
        assert here[0] == {command: (code, stdout.replace("/forked/", "/here/"), err)
                           for command, (code, stdout, err) in forked[0].items()}
        assert here[1] == forked[1]

    @pytest.fixture
    def large_labels(self, corpus, tmp_path):
        """The mini-corpus's votes over and over, which resolve as once, in a
        file large enough to fork a child in a fresh process."""
        votes = Path(corpus["labels"]).read_bytes()
        path = tmp_path / "large-labels.jsonl"
        path.write_bytes(votes * -(-self.fork_min_bytes // len(votes)))
        return str(path)

    def test_a_child_reaped_by_the_system_is_no_error(self, corpus, large_labels,
                                                      tmp_path):
        """Under an ignored SIGCHLD the system reaps the child, and waiting for it fails."""
        argv = self.argv("ingest", corpus["reviews"], large_labels, tmp_path)
        script = ("import signal, sys; signal.signal(signal.SIGCHLD, signal.SIG_IGN); "
                  "from sarcnet.cli import main; sys.exit(main(sys.argv[1:]))")
        done = subprocess.run([sys.executable, "-c", script, *argv],
                              env=cli_process(argv)["env"], capture_output=True)
        assert (done.returncode, done.stderr) == (0, b"")
        assert len(list(tmp_path.glob("split-*.json"))) == 5

    def test_commands_under_dev_mode_write_nothing_to_stderr(self, corpus, large_labels,
                                                             tmp_path):
        """Every warning is an error, in the child as in the parent, and none is raised."""
        files = ["--reviews", corpus["reviews"], "--labels", large_labels]
        for argv in (["ingest", *files, "--train-size", "70", "--test-size", "30",
                      "--out", str(tmp_path / "split-{stars}.json")],
                     ["train", *files, "--stars", "3", *FAST_TRAIN,
                      "--model", str(tmp_path / "model.json"),
                      "--out", str(tmp_path / "history.jsonl")],
                     ["extract", *files, "--out", str(tmp_path / "features.csv")]):
            done = run_process(argv, python_flags=("-X", "dev", "-W", "error"))
            assert (done.returncode, done.stderr) == (0, b""), argv


class TestCorpusDigests:
    """Each corpus file is opened and read once, and its digest is of the bytes parsed.

    A file appended to between the parse and the end of the command, as a
    concurrent label session appends votes, is named as it was parsed.
    """

    @pytest.fixture
    def files(self, corpus, tmp_path):
        """Copies of the mini-corpus files, which the tests append to."""
        files = {name: tmp_path / f"{name}.jsonl" for name in ("reviews", "labels")}
        for name, path in files.items():
            shutil.copy(corpus[name], path)
        return files

    def ingest(self, files, tmp_path) -> dict:
        """The corpus digests that ingest records in its manifest."""
        out = tmp_path / "split.json"
        assert run("ingest", "--reviews", str(files["reviews"]), "--labels",
                   str(files["labels"]), "--stars", "1", "--train-size", "70",
                   "--test-size", "30", "--out", str(out)) == 0
        return json.loads(out.read_text())["provenance"]["corpus_digests"]

    @pytest.mark.parametrize("fork_min_bytes", [0, None], ids=["child", "in-process"])
    def test_a_vote_appended_after_the_tally(self, files, tmp_path, monkeypatch, capsys,
                                             fork_min_bytes):
        if fork_min_bytes is not None:
            monkeypatch.setattr(cli, "_FORK_MIN_BYTES", fork_min_bytes)
        parsed = {name: sha(path) for name, path in files.items()}
        tally = sarcnet.corpus._tally

        def then_append(*args):
            resolved = tally(*args)
            append_labels(files["labels"], [SarcasmLabel("late", "mc-1s-000", False)])
            return resolved

        monkeypatch.setattr(sarcnet.corpus, "_tally", then_append)
        assert self.ingest(files, tmp_path) == parsed
        assert sha(files["labels"]) != parsed["labels"]

    def test_a_review_appended_after_the_parse(self, files, tmp_path, monkeypatch, capsys):
        parsed = {name: sha(path) for name, path in files.items()}
        load_reviews = cli._load_reviews

        def then_append(*args):
            reviews = load_reviews(*args)
            with open(files["reviews"], "a", encoding="utf-8") as fh:
                fh.write(json.dumps({"review_id": "late", "stars": 1, "text": "ok"}) + "\n")
            return reviews

        monkeypatch.setattr(cli, "_load_reviews", then_append)
        assert self.ingest(files, tmp_path) == parsed
        assert sha(files["reviews"]) != parsed["reviews"]

    @pytest.fixture
    def opens(self, tmp_path):
        """The path of a file that each open of a file, in this process or a child,
        appends "<pid> <path>" to while the test runs."""
        log = tmp_path / "opens.txt"
        _OPEN_LOG[:] = [str(log)]
        if not _OPEN_LOG_HOOKED:
            sys.addaudithook(_log_open)
            _OPEN_LOG_HOOKED.append(True)
        yield log
        _OPEN_LOG.clear()

    @pytest.mark.parametrize("fork_min_bytes", [0, None], ids=["child", "in-process"])
    @pytest.mark.parametrize("command", ["ingest", "extract"])
    def test_each_corpus_file_is_opened_once(self, files, tmp_path, monkeypatch, capsys,
                                             opens, command, fork_min_bytes):
        if fork_min_bytes is not None:
            monkeypatch.setattr(cli, "_FORK_MIN_BYTES", fork_min_bytes)
        out = tmp_path / "out"
        assert run(*TestLabelsChild.argv(command, files["reviews"], files["labels"], out)) == 0
        corpus_paths = {str(path.resolve()): name for name, path in files.items()}
        opened = [(int(pid), corpus_paths[os.path.realpath(path)])
                  for pid, path in (line.split(" ", 1) for line in
                                    opens.read_text(encoding="utf-8").splitlines())
                  if os.path.realpath(path) in corpus_paths]
        assert sorted(name for _, name in opened) == ["labels", "reviews"]
        # The labels file is read in a child exactly when one is forked.
        assert {name: pid == os.getpid() for pid, name in opened} == {
            "reviews": True, "labels": fork_min_bytes is None}


# The log file of _log_open while a test records the files opened, and whether
# the hook is installed: an audit hook stays for the life of the process.
_OPEN_LOG = []
_OPEN_LOG_HOOKED = []


def _log_open(event, args):
    """Append "<pid> <path>" to the log for each file opened by path, bar the log itself."""
    if event == "open" and _OPEN_LOG and isinstance(args[0], (str, bytes, os.PathLike)):
        path = os.fsdecode(args[0])
        if path != _OPEN_LOG[0]:
            fd = os.open(_OPEN_LOG[0], os.O_WRONLY | os.O_APPEND | os.O_CREAT)
            try:
                os.write(fd, f"{os.getpid()} {path}\n".encode("utf-8", "surrogateescape"))
            finally:
                os.close(fd)


class TestExtract:
    def test_row_counts_and_rerun_identity(self, corpus, tmp_path, capsys):
        out_a = tmp_path / "features-a.csv"
        out_b = tmp_path / "features-b.csv"
        base = ["extract", "--reviews", corpus["reviews"],
                "--labels", corpus["labels"], "--stars", "all"]
        assert run(*base, "--out", str(out_a)) == 0
        assert run(*base, "--out", str(out_b)) == 0
        assert sha(out_a) == sha(out_b)
        text = out_a.read_text()
        assert text.startswith("# tool: sarcnet")
        data_rows = [l for l in text.splitlines()
                     if l and not l.startswith("#")][1:]
        assert len(data_rows) == 500

    def test_stanza_has_no_seed(self, corpus, tmp_path, capsys):
        out = tmp_path / "features.csv"
        assert run("extract", "--reviews", corpus["reviews"], "--seed", "1",
                   "--out", str(out)) == 1
        assert run("extract", "--reviews", corpus["reviews"], "--out", str(out)) == 0
        stanza = [l.split(":")[0] for l in out.read_text().splitlines() if l.startswith("#")]
        assert stanza == ["# tool", "# config_digest", "# lexicon_digest", "# reviews_digest"]

    def test_piped_reviews_are_refused(self, corpus, tmp_path):
        # A rerun could not read the pipe's bytes again, so the feature dump
        # could not be reproduced from the inputs it names.
        out = tmp_path / "features.csv"
        done = run_process(["extract", "--reviews", "/dev/stdin", "--stars", "1",
                            "--out", str(out)], input=Path(corpus["reviews"]).read_bytes())
        assert done.returncode == 2
        assert done.stderr == (b"sarcnet: data error: /dev/stdin is not a regular file: "
                               b"a rerun cannot read its bytes again\n")
        assert not out.exists()

    @pytest.mark.parametrize("command, flag", [("extract", "--reviews"),
                                               ("ingest", "--labels")])
    def test_a_pipe_is_refused_before_it_is_read(self, corpus, tmp_path, command, flag):
        """The refusal is all of stderr: the pipe's bad first line gets no warning."""
        name = flag.removeprefix("--")
        files = {"--reviews": corpus["reviews"], "--labels": corpus["labels"],
                 flag: "/dev/stdin"}
        out = tmp_path / "out-{stars}"
        done = run_process([command, *(part for item in files.items() for part in item),
                            "--stars", "1", "--out", str(out)],
                           input=b"{\n" + Path(corpus[name]).read_bytes())
        assert (done.returncode, done.stdout) == (2, b"")
        assert done.stderr == (b"sarcnet: data error: /dev/stdin is not a regular file: "
                               b"a rerun cannot read its bytes again\n")
        assert list(tmp_path.iterdir()) == []

    def test_redirected_reviews_record_their_digest(self, corpus, tmp_path):
        out = tmp_path / "features.csv"
        with open(corpus["reviews"], "rb") as fh:
            done = run_process(["extract", "--reviews", "/dev/stdin", "--stars", "1",
                                "--out", str(out)], stdin=fh)
        assert done.returncode == 0
        digest = sha(Path(corpus["reviews"]))
        assert f"# reviews_digest: {digest}" in out.read_text().splitlines()

    def test_empty_labels_path_is_data_error(self, corpus, tmp_path, capsys):
        # As in every other command: "" names no file, not "no labels".
        out = tmp_path / "features.csv"
        assert run("extract", "--reviews", corpus["reviews"], "--labels", "",
                   "--out", str(out)) == 2
        assert "cannot read labels file" in capsys.readouterr().err
        assert not out.exists()

    def test_star_subset(self, corpus, tmp_path, capsys):
        out = tmp_path / "features-2.csv"
        assert run("extract", "--reviews", corpus["reviews"], "--stars", "2",
                   "--out", str(out)) == 0
        rows = [l for l in out.read_text().splitlines()
                if l and not l.startswith("#")][1:]
        assert len(rows) == 100
        # without --labels the label column is blank
        assert rows[0].split(",")[2] == ""

    def test_invalid_utf8_review_costs_one_row(self, corpus, tmp_path, capsys):
        reviews = tmp_path / "reviews.jsonl"
        with open(corpus["reviews"], "rb") as fh:
            head = b"".join(fh.readline() for _ in range(20))
        reviews.write_bytes(head + b'{"review_id": "x", "stars": 1, "text": "caf\xff"}\n')
        out = tmp_path / "features.csv"
        code = run("extract", "--reviews", str(reviews), "--stars", "all",
                   "--out", str(out))
        assert code == 0
        assert capsys.readouterr().err == f"warning: {reviews}:21: invalid UTF-8\n"
        rows = [l for l in out.read_text().splitlines() if l and not l.startswith("#")][1:]
        assert len(rows) == 20

    def test_lone_surrogate_review_costs_one_row(self, corpus, tmp_path, capsys):
        reviews = tmp_path / "reviews.jsonl"
        with open(corpus["reviews"], "rb") as fh:
            head = b"".join(fh.readline() for _ in range(20))
        reviews.write_bytes(head + rb'{"review_id": "a\udcff", "stars": 1, "text": "ok"}'
                            + b"\n")
        out = tmp_path / "features.csv"
        code = run("extract", "--reviews", str(reviews), "--stars", "all",
                   "--out", str(out))
        assert code == 0
        assert capsys.readouterr().err == \
            f"warning: {reviews}:21: review_id holds a lone surrogate\n"
        rows = [l for l in out.read_text().splitlines() if l and not l.startswith("#")][1:]
        assert len(rows) == 20


class TestTrain:
    def test_artifacts_and_stdout(self, trained, capsys):
        model = load_model(trained["model"])
        assert model.config.hidden == (15, 15)
        lines = trained["history"].read_text().splitlines()
        first = json.loads(lines[0])
        assert first["provenance"]["seed"] == 42
        records = [json.loads(line) for line in lines[1:]]
        assert len(records) == 3  # one stage, three epochs
        assert {r["stage"] for r in records} == {"main"}

    def test_model_embeds_provenance(self, trained):
        doc = json.loads(trained["model"].read_text())
        assert doc["provenance"]["tool"] == "sarcnet"
        assert "corpus_digests" in doc["provenance"]

    def test_two_stars_two_models(self, corpus, tmp_path, capsys):
        code = run("train", "--reviews", corpus["reviews"],
                   "--labels", corpus["labels"], "--stars", "2,4", *FAST_TRAIN,
                   "--model", str(tmp_path / "model-{stars}.json"),
                   "--out", str(tmp_path / "history-{stars}.jsonl"))
        assert code == 0
        assert (tmp_path / "model-2.json").exists()
        assert (tmp_path / "model-4.json").exists()
        assert not (tmp_path / "model-3.json").exists()

    def test_rerun_is_byte_identical(self, corpus, trained, tmp_path, capsys):
        model = tmp_path / "model-2.json"
        history = tmp_path / "history-2.jsonl"
        code = run("train", "--reviews", corpus["reviews"],
                   "--labels", corpus["labels"], "--stars", "2", *FAST_TRAIN,
                   "--model", str(model), "--out", str(history))
        assert code == 0
        assert sha(model) == sha(trained["model"])
        assert sha(history) == sha(trained["history"])

    def diverge(self, monkeypatch, when):
        """Make the stacked losses of star member m non-finite from batch when[m] on.

        Returns the member count of each stacked loss call.
        """
        real = sarcnet.training.cross_entropy
        stacks = []

        def diverging(p, y):
            stacks.append(len(p))
            losses = real(p, y)
            for member, first_batch in when.items():
                if len(stacks) >= first_batch:
                    losses[member] = math.inf
            return losses

        monkeypatch.setattr(sarcnet.training, "cross_entropy", diverging)
        return stacks

    def train_1_2_3(self, corpus, tmp_path):
        return run("train", "--reviews", corpus["reviews"],
                   "--labels", corpus["labels"], "--stars", "1,2,3", *FAST_TRAIN,
                   "--model", str(tmp_path / "models" / "m-{stars}.json"),
                   "--out", str(tmp_path / "h-{stars}.jsonl"))

    def test_later_star_divergence_writes_nothing(self, corpus, tmp_path, monkeypatch,
                                                  capsys):
        """Every star trains before any file is written: a later failure leaves none."""
        stacks = self.diverge(monkeypatch, {1: 1})  # star 2, from its first batch
        code = self.train_1_2_3(corpus, tmp_path)
        assert code == 3
        assert set(stacks) == {3}  # the three stars train as one stack
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("sarcnet: training failed: 2-star model: non-finite loss "
                                "in stage 'main', epoch 1, batch 1\n")
        assert list(tmp_path.iterdir()) == []

    def test_the_first_star_in_order_reports_its_first_failure(self, corpus, tmp_path,
                                                               monkeypatch, capsys):
        """Star 3 diverges first, star 2 later: the run reports star 2, at its batch."""
        # 40 reviews in batches of 10: batch 5 is epoch 2's first.
        self.diverge(monkeypatch, {2: 1, 1: 5})
        code = self.train_1_2_3(corpus, tmp_path)
        assert code == 3
        assert capsys.readouterr() == (
            "", "sarcnet: training failed: 2-star model: non-finite loss in stage 'main', "
                "epoch 2, batch 1\n")
        assert list(tmp_path.iterdir()) == []

    def test_creates_missing_output_directories(self, corpus, tmp_path, capsys):
        model = tmp_path / "deep" / "nested" / "model-1.json"
        code = run("train", "--reviews", corpus["reviews"],
                   "--labels", corpus["labels"], "--stars", "1", *FAST_TRAIN,
                   "--model", str(model),
                   "--out", str(tmp_path / "deep" / "h.jsonl"))
        assert code == 0
        assert model.exists()


class TestStageFeasibility:
    """Every selected star's warm-up stages are checked before any model is trained."""

    @pytest.fixture
    def skewed(self, tmp_path):
        # 1-star: 30 sarcastic of 50; 2-star: 10 sarcastic of 50.
        reviews = [Review(f"r{stars}-{i}", stars, "Wow!! sooo good..." if i < n else "Fine.")
                   for stars, n in ((1, 30), (2, 10)) for i in range(50)]
        labels = [SarcasmLabel("a", r.review_id, r.text.startswith("Wow")) for r in reviews]
        write_reviews(tmp_path / "reviews.jsonl", reviews)
        write_labels(tmp_path / "labels.jsonl", labels)
        return ["--reviews", str(tmp_path / "reviews.jsonl"),
                "--labels", str(tmp_path / "labels.jsonl"),
                "--train-size", "50", "--test-size", "0", "--stages", "sarcastic:20,main",
                "--epochs", "1", "--batch-size", "10"]

    @pytest.mark.parametrize("flags", [[], ["--lr", "1e308"]],
                             ids=["star-1-trains", "star-1-diverges"])
    def test_later_star_short_writes_nothing(self, skewed, tmp_path, monkeypatch, capsys,
                                             flags):
        """A shortage is found before any star takes a step, even one that would diverge."""
        def refuse(*args, **kwargs):
            raise AssertionError("a training step ran")

        monkeypatch.setattr(sarcnet.training, "adam_step", refuse)
        code = run("train", *skewed, "--stars", "1,2", *flags,
                   "--model", str(tmp_path / "m-{stars}.json"),
                   "--out", str(tmp_path / "h-{stars}.jsonl"))
        assert code == 2
        assert capsys.readouterr().err == (
            "sarcnet: data error: 2-star stage 1 (sarcastic_only) needs 20 sarcastic "
            "reviews, the train side has 10\n")
        assert not list(tmp_path.glob("m-*")) and not list(tmp_path.glob("h-*"))

    def test_fillable_star_trains(self, skewed, tmp_path, capsys):
        code = run("train", *skewed, "--stars", "1",
                   "--model", str(tmp_path / "m.json"), "--out", str(tmp_path / "h.jsonl"))
        assert code == 0

    def test_sweep_is_checked_too(self, skewed, tmp_path, capsys):
        code = run("sweep", *skewed, "--stars", "2")
        assert code == 2
        assert "2-star stage 1 (sarcastic_only) needs 20" in capsys.readouterr().err

    def test_default_stages_are_short_on_the_minicorpus(self, corpus, tmp_path, capsys):
        code = run("train", "--reviews", corpus["reviews"], "--labels", corpus["labels"],
                   "--stars", "1", "--train-size", "70", "--test-size", "30",
                   "--model", str(tmp_path / "m.json"), "--out", str(tmp_path / "h.jsonl"))
        assert code == 2
        assert capsys.readouterr().err == (
            "sarcnet: data error: 1-star stage 1 (sarcastic_only) needs 500 sarcastic "
            "reviews, the train side has 39\n")
        assert list(tmp_path.iterdir()) == []


class TestEval:
    def test_report_and_table(self, trained, tmp_path, capsys):
        report = tmp_path / "report.json"
        code = run("eval", "--reviews", trained["reviews"],
                   "--labels", trained["labels"], "--stars", "2",
                   "--train-size", "40", "--test-size", "10", "--seed", "42",
                   "--model", str(trained["model"]), "--out", str(report))
        assert code == 0
        out = capsys.readouterr().out
        assert "Metric" in out and "2-star" in out
        assert "Macro" not in out  # only with all five stars
        doc = json.loads(report.read_text())
        cm = doc["per_star"]["2"]["confusion"]
        assert cm["tp"] + cm["fp"] + cm["fn"] + cm["tn"] == 10
        assert doc["provenance"]["version"]

    def test_per_star_report_files(self, trained, tmp_path, capsys):
        code = run("eval", "--reviews", trained["reviews"],
                   "--labels", trained["labels"], "--stars", "2",
                   "--train-size", "40", "--test-size", "10", "--seed", "42",
                   "--model", str(trained["model"]),
                   "--out", str(tmp_path / "report-{stars}.json"))
        assert code == 0
        assert (tmp_path / "report-2.json").exists()

    def test_other_braces_in_a_template_are_kept(self, trained, tmp_path, capsys):
        code = run("eval", "--reviews", trained["reviews"],
                   "--labels", trained["labels"], "--stars", "2",
                   "--train-size", "40", "--test-size", "10", "--seed", "42",
                   "--model", str(trained["model"]),
                   "--out", str(tmp_path / "report-{stars}{x}.json"))
        assert code == 0
        assert (tmp_path / "report-2{x}.json").exists()

    @pytest.mark.parametrize("model, message", [
        ("missing.json", "[Errno 2] No such file or directory: 'missing.json'"),
        ("", "[Errno 2] No such file or directory: ''"),
        ("notes.json", "model file is not valid JSON: Expecting value"),
    ], ids=["missing", "empty-path", "not-json"])
    def test_unreadable_model_is_a_data_error_before_the_corpus_is_read(
            self, corpus, tmp_path, monkeypatch, capsys, model, message):
        def refuse(*args, **kwargs):
            raise AssertionError("the corpus was read before the model was loaded")

        monkeypatch.setattr(cli, "read_reviews", refuse)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "notes.json").write_text("not a model\n")
        code = run("eval", "--reviews", corpus["reviews"], "--labels", corpus["labels"],
                   "--stars", "2", "--train-size", "40", "--test-size", "10",
                   "--model", model, "--out", "report.json")
        assert code == 2
        assert capsys.readouterr() == ("", f"sarcnet: data error: {message}\n")
        assert [path.name for path in tmp_path.iterdir()] == ["notes.json"]


class TestPredict:
    def test_file_input(self, trained, tmp_path, capsys):
        texts = tmp_path / "texts.txt"
        texts.write_text("Wow!! just what we needed...\n\nThe soup was warm.\n")
        code = run("predict", "--model", str(trained["model"]), str(texts))
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2  # blank line skipped
        for line in lines:
            label, confidence = line.rsplit(" ", 1)
            assert label in ("sarcastic", "non-sarcastic")
            assert 0.5 <= float(confidence) <= 1.0

    def test_stdin_input(self, trained, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO("Oh great, cold soup?!\n"))
        code = run("predict", "--model", str(trained["model"]))
        assert code == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 1

    def test_missing_input_file(self, trained, tmp_path, capsys):
        code = run("predict", "--model", str(trained["model"]),
                   str(tmp_path / "nope.txt"))
        assert code == 2

    def test_invalid_utf8_line_in_file_is_skipped(self, trained, tmp_path, capsys):
        texts = tmp_path / "texts.txt"
        texts.write_bytes(b"fine\n\xff bad\nok!!\n")
        code = run("predict", "--model", str(trained["model"]), str(texts))
        assert code == 0
        captured = capsys.readouterr()
        assert len(captured.out.splitlines()) == 2
        assert captured.err == f"warning: {texts}:2: invalid UTF-8\n"

    def test_invalid_utf8_line_on_stdin_is_skipped(self, trained, capsys, monkeypatch):
        stdin = io.TextIOWrapper(io.BytesIO(b"fine\n\n\xff bad\nok!!\n"), encoding="utf-8")
        monkeypatch.setattr(sys, "stdin", stdin)
        code = run("predict", "--model", str(trained["model"]))
        assert code == 0
        captured = capsys.readouterr()
        assert len(captured.out.splitlines()) == 2
        assert captured.err == "warning: <stdin>:3: invalid UTF-8\n"

    def test_each_prediction_is_flushed_before_the_next_line_is_read(self, trained,
                                                                      monkeypatch):
        out = io.BytesIO()
        written_before_second_line = []

        def lines():
            yield "Wow!! just what we needed...\n"
            written_before_second_line.append(out.getvalue())
            yield "The soup was warm.\n"

        monkeypatch.setattr(sys, "stdin", lines())
        monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(out, encoding="utf-8"))
        assert run("predict", "--model", str(trained["model"])) == 0
        assert written_before_second_line[0].count(b"\n") == 1
        assert out.getvalue().count(b"\n") == 2

    def test_real_process_with_warnings_as_errors(self, trained, capsys, monkeypatch):
        """The test suite makes only some warnings errors, RuntimeWarning among
        them; -W error makes every one an error, a numpy DeprecationWarning
        included, and the output matches the in-process run's."""
        lines = ["Wow!! just what we needed...", "", "The soup was warm.",
                 "Oh great, cold soup?!"]
        stdin = "".join(f"{line}\n" for line in lines)
        done = run_process(["predict", "--model", str(trained["model"])], ["-W", "error"],
                           input=stdin.encode())
        assert (done.returncode, done.stderr) == (0, b"")
        out = done.stdout.decode().splitlines()
        assert len(out) == 3
        assert all(re.fullmatch(r"(non-)?sarcastic 0\.\d{4}", line) for line in out)
        assert any(not line.endswith(" 0.5000") for line in out)
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
        assert run("predict", "--model", str(trained["model"])) == 0
        assert capsys.readouterr().out.splitlines() == out

    def test_file_generator_and_pipe_give_the_same_answers(self, trained, tmp_path, capsys,
                                                           monkeypatch, minicorpus_dir):
        """A file, named or redirected to stdin, and a pipe are read in blocks of many
        lines, a generator on stdin a line at a time, outside the block reader; each
        gives the same stdout."""
        texts = [json.loads(line)["text"] for line in
                 (minicorpus_dir / "reviews.jsonl").read_text().splitlines()]
        lines = [text if i % 9 else "  " for i, text in enumerate(texts * 2)]
        path = tmp_path / "texts.txt"
        path.write_text("".join(f"{line}\n" for line in lines))
        assert len(path.read_bytes()) > 2 * sarcnet.corpus._BLOCK_SIZE
        model = str(trained["model"])
        blocks = []

        def spy(stream):
            for first, block in line_blocks(stream):
                blocks.append(block.count("\n"))
                yield first, block

        line_blocks = cli._line_blocks
        monkeypatch.setattr(cli, "_line_blocks", spy)
        assert run("predict", "--model", model, str(path)) == 0
        from_file = capsys.readouterr().out
        assert len(blocks) >= 3 and max(blocks) > 1 and sum(blocks) == len(lines)
        assert len(from_file.splitlines()) == sum(1 for line in lines if line.strip())
        blocks.clear()
        monkeypatch.setattr(sys, "stdin", (f"{line}\n" for line in lines))
        assert run("predict", "--model", model) == 0
        assert capsys.readouterr().out == from_file
        assert blocks == []
        with open(path, "rb") as fh:
            redirected = run_process(["predict", "--model", model], stdin=fh)
        piped = run_process(["predict", "--model", model], input=path.read_bytes())
        for done in (redirected, piped):
            assert (done.returncode, done.stderr) == (0, b"")
            assert done.stdout.decode() == from_file

    def test_a_pipe_is_answered_before_its_next_line_is_written(self, trained):
        lines = ["Wow!! just what we needed...", "", "The soup was warm.",
                 "Oh great, cold soup?!"]
        answers = []
        with subprocess.Popen(**cli_process(["predict", "--model", str(trained["model"])]),
                              stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE) as process:
            try:
                for line in lines:
                    process.stdin.write(f"{line}\n".encode())
                    process.stdin.flush()
                    if line:
                        ready, _, _ = select.select([process.stdout], [], [], 60)
                        assert ready, f"no answer to {line!r} within 60 s"
                        answers.append(process.stdout.readline().decode())
                process.stdin.close()
                assert process.wait(timeout=60) == 0
                assert process.stdout.read() == process.stderr.read() == b""
            finally:
                process.kill()
        assert all(re.fullmatch(r"(non-)?sarcastic 0\.\d{4}\n", answer) for answer in answers)
        assert len(answers) == 3

    def test_merged_output_keeps_warnings_between_their_neighbours(self, trained, tmp_path,
                                                                   monkeypatch):
        """Invalid lines inside one block: the redirected file's and the pipe's stdout
        and stderr, merged, are byte for byte those of a generator on stdin, which
        is answered a line at a time."""
        lines = [b"Wow!! just what we needed...", b"fine", b"\xff bad", b"", b"ok!!",
                 b"so \xfe\xfd bad", b"\xff", b"The soup was warm.", b"yes"]
        path = tmp_path / "texts.txt"
        path.write_bytes(b"".join(line + b"\n" for line in lines))
        merged = {"stdout": subprocess.PIPE, "stderr": subprocess.STDOUT}
        command = cli_process(["predict", "--model", str(trained["model"])])
        with open(path, "rb") as fh:
            redirected = subprocess.run(**command, stdin=fh, **merged)
        piped = subprocess.run(**command, input=path.read_bytes(), **merged)
        assert redirected.returncode == piped.returncode == 0
        assert redirected.stdout == piped.stdout
        out = io.StringIO()
        monkeypatch.setattr(sys, "stdin", (line.decode(errors="surrogateescape") + "\n"
                                           for line in lines))
        monkeypatch.setattr(sys, "stdout", out)
        monkeypatch.setattr(sys, "stderr", out)
        assert run("predict", "--model", str(trained["model"])) == 0
        assert piped.stdout == out.getvalue().encode()
        kinds = [line.split(" ")[0] for line in out.getvalue().splitlines()]
        assert [kind if kind == "warning:" else "answer" for kind in kinds] == [
            "answer", "answer", "warning:", "answer", "warning:", "warning:", "answer",
            "answer"]
        assert "warning: <stdin>:3: invalid UTF-8\n" in out.getvalue()

    def test_a_named_file_a_redirect_and_a_pipe_end_lines_alike(self, trained, tmp_path,
                                                                minicorpus_dir):
        """One byte file given as an argument, redirected to stdin and piped through
        cat: "\\r\\n" and a lone "\\r" end a line every way, so stdout and stderr
        merged are byte for byte the same, warning line numbers included."""
        size = sarcnet.corpus._BLOCK_SIZE
        texts = [json.loads(line)["text"].encode() for line in
                 (minicorpus_dir / "reviews.jsonl").read_bytes().splitlines()]
        data = b""
        for i, text in enumerate(texts):
            if len(data) + len(text) + 40 > size:
                break
            data += text + (b"\r\n", b"\r", b"\n")[i % 3]
        # A line whose "\r\n" is cut by the end of the first read.
        data += (b"Oh great!! " * size)[:size - 1 - len(data)] + b"\r\n"
        assert data[size - 1:size + 1] == b"\r\n"
        data += (b"so \xff bad\r\n" + b"\r\n" + b"The soup was warm.\r\xfe\r"
                 + b"Wow!! just what we needed...\n" + b"Oh great, cold soup?!")
        path = tmp_path / "texts.txt"
        path.write_bytes(data)
        merged = {"stdout": subprocess.PIPE, "stderr": subprocess.STDOUT}
        command = cli_process(["predict", "--model", str(trained["model"])])
        named = subprocess.run(**dict(command, args=[*command["args"], str(path)]), **merged)
        with open(path, "rb") as fh:
            redirected = subprocess.run(**command, stdin=fh, **merged)
        with subprocess.Popen(["cat", str(path)], stdout=subprocess.PIPE) as cat:
            piped = subprocess.run(**command, stdin=cat.stdout, **merged)
        assert named.returncode == redirected.returncode == piped.returncode == 0
        out = named.stdout.replace(f"warning: {path}:".encode(), b"warning: <stdin>:")
        assert out == redirected.stdout == piped.stdout
        lines = list(io.TextIOWrapper(io.BytesIO(data), **sarcnet.corpus._DECODING))
        bad = [number for number, line in enumerate(lines, 1)
               if sarcnet.corpus._UNDECODABLE.search(line)]
        assert [line for line in out.decode().splitlines() if line.startswith("warning")] == [
            f"warning: <stdin>:{number}: invalid UTF-8" for number in bad]
        assert len(bad) == 2
        assert out.count(b"sarcastic 0.") == sum(
            1 for number, line in enumerate(lines, 1) if number not in bad and line.strip())

    def test_model_file_with_invalid_utf8_is_data_error(self, tmp_path, capsys):
        model = tmp_path / "bad.json"
        model.write_bytes(b"\xff\xfe{")
        code = run("predict", "--model", str(model))
        assert code == 2
        assert "not valid UTF-8" in capsys.readouterr().err

    @pytest.mark.parametrize("hole, raw, message", [
        (lambda doc: doc["config"].update(hidden="HOLE"), "[1e400]", "hidden"),
        (None, "[" * 200_000, "not valid JSON"),
        (lambda doc: doc.update(version="HOLE"), "9" * 5000, "not valid JSON"),
        (lambda doc: doc["layers"][0].update(bias="HOLE"), '"' + "1" * 15 + '"',
         "hex strings"),
    ], ids=["infinite-width", "deep-nesting", "long-version", "string-parameters"])
    def test_corrupt_model_is_data_error(self, trained, tmp_path, capsys, monkeypatch,
                                         hole, raw, message):
        """raw replaces the whole model file, or the value that hole marks in it."""
        model = tmp_path / "corrupt.json"
        if hole is None:
            model.write_text(raw)
        else:
            doc = json.loads(trained["model"].read_text())
            hole(doc)
            model.write_text(json.dumps(doc).replace('"HOLE"', raw))
        monkeypatch.setattr(sys, "stdin", io.StringIO("hi\n"))
        assert run("predict", "--model", str(model)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("sarcnet: data error:")
        assert message in captured.err


class TestLabel:
    def write_reviews(self, path):
        rows = [
            {"review_id": "a", "stars": 1, "text": "Great stuff!!"},
            {"review_id": "b", "stars": 1, "text": "It was fine."},
            {"review_id": "c", "stars": 1, "text": "Wow, amazing..."},
        ]
        path.write_text("".join(json.dumps(r) + "\n" for r in rows))

    def forbid_prompts(self, monkeypatch):
        def no_prompt(prompt):
            raise AssertionError("prompted")

        monkeypatch.setattr("builtins.input", no_prompt)

    def test_votes_append_and_pending_shrinks(self, tmp_path, capsys, monkeypatch):
        reviews = tmp_path / "reviews.jsonl"
        labels = tmp_path / "labels.jsonl"
        self.write_reviews(reviews)

        answers = iter(["y", "n", "q"])
        monkeypatch.setattr("builtins.input", lambda prompt: next(answers))
        code = run("label", "--reviews", str(reviews), "--labels", str(labels),
                   "--annotator", "alice")
        assert code == 0
        out = capsys.readouterr().out
        assert "3 reviews awaiting a vote from alice" in out
        assert "recorded 2 labels" in out
        recorded = [json.loads(line) for line in labels.read_text().splitlines()]
        assert [(l["review_id"], l["sarcastic"]) for l in recorded] == \
               [("a", True), ("b", False)]

        answers = iter(["s"])
        monkeypatch.setattr("builtins.input", lambda prompt: next(answers))
        code = run("label", "--reviews", str(reviews), "--labels", str(labels),
                   "--annotator", "alice")
        assert code == 0
        out = capsys.readouterr().out
        assert "1 reviews awaiting" in out
        assert "recorded 0 labels" in out

    def test_labels_file_in_a_new_directory(self, tmp_path, capsys, monkeypatch):
        reviews = tmp_path / "reviews.jsonl"
        labels = tmp_path / "new" / "dir" / "labels.jsonl"
        self.write_reviews(reviews)

        answers = iter(["y", "q"])
        monkeypatch.setattr("builtins.input", lambda prompt: next(answers))
        code = run("label", "--reviews", str(reviews), "--labels", str(labels),
                   "--annotator", "fay")
        assert code == 0
        assert "recorded 1 labels" in capsys.readouterr().out
        assert labels.read_text() == \
            '{"annotator": "fay", "review_id": "a", "sarcastic": true}\n'

    def test_eof_quits_cleanly(self, tmp_path, capsys, monkeypatch):
        reviews = tmp_path / "reviews.jsonl"
        labels = tmp_path / "labels.jsonl"
        self.write_reviews(reviews)

        def no_tty(prompt):
            raise EOFError

        monkeypatch.setattr("builtins.input", no_tty)
        code = run("label", "--reviews", str(reviews), "--labels", str(labels),
                   "--annotator", "bob")
        assert code == 0
        assert "recorded 0 labels" in capsys.readouterr().out
        assert not labels.exists()

    def test_other_annotators_votes_do_not_hide_reviews(self, tmp_path, capsys,
                                                        monkeypatch):
        reviews = tmp_path / "reviews.jsonl"
        labels = tmp_path / "labels.jsonl"
        self.write_reviews(reviews)
        labels.write_text(json.dumps(
            {"review_id": "a", "sarcastic": True, "annotator": "carol"}) + "\n")

        monkeypatch.setattr("builtins.input", lambda prompt: "q")
        code = run("label", "--reviews", str(reviews), "--labels", str(labels),
                   "--annotator", "dave")
        assert code == 0
        assert "3 reviews awaiting a vote from dave" in capsys.readouterr().out

    def test_vote_after_an_unterminated_last_line_keeps_both(self, tmp_path, capsys,
                                                            monkeypatch):
        reviews = tmp_path / "reviews.jsonl"
        labels = tmp_path / "labels.jsonl"
        self.write_reviews(reviews)
        labels.write_text('{"annotator": "a", "review_id": "a", "sarcastic": true}')

        answers = iter(["y", "q"])
        monkeypatch.setattr("builtins.input", lambda prompt: next(answers))
        code = run("label", "--reviews", str(reviews), "--labels", str(labels),
                   "--annotator", "b")
        assert code == 0
        assert capsys.readouterr().err == ""
        errors = []
        with sarcnet.corpus.open_jsonl(labels) as lines:
            votes = list(sarcnet.corpus.iter_labels(lines, errors))
        assert errors == []
        assert votes == [SarcasmLabel("a", "a", True), SarcasmLabel("b", "a", True)]

    @pytest.mark.parametrize("annotator, reason", [
        ("", "annotator must be a non-empty string"),
        ("a\udcff", "annotator holds a lone surrogate"),  # the byte 0xff in argv
    ])
    def test_unreadable_annotator_is_refused_before_any_prompt(
            self, tmp_path, capsys, monkeypatch, annotator, reason):
        reviews = tmp_path / "reviews.jsonl"
        labels = tmp_path / "labels.jsonl"
        self.write_reviews(reviews)

        self.forbid_prompts(monkeypatch)
        code = run("label", "--reviews", str(reviews), "--labels", str(labels),
                   "--annotator", annotator)
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"sarcnet: error: {reason}\n"
        assert not labels.exists()

    def test_unreadable_labels_file_is_data_error_before_any_prompt(
            self, tmp_path, capsys, monkeypatch):
        reviews = tmp_path / "reviews.jsonl"
        labels = tmp_path / "labels"
        self.write_reviews(reviews)
        labels.mkdir()

        self.forbid_prompts(monkeypatch)
        code = run("label", "--reviews", str(reviews), "--labels", str(labels),
                   "--annotator", "erin")
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("sarcnet: data error: cannot read labels file: ")

    @pytest.mark.parametrize("labels", ["reviews.jsonl", "./reviews.jsonl", "hard-link.jsonl"])
    def test_labels_naming_the_reviews_file_is_refused_before_any_prompt(
            self, tmp_path, capsys, monkeypatch, labels):
        """Votes appended to the reviews file would make each one a bad review line."""
        monkeypatch.chdir(tmp_path)
        self.write_reviews(tmp_path / "reviews.jsonl")
        os.link(tmp_path / "reviews.jsonl", tmp_path / "hard-link.jsonl")
        before = (tmp_path / "reviews.jsonl").read_bytes()

        self.forbid_prompts(monkeypatch)
        code = run("label", "--reviews", "reviews.jsonl", "--labels", labels,
                   "--annotator", "erin")
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"sarcnet: error: --labels {labels!r} names the same file "
                                "as --reviews 'reviews.jsonl'\n")
        assert (tmp_path / "reviews.jsonl").read_bytes() == before


class TestSweep:
    def test_requires_single_star(self, corpus, tmp_path, capsys):
        code = run("sweep", "--reviews", corpus["reviews"],
                   "--labels", corpus["labels"], "--stars", "all",
                   "--train-size", "40", "--test-size", "10")
        assert code == 1
        assert "exactly one star" in capsys.readouterr().err

    def test_stars_has_no_default(self, corpus, capsys):
        code = run("sweep", "--reviews", corpus["reviews"], "--labels", corpus["labels"])
        assert code == 1
        assert "the following arguments are required: --stars" in capsys.readouterr().err
        assert run("sweep", "--help") == 0
        assert "(default all)" not in " ".join(capsys.readouterr().out.split())

    def test_table_and_out_file(self, corpus, tmp_path, capsys):
        out = tmp_path / "sweep.txt"
        code = run("sweep", "--reviews", corpus["reviews"],
                   "--labels", corpus["labels"], "--stars", "3",
                   "--train-size", "40", "--test-size", "10",
                   "--stages", "main", "--epochs", "2", "--batch-size", "10",
                   "--seed", "3", "--lr-grid", "0.001,0.01", "--out", str(out))
        assert code == 0
        stdout = capsys.readouterr().out
        assert "accuracy" in stdout
        lines = out.read_text().splitlines()
        stanza = [l for l in lines if l.startswith("# ")]
        assert any("lexicon_digest" in l for l in stanza)
        table = [l for l in lines if not l.startswith("#")]
        assert len(table) == 3  # header plus one row per grid point

    def test_out_file_reruns_byte_for_byte(self, corpus, tmp_path, capsys):
        outs = [tmp_path / "first.txt", tmp_path / "second.txt"]
        for out in outs:
            code = run("sweep", "--reviews", corpus["reviews"],
                       "--labels", corpus["labels"], "--stars", "3",
                       "--train-size", "40", "--test-size", "10",
                       "--stages", "main", "--epochs", "2", "--batch-size", "10",
                       "--seed", "3", "--lr-grid", "0.001,0.01", "--out", str(out))
            assert code == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_divergence_names_the_star_and_the_rate(self, corpus, capsys):
        code = run("sweep", "--reviews", corpus["reviews"], "--labels", corpus["labels"],
                   "--stars", "1", *FAST_TRAIN, "--lr-grid", "1e-3,1e300")
        assert code == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("sarcnet: training failed: 1-star model, lr 1e+300: "
                                "non-finite loss in stage 'main', epoch 1, batch 2\n")

    def test_empty_out_path_is_data_error(self, corpus, tmp_path, monkeypatch, capsys):
        """``--out ""`` names no file: exit 2 as ingest and extract do, not a silent skip."""
        monkeypatch.chdir(tmp_path)
        code = run("sweep", "--reviews", corpus["reviews"],
                   "--labels", corpus["labels"], "--stars", "3",
                   "--train-size", "40", "--test-size", "10",
                   "--stages", "main", "--epochs", "2", "--batch-size", "10",
                   "--seed", "3", "--lr-grid", "0.001", "--out", "")
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "sarcnet: data error: [Errno 2] No such file or directory: ''\n"
        assert list(tmp_path.iterdir()) == []
