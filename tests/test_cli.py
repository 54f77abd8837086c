"""CLI behavior: subcommands, exit codes, artifacts, determinism.

All tests drive ``sarcnet.cli.main`` in-process so coverage and
monkeypatching work; nothing shells out.
"""

import hashlib
import io
import json
import shutil
import sys

import pytest

import sarcnet.cli as cli
from sarcnet.errors import TrainingDivergence
from sarcnet.lexicons import DEFAULT_LEXICON_DIR, ENV_LEXICON_DIR
from sarcnet.network import load_model


def run(*argv):
    return cli.main(list(argv))


def sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


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
        code = run("ingest", "--reviews", corpus["reviews"],
                   "--labels", corpus["labels"], "--stars", "7",
                   "--out", str(tmp_path / "s.json"))
        assert code == 1
        assert "1..5" in capsys.readouterr().err

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

    def test_insufficient_pool_is_data_error(self, corpus, tmp_path, capsys):
        code = run("ingest", "--reviews", corpus["reviews"],
                   "--labels", corpus["labels"], "--stars", "3",
                   "--train-size", "700", "--test-size", "300",
                   "--out", str(tmp_path / "s.json"))
        assert code == 2
        err = capsys.readouterr().err
        assert "3-star split" in err and "need 1000, have 100" in err

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

    def test_divergence_exits_three(self, corpus, tmp_path, monkeypatch, capsys):
        def explode(*args, **kwargs):
            raise TrainingDivergence("non-finite gradient in W1")

        monkeypatch.setattr(cli, "train", explode)
        code = run("train", "--reviews", corpus["reviews"],
                   "--labels", corpus["labels"], "--stars", "1", *FAST_TRAIN,
                   "--model", str(tmp_path / "m.json"),
                   "--out", str(tmp_path / "h.jsonl"))
        assert code == 3
        assert "training failed" in capsys.readouterr().err


class TestIngest:
    def test_invalid_utf8_vote_costs_one_vote(self, corpus, tmp_path, capsys):
        labels = tmp_path / "labels.jsonl"
        labels.write_bytes(b'{"review_id": "mc-1s-000", "\xc3(": 1}\n'
                           + open(corpus["labels"], "rb").read())
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
        reviews_sha = hashlib.sha256(
            open(corpus["reviews"], "rb").read()).hexdigest()
        out_a = tmp_path / "a" / "split-{stars}.json"
        out_b = tmp_path / "b" / "split-{stars}.json"
        args = ["ingest", "--reviews", corpus["reviews"], "--labels",
                corpus["labels"], "--stars", "2", "--train-size", "70",
                "--test-size", "30", "--seed", "7"]
        assert run(*args, "--out", str(out_a)) == 0
        assert run(*args, "--out", str(out_b)) == 0
        assert sha(tmp_path / "a" / "split-2.json") == \
               sha(tmp_path / "b" / "split-2.json")
        after = hashlib.sha256(open(corpus["reviews"], "rb").read()).hexdigest()
        assert reviews_sha == after


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

    def test_creates_missing_output_directories(self, corpus, tmp_path, capsys):
        model = tmp_path / "deep" / "nested" / "model-1.json"
        code = run("train", "--reviews", corpus["reviews"],
                   "--labels", corpus["labels"], "--stars", "1", *FAST_TRAIN,
                   "--model", str(model),
                   "--out", str(tmp_path / "deep" / "h.jsonl"))
        assert code == 0
        assert model.exists()


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

    def test_missing_model_is_data_error(self, trained, tmp_path, capsys):
        code = run("eval", "--reviews", trained["reviews"],
                   "--labels", trained["labels"], "--stars", "2",
                   "--train-size", "40", "--test-size", "10", "--seed", "42",
                   "--model", str(tmp_path / "missing.json"),
                   "--out", str(tmp_path / "report.json"))
        assert code == 2


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

    def test_model_file_with_invalid_utf8_is_data_error(self, tmp_path, capsys):
        model = tmp_path / "bad.json"
        model.write_bytes(b"\xff\xfe{")
        code = run("predict", "--model", str(model))
        assert code == 2
        assert "not valid UTF-8" in capsys.readouterr().err


class TestLabel:
    def write_reviews(self, path):
        rows = [
            {"review_id": "a", "stars": 1, "text": "Great stuff!!"},
            {"review_id": "b", "stars": 1, "text": "It was fine."},
            {"review_id": "c", "stars": 1, "text": "Wow, amazing..."},
        ]
        path.write_text("".join(json.dumps(r) + "\n" for r in rows))

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


class TestSweep:
    def test_requires_single_star(self, corpus, tmp_path, capsys):
        code = run("sweep", "--reviews", corpus["reviews"],
                   "--labels", corpus["labels"], "--stars", "all",
                   "--train-size", "40", "--test-size", "10")
        assert code == 1
        assert "exactly one star" in capsys.readouterr().err

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
