"""cli.main over generated command lines and corrupted input files.

Whatever the argv and whatever the reviews, labels, model, lexicon and
text files hold, main returns one of the documented exit codes (0 ok, 1
usage, 2 data, 3 divergence) and never lets a traceback reach stderr.

Each command line starts from one that succeeds in a few milliseconds
(tiny splits, one epoch, the ``main`` stage only) and appends overrides
drawn from the real flag vocabulary and its edge values; argparse keeps
the last value of a repeated flag. Every example runs in one temporary
working directory with relative paths only, and empties it and writes
its input files first, so what one example writes (``label`` appends
votes) cannot reach the next.
"""

import io
import re
import shutil
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import sarcnet.cli as cli
from sarcnet.lexicons import DEFAULT_LEXICON_DIR, ENV_LEXICON_DIR

EXIT_CODES = {0, 1, 2, 3}

CORPUS = ["--reviews", "reviews.jsonl", "--labels", "labels.jsonl"]
SPLIT = ["--stars", "1", "--train-size", "20", "--test-size", "10", "--seed", "3"]
TRAIN = ["--stages", "main", "--epochs", "1", "--batch-size", "10", "--hidden", "7"]

# The command line each command starts from; every one of them exits 0.
BASE = {
    "ingest": CORPUS + SPLIT + ["--out", "out/split-{stars}.json"],
    "label": CORPUS + ["--annotator", "fuzzer"],
    "extract": CORPUS + ["--stars", "1", "--out", "out/features.csv"],
    "train": CORPUS + SPLIT + TRAIN + ["--model", "out/m-{stars}.json",
                                       "--out", "out/h-{stars}.jsonl"],
    "eval": CORPUS + SPLIT + ["--model", "model-{stars}.json", "--out", "out/report.json"],
    "predict": ["--model", "model-1.json", "text.txt"],
    "sweep": CORPUS + SPLIT + TRAIN + ["--lr-grid", "0.001,0.01",
                                       "--out", "out/sweep.txt"],
}

SIZES = ["-5", "-1", "0", "1", "2", "10", "40", "1000", "nan", "inf", "", "x"]
TEMPLATES = ["out/x-{stars}.json", "x.json", "", ".", "out", "{stars}", "out/{stars}/x",
             "x-{stars}{0}", "x-{stars}{y}", "x-{stars", "x-{{stars}}", "{stars}{stars}"]

VALUES = {
    "--reviews": ["reviews.jsonl", "bad_reviews.jsonl", "missing.jsonl", "", "."],
    "--labels": ["labels.jsonl", "bad_labels.jsonl", "missing.jsonl", "", "."],
    "--stars": ["1", "2", "1,2", "all", "0", "6", "-1", "", ",", "1,,2", "nan", "1,1"],
    "--train-size": SIZES,
    "--test-size": SIZES,
    "--seed": ["-1", "0", "7", str(2 ** 70), "nan", ""],
    "--lr": ["0.01", "0", "-1", "nan", "inf", "-inf", "1e308", "1e-320", "x"],
    "--hidden": ["7", "15,15", "9,8", "", ",", "6", "16", "7,7,7", "a", "-7", "7,"],
    "--epochs": ["1", "2", "0", "-1", "nan", ""],
    "--batch-size": ["1", "3", "10", "0", "-3", "1000", "nan"],
    "--keep-prob": ["0.5", "1", "0", "-1", "1.5", "nan", "inf"],
    "--stages": ["main", "sarcastic:2,main", "dominated:4:1,main", "sarcastic,main",
                 "sarcastic:-3,main", "dominated:10:-1,main", "dominated:10:nan,main",
                 "dominated:10:inf,main", "dominated:3:0,main", "dominated:1:1e-9,main",
                 "sarcastic:0", "sarcastic:x", "sarcastic:1000,main", "warmup", "", ",",
                 "main,main", "dominated:2:3:4,main", "sarcastic:2:9"],
    "--lr-grid": ["0.01", "0.001,0.01", "0.01,0.001", "", ",", "0", "nan", "inf", "x"],
    "--model": ["model-{stars}.json", "model-1.json", "bad_model.json", "missing.json",
                *TEMPLATES],
    "--out": TEMPLATES,
    "--annotator": ["fuzzer", "annotator_1", "", "\udcff"],
}

_SPLIT_FLAGS = ["--reviews", "--labels", "--stars", "--train-size", "--test-size", "--seed"]
_TRAIN_FLAGS = ["--hidden", "--epochs", "--batch-size", "--keep-prob", "--stages"]
# Each command's own flags; test_vocabulary_is_the_parsers checks them.
FLAGS = {
    "ingest": _SPLIT_FLAGS + ["--out"],
    "label": ["--reviews", "--labels", "--annotator"],
    "extract": ["--reviews", "--labels", "--stars", "--seed", "--out"],
    "train": _SPLIT_FLAGS + _TRAIN_FLAGS + ["--lr", "--model", "--out"],
    "eval": _SPLIT_FLAGS + ["--model", "--out"],
    "predict": ["--model"],
    "sweep": _SPLIT_FLAGS + _TRAIN_FLAGS + ["--lr-grid", "--out"],
}

# A few flags that no command defines, and positional junk.
FOREIGN = [["--bogus"], ["--help"], ["--version"], ["extra.txt"], ["-"], ["bad_text.txt"],
           ["missing.txt"]]


@st.composite
def command_lines(draw):
    if draw(st.integers(0, 19)) == 0:
        command = draw(st.sampled_from(["bogus", ""]))
    else:
        command = draw(st.sampled_from(sorted(BASE)))
    argv = [command] if command else []
    if draw(st.integers(0, 9)) > 0:  # mostly from a working base
        argv += BASE.get(command, [])
    own = FLAGS.get(command, sorted(VALUES))
    for _ in range(draw(st.integers(0, 4))):
        flag = draw(st.sampled_from(own if draw(st.integers(0, 9)) else sorted(VALUES)))
        value = draw(st.sampled_from(VALUES[flag]))
        argv += [flag] if value is None else [flag, value]
    if draw(st.integers(0, 9)) == 0:
        argv += draw(st.sampled_from(FOREIGN))
    return argv


# Single lines that a corrupted file may hold in place of a good one.
BAD_LINES = [
    b'{"review_id": "r\\udcff", "stars": 1, "text": "wow!!"}',
    b'{"review_id": "mc-1s-000", "sarcastic": true, "annotator": "\\ud800"}',
    b'{"review_id": 1, "stars": "5", "text": null}',
    b'{"review_id": "a", "stars": 1.5, "text": "x"}',
    b'{"review_id": "a", "stars": true, "text": "x"}',
    b'{"review_id": "mc-1s-001", "sarcastic": "yes", "annotator": "x"}',
    b'{"review_id": "mc-1s-001", "sarcastic": true}',
    b'{"review_id": "mc-1s-002", "stars": 1, "text": "dup"}',
    b'{"a": ' + b"[" * 5000,
    b'{"n": ' + b"9" * 5000 + b"}",
    b"\xff\xfe\x00", b"\xed\xa0\x80", b"[]", b"null", b'"text"', b"{", b"",
]


def corrupted(valid: bytes):
    """Bytes derived from a valid file: lines replaced, truncated, or arbitrary."""
    lines = valid.split(b"\n")

    @st.composite
    def mutate(draw):
        out = list(lines)
        for _ in range(draw(st.integers(1, 4))):
            index = draw(st.integers(0, len(out) - 1))
            out[index] = draw(st.sampled_from(BAD_LINES) | st.binary(max_size=40))
        data = b"\n".join(out)
        if draw(st.booleans()):
            data = data[:draw(st.integers(0, len(data)))]
        return data

    return mutate() | st.binary(max_size=200)


@pytest.fixture(scope="module")
def inputs(minicorpus_dir, tmp_path_factory):
    """The valid input files: the mini-corpus, one trained model, a few lines of text."""
    reviews = (minicorpus_dir / "reviews.jsonl").read_bytes()
    labels = (minicorpus_dir / "labels.jsonl").read_bytes()
    work = tmp_path_factory.mktemp("model")
    (work / "reviews.jsonl").write_bytes(reviews)
    (work / "labels.jsonl").write_bytes(labels)
    model = work / "model.json"
    with redirect_stdout(io.StringIO()):
        assert cli.main(["train", "--reviews", str(work / "reviews.jsonl"),
                         "--labels", str(work / "labels.jsonl"), *SPLIT, *TRAIN,
                         "--model", str(model), "--out", str(work / "h.jsonl")]) == 0
    files = {"reviews.jsonl": reviews, "labels.jsonl": labels,
             "text.txt": b"God! Aren't we clever??\nplain soup.\n\n"}
    files.update({f"model-{stars}.json": model.read_bytes() for stars in range(1, 6)})
    lexicons = {path.name: path.read_bytes() for path in DEFAULT_LEXICON_DIR.glob("*.txt")}
    return files, lexicons


def corruptions(files, lexicons):
    return st.fixed_dictionaries({
        "bad_reviews.jsonl": corrupted(files["reviews.jsonl"][:4000]),
        "bad_labels.jsonl": corrupted(files["labels.jsonl"][:4000]),
        "bad_model.json": corrupted(files["model-1.json"]),
        "bad_text.txt": corrupted(files["text.txt"]),
        "lexicon": st.none() | st.tuples(st.sampled_from(sorted(lexicons)),
                                         st.none() | corrupted(b"so\nreally\n")),
    })


def run_main(argv, stdin: str) -> tuple:
    """(exit code, stdout, stderr) of cli.main(argv) with the given stdin."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=150, suppress_health_check=[HealthCheck.function_scoped_fixture,
                                                   HealthCheck.too_slow])
@given(data=st.data(), argv=command_lines(), stdin=st.sampled_from(["", "y\nn\ns\nq\n", "x\n"]))
@example(data=None, argv=["train", *CORPUS, *SPLIT, *TRAIN, "--train-size", "-5"], stdin="")
@example(data=None, argv=["train", *CORPUS, *SPLIT, *TRAIN, "--stages", "sarcastic:-3,main"],
         stdin="")
@example(data=None, argv=["train", *CORPUS, *SPLIT, *TRAIN,
                          "--stages", "dominated:10:-1,main"], stdin="")
@example(data=None, argv=["train", *CORPUS, *SPLIT, *TRAIN,
                          "--stages", "dominated:10:nan,main"], stdin="")
@example(data=None, argv=["eval", *CORPUS, *SPLIT, "--model", "model-{stars}.json",
                          "--out", "x-{stars}{y}"], stdin="")
def test_main_returns_an_exit_code_and_prints_no_traceback(inputs, tmp_path, monkeypatch,
                                                           data, argv, stdin):
    files, lexicons = inputs
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(ENV_LEXICON_DIR, raising=False)
    for entry in tmp_path.iterdir():  # what earlier examples wrote
        shutil.rmtree(entry) if entry.is_dir() else entry.unlink()
    for name, content in files.items():
        (tmp_path / name).write_bytes(content)
    bad = data.draw(corruptions(files, lexicons)) if data is not None else {}
    lexicon = bad.pop("lexicon", None)
    for name, content in bad.items():
        (tmp_path / name).write_bytes(content)
    if lexicon is not None:
        (tmp_path / "lex").mkdir()
        for name, content in lexicons.items():
            (tmp_path / "lex" / name).write_bytes(content)
        name, content = lexicon
        if content is None:
            (tmp_path / "lex" / name).unlink()
        else:
            (tmp_path / "lex" / name).write_bytes(content)
        monkeypatch.setenv(ENV_LEXICON_DIR, "lex")

    code, _, err = run_main(argv, stdin)

    assert code in EXIT_CODES, (argv, code, err)
    assert "Traceback" not in err, (argv, err)


@pytest.mark.parametrize("command", sorted(FLAGS))
def test_vocabulary_is_the_parsers(command):
    code, out, _ = run_main([command, "--help"], "")
    assert code == 0
    assert set(re.findall(r"--[a-z][a-z-]*", out)) - {"--help"} == set(FLAGS[command])
