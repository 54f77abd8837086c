"""Ingestion, label resolution, and seeded splits."""

import hashlib
import io
import json
import random
import re
import tracemalloc
from contextlib import contextmanager

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_corpus
from sarcnet import corpus
from sarcnet.corpus import (
    _REVIEW_LINES,
    _REVIEW_RUNS,
    _VOTE_LINE,
    _VOTE_LINES,
    _VOTE_RUNS,
    LabeledReview,
    ParseError,
    Review,
    SarcasmLabel,
    _decode_line,
    _line_blocks,
    _read_votes,
    _runs,
    append_labels,
    iter_labels,
    label_reviews,
    make_split,
    open_jsonl,
    parse_review_stream,
    read_reviews,
    resolve_labels,
    write_labels,
    write_reviews,
    write_split_manifest,
)
from sarcnet.errors import DataError
from sarcnet.minicorpus import build_minicorpus


def review_line(review_id="r1", stars=3, text="ok food", **extra):
    record = {"review_id": review_id, "stars": stars, "text": text, **extra}
    return json.dumps(record)


def parse_votes(lines):
    """(votes, errors) of iter_labels over lines, the votes read into a list."""
    errors = []
    return list(iter_labels(lines, errors)), errors


def read_votes(path):
    """(votes, errors) of the commands' block reader over a labels file, as SarcasmLabels."""
    errors = []
    with open(path, "rb") as fh:
        votes = [SarcasmLabel(annotator, review_id, bool(sarcastic))
                 for annotator, review_id, sarcastic in _read_votes(fh, errors)]
    return votes, errors


@contextmanager
def block_size(n, probes=None):
    """Read files n bytes a read for the duration, probing each block at
    probes lines if given."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(corpus, "_BLOCK_SIZE", n)
        if probes is not None:
            patch.setattr(corpus, "_PROBES", probes)
        yield


def make_pool(n, stars=1, sarcastic_every=2):
    """n labeled reviews of one star; every k-th is sarcastic."""
    return [
        LabeledReview(Review(f"r{i}", stars, f"text {i}"), i % sarcastic_every == 0)
        for i in range(n)
    ]


class TestParseReviewStream:
    def test_single_valid_record(self):
        reviews, errors = parse_review_stream([review_line()])
        assert errors == []
        assert reviews == [Review("r1", 3, "ok food")]

    def test_stars_out_of_range(self):
        reviews, errors = parse_review_stream([review_line(stars=6)])
        assert reviews == []
        assert len(errors) == 1
        assert errors[0].line_number == 1
        assert "stars out of range" in errors[0].reason

    def test_order_preserved(self):
        lines = [review_line(review_id=f"r{s}", stars=s) for s in (1, 3, 5)]
        reviews, errors = parse_review_stream(lines)
        assert [r.stars for r in reviews] == [1, 3, 5]
        assert errors == []

    def test_bad_lines_do_not_abort(self):
        lines = [
            review_line(review_id="a"),
            "{not json",
            review_line(review_id="b", text="   "),
            json.dumps({"stars": 2, "text": "x"}),
            review_line(review_id="c"),
        ]
        reviews, errors = parse_review_stream(lines)
        assert [r.review_id for r in reviews] == ["a", "c"]
        assert [e.line_number for e in errors] == [2, 3, 4]
        assert "missing field: review_id" in errors[2].reason

    def test_duplicate_review_id_is_an_error(self):
        reviews, errors = parse_review_stream([review_line(), review_line()])
        assert len(reviews) == 1
        assert len(errors) == 1
        assert "duplicate review_id" in errors[0].reason

    def test_integral_float_stars_accepted(self):
        reviews, errors = parse_review_stream([review_line(stars=5.0)])
        assert errors == []
        assert reviews[0].stars == 5

    @pytest.mark.parametrize("stars", [2.5, "3", True, None])
    def test_non_integral_stars_rejected(self, stars):
        _, errors = parse_review_stream([review_line(stars=stars)])
        assert len(errors) == 1

    def test_extra_fields_ignored(self):
        reviews, errors = parse_review_stream(
            [review_line(useful=3, funny=0, business_id="b9")])
        assert errors == []
        assert reviews[0].text == "ok food"

    def test_blank_lines_skipped(self):
        reviews, errors = parse_review_stream(["", "   ", review_line(), "\n"])
        assert len(reviews) == 1
        assert errors == []


class TestMakeSplit:
    def test_sizes_and_disjointness(self):
        split = make_split(make_pool(1000), 700, 300, seed=42)
        assert len(split.train) == 700
        assert len(split.test) == 300
        train_ids = {lr.review.review_id for lr in split.train}
        test_ids = {lr.review.review_id for lr in split.test}
        assert not train_ids & test_ids

    def test_insufficient_pool_message(self):
        with pytest.raises(DataError, match=r"need 1000, have 999"):
            make_split(make_pool(999), 700, 300, seed=0)

    def test_determinism(self):
        pool = make_pool(50)
        first = make_split(pool, 30, 20, seed=9)
        second = make_split(pool, 30, 20, seed=9)
        assert first == second

    def test_seed_changes_membership(self):
        pool = make_pool(1000)
        a = make_split(pool, 700, 300, seed=0)
        b = make_split(pool, 700, 300, seed=1)
        assert [lr.review.review_id for lr in a.train] != \
               [lr.review.review_id for lr in b.train]

    @pytest.mark.parametrize("train_n, test_n", [(-5, 10), (10, -1)])
    def test_negative_size_rejected(self, train_n, test_n):
        # A negative size would slice from the end: train -5 took all but 5.
        with pytest.raises(ValueError, match=f"got train {train_n}, test {test_n}"):
            make_split(make_pool(100), train_n, test_n, seed=0)

    def test_mixed_star_pool_rejected(self):
        pool = make_pool(5, stars=1) + make_pool(5, stars=2)
        with pytest.raises(DataError, match="mixes star ratings"):
            make_split(pool, 3, 2, seed=0)

    def test_disjointness_many_seeds(self):
        pool = make_pool(60)
        rng = random.Random(100)
        for _ in range(1000):
            split = make_split(pool, 40, 20, seed=rng.randrange(2**32))
            train_ids = {lr.review.review_id for lr in split.train}
            test_ids = {lr.review.review_id for lr in split.test}
            assert not train_ids & test_ids
            assert len(train_ids) == 40 and len(test_ids) == 20


class TestLabels:
    def test_majority_wins(self):
        labels = [SarcasmLabel(a, "r1", True) for a in "abc"]
        labels.append(SarcasmLabel("d", "r1", False))
        assert resolve_labels(labels) == {"r1": True}

    def test_tie_resolves_to_non_sarcastic(self):
        labels = [SarcasmLabel(a, "r1", v)
                  for v, a in [(True, "a"), (True, "b"), (False, "c"), (False, "d")]]
        assert resolve_labels(labels) == {"r1": False}

    def test_last_vote_per_annotator_wins(self):
        labels = [
            SarcasmLabel("a", "r1", False),
            SarcasmLabel("b", "r1", False),
            SarcasmLabel("a", "r1", True),
            SarcasmLabel("b", "r1", True),
            SarcasmLabel("c", "r1", True),
        ]
        assert resolve_labels(labels) == {"r1": True}

    def test_label_reviews_drops_unlabeled(self):
        reviews = [Review("r1", 1, "a"), Review("r2", 1, "b")]
        labeled = label_reviews(reviews, [SarcasmLabel("a", "r1", True)])
        assert [lr.review.review_id for lr in labeled] == ["r1"]
        assert labeled[0].sarcastic

    def test_iter_labels_validation(self):
        lines = [
            json.dumps({"review_id": "r1", "sarcastic": True, "annotator": "a"}),
            json.dumps({"review_id": "r1", "sarcastic": "yes", "annotator": "a"}),
            json.dumps({"review_id": "r1", "annotator": "a"}),
        ]
        labels, errors = parse_votes(lines)
        assert len(labels) == 1
        assert [e.line_number for e in errors] == [2, 3]


# About 70 annotators, so that a review's vote bits pass 64 bits, and votes
# on r7, which VOTED_REVIEWS lacks, beside its reviews with no votes (r0, r4).
ANNOTATORS = [f"annotator-{i}" for i in range(70)]
VOTES = st.lists(st.builds(SarcasmLabel, st.sampled_from(ANNOTATORS),
                           st.sampled_from(["r1", "r2", "r3", "r7"]), st.booleans()),
                 max_size=120)
VOTED_REVIEWS = [Review(f"r{i}", 1 + i % 5, f"text {i}") for i in range(5)]


def many_annotator_votes(n_annotators=3000, n_votes=20_000, seed=3000):
    """Seeded votes on r0-r39 by n_annotators, each voting first in turn.

    About one vote in thirteen repeats a (review, annotator) pair, and
    about half of those change that annotator's earlier vote.
    """
    rng = random.Random(seed)
    names = [f"annotator-{i}" for i in range(n_annotators)]
    # By keyword: the seeded draws run in this order.
    return [SarcasmLabel(review_id=f"r{rng.randrange(40)}", sarcastic=rng.random() < 0.5,
                         annotator=names[i] if i < n_annotators else rng.choice(names))
            for i in range(n_votes)]


class TestTallyMatchesReference:
    """The one-pass tally gives the two-loop resolve_labels' result, in its order."""

    @settings(max_examples=300)
    @given(VOTES)
    @example([SarcasmLabel("a", "r1", True), SarcasmLabel("b", "r1", False)])
    @example([SarcasmLabel("a", "r1", True), SarcasmLabel("a", "r1", False),
              SarcasmLabel("b", "r2", True), SarcasmLabel("b", "r2", True)])
    @example([SarcasmLabel(name, "r2", False) for name in ANNOTATORS]
             + [SarcasmLabel(name, "r2", True) for name in ANNOTATORS[:36]]
             + [SarcasmLabel(name, "r2", False) for name in ANNOTATORS[1:36]])
    def test_resolve_labels(self, votes):
        expected = list(reference_corpus.resolve_labels(votes).items())
        assert list(resolve_labels(votes).items()) == expected
        assert list(resolve_labels(vote for vote in votes).items()) == expected

    @settings(max_examples=300)
    @given(VOTES)
    def test_label_reviews(self, votes):
        resolved = reference_corpus.resolve_labels(votes)
        expected = [LabeledReview(review, resolved[review.review_id])
                    for review in VOTED_REVIEWS if review.review_id in resolved]
        assert label_reviews(VOTED_REVIEWS, votes) == expected
        assert label_reviews(VOTED_REVIEWS, (vote for vote in votes)) == expected

    def test_three_thousand_annotators(self):
        votes = many_annotator_votes()
        resolved = reference_corpus.resolve_labels(votes)
        assert list(resolve_labels(iter(votes)).items()) == list(resolved.items())
        reviews = [Review(f"r{i}", 1, "text") for i in range(0, 60, 3)]
        assert label_reviews(reviews, iter(votes)) == [
            LabeledReview(review, resolved[review.review_id])
            for review in reviews if review.review_id in resolved]


class TestTallyMemory:
    """The tally holds about one int and one dict slot per review, not a dict of votes."""

    N_REVIEWS = 20_000
    BYTES_PER_REVIEW = 150

    def votes(self):
        """Four annotators' votes on each review, made one at a time, each with its
        own review_id string, as ``iter_labels`` yields them."""
        for i in range(self.N_REVIEWS):
            for k, annotator in enumerate(("a0", "a1", "a2", "a3")):
                yield SarcasmLabel(annotator, f"review-{i:06d}", (i + k) % 3 == 0)

    @pytest.mark.parametrize("tally", ["resolve_labels", "label_reviews"])
    def test_peak_per_review(self, tally):
        reviews = [Review(f"review-{i:06d}", 1 + i % 5, "text")
                   for i in range(self.N_REVIEWS)]
        call = {"resolve_labels": lambda: resolve_labels(self.votes()),
                "label_reviews": lambda: label_reviews(reviews, self.votes())}[tally]
        tracemalloc.start()
        try:
            result = call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(result) == self.N_REVIEWS
        assert peak / self.N_REVIEWS < self.BYTES_PER_REVIEW


class TestIterLabels:
    def test_yields_each_vote_before_reading_the_next_line(self):
        read = []

        def lines():
            for review_id in ("r1", "r2"):
                read.append(review_id)
                yield label_line(review_id=review_id)

        votes = iter_labels(lines(), [])
        assert next(votes).review_id == "r1"
        assert read == ["r1"]


class TestLoneSurrogates:
    """A \\u escape that decodes to a lone surrogate costs its line."""

    def test_review_fields(self):
        lines = [r'{"review_id": "a\udcff", "stars": 1, "text": "ok"}',
                 r'{"review_id": "b", "stars": 1, "text": "caf\ud800"}',
                 r'{"review_id": "c", "stars": 1, "text": "\ud83d\ude00 \u00e9"}']
        reviews, errors = parse_review_stream(lines)
        assert reviews == [Review("c", 1, "\U0001f600 é")]
        assert errors == [ParseError(1, "review_id holds a lone surrogate"),
                          ParseError(2, "text holds a lone surrogate")]

    def test_label_fields(self):
        lines = [r'{"review_id": "r\udfff", "sarcastic": true, "annotator": "a"}',
                 r'{"review_id": "r1", "sarcastic": true, "annotator": "\ud800x"}',
                 r'{"review_id": "r1", "sarcastic": true, "annotator": "\ud800\udc00"}']
        labels, errors = parse_votes(lines)
        assert labels == [SarcasmLabel("\U00010000", "r1", True)]
        assert errors == [ParseError(1, "review_id holds a lone surrogate"),
                          ParseError(2, "annotator holds a lone surrogate")]


class TestFiles:
    def test_review_file_round_trip(self, tmp_path):
        reviews = [Review("r1", 2, "café was ok…"), Review("r2", 5, "great!")]
        path = tmp_path / "reviews.jsonl"
        write_reviews(path, reviews)
        loaded, errors = read_reviews(path)
        assert errors == []
        assert loaded == reviews

    def test_split_manifest_round_trip(self, tmp_path):
        split = make_split(make_pool(30), 20, 10, seed=5)
        path = tmp_path / "split.json"
        write_split_manifest(path, split, provenance={"seed": 5})
        manifest = json.loads(path.read_text(encoding="utf-8"))
        assert manifest["stars"] == 1
        assert manifest["train_n"] == 20
        assert manifest["test_n"] == 10
        assert manifest["train_review_ids"] == [lr.review.review_id for lr in split.train]
        assert manifest["provenance"] == {"seed": 5}

    def test_split_manifest_holds_every_field(self, tmp_path):
        split = make_split(make_pool(30, stars=4), 20, 10, seed=8)
        path = tmp_path / "split.json"
        write_split_manifest(path, split, {"seed": 8})
        manifest = json.loads(path.read_text(encoding="utf-8"))
        assert manifest == {
            "stars": 4,
            "seed": 8,
            "train_n": 20,
            "test_n": 10,
            "train_review_ids": [lr.review.review_id for lr in split.train],
            "test_review_ids": [lr.review.review_id for lr in split.test],
            "provenance": {"seed": 8},
        }


def label_line(review_id="r1", sarcastic=True, annotator="a", **extra):
    return json.dumps({"review_id": review_id, "sarcastic": sarcastic,
                       "annotator": annotator, **extra})


def vote_line(review_id="r1", sarcastic=True, annotator="a", ensure_ascii=True, end=""):
    """A vote line in the writer's own form: sorted keys, default separators."""
    return json.dumps({"review_id": review_id, "sarcastic": sarcastic, "annotator": annotator},
                      ensure_ascii=ensure_ascii, sort_keys=True) + end


# Characters at the edges of a line: JSON's own whitespace, the BOM, and
# characters that str.strip() removes but JSON does not accept.
EDGE_CHARS = " \t\r\n\ufeff\x0b\xa0\x85\u2028"
EDGE_WHITESPACE = ("", "\r\n", *EDGE_CHARS)

JSON_FRAGMENTS = ("{", "}", "[", "]", '"', ":", ",", " ", "null", "true", "false", "1",
                  "5.0", "-0", "1e3", "NaN", '"review_id"', '"stars"', '"text"',
                  '"sarcastic"', '"annotator"', '"x"', "\\", "\\u00e9", "\\ud800",
                  *EDGE_WHITESPACE)

FIELD_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-1, 7),
    st.sampled_from([1.0, 5.0, 2.5, 1e308, float("nan"), float("inf")]),
    st.sampled_from(["", " ", "a", "b", "r1", "ok food"]),
    # Lone surrogates, outside the range that marks an undecodable byte.
    st.sampled_from(["a\ud800", "\udbff\u00e9", "\udfff"]),
    st.text(st.characters(codec="utf-8"), max_size=6),
    st.lists(st.integers(0, 3), max_size=2),
)


def _pick(*strategies):
    """Draw from one of strategies, each equally likely.

    st.one_of flattens nested one_of branches and weighs them all alike,
    which would starve a single strategy listed beside a seven-way one.
    """
    return st.sampled_from(strategies).flatmap(lambda strategy: strategy)


def _field(valid):
    """Mostly valid values for one field, else anything a field may hold."""
    return _pick(valid, valid, valid, FIELD_VALUES)


REVIEW_FIELDS = {"review_id": _field(st.sampled_from(["r1", "r2", "é"])),
                 "stars": _field(st.sampled_from([1, 2, 3, 4, 5, 5.0])),
                 "text": _field(st.text(st.characters(codec="utf-8"), min_size=1))}
LABEL_FIELDS = {"review_id": REVIEW_FIELDS["review_id"],
                "sarcastic": _field(st.booleans()),
                "annotator": _field(st.sampled_from(["a", "b"]))}
EDGE = st.just("") | st.sampled_from(EDGE_WHITESPACE)  # half the records unpadded


def _json_line(pre, record, ensure_ascii, post):
    return pre + json.dumps(record, ensure_ascii=ensure_ascii) + post


RECORD_LINES = st.builds(
    _json_line,
    EDGE,
    _pick(
        st.fixed_dictionaries(REVIEW_FIELDS, optional={"extra": FIELD_VALUES}),
        st.fixed_dictionaries(LABEL_FIELDS, optional={"extra": FIELD_VALUES}),
        st.dictionaries(st.sampled_from([*REVIEW_FIELDS, *LABEL_FIELDS]), FIELD_VALUES,
                        max_size=5),
        FIELD_VALUES,
    ),
    st.booleans(),
    EDGE,
)

# Strings at the edges of _VOTE_LINE's character class: the quote and the
# backslash, which the writer escapes; the controls just below and above
# printable ASCII; a non-ASCII letter; and the empty string.
VOTE_EDGE_STRINGS = ('"', "\\", "\x1f", "\x7f", "é", "")
PRINTABLE_ASCII = st.text(st.characters(min_codepoint=0x20, max_codepoint=0x7e),
                          min_size=1, max_size=8)
VOTE_STRINGS = _pick(PRINTABLE_ASCII, PRINTABLE_ASCII, PRINTABLE_ASCII,
                     st.sampled_from(VOTE_EDGE_STRINGS), FIELD_VALUES)

# Votes in the writer's key order, most of them in the form _VOTE_LINE
# takes; RECORD_LINES keeps each dictionary's own key order.
VOTE_LINES = st.builds(vote_line, VOTE_STRINGS, _field(st.booleans()), VOTE_STRINGS,
                       st.booleans(), _pick(st.just(""), st.just("\n"), EDGE))

LINE = _pick(
    RECORD_LINES,
    RECORD_LINES,
    VOTE_LINES,
    st.tuples(RECORD_LINES, st.integers(0, 40)).map(lambda t: t[0][:t[1]]),
    st.lists(st.sampled_from(JSON_FRAGMENTS), max_size=8).map("".join),
    st.text(st.sampled_from(EDGE_CHARS) | st.characters(codec="utf-8"), max_size=20),
)

# Lines the reference cannot take as well: surrogate escapes, values
# nested past the scanner's recursion limit, integers too long to convert.
HOSTILE_LINE = st.one_of(
    LINE,
    st.text(st.characters(), max_size=20),
    st.integers(0, 5000).map(lambda n: "[" * n),
    st.integers(0, 5000).map(lambda n: '{"text": ' * n),
    st.integers(4000, 5000).map(lambda n: '{"stars": ' + "1" * n + "}"),
)


def non_blank(lines):
    return sum(1 for line in lines if line.strip())


def vote_edge_examples(test):
    """Add one @example per VOTE_EDGE_STRINGS value, and one of CRLF-ended votes.

    Each places the value in both string fields, between votes that
    _VOTE_LINE takes, so that the line numbers of both paths interleave.
    """
    for value in VOTE_EDGE_STRINGS:
        test = example([vote_line(), vote_line(annotator=value),
                        vote_line(review_id=value, ensure_ascii=False),
                        vote_line(review_id="r2", sarcastic=False)])(test)
    return example([vote_line(end="\r\n"), vote_line(review_id="r2", end="\n"),
                    vote_line(review_id="r3", annotator="b", end="\r\n")])(test)


class TestMatchesReferenceParsers:
    """The parsers give the json.loads loops' records and errors."""

    @settings(max_examples=500)
    @given(st.lists(LINE, max_size=12))
    @example([review_line(), review_line(), "\ufeff" + review_line(review_id="r2"),
              " \ufeff{}", "{}\xa0", "\x0b", "{} x", '{"a": 1}\n{"b": 2}', '"\r\n'])
    @example([label_line(), label_line(sarcastic=1), "\ufeff\ufeff", "\r\n", "[1] ",
              label_line(annotator="")])
    @example([r'{"review_id": "a\udcff", "stars": 1, "text": "ok"}',
              r'{"review_id": "b", "stars": 1, "text": "\ud800"}',
              r'{"review_id": "r\udfff", "sarcastic": true, "annotator": "a"}',
              r'{"review_id": "r1", "sarcastic": true, "annotator": "\ud800x"}'])
    @vote_edge_examples
    def test_reviews_and_labels(self, lines):
        assert parse_review_stream(lines) == reference_corpus.parse_review_stream(lines)
        assert parse_votes(lines) == reference_corpus.parse_label_stream(lines)

    @settings(max_examples=300)
    @given(st.lists(LINE, max_size=12))
    @example([review_line() + "\n", review_line(review_id="r2") + " \n",
              review_line(review_id="r3") + "\r\n", "null\n", "[]\n", '"x"\n',
              " " + review_line(review_id="r4"),
              '{"review_id": "r5", "stars": 4, "text": "café ☕"}\n',
              review_line(review_id="r6")])
    @example([label_line() + "\n", label_line(review_id="r2") + " \n",
              label_line(review_id="r3") + "\r\n", "null\n", "[]\n", '"x"\n',
              " " + label_line(review_id="r4"),
              '{"review_id": "r5", "sarcastic": false, "annotator": "zoë"}\n',
              label_line(review_id="r6")])
    @vote_edge_examples
    def test_file_lines(self, tmp_path_factory, lines):
        """The readers take each line of a file as the reference parsers do.

        A file's lines carry their newline (CRLF read as LF), which the
        ``_VOTE_LINE`` match allows for, and its last line may have none.
        """
        self.check_file_lines(tmp_path_factory, lines)

    @settings(max_examples=300)
    @given(st.lists(LINE, max_size=12))
    @vote_edge_examples
    def test_file_lines_in_tiny_blocks(self, tmp_path_factory, lines):
        """The same, with blocks of 3 characters: nearly every line is a block of its own."""
        with block_size(3):
            self.check_file_lines(tmp_path_factory, lines)

    @settings(max_examples=300)
    @given(st.lists(LINE, max_size=12))
    @vote_edge_examples
    def test_file_lines_in_runs(self, tmp_path_factory, lines):
        """The same, with blocks of 160 characters probed at their first line
        only: other lines among writer-form ones are cut out as runs."""
        with block_size(160, probes=1):
            self.check_file_lines(tmp_path_factory, lines)

    @staticmethod
    def check_file_lines(tmp_path_factory, lines):
        path = tmp_path_factory.mktemp("lines") / "corpus.jsonl"
        # A lone surrogate cannot be written as UTF-8; its \\u escape stands
        # for it, and in a JSON string means the same.
        path.write_bytes("\n".join(lines).encode("utf-8", "backslashreplace"))
        with open_jsonl(path) as fh:
            file_lines = fh.readlines()
        expected_votes = reference_corpus.parse_label_stream(file_lines)
        with open_jsonl(path) as fh:
            assert parse_votes(fh) == expected_votes
        assert read_reviews(path) == reference_corpus.parse_review_stream(file_lines)
        assert read_votes(path) == expected_votes

    def test_bundled_minicorpus(self, minicorpus_dir):
        for name, parse, reference in (
                ("reviews.jsonl", parse_review_stream, reference_corpus.parse_review_stream),
                ("labels.jsonl", parse_votes, reference_corpus.parse_label_stream)):
            lines = (minicorpus_dir / name).read_text(encoding="utf-8").splitlines()
            records, errors = parse(lines)
            assert (records, errors) == reference(lines)
            assert len(records) in (500, 2000) and errors == []


class TestParsersNeverRaise:
    @settings(max_examples=500)
    @given(st.lists(HOSTILE_LINE, max_size=12))
    def test_every_non_blank_line_is_a_record_or_an_error(self, lines):
        for records, errors in (parse_review_stream(lines), parse_votes(lines)):
            assert len(records) + len(errors) == non_blank(lines)


class TestLineReader:
    def test_deep_nesting_costs_one_review(self):
        lines = [review_line(review_id="a"), "[" * 200_000, review_line(review_id="b")]
        reviews, errors = parse_review_stream(lines)
        assert [r.review_id for r in reviews] == ["a", "b"]
        assert errors == [ParseError(2, "invalid JSON: nested too deeply")]

    def test_deep_nesting_costs_one_label(self):
        lines = ['{"review_id": ' * 200_000, label_line()]
        labels, errors = parse_votes(lines)
        assert labels == [SarcasmLabel("a", "r1", True)]
        assert errors == [ParseError(1, "invalid JSON: nested too deeply")]

    def test_integer_too_long_to_convert_costs_one_record(self):
        lines = [review_line(), '{"review_id": "r2", "stars": ' + "3" * 5000 + "}"]
        reviews, errors = parse_review_stream(lines)
        assert len(reviews) == 1
        assert [e.line_number for e in errors] == [2]
        assert errors[0].reason.startswith("invalid JSON: Exceeds the limit")

    def test_surrogate_escape_is_invalid_utf8(self):
        lines = ['{"review_id": "r1", "sarcastic": true, "annotator": "a\udcff"}',
                 label_line()]
        labels, errors = parse_votes(lines)
        assert labels == [SarcasmLabel("a", "r1", True)]
        assert errors == [ParseError(1, "invalid UTF-8")]

    def test_json_reasons(self):
        lines = ["\ufeff" + review_line(), review_line() + " x", "{", "[]",
                 json.dumps({"stars": 2})]
        _, errors = parse_review_stream(lines)
        assert [e.reason for e in errors] == [
            "invalid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig)",
            "invalid JSON: Extra data",
            "invalid JSON: Expecting property name enclosed in double quotes",
            "record is not an object",
            "missing field: review_id, text",
        ]


# Arbitrary bytes, and strings of JSON fragments, undecodable bytes, line ends and BOMs.
GARBAGE = (st.binary(max_size=64)
           | st.lists(st.sampled_from([b"{", b"}", b"[", b"]", b'"review_id"', b":", b",",
                                       b"1", b"null", b"\xff", b"\xc3", b" ", b"\r",
                                       b"\n", b"\x0b", b"\xef\xbb\xbf"]),
                      max_size=12).map(b"".join))


class TestInvalidUtf8File:
    def test_read_reviews_drops_only_the_bad_line(self, tmp_path):
        path = tmp_path / "reviews.jsonl"
        path.write_bytes(b"\n".join([
            review_line(review_id="a").encode(),
            b'{"review_id": "b", "stars": 2, "text": "caf\\xe9 \xff"}',
            review_line(review_id="c", text="café").encode(),
        ]) + b"\n")
        reviews, errors = read_reviews(path)
        assert [(r.review_id, r.text) for r in reviews] == [("a", "ok food"), ("c", "café")]
        assert errors == [ParseError(2, "invalid UTF-8")]

    def test_labels_file_drops_only_the_bad_line(self, tmp_path):
        path = tmp_path / "labels.jsonl"
        path.write_bytes(label_line().encode() + b"\r\n\xc3(\r"
                         + label_line(review_id="r2").encode() + b"\r\n")
        with open_jsonl(path) as fh:
            labels, errors = parse_votes(fh)
        assert [label.review_id for label in labels] == ["r1", "r2"]
        assert errors == [ParseError(2, "invalid UTF-8")]

    @settings(max_examples=200)
    @given(content=GARBAGE)
    def test_arbitrary_bytes_never_raise(self, tmp_path_factory, content):
        self.check_garbage(tmp_path_factory, content)

    @settings(max_examples=200)
    @given(content=GARBAGE)
    def test_arbitrary_bytes_in_tiny_blocks(self, tmp_path_factory, content):
        with block_size(2):
            self.check_garbage(tmp_path_factory, content)

    @staticmethod
    def check_garbage(tmp_path_factory, content):
        """Every non-blank line of content is one record or one error, and the
        block readers give the per-line parsers' results."""
        path = tmp_path_factory.mktemp("garbage") / "corpus.jsonl"
        path.write_bytes(content)
        with open_jsonl(path) as fh:
            lines = fh.readlines()
        with open_jsonl(path) as fh:
            votes = parse_votes(fh)
        reviews, block_votes = read_reviews(path), read_votes(path)
        for records, errors in (reviews, votes, block_votes):
            assert len(records) + len(errors) == non_blank(lines)
        assert block_votes == votes
        with open_jsonl(path) as fh:
            assert reviews == parse_review_stream(fh)


def writer_review(review_id, text="ok food", stars=2):
    return json.dumps({"review_id": review_id, "stars": stars, "text": text},
                      ensure_ascii=False, sort_keys=True)


def boundary_file(path) -> None:
    """Write a file of review and vote lines whose ends and contents test the block cuts.

    Line 15's CR is the last byte of the first 8,192: the end of a read
    of 1, 2 or 64 bytes, and of a chunk a text file decodes, so its CRLF
    is cut there too.
    """
    head = "".join([
        "\ufeff" + writer_review("r0") + "\n",            # 1: a BOM on line 1
        writer_review("r1") + "\r\n",                     # 2
        vote_line("r1", annotator="a") + "\r\n",          # 3
        vote_line("r1", annotator="b") + "\r",            # 4: a lone CR
        writer_review("r2") + "\n",                       # 5
        "\n",                                             # 6: blank
        writer_review("r3", "a\u2028b") + "\n",           # 7: no line break
        writer_review("r4", "c\x85d") + "\n",             # 8: nor this
        writer_review("r5", "e\x0cf").replace("\\f", "\x0c") + "\n",  # 9: a raw form feed
        vote_line("r3", annotator="a") + "\n",            # 10
        "{}\n",                                           # 11
        vote_line("r4", False, annotator="a") + "\n",     # 12
        writer_review("r1") + "\n",                       # 13: a duplicate id
        "null\n",                                         # 14
    ]).encode()
    long_review = writer_review("r6", "x" * (8191 - len(head) - len(writer_review("r6", ""))))
    path.write_bytes(head + (long_review + "\r\n").encode()
                     + writer_review("r7").encode())  # 15, then 16: no newline


class TestBlockReader:
    """The block readers give the per-line parsers' records and errors, wherever blocks are cut."""

    REVIEWS = ["r1", "r2", "r3", "r4", "r6", "r7"]
    REVIEW_ERRORS = [
        ParseError(1, "invalid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig)"),
        ParseError(3, "missing field: stars, text"),
        ParseError(4, "missing field: stars, text"),
        ParseError(9, "invalid JSON: Invalid control character at"),
        ParseError(10, "missing field: stars, text"),
        ParseError(11, "missing field: review_id, stars, text"),
        ParseError(12, "missing field: stars, text"),
        ParseError(13, "duplicate review_id: r1"),
        ParseError(14, "record is not an object"),
    ]
    VOTES = [SarcasmLabel("a", "r1", True), SarcasmLabel("b", "r1", True),
             SarcasmLabel("a", "r3", True), SarcasmLabel("a", "r4", False)]
    VOTE_ERRORS = [
        ParseError(1, "invalid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig)"),
        *(ParseError(n, "missing field: sarcastic, annotator") for n in (2, 5, 7, 8)),
        ParseError(9, "invalid JSON: Invalid control character at"),
        ParseError(11, "missing field: review_id, sarcastic, annotator"),
        ParseError(13, "missing field: sarcastic, annotator"),
        ParseError(14, "record is not an object"),
        *(ParseError(n, "missing field: sarcastic, annotator") for n in (15, 16)),
    ]

    @pytest.mark.parametrize("block, probes", [(1, None), (2, None), (7, None), (64, None),
                                               (64, 1), (200, 1), (corpus._BLOCK_SIZE, None)])
    def test_boundary_file(self, tmp_path, block, probes):
        path = tmp_path / "corpus.jsonl"
        boundary_file(path)
        with block_size(block, probes):
            reviews, review_errors = read_reviews(path)
            votes = read_votes(path)
        assert [r.review_id for r in reviews] == self.REVIEWS
        assert reviews[2:4] == [Review("r3", 2, "a\u2028b"), Review("r4", 2, "c\x85d")]
        assert review_errors == self.REVIEW_ERRORS
        assert votes == (self.VOTES, self.VOTE_ERRORS)
        with open_jsonl(path) as fh:
            assert (reviews, review_errors) == parse_review_stream(fh)
        with open_jsonl(path) as fh:
            assert votes == parse_votes(fh)

    def test_runs_of_a_mixed_block(self, tmp_path):
        """A block whose probed line is in the writers' form is cut at its other
        lines, and the findall's rows fill the runs of form lines."""
        path = tmp_path / "corpus.jsonl"
        for forms, form_lines, rows, read, parse in (
                (REVIEW_FORMS, [writer_review(f"r{i % 3}") for i in range(4)],
                 ("r0", "2", "ok food"), read_reviews, parse_review_stream),
                (VOTE_FORMS, [vote_line(f"r{i % 3}") for i in range(4)],
                 ("a", "r0", "t"), read_votes, parse_votes)):
            lines = [form_lines[0] + "\n", form_lines[0].replace("r0", "ré0") + "\n", "\n",
                     form_lines[1] + "\n", form_lines[3] + "\n", "{}\n",
                     form_lines[2]]  # no newline: a block of its own, once the file ends
            path.write_text("".join(lines), encoding="utf-8")
            with block_size(corpus._BLOCK_SIZE, probes=1), open(path, "rb") as fh:
                runs = list(_runs(fh, *forms))
            assert runs == [(1, [rows], None), (2, None, lines[1:3]),
                            (4, [tuple(x.replace("r0", "r1") for x in rows), rows], None),
                            (6, None, lines[5:6]),
                            (7, [tuple(x.replace("r0", "r2") for x in rows)], None)]
            with block_size(corpus._BLOCK_SIZE, probes=1):
                assert read(path) == parse(lines)
            assert read(path)[1][-1] == ParseError(6, "missing field: " + (
                "review_id, stars, text" if read is read_reviews
                else "review_id, sarcastic, annotator"))

    @pytest.mark.parametrize("other", [None, 0, 5, 7])
    def test_probes_send_a_block_whole(self, tmp_path, other):
        """The probes fall on each of eight lines of one length: one of them in
        another form sends the block line by line, whole."""
        path = tmp_path / "reviews.jsonl"
        lines = [writer_review(f"r{i}") + "\n" for i in range(8)]
        if other is not None:
            lines[other] = writer_review(f"r{other}", "ok foöd") + "\n"
        path.write_text("".join(lines), encoding="utf-8")
        with open(path, "rb") as fh:
            runs = list(_runs(fh, *REVIEW_FORMS))
        if other is None:
            assert runs == [(1, [(f"r{i}", "2", "ok food") for i in range(8)], None)]
        else:
            assert runs == [(1, None, lines)]

    @pytest.mark.parametrize("block", [1, 2, 7, 64])
    def test_duplicate_id_in_another_block(self, tmp_path, block):
        path = tmp_path / "reviews.jsonl"
        lines = [writer_review(f"r{i}") for i in range(12)] + [writer_review("r3", "again")]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with block_size(block):
            reviews, errors = read_reviews(path)
        assert [r.review_id for r in reviews] == [f"r{i}" for i in range(12)]
        assert errors == [ParseError(13, "duplicate review_id: r3")]

    def test_blocks_split_at_newlines_only(self):
        text = "a\u2028b\x85c\x0cd\x1c\ne\n\nfg\nh"
        with block_size(8):
            blocks = list(_line_blocks(io.BytesIO(text.encode())))
        # Reads of 8 bytes: "a\u2028b\x85c", "\x0cd\x1c\ne\n\nf", "g\nh".
        assert blocks == [(1, "a\u2028b\x85c\x0cd\x1c\ne\n\n"), (4, "fg\n"), (5, "h")]

    @settings(max_examples=200, deadline=None)
    @given(pieces=st.lists(st.sampled_from(
        ["ok", " ", "\n", "\r", "\r\n", "\xe9", "\U0001f600", "\u2028", "!!", b"\xff", b"\xc3"]),
        max_size=40), size=st.integers(1, 9))
    def test_blocks_give_the_lines_a_text_stream_gives(self, pieces, size):
        """Whatever bytes each read ends on, the blocks hold the lines, numbers and
        characters that iterating ``open_jsonl``'s text stream over the same bytes
        gives: split at "\\n", "\\r\\n" and a lone "\\r", whatever the input.
        The hash is fed every byte read, in order."""
        data = b"".join(p if isinstance(p, bytes) else p.encode() for p in pieces)
        oracle = io.TextIOWrapper(io.BytesIO(data), **corpus._DECODING)
        digest = hashlib.sha256()
        with block_size(size):
            blocks = list(_line_blocks(io.BytesIO(data), digest))
        assert [(number, line) for first, block in blocks
                for number, line in enumerate(io.StringIO(block, newline="\n"), start=first)
                ] == list(enumerate(oracle, 1))
        assert all(block.endswith("\n") for _, block in blocks[:-1])
        assert all(block for _, block in blocks)
        assert digest.hexdigest() == hashlib.sha256(data).hexdigest()

    def test_votes_are_read_one_block_at_a_time(self, tmp_path):
        """The first vote costs one read of the file; its errors are in by then."""
        path = tmp_path / "labels.jsonl"
        lines = ["{}", *(vote_line(f"r{i}") for i in range(50))]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        errors = []
        read = []

        class CountedFile:
            def __init__(self, fh):
                self.fh = fh

            def read1(self, size):
                read.append(self.fh.read1(size))
                return read[-1]

        with block_size(256), open(path, "rb") as fh:
            votes = _read_votes(CountedFile(fh), errors)
            assert next(votes) == ("a", "r0", True)
            assert errors == [ParseError(1, "missing field: review_id, sarcastic, annotator")]
            assert len(read) == 1 and len(read[0]) == 256

    def test_lines_reach_the_parsers_with_their_newline(self, tmp_path):
        """The scanner sees each line's "\\n", which changes this line's reason."""
        unterminated = ParseError(2, "invalid JSON: Unterminated string starting at")
        control = ParseError(1, "invalid JSON: Invalid control character at")
        assert _decode_line('{"review_id": "x') == (None, unterminated.reason)
        assert _decode_line('{"review_id": "x\n') == (None, control.reason)
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"review_id": "x\n{"review_id": "x', encoding="utf-8")
        assert read_reviews(path) == ([], [control, unterminated])
        assert read_votes(path) == ([], [control, unterminated])


class TestRecordTypes:
    def test_records_are_immutable(self):
        review = Review("r1", 3, "ok")
        with pytest.raises(AttributeError):
            review.stars = 4
        with pytest.raises(AttributeError):
            LabeledReview(review, True).sarcastic = False

    def test_field_order(self):
        assert Review._fields == ("review_id", "stars", "text")
        assert SarcasmLabel._fields == ("annotator", "review_id", "sarcastic")
        assert LabeledReview._fields == ("review", "sarcastic")
        assert ParseError._fields == ("line_number", "reason")


# The strings _VOTE_LINE takes: printable ASCII but the quote and the backslash.
VOTE_LINE_STRINGS = st.text(st.characters(min_codepoint=0x20, max_codepoint=0x7e,
                                          exclude_characters='"\\'), min_size=1)


# The patterns of each reader's runs: its writers' form, line by line and in runs.
REVIEW_FORMS = (re.compile(_REVIEW_LINES), re.compile(_REVIEW_RUNS))
VOTE_FORMS = (re.compile(_VOTE_LINES), re.compile(_VOTE_RUNS))


def all_in_writer_form(path, forms) -> bool:
    """Whether every block the readers cut from the file is one run taken by one findall."""
    with open(path, "rb") as fh:
        return all(text is None for _, _, text in _runs(fh, *forms))


class TestWriters:
    def test_review_bytes(self, tmp_path):
        path = tmp_path / "reviews.jsonl"
        write_reviews(path, [Review("r1", 2, "café…")])
        assert path.read_bytes() == \
            '{"review_id": "r1", "stars": 2, "text": "café…"}\n'.encode()

    def test_labels_write_then_append(self, tmp_path):
        path = tmp_path / "labels.jsonl"
        path.write_text("stale\n")
        write_labels(path, [SarcasmLabel("a", "r1", True)])
        append_labels(path, [SarcasmLabel("b", "r1", False)])
        assert path.read_text() == (
            '{"annotator": "a", "review_id": "r1", "sarcastic": true}\n'
            '{"annotator": "b", "review_id": "r1", "sarcastic": false}\n')
        with open_jsonl(path) as fh:
            labels, errors = parse_votes(fh)
        assert errors == []
        assert labels == [SarcasmLabel("a", "r1", True), SarcasmLabel("b", "r1", False)]

    def test_a_vote_has_one_field_order(self, tmp_path):
        """A written vote's keys, its findall row, its record and what the readers
        unpack it to all list its fields in one order."""
        path = tmp_path / "labels.jsonl"
        write_labels(path, [SarcasmLabel(annotator="ann", review_id="rev", sarcastic=True)])
        line = path.read_text()
        record = json.loads(line)
        fields = tuple(record.values())
        assert tuple(record) == SarcasmLabel._fields
        assert re.findall(_VOTE_LINES, line) == [(*fields[:2], "t")]
        with open_jsonl(path) as fh:
            ((annotator, review_id, sarcastic),) = iter_labels(fh, [])
        assert (annotator, review_id, sarcastic) == fields
        with open(path, "rb") as fh:
            ((annotator, review_id, sarcastic),) = _read_votes(fh, [])
        assert (annotator, review_id, bool(sarcastic)) == fields

    @settings(max_examples=200)
    @given(st.lists(st.builds(SarcasmLabel, VOTE_LINE_STRINGS, VOTE_LINE_STRINGS, st.booleans()),
                    max_size=6),
           st.integers(0, 6))
    def test_every_vote_written_takes_the_fast_path(self, tmp_path_factory, votes, cut):
        """A writer whose separators or key order drift fails here, not only in speed."""
        path = tmp_path_factory.mktemp("votes") / "labels.jsonl"
        write_labels(path, votes[:cut])
        append_labels(path, votes[cut:])
        with open_jsonl(path) as fh:
            lines = fh.readlines()
        assert len(lines) == len(votes)
        assert all(re.fullmatch(_VOTE_LINE, line) for line in lines)
        assert all_in_writer_form(path, VOTE_FORMS)
        with open_jsonl(path) as fh:
            assert parse_votes(fh) == (votes, [])
        assert read_votes(path) == (votes, [])

    @settings(max_examples=200)
    @given(st.lists(st.builds(Review, VOTE_LINE_STRINGS, st.sampled_from((1, 2, 3, 4, 5)),
                              VOTE_LINE_STRINGS | st.sampled_from(["", " ", "  "])),
                    max_size=6))
    def test_every_review_written_takes_the_fast_path(self, tmp_path_factory, reviews):
        """Blank texts and repeated ids too: their checks run on the fast path."""
        path = tmp_path_factory.mktemp("reviews") / "reviews.jsonl"
        write_reviews(path, reviews)
        assert all_in_writer_form(path, REVIEW_FORMS)
        with open_jsonl(path) as fh:
            assert read_reviews(path) == parse_review_stream(fh)

    def test_minicorpus_votes_take_the_fast_path(self, minicorpus_dir):
        with open_jsonl(minicorpus_dir / "labels.jsonl") as fh:
            lines = fh.readlines()
        assert len(lines) == 2000
        assert all(re.fullmatch(_VOTE_LINE, line) for line in lines)
        assert all_in_writer_form(minicorpus_dir / "labels.jsonl", VOTE_FORMS)
        # The edge examples of the differential tests are built on this line.
        assert re.fullmatch(_VOTE_LINE, vote_line())

    def test_minicorpus_reviews_take_the_fast_path(self, minicorpus_dir):
        assert all_in_writer_form(minicorpus_dir / "reviews.jsonl", REVIEW_FORMS)

    @pytest.mark.parametrize("seed", [1, 8801])
    def test_generated_corpus_takes_the_fast_path(self, tmp_path, seed):
        """A build_minicorpus corpus written as the benchmark writes its files."""
        reviews, _, labels = build_minicorpus(seed, 40)
        with open(tmp_path / "reviews.jsonl", "w", encoding="utf-8") as fh:
            for r in reviews:
                fh.write(json.dumps({"review_id": r.review_id, "stars": r.stars,
                                     "text": r.text}, ensure_ascii=False, sort_keys=True))
                fh.write("\n")
        with open(tmp_path / "labels.jsonl", "w", encoding="utf-8") as fh:
            for label in labels:
                fh.write(json.dumps({"review_id": label.review_id,
                                     "sarcastic": label.sarcastic,
                                     "annotator": label.annotator},
                                    ensure_ascii=False, sort_keys=True))
                fh.write("\n")
        assert all_in_writer_form(tmp_path / "reviews.jsonl", REVIEW_FORMS)
        assert all_in_writer_form(tmp_path / "labels.jsonl", VOTE_FORMS)
        assert read_reviews(tmp_path / "reviews.jsonl") == (reviews, [])
        assert read_votes(tmp_path / "labels.jsonl") == (labels, [])

    def test_append_ends_an_unterminated_last_line(self, tmp_path):
        path = tmp_path / "labels.jsonl"
        path.write_bytes(b'{"annotator": "a", "review_id": "r1", "sarcastic": true}')
        append_labels(path, [SarcasmLabel("b", "r1", False)])
        append_labels(path, [SarcasmLabel("b", "r2", True)])
        assert path.read_bytes() == (
            b'{"annotator": "a", "review_id": "r1", "sarcastic": true}\n'
            b'{"annotator": "b", "review_id": "r1", "sarcastic": false}\n'
            b'{"annotator": "b", "review_id": "r2", "sarcastic": true}\n')

    @pytest.mark.parametrize("content", [b"", b"\n", b"{}\r\n"])
    def test_append_adds_no_newline_after_a_whole_line(self, tmp_path, content):
        path = tmp_path / "labels.jsonl"
        path.write_bytes(content)
        append_labels(path, [SarcasmLabel("a", "r1", True)])
        assert path.read_bytes() == \
            content + b'{"annotator": "a", "review_id": "r1", "sarcastic": true}\n'
