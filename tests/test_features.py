"""Feature catalog, counting rules, normalization, and the dump format."""

import csv
import random
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sarcnet.features
from sarcnet.features import (
    N_FEATURES,
    FeatureCategory,
    FeatureCounts,
    FeatureKind,
    FeaturePipeline,
    catalog,
    extract_counts,
    feature_names,
    normalize,
    write_feature_dump,
    _tables,
)
from sarcnet.corpus import read_reviews
from sarcnet.lexicons import default_lexicons
from reference_text import EDGE_CHARS, reference_counts
from reference_text import normalize as reference_normalize


@pytest.fixture(scope="module")
def pipeline():
    return FeaturePipeline()


def counts_for(text):
    return extract_counts(text)


def chunk_table(lexicons=None):
    """The chunk table extract_counts fills for a lexicon set (default: the default set)."""
    return _tables(lexicons if lexicons is not None else default_lexicons())[1]


def minicorpus_texts(minicorpus_dir):
    reviews, _ = read_reviews(minicorpus_dir / "reviews.jsonl")
    assert len(reviews) == 500
    return [review.text for review in reviews]


class TestCatalog:
    def test_fifteen_descriptors(self):
        assert len(catalog()) == N_FEATURES == 15

    def test_ids_are_unique_and_sequential(self):
        assert [d.id for d in catalog()] == [f"f{i}" for i in range(1, 16)]

    def test_all_categories_present(self):
        assert {d.category for d in catalog()} == set(FeatureCategory)

    def test_single_flag_feature(self):
        flags = [d.id for d in catalog() if d.kind is FeatureKind.FLAG]
        assert flags == ["f6"]

    def test_names_match_vector_order(self):
        assert feature_names() == [d.name for d in catalog()]


class TestExtractCounts:
    def test_interjection_sentence_fixture(self):
        c = counts_for("Haha! I'm trying to imagine you with a personality!!")
        assert c == FeatureCounts(f1=1, f7=1, f11=1, f14=1, word_count=9)

    def test_invocation_sentence_fixture(self):
        c = counts_for("God! Aren't we clever??")
        assert c == FeatureCounts(f2=1, f4=1, f8=1, f11=1, f15=1, word_count=4)

    def test_empty_text(self):
        assert counts_for("") == FeatureCounts()

    @pytest.mark.parametrize("text,field", [
        ("!", "f11"),
        ("!!", "f7"),
        ("!!!!", "f7"),
        ("??", "f8"),
        ("?!", "f9"),
        ("!?!", "f9"),
        ("...", "f10"),
        ("…", "f10"),
    ])
    def test_punctuation_run_classes(self, text, field):
        c = counts_for(text)
        assert getattr(c, field) == 1
        others = {"f7", "f8", "f9", "f10", "f11"} - {field}
        assert all(getattr(c, other) == 0 for other in others)

    def test_lone_question_mark_is_uncounted(self):
        c = counts_for("fine?")
        assert (c.f7, c.f8, c.f9, c.f10, c.f11) == (0, 0, 0, 0, 0)

    def test_all_caps_needs_two_letters(self):
        assert counts_for("I AM SHOUTING").f12 == 2  # AM, SHOUTING
        assert counts_for("A").f12 == 0
        assert counts_for("R2D2").f12 == 0  # not purely alphabetic

    def test_elongated_words(self):
        assert counts_for("sooooo good").f13 == 1
        assert counts_for("coool").f13 == 1
        assert counts_for("cool book").f13 == 0

    def test_sentiment_contrast_flag(self):
        both = counts_for("great but awful")
        assert both.f4 > 0 and both.f5 > 0 and both.f6 == 1
        assert counts_for("great and lovely").f6 == 0
        assert counts_for("awful and terrible").f6 == 0

    def test_person_reference_counts(self):
        c = counts_for("you and your friends met us near our table")
        assert c.f14 == 2  # you, your
        assert c.f15 == 2  # us, our

    def test_intensifier_count(self):
        assert counts_for("so totally fine").f3 == 2

    def test_word_count_ignores_punctuation_tokens(self):
        assert counts_for("ok then !! ... fine").word_count == 3


class TestNormalize:
    def test_rate_division(self):
        c = counts_for("Haha! I'm trying to imagine you with a personality!!")
        vec = normalize(c)
        assert vec[0] == pytest.approx(1 / 9)
        assert vec.shape == (15,)

    def test_zero_word_count_gives_zero_vector(self):
        assert np.array_equal(normalize(FeatureCounts(f7=3, word_count=0)),
                              np.zeros(15))

    def test_clipping(self):
        vec = normalize(FeatureCounts(f7=12, word_count=10))
        assert vec[6] == 1.0

    def test_flag_passes_through_undivided(self):
        vec = normalize(FeatureCounts(f4=1, f5=1, f6=1, word_count=50))
        assert vec[5] == 1.0

    def test_as_array_is_the_catalog_counts(self):
        counts = FeatureCounts(*range(1, N_FEATURES + 2))
        assert counts.as_array().tolist() == [getattr(counts, d.id) for d in catalog()]
        assert counts.as_array().dtype == np.float64

    @settings(max_examples=500)
    @given(st.lists(st.integers(0, 40) | st.integers(0, 2**40),
                    min_size=N_FEATURES + 1, max_size=N_FEATURES + 1))
    @example([3] * N_FEATURES + [7])
    @example([0] * N_FEATURES + [1])
    def test_bit_identical_to_the_per_feature_loop(self, values):
        counts = FeatureCounts(*values)
        assert normalize(counts).tobytes() == reference_normalize(counts).tobytes()

    def test_boundedness_fuzz(self, pipeline):
        rng = random.Random(5150)
        alphabet = "abcdefgh stuvwxyz!?.…'SO GREAT we you "
        for _ in range(10_000):
            text = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 50)))
            vec = pipeline.vector(text)
            assert vec.shape == (15,)
            assert np.all(vec >= 0.0) and np.all(vec <= 1.0)

    def test_contrast_flag_consistency_fuzz(self, pipeline):
        rng = random.Random(77)
        words = ["great", "awful", "table", "you", "so", "wow", "terrible", "lovely"]
        for _ in range(500):
            text = " ".join(rng.choice(words) for _ in range(rng.randrange(0, 12)))
            c = pipeline.counts(text)
            assert c.f6 == (1 if c.f4 > 0 and c.f5 > 0 else 0)

    def test_marker_monotonicity(self, pipeline):
        rng = random.Random(31)
        words = ["fine", "table", "you", "wow", "great"]
        for marker, field in [("!!", "f7"), ("...", "f10"), ("??", "f8")]:
            for _ in range(200):
                base = " ".join(rng.choice(words) for _ in range(rng.randrange(0, 8)))
                before = getattr(pipeline.counts(base), field)
                after = getattr(pipeline.counts(base + " " + marker), field)
                assert after >= before + 1


class TestFeatureDump:
    def test_round_trip(self, tmp_path, pipeline):
        texts = {
            "r1": "Wow!! just GREAT...",
            "r2": "the soup was fine",
            "r3": "",
        }
        rows = []
        labels = {"r1": 1, "r2": 0, "r3": None}
        for rid, text in texts.items():
            counts = pipeline.counts(text)
            rows.append((rid, labels[rid], counts, normalize(counts)))
        path = tmp_path / "dump.csv"
        assert write_feature_dump(path, rows, provenance=["tool: test", "seed: 9"]) == 3
        streamed = tmp_path / "streamed.csv"
        assert write_feature_dump(streamed, iter(rows), ["tool: test", "seed: 9"]) == 3
        assert streamed.read_bytes() == path.read_bytes()
        with open(path, encoding="utf-8", newline="") as fh:
            lines = fh.readlines()
        assert lines[:2] == ["# tool: test\n", "# seed: 9\n"]
        parsed = list(csv.DictReader(lines[2:]))
        assert [r["review_id"] for r in parsed] == ["r1", "r2", "r3"]
        assert [r["label"] for r in parsed] == ["1", "0", ""]
        for row, (rid, _, counts, vec) in zip(parsed, rows):
            assert int(row["word_count"]) == counts.word_count
            vector = [float(row[name]) for name in feature_names()]
            assert np.allclose(vector, vec, rtol=1e-9, atol=0)

    def test_header_lists_all_feature_names(self, tmp_path):
        path = tmp_path / "dump.csv"
        write_feature_dump(path, [])
        header = path.read_text().splitlines()[0]
        assert header.split(",") == ["review_id", "word_count", "label"] + feature_names()

    def test_values_have_nine_plus_significant_digits(self, tmp_path, pipeline):
        counts = pipeline.counts("Haha! you with a personality!!")
        path = tmp_path / "dump.csv"
        write_feature_dump(path, [("r", None, counts, normalize(counts))])
        data_line = path.read_text().splitlines()[1]
        value = data_line.split(",")[3]
        mantissa = value.split("e")[0]
        digits = mantissa.replace(".", "").lstrip("-")
        assert len(digits) >= 9


def _lexicon_words():
    lex = default_lexicons()
    words = set().union(lex.interjections, lex.invocations, lex.intensifiers,
                        lex.positive_words, lex.negative_words, lex.second_person,
                        lex.first_person_plural)
    return sorted(words) + ["haha", "HAHAH", "hahaha", "Haha", "ha", "hahha"]


# Any character that UTF-8 can encode, biased toward the edge cases.
_CHARS = st.sampled_from(EDGE_CHARS) | st.characters(codec="utf-8")

# Lexicon words in any case, elongated or glued to arbitrary text.
_WORD = st.sampled_from(_lexicon_words())
_PIECE = st.one_of(
    _WORD,
    _WORD.map(str.upper),
    _WORD.map(lambda w: w[:1] + w[1:2] * 3 + w[2:]),
    st.text(alphabet=_CHARS, max_size=12),
)


def assert_cold_then_warm(text, lexicons=None):
    """Count text twice: the first call may miss the chunk table and fill it, the
    second finds every stored chunk there. Both must match the reference."""
    expected = reference_counts(text, lexicons)
    assert extract_counts(text, lexicons) == expected
    assert extract_counts(text, lexicons) == expected


class TestMatchesReferencePipeline:
    """The one-pass extract_counts against tokenize -> pos_tag -> count, both when a
    chunk's hits are computed (a table miss) and when they are looked up."""

    @pytest.mark.parametrize("emptied", [False, True], ids=["as-left", "emptied"])
    @pytest.mark.parametrize("text", [
        "a²²² b", "x½y", "snake_case", "…", "..",
        "soooo SO gooood haha HAHAHA wow!! you?! we... ½½½ aaa²",
        "Haha! I'm trying to imagine you with a personality!!",
        "xhaha hahax ahaha HAHAh hahahh",
    ])
    def test_pinned_examples(self, text, emptied):
        if emptied:
            chunk_table().clear()
        assert_cold_then_warm(text)

    @settings(max_examples=500)
    @given(st.text(alphabet=_CHARS))
    @example("a²²² b")
    @example("x½y")
    def test_arbitrary_unicode(self, text):
        assert_cold_then_warm(text)

    @settings(max_examples=500)
    @given(st.lists(_PIECE, max_size=20), st.lists(st.sampled_from(" ,!?.…'_½"), min_size=1))
    def test_lexicon_words_in_arbitrary_text(self, pieces, separators):
        text = "".join(piece + separators[i % len(separators)]
                       for i, piece in enumerate(pieces))
        assert_cold_then_warm(text)

    def test_laughter_in_the_interjection_lexicon_counts_once(self):
        lex = replace(default_lexicons(), interjections=frozenset({"haha", "wow"}))
        text = "haha HAHAHA wow ha"
        assert extract_counts(text, lex) == reference_counts(text, lex)
        assert extract_counts(text, lex).f1 == 3

    def test_minicorpus_vectors_are_bit_identical(self, minicorpus_dir, pipeline):
        for text in minicorpus_texts(minicorpus_dir):
            expected = reference_normalize(reference_counts(text))
            assert pipeline.vector(text).tobytes() == expected.tobytes()

    def test_bounded_table_keeps_vectors_bit_identical(self, minicorpus_dir, pipeline,
                                                       monkeypatch):
        """With room for 4 chunks the table keeps the first 4 chunks it meets
        and classifies every other chunk on each sight."""
        monkeypatch.setattr(sarcnet.features, "_TABLE_ENTRIES", 4)
        table = chunk_table()
        table.clear()
        texts = minicorpus_texts(minicorpus_dir)
        for text in texts:
            expected = reference_normalize(reference_counts(text))
            assert pipeline.vector(text).tobytes() == expected.tobytes()
            assert len(table) <= 4
        assert list(table) == list(dict.fromkeys(texts[0].split()))[:4]

    def test_full_table_counts_stored_unstored_and_long_chunks(self, monkeypatch):
        """Once the table is full, a line that mixes stored chunks, chunks it
        lacks and a chunk over 32 characters counts as the reference does,
        and stores nothing."""
        monkeypatch.setattr(sarcnet.features, "_TABLE_ENTRIES", 3)
        table = chunk_table()
        table.clear()
        extract_counts("wow!! you... SO")
        assert list(table) == ["wow!!", "you...", "SO"]
        long_chunk = "soooo,GREAT!?" + "ha" * 12 + "…we"
        assert len(long_chunk) > 32
        text = f"haha\u3000wow!! we\x85aaa¿ you...\t{long_chunk} SO\u2028real?? SO"
        assert extract_counts(text) == reference_counts(text)
        assert list(table) == ["wow!!", "you...", "SO"]

    def test_long_token_is_counted_but_never_stored(self):
        table = chunk_table()
        table.clear()
        for word in ("W" * 32, "W" * 33):
            expected = FeatureCounts(f12=1, f13=1, word_count=1)
            assert reference_counts(word) == expected
            assert extract_counts(word) == extract_counts(word) == expected
        assert list(table) == ["W" * 32]

    @pytest.mark.parametrize("default_first", [True, False],
                             ids=["default-first", "replaced-first"])
    def test_each_lexicon_set_has_its_own_table(self, default_first):
        default = default_lexicons()
        assert "wow" in default.interjections
        without = replace(default, interjections=default.interjections - {"wow"})
        chunk_table(default).clear()
        runs = [(default, 1), (without, 0)]
        for lexicons, f1 in runs if default_first else runs[::-1]:
            assert extract_counts("wow", lexicons) == extract_counts("wow", lexicons)
            assert extract_counts("wow", lexicons).f1 == f1
            assert "wow" in chunk_table(lexicons)

    def test_one_pipeline_shared_by_four_threads(self, minicorpus_dir, monkeypatch):
        """Threads that fill the table while others read it get the same vectors."""
        texts = minicorpus_texts(minicorpus_dir)
        pipeline = FeaturePipeline()
        expected = [pipeline.vector(text).tobytes() for text in texts]
        monkeypatch.setattr(sarcnet.features, "_TABLE_ENTRIES", 8)
        table = chunk_table()
        table.clear()

        def run(shift):
            order = texts[shift:] + texts[:shift]
            return [pipeline.vector(text).tobytes() for text in order]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                shifts = [0, 125, 250, 375]
                results = list(pool.map(run, shifts, timeout=300))
        finally:
            sys.setswitchinterval(interval)
        for shift, vectors in zip(shifts, results):
            assert vectors == expected[shift:] + expected[:shift]
        assert len(table) <= 8 + 3
