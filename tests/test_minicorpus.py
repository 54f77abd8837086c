"""The bundled mini-corpus: shape, balance, and regenerability."""

import json
from collections import Counter

from sarcnet.corpus import iter_labels, open_jsonl, read_reviews, resolve_labels
from sarcnet.minicorpus import (
    ANNOTATORS,
    GENERATOR_SEED,
    PER_STAR_PER_CLASS,
    build_minicorpus,
    write_minicorpus,
)


class TestGenerator:
    def test_deterministic(self):
        first = build_minicorpus(seed=99, per_star_per_class=5)
        second = build_minicorpus(seed=99, per_star_per_class=5)
        assert first == second

    def test_shape_and_balance(self):
        reviews, truth, labels = build_minicorpus(seed=3, per_star_per_class=10)
        assert len(reviews) == 100
        assert Counter(r.stars for r in reviews) == {s: 20 for s in range(1, 6)}
        for stars in range(1, 6):
            sarcastic = sum(1 for r in reviews
                            if truth[r.review_id] and r.stars == stars)
            assert sarcastic == 10
        assert len(labels) == len(reviews) * len(ANNOTATORS)

    def test_majority_vote_always_matches_truth(self):
        reviews, truth, labels = build_minicorpus(seed=17, per_star_per_class=10)
        resolved = resolve_labels(labels)
        assert set(resolved) == set(truth)
        assert all(resolved[rid] == truth[rid] for rid in truth)

    def test_some_dissent_exists(self):
        reviews, truth, labels = build_minicorpus(seed=17, per_star_per_class=25)
        disagreements = sum(1 for label in labels
                            if label.sarcastic != truth[label.review_id])
        assert 0 < disagreements < len(labels) // 4

    def test_ids_unique_and_texts_nonempty(self):
        reviews, _, _ = build_minicorpus(seed=23, per_star_per_class=20)
        ids = [r.review_id for r in reviews]
        assert len(set(ids)) == len(ids)
        assert all(r.text.strip() for r in reviews)


class TestBundledFiles:
    def test_reviews_parse_cleanly(self, minicorpus_dir):
        reviews, errors = read_reviews(minicorpus_dir / "reviews.jsonl")
        assert errors == []
        assert len(reviews) == 5 * 2 * PER_STAR_PER_CLASS
        assert Counter(r.stars for r in reviews) == \
               {s: 2 * PER_STAR_PER_CLASS for s in range(1, 6)}

    def test_labels_parse_cleanly(self, minicorpus_dir):
        errors = []
        with open_jsonl(minicorpus_dir / "labels.jsonl") as lines:
            labels = list(iter_labels(lines, errors))
        assert errors == []
        assert len(labels) == 5 * 2 * PER_STAR_PER_CLASS * len(ANNOTATORS)

    def test_bundled_files_match_generator_output(self, minicorpus_dir, tmp_path):
        write_minicorpus(tmp_path, seed=GENERATOR_SEED,
                         per_star_per_class=PER_STAR_PER_CLASS)
        for name in ("reviews.jsonl", "labels.jsonl"):
            assert (tmp_path / name).read_bytes() == \
                   (minicorpus_dir / name).read_bytes(), name

    def test_each_star_has_balanced_classes(self, minicorpus_dir):
        reviews, _ = read_reviews(minicorpus_dir / "reviews.jsonl")
        with open_jsonl(minicorpus_dir / "labels.jsonl") as lines:
            resolved = resolve_labels(iter_labels(lines, []))
        for stars in range(1, 6):
            star_ids = [r.review_id for r in reviews if r.stars == stars]
            sarcastic = sum(1 for rid in star_ids if resolved[rid])
            assert sarcastic == PER_STAR_PER_CLASS

    def test_every_review_has_all_annotator_votes(self, minicorpus_dir):
        reviews, _ = read_reviews(minicorpus_dir / "reviews.jsonl")
        with open_jsonl(minicorpus_dir / "labels.jsonl") as lines:
            votes = Counter(label.review_id for label in iter_labels(lines, []))
        assert all(votes[r.review_id] == len(ANNOTATORS) for r in reviews)
