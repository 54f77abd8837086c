"""Review ingestion, sarcasm labels, star buckets, and seeded splits.

Reviews arrive as UTF-8 JSON lines with at least review_id, stars, and
text; extra fields are ignored, which keeps the reader compatible with
Yelp Dataset Challenge review files. Bad lines are collected as
ParseError records instead of aborting, so one mangled record in a
multi-million-line file costs one record, not the run.

Labels are a separate append-only JSON-lines file: one (review_id,
annotator, sarcastic) vote per line. The resolved label is the majority
vote over annotators, with ties going to non-sarcastic. A later line by
the same annotator for the same review supersedes the earlier one.

Both files go through one line reader. It decodes each file as UTF-8
with undecodable bytes kept as surrogate escapes, so a line holding one
is an ``invalid UTF-8`` error and the lines around it still parse. It
hands each non-blank line to the C JSON scanner once; bad JSON, a value
nested too deeply for the scanner, and trailing data are each one error
for that line. Both files are written through one serializer.

The record types are named tuples: immutable, compared by value, and
cheap to build in bulk.

Splits shuffle a single-star pool with a seeded Fisher-Yates permutation
(``random.Random(seed).shuffle``) and cut it into train/test prefixes,
so identical inputs and seed always give bit-identical membership and
order.
"""

import json
import random
import re
from dataclasses import dataclass
from typing import NamedTuple

from .errors import DataError


class Review(NamedTuple):
    review_id: str
    stars: int
    text: str


class SarcasmLabel(NamedTuple):
    review_id: str
    sarcastic: bool
    annotator: str


class LabeledReview(NamedTuple):
    review: Review
    sarcastic: bool


class ParseError(NamedTuple):
    line_number: int
    reason: str


@dataclass(frozen=True)
class DatasetSplit:
    stars: int
    train: tuple
    test: tuple
    seed: int


STAR_VALUES = (1, 2, 3, 4, 5)

# Input text is decoded with undecodable bytes kept as these surrogate
# escapes, so one bad line is found and skipped without costing the others.
_UNDECODABLE = re.compile("[\udc80-\udcff]")

_JSON_WHITESPACE = " \t\n\r"
_BOM_MESSAGE = "Unexpected UTF-8 BOM (decode using utf-8-sig)"
_raw_decode = json.JSONDecoder().raw_decode


def _json_lines(lines):
    """Yield (line_number, record, reason) for each non-blank line.

    record is the decoded JSON value and reason None, or record is None
    and reason says why the line is not one JSON value. The reasons are
    those of ``json.loads``, plus ``invalid UTF-8`` for a line holding a
    surrogate escape and one for a value nested too deeply to decode.
    """
    for line_number, line in enumerate(lines, start=1):
        # Trailing whitespace stays: it can be inside an unterminated string.
        text = line.lstrip(_JSON_WHITESPACE)
        if not text or text.isspace():  # line.strip() would leave nothing
            continue
        if not text.isascii() and _UNDECODABLE.search(text):
            yield line_number, None, "invalid UTF-8"
            continue
        try:
            record, end = _raw_decode(text)
        except json.JSONDecodeError as exc:
            reason = _BOM_MESSAGE if line.startswith("\ufeff") else exc.msg
            yield line_number, None, f"invalid JSON: {reason}"
            continue
        except RecursionError:
            yield line_number, None, "invalid JSON: nested too deeply"
            continue
        except ValueError as exc:
            yield line_number, None, f"invalid JSON: {exc}"
            continue
        if end != len(text) and text[end:].strip(_JSON_WHITESPACE):
            yield line_number, None, "invalid JSON: Extra data"
            continue
        yield line_number, record, None


def _shape_problem(record, fields) -> str:
    """Why a decoded record lacks one of fields: not an object, or which are missing."""
    if not isinstance(record, dict):
        return "record is not an object"
    return f"missing field: {', '.join(k for k in fields if k not in record)}"


def _coerce_stars(value):
    """Accept ints and integral floats (Yelp dumps write 5.0); else None."""
    if isinstance(value, bool):
        return None
    if isinstance(value, int):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    return None


def parse_review_stream(lines) -> tuple:
    """Parse JSON-lines review records into (reviews, parse_errors).

    ``lines`` is any iterable of strings. Valid records keep input order.
    Invalid lines (invalid UTF-8, bad JSON, missing field, stars out of
    range, blank text, duplicate review_id) become ParseError entries;
    parsing always reaches the end of the stream.
    """
    reviews = []
    errors = []
    seen_ids = set()
    for line_number, record, reason in _json_lines(lines):
        if reason is None:
            try:
                review_id = record["review_id"]
                stars = _coerce_stars(record["stars"])
                text = record["text"]
            except (KeyError, TypeError):
                reason = _shape_problem(record, ("review_id", "stars", "text"))
            else:
                if not isinstance(review_id, str) or not review_id:
                    reason = "review_id must be a non-empty string"
                elif stars not in STAR_VALUES:
                    reason = "stars out of range"
                elif not isinstance(text, str) or not text.strip():
                    reason = "empty text"
                elif review_id in seen_ids:
                    reason = f"duplicate review_id: {review_id}"
                else:
                    seen_ids.add(review_id)
                    reviews.append(Review(review_id, stars, text))
                    continue
        errors.append(ParseError(line_number, reason))
    return reviews, errors


def read_reviews(path) -> tuple:
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        return parse_review_stream(fh)


def _write_jsonl(path, mode: str, records) -> None:
    """Write each named-tuple record as one sorted-key JSON object line."""
    with open(path, mode, encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record._asdict(), ensure_ascii=False, sort_keys=True) + "\n")


def write_reviews(path, reviews) -> None:
    _write_jsonl(path, "w", reviews)


def segregate_by_stars(reviews) -> dict:
    """Partition reviews into the five star buckets, preserving order."""
    buckets = {stars: [] for stars in STAR_VALUES}
    for review in reviews:
        buckets[review.stars].append(review)
    return buckets


def parse_label_stream(lines) -> tuple:
    """Parse JSON-lines label votes into (labels, parse_errors)."""
    labels = []
    errors = []
    for line_number, record, reason in _json_lines(lines):
        if reason is None:
            try:
                review_id = record["review_id"]
                sarcastic = record["sarcastic"]
                annotator = record["annotator"]
            except (KeyError, TypeError):
                reason = _shape_problem(record, ("review_id", "sarcastic", "annotator"))
            else:
                if not isinstance(review_id, str) or not review_id:
                    reason = "review_id must be a non-empty string"
                elif not isinstance(sarcastic, bool):
                    reason = "sarcastic must be a boolean"
                elif not isinstance(annotator, str) or not annotator:
                    reason = "annotator must be a non-empty string"
                else:
                    labels.append(SarcasmLabel(review_id, sarcastic, annotator))
                    continue
        errors.append(ParseError(line_number, reason))
    return labels, errors


def read_labels(path) -> tuple:
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        return parse_label_stream(fh)


def write_labels(path, labels) -> None:
    _write_jsonl(path, "w", labels)


def append_labels(path, labels) -> None:
    """Append label votes to the labels file (the file is append-only)."""
    _write_jsonl(path, "a", labels)


def resolve_labels(labels) -> dict:
    """Majority-vote each review's label; ties resolve to non-sarcastic.

    One vote per (review_id, annotator): since the file is append-only,
    the last vote an annotator recorded for a review wins.
    """
    votes = {}
    for label in labels:
        votes.setdefault(label.review_id, {})[label.annotator] = label.sarcastic
    resolved = {}
    for review_id, per_annotator in votes.items():
        yes = sum(1 for v in per_annotator.values() if v)
        no = len(per_annotator) - yes
        resolved[review_id] = yes > no
    return resolved


def label_reviews(reviews, labels) -> list:
    """Join reviews with resolved labels; unlabeled reviews are dropped."""
    resolved = resolve_labels(labels)
    return [
        LabeledReview(review, resolved[review.review_id])
        for review in reviews
        if review.review_id in resolved
    ]


def make_split(pool, train_n: int, test_n: int, seed: int) -> DatasetSplit:
    """Shuffle a single-star pool and cut train/test prefixes."""
    need = train_n + test_n
    if len(pool) < need:
        raise DataError(f"need {need}, have {len(pool)}")
    star_values = {lr.review.stars for lr in pool}
    if not star_values:
        raise DataError("cannot split an empty pool")
    if len(star_values) > 1:
        raise DataError(f"pool mixes star ratings: {sorted(star_values)}")
    shuffled = list(pool)
    random.Random(seed).shuffle(shuffled)
    (stars,) = star_values
    return DatasetSplit(
        stars=stars,
        train=tuple(shuffled[:train_n]),
        test=tuple(shuffled[train_n:train_n + test_n]),
        seed=seed,
    )


def curriculum_subset(pool, want_sarcastic: bool, n: int, seed: int) -> list:
    """Pick n reviews with the requested label by seeded permutation."""
    matching = [lr for lr in pool if lr.sarcastic == want_sarcastic]
    if len(matching) < n:
        raise DataError(f"requested {n}, available {len(matching)}")
    random.Random(seed).shuffle(matching)
    return matching[:n]


def write_split_manifest(path, split: DatasetSplit, provenance: dict | None = None) -> None:
    """Record a split so it can be audited and reconstructed."""
    manifest = {
        "stars": split.stars,
        "seed": split.seed,
        "train_n": len(split.train),
        "test_n": len(split.test),
        "train_review_ids": [lr.review.review_id for lr in split.train],
        "test_review_ids": [lr.review.review_id for lr in split.test],
    }
    if provenance is not None:
        manifest["provenance"] = provenance
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_split_manifest(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    for key in ("stars", "seed", "train_n", "test_n", "train_review_ids", "test_review_ids"):
        if key not in manifest:
            raise DataError(f"split manifest missing field: {key}")
    return manifest
