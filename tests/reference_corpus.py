"""Reference corpus code for differential tests.

The review and label loops (one ``json.loads`` per line) are those that
``sarcnet.corpus`` replaced with one shared line reader, kept so the
tests can hold the new parsers to exactly the same records and error
reasons. They changed in one way since: like the new parsers, they
reject a string field holding a lone surrogate, a value no UTF-8 writer
can encode. They take lines that are already decoded text; unlike the
new reader they raise on a value nested too deeply for the JSON scanner
and on an integer too long to convert.

``resolve_labels`` is the two-loop majority vote over a list of votes
that the one-pass streaming tally replaced.
"""

import json
import re

from sarcnet.corpus import STAR_VALUES, ParseError, Review, SarcasmLabel


_SURROGATE = re.compile("[\ud800-\udfff]")


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
    """Parse JSON-lines review records into (reviews, parse_errors)."""
    reviews = []
    errors = []
    seen_ids = set()
    for line_number, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            errors.append(ParseError(line_number, f"invalid JSON: {exc.msg}"))
            continue
        if not isinstance(record, dict):
            errors.append(ParseError(line_number, "record is not an object"))
            continue
        missing = [k for k in ("review_id", "stars", "text") if k not in record]
        if missing:
            errors.append(ParseError(line_number, f"missing field: {', '.join(missing)}"))
            continue
        review_id = record["review_id"]
        if not isinstance(review_id, str) or not review_id:
            errors.append(ParseError(line_number, "review_id must be a non-empty string"))
            continue
        if _SURROGATE.search(review_id):
            errors.append(ParseError(line_number, "review_id holds a lone surrogate"))
            continue
        stars = _coerce_stars(record["stars"])
        if stars is None or stars not in STAR_VALUES:
            errors.append(ParseError(line_number, "stars out of range"))
            continue
        text = record["text"]
        if not isinstance(text, str) or not text.strip():
            errors.append(ParseError(line_number, "empty text"))
            continue
        if _SURROGATE.search(text):
            errors.append(ParseError(line_number, "text holds a lone surrogate"))
            continue
        if review_id in seen_ids:
            errors.append(ParseError(line_number, f"duplicate review_id: {review_id}"))
            continue
        seen_ids.add(review_id)
        reviews.append(Review(review_id, stars, text))
    return reviews, errors


def parse_label_stream(lines) -> tuple:
    """Parse JSON-lines label votes into (labels, parse_errors)."""
    labels = []
    errors = []
    for line_number, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            errors.append(ParseError(line_number, f"invalid JSON: {exc.msg}"))
            continue
        if not isinstance(record, dict):
            errors.append(ParseError(line_number, "record is not an object"))
            continue
        missing = [k for k in ("review_id", "sarcastic", "annotator") if k not in record]
        if missing:
            errors.append(ParseError(line_number, f"missing field: {', '.join(missing)}"))
            continue
        review_id = record["review_id"]
        sarcastic = record["sarcastic"]
        annotator = record["annotator"]
        if not isinstance(review_id, str) or not review_id:
            errors.append(ParseError(line_number, "review_id must be a non-empty string"))
            continue
        if _SURROGATE.search(review_id):
            errors.append(ParseError(line_number, "review_id holds a lone surrogate"))
            continue
        if not isinstance(sarcastic, bool):
            errors.append(ParseError(line_number, "sarcastic must be a boolean"))
            continue
        if not isinstance(annotator, str) or not annotator:
            errors.append(ParseError(line_number, "annotator must be a non-empty string"))
            continue
        if _SURROGATE.search(annotator):
            errors.append(ParseError(line_number, "annotator holds a lone surrogate"))
            continue
        labels.append(SarcasmLabel(review_id, sarcastic, annotator))
    return labels, errors


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
