"""Reference JSONL parsers for differential tests: one ``json.loads`` per line.

These are the review and label loops that ``sarcnet.corpus`` replaced
with one shared line reader, kept unchanged so the tests can hold the
new parsers to exactly the same records and error reasons. They take
lines that are already decoded text; unlike the new reader they raise
on a value nested too deeply for the JSON scanner and on an integer too
long to convert.
"""

import json

from sarcnet.corpus import STAR_VALUES, ParseError, Review, SarcasmLabel


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
        stars = _coerce_stars(record["stars"])
        if stars is None or stars not in STAR_VALUES:
            errors.append(ParseError(line_number, "stars out of range"))
            continue
        text = record["text"]
        if not isinstance(text, str) or not text.strip():
            errors.append(ParseError(line_number, "empty text"))
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
        if not isinstance(sarcastic, bool):
            errors.append(ParseError(line_number, "sarcastic must be a boolean"))
            continue
        if not isinstance(annotator, str) or not annotator:
            errors.append(ParseError(line_number, "annotator must be a non-empty string"))
            continue
        labels.append(SarcasmLabel(review_id, sarcastic, annotator))
    return labels, errors
