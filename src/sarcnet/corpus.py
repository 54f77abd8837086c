"""Review ingestion, sarcasm labels, and seeded splits.

Reviews arrive as UTF-8 JSON lines with at least review_id, stars, and
text; extra fields are ignored, which keeps the reader compatible with
Yelp Dataset Challenge review files. Bad lines are collected as
ParseError records instead of aborting, so one mangled record in a
multi-million-line file costs one record, not the run.

Labels are a separate append-only JSON-lines file: one (review_id,
annotator, sarcastic) vote per line. The resolved label is the majority
vote over annotators, with ties going to non-sarcastic. A later line by
the same annotator for the same review supersedes the earlier one.
``iter_labels`` yields the votes one at a time and ``resolve_labels``
tallies any iterable of them in one pass, so a labels file can be read
once, straight into the tally: memory then grows with the number of
reviews, not with the number of votes.

Both files are decoded as UTF-8 with undecodable bytes kept as
surrogate escapes, so a line holding one is an ``invalid UTF-8`` error
and the lines around it still parse. The review and label parsers share
one line loop, ``_json_values``, which yields each line's JSON value and
leaves the field checks to them. An ASCII line goes straight to the C
JSON scanner, and its value is taken when it starts at the line's first
character and ends at the line's end or just before its newline. Every
other line (not ASCII, which covers surrogate escapes and the BOM;
leading whitespace or blank; trailing data; any scanner error) goes to
one fallback function, ``_decode_line``, so every reason comes from one
place: bad JSON, a value nested too deeply for the scanner, and trailing
data are each one error for that line. A string field holding a lone
surrogate (from a JSON ``\\u`` escape such as ``"\\udcff"``) cannot be
written back as UTF-8, so it is one error for that line too. Both files
are written through one serializer.

The record types are named tuples: immutable, compared by value, and
cheap to build in bulk. The parsers build them with the C tuple
constructor, skipping each named tuple's Python-level ``__new__``.

Splits shuffle a single-star pool with a seeded Fisher-Yates permutation
(``random.Random(seed).shuffle``) and cut it into train/test prefixes,
so identical inputs and seed always give bit-identical membership and
order. ``derive_seed`` mixes one base seed into the seed of each split,
subset and training stream.
"""

import hashlib
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
# A JSON \u escape can decode to any lone surrogate. Only a non-ASCII
# value can hold one, and str.isascii is O(1), so the validators ask it first.
_SURROGATE = re.compile("[\ud800-\udfff]")

_JSON_WHITESPACE = " \t\n\r"
_BOM_MESSAGE = "Unexpected UTF-8 BOM (decode using utf-8-sig)"
_decoder = json.JSONDecoder()
_raw_decode = _decoder.raw_decode
_scan_once = _decoder.scan_once
# What may follow a value that the fast path takes: nothing, or the newline.
_LINE_ENDS = ("", "\n")
# The C constructor of every tuple: a named tuple's own __new__ is a Python
# function that calls it, one extra frame per record.
_new_tuple = tuple.__new__


def _decode_line(line):
    """Decode one line the fast path did not take, as (record, reason).

    record is the decoded JSON value and reason None, or record is None
    and reason says why the line is not one JSON value. A blank line
    gives None. The reasons are those of ``json.loads``, plus ``invalid
    UTF-8`` for a line holding a surrogate escape and one for a value
    nested too deeply to decode.
    """
    # Trailing whitespace stays: it can be inside an unterminated string.
    text = line.lstrip(_JSON_WHITESPACE)
    if not text or text.isspace():  # line.strip() would leave nothing
        return None
    if not text.isascii() and _UNDECODABLE.search(text):
        return None, "invalid UTF-8"
    try:
        record, end = _raw_decode(text)
    except json.JSONDecodeError as exc:
        reason = _BOM_MESSAGE if line.startswith("\ufeff") else exc.msg
        return None, f"invalid JSON: {reason}"
    except RecursionError:
        return None, "invalid JSON: nested too deeply"
    except ValueError as exc:
        return None, f"invalid JSON: {exc}"
    if end != len(text) and text[end:].strip(_JSON_WHITESPACE):
        return None, "invalid JSON: Extra data"
    return record, None


def _json_values(lines, errors):
    """Yield (line_number, value) for each line of lines holding one JSON value.

    A blank line is skipped; any other line that is not one JSON value
    appends one ParseError to errors instead. A line is read only when
    the caller asks for the next value, so the caller's own errors for a
    value land in errors in line order with these.
    """
    for line_number, line in enumerate(lines, start=1):
        # Fast path: an ASCII line whose one value runs up to its newline.
        end = 0
        if line.isascii():
            try:
                record, end = _scan_once(line, 0)
            except (StopIteration, ValueError, RecursionError):
                pass
        if not end or line[end:] not in _LINE_ENDS:
            decoded = _decode_line(line)
            if decoded is None:
                continue
            record, reason = decoded
            if reason is not None:
                errors.append(ParseError(line_number, reason))
                continue
        yield line_number, record


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
    range, blank text, a lone surrogate in a string field, duplicate
    review_id) become ParseError entries; parsing always reaches the end
    of the stream.
    """
    reviews = []
    errors = []
    seen_ids = set()
    for line_number, record in _json_values(lines, errors):
        try:
            review_id = record["review_id"]
            stars = _coerce_stars(record["stars"])
            text = record["text"]
        except (KeyError, TypeError):
            reason = _shape_problem(record, ("review_id", "stars", "text"))
        else:
            if not isinstance(review_id, str) or not review_id:
                reason = "review_id must be a non-empty string"
            elif not review_id.isascii() and _SURROGATE.search(review_id):
                reason = "review_id holds a lone surrogate"
            elif stars not in STAR_VALUES:
                reason = "stars out of range"
            elif not isinstance(text, str) or not text.strip():
                reason = "empty text"
            elif not text.isascii() and _SURROGATE.search(text):
                reason = "text holds a lone surrogate"
            elif review_id in seen_ids:
                reason = f"duplicate review_id: {review_id}"
            else:
                seen_ids.add(review_id)
                reviews.append(_new_tuple(Review, (review_id, stars, text)))
                continue
        errors.append(ParseError(line_number, reason))
    return reviews, errors


def open_jsonl(path):
    """Open a corpus file for reading, undecodable bytes kept as surrogate escapes."""
    return open(path, encoding="utf-8", errors="surrogateescape")


def read_reviews(path) -> tuple:
    with open_jsonl(path) as fh:
        return parse_review_stream(fh)


def _write_jsonl(path, mode: str, records) -> None:
    """Write each named-tuple record as one sorted-key JSON object line."""
    with open(path, mode, encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record._asdict(), ensure_ascii=False, sort_keys=True) + "\n")


def write_reviews(path, reviews) -> None:
    _write_jsonl(path, "w", reviews)


def iter_labels(lines, errors):
    """Yield each valid SarcasmLabel of JSON-lines label votes, in input order.

    ``lines`` is any iterable of strings. Each invalid line (invalid
    UTF-8, bad JSON, missing field, wrong type, a lone surrogate in a
    string field) appends one ParseError to ``errors`` instead.
    """
    for line_number, record in _json_values(lines, errors):
        try:
            review_id = record["review_id"]
            sarcastic = record["sarcastic"]
            annotator = record["annotator"]
        except (KeyError, TypeError):
            reason = _shape_problem(record, ("review_id", "sarcastic", "annotator"))
        else:
            if not isinstance(review_id, str) or not review_id:
                reason = "review_id must be a non-empty string"
            elif not review_id.isascii() and _SURROGATE.search(review_id):
                reason = "review_id holds a lone surrogate"
            elif not isinstance(sarcastic, bool):
                reason = "sarcastic must be a boolean"
            elif not isinstance(annotator, str) or not annotator:
                reason = "annotator must be a non-empty string"
            elif not annotator.isascii() and _SURROGATE.search(annotator):
                reason = "annotator holds a lone surrogate"
            else:
                yield _new_tuple(SarcasmLabel, (review_id, sarcastic, annotator))
                continue
        errors.append(ParseError(line_number, reason))


def write_labels(path, labels) -> None:
    _write_jsonl(path, "w", labels)


def append_labels(path, labels) -> None:
    """Append label votes to the labels file (the file is append-only)."""
    _write_jsonl(path, "a", labels)


def resolve_labels(labels) -> dict:
    """Majority-vote each review's label; ties resolve to non-sarcastic.

    One vote per (review_id, annotator): since the file is append-only,
    the last vote an annotator recorded for a review wins. ``labels`` is
    any iterable of votes and is read once, so a stream from
    ``iter_labels`` is never held as a list: what stays is one
    {annotator: vote} dict per review, with each annotator name stored
    once however many reviews it voted on.
    """
    votes = {}
    names = {}
    for review_id, sarcastic, annotator in labels:
        per_annotator = votes.get(review_id)
        if per_annotator is None:
            per_annotator = votes[review_id] = {}
        per_annotator[names.setdefault(annotator, annotator)] = sarcastic
    # Replacing each value in place frees its dict as the tally goes.
    for review_id, per_annotator in votes.items():
        votes[review_id] = 2 * sum(per_annotator.values()) > len(per_annotator)
    return votes


def label_reviews(reviews, labels) -> list:
    """Join reviews with resolved labels; unlabeled reviews are dropped.

    ``labels`` is any iterable of votes, read once (see resolve_labels).
    """
    resolved = resolve_labels(labels)
    return [
        _new_tuple(LabeledReview, (review, resolved[review.review_id]))
        for review in reviews
        if review.review_id in resolved
    ]


def derive_seed(base: int, *salts) -> int:
    """Mix a base seed with context salts into a fresh 63-bit seed.

    Hash-based so unrelated consumers (stage shuffles, dropout streams,
    curriculum subsets) never collide just because their salts are close
    integers.
    """
    payload = "\x1f".join([str(base), *(str(s) for s in salts)])
    digest = hashlib.sha256(payload.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def make_split(pool, train_n: int, test_n: int, seed: int) -> DatasetSplit:
    """Shuffle a single-star pool and cut train/test prefixes."""
    if train_n < 0 or test_n < 0:
        raise ValueError(
            f"split sizes must be nonnegative, got train {train_n}, test {test_n}")
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
