"""Review ingestion, sarcasm labels, and seeded splits.

Reviews arrive as UTF-8 JSON lines with at least review_id, stars, and
text; extra fields are ignored, which keeps the reader compatible with
Yelp Dataset Challenge review files. Bad lines are collected as
ParseError records instead of aborting, so one mangled record in a
multi-million-line file costs one record, not the run.

Labels are a separate append-only JSON-lines file: one (annotator,
review_id, sarcastic) vote per line. The resolved label is the majority
vote over annotators, with ties going to non-sarcastic. A later line by
the same annotator for the same review supersedes the earlier one.
``iter_labels`` yields the votes one at a time and ``resolve_labels``
tallies any iterable of them in one pass, so a labels file can be read
once, straight into the tally: memory then grows with the number of
reviews, not with the number of votes. Each review costs one int of vote
bits and one dict slot, whose key ``label_reviews`` shares with the
review itself. The int holds two bits per annotator, so it grows with the
number of annotators in the file; somewhere between 1,000 and 1,500 of
them it passes the {annotator: vote} dict per review that it replaced.

Both files are decoded as UTF-8 with undecodable bytes kept as
surrogate escapes, so a line holding one is an ``invalid UTF-8`` error
and the lines around it still parse. The per-line parsers hand each
line to ``_decode_line``, which gives the line's JSON value or the
reason it has none, and leaves the field checks to the parser. It
strips the line's leading JSON whitespace, refuses a surrogate escape,
and otherwise makes one call of the C JSON scanner, so every line takes
the same path and every reason comes from one place: bad JSON, a value
nested too deeply for the scanner, and trailing data are each one error
for that line. Both parsers check an identifier field (``review_id``,
and a vote's ``annotator``) with one rule, ``_string_problem``: it must
be a non-empty string. It may not hold a lone surrogate (from a JSON
``\\u`` escape such as ``"\\udcff"``), which cannot be written back as
UTF-8, and neither may a review's text. Both files are written through
one serializer, and the split manifest, the model and the eval report
through another, ``_write_json``.

Every input, a corpus file or ``predict``'s, is read by ``_line_blocks``:
each ``read1`` of up to ``_BLOCK_SIZE`` bytes goes to the caller's hash
object, if any, before it is decoded as by ``open_jsonl``, so a corpus
digest is of exactly the bytes parsed, taken in the same read. A block
is the whole lines one read completes, each with its "\\n" (a named
file's "\\r\\n" and "\\r" end a line too, as in ``open``); a U+2028 or
a form feed inside a text stays in its line. A line in the
writers' own form skips even the scanner: sorted keys, ``json.dumps``'
separators, and strings of printable ASCII with no quote or backslash,
so each string is its own JSON value. That is ``_VOTE_LINE`` for a
vote, and for a review ``{"review_id": …, "stars": …, "text": …}`` with
stars one digit from 1 to 5. JSON decodes such a line to those same
strings and that int, and it passes every check that does not depend on
other lines or on blank text (non-empty identifiers, ASCII so no
surrogate, a real boolean, stars in range), so a match gives the record
the decoder would. A block is probed at ``_PROBES`` lines spread over
it. If each is in that form, one ``findall`` of the form's multi-line
pattern takes the block's form lines; when that is every line, reviews
run only the checks on text and on a duplicate id, in line order, and
votes go to the tally as they are. Otherwise one ``finditer`` finds the
runs of form lines, and the lines between them (a blank one, a BOM,
another key order, an escape, non-ASCII text) go to the per-line parsers
under their own line numbers. A block with a probed line in another
form goes to them whole: such lines are then common, and the per-line
parser is the cheaper way through them. No record, reason, line number
or order changes. ``write_reviews``, ``write_labels`` and
``append_labels``, the only writers of these files, write this form.

The record types are named tuples: immutable, compared by value, and
cheap to build in bulk. The parsers build them with the C tuple
constructor, skipping each named tuple's Python-level ``__new__``. A
vote's fields are in its line's sorted key order, (annotator, review_id,
sarcastic), in a ``SarcasmLabel``, a ``_VOTE_LINES`` findall row (its
sarcastic "t" or "") and the tally alike, so the commands' writer-form
votes go to the tally as the findall gives them.

Splits shuffle a single-star pool with a seeded Fisher-Yates permutation
(``random.Random(seed).shuffle``) and cut it into train/test prefixes,
so identical inputs and seed always give bit-identical membership and
order. ``derive_seed`` mixes one base seed into the seed of each split,
subset and training stream.
"""

import codecs
import hashlib
import io
import json
import os
import random
import re
from dataclasses import dataclass
from itertools import chain
from typing import NamedTuple

from .errors import DataError


class Review(NamedTuple):
    review_id: str
    stars: int
    text: str


class SarcasmLabel(NamedTuple):
    annotator: str
    review_id: str
    sarcastic: bool


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

# Input text, from a file or standard input, is decoded with these options:
# undecodable bytes are kept as the surrogate escapes _UNDECODABLE finds,
# so one bad line is found and skipped without costing the others.
_DECODING = {"encoding": "utf-8", "errors": "surrogateescape"}
_UNDECODABLE = re.compile("[\udc80-\udcff]")
# A JSON \u escape can decode to any lone surrogate. Only a non-ASCII
# value can hold one, and str.isascii is O(1), so the validators ask it first.
_SURROGATE = re.compile("[\ud800-\udfff]")

_JSON_WHITESPACE = " \t\n\r"
_BOM_MESSAGE = "Unexpected UTF-8 BOM (decode using utf-8-sig)"
_scan_once = json.JSONDecoder().scan_once
# The block reader takes at most this many bytes in one read.
_BLOCK_SIZE = 1 << 14
# A line as the writers give it for printable-ASCII fields: sorted keys,
# json.dumps' default separators, and no quote or backslash in a string, so
# each string is its own JSON value. A vote line passes every vote check; its
# last group is "t" for true and empty for false (findall's "", a match's
# None), so truthy exactly when the vote is sarcastic. A review line passes
# every check but blank text and a duplicate id.
_VOTE_FORM = (r'\{"annotator": "([ !#-\[\]-~]+)", "review_id": "([ !#-\[\]-~]+)", '
              r'"sarcastic": (?:(t)rue|false)\}')
_REVIEW_FORM = r'\{"review_id": "([ !#-\[\]-~]+)", "stars": ([1-5]), "text": "([ !#-\[\]-~]*)"\}'
# The writer-form patterns' sources. _VOTE_LINE is one vote line. The _LINES
# patterns take each line of a block: (?m) anchors ^ and $ at every "\n",
# and no field can hold one, so each match is one whole line in the form.
# The _RUNS patterns take each run of such lines, with their "\n"s. Each use
# site calls re.compile, whose cache compiles each pattern once per process,
# on its first use: a process that reads no corpus file, such as predict,
# never compiles them.
_VOTE_LINE = _VOTE_FORM + r"\n?"
_VOTE_LINES = f"(?m)^{_VOTE_FORM}$"
_REVIEW_LINES = f"(?m)^{_REVIEW_FORM}$"
_VOTE_RUNS = f"(?m)^(?:{_VOTE_FORM}\n)+"
_REVIEW_RUNS = f"(?m)^(?:{_REVIEW_FORM}\n)+"
# The readers look at this many lines spread over a block before its findall.
_PROBES = 8
# The C constructor of every tuple: a named tuple's own __new__ is a Python
# function that calls it, one extra frame per record.
_new_tuple = tuple.__new__


def _decode_line(line):
    """Decode one line as (record, reason).

    The line loses its leading JSON whitespace and goes to one call of
    the C scanner; only JSON whitespace may follow the value it decodes.
    record is the decoded JSON value and reason None, or record is None
    and reason says why the line is not one JSON value. A blank line
    gives None. The reasons are those of ``json.loads``, plus ``invalid
    UTF-8`` for a line holding a surrogate escape and one for a value
    nested too deeply to decode.
    """
    # Trailing whitespace stays: it can be inside an unterminated string.
    text = line.lstrip(_JSON_WHITESPACE)
    if not text.isascii() and _UNDECODABLE.search(text):
        return None, "invalid UTF-8"
    try:
        record, end = _scan_once(text, 0)
    except StopIteration:
        if not text or text.isspace():  # line.strip() would leave nothing
            return None
        reason = _BOM_MESSAGE if line.startswith("\ufeff") else "Expecting value"
        return None, f"invalid JSON: {reason}"
    except json.JSONDecodeError as exc:
        return None, f"invalid JSON: {exc.msg}"
    except RecursionError:
        return None, "invalid JSON: nested too deeply"
    except ValueError as exc:
        return None, f"invalid JSON: {exc}"
    if text[end:].strip(_JSON_WHITESPACE):
        return None, "invalid JSON: Extra data"
    return record, None


def _shape_problem(record, fields) -> str:
    """Why a decoded record lacks one of fields: not an object, or which are missing."""
    if not isinstance(record, dict):
        return "record is not an object"
    return f"missing field: {', '.join(k for k in fields if k not in record)}"


def _string_problem(field, value):
    """Why value cannot be a record's identifier field, or None if it can."""
    if not isinstance(value, str) or not value:
        return f"{field} must be a non-empty string"
    if not value.isascii() and _SURROGATE.search(value):
        return f"{field} holds a lone surrogate"
    return None


def _coerce_stars(value):
    """Accept ints and integral floats (Yelp dumps write 5.0); else None."""
    if isinstance(value, bool):
        return None
    if isinstance(value, int):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    return None


def _take_reviews(numbered, reviews, errors, seen_ids) -> None:
    """Append the Review of each (line_number, line) of numbered to reviews.

    A line is a str, which is decoded and checked field by field, or the
    groups of a writer-form line: JSON would decode that line to those
    strings and the int of that digit, and it passes the checks on
    review_id and stars. Each line that fails a check appends one
    ParseError to errors instead; a blank line gives nothing. seen_ids
    holds the review_ids taken so far.
    """
    for line_number, line in numbered:
        if line.__class__ is tuple:
            review_id, stars, text = line
            stars = int(stars)
        else:
            decoded = _decode_line(line)
            if decoded is None:
                continue
            record, reason = decoded
            if reason is None:
                try:
                    review_id = record["review_id"]
                    stars = _coerce_stars(record["stars"])
                    text = record["text"]
                except (KeyError, TypeError):
                    reason = _shape_problem(record, ("review_id", "stars", "text"))
                else:
                    reason = _string_problem("review_id", review_id)
                    if reason is None and stars not in STAR_VALUES:
                        reason = "stars out of range"
            if reason is not None:
                errors.append(ParseError(line_number, reason))
                continue
        if not isinstance(text, str) or not text.strip():
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
    _take_reviews(enumerate(lines, 1), reviews, errors, set())
    return reviews, errors


def open_jsonl(path):
    """Open a corpus file for reading, undecodable bytes kept as surrogate escapes."""
    return open(path, **_DECODING)


def _line_blocks(stream, universal: bool, digest=None):
    """Yield (first line number, block) of a byte stream, a read at a time.

    Each ``read1`` returns what the file, pipe or terminal holds, up to
    _BLOCK_SIZE bytes, waiting only when it holds nothing; its bytes go
    to digest, if given, then decode as in ``open_jsonl``. A block is the
    whole lines the read completes, each with its "\\n" ("\\r\\n" and "\\r"
    too if universal, read as "\\n"). The stream's last line may have none.
    """
    decoder = codecs.getincrementaldecoder(_DECODING["encoding"])(_DECODING["errors"])
    if universal:
        decoder = io.IncrementalNewlineDecoder(decoder, translate=True)
    first, partial = 1, []
    while chunk := stream.read1(_BLOCK_SIZE):
        if digest is not None:
            digest.update(chunk)
        text = decoder.decode(chunk)
        end = text.rfind("\n") + 1
        if end:
            partial.append(text[:end])
            block = "".join(partial)
            partial.clear()
            yield first, block
            first += block.count("\n")
        partial.append(text[end:])
    if last := "".join(partial) + decoder.decode(b"", final=True):
        yield first, last


def _lines(text) -> list:
    """The lines of text, each with its "\\n": they end at "\\n" only."""
    return re.findall(r"[^\n]*\n|[^\n]+", text)


def _runs(fh, form_lines, form_runs, digest=None):
    """Yield (first line number, rows, lines) of each run of an open file's lines, in order.

    A run of lines in the writers' form gives the list of their
    form_lines groups as rows, and lines None; any other run gives rows
    None and its lines, for the per-line parser. A block goes line by
    line, whole, if any of _PROBES lines spread over it, the first among
    them, is in another form: such lines are then common, and the
    per-line parser costs each of them less than a findall and a gap of
    its own. Any other block takes one findall. If lines in another form
    hide among its form lines, one finditer of form_runs finds the runs
    of form lines, and the findall's rows are cut to fit them. fh is
    opened for bytes; ``_line_blocks`` reads it, feeding digest.
    """
    for first, block in _line_blocks(fh, universal=True, digest=digest):
        step = -(-len(block) // _PROBES)
        if not all(form_lines.match(block, block.rfind("\n", 0, at) + 1)
                   for at in range(0, len(block), step)):
            yield first, None, _lines(block)
            continue
        rows = form_lines.findall(block)
        if len(rows) == block.count("\n") + (block[-1] != "\n"):  # one row per line
            yield first, rows, None
            continue
        taken = line = end = 0
        for run in form_runs.finditer(block):
            start = run.start()
            if start > end:
                other = _lines(block[end:start])
                yield first + line, None, other
                line += len(other)
            end = run.end()
            n_form = block.count("\n", start, end)
            yield first + line, rows[taken:taken + n_form], None
            taken += n_form
            line += n_form
        if end < len(block):
            yield first + line, None, _lines(block[end:])


def _read_reviews(fh, digest=None) -> tuple:
    """(reviews, parse_errors) of a reviews file opened for bytes; see ``read_reviews``."""
    reviews, errors, seen_ids = [], [], set()
    for first, rows, lines in _runs(fh, re.compile(_REVIEW_LINES), re.compile(_REVIEW_RUNS),
                                    digest):
        _take_reviews(enumerate(rows if lines is None else lines, first),
                      reviews, errors, seen_ids)
    return reviews, errors


def read_reviews(path) -> tuple:
    """(reviews, parse_errors) of a reviews file, as ``parse_review_stream`` gives them.

    The file is read a block at a time; its runs of writer-form lines
    take one findall (see the module docstring).
    """
    with open(path, "rb") as fh:
        return _read_reviews(fh)


def _write_jsonl(path, mode: str, records) -> None:
    """Write each named-tuple record as one sorted-key JSON object line."""
    with open(path, mode, encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record._asdict(), ensure_ascii=False, sort_keys=True) + "\n")


def write_reviews(path, reviews) -> None:
    _write_jsonl(path, "w", reviews)


def _labels(lines, first, errors):
    """Yield each valid SarcasmLabel of lines, numbered from first; see ``iter_labels``."""
    vote_line = re.compile(_VOTE_LINE).fullmatch
    for line_number, line in enumerate(lines, start=first):
        match = vote_line(line)
        if match is not None:
            annotator, review_id, sarcastic = match.groups()
            yield _new_tuple(SarcasmLabel, (annotator, review_id, sarcastic is not None))
            continue
        decoded = _decode_line(line)
        if decoded is None:
            continue
        record, reason = decoded
        if reason is not None:
            errors.append(ParseError(line_number, reason))
            continue
        try:
            review_id = record["review_id"]
            sarcastic = record["sarcastic"]
            annotator = record["annotator"]
        except (KeyError, TypeError):
            reason = _shape_problem(record, ("review_id", "sarcastic", "annotator"))
        else:
            reason = (_string_problem("review_id", review_id)
                      or (None if isinstance(sarcastic, bool) else "sarcastic must be a boolean")
                      or _string_problem("annotator", annotator))
            if reason is None:
                yield _new_tuple(SarcasmLabel, (annotator, review_id, sarcastic))
                continue
        errors.append(ParseError(line_number, reason))


def iter_labels(lines, errors):
    """Yield each valid SarcasmLabel of JSON-lines label votes, in input order.

    ``lines`` is any iterable of strings. Each invalid line (invalid
    UTF-8, bad JSON, missing field, wrong type, a lone surrogate in a
    string field) appends one ParseError to ``errors`` instead. A line
    in the writer's own form (``_VOTE_LINE``) is taken by one match;
    every other line is decoded and checked field by field.
    """
    return _labels(lines, 1, errors)


def _read_votes(fh, errors, digest=None) -> chain:
    """Each valid vote of a labels file opened for bytes, as (annotator, review_id, sarcastic).

    They are the votes ``iter_labels`` yields, in its order, and each
    invalid line appends its ParseError to errors as it is read, a block
    at a time. A run of writer-form lines gives a slice of one findall's
    rows, whose sarcastic is "t" or "", truthy exactly when the vote is;
    any other run gives the per-line parser's SarcasmLabels. The bytes
    read go to digest, if given.
    """
    return chain.from_iterable(
        rows if lines is None else _labels(lines, first, errors)
        for first, rows, lines in _runs(fh, re.compile(_VOTE_LINES), re.compile(_VOTE_RUNS),
                                        digest))


def write_labels(path, labels) -> None:
    _write_jsonl(path, "w", labels)


def append_labels(path, labels) -> None:
    """Append label votes to the labels file (the file is append-only).

    A last line without its newline is ended first: a vote written onto
    it would make that line one invalid record, losing both votes.
    """
    with open(path, "a+b") as fh:
        end = fh.seek(0, os.SEEK_END)
        if end:
            fh.seek(end - 1)
            if fh.read(1) != b"\n":
                fh.write(b"\n")
    _write_jsonl(path, "a", labels)


def _tally(tally, votes) -> dict:
    """Fold (annotator, review_id, sarcastic) votes into tally, then resolve each entry in place.

    tally maps a review_id to an int of vote bits, 0 for none yet; a vote
    for an id not among its keys adds one. The i-th annotator to appear
    owns bits 2i ("voted") and 2i+1 ("the last vote was sarcastic"), and
    its three masks are stored once, beside its name: both bits cleared,
    a non-sarcastic vote and a sarcastic one. A vote clears the
    annotator's two bits and sets its own, so its last vote wins. The
    voters of a review are then the set "voted" bits and the sarcastic
    ones the rest; each entry becomes its majority label, or None if it
    had no vote. A vote's sarcastic is truthy when the vote is.
    """
    masks = {}
    for annotator, review_id, sarcastic in votes:
        annotator_masks = masks.get(annotator)
        if annotator_masks is None:
            voted = 1 << 2 * len(masks)
            annotator_masks = masks[annotator] = (~(3 * voted), voted, 3 * voted)
        clear, no, yes = annotator_masks
        tally[review_id] = tally.get(review_id, 0) & clear | (yes if sarcastic else no)
    voted_bits = (4 ** len(masks) - 1) // 3  # 0b0101...: every annotator's "voted" bit
    for review_id, bits in tally.items():
        voters = (bits & voted_bits).bit_count()
        tally[review_id] = 2 * (bits.bit_count() - voters) > voters if bits else None
    return tally


def resolve_labels(labels) -> dict:
    """Majority-vote each review's label; ties resolve to non-sarcastic.

    One vote per (review_id, annotator): since the file is append-only,
    the last vote an annotator recorded for a review wins. ``labels`` is
    any iterable of (annotator, review_id, sarcastic) votes, such as
    SarcasmLabels. It goes straight to the tally and is read once, so a
    stream from ``iter_labels`` is never held as a list. What stays is
    one int and one dict slot per review, its key the review_id of its
    first vote, and three masks per annotator (see ``_tally``). The int
    holds two bits per annotator, up to the last one to vote on that
    review, so it grows with the number of annotators: somewhere between
    1,000 and 1,500 annotators per file it passes the {annotator: vote}
    dict per review it replaced.
    """
    return _tally({}, labels)


def label_reviews(reviews, labels) -> list:
    """Join reviews with resolved labels; unlabeled reviews are dropped.

    ``labels`` is any iterable of votes, read once (see resolve_labels).
    The tally is keyed on the reviews' own review_id strings, so a
    vote's id string is freed once it is counted; votes for other ids
    are tallied and then ignored.
    """
    resolved = _tally(dict.fromkeys((review.review_id for review in reviews), 0), labels)
    return [
        _new_tuple(LabeledReview, (review, label))
        for review in reviews
        if (label := resolved[review.review_id]) is not None
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


def _write_json(path, doc: dict, provenance: dict) -> None:
    """Write doc with its provenance as one indented, sorted-key JSON document."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({**doc, "provenance": provenance}, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_split_manifest(path, split: DatasetSplit, provenance: dict) -> None:
    """Record a split so it can be audited and reconstructed."""
    _write_json(path, {
        "stars": split.stars,
        "seed": split.seed,
        "train_n": len(split.train),
        "test_n": len(split.test),
        "train_review_ids": [lr.review.review_id for lr in split.train],
        "test_review_ids": [lr.review.review_id for lr in split.test],
    }, provenance)
