"""The 15-feature sarcasm catalog: counting and normalization.

Features fall into four groups. Keyword features count lexicon hits
(interjections, invocations, intensifiers, sentiment words) plus a
sentiment-contrast flag. Punctuation features classify punctuation-run
and ellipsis tokens. Orthographic features catch shouted (all-caps) and
elongated ("sooooo") words. Person-reference features count second-person
and first-person-plural pronouns.

A token's contribution to the counts depends only on its surface and the
lexicon set, and no token spans whitespace, so a whitespace-separated
chunk of text adds the same counts wherever it stands. Each lexicon set
keeps a chunk table from a chunk to the count indices of its tokens, one
byte each. A review is split at whitespace, its chunks' bytes are joined,
and each count is the number of times its index occurs there; only a
chunk not in the table is tokenized and classified by the rules. The
table keeps the first 2^14 chunks it is given and then stores no more; a
chunk longer than 32 characters is classified on every sight and never
stored, so no stream of text grows it past its bound. The chunks of a
review that it does not store are tokenized together, in one pass.

Raw counts are turned into network inputs by dividing each rate feature
by the word count and clipping at 1; flags pass through unchanged. A
review with no words maps to the zero vector.

A block of texts is the unit of work. ``FeaturePipeline.matrix`` looks
up each text's chunks in turn, filling the table in text order, then
counts every text's hit bytes in one ``np.bincount`` and normalizes the
(N, 16) counts in one array step. ``extract_counts``, ``normalize`` and
``FeaturePipeline.vector`` are its one-row cases, so each row of a
matrix has the bits its text's own vector has.
"""

import csv
import enum
import re
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from typing import NamedTuple

import numpy as np

from .lexicons import Lexicons, load_lexicons
from .text import tokenize

N_FEATURES = 15


class FeatureKind(enum.Enum):
    RATE = "rate"
    FLAG = "flag"


@dataclass(frozen=True)
class FeatureDescriptor:
    id: str
    name: str
    kind: FeatureKind
    definition: str


_CATALOG = (
    FeatureDescriptor("f1", "interjection_rate", FeatureKind.RATE,
                      "laughter forms (haha, hahah, ...) and words in the interjection lexicon"),
    FeatureDescriptor("f2", "invocation_rate", FeatureKind.RATE,
                      "words in the invocation lexicon (god, gosh, ...)"),
    FeatureDescriptor("f3", "intensifier_rate", FeatureKind.RATE,
                      "words in the intensifier lexicon (so, really, ...)"),
    FeatureDescriptor("f4", "positive_word_rate", FeatureKind.RATE,
                      "words in the positive-sentiment lexicon"),
    FeatureDescriptor("f5", "negative_word_rate", FeatureKind.RATE,
                      "words in the negative-sentiment lexicon"),
    FeatureDescriptor("f6", "sentiment_contrast", FeatureKind.FLAG,
                      "1 when the review has both a positive and a negative word"),
    FeatureDescriptor("f7", "multi_exclamation_rate", FeatureKind.RATE,
                      "punctuation runs of two or more '!'"),
    FeatureDescriptor("f8", "multi_question_rate", FeatureKind.RATE,
                      "punctuation runs of two or more '?'"),
    FeatureDescriptor("f9", "mixed_run_rate", FeatureKind.RATE,
                      "punctuation runs containing both '!' and '?'"),
    FeatureDescriptor("f10", "ellipsis_rate", FeatureKind.RATE,
                      "ellipsis tokens ('...' or the one-character form)"),
    FeatureDescriptor("f11", "single_exclamation_rate", FeatureKind.RATE,
                      "punctuation runs that are exactly one '!'"),
    FeatureDescriptor("f12", "all_caps_rate", FeatureKind.RATE,
                      "words of length >= 2 made entirely of uppercase letters"),
    FeatureDescriptor("f13", "elongated_rate", FeatureKind.RATE,
                      "words with three or more identical consecutive letters"),
    FeatureDescriptor("f14", "second_person_rate", FeatureKind.RATE,
                      "second-person pronouns (you, your, yours, u)"),
    FeatureDescriptor("f15", "first_person_plural_rate", FeatureKind.RATE,
                      "first-person-plural pronouns (we, us, our, ours)"),
)


def catalog() -> tuple:
    """The fixed, ordered feature catalog. Order defines vector layout."""
    return _CATALOG


def feature_names() -> list:
    return [d.name for d in _CATALOG]


class FeatureCounts(NamedTuple):
    """Raw counts of the catalog features, in catalog order, then the word count."""
    f1: int = 0
    f2: int = 0
    f3: int = 0
    f4: int = 0
    f5: int = 0
    f6: int = 0
    f7: int = 0
    f8: int = 0
    f9: int = 0
    f10: int = 0
    f11: int = 0
    f12: int = 0
    f13: int = 0
    f14: int = 0
    f15: int = 0
    word_count: int = 0

    def as_array(self) -> np.ndarray:
        return np.array(self[:N_FEATURES], dtype=float)


# laughter: two or more "ha" groups, optional trailing "h" ("haha", "HAHAH", ...)
_LAUGHTER = re.compile(r"(?:ha){2,}h?")

# three identical characters in a row; elongation also needs them to be letters
_TRIPLE = re.compile(r"(.)\1\1")

# catalog index (fN is index N-1) -> the lexicon whose words that feature counts
_LEXICON_FEATURES = (
    (0, "interjections"),
    (1, "invocations"),
    (2, "intensifiers"),
    (3, "positive_words"),
    (4, "negative_words"),
    (13, "second_person"),
    (14, "first_person_plural"),
)


# The chunk table: at most this many chunks per lexicon set, then no more
# are stored; a chunk longer than _TABLE_MAX_TOKEN characters is never stored.
_TABLE_ENTRIES = 1 << 14
_TABLE_MAX_TOKEN = 32

# the hits of a word that no lexicon holds and no other rule counts
_WORD = (N_FEATURES,)


@lru_cache(maxsize=4)
def _tables(lexicons: Lexicons) -> tuple:
    """The word table and the chunk table of one lexicon set.

    The word table maps a lowercased lexicon word to the indices of the
    counts it adds 1 to, its word count included. The chunk table starts
    empty and maps a whitespace-free chunk of text to the ``bytes`` of the
    ``_token_hits`` of its tokens; ``_count_rows`` fills it. Lexicons
    hash by identity, so a ``replace()``d set has its own tables.

    Worst case, a full chunk table holds 2^14 keys of 32 non-BMP
    characters (204 bytes each) and values of 48 indices ("u!" 16 times,
    81 bytes each) in a dict of about 0.6 MB: about 5.3 MB per lexicon
    set, 21 MB for the four sets cached here. Threads that share a table
    can each pass the size check before another stores, so it may end up
    holding one entry per extra thread over the bound.
    """
    words = {}
    for index, field in _LEXICON_FEATURES:
        for word in getattr(lexicons, field):
            words[word] = words.get(word, _WORD) + (index,)
    return words, {}


def _is_elongated(surface: str) -> bool:
    run = 1
    for prev, cur in zip(surface, surface[1:]):
        if cur == prev and cur.isalpha():
            run += 1
            if run >= 3:
                return True
        else:
            run = 1
    return False


def _token_hits(token: str, words: dict) -> tuple:
    """Indices of the counts one token adds 1 to; N_FEATURES is the word count.

    A word counts toward f1 when it is laughter or an interjection, toward
    each lexicon feature whose list holds its lowercased form, toward f12
    when it is two or more uppercase letters, and toward f13 when it holds
    three identical letters in a row.
    """
    first = token[0]
    if first in "!?":
        if token == "!":
            return (10,)  # f11
        if "?" not in token:
            return (6,)  # f7: two or more '!'
        if "!" in token:
            return (8,)  # f9: mixed
        return (7,) if len(token) > 1 else ()  # f8: two or more '?'
    if first in ".…":
        return (9,)  # f10
    lower = token.lower()
    hits = words.get(lower, _WORD)
    if "haha" in lower and 0 not in hits and _LAUGHTER.fullmatch(lower):
        hits += (0,)  # f1: laughter; an interjection has index 0 already
    if token.isupper() and len(token) >= 2 and token.isalpha():
        hits += (11,)  # f12
    if _TRIPLE.search(token) and _is_elongated(token):
        hits += (12,)  # f13
    return hits


def _hits(text: str, words: dict) -> bytes:
    """The ``_token_hits`` of every token of ``text``, one byte per index."""
    return bytes(chain.from_iterable([_token_hits(token, words) for token in tokenize(text)]))


def _classify_misses(chunks: list, hits: list, words: dict, table: dict) -> bytes:
    """Join ``hits`` after filling in the chunks the table lacks (None there).

    While the table has room, a missing chunk of at most _TABLE_MAX_TOKEN
    characters is classified and stored; the other missing chunks are
    classified together.
    """
    unstored = []
    for i, chunk in enumerate(chunks):
        if hits[i] is None:
            if len(table) < _TABLE_ENTRIES and len(chunk) <= _TABLE_MAX_TOKEN:
                hits[i] = table[chunk] = _hits(chunk, words)
            else:
                unstored.append(chunk)
    return b"".join(filter(None, hits)) + _hits(" ".join(unstored), words)


def _text_hits(text: str, words: dict, table: dict) -> bytes:
    """The hit bytes of one text: its chunks' table entries, joined.

    Only the chunks the table lacks are classified (see _classify_misses).
    """
    chunks = text.split()
    hits = list(map(table.get, chunks))
    try:
        return b"".join(hits)
    except TypeError:  # a chunk the table lacks
        return _classify_misses(chunks, hits, words, table)


# one count slot per catalog feature, then the word count
_SLOTS = N_FEATURES + 1


def _count_rows(texts: list, lexicons: Lexicons) -> np.ndarray:
    """The (N, 16) int64 counts of N texts: catalog features, then the word count.

    Each text's hit bytes are found in turn, so the chunk table fills in
    text order, as one call per text would fill it. Hit byte i of text n
    adds 1 to slot 16n + i, and one bincount counts every slot; a lone
    text's slots are its hit bytes, with no offsets to add. Past the
    one cast from uint8 the arithmetic stays in int64: the first run of a
    numpy loop of another type maps more of numpy's code into the
    process, up to 128 KB of resident memory (numpy 2.4.6, x86-64).
    """
    words, table = _tables(lexicons)
    hits = [_text_hits(text, words, table) for text in texts]
    slots = np.frombuffer(b"".join(hits), dtype=np.uint8).astype(np.intp)
    if len(hits) > 1:
        slots += np.repeat(np.arange(0, len(hits) * _SLOTS, _SLOTS), list(map(len, hits)))
    counts = np.bincount(slots, minlength=len(hits) * _SLOTS).reshape(-1, _SLOTS)
    # f6, both sentiments: counts are nonnegative, so min(f4, f5, 1) is the flag
    counts[:, 5] = np.minimum(np.minimum(counts[:, 3], counts[:, 4]), 1)
    return counts


def extract_counts(text: str, lexicons: Lexicons) -> FeatureCounts:
    """Count every catalog feature over one review's text.

    The text is split at whitespace, each chunk's hit bytes are looked up
    in the lexicon set's chunk table (and computed only on a miss), and
    each count is the number of times its index occurs in their join.
    """
    return FeatureCounts._make(_count_rows([text], lexicons)[0].tolist())


_IS_FLAG = np.array([desc.kind is FeatureKind.FLAG for desc in _CATALOG])


def _normalize_rows(counts: np.ndarray) -> np.ndarray:
    """Map (N, 16) counts, word count last, to (N, 15) vectors in [0, 1].

    A row with no words is the zero vector; its rates are divided by 1
    instead of 0, then dropped, so nothing divides by zero.
    """
    counts = np.asarray(counts, dtype=float)
    raw, word_count = counts[:, :N_FEATURES], counts[:, N_FEATURES:]
    rates = np.minimum(raw / np.maximum(word_count, 1.0), 1.0)
    return np.where(word_count > 0, np.where(_IS_FLAG, raw, rates), 0.0)


def normalize(counts: FeatureCounts) -> np.ndarray:
    """Map raw counts to the 15-component vector in [0, 1]."""
    return _normalize_rows(np.array([counts], dtype=float))[0]


class FeaturePipeline:
    """text -> count -> normalize, with one lexicon set, a text or a block at a time.

    Without a lexicon set, the constructor reads one with ``load_lexicons()``.
    Instances hold nothing beyond the lexicons, so one pipeline can serve a
    whole corpus (and is safe to share across threads: the lexicon set's
    chunk table only ever maps a chunk to the one hit string it has,
    whichever thread stores it).
    """

    def __init__(self, lexicons: Lexicons | None = None):
        self.lexicons = lexicons if lexicons is not None else load_lexicons()

    def counts(self, text: str) -> FeatureCounts:
        return extract_counts(text, self.lexicons)

    def vector(self, text: str) -> np.ndarray:
        return self.matrix([text])[0]

    def matrix(self, texts: list) -> np.ndarray:
        """The (N, 15) vectors of N texts, row n bit for bit ``vector(texts[n])``."""
        return _normalize_rows(_count_rows(texts, self.lexicons))

    def counts_and_vectors(self, texts: list):
        """Yield (counts, vector) of each text, counting 1,024 texts at a time.

        Each block is one ``matrix`` step, so the counts and vectors of
        every text are never held at once.
        """
        for start in range(0, len(texts), 1024):
            counts = _count_rows(texts[start:start + 1024], self.lexicons)
            yield from zip(map(FeatureCounts._make, counts.tolist()), _normalize_rows(counts))


def write_feature_dump(path, rows, provenance: list) -> int:
    """Write a feature dump: '#' provenance stanza, then a CSV table.

    ``rows`` yields (review_id, label, FeatureCounts, vector) tuples; label
    may be None for unlabeled reviews. It is read once, each row written
    as it comes, so a generator never holds the rows. Values are printed
    with 10 decimal digits of mantissa so a reread loses nothing at
    float32 scale. Returns the number of rows written.
    """
    names = feature_names()
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for line in provenance:
            fh.write(f"# {line}\n")
        writer = csv.writer(fh)
        writer.writerow(["review_id", "word_count", "label"] + names)
        written = 0
        for review_id, label, counts, vector in rows:
            label_field = "" if label is None else str(int(label))
            writer.writerow(
                [review_id, counts.word_count, label_field]
                + [f"{v:.10e}" for v in vector]
            )
            written += 1
    return written
