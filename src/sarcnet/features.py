"""The 15-feature sarcasm catalog: counting and normalization.

Features fall into four categories. Keyword features count lexicon hits
(interjections, invocations, intensifiers, sentiment words) plus a
sentiment-contrast flag. Punctuation features classify punctuation-run
and ellipsis tokens. Orthographic features catch shouted (all-caps) and
elongated ("sooooo") words. Person-reference features count second-person
and first-person-plural pronouns.

Raw counts are turned into network inputs by dividing each rate feature
by the word count and clipping at 1; flags pass through unchanged. A
review with no words maps to the zero vector.
"""

import csv
import enum
import re
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .lexicons import Lexicons, default_lexicons
from .text import tokenize

N_FEATURES = 15


class FeatureCategory(enum.Enum):
    KEYWORD = "Keyword"
    PUNCTUATION = "Punctuation"
    ORTHOGRAPHIC = "Orthographic"
    PERSON_REFERENCE = "PersonReference"


class FeatureKind(enum.Enum):
    RATE = "rate"
    FLAG = "flag"


@dataclass(frozen=True)
class FeatureDescriptor:
    id: str
    name: str
    category: FeatureCategory
    kind: FeatureKind
    definition: str


_CATALOG = (
    FeatureDescriptor("f1", "interjection_rate", FeatureCategory.KEYWORD, FeatureKind.RATE,
                      "laughter forms (haha, hahah, ...) and words in the interjection lexicon"),
    FeatureDescriptor("f2", "invocation_rate", FeatureCategory.KEYWORD, FeatureKind.RATE,
                      "words in the invocation lexicon (god, gosh, ...)"),
    FeatureDescriptor("f3", "intensifier_rate", FeatureCategory.KEYWORD, FeatureKind.RATE,
                      "words in the intensifier lexicon (so, really, ...)"),
    FeatureDescriptor("f4", "positive_word_rate", FeatureCategory.KEYWORD, FeatureKind.RATE,
                      "words in the positive-sentiment lexicon"),
    FeatureDescriptor("f5", "negative_word_rate", FeatureCategory.KEYWORD, FeatureKind.RATE,
                      "words in the negative-sentiment lexicon"),
    FeatureDescriptor("f6", "sentiment_contrast", FeatureCategory.KEYWORD, FeatureKind.FLAG,
                      "1 when the review has both a positive and a negative word"),
    FeatureDescriptor("f7", "multi_exclamation_rate", FeatureCategory.PUNCTUATION, FeatureKind.RATE,
                      "punctuation runs of two or more '!'"),
    FeatureDescriptor("f8", "multi_question_rate", FeatureCategory.PUNCTUATION, FeatureKind.RATE,
                      "punctuation runs of two or more '?'"),
    FeatureDescriptor("f9", "mixed_run_rate", FeatureCategory.PUNCTUATION, FeatureKind.RATE,
                      "punctuation runs containing both '!' and '?'"),
    FeatureDescriptor("f10", "ellipsis_rate", FeatureCategory.PUNCTUATION, FeatureKind.RATE,
                      "ellipsis tokens ('...' or the one-character form)"),
    FeatureDescriptor("f11", "single_exclamation_rate", FeatureCategory.PUNCTUATION, FeatureKind.RATE,
                      "punctuation runs that are exactly one '!'"),
    FeatureDescriptor("f12", "all_caps_rate", FeatureCategory.ORTHOGRAPHIC, FeatureKind.RATE,
                      "words of length >= 2 made entirely of uppercase letters"),
    FeatureDescriptor("f13", "elongated_rate", FeatureCategory.ORTHOGRAPHIC, FeatureKind.RATE,
                      "words with three or more identical consecutive letters"),
    FeatureDescriptor("f14", "second_person_rate", FeatureCategory.PERSON_REFERENCE, FeatureKind.RATE,
                      "second-person pronouns (you, your, yours, u)"),
    FeatureDescriptor("f15", "first_person_plural_rate", FeatureCategory.PERSON_REFERENCE, FeatureKind.RATE,
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


@lru_cache(maxsize=4)
def _word_features(lexicons: Lexicons) -> dict:
    """Lowercased lexicon word -> indices of the features it counts toward."""
    table = {}
    for index, field in _LEXICON_FEATURES:
        for word in getattr(lexicons, field):
            table[word] = table.get(word, ()) + (index,)
    return table


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


def extract_counts(text: str, lexicons: Lexicons | None = None) -> FeatureCounts:
    """Count every catalog feature over one review's text.

    A word counts toward f1 when it is laughter or an interjection, toward
    each lexicon feature whose list holds its lowercased form, toward f12
    when it is two or more uppercase letters, and toward f13 when it holds
    three identical letters in a row.
    """
    lex = lexicons if lexicons is not None else default_lexicons()
    words = _word_features(lex)
    c = [0] * N_FEATURES
    word_count = 0
    for token in tokenize(text):
        first = token[0]
        if first == "!" or first == "?":
            if token == "!":
                c[10] += 1  # f11
            elif "?" not in token:
                c[6] += 1  # f7: two or more '!'
            elif "!" in token:
                c[8] += 1  # f9: mixed
            elif len(token) > 1:
                c[7] += 1  # f8: two or more '?'
        elif first == "." or first == "…":
            c[9] += 1  # f10
        else:
            word_count += 1
            lower = token.lower()
            for index in words.get(lower, ()):
                c[index] += 1
            if (lower[:4] == "haha" and lower not in lex.interjections
                    and _LAUGHTER.fullmatch(lower)):
                c[0] += 1  # f1: laughter
            if token.isupper() and len(token) >= 2 and token.isalpha():
                c[11] += 1  # f12
            if _TRIPLE.search(token) and _is_elongated(token):
                c[12] += 1  # f13
    c[5] = 1 if c[3] > 0 and c[4] > 0 else 0
    return FeatureCounts(*c, word_count=word_count)


_IS_FLAG = np.array([desc.kind is FeatureKind.FLAG for desc in _CATALOG])


def normalize(counts: FeatureCounts) -> np.ndarray:
    """Map raw counts to the 15-component vector in [0, 1]."""
    if counts.word_count == 0:
        return np.zeros(N_FEATURES)
    raw = counts.as_array()
    return np.where(_IS_FLAG, raw, np.minimum(raw / counts.word_count, 1.0))


class FeaturePipeline:
    """text -> count -> normalize, with one lexicon set.

    Instances are cheap and stateless beyond the lexicons, so one pipeline
    can serve a whole corpus (and is safe to share across threads).
    """

    def __init__(self, lexicons: Lexicons | None = None):
        self.lexicons = lexicons if lexicons is not None else default_lexicons()

    def counts(self, text: str) -> FeatureCounts:
        return extract_counts(text, self.lexicons)

    def vector(self, text: str) -> np.ndarray:
        return normalize(self.counts(text))


def write_feature_dump(path, rows, provenance=None) -> int:
    """Write a feature dump: '#' provenance stanza, then a CSV table.

    ``rows`` yields (review_id, label, FeatureCounts, vector) tuples; label
    may be None for unlabeled reviews. It is read once, each row written
    as it comes, so a generator never holds the rows. Values are printed
    with 10 decimal digits of mantissa so a reread loses nothing at
    float32 scale. Returns the number of rows written.
    """
    names = feature_names()
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for line in provenance or []:
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
