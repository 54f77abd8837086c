"""Reference feature pipeline for differential tests: tokenize -> tag -> count -> normalize.

This is the character-loop tokenizer and the token-by-token counter that
``sarcnet.features.extract_counts`` replaced with one regex scan, kept
unchanged so the tests can hold the new pass to exactly the same counts.
``normalize`` is the per-feature loop that the vectorized
``sarcnet.features.normalize`` replaced, kept so the tests can hold the
new one to the same bits.
Tokens carry byte spans into the UTF-8 encoding of the source text, so
the surface always equals the decoded source bytes at the span.

The tagger keeps only the rule the features read: laughter or an
interjection-lexicon word is ``UH``, any other word ``NN``, and a
non-word token ``OTHER``.
"""

import enum
import re
from dataclasses import dataclass

import numpy as np

from sarcnet.features import FeatureCounts, FeatureKind, catalog
from sarcnet.lexicons import Lexicons, default_lexicons

ELLIPSIS_CHAR = "…"

# Characters for differential tests: those where the regex class \w and
# isalpha/isdigit disagree ('_', '½', 'Ⅻ', '²', '٣'), the token
# punctuation, cased and uncased letters, and whitespace that str.split()
# splits at but a text line does not end at.
EDGE_CHARS = "ab'_ ½Ⅻ²٣!?.…HAhaSOoOéß漢\t\x1c\x85\u2028\u3000"


class TokenKind(enum.Enum):
    WORD = "word"
    PUNCT_RUN = "punct_run"
    ELLIPSIS = "ellipsis"


@dataclass(frozen=True)
class Token:
    surface: str
    kind: TokenKind
    start: int  # byte offset into the UTF-8 encoded source, inclusive
    end: int  # byte offset, exclusive


class PosTag(enum.Enum):
    UH = "UH"  # interjection
    NN = "NN"  # any other word
    OTHER = "OTHER"  # non-word tokens


@dataclass(frozen=True)
class TaggedToken:
    token: Token
    tag: PosTag


def _is_word_char(ch: str) -> bool:
    return ch.isalpha() or ch.isdigit() or ch == "'"


def tokenize(text: str) -> list:
    """Split ``text`` into Word/PunctRun/Ellipsis tokens ordered by span."""
    tokens = []
    i = 0
    byte_pos = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if _is_word_char(ch):
            j = i
            has_letter = False
            while j < n and _is_word_char(text[j]):
                has_letter = has_letter or text[j].isalpha()
                j += 1
            surface = text[i:j]
            width = len(surface.encode("utf-8"))
            if has_letter:
                tokens.append(Token(surface, TokenKind.WORD, byte_pos, byte_pos + width))
            byte_pos += width
            i = j
        elif ch in "!?":
            j = i
            while j < n and text[j] in "!?":
                j += 1
            surface = text[i:j]
            tokens.append(Token(surface, TokenKind.PUNCT_RUN, byte_pos, byte_pos + len(surface)))
            byte_pos += len(surface)
            i = j
        elif ch == ".":
            j = i
            while j < n and text[j] == ".":
                j += 1
            surface = text[i:j]
            if j - i >= 3:
                tokens.append(Token(surface, TokenKind.ELLIPSIS, byte_pos, byte_pos + len(surface)))
            byte_pos += len(surface)
            i = j
        elif ch == ELLIPSIS_CHAR:
            width = len(ch.encode("utf-8"))
            tokens.append(Token(ch, TokenKind.ELLIPSIS, byte_pos, byte_pos + width))
            byte_pos += width
            i += 1
        else:
            byte_pos += len(ch.encode("utf-8"))
            i += 1
    return tokens


# laughter: two or more "ha" groups, optional trailing "h" ("haha", "HAHAH", ...)
_LAUGHTER = re.compile(r"(?:ha){2,}h?")


def tag_word(surface: str, lexicons: Lexicons) -> PosTag:
    """Tag one word surface. Pure function of the lowercased surface and the lexicons."""
    lower = surface.lower()
    if _LAUGHTER.fullmatch(lower) or lower in lexicons.interjections:
        return PosTag.UH
    return PosTag.NN


def pos_tag(tokens: list, lexicons: Lexicons | None = None) -> list:
    """Assign exactly one tag to every token; non-word tokens get OTHER."""
    lex = lexicons if lexicons is not None else default_lexicons()
    tagged = []
    for token in tokens:
        if token.kind is TokenKind.WORD:
            tagged.append(TaggedToken(token, tag_word(token.surface, lex)))
        else:
            tagged.append(TaggedToken(token, PosTag.OTHER))
    return tagged


def _is_all_caps(surface: str) -> bool:
    return len(surface) >= 2 and surface.isalpha() and surface.isupper()


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


def extract_counts(tagged: list, lexicons: Lexicons | None = None) -> FeatureCounts:
    """Count every catalog feature over one review's tagged tokens."""
    lex = lexicons if lexicons is not None else default_lexicons()
    c = dict.fromkeys([d.id for d in catalog()], 0)
    word_count = 0
    for tt in tagged:
        token = tt.token
        if token.kind is TokenKind.WORD:
            word_count += 1
            lower = token.surface.lower()
            if tt.tag is PosTag.UH:
                c["f1"] += 1
            if lower in lex.invocations:
                c["f2"] += 1
            if lower in lex.intensifiers:
                c["f3"] += 1
            if lower in lex.positive_words:
                c["f4"] += 1
            if lower in lex.negative_words:
                c["f5"] += 1
            if _is_all_caps(token.surface):
                c["f12"] += 1
            if _is_elongated(token.surface):
                c["f13"] += 1
            if lower in lex.second_person:
                c["f14"] += 1
            if lower in lex.first_person_plural:
                c["f15"] += 1
        elif token.kind is TokenKind.PUNCT_RUN:
            s = token.surface
            if "!" in s and "?" in s:
                c["f9"] += 1
            elif s == "!":
                c["f11"] += 1
            elif "!" in s:
                c["f7"] += 1
            elif len(s) >= 2:
                c["f8"] += 1
        elif token.kind is TokenKind.ELLIPSIS:
            c["f10"] += 1
    c["f6"] = 1 if c["f4"] > 0 and c["f5"] > 0 else 0
    return FeatureCounts(word_count=word_count, **c)


def reference_counts(text: str, lexicons: Lexicons | None = None) -> FeatureCounts:
    """tokenize -> pos_tag -> extract_counts over ``text``."""
    return extract_counts(pos_tag(tokenize(text), lexicons), lexicons)


def normalize(counts: FeatureCounts) -> np.ndarray:
    """Map raw counts to the 15-component vector in [0, 1], one feature at a time."""
    if counts.word_count == 0:
        return np.zeros(len(catalog()))
    out = np.empty(len(catalog()))
    for i, desc in enumerate(catalog()):
        raw = getattr(counts, desc.id)
        if desc.kind is FeatureKind.FLAG:
            out[i] = float(raw)
        else:
            out[i] = min(1.0, raw / counts.word_count)
    return out
