"""The tokenizer: one regex scan that cuts review text into token surfaces.

Three token kinds are recognized; everything else is delimiter text:

* word: maximal run of letters, digits, and ASCII apostrophes that
  contains at least one letter ("Aren't" is a single word). Letters and
  digits are the characters ``str.isalpha`` and ``str.isdigit`` accept,
  so non-ASCII punctuation other than the ellipsis character, '_', and
  numerics that are not digits ('½', 'Ⅻ') separate words.
* punctuation run: maximal run of '!' and '?' characters. Mixed runs
  such as "?!" stay one token; classifying them is the feature
  extractor's job.
* ellipsis: a run of three or more '.' characters, or one U+2026
  ellipsis character.

A token's kind can be read off its first character, so tokens are plain
strings. No token holds a character that ``str.isspace`` accepts, so
none spans whitespace, and a text's tokens are those of its
``str.split()`` chunks, in order. The scan finds word runs with the
regex class ``[\\w']``, which also admits '_' and non-digit numerics; a
run that is not all letters is re-split by the exact rule above.
"""

import re
from itertools import groupby

# Word runs first: '!', '?', '.' and '…' are not in [\w'], so each match
# takes exactly one branch, decided by its first character.
_TOKEN = re.compile(r"[\w']+|[!?]+|\.{3,}|…")


def _is_word_char(ch: str) -> bool:
    return ch.isalpha() or ch.isdigit() or ch == "'"


def _words_in(run: str) -> list:
    """The words of one [\\w']+ run under the exact word rule."""
    pieces = ("".join(chars) for is_word, chars in groupby(run, _is_word_char) if is_word)
    return [piece for piece in pieces if any(ch.isalpha() for ch in piece)]


def tokenize(text: str) -> list:
    """The surfaces of the word, punctuation-run and ellipsis tokens of ``text``, in order."""
    tokens = []
    for run in _TOKEN.findall(text):
        if run.isalpha() or run[0] in "!?.…":
            tokens.append(run)
        else:
            tokens.extend(_words_in(run))
    return tokens
