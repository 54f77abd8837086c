"""The reference tokenizer and tagger, and the regex scan held to them.

TestTokenize, TestTagWord and TestPosTag pin the behavior of the
test-only reference pipeline (reference_text.py), including span
bookkeeping under fuzz. TestScanMatchesReference holds
``sarcnet.text.tokenize`` to the reference's surfaces, and checks the
fact the feature counter's chunk table rests on: no token spans
whitespace.
"""

import random
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sarcnet.text
from reference_text import (
    EDGE_CHARS,
    ELLIPSIS_CHAR,
    LEXICONS,
    PosTag,
    TokenKind,
    pos_tag,
    tag_word,
    tokenize,
)


def kinds(text):
    return [(t.surface, t.kind) for t in tokenize(text)]


@pytest.fixture(scope="module")
def lex():
    return LEXICONS


class TestTokenize:
    def test_basic_sentence(self):
        assert kinds("God! Aren't we clever??") == [
            ("God", TokenKind.WORD),
            ("!", TokenKind.PUNCT_RUN),
            ("Aren't", TokenKind.WORD),
            ("we", TokenKind.WORD),
            ("clever", TokenKind.WORD),
            ("??", TokenKind.PUNCT_RUN),
        ]

    def test_apostrophes_stay_inside_words(self):
        tokens = tokenize("I'm sure it's fine")
        assert [t.surface for t in tokens] == ["I'm", "sure", "it's", "fine"]

    def test_digit_only_runs_are_not_words(self):
        assert kinds("234") == []
        assert kinds("2nd table4two") == [
            ("2nd", TokenKind.WORD),
            ("table4two", TokenKind.WORD),
        ]

    def test_mixed_punctuation_is_one_run(self):
        assert kinds("what?!") == [
            ("what", TokenKind.WORD),
            ("?!", TokenKind.PUNCT_RUN),
        ]

    def test_ellipsis_needs_three_dots(self):
        assert kinds("so..") == [("so", TokenKind.WORD)]
        assert kinds("so...") == [("so", TokenKind.WORD), ("...", TokenKind.ELLIPSIS)]
        assert kinds("so.....") == [("so", TokenKind.WORD), (".....", TokenKind.ELLIPSIS)]

    def test_unicode_ellipsis_character(self):
        assert kinds(f"well{ELLIPSIS_CHAR}") == [
            ("well", TokenKind.WORD),
            (ELLIPSIS_CHAR, TokenKind.ELLIPSIS),
        ]

    def test_other_punctuation_is_delimiter(self):
        assert [t.surface for t in tokenize("wait, (really) -- no; ¡hola!")] == [
            "wait", "really", "no", "hola", "!",
        ]

    def test_case_is_preserved(self):
        assert [t.surface for t in tokenize("SO GoOd")] == ["SO", "GoOd"]

    def test_empty_and_whitespace(self):
        assert tokenize("") == []
        assert tokenize("  \t\n ") == []

    def test_spans_are_byte_offsets(self):
        text = "café ok… fine!"
        data = text.encode("utf-8")
        for token in tokenize(text):
            assert data[token.start:token.end].decode("utf-8") == token.surface

    def test_spans_fuzz(self):
        rng = random.Random(91)
        alphabet = "ab cDé!?.…'19ñ\t"
        for _ in range(500):
            text = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 60)))
            data = text.encode("utf-8")
            previous_end = 0
            for token in tokenize(text):
                assert token.start >= previous_end
                assert token.end > token.start
                assert data[token.start:token.end].decode("utf-8") == token.surface
                previous_end = token.end


class TestTagWord:

    @pytest.mark.parametrize("word", ["haha", "Haha", "HAHAHA", "hahah", "lol", "wow"])
    def test_interjections(self, lex, word):
        assert tag_word(word, lex) is PosTag.UH

    def test_short_ha_is_not_laughter(self, lex):
        assert tag_word("ha", lex) is PosTag.NN

    def test_default_is_noun(self, lex):
        assert tag_word("table", lex) is PosTag.NN


class TestPosTag:
    def test_non_words_get_other(self):
        tagged = pos_tag(tokenize("wow!! fine..."))
        assert [(t.token.surface, t.tag) for t in tagged] == [
            ("wow", PosTag.UH),
            ("!!", PosTag.OTHER),
            ("fine", PosTag.NN),
            ("...", PosTag.OTHER),
        ]

    def test_every_token_is_tagged_fuzz(self):
        rng = random.Random(17)
        alphabet = "abcdefgh !?.'…ABC123"
        for _ in range(300):
            text = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 80)))
            tokens = tokenize(text)
            tagged = pos_tag(tokens)
            assert len(tagged) == len(tokens)
            for tt in tagged:
                assert isinstance(tt.tag, PosTag)
                if tt.token.kind is not TokenKind.WORD:
                    assert tt.tag is PosTag.OTHER
                else:
                    assert tt.tag is not PosTag.OTHER

    def test_determinism(self):
        text = "Haha! SO great... you'd LOVE it?!"
        first = pos_tag(tokenize(text))
        second = pos_tag(tokenize(text))
        assert first == second


def reference_surfaces(text):
    return [t.surface for t in tokenize(text)]


class TestScanMatchesReference:
    @pytest.mark.parametrize("text", [
        "God! Aren't we clever??",
        "a²²² b",
        "x½y",
        "snake_case",
        "…",
        "..",
        "2nd 234 table4two '' 'tis",
        "so.. so... so..... well……",
        "wait, (really) -- no; ¡hola!?!",
        "café Ⅻ٣x naïve_and_ok",
    ])
    def test_examples(self, text):
        assert sarcnet.text.tokenize(text) == reference_surfaces(text)

    @settings(max_examples=500)
    @given(st.text(alphabet=st.sampled_from(EDGE_CHARS) | st.characters(codec="utf-8")))
    @example("a²²² b")
    @example("x½y")
    def test_arbitrary_unicode(self, text):
        assert sarcnet.text.tokenize(text) == reference_surfaces(text)

    def test_no_whitespace_character_starts_a_token(self):
        """The feature counter tokenizes a text chunk by chunk, split at
        whitespace. That is exact because _TOKEN has no lookaround and
        matches no character that str.isspace() accepts."""
        spaces = [ch for ch in map(chr, range(sys.maxunicode + 1)) if ch.isspace()]
        assert set(" \t\x1c\x85\u2028\u3000") <= set(spaces)
        assert [ch for ch in spaces if sarcnet.text._TOKEN.match(ch) is not None] == []

    @settings(max_examples=500)
    @given(st.text(alphabet=st.sampled_from(EDGE_CHARS) | st.characters(codec="utf-8")))
    def test_tokens_are_the_chunks_tokens(self, text):
        chunked = [token for chunk in text.split() for token in sarcnet.text.tokenize(chunk)]
        assert sarcnet.text.tokenize(text) == chunked
