import copy
import dataclasses
import gc
import math
import pickle
import random
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from braident import braids
from braident.braids import (
    BraidWord,
    WordSyntaxError,
    concat,
    cycle_count,
    exponent_sum,
    free_reduce,
    identity_word,
    inverse,
    parse_braid_word,
    permutation_image,
    render_braid_word,
)
from braident.links import summarize_closure
from wordcodes import codes_of, word_of

BORROMEAN_TEXT = "s1 s2^-1 s1 s2^-1 s1 s2^-1"
NUS_TEXT = "(s1 s2)^3"


def words(strands, max_size=12):
    code = st.tuples(
        st.integers(min_value=1, max_value=strands - 1),
        st.sampled_from([1, -1]),
    ).map(lambda pair: pair[0] * pair[1])
    return st.lists(code, max_size=max_size).map(lambda codes: word_of(strands, codes))


# Separators between tokens: none, ASCII and Unicode whitespace (str.isspace).
SEPARATORS = st.sampled_from(["", " ", "\t\n", "\u2003", "\x1c", "\u3000 "])


@st.composite
def word_texts(draw, strands=3, depth=0):
    parts = []
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        if depth < 2 and draw(st.booleans()):
            atom = f"({draw(word_texts(strands=strands, depth=depth + 1))})"
        else:
            letter = draw(st.sampled_from("sσ"))
            atom = f"{letter}{draw(st.integers(min_value=1, max_value=strands - 1))}"
        if draw(st.booleans()):
            sign = draw(st.sampled_from(["", "+", "-"]))
            atom += f"{draw(SEPARATORS)}^{sign}{draw(st.integers(min_value=0, max_value=3))}"
        parts.append(atom)
        parts.append(draw(SEPARATORS))
    return "".join(parts)


class TestParser:
    def test_borromean_word(self):
        word = parse_braid_word(BORROMEAN_TEXT, 3)
        assert codes_of(word) == [1, -2] * 3

    def test_nus_power_expansion(self):
        word = parse_braid_word(NUS_TEXT, 3)
        assert codes_of(word) == [1, 2] * 3

    def test_empty_text_is_identity(self):
        assert parse_braid_word("", 3) == identity_word(3)
        assert parse_braid_word("   ", 3) == identity_word(3)

    def test_index_out_of_range(self):
        with pytest.raises(WordSyntaxError, match="index 3 out of range"):
            parse_braid_word("s3", 3)

    def test_unicode_sigma_accepted(self):
        assert parse_braid_word("σ1 σ2^-1", 3) == parse_braid_word("s1 s2^-1", 3)

    def test_negative_group_power_is_inverse(self):
        base = parse_braid_word("s1 s2", 3)
        assert parse_braid_word("(s1 s2)^-1", 3) == inverse(base)
        assert parse_braid_word("(s1 s2)^-2", 3) == concat(inverse(base), inverse(base))

    def test_zero_power_is_empty(self):
        assert parse_braid_word("(s1 s2)^0", 3) == identity_word(3)
        assert parse_braid_word("s1^0 s2", 3) == parse_braid_word("s2", 3)

    def test_negative_letter_power(self):
        assert parse_braid_word("s1^-3", 3) == parse_braid_word("s1^-1 s1^-1 s1^-1", 3)

    def test_nested_groups(self):
        assert parse_braid_word("((s1 s2)^2 s1)^2", 3) == parse_braid_word(
            "s1 s2 s1 s2 s1 s1 s2 s1 s2 s1", 3
        )

    @pytest.mark.parametrize(
        "text,position",
        [
            ("s", 0),
            ("^2", 0),
            ("(s1", 0),
            (")", 0),
            ("s1^", 2),
            ("x1", 0),
            ("s1 x2", 3),
            ("s1 ^ 2", 3),
            ("s1 )", 3),
            pytest.param("(" * 3000 + "s1" + ")" * 3000, 200, id="nested-3000-deep"),
            ("s1^99999999999", 2),
            pytest.param("s1^" + "9" * 5000, 2, id="exponent-5000-digits"),
            pytest.param("s" + "1" * 5000, 0, id="index-5000-digits"),
            pytest.param("s\u00b2", 0, id="superscript-index"),
            pytest.param("s1^\u00b2", 2, id="superscript-exponent"),
            pytest.param("s\u0661", 0, id="arabic-indic-index"),
            pytest.param("s1^\u0663", 2, id="arabic-indic-exponent"),
        ],
    )
    def test_syntax_error_positions(self, text, position):
        with pytest.raises(WordSyntaxError) as err:
            parse_braid_word(text, 3)
        assert err.value.position == position

    @pytest.mark.parametrize(
        "text,message,position",
        [
            ("s9 x", "unexpected character 'x'", 3),  # lexical errors come first
            (") x", "unexpected character 'x'", 2),
            ("s1 ^-1 ^2", "power without a preceding generator or group", 7),
        ],
    )
    def test_syntax_error_messages(self, text, message, position):
        with pytest.raises(WordSyntaxError, match=message) as err:
            parse_braid_word(text, 3)
        assert err.value.position == position

    def test_inverse_letter_with_a_longer_exponent(self):
        word = parse_braid_word("s1^-10", 3)
        assert codes_of(word) == [-1] * 10
        assert word.powers == ((0, 1, 10, ()),)

    @pytest.mark.parametrize("space", ["\u2003", "\x1c", "\u3000", "\x85"])
    def test_unicode_whitespace_between_tokens(self, space):
        assert parse_braid_word(f"s1{space}s2{space}^-1", 3) == parse_braid_word("s1 s2^-1", 3)

    def test_whitespace_is_what_str_isspace_accepts(self):
        spaces = "".join(c for c in map(chr, range(0x110000)) if c.isspace())
        assert parse_braid_word(f"{spaces}s1{spaces}({spaces}s2){spaces}", 3) == parse_braid_word(
            "s1 s2", 3
        )
        for lookalike in ("\u200b", "\u2060", "\ufeff"):  # not str.isspace
            with pytest.raises(WordSyntaxError) as err:
                parse_braid_word(f"s1{lookalike}s2", 3)
            assert err.value.position == 2

    def test_sigma_and_s_mix_in_one_word(self):
        assert parse_braid_word("σ1 s2^-1σ2 (s1σ2)^2", 3) == parse_braid_word(
            "s1 s2^-1 s2 s1 s2 s1 s2", 3
        )

    def test_explicit_plus_exponent(self):
        assert parse_braid_word("s1^+2 (s1 s2)^+1", 3) == parse_braid_word("s1 s1 s1 s2", 3)

    def test_leading_zeros_do_not_count_toward_digit_cap(self):
        zeros = "0" * 5000
        assert parse_braid_word(f"s{zeros}1^-{zeros}2", 3) == parse_braid_word("s1^-2", 3)

    def test_parse_leaves_no_reference_cycle(self):
        # a cycle would keep each parse's token list alive until the collector runs
        parse_braid_word("s1", 3)
        gc.collect()
        gc.disable()
        try:
            parse_braid_word("(s1 s2^-1)^3 s1^2 ((s2)^-2 s1)^2", 3)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_strands_below_two_rejected(self):
        with pytest.raises(ValueError):
            parse_braid_word("s1", 1)

    @pytest.mark.parametrize("strands", [3.0, "3", None])
    def test_strand_count_must_be_an_integer(self, strands):
        with pytest.raises(ValueError, match="strand count must be an integer"):
            parse_braid_word("s1", strands)
        with pytest.raises(ValueError, match="strand count must be an integer"):
            BraidWord(strands, [1])

    def test_numpy_integer_strand_count(self):
        for word in (parse_braid_word("s1 s2^-1", np.int64(3)), BraidWord(np.int64(3), [1, -2])):
            assert type(word.strands) is int and word == BraidWord(3, [1, -2])

    @given(words(3))
    def test_render_parse_round_trip(self, word):
        assert parse_braid_word(render_braid_word(word), 3) == word

    @given(word_texts())
    def test_text_round_trip(self, text):
        first = parse_braid_word(text, 3)
        again = parse_braid_word(render_braid_word(first), 3)
        assert again == first
        assert_codes(first)
        assert_codes(again)


@st.composite
def flat_texts(draw, strands=3):
    """Text that both flat readings take: one-digit generators with an optional
    ^-1, at least one space between tokens; long when ``long`` is drawn."""
    tokens = []
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        index = draw(st.integers(min_value=1, max_value=min(strands - 1, 9)))
        tokens.append(f"s{index}{draw(st.sampled_from(['', '^-1']))}")
    spaces = st.text(alphabet=" ", min_size=1, max_size=3)
    text = "".join(draw(spaces) + token for token in tokens) + draw(spaces)
    if draw(st.booleans()):  # past SCAN_CHARS: the byte scan reads it
        text *= braids.SCAN_CHARS // len(text) + 1
    return text


@st.composite
def spelled_texts(draw, strands=3):
    """Generators with an optional ^-1 in every spelling the grammar takes: s or σ,
    leading zeros, no space or any str.isspace whitespace between tokens and
    before the ^-1, short or past SCAN_CHARS."""
    parts = [draw(SEPARATORS)]
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        index = draw(st.integers(min_value=1, max_value=strands - 1))
        width = draw(st.integers(min_value=1, max_value=3))  # leading zeros
        parts.append(f"{draw(st.sampled_from('sσ'))}{index:0{width}d}")
        if draw(st.booleans()):
            parts.append(f"{draw(SEPARATORS)}^-1")
        parts.append(draw(SEPARATORS))
    text = "".join(parts)
    if text and draw(st.booleans()):
        text *= braids.SCAN_CHARS // len(text) + 1
    return text


# Endings that leave flat text one step from flat.
NEAR_FLAT_ENDINGS = ["s1^-", "s1^-11", "s10", "s0", "ss1", "\t", "\xa0", "σ1"]


@st.composite
def near_flat_texts(draw, strands):
    """Flat text past SCAN_CHARS with one character replaced, or with a
    near-flat ending at its end or after one of its spaces."""
    tokens = []
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        index = draw(st.integers(min_value=1, max_value=min(strands - 1, 9)))
        tokens.append(f"s{index}{draw(st.sampled_from(['', '^-1']))}")
    text = " ".join(tokens) + " "
    text *= braids.SCAN_CHARS // len(text) + 1
    if draw(st.booleans()):
        at = draw(st.integers(min_value=0, max_value=len(text) - 1))
        flipped = draw(st.sampled_from("s0123456789^-+() \t\xa0σx"))
        return text[:at] + flipped + text[at + 1 :]
    ending = draw(st.sampled_from(NEAR_FLAT_ENDINGS))
    spaces = [i for i, ch in enumerate(text) if ch == " "]
    at = draw(st.sampled_from([len(text), *spaces]))
    return text[:at] + ending + text[at:]


def grammar_parse(text, strands):
    """The token regex and the grammar alone, without the flat readings."""
    codes, runs, _ = braids._parse_sequence(braids._positioned(text), 0, 0, strands)
    return braids._word_with_runs(strands, codes, tuple(runs))


def outcome(parse, text, strands):
    """The codes and power runs a parse gives, or its error message and position."""
    try:
        word = parse(text, strands)
    except WordSyntaxError as err:
        return "error", str(err), err.position
    return "word", codes_of(word), word.powers


# Ahead of a case, flat text that takes the case past SCAN_CHARS.
LONG_PREFIX = "s1 s2^-1 " * 100


def assert_codes(word):
    """``word.codes`` is a read-only intp array, and ``word.letters`` its view."""
    codes = word.codes
    assert codes.dtype == np.intp and codes.shape == (len(word),)
    assert [letter.index * letter.sign for letter in word.letters] == codes.tolist()
    assert all(letter.sign in (1, -1) for letter in word.letters)
    assert not codes.flags.writeable
    if len(codes):
        with pytest.raises(ValueError):
            codes[0] = 1


class TestFlatText:
    """Flat text is read straight into codes and gives what the grammar gives."""

    def test_long_prefix_passes_the_scan_length(self):
        assert len(LONG_PREFIX) >= braids.SCAN_CHARS

    @given(
        st.integers(min_value=2, max_value=12).flatmap(
            lambda n: st.tuples(st.just(n), flat_texts(n))
        )
    )
    def test_fast_path_matches_the_grammar(self, case):
        n, text = case
        with mock.patch.object(braids, "_parse_sequence", wraps=braids._parse_sequence) as grammar:
            word = parse_braid_word(text, n)
            assert not grammar.called  # flat text never reaches the grammar
            assert word == parse_braid_word("(" + text + ")", n)  # a group takes the grammar
            assert grammar.called
        assert outcome(parse_braid_word, text, n) == outcome(grammar_parse, text, n)
        assert word.powers == ()
        assert_codes(word)

    @given(
        st.integers(min_value=2, max_value=12).flatmap(
            lambda n: st.tuples(st.just(n), spelled_texts(n))
        )
    )
    def test_every_spelling_parses_as_the_grammar_does(self, case):
        n, text = case
        assert outcome(parse_braid_word, text, n) == outcome(grammar_parse, text, n)
        assert_codes(parse_braid_word(text, n))

    @given(st.text(alphabet="sσ0123^-+() \t\u3000x", max_size=30))
    def test_any_text_parses_as_the_grammar_does(self, text):
        assert outcome(parse_braid_word, text, 3) == outcome(grammar_parse, text, 3)

    @given(
        st.integers(min_value=2, max_value=12).flatmap(
            lambda n: st.tuples(st.just(n), near_flat_texts(n))
        )
    )
    @example((3, "s1 s2^-1 " * 100 + "s1^-"))
    @example((3, "s1 s2^-1 " * 100 + "s1^-11"))
    def test_near_flat_long_texts_parse_as_the_grammar_does(self, case):
        # the byte scan's rejections: the same codes, or the same error at the same place
        n, text = case
        assert len(text) >= braids.SCAN_CHARS
        assert outcome(parse_braid_word, text, n) == outcome(grammar_parse, text, n)

    @given(st.text(alphabet="sσ01239^-+() \t\x1c\u3000x", max_size=30), st.sampled_from([3, 11]))
    def test_any_long_text_parses_as_the_grammar_does(self, text, n):
        for long in (LONG_PREFIX + text, text + LONG_PREFIX, LONG_PREFIX + text + LONG_PREFIX):
            assert outcome(parse_braid_word, long, n) == outcome(grammar_parse, long, n)

    FLAT_LOOKING = [
        ("s0", 0),
        ("s1234", 0),
        ("s1^-12", None),
        ("s1^-1^-1", 5),
        ("s1 s3", 3),
        ("s2 σ003^-1", 3),
        ("s1 ^-1 s0002", None),
        ("s1^-1 x", 6),
        ("s1 ^ -1", 3),
        ("s1^+1 s2", None),
        ("s1\ts2^-1", None),
        ("s1\x1cs2^-1", None),
        ("s1\u3000s2^-1", None),
        ("σ1 σ2^-1", None),
        ("s01 s002^-1", None),
        ("s1 ^-1", None),
        ("s1s2", None),
        ("s1^-1s2^-1s1", None),
        ("s1^-1^2", 5),
        ("s2^-1 s1 s9", 9),
        ("s1 s2 s", 6),
        ("s1 s2-", 5),
        ("s1 s2^", 5),
        ("s1 s2^-", 5),
        ("s1 -1", 3),
        ("s1 1", 3),
    ]

    @pytest.mark.parametrize("text,position", FLAT_LOOKING)
    def test_flat_looking_texts_parse_as_the_grammar_does(self, text, position):
        result = outcome(parse_braid_word, text, 3)
        assert result == outcome(grammar_parse, text, 3)
        if position is None:
            assert result[0] == "word"
        else:
            assert result[2] == position

    @pytest.mark.parametrize("text,position", FLAT_LOOKING)
    def test_long_flat_looking_texts_parse_as_the_grammar_does(self, text, position):
        for long in (LONG_PREFIX + text, text + " " + LONG_PREFIX):
            result = outcome(parse_braid_word, long, 3)
            assert result == outcome(grammar_parse, long, 3)
            assert result[0] == ("word" if position is None else "error")
        if position is not None:
            assert result[2] == position

    @pytest.mark.parametrize("text", ["s10 s1^-1", "s1 s10^-1 s11"])
    def test_two_digit_indices_take_the_grammar(self, text):
        for t in (text, LONG_PREFIX + text):
            result = outcome(parse_braid_word, t, 12)
            assert result[0] == "word"
            assert result == outcome(grammar_parse, t, 12)

    def test_letter_cap_error_comes_from_the_grammar(self, monkeypatch):
        monkeypatch.setattr(braids, "MAX_WORD_LETTERS", 5)
        assert len(parse_braid_word("s1 " * 5, 3)) == 5
        with pytest.raises(WordSyntaxError, match="past 5 letters") as err:
            parse_braid_word("s1 " * 6, 3)
        assert err.value.position == 15

    def test_letter_cap_error_comes_from_the_grammar_past_the_scan_length(self, monkeypatch):
        monkeypatch.setattr(braids, "MAX_WORD_LETTERS", 200)
        assert len(parse_braid_word("s1 " * 200, 3)) == 200
        with pytest.raises(WordSyntaxError, match="past 200 letters") as err:
            parse_braid_word("s1 " * 201, 3)
        assert err.value.position == 600

    def test_letter_cap_error_points_at_the_power_of_an_inverse(self, monkeypatch):
        monkeypatch.setattr(braids, "MAX_WORD_LETTERS", 5)
        with pytest.raises(WordSyntaxError, match="past 5 letters") as err:
            parse_braid_word("s1^-1 " * 6, 3)
        assert err.value.position == 32  # the sixth "^", not its "s"

    def test_long_text_keeps_no_state_per_letter(self):
        rng = random.Random(7)
        text = " ".join(f"s{rng.randint(1, 2)}{rng.choice(['', '^-1'])}" for _ in range(10**5))
        parse_braid_word(text, 3)  # warms numpy's caches outside the measurement
        tracemalloc.start()
        try:
            word = parse_braid_word(text, 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(word) == 10**5
        # Measured 2.7 MB: the text's bytes, the "s" positions and the
        # codes (8 bytes a letter each).  The token regex took 7.7 MB, the
        # tokenizer path 17.7 MB, and a flatness test by a backtracking
        # fullmatch 43 MB.
        assert peak < 8 * 10**6


class TestPowerRuns:
    """``BraidWord.powers``: the runs a parsed word's ``^k`` tokens wrote."""

    def test_nested_runs(self):
        # inner runs of a negative power are mirrored into the inverted period
        word = parse_braid_word("((s1)^-500 (s2 s1)^-130)^-2", 3)
        assert word.powers == ((0, 760, 2, ((0, 2, 130, ()), (260, 1, 500, ()))),)
        word = parse_braid_word("s2 ((s1 s2^-1)^300 s2)^7", 3)
        assert word.powers == ((1, 601, 7, ((0, 2, 300, ()),)),)
        # a run nested in another's first period stays in the first period when inverted
        assert parse_braid_word("((s1^300)^2)^-1", 3).powers == ((0, 300, 2, ((0, 1, 300, ()),)),)
        word = parse_braid_word("(s2 ((s1 s2^-1)^150 s2)^2)^-3", 3)
        assert word.powers == ((0, 603, 3, ((0, 301, 2, ((1, 2, 150, ()),)),)),)

    def test_short_powers_and_empty_atoms_record_no_run(self):
        assert parse_braid_word("s1 s2^-1 (s1 s2)^1 (s2)^-1 (s1)^0", 3).powers == ()
        assert parse_braid_word("()^5 s1^2", 3).powers == ((0, 1, 2, ()),)

    def test_only_the_parser_records_runs(self):
        word = parse_braid_word("(s1 s2)^3", 3)
        assert word.powers == ((0, 2, 3, ()),)
        assert repr(word) == repr(BraidWord(3, word.codes))
        for derived in (concat(word, word), inverse(word), free_reduce(word)):
            assert derived.powers == ()

    @given(word_texts())
    def test_runs_repeat_their_first_period(self, text):
        word = parse_braid_word(text, 3)
        letters = codes_of(word)

        def check(runs, lo, hi):
            at = lo  # runs are disjoint, in order, inside [lo, hi), starts relative to lo
            for start, period, count, inner in runs:
                start += lo
                stop = start + period * count
                assert period >= 1 and count >= 2 and at <= start and stop <= hi
                assert letters[start:stop] == letters[start : start + period] * count
                check(inner, start, start + period)
                at = stop

        check(word.powers, 0, len(letters))
        flat = BraidWord(3, word.codes)
        assert word == flat
        assert hash(word) == hash(flat)

    @given(
        st.sampled_from([2, 3, 5, 6, 8]).flatmap(
            lambda n: st.tuples(st.just(n), word_texts(strands=n))
        )
    )
    @example((3, "(s1 s2^-1)^3"))
    @example((3, "(s1 s2^-1)^6"))
    @example((3, "s2 (s1 s1^-1)^2 s2^-1 (s1 s2^-1)^3 s2 s2^-1"))
    @example((5, "((s1 s2 s3^-1)^1000 s4)^-7 s2"))
    @example((8, "((s1 s2 s3^-1 s4 s5 s6 s7^-1)^1500 s4)^-2 s7"))
    def test_runs_give_the_images_of_the_letters(self, case):
        n, text = case
        word = parse_braid_word(text, n)
        flat = BraidWord(n, word.codes)
        assert permutation_image(word) == permutation_image(flat)
        assert exponent_sum(word) == exponent_sum(flat)
        assert summarize_closure(word) == summarize_closure(flat)


class TestWordAlgebra:
    def test_concat(self):
        left = parse_braid_word("s1", 3)
        right = parse_braid_word("s2", 3)
        assert concat(left, right) == parse_braid_word("s1 s2", 3)
        assert concat(identity_word(3), right) == right
        # no implicit simplification
        pair = concat(parse_braid_word("s1", 3), parse_braid_word("s1^-1", 3))
        assert codes_of(pair) == [1, -1]

    def test_concat_strand_mismatch(self):
        with pytest.raises(ValueError, match="strand-count mismatch"):
            concat(identity_word(2), identity_word(3))

    def test_inverse(self):
        assert inverse(parse_braid_word("s1 s2", 3)) == parse_braid_word("s2^-1 s1^-1", 3)
        assert inverse(identity_word(3)) == identity_word(3)
        borromean = parse_braid_word(BORROMEAN_TEXT, 3)
        assert inverse(inverse(borromean)) == borromean

    def test_free_reduce(self):
        assert free_reduce(parse_braid_word("s1 s1^-1", 3)) == identity_word(3)
        assert free_reduce(parse_braid_word("s1 s2 s2^-1 s1", 3)) == parse_braid_word(
            "s1 s1", 3
        )
        nus = parse_braid_word(NUS_TEXT, 3)
        assert free_reduce(concat(nus, inverse(nus))) == identity_word(3)

    @given(words(4, max_size=40))
    def test_free_reduce_cancels_inverse(self, word):
        assert free_reduce(concat(word, inverse(word))) == identity_word(4)

    def test_exponent_sum(self):
        assert exponent_sum(parse_braid_word(BORROMEAN_TEXT, 3)) == 0
        assert exponent_sum(parse_braid_word(NUS_TEXT, 3)) == 6
        assert exponent_sum(identity_word(3)) == 0

    @given(words(4), words(4))
    def test_exponent_sum_homomorphism(self, w1, w2):
        assert exponent_sum(concat(w1, w2)) == exponent_sum(w1) + exponent_sum(w2)

    @given(words(4, max_size=20))
    def test_exponent_sum_free_reduce_invariant(self, word):
        assert exponent_sum(free_reduce(word)) == exponent_sum(word)
        assert exponent_sum(inverse(word)) == -exponent_sum(word)

    def test_letter_validation(self):
        # every code is a letter: nonzero, with |code| at most strands - 1
        for codes in ([0], [1, 0, 2], [3], [-3], [1, -3]):
            with pytest.raises(ValueError, match="out of range for 3 strands"):
                BraidWord(3, codes)
        with pytest.raises(ValueError, match="generator code 0"):
            BraidWord(3, np.array([2, -1, 0], np.int8))

    @pytest.mark.parametrize("length", [64, 65])
    def test_letter_validation_on_both_sides_of_the_loop_length(self, length):
        # a short and a long array, each with a bad code first, in the middle and last
        signed, unsigned = ([1, -2], np.intp, (0, 3, -3)), ([1, 2], np.uint64, (0, 3, 2**63))
        for valid, dtype, bads in (signed, unsigned):
            valid = (valid * length)[:length]
            assert codes_of(BraidWord(3, np.array(valid, dtype))) == valid
            for bad in bads:
                for at in (0, length // 2, length - 1):
                    codes = np.array(valid[:at] + [bad] + valid[at + 1 :], dtype)
                    with pytest.raises(ValueError, match=f"generator code {bad} out of range"):
                        BraidWord(3, codes)

    @pytest.mark.parametrize("code", [1.5, -2.0, 1.0, "1", None])
    def test_codes_must_be_integers(self, code):
        with pytest.raises(ValueError, match="1-D array of integers"):
            BraidWord(3, [1, code])
        with pytest.raises(ValueError, match="1-D array of integers"):
            BraidWord(3, [code])

    def test_letter_fields_are_read_as_plain_ints(self):
        for dtype in (np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint64):
            word = BraidWord(3, np.array([2, 1, 2], dtype))
            assert word.codes.dtype == np.intp and codes_of(word) == [2, 1, 2]
            assert all(type(c) is int for c in codes_of(word))
            assert word.letters == ((2, 1), (1, 1), (2, 1))
            assert all(type(x) is int for letter in word.letters for x in letter)
        word = BraidWord(3, np.array([2, -1], np.int8))
        assert word.letters[1].index == 1 and word.letters[1].sign == -1
        assert summarize_closure(word).exponent_sum == 0
        assert type(summarize_closure(word).exponent_sum) is int

    def test_codes_are_copied_and_read_only(self):
        given_codes = np.array([1, -2, 1])
        word = BraidWord(3, given_codes)
        given_codes[0] = 2
        assert codes_of(word) == [1, -2, 1] and given_codes.flags.writeable
        assert_codes(word)

    def test_empty_word(self):
        for empty in ((), [], np.array([], np.int8), np.array([])):
            word = BraidWord(3, empty)
            assert len(word) == 0 and word.letters == () and render_braid_word(word) == ""
            assert word == identity_word(3) == BraidWord(3) == parse_braid_word("", 3)
            assert_codes(word)

    def test_word_validation(self):
        with pytest.raises(ValueError, match="at least 2 strands"):
            BraidWord(1, ())
        with pytest.raises(ValueError, match="out of range for 2 strands"):
            BraidWord(2, [2])
        for codes in ([True, False], [[1, 2]], [(1, 1), (2, -1)], np.ones((2, 2), int), 1, "s1"):
            with pytest.raises(ValueError, match="1-D array of integers"):
                BraidWord(3, codes)

    def test_equal_codes_are_equal_words(self):
        parsed = parse_braid_word("(s1 s2^-1)^3", 3)
        assert parsed.powers
        words = [BraidWord(3, [1, -2] * 3), BraidWord(3, np.array([1, -2] * 3, np.int8)), parsed]
        for word in words:
            assert word == words[0] and hash(word) == hash(words[0])
        assert len(set(words)) == 1
        assert BraidWord(3, [1, -2]) != BraidWord(4, [1, -2])
        assert BraidWord(3, [1, -2]) != BraidWord(3, [1, 2])
        assert BraidWord(3, [1]) != BraidWord(3, [1, 1])
        assert BraidWord(3, [1]) != (1,)


class TestCodes:
    """``BraidWord.codes`` holds the signed letters, read-only, however the word was made."""

    @given(st.sampled_from([3, 5]).flatmap(lambda n: st.tuples(st.just(n), word_texts(strands=n))))
    @example((3, "((s1)^-500 (s2 s1)^-130)^-2"))
    @example((3, "(s2 ((s1 s2^-1)^150 s2)^2)^-3 s1"))
    def test_grammar_words(self, case):
        n, text = case
        word = parse_braid_word(text, n)
        assert_codes(word)
        assert word == BraidWord(n, word.codes)
        for derived in (inverse(word), free_reduce(word), concat(word, inverse(word))):
            assert_codes(derived)

    @given(st.integers(min_value=2, max_value=12).flatmap(flat_texts))
    def test_flat_words(self, text):
        word = parse_braid_word(text, 12)
        assert_codes(word)
        assert word == BraidWord(12, word.codes)
        assert_codes(inverse(word))
        assert_codes(free_reduce(word))

    @given(words(4, max_size=40), words(4, max_size=40))
    def test_built_words(self, w1, w2):
        for word in (w1, concat(w1, w2), inverse(w1), free_reduce(concat(w1, inverse(w2)))):
            assert_codes(word)
        assert_codes(dataclasses.replace(w1))
        assert_codes(dataclasses.replace(w1, codes=w2.codes))
        assert_codes(identity_word(4))

    def test_copies_and_pickles_read_the_codes_again(self):
        word = parse_braid_word("(s1 s2^-1)^3 s2", 3)
        word.codes
        for again in (copy.copy(word), copy.deepcopy(word), pickle.loads(pickle.dumps(word))):
            assert again == word and again.powers == word.powers
            assert_codes(again)

    def test_replace_drops_the_runs_and_keeps_the_codes_right(self):
        word = parse_braid_word("(s1 s2^-1)^3 s2", 3)
        assert_codes(word)
        again = dataclasses.replace(word)
        assert again.powers == () and again == word
        assert_codes(again)
        assert_codes(dataclasses.replace(word, codes=word.codes[:3]))


def swapped_images(word):
    """The permutation image and signed letter counts by one swap per letter."""
    moved, sums = list(range(word.strands)), [0] * word.strands
    for c in codes_of(word):
        i = abs(c)
        moved[i - 1], moved[i] = moved[i], moved[i - 1]
        sums[i] += 1 if c > 0 else -1
    image = [0] * word.strands
    for position, start in enumerate(moved, start=1):
        image[start] = position
    return tuple(image), tuple(sums[1:])


@st.composite
def powered_texts(draw, strands, depth=0):
    """Groups nested up to two deep, each atom raised to a power of either sign."""
    atoms = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        if depth < 2 and draw(st.booleans()):
            atom = f"({draw(powered_texts(strands, depth + 1))})"
        else:
            atom = f"s{draw(st.integers(min_value=1, max_value=strands - 1))}"
        exponent = draw(st.integers(min_value=-12, max_value=12))
        atoms.append(f"{atom}^{exponent}" if exponent != 1 else atom)
    return " ".join(atoms)


class TestPermutations:
    @given(st.integers(min_value=2, max_value=9).flatmap(lambda n: words(n, max_size=60)))
    def test_images_are_the_letter_by_letter_swaps(self, word):
        assert braids.word_images(word) == swapped_images(word)

    @given(
        st.integers(min_value=2, max_value=9).flatmap(
            lambda n: st.tuples(st.just(n), powered_texts(n))
        )
    )
    @example((6, "(s1 s2 s3 s4 s5)^-7 s5"))
    @example((8, "((s1 s3^-1)^3 s7 (s2 s5)^-4)^-11 s4^12"))
    def test_images_of_nested_and_negative_runs_are_the_swaps(self, case):
        n, text = case
        word = parse_braid_word(text, n)
        assert braids.word_images(word) == swapped_images(word)

    def test_long_power_past_the_table_is_read_through_its_cycles(self):
        # s1 ... s7 moves every strand one place along an 8-cycle, and
        # 142857 = 1 (mod 8); the flat swap loop would take a million swaps
        word = parse_braid_word("(s1 s2 s3 s4 s5 s6 s7)^142857", 8)
        assert len(word) == 999_999
        image, _ = swapped_images(parse_braid_word("s1 s2 s3 s4 s5 s6 s7", 8))
        assert braids.word_images(word) == (image, (142857,) * 7)

    @pytest.mark.parametrize("n", [3, 6, 9])
    def test_images_of_long_words_in_small_chunks(self, n):
        rng = random.Random(n)
        word = word_of(n, [rng.randint(1, n - 1) * rng.choice([1, -1]) for _ in range(5000)])
        assert braids.word_images(word) == swapped_images(word)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_symmetric_group_is_exact(self, n):
        # the group builder that makes the unitary images, certified on S_n
        elements, table, letters = braids._symmetric_group(n)
        assert len(elements) == math.factorial(n)
        np.testing.assert_array_equal(elements[0], np.eye(n))
        assert np.isin(elements, (0, 1)).all()
        assert (elements.sum(axis=1) == 1).all() and (elements.sum(axis=2) == 1).all()
        assert len({e.tobytes() for e in elements}) == len(elements)
        # permutation matrices multiply exactly, so each product is its element
        np.testing.assert_array_equal(elements[table], elements[:, None] @ elements[None])
        for c in [*range(1, n), *range(1 - n, 0)]:
            swap, i = np.eye(n), abs(c)
            swap[[i - 1, i]] = swap[[i, i - 1]]  # the transposition of points i - 1 and i
            np.testing.assert_array_equal(elements[letters[c]], swap)
            assert table[letters[c], letters[c]] == 0

    def test_image_of_single_letter(self):
        assert permutation_image(parse_braid_word("s1", 3)) == (2, 1, 3)

    def test_image_ignores_letter_sign(self):
        assert permutation_image(parse_braid_word("s1", 3)) == permutation_image(
            parse_braid_word("s1^-1", 3)
        )

    def test_nus_image_is_identity(self):
        assert permutation_image(parse_braid_word(NUS_TEXT, 3)) == (1, 2, 3)

    def test_squared_generator_image_is_identity(self):
        assert permutation_image(parse_braid_word("s1 s1", 2)) == (1, 2)

    @given(st.integers(min_value=2, max_value=5).flatmap(lambda n: st.tuples(words(n), words(n))))
    def test_image_homomorphism(self, pair):
        # the left word acts first: the image of w1 w2 sends x to q(p(x))
        w1, w2 = pair
        p, q = permutation_image(w1), permutation_image(w2)
        assert permutation_image(concat(w1, w2)) == tuple(q[p[x] - 1] for x in range(len(p)))

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_transposition_relations_exhaustive(self, n):
        def image(text):
            return permutation_image(parse_braid_word(text, n))

        identity = tuple(range(1, n + 1))
        for i in range(1, n):
            assert image(f"s{i} s{i}") == identity
        for i in range(1, n - 1):
            assert image(f"s{i} s{i + 1} s{i}") == image(f"s{i + 1} s{i} s{i + 1}")

    def test_far_commutation_exhaustive(self):
        for n in (4, 5):
            for i in range(1, n):
                for j in range(i + 2, n):
                    lhs = permutation_image(parse_braid_word(f"s{i} s{j}", n))
                    assert lhs == permutation_image(parse_braid_word(f"s{j} s{i}", n))

    def test_cycle_count(self):
        assert cycle_count((1, 2, 3, 4)) == 4
        assert cycle_count(permutation_image(parse_braid_word("s1 s1", 2))) == 2
        assert cycle_count(permutation_image(parse_braid_word(BORROMEAN_TEXT, 3))) == 3
        assert cycle_count((2, 1, 3)) == 2


def mirrored_runs(runs, length):
    """Runs of a span of ``length`` letters, read in the inverted span."""
    return tuple(
        (length - s - p * c, p, c, mirrored_runs(kids, p)) for s, p, c, kids in reversed(runs)
    )


def reference_parse(text):
    """The codes and power runs of ``powered_texts`` text, by a recursive
    reading of its own: every ^k with |k| >= 2 of a nonempty atom is a run
    whose first period holds the atom's runs, and ^-k inverts the atom."""
    tokens = re.findall(r"s[0-9]+|[()]|\^-?[0-9]+", text)
    pos = 0

    def sequence():
        nonlocal pos
        codes, runs = [], []
        while pos < len(tokens) and tokens[pos] != ")":
            token = tokens[pos]
            pos += 1
            if token == "(":
                atom, inner = sequence()
                pos += 1  # the ")"
            else:
                atom, inner = [int(token[1:])], ()
            k = 1
            if pos < len(tokens) and tokens[pos][0] == "^":
                k = int(tokens[pos][1:])
                pos += 1
            if k < 0:
                atom, inner, k = [-c for c in reversed(atom)], mirrored_runs(inner, len(atom)), -k
            if k >= 2 and atom:
                runs.append((len(codes), len(atom), k, tuple(inner)))
            elif k:
                runs += [(len(codes) + s, p, c, kids) for s, p, c, kids in inner]
            codes += atom * k
        return codes, tuple(runs)

    return sequence()


def flat_text_of_length(chars):
    """Flat text of exactly ``chars`` characters: letters, then spaces."""
    text = "s1 s2^-1 " * (chars // 9)
    return text + " " * (chars - len(text))


def assert_checked_rebuild(word):
    """The parsed word equals the word its codes build through every check,
    and its codes are a 1-D read-only intp array."""
    assert word == BraidWord(word.strands, word.codes)
    assert word.codes.ndim == 1 and word.codes.dtype == np.intp
    assert not word.codes.flags.writeable


class TestParsedCodesAreHandedOver:
    """The parser hands its range-checked codes to the word without a second
    check or copy; every other way to a word checks them."""

    @given(
        st.integers(min_value=2, max_value=9).flatmap(
            lambda n: st.tuples(st.just(n), powered_texts(n))
        )
    )
    @example((3, "((s1 s2^-1)^3 s2)^-2 s1^0 () (s2)"))
    @example((4, "(s3^-4 (s1 s2)^2)^-5 (s1)^-1"))
    def test_powered_words_equal_their_checked_rebuild(self, case):
        n, text = case
        word = parse_braid_word(text, n)
        assert_checked_rebuild(word)
        codes, runs = reference_parse(text)
        assert codes_of(word) == codes and word.powers == runs

    @given(st.integers(min_value=2, max_value=12).flatmap(
        lambda n: st.tuples(st.just(n), near_flat_texts(n))
    ))
    @example((3, "s1 s3 " * 150))
    @example((3, "s1 s0 " * 150))
    @example((3, "s1 s3"))
    @example((3, "(s1 s0)^2"))
    def test_near_flat_words_equal_their_checked_rebuild(self, case):
        n, text = case
        try:
            word = parse_braid_word(text, n)
        except WordSyntaxError:
            return
        assert_checked_rebuild(word)

    @pytest.mark.parametrize("chars", [braids.SCAN_CHARS - 1, braids.SCAN_CHARS])
    def test_flat_words_on_both_sides_of_the_scan_length(self, chars):
        text = flat_text_of_length(chars)
        assert len(text) == chars
        word = parse_braid_word(text, 3)
        assert_checked_rebuild(word)
        assert codes_of(word) == [1, -2] * (chars // 9) and word.powers == ()

    def test_every_other_way_in_is_checked(self):
        with pytest.raises(ValueError, match="generator code 3 out of range"):
            BraidWord(3, [3])
        word = parse_braid_word("(s1 s2^-1)^2", 3)
        with pytest.raises(ValueError, match="generator code 0 out of range"):
            dataclasses.replace(word, codes=[0])
        bad = parse_braid_word("(s1 s2^-1)^2", 3)
        object.__setattr__(bad, "codes", np.array([1, 0, 1, -2]))  # past the constructor
        for rebuild in (copy.copy, copy.deepcopy, inverse, free_reduce, lambda w: concat(word, w)):
            with pytest.raises(ValueError, match="generator code 0 out of range"):
                rebuild(bad)
        with pytest.raises(ValueError, match="generator code 3 out of range"):
            pickle.loads(pickle.dumps(ForgedWord(3, np.array([1, 3]), ())))


class ForgedWord:
    """Pickles as the ``__reduce__`` tuple of a word with the given codes."""

    def __init__(self, *args):
        self.args = args

    def __reduce__(self):
        return braids._word_with_runs, self.args
