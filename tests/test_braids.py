import gc
import random
import tracemalloc
from unittest import mock

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from braident import braids
from braident.braids import (
    BraidWord,
    GeneratorLetter,
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
    shared_letter,
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

    @given(words(3))
    def test_render_parse_round_trip(self, word):
        assert parse_braid_word(render_braid_word(word), 3) == word

    @given(word_texts())
    def test_text_round_trip(self, text):
        first = parse_braid_word(text, 3)
        again = parse_braid_word(render_braid_word(first), 3)
        assert again == first
        for letter in first.letters + again.letters:
            assert letter is shared_letter(letter.index, letter.sign)


@st.composite
def flat_texts(draw, strands=3):
    """Generators with an optional ^-1, any spacing, s or σ, up to three digits."""
    parts = [draw(SEPARATORS)]
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        index = draw(st.integers(min_value=1, max_value=strands - 1))
        width = draw(st.integers(min_value=1, max_value=3))  # leading zeros
        parts.append(f"{draw(st.sampled_from('sσ'))}{index:0{width}d}")
        if draw(st.booleans()):
            parts.append(f"{draw(SEPARATORS)}^-1")
        parts.append(draw(SEPARATORS))
    return "".join(parts)


def grammar_parse(text, strands):
    """The grammar alone, without the letter table of flat text."""
    decoded = {token: braids._decode(token) for token in braids._TOKEN.findall(text)}
    letters, runs, _ = braids._parse_sequence(braids._positioned(text, decoded), 0, 0, strands)
    return BraidWord(strands, tuple(letters))


def outcome(parse, text, strands):
    try:
        return parse(text, strands)
    except WordSyntaxError as err:
        return str(err), err.position


class TestFlatText:
    """Flat text takes its letters from the token table and gives what the grammar gives."""

    @given(
        st.integers(min_value=2, max_value=9).flatmap(
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
        assert word.powers == ()
        assert all(letter is shared_letter(letter.index, letter.sign) for letter in word.letters)

    @given(st.text(alphabet="sσ0123^-+() \t\u3000x", max_size=30))
    def test_any_text_parses_as_the_grammar_does(self, text):
        assert outcome(parse_braid_word, text, 3) == outcome(grammar_parse, text, 3)

    @pytest.mark.parametrize(
        "text,position",
        [
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
        ],
    )
    def test_flat_looking_texts_parse_as_the_grammar_does(self, text, position):
        result = outcome(parse_braid_word, text, 3)
        assert result == outcome(grammar_parse, text, 3)
        if position is None:
            assert isinstance(result, BraidWord)
        else:
            assert result[1] == position

    def test_letter_cap_error_comes_from_the_grammar(self, monkeypatch):
        monkeypatch.setattr(braids, "MAX_WORD_LETTERS", 5)
        assert len(parse_braid_word("s1 " * 5, 3)) == 5
        with pytest.raises(WordSyntaxError, match="past 5 letters") as err:
            parse_braid_word("s1 " * 6, 3)
        assert err.value.position == 15

    def test_letter_cap_error_points_at_the_power_of_an_inverse(self, monkeypatch):
        monkeypatch.setattr(braids, "MAX_WORD_LETTERS", 5)
        with pytest.raises(WordSyntaxError, match="past 5 letters") as err:
            parse_braid_word("s1^-1 " * 6, 3)
        assert err.value.position == 32  # the sixth "^", not its "s"

    def test_long_text_keeps_no_state_per_letter(self):
        rng = random.Random(7)
        text = " ".join(f"s{rng.randint(1, 2)}{rng.choice(['', '^-1'])}" for _ in range(10**5))
        parse_braid_word(text, 3)  # fills the shared-letter cache outside the measurement
        tracemalloc.start()
        try:
            word = parse_braid_word(text, 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(word) == 10**5
        # Measured 5.1 MB: the match list, the inverse letters' match strings and
        # the letters as a list and a tuple.  The tokenizer path takes 17.7 MB,
        # and a flatness test by a backtracking fullmatch 43 MB.
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
        assert repr(word) == repr(BraidWord(3, word.letters))
        for derived in (concat(word, word), inverse(word), free_reduce(word)):
            assert derived.powers == ()

    @given(word_texts())
    def test_runs_repeat_their_first_period(self, text):
        word = parse_braid_word(text, 3)
        letters = word.letters

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
        flat = BraidWord(3, letters)
        assert word == flat
        assert hash(word) == hash(flat)

    @given(st.sampled_from([3, 5]).flatmap(lambda n: st.tuples(st.just(n), word_texts(strands=n))))
    @example((3, "(s1 s2^-1)^3"))
    @example((3, "(s1 s2^-1)^6"))
    @example((3, "s2 (s1 s1^-1)^2 s2^-1 (s1 s2^-1)^3 s2 s2^-1"))
    @example((5, "((s1 s2 s3^-1)^1000 s4)^-7 s2"))
    def test_runs_give_the_images_of_the_letters(self, case):
        n, text = case
        word = parse_braid_word(text, n)
        flat = BraidWord(n, word.letters)
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
        with pytest.raises(ValueError):
            GeneratorLetter(0, 1)
        with pytest.raises(ValueError):
            GeneratorLetter(1, 2)

    def test_word_validation(self):
        with pytest.raises(ValueError):
            BraidWord(1, ())
        with pytest.raises(ValueError):
            BraidWord(2, (GeneratorLetter(2, 1),))


class TestPermutations:
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
