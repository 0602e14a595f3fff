import gc

import pytest
from hypothesis import given
from hypothesis import strategies as st

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

BORROMEAN_TEXT = "s1 s2^-1 s1 s2^-1 s1 s2^-1"
NUS_TEXT = "(s1 s2)^3"


def letters_of(word):
    return [(l.index, l.sign) for l in word.letters]


def words(strands, max_size=12):
    letter = st.builds(
        GeneratorLetter,
        st.integers(min_value=1, max_value=strands - 1),
        st.sampled_from([1, -1]),
    )
    return st.lists(letter, max_size=max_size).map(lambda ls: BraidWord(strands, tuple(ls)))


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
        assert letters_of(word) == [(1, 1), (2, -1)] * 3

    def test_nus_power_expansion(self):
        word = parse_braid_word(NUS_TEXT, 3)
        assert letters_of(word) == [(1, 1), (2, 1)] * 3

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


class TestWordAlgebra:
    def test_concat(self):
        left = parse_braid_word("s1", 3)
        right = parse_braid_word("s2", 3)
        assert concat(left, right) == parse_braid_word("s1 s2", 3)
        assert concat(identity_word(3), right) == right
        # no implicit simplification
        pair = concat(parse_braid_word("s1", 3), parse_braid_word("s1^-1", 3))
        assert letters_of(pair) == [(1, 1), (1, -1)]

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
