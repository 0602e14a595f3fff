import pytest
from hypothesis import given
from hypothesis import strategies as st

from braident import links
from braident.braids import (
    BraidWord,
    concat,
    free_reduce,
    identity_word,
    parse_braid_word,
)
from braident.links import render_braid_ascii, summarize_closure
from wordcodes import codes_of, word_of

BORROMEAN_TEXT = "s1 s2^-1 s1 s2^-1 s1 s2^-1"
NUS_TEXT = "(s1 s2)^3"

NUS_DIAGRAM = """\
braid on 3 strands: s1 s2 s1 s2 s1 s2
convention: positive s_i crosses strand i over strand i+1; the unbroken diagonal is the over-strand
1   2   3
|   |   |
\\   /   |
  \\     |
/   \\   |
|   |   |
|   \\   /
|     \\
|   /   \\
|   |   |
\\   /   |
  \\     |
/   \\   |
|   |   |
|   \\   /
|     \\
|   /   \\
|   |   |
\\   /   |
  \\     |
/   \\   |
|   |   |
|   \\   /
|     \\
|   /   \\
|   |   |"""


class TestSummarizeClosure:
    def test_hopf_word(self):
        summary = summarize_closure(parse_braid_word("s1 s1", 2))
        assert summary.components == 2
        assert summary.exponent_sum == 2
        assert summary.named_match == "hopf"

    def test_borromean_word(self):
        summary = summarize_closure(parse_braid_word(BORROMEAN_TEXT, 3))
        assert summary.components == 3
        assert summary.exponent_sum == 0
        assert summary.named_match == "borromean_word"

    def test_nus_word(self):
        summary = summarize_closure(parse_braid_word(NUS_TEXT, 3))
        assert summary.components == 3
        assert summary.exponent_sum == 6
        assert summary.named_match == "nus_word"

    def test_single_crossing_closes_to_unknot(self):
        summary = summarize_closure(parse_braid_word("s1", 2))
        assert summary.components == 1
        assert summary.named_match is None

    def test_identity_word_is_unlink(self):
        for n in (2, 3, 4):
            assert summarize_closure(identity_word(n)).components == n

    def test_recognition_happens_after_free_reduction(self):
        summary = summarize_closure(parse_braid_word("s1 s1^-1 s1 s1", 2))
        assert summary.named_match == "hopf"
        padded = parse_braid_word("s1 s2^-1 s1 s2^-1 s1 s2^-1 s2 s2^-1", 3)
        assert summarize_closure(padded).named_match == "borromean_word"

    def test_name_requires_matching_strand_count(self):
        # the same letters as the hopf word, but on three strands
        word = word_of(3, [1, 1])
        assert summarize_closure(word).named_match is None

    def test_components_invariant_under_trivial_insertion(self):
        word = parse_braid_word(BORROMEAN_TEXT, 3)
        padded = concat(word, parse_braid_word("s2 s2^-1", 3))
        assert summarize_closure(padded).components == summarize_closure(word).components


def named_by_reduction(word):
    """The registered name of the freely reduced word, found without the count filter."""
    reduced = free_reduce(word)
    return next((n for n, w in links._REGISTERED_WORDS.items() if w == reduced), None)


class TestNamedWordFilter:
    """Only words whose signed generator counts match a registered word's are reduced."""

    @pytest.mark.parametrize(
        "text,name",
        [
            ("(s1 s2^-1)^3", "borromean_word"),
            ("(s1 s2^-1)^6", None),
            ("(s1 s2)^3", "nus_word"),
            ("s2 (s1 s1^-1)^2 s2^-1 (s1 s2^-1)^3 s2 s2^-1", "borromean_word"),
            ("(s1 s2^-1)^2 s1 s1 s1^-1 s2^-1", "borromean_word"),
            ("s1 s1 s1 s2^-1 s2^-1 s2^-1", None),  # the counts match, the letters do not
        ],
    )
    def test_runs_and_padding(self, text, name):
        word = parse_braid_word(text, 3)
        assert summarize_closure(word).named_match == name == named_by_reduction(word)
        assert summarize_closure(BraidWord(3, word.codes)) == summarize_closure(word)

    @given(
        st.sampled_from(sorted(links._REGISTERED_WORDS)),
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=8),
                st.integers(min_value=1, max_value=2),
                st.sampled_from([1, -1]),
            ),
            max_size=5,
        ),
    )
    def test_padded_registered_words_keep_their_name(self, name, pads):
        registered = links._REGISTERED_WORDS[name]
        codes = codes_of(registered)
        for at, index, sign in pads:
            code = min(index, registered.strands - 1) * sign
            at %= len(codes) + 1
            codes[at:at] = [code, -code]
        word = word_of(registered.strands, codes)
        assert summarize_closure(word).named_match == name == named_by_reduction(word)


class TestRenderBraidAscii:
    def test_nus_word_golden(self):
        word = parse_braid_word(NUS_TEXT, 3)
        assert render_braid_ascii(word, ascii_only=True) == NUS_DIAGRAM

    def test_identity_shows_unbroken_strands(self):
        out = render_braid_ascii(identity_word(3), ascii_only=True)
        body = out.splitlines()[3:]
        assert all(line.count("|") == 3 for line in body)
        assert "\\" not in out and "/" not in out

    def test_single_positive_crossing(self):
        out = render_braid_ascii(parse_braid_word("s1", 2), ascii_only=True)
        lines = out.splitlines()
        assert lines[4] == "\\   /"
        assert lines[5] == "  \\"
        assert lines[6] == "/   \\"

    def test_negative_crossing_flips_middle_glyph(self):
        out = render_braid_ascii(parse_braid_word("s1^-1", 2), ascii_only=True)
        assert "  /" in out.splitlines()[5]

    def test_unicode_default_and_ascii_flag(self):
        word = parse_braid_word("s1", 2)
        assert "│" in render_braid_ascii(word)
        ascii_out = render_braid_ascii(word, ascii_only=True)
        assert all(ord(c) < 128 for c in ascii_out)

    def test_size_limits(self):
        with pytest.raises(ValueError, match="strands"):
            render_braid_ascii(identity_word(9))
        long_word = word_of(2, [1] * 65)
        with pytest.raises(ValueError, match="letters"):
            render_braid_ascii(long_word)
