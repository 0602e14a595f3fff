"""Braid words over B_n: concrete syntax, free-group algebra, symmetric-group image.

A braid word is a flat sequence of signed generator letters ``s1, s2^-1, ...``
over a fixed strand count.  The text grammar (whitespace between tokens is
optional except inside generator names):

    word   := item*
    item   := atom power?
    atom   := ("s" | "σ") integer | "(" word ")"
    power  := "^" signed-integer

Both the ASCII spelling ``s1`` and the Unicode ``σ1`` are accepted; the
renderer always emits ASCII.  Powers expand eagerly, so parsed words are stored flat;
``(w)^-k`` expands to the reversed word with flipped signs repeated k times.

Words map onto the symmetric group by sending every letter, regardless of
sign, to the adjacent transposition swapping its index with the next point.
The image is a plain tuple: entry x-1 is the end position of the strand that
starts at position x, with letters acting in word order.  Cycle counting of
that image gives the number of components of the word's closure.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass

# Parser limits: the group depth stays well below Python's recursion limit, the
# letter cap stops a huge power from allocating before it is rejected, and the
# digit cap keeps int() off digit runs far longer than any usable index or
# exponent (CPython refuses to convert more than 4300 digits).
MAX_NESTING_DEPTH = 200
MAX_WORD_LETTERS = 10**6
MAX_NUMBER_DIGITS = 100


class WordSyntaxError(ValueError):
    """Malformed braid word text; carries the offending character position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


@dataclass(frozen=True)
class GeneratorLetter:
    """One letter s_index^(sign) with sign +1 or -1."""

    index: int
    sign: int

    def __post_init__(self):
        if self.index < 1:
            raise ValueError(f"generator index must be >= 1, got {self.index}")
        if self.sign not in (1, -1):
            raise ValueError(f"exponent sign must be +1 or -1, got {self.sign}")

    def inverse(self) -> "GeneratorLetter":
        return shared_letter(self.index, -self.sign)


@dataclass(frozen=True)
class BraidWord:
    """A flat word over the braid group on ``strands`` strands.

    The empty letter sequence is the group identity.  Every letter index must
    be at most strands - 1.
    """

    strands: int
    letters: tuple[GeneratorLetter, ...] = ()

    def __post_init__(self):
        if self.strands < 2:
            raise ValueError(f"a braid group needs at least 2 strands, got {self.strands}")
        object.__setattr__(self, "letters", tuple(self.letters))
        for letter in self.letters:
            if letter.index > self.strands - 1:
                raise ValueError(
                    f"generator index {letter.index} out of range for {self.strands} strands "
                    f"(max {self.strands - 1})"
                )

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self):
        return iter(self.letters)

    def __str__(self) -> str:
        return render_braid_word(self)


def identity_word(strands: int) -> BraidWord:
    return BraidWord(strands, ())


def _long_decimal(digits: str, at: int) -> int:
    """A digit run longer than MAX_NUMBER_DIGITS, accepted if leading zeros are the excess."""
    significant = digits.lstrip("0")
    if len(significant) > MAX_NUMBER_DIGITS:
        raise WordSyntaxError(f"number longer than {MAX_NUMBER_DIGITS} digits", at)
    return int(significant or "0")


# Token kinds are the group numbers of _TOKEN; a match fills exactly one group.
_GEN, _POW, _OPEN, _CLOSE, _OTHER = 1, 2, 3, 4, 5
_TOKEN = re.compile(r"\s*(?:[sσ]([0-9]*)|\^([+-]?[0-9]*)|(\()|(\))|(\S))")
_MISSING_NUMBER = {
    _GEN: "generator letter needs an integer index",
    _POW: "power needs an integer exponent",
}


def _tokenize(text: str) -> list[tuple[int, int | None, int]]:
    """(kind, value, position) tokens of the text, from one regex scan.

    Digits are ASCII ``[0-9]`` only: the regex ``\\d`` and ``str.isdecimal``
    also take other scripts' digits (Arabic-Indic, for one), which are syntax
    errors here.  Whitespace is what ``str.isspace`` accepts, as ``\\s`` does.
    """
    tokens: list[tuple[int, int | None, int]] = []
    for m in _TOKEN.finditer(text):
        kind = m.lastindex
        at = m.start(kind)
        if kind == _OTHER:
            raise WordSyntaxError(f"unexpected character {m[kind]!r}", at)
        if kind > _POW:
            tokens.append((kind, None, at))
            continue
        at -= 1  # the number follows the "s", "σ" or "^" that starts the token
        number = m[kind]
        digits = number.lstrip("+-")
        if not digits:
            raise WordSyntaxError(_MISSING_NUMBER[kind], at)
        if len(digits) <= MAX_NUMBER_DIGITS:
            value = int(number)
        else:
            value = _long_decimal(digits, at) * (-1 if number[0] == "-" else 1)
        tokens.append((kind, value, at))
    return tokens


@functools.lru_cache(maxsize=4096)
def shared_letter(index: int, sign: int) -> GeneratorLetter:
    """The shared letter s_index^(sign); parsed words hold these, not one object per letter."""
    return GeneratorLetter(index, sign)


def _repeat(letters: list[GeneratorLetter], k: int) -> list[GeneratorLetter]:
    if k == 0:
        return []
    if k > 0:
        return letters * k
    inverted = [letter.inverse() for letter in reversed(letters)]
    return inverted * (-k)


def _parse_sequence(
    tokens: list[tuple[int, int | None, int]], pos: int, depth: int, strands: int
) -> tuple[list[GeneratorLetter], int]:
    """Letters of the items from token ``pos`` up to an unmatched ")" or the end,
    and the position of that token.

    A module-level function on purpose: a nested one that calls itself is a
    reference cycle that keeps the token list alive until the cycle
    collector runs, and in a loop of long parses those lists pile up.
    """
    letters: list[GeneratorLetter] = []
    end = len(tokens)
    while pos < end:
        kind, value, at = tokens[pos]
        if kind == _GEN:
            if not 1 <= value <= strands - 1:
                raise WordSyntaxError(
                    f"generator index {value} out of range for {strands} strands "
                    f"(max {strands - 1})",
                    at,
                )
            atom = [shared_letter(value, 1)]
            pos += 1
        elif kind == _OPEN:
            if depth >= MAX_NESTING_DEPTH:
                raise WordSyntaxError(f"groups nested deeper than {MAX_NESTING_DEPTH}", at)
            atom, pos = _parse_sequence(tokens, pos + 1, depth + 1, strands)
            if pos >= end or tokens[pos][0] != _CLOSE:
                raise WordSyntaxError("unclosed '('", at)
            pos += 1
        elif kind == _CLOSE:
            if depth == 0:
                raise WordSyntaxError("unmatched ')'", at)
            return letters, pos
        else:
            raise WordSyntaxError("power without a preceding generator or group", at)
        k = 1
        if pos < end and tokens[pos][0] == _POW:
            _, k, at = tokens[pos]
            pos += 1
        if len(letters) + len(atom) * abs(k) > MAX_WORD_LETTERS:
            raise WordSyntaxError(f"word expands past {MAX_WORD_LETTERS} letters", at)
        letters += atom if k == 1 else _repeat(atom, k)
    return letters, pos


def parse_braid_word(text: str, strands: int) -> BraidWord:
    """Parse braid word text into a flat BraidWord over the given strand count.

    Raises WordSyntaxError with the character position for malformed text,
    for generator indices that exceed strands - 1, for groups nested deeper
    than MAX_NESTING_DEPTH and for words that expand past MAX_WORD_LETTERS
    letters.  The empty string parses to the identity word.
    """
    if strands < 2:
        raise ValueError(f"a braid group needs at least 2 strands, got {strands}")
    letters, _ = _parse_sequence(_tokenize(text), 0, 0, strands)
    return BraidWord(strands, tuple(letters))


def render_braid_word(word: BraidWord) -> str:
    """ASCII rendering that parse_braid_word maps back to the same letters."""
    return " ".join(
        f"s{letter.index}" if letter.sign > 0 else f"s{letter.index}^-1"
        for letter in word.letters
    )


def concat(w1: BraidWord, w2: BraidWord) -> BraidWord:
    """Group product: letters of w1 followed by letters of w2 (no reduction)."""
    if w1.strands != w2.strands:
        raise ValueError(f"strand-count mismatch: {w1.strands} vs {w2.strands}")
    return BraidWord(w1.strands, w1.letters + w2.letters)


def inverse(word: BraidWord) -> BraidWord:
    """Group inverse: letters reversed with every sign flipped."""
    return BraidWord(word.strands, tuple(l.inverse() for l in reversed(word.letters)))


def free_reduce(word: BraidWord) -> BraidWord:
    """Cancel all adjacent s_i s_i^-1 pairs (free-group reduction only).

    The braid relation is never applied syntactically; words that are equal in
    the braid group but not freely equal stay distinct.
    """
    stack: list[GeneratorLetter] = []
    for letter in word.letters:
        if stack and stack[-1].index == letter.index and stack[-1].sign == -letter.sign:
            stack.pop()
        else:
            stack.append(letter)
    return BraidWord(word.strands, tuple(stack))


def exponent_sum(word: BraidWord) -> int:
    """Sum of letter signs: the homomorphism onto the integers (writhe)."""
    return sum(letter.sign for letter in word.letters)


def permutation_image(word: BraidWord) -> tuple[int, ...]:
    """Image in S_n: both s_i and s_i^-1 map to the transposition (i, i+1).

    Entry x-1 of the result is the end position of the strand that starts at
    position x.  Each letter swaps the strands currently at positions i and
    i+1, so letters act in word order.
    """
    strand_at = list(range(word.strands))  # 0-based start index of the strand at each position
    for letter in word.letters:
        i = letter.index
        strand_at[i - 1], strand_at[i] = strand_at[i], strand_at[i - 1]
    image = [0] * word.strands
    for position, start in enumerate(strand_at, start=1):
        image[start] = position
    return tuple(image)


def cycle_count(image: tuple[int, ...]) -> int:
    """Number of disjoint cycles of a permutation image, fixed points included."""
    seen = [False] * len(image)
    count = 0
    for start in range(1, len(image) + 1):
        if not seen[start - 1]:
            count += 1
            x = start
            while not seen[x - 1]:
                seen[x - 1] = True
                x = image[x - 1]
    return count
