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
        return GeneratorLetter(self.index, -self.sign)


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


def _tokenize(text: str) -> list[tuple[str, int | None, int]]:
    tokens: list[tuple[str, int | None, int]] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in ("s", "σ"):
            j = i + 1
            while j < n and text[j].isdecimal():
                j += 1
            if j == i + 1:
                raise WordSyntaxError("generator letter needs an integer index", i)
            if j - i - 1 <= MAX_NUMBER_DIGITS:
                index = int(text[i + 1 : j])
            else:
                index = _long_decimal(text[i + 1 : j], i)
            tokens.append(("gen", index, i))
            i = j
        elif ch == "(":
            tokens.append(("open", None, i))
            i += 1
        elif ch == ")":
            tokens.append(("close", None, i))
            i += 1
        elif ch == "^":
            j = i + 1
            if j < n and text[j] in "+-":
                j += 1
            k = j
            while k < n and text[k].isdecimal():
                k += 1
            if k == j:
                raise WordSyntaxError("power needs an integer exponent", i)
            if k - j <= MAX_NUMBER_DIGITS:
                exponent = int(text[i + 1 : k])
            else:
                exponent = _long_decimal(text[j:k], i) * (-1 if text[i + 1] == "-" else 1)
            tokens.append(("pow", exponent, i))
            i = k
        else:
            raise WordSyntaxError(f"unexpected character {ch!r}", i)
    return tokens


def _repeat(letters: list[GeneratorLetter], k: int) -> list[GeneratorLetter]:
    if k == 0:
        return []
    if k > 0:
        return letters * k
    inverted = [letter.inverse() for letter in reversed(letters)]
    return inverted * (-k)


def parse_braid_word(text: str, strands: int) -> BraidWord:
    """Parse braid word text into a flat BraidWord over the given strand count.

    Raises WordSyntaxError with the character position for malformed text,
    for generator indices that exceed strands - 1, for groups nested deeper
    than MAX_NESTING_DEPTH and for words that expand past MAX_WORD_LETTERS
    letters.  The empty string parses to the identity word.
    """
    if strands < 2:
        raise ValueError(f"a braid group needs at least 2 strands, got {strands}")
    tokens = _tokenize(text)
    pos = 0

    def parse_sequence(depth: int) -> list[GeneratorLetter]:
        nonlocal pos
        letters: list[GeneratorLetter] = []
        while pos < len(tokens):
            kind, value, at = tokens[pos]
            if kind == "gen":
                if not 1 <= value <= strands - 1:
                    raise WordSyntaxError(
                        f"generator index {value} out of range for {strands} strands "
                        f"(max {strands - 1})",
                        at,
                    )
                atom = [GeneratorLetter(value, 1)]
                pos += 1
            elif kind == "open":
                if depth >= MAX_NESTING_DEPTH:
                    raise WordSyntaxError(f"groups nested deeper than {MAX_NESTING_DEPTH}", at)
                pos += 1
                atom = parse_sequence(depth + 1)
                if pos >= len(tokens) or tokens[pos][0] != "close":
                    raise WordSyntaxError("unclosed '('", at)
                pos += 1
            elif kind == "close":
                if depth == 0:
                    raise WordSyntaxError("unmatched ')'", at)
                return letters
            else:
                raise WordSyntaxError("power without a preceding generator or group", at)
            k = 1
            if pos < len(tokens) and tokens[pos][0] == "pow":
                _, k, at = tokens[pos]
                pos += 1
            if len(letters) + len(atom) * abs(k) > MAX_WORD_LETTERS:
                raise WordSyntaxError(f"word expands past {MAX_WORD_LETTERS} letters", at)
            letters.extend(_repeat(atom, k))
        return letters

    return BraidWord(strands, tuple(parse_sequence(0)))


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
