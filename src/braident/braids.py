"""Braid words over B_n: concrete syntax, free-group algebra, symmetric-group image.

A braid word is a flat sequence of signed generator letters ``s1, s2^-1, ...``
over a fixed strand count.  The text grammar (whitespace between tokens is
optional except inside generator names):

    word   := item*
    item   := atom power?
    atom   := ("s" | "σ") integer | "(" word ")"
    power  := "^" signed-integer

Both the ASCII spelling ``s1`` and the Unicode ``σ1`` are accepted; the
renderer always emits ASCII.  Powers expand eagerly, so the letters of a parsed
word are stored flat; ``(w)^-k`` expands to the reversed word with flipped signs
repeated k times.  The parser also records every ``^k`` with |k| >= 2 as a run
in ``BraidWord.powers``, a tree in which each run holds the runs of its first
period, so evaluation can raise a long run's period to its power instead of
multiplying out its letters.  Runs are a hint about the letters, not part of
the word: equality, hashing and rendering ignore them.

Text is read by one token regex.  When every token is a generator in range,
with an optional ``^-1`` (flat text), the letters come from a table of the
distinct tokens; any other text goes through the grammar with the tokens'
positions, so errors carry their message and position.

Words map onto the symmetric group by sending every letter, regardless of
sign, to the adjacent transposition swapping its index with the next point.
The image is a plain tuple: entry x-1 is the end position of the strand that
starts at position x, with letters acting in word order.  Cycle counting of
that image gives the number of components of the word's closure.  The image,
the exponent sum and the signed letter count per generator (the image in the
free group's abelianization) are taken from the power runs, a run costing
its first period plus a permutation power, not one step per letter.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass, field

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

    ``powers`` holds the runs of a parsed word, one per ``^k`` with |k| >= 2
    of a nonempty atom, as a tree.  A run ``(start, period, count, inner)``
    is ``count`` copies of the ``period`` letters from ``start``, which
    counts from the start of the span that holds the run: the word, or the
    first period of the run around it.  ``inner`` holds the runs inside that
    first period in the same form.  Only ``parse_braid_word`` sets them;
    every other word has none, and they take no part in comparison, hashing
    or rendering.
    """

    strands: int
    letters: tuple[GeneratorLetter, ...] = ()
    powers: tuple[tuple[int, int, int, tuple], ...] = field(
        init=False, default=(), compare=False, repr=False
    )

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


# One match per token; its group is the token without the whitespace before
# it.  A generator token holds its own "^-1" when it has one: the regex joins a
# "^-1" that no digit follows to the generator before it, so flat text
# (generators with an optional ^-1) is generator tokens only.  Digits are ASCII
# [0-9] only: the regex \d and str.isdecimal also take other scripts' digits
# (Arabic-Indic, for one), which are syntax errors here.  Whitespace is what
# str.isspace accepts, as \s does.
_TOKEN = re.compile(r"\s*([sσ][0-9]*(?:\s*\^-1(?![0-9]))?|\^[+-]?[0-9]*|\S)")
_GEN, _INVERSE, _POW, _OPEN, _CLOSE, _BAD = range(6)


def _decode(token: str) -> tuple[int, int | str]:
    """The kind of one token and its value: a generator's index, a power's
    exponent, or for a malformed token ``_BAD`` and its error message.
    Leading zeros do not count toward MAX_NUMBER_DIGITS."""
    head, rest = token[0], token[1:]
    negative = False
    if head in "sσ":
        digits, inverse, _ = rest.partition("^")
        kind, digits = (_INVERSE if inverse else _GEN), digits.rstrip()
    elif head == "^":
        kind, digits, negative = _POW, rest.lstrip("+-"), rest[:1] == "-"
    elif head in "()":
        return (_OPEN if head == "(" else _CLOSE), 0
    else:
        return _BAD, f"unexpected character {head!r}"
    if not digits:
        if kind == _POW:
            return _BAD, "power needs an integer exponent"
        return _BAD, "generator letter needs an integer index"
    if len(digits) > MAX_NUMBER_DIGITS:
        digits = digits.lstrip("0") or "0"
        if len(digits) > MAX_NUMBER_DIGITS:
            return _BAD, f"number longer than {MAX_NUMBER_DIGITS} digits"
    value = int(digits)
    return kind, (-value if negative else value)


def _positioned(text: str, decoded: dict) -> list[tuple[int, int, int]]:
    """(kind, value, position) of every token of the text, from one regex scan
    and the ``decoded`` kinds and values of its tokens.

    Raises the first malformed token's error, so every lexical error comes
    before any grammar error.  A generator that holds its own ``^-1`` becomes
    the generator and the power, at the positions of its "s" and its "^".
    """
    tokens = []
    for m in _TOKEN.finditer(text):
        token, at = m[1], m.start(1)
        kind, value = decoded[token]
        if kind == _BAD:
            raise WordSyntaxError(value, at)
        if kind == _INVERSE:
            tokens += ((_GEN, value, at), (_POW, -1, at + token.index("^")))
        else:
            tokens.append((kind, value, at))
    return tokens


@functools.lru_cache(maxsize=4096)
def shared_letter(index: int, sign: int) -> GeneratorLetter:
    """The shared letter s_index^(sign); parsed words hold these, not one object per letter."""
    return GeneratorLetter(index, sign)


def _mirrored(runs, length: int) -> tuple:
    """The runs of ``length`` letters, as runs of the inverted letters.

    Mirroring maps [s, s + p*c) to [length - s - p*c, length - s), and a
    run's inverted first period is the mirror image of its last, which
    holds the same letters as its first.
    """
    return tuple(
        (length - s - p * c, p, c, _mirrored(kids, p)) for s, p, c, kids in reversed(runs)
    )


def _parse_sequence(
    tokens: list[tuple[int, int, int]], pos: int, depth: int, strands: int
) -> tuple[list[GeneratorLetter], list[tuple], int]:
    """Letters and power runs of the items from token ``pos`` up to an unmatched
    ")" or the end, and the position of that token.

    Runs are kept as ``BraidWord.powers`` describes, with starts relative to
    the returned letters.  They are touched only at power tokens and group
    ends, never per plain letter.

    A module-level function on purpose: a nested one that calls itself is a
    reference cycle that keeps the token list alive until the cycle
    collector runs, and in a loop of long parses those lists pile up.
    """
    letters: list[GeneratorLetter] = []
    runs: list[tuple] = []
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
            inner = ()
            pos += 1
        elif kind == _OPEN:
            if depth >= MAX_NESTING_DEPTH:
                raise WordSyntaxError(f"groups nested deeper than {MAX_NESTING_DEPTH}", at)
            atom, inner, pos = _parse_sequence(tokens, pos + 1, depth + 1, strands)
            if pos >= end or tokens[pos][0] != _CLOSE:
                raise WordSyntaxError("unclosed '('", at)
            pos += 1
        elif kind == _CLOSE:
            if depth == 0:
                raise WordSyntaxError("unmatched ')'", at)
            return letters, runs, pos
        else:
            raise WordSyntaxError("power without a preceding generator or group", at)
        k = 1
        if pos < end and tokens[pos][0] == _POW:
            _, k, at = tokens[pos]
            pos += 1
        if len(letters) + len(atom) * abs(k) > MAX_WORD_LETTERS:
            raise WordSyntaxError(f"word expands past {MAX_WORD_LETTERS} letters", at)
        if k != 1:
            if k == 0:
                continue
            if k < 0:
                if inner:
                    inner = _mirrored(inner, len(atom))
                atom = [letter.inverse() for letter in reversed(atom)]
                k = -k
            if k > 1 and atom:
                runs.append((len(letters), len(atom), k, tuple(inner)))
                inner = ()  # the atom's runs now sit in the first period
            atom *= k
        if inner:  # a group with no power: its top-level runs join this span
            base = len(letters)
            runs += [(base + s, p, c, kids) for s, p, c, kids in inner]
        letters += atom
    return letters, runs, pos


def parse_braid_word(text: str, strands: int) -> BraidWord:
    """Parse braid word text into a flat BraidWord over the given strand count.

    The text is read by one regex scan, and each distinct token is decoded
    once.  When every token is a generator in range (flat text) and there are
    at most MAX_WORD_LETTERS of them, the letters come from a table of those
    tokens; any other text goes through the grammar.  The word's ``powers``
    record the runs its ``^k`` tokens wrote.  Raises WordSyntaxError with the
    character position for malformed text, for generator indices that exceed
    strands - 1, for groups nested deeper than MAX_NESTING_DEPTH and for
    words that expand past MAX_WORD_LETTERS letters.  The empty string parses
    to the identity word.
    """
    if strands < 2:
        raise ValueError(f"a braid group needs at least 2 strands, got {strands}")
    tokens = _TOKEN.findall(text)
    decoded, table = {}, {}
    for token in set(tokens):
        kind, value = decoded[token] = _decode(token)
        if kind in (_GEN, _INVERSE) and 1 <= value <= strands - 1:
            table[token] = shared_letter(value, -1 if kind == _INVERSE else 1)
    if len(table) == len(decoded) and len(tokens) <= MAX_WORD_LETTERS:
        # tuple() straight from the map grows the tuple by reallocation, which over
        # many short words fragments the heap (peak RSS rose about 3% in a loop)
        return BraidWord(strands, tuple(list(map(table.__getitem__, tokens))))
    letters, runs, _ = _parse_sequence(_positioned(text, decoded), 0, 0, strands)
    word = BraidWord(strands, tuple(letters))
    if runs:
        object.__setattr__(word, "powers", tuple(runs))
    return word


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


def free_reduce_codes(codes) -> list[int]:
    """Signed indices (+i for s_i, -i for its inverse) with every adjacent
    inverse pair cancelled, by one pass over a stack."""
    stack: list[int] = []
    for c in codes:
        if stack and stack[-1] == -c:
            stack.pop()
        else:
            stack.append(c)
    return stack


def free_reduce(word: BraidWord) -> BraidWord:
    """Cancel all adjacent s_i s_i^-1 pairs (free-group reduction only).

    The braid relation is never applied syntactically; words that are equal in
    the braid group but not freely equal stay distinct.
    """
    codes = free_reduce_codes(letter.sign * letter.index for letter in word.letters)
    return BraidWord(word.strands, tuple(shared_letter(abs(c), 1 if c > 0 else -1) for c in codes))


def _permutation_power(moved: list[int], count: int) -> list[int]:
    """``moved`` composed with itself ``count`` times, by repeated squaring."""
    out = list(range(len(moved)))
    while count:
        if count & 1:
            out = [moved[q] for q in out]  # powers of one permutation commute
        moved = [moved[q] for q in moved]
        count >>= 1
    return out


def _walk(letters, runs, lo: int, hi: int, strands: int) -> tuple[list[int], list[int]]:
    """Where the strands of letters[lo:hi] end up, and its signed letter sums.

    ``runs`` are the power runs of the span, with starts relative to ``lo``.
    Returns ``(moved, sums)``: ``moved[p]`` is the position, before the
    stretch, of the strand at position p after it, and ``sums[i]`` the signed
    count of s_i.  A run costs its first period's walk and a permutation
    power; the letters between runs take one step each.
    """
    moved = list(range(strands))
    sums = [0] * strands
    at = lo
    for start, period, count, inner in runs:
        start += lo
        _step(letters[at:start], moved, sums)
        run_moved, run_sums = _walk(letters, inner, start, start + period, strands)
        moved = [moved[q] for q in _permutation_power(run_moved, count)]
        for i, s in enumerate(run_sums):
            sums[i] += count * s
        at = start + period * count
    _step(letters[at:hi], moved, sums)
    return moved, sums


def _step(letters, moved: list[int], sums: list[int]) -> None:
    """Carry ``moved`` and ``sums`` over plain letters, one swap per letter."""
    for letter in letters:
        i = letter.index
        moved[i - 1], moved[i] = moved[i], moved[i - 1]
        sums[i] += letter.sign


def word_images(word: BraidWord) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The permutation image and the signed letter count of each generator
    s_1 .. s_{n-1}, from one walk over the word's letters and power runs."""
    moved, sums = _walk(word.letters, word.powers, 0, len(word.letters), word.strands)
    image = [0] * word.strands
    for position, start in enumerate(moved, start=1):
        image[start] = position
    return tuple(image), tuple(sums[1:])


def exponent_sum(word: BraidWord) -> int:
    """Sum of letter signs: the homomorphism onto the integers (writhe)."""
    return sum(word_images(word)[1])


def permutation_image(word: BraidWord) -> tuple[int, ...]:
    """Image in S_n: both s_i and s_i^-1 map to the transposition (i, i+1).

    Entry x-1 of the result is the end position of the strand that starts at
    position x.  Each letter swaps the strands currently at positions i and
    i+1, so letters act in word order.
    """
    return word_images(word)[0]


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
