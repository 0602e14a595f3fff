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
in ``BraidWord.powers``, so evaluation can raise a long run's period to its
power instead of multiplying out its letters.  Runs are a hint about the
letters, not part of the word: equality, hashing and rendering ignore them.

Flat text, meaning generators with an optional ``^-1`` and whitespace, is
read by one regex pass; any other text, and any flat text the fast pass
cannot accept as it stands (an index out of range, too many letters), goes
through the tokenizer and the grammar, so errors keep their message and
position.

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

    ``powers`` lists the ``(start, period, count)`` runs of a parsed word, one
    per ``^k`` with |k| >= 2 of a nonempty atom: ``letters[start : start +
    period * count]`` is ``count`` copies of ``letters[start : start +
    period]``.  Only runs inside an outer run's first period are kept, and the
    runs are sorted by start, an outer run before the runs inside it.  Only
    ``parse_braid_word`` sets them; every other word has none, and they take
    no part in comparison, hashing or rendering.
    """

    strands: int
    letters: tuple[GeneratorLetter, ...] = ()
    powers: tuple[tuple[int, int, int], ...] = field(
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


# One match per flat letter, a generator of at most three digits with an
# optional ^-1; its group holds the digits and the ^-1.  Any other non-space
# character matches alone with an empty group, so one findall both reads the
# letters and tells whether the text is flat.  (A fullmatch of the repeated
# letter pattern would keep backtracking state for every letter.)
_FLAT_LETTER = re.compile(r"\s*(?:[sσ]([0-9]{1,3}(?:\s*\^-1)?)|\S)")


def _flat_letters(text: str, strands: int) -> tuple[GeneratorLetter, ...] | None:
    """The letters of flat text, or None if the text needs the full grammar."""
    items = _FLAT_LETTER.findall(text)  # "2" for s2, "2^-1" or "2 ^-1" for its inverse
    if len(items) > MAX_WORD_LETTERS:
        return None
    table = {}
    for item in set(items):
        digits, power, _ = item.partition("^")
        if not digits:  # a character that is not part of a flat letter
            return None
        index = int(digits.rstrip())
        if not 1 <= index <= strands - 1:
            return None
        table[item] = shared_letter(index, -1 if power else 1)
    # tuple() straight from the map grows the tuple by reallocation, which over
    # many short words fragments the heap (peak RSS rose about 3% in a loop)
    return tuple(list(map(table.__getitem__, items)))


@functools.lru_cache(maxsize=4096)
def shared_letter(index: int, sign: int) -> GeneratorLetter:
    """The shared letter s_index^(sign); parsed words hold these, not one object per letter."""
    return GeneratorLetter(index, sign)


def _mirrored(runs: list[tuple[int, int, int]], length: int) -> list[tuple[int, int, int]]:
    """The runs of ``length`` letters, as runs of the inverted letters.

    Mirroring maps [s, s + p*c) to [length - s - p*c, length - s), so a run
    nested in the first period of another lands in the last period of that
    one's mirror image.  Every period holds the same letters, so the run
    moves back by (count - 1) periods of each run around it.
    """
    out = []
    around: list[tuple[int, int]] = []  # (stop, shift) of the runs around the current one
    for start, period, count in runs:
        while around and start >= around[-1][0]:
            around.pop()
        shift = around[-1][1] if around else 0
        out.append((length - start - period * count - shift, period, count))
        around.append((start + period * count, shift + (count - 1) * period))
    out.sort(key=lambda run: (run[0], -run[1] * run[2]))  # outer runs first
    return out


def _parse_sequence(
    tokens: list[tuple[int, int | None, int]], pos: int, depth: int, strands: int
) -> tuple[list[GeneratorLetter], list[tuple[int, int, int]], int]:
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
    runs: list[tuple[int, int, int]] = []
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
                runs.append((len(letters), len(atom), k))
            atom *= k
        if inner:
            base = len(letters)
            runs += [(base + s, p, c) for s, p, c in inner]
        letters += atom
    return letters, runs, pos


def parse_braid_word(text: str, strands: int) -> BraidWord:
    """Parse braid word text into a flat BraidWord over the given strand count.

    The word's ``powers`` record the runs its ``^k`` tokens wrote.  Flat text
    (generators, ``^-1`` and whitespace) is read in one regex pass; every
    other text goes through the tokenizer, and so does flat text that would
    raise, so both paths give the same word and the same errors.  Raises
    WordSyntaxError with the character position for malformed text, for
    generator indices that exceed strands - 1, for groups nested deeper than
    MAX_NESTING_DEPTH and for words that expand past MAX_WORD_LETTERS
    letters.  The empty string parses to the identity word.
    """
    if strands < 2:
        raise ValueError(f"a braid group needs at least 2 strands, got {strands}")
    letters = _flat_letters(text, strands)
    if letters is not None:
        return BraidWord(strands, letters)
    letters, runs, _ = _parse_sequence(_tokenize(text), 0, 0, strands)
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


def outer_runs(runs, longer_than: int = 0):
    """The outermost of ``runs`` (``BraidWord.powers`` order) that span more
    than ``longer_than`` letters, as ``(start, period, count, inner)`` with
    ``inner`` the runs nested in the first period.  Runs nested in a run that
    is left out are left out too."""
    i = 0
    while i < len(runs):
        start, period, count = runs[i]
        stop = start + period * count
        j = i + 1
        while j < len(runs) and runs[j][0] < stop:
            j += 1
        if stop - start > longer_than:
            yield start, period, count, runs[i + 1 : j]
        i = j


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

    Returns ``(moved, sums)``: ``moved[p]`` is the position, before the
    stretch, of the strand at position p after it, and ``sums[i]`` the signed
    count of s_i.  A run costs its first period's walk and a permutation
    power; the letters between runs take one step each.
    """
    moved = list(range(strands))
    sums = [0] * strands
    at = lo
    for start, period, count, inner in outer_runs(runs):
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
