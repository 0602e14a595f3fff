"""Braid words over B_n: concrete syntax, free-group algebra, symmetric-group image.

A braid word over a fixed strand count is its codes: one read-only array of
signed generator indices, ``BraidWord.codes``, +i for s_i and -i for s_i^-1.
Construction checks the whole array in one vectorised pass, and every layer
(evaluation, the closure bookkeeping, the renderers) reads that array.
``BraidWord.letters`` is a view derived from it on request, (index, sign)
pairs, kept for the benchmark oracle (``perfbench/oracle.py``), which reads
``index * sign``.  The text grammar (whitespace between tokens is optional
except inside generator names):

    word   := item*
    item   := atom power?
    atom   := ("s" | "σ") integer | "(" word ")"
    power  := "^" signed-integer

Both the ASCII spelling ``s1`` and the Unicode ``σ1`` are accepted; the
renderer always emits ASCII.  Powers expand eagerly into the codes: ``(w)^k``
is w's codes tiled k times, and ``(w)^-k`` the reversed codes negated, tiled.
The parser also records every ``^k`` with |k| >= 2 as a run in
``BraidWord.powers``, a tree in which each run holds the runs of its first
period, so evaluation can raise a long run's period to its power instead of
multiplying out its letters.  Runs are a hint about the codes, not part of
the word: equality, hashing and rendering ignore them.

Flat text is generators with a one-digit index and an optional ``^-1``,
apart from whitespace.  It is read straight into codes: a text shorter than
SCAN_CHARS is split at whitespace and its tokens looked up in a table, and a
longer one is scanned as bytes by numpy, with no string per letter.  Any
other text goes through one token regex and the grammar, so errors carry
their message and position.

Words map onto the symmetric group by sending every letter, regardless of
sign, to the adjacent transposition swapping its index with the next point.
The image is a plain tuple: entry x-1 is the end position of the strand that
starts at position x, with letters acting in word order.  Cycle counting of
that image gives the number of components of the word's closure.  The image
reduces the letters' transpositions in a symmetric group's Cayley table, and
the signed letter count per generator (the image in the free group's
abelianization) counts the codes.  Both are taken over the power runs: a run
costs its first period plus a permutation power.
"""

from __future__ import annotations

import functools
import itertools
import re
import reprlib
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

# Parser limits: the group depth stays well below Python's recursion limit, the
# letter cap stops a huge power from allocating before it is rejected, and the
# digit cap keeps int() off digit runs far longer than any usable index or
# exponent (CPython refuses to convert more than 4300 digits).
MAX_NESTING_DEPTH = 200
MAX_WORD_LETTERS = 10**6
MAX_NUMBER_DIGITS = 100

# Flat text of at least this many characters is scanned as bytes by numpy; a
# shorter one is split at whitespace.  The scan costs about 16 us more on short
# texts, and the two met at 700-770 characters (about 160 letters) in
# alternating timings.
SCAN_CHARS = 750

# word_images reduces a stretch of letters on at most TABLE_POINTS points in the
# Cayley table of the symmetric group (120 elements at 5 points); on more it
# swaps the points one letter at a time.
TABLE_POINTS = 5


class WordSyntaxError(ValueError):
    """Malformed braid word text; carries the offending character position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class Letter(NamedTuple):
    """One letter s_index^sign of a word, sign +1 or -1: a view of one code."""

    index: int
    sign: int


@dataclass(frozen=True, eq=False)
class BraidWord:
    """A word over the braid group on ``strands`` strands, stored as its codes.

    ``codes`` is any 1-D array-like of integers, each nonzero with absolute
    value at most strands - 1; the word keeps a read-only intp copy.  The
    empty word is the group identity.  Two words are equal when their
    strands and codes are.

    ``powers`` holds the runs of a parsed word, one per ``^k`` with |k| >= 2
    of a nonempty atom, as a tree.  A run ``(start, period, count, inner)``
    is ``count`` copies of the ``period`` codes from ``start``, which counts
    from the start of the span that holds the run: the word, or the first
    period of the run around it.  ``inner`` holds the runs inside that first
    period in the same form.  Only ``parse_braid_word`` sets them, and copies
    keep them; every other word has none, and they take no part in
    comparison, hashing or rendering.
    """

    strands: int
    codes: np.ndarray = ()
    powers: tuple[tuple[int, int, int, tuple], ...] = field(init=False, default=(), repr=False)

    def __post_init__(self):
        if self.strands < 2:
            raise ValueError(f"a braid group needs at least 2 strands, got {self.strands}")
        codes = np.asarray(self.codes)
        if codes.ndim != 1 or (len(codes) and codes.dtype.kind not in "iu"):
            got = reprlib.repr(self.codes)
            raise ValueError(f"braid word codes must be a 1-D array of integers, got {got}")
        top = self.strands - 1
        if len(codes) and not (-top <= codes.min() and codes.max() <= top and codes.all()):
            bad = next(c for c in codes.tolist() if not 0 < abs(c) <= top)
            raise ValueError(
                f"generator code {bad} out of range for {self.strands} strands "
                f"(nonzero, |code| <= {top})"
            )
        object.__setattr__(self, "codes", _frozen(codes.astype(np.intp)))

    @cached_property
    def letters(self) -> tuple[Letter, ...]:
        """The codes as (index, sign) letters, derived on first use for the
        benchmark oracle (``perfbench/oracle.py``); equal letters share one
        object, so the view costs a pointer per letter."""
        codes = self.codes.tolist()
        shared = {c: Letter(abs(c), 1 if c > 0 else -1) for c in set(codes)}
        return tuple(map(shared.__getitem__, codes))

    def __eq__(self, other):
        if not isinstance(other, BraidWord):
            return NotImplemented
        return self.strands == other.strands and np.array_equal(self.codes, other.codes)

    def __hash__(self) -> int:
        return hash((self.strands, self.codes.tobytes()))

    def __reduce__(self):
        # rebuilt from its codes, so a copy's or a pickle's codes are read-only too
        return _word_with_runs, (self.strands, self.codes, self.powers)

    def __len__(self) -> int:
        return len(self.codes)

    def __str__(self) -> str:
        return render_braid_word(self)


def _word_with_runs(strands: int, codes, powers: tuple) -> BraidWord:
    """The word with these codes and power runs."""
    word = BraidWord(strands, codes)
    object.__setattr__(word, "powers", powers)
    return word


def identity_word(strands: int) -> BraidWord:
    return BraidWord(strands, ())


def _frozen(codes: np.ndarray) -> np.ndarray:
    codes.setflags(write=False)
    return codes


# The code of each flat token ("s1" is 1, "s1^-1" is -1) with index at most
# top, for top = 0..9: the short reading of flat text.
_FLAT_TOKENS = [
    {**{f"s{i}": i for i in range(1, top + 1)}, **{f"s{i}^-1": -i for i in range(1, top + 1)}}
    for top in range(10)
]


def _flat_codes(text: str, strands: int) -> np.ndarray | None:
    """The codes of flat text, or None for any other text.

    Flat text holds generators "s" with one digit from 1 to strands - 1 and
    an optional "^-1" right after the digit, and whitespace.  A text
    shorter than SCAN_CHARS is split at whitespace (what str.isspace
    accepts, as the token regex does), and every token must be one of
    ``_FLAT_TOKENS``.  A longer one must be ASCII with spaces only; numpy
    reads the digit after each "s" and looks for a "^" after it.  Counts of
    the bytes then prove the rest: every "^" starts a "^-1" right after a
    digit, and the length leaves no other digit or "-", so no index has two
    digits and no "^-1" has a digit after it.
    """
    top = min(strands - 1, 9)
    if len(text) < SCAN_CHARS:
        try:
            return np.array(list(map(_FLAT_TOKENS[top].__getitem__, text.split())), np.intp)
        except KeyError:
            return None
    try:
        raw = text.encode("ascii")
    except UnicodeEncodeError:
        return None
    if raw.translate(None, b" s0123456789^-"):  # a byte flat text never holds
        return None
    b = np.frombuffer(raw + b"  ", np.uint8)  # padded so each "s" has two bytes after it
    at = np.flatnonzero(b == ord("s"))
    index = b[at + 1] - np.uint8(ord("0"))  # wraps below "0", so one bound checks the digit
    inverse = b[at + 2] == ord("^")
    hats = raw.count(b"^")
    if not (
        len(raw) == raw.count(b" ") + 2 * len(at) + 3 * hats
        and raw.count(b"^-1") == hats == np.count_nonzero(inverse)
        and (index - np.uint8(1) < top).all()
    ):
        return None
    codes = index.astype(np.intp)
    np.negative(codes, out=codes, where=inverse)
    return codes


# One match per token; its group is the token without the whitespace before
# it.  A generator token holds its own "^-1" when it has one: the regex joins a
# "^-1" that no digit follows to the generator before it.  Digits are ASCII
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


def _positioned(text: str) -> list[tuple[int, int, int]]:
    """(kind, value, position) of every token of the text, from one regex scan,
    each distinct token decoded once.

    Raises the first malformed token's error, so every lexical error comes
    before any grammar error.  A generator that holds its own ``^-1`` becomes
    the generator and the power, at the positions of its "s" and its "^".
    """
    tokens, decoded = [], {}
    for m in _TOKEN.finditer(text):
        token, at = m[1], m.start(1)
        if token not in decoded:
            decoded[token] = _decode(token)
        kind, value = decoded[token]
        if kind == _BAD:
            raise WordSyntaxError(value, at)
        if kind == _INVERSE:
            tokens += ((_GEN, value, at), (_POW, -1, at + token.index("^")))
        else:
            tokens.append((kind, value, at))
    return tokens


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
) -> tuple[np.ndarray, list[tuple], int]:
    """Codes and power runs of the items from token ``pos`` up to an unmatched
    ")" or the end, and the position of that token.

    Runs are kept as ``BraidWord.powers`` describes, with starts relative to
    the returned codes.  A plain letter's code joins a list of ints; a power
    or a group tiles its atom's codes as one array, so no power is expanded
    letter by letter.

    A module-level function on purpose: a nested one that calls itself is a
    reference cycle that keeps the token list alive until the cycle
    collector runs, and in a loop of long parses those lists pile up.
    """
    pieces: list[np.ndarray] = []  # the codes so far, less ``plain``
    plain: list[int] = []  # the codes of the plain letters since the last piece
    runs: list[tuple] = []
    length, end = 0, len(tokens)
    while pos < end:
        kind, value, at = tokens[pos]
        if kind == _GEN:
            if not 1 <= value <= strands - 1:
                raise WordSyntaxError(
                    f"generator index {value} out of range for {strands} strands "
                    f"(max {strands - 1})",
                    at,
                )
            atom, inner = value, ()
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
            break
        else:
            raise WordSyntaxError("power without a preceding generator or group", at)
        k = 1
        if pos < end and tokens[pos][0] == _POW:
            _, k, at = tokens[pos]
            pos += 1
        size = 1 if kind == _GEN else len(atom)
        if length + size * abs(k) > MAX_WORD_LETTERS:
            raise WordSyntaxError(f"word expands past {MAX_WORD_LETTERS} letters", at)
        if k == 0:
            continue
        if kind == _GEN and k in (1, -1):
            plain.append(k * atom)
            length += 1
            continue
        atom = np.array([atom], np.intp) if kind == _GEN else atom
        if k < 0:
            inner = _mirrored(inner, size)
            atom, k = -atom[::-1], -k
        if k > 1 and size:
            runs.append((length, size, k, tuple(inner)))
            inner = ()  # the atom's runs now sit in the first period
            atom = np.tile(atom, k)
        # a group with no power: its top-level runs join this span
        runs += [(length + s, p, c, kids) for s, p, c, kids in inner]
        pieces += (np.array(plain, np.intp), atom)
        plain = []
        length += len(atom)
    pieces.append(np.array(plain, np.intp))
    return np.concatenate(pieces), runs, pos


def parse_braid_word(text: str, strands: int) -> BraidWord:
    """Parse braid word text into a BraidWord over the given strand count.

    Flat text of at most MAX_WORD_LETTERS letters is read straight into the
    word's codes (``_flat_codes``); any other text goes through the token
    regex and the grammar, and the word's ``powers`` record the runs its
    ``^k`` tokens wrote.  Raises WordSyntaxError with the character position
    for malformed text, for generator indices that exceed strands - 1, for
    groups nested deeper than MAX_NESTING_DEPTH and for words that expand
    past MAX_WORD_LETTERS letters.  The empty string parses to the identity
    word.
    """
    if strands < 2:
        raise ValueError(f"a braid group needs at least 2 strands, got {strands}")
    codes = _flat_codes(text, strands)
    if codes is not None and len(codes) <= MAX_WORD_LETTERS:
        return BraidWord(strands, codes)
    codes, runs, _ = _parse_sequence(_positioned(text), 0, 0, strands)
    return _word_with_runs(strands, codes, tuple(runs))


def render_braid_word(word: BraidWord) -> str:
    """ASCII rendering that parse_braid_word maps back to the same codes."""
    return " ".join(f"s{c}" if c > 0 else f"s{-c}^-1" for c in word.codes.tolist())


def concat(w1: BraidWord, w2: BraidWord) -> BraidWord:
    """Group product: codes of w1 followed by codes of w2 (no reduction)."""
    if w1.strands != w2.strands:
        raise ValueError(f"strand-count mismatch: {w1.strands} vs {w2.strands}")
    return BraidWord(w1.strands, np.concatenate((w1.codes, w2.codes)))


def inverse(word: BraidWord) -> BraidWord:
    """Group inverse: codes reversed and negated."""
    return BraidWord(word.strands, -word.codes[::-1])


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
    return BraidWord(word.strands, free_reduce_codes(word.codes.tolist()))


def _permutation_power(moved: np.ndarray, count: int) -> np.ndarray:
    """``moved`` composed with itself ``count`` times, by repeated squaring."""
    out = np.arange(len(moved))
    while count:
        if count & 1:
            out = moved[out]  # powers of one permutation commute
        moved = moved[moved]
        count >>= 1
    return out


def table_product(table: np.ndarray, ids: np.ndarray) -> int:
    """The product, in order, of group elements given by their ids in a Cayley
    table (``table[g, h]`` is g h), reduced pairwise; the identity, id 0, when
    there are none."""
    while len(ids) > 1:  # an odd last element passes to the next round as it is
        ids = np.concatenate((table[ids[:-1:2], ids[1::2]], ids[len(ids) & ~1 :]))
    return int(ids[0]) if len(ids) else 0


def _swaps(codes: np.ndarray, points: int) -> np.ndarray:
    """One ``moved`` row per nonzero code c: |c| - 1 and |c| swapped on ``points`` points."""
    rows = np.tile(np.arange(points), (len(codes), 1))
    r, i = np.arange(len(codes)), np.abs(codes)
    rows[r, i - 1], rows[r, i] = i, i - 1
    return rows


@functools.lru_cache(maxsize=TABLE_POINTS)
def _symmetric_group(points: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """S_points as ``moved`` arrays: its elements (identity first), its Cayley table
    (g h is g[h], g's letters first) and at index i the element that swaps
    points i-1 and i."""
    elements = np.array(list(itertools.permutations(range(points))))
    keys = points ** np.arange(points)  # a row's key is its entries in base ``points``
    ids = np.zeros(points**points, dtype=np.intp)
    ids[elements @ keys] = np.arange(len(elements))
    table = ids[elements[:, elements] @ keys].astype(np.min_scalar_type(len(elements)))
    swaps = np.concatenate(([0], ids[_swaps(np.arange(1, points), points) @ keys]))
    return _frozen(elements), _frozen(table), _frozen(swaps)


def _stretch_moved(codes: np.ndarray) -> np.ndarray:
    """``moved`` of a stretch of plain letters, on the points 0..max|code| it touches.

    On at most TABLE_POINTS points the letters are reduced in the Cayley
    table of the symmetric group; on more, each letter swaps two points.
    """
    points = max(int(codes.max()), -int(codes.min())) + 1
    if points <= TABLE_POINTS:
        elements, table, swaps = _symmetric_group(points)
        return elements[table_product(table, swaps[np.abs(codes)])]
    moved = list(range(points))
    for c in codes.tolist():
        i = abs(c)
        moved[i - 1], moved[i] = moved[i], moved[i - 1]
    return np.array(moved)


def _walk(codes: np.ndarray, runs, lo: int, hi: int, strands: int) -> tuple[np.ndarray, np.ndarray]:
    """Where the strands of codes[lo:hi] end up, and its signed letter sums.

    ``runs`` are the power runs of the span, with starts relative to ``lo``.
    Returns ``(moved, sums)``: ``moved[p]`` is the position, before the
    stretch, of the strand at position p after it, and ``sums[i]`` the signed
    count of s_i.  A run costs its first period's walk and a permutation
    power; the letters between runs are composed and counted by numpy.
    """
    moved = np.arange(strands)
    sums = np.zeros(strands, dtype=np.intp)
    at = lo
    for start, period, count, inner in (*runs, (hi - lo, 0, 0, ())):  # then the tail
        start += lo
        stretch = codes[at:start]
        if len(stretch):
            stretch_moved = _stretch_moved(stretch)
            moved[: len(stretch_moved)] = moved[stretch_moved]
            counts = np.bincount(stretch + strands, minlength=2 * strands)
            sums += counts[strands:] - counts[strands:0:-1]
        if count:
            run_moved, run_sums = _walk(codes, inner, start, start + period, strands)
            moved = moved[_permutation_power(run_moved, count)]
            sums += count * run_sums
        at = start + period * count
    return moved, sums


def word_images(word: BraidWord) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The permutation image and the signed letter count of each generator
    s_1 .. s_{n-1}, from one walk over the word's codes and power runs."""
    moved, sums = _walk(word.codes, word.powers, 0, len(word), word.strands)
    image = np.empty(word.strands, dtype=np.intp)
    image[moved] = np.arange(1, word.strands + 1)
    return tuple(image.tolist()), tuple(sums[1:].tolist())


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
