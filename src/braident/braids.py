"""Braid words over B_n: concrete syntax, free-group algebra, symmetric-group image.

A braid word over a fixed strand count is its codes: one read-only array of
signed generator indices, ``BraidWord.codes``, +i for s_i and -i for s_i^-1.
Construction checks the whole array by numpy reductions, and every layer
(evaluation, the closure bookkeeping, the renderers) reads that array.  The
parser is the one way in that skips the check: the flat readings and the
grammar range-check each index as they read it, so it hands its fresh codes
to the word already checked, and the word freezes them as they are.
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
longer one is scanned as bytes by a few whole-array numpy passes, with no
string per letter and no masked write.  The scan reads the digit after each
"s" and whether "^-1" follows it, and a count proves the text flat: the
spaces and the generators cover disjoint bytes, so the text is flat exactly
when their sizes add up to its length.  Any other text goes through one
token regex and the grammar, so errors carry their message and position.

Words map onto the symmetric group by sending every letter, regardless of
sign, to the adjacent transposition swapping its index with the next point.
The image is a plain tuple: entry x-1 is the end position of the strand that
starts at position x, with letters acting in word order.  Cycle counting of
that image gives the number of components of the word's closure.  This
image and the unitary images of ``reps`` are finite groups, each built by
``finite_group`` from its letters' matrices; ``group_element`` reads a word in
one over its power runs, with a tally of its codes: its exponent sum, or
its letter counts (the image in the free group's abelianization).  A stretch
of letters is read L at a time through a block table, the element of every
L-letter word over the group's signed codes (the "Four Russians" table
method of Arlazarov, Dinic, Kronrod and Faradzev, 1970), and the elements
are multiplied in pairs through the Cayley table; a run costs its first
period and one power by square-and-multiply.  Past ``TABLE_POINTS`` strands
the permutation image is the swap loop over the written letters, a run
raised to its count through the cycles of its first period's arrangement.
"""

from __future__ import annotations

import functools
import operator
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
# shorter one is split at whitespace.  The scan costs about 18 us however short
# the text is, and the two met at 720-810 characters (160-180 letters) in
# alternating timings of both readings.
SCAN_CHARS = 750

# word_images reads a word on at most TABLE_POINTS strands in the Cayley table
# of the symmetric group (120 elements at 5 points); on more it swaps the
# points one written letter at a time and raises a run's swaps to its count.
TABLE_POINTS = 5

# A finite group reads a stretch of letters in blocks of L letters, L as large
# as (signed codes)^L <= BLOCK_WORDS allows: 16 on 2 strands, 8 on 3, 6 on 4
# and 5 on 5, through a table of that many elements (64 KB at most).
BLOCK_WORDS = 2**16

# table_product multiplies element ids in pairs by numpy rounds while more
# than LOOP_IDS remain, then folds the rest in a Python loop, which is the
# faster of the two from about this many ids down.
LOOP_IDS = 256


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
    strands and codes are.  ``parse_braid_word`` alone builds a word
    without this check or copy, from codes it has range-checked while
    reading them; copies, pickles and ``dataclasses.replace`` check again.

    ``powers`` holds the runs of a parsed word, one per ``^k`` with |k| >= 2
    of a nonempty atom, as a tree.  A run ``(start, period, count, inner)``
    is ``count`` copies of the ``period`` codes from ``start``, which counts
    from the start of the span that holds the run: the word, or the first
    period of the run around it.  ``inner`` holds the runs inside that first
    period in the same form.  Only ``parse_braid_word`` sets them, and copies
    keep them; every other word has none, and they take no part in
    comparison, hashing or rendering.  Likewise ``reps.evaluate`` keeps the
    word's element of the last finite image group it read it in, which
    copies drop.
    """

    strands: int
    codes: np.ndarray = ()
    powers: tuple[tuple[int, int, int, tuple], ...] = field(init=False, default=(), repr=False)

    def __post_init__(self):
        object.__setattr__(self, "strands", strand_count(self.strands))
        codes = np.asarray(self.codes)
        if codes.ndim != 1 or (len(codes) and codes.dtype.kind not in "iu"):
            got = reprlib.repr(self.codes)
            raise ValueError(f"braid word codes must be a 1-D array of integers, got {got}")
        top = self.strands - 1
        if len(codes) and not (-top <= codes.min() and codes.max() <= top and codes.all()):
            bad = next(c for c in codes.tolist() if not 0 < abs(c) <= top)  # name the first bad code
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


def strand_count(strands) -> int:
    """The strand count as an int: any integer (``operator.index``) of at least 2."""
    try:
        strands = operator.index(strands)
    except TypeError:
        raise ValueError(f"strand count must be an integer, got {strands!r}") from None
    if strands < 2:
        raise ValueError(f"a braid group needs at least 2 strands, got {strands}")
    return strands


def _word_with_runs(strands: int, codes, powers: tuple) -> BraidWord:
    """The word with these codes and power runs."""
    word = BraidWord(strands, codes)
    object.__setattr__(word, "powers", powers)
    return word


def _parsed_word(strands: int, codes: np.ndarray, powers: tuple = ()) -> BraidWord:
    """The word of codes the parser has range-checked: a fresh 1-D intp array,
    frozen as it is, with no second check and no copy."""
    word = object.__new__(BraidWord)
    object.__setattr__(word, "strands", strands)
    object.__setattr__(word, "codes", _frozen(codes))
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
    ``_FLAT_TOKENS``.  A longer one must be ASCII with spaces only, and is
    read by whole-array numpy passes: the digit after each "s" and whether
    a "^-1" follows it are read at the "s" positions, and one count proves
    the rest.  A generator covers its "s", its digit and its "^-1", none of
    which is a space or an "s", so the generators and the spaces cover
    disjoint bytes; when their sizes add up to the text's length, every
    byte is a space or part of a generator: no index has two digits, and a
    "^-1" is followed by a space, an "s" or the end.
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
    b = np.frombuffer(raw + b"    ", np.uint8)  # padded so each "s" has four bytes after it
    at = np.flatnonzero(b == ord("s"))
    index = b[1:].take(at) - np.uint8(ord("0"))  # wraps below "0", so one bound checks the digit
    inverse = ((b[2:-2] == ord("^")) & (b[3:-1] == ord("-")) & (b[4:] == ord("1"))).take(at)
    spaces = np.count_nonzero(b == ord(" ")) - 4
    if len(raw) != spaces + 2 * len(at) + 3 * np.count_nonzero(inverse):
        return None
    if not (index - np.uint8(1) < top).all():
        return None
    sign = 1 - 2 * inverse.view(np.int8)
    return (index.view(np.int8) * sign).astype(np.intp)


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
        if plain:
            pieces.append(np.array(plain, np.intp))
            plain = []
        if len(atom):
            pieces.append(atom)
            length += len(atom)
    if plain or not pieces:
        pieces.append(np.array(plain, np.intp))
    return (pieces[0] if len(pieces) == 1 else np.concatenate(pieces)), runs, pos


def parse_braid_word(text: str, strands: int) -> BraidWord:
    """Parse braid word text into a BraidWord over the given strand count.

    Flat text of at most MAX_WORD_LETTERS letters is read straight into the
    word's codes (``_flat_codes``); any other text goes through the token
    regex and the grammar, and the word's ``powers`` record the runs its
    ``^k`` tokens wrote.  Raises WordSyntaxError with the character position
    for malformed text, for generator indices that exceed strands - 1, for
    groups nested deeper than MAX_NESTING_DEPTH and for words that expand
    past MAX_WORD_LETTERS letters, and ValueError for a strand count that is
    not an integer of at least 2.  The empty string parses to the identity
    word.
    """
    strands = strand_count(strands)
    codes = _flat_codes(text, strands)
    if codes is not None and len(codes) <= MAX_WORD_LETTERS:
        return _parsed_word(strands, codes)
    codes, runs, _ = _parse_sequence(_positioned(text), 0, 0, strands)
    return _parsed_word(strands, codes, tuple(runs))


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


class _FiniteGroup(tuple):
    """A ``finite_group``: the tuple (elements, table, letters).  Its Cayley
    table as lists and its block table, which reads a stretch of letters L
    at a time, are built on first use and kept with the group."""

    @cached_property
    def rows(self) -> list[list[int]]:
        """The Cayley table as lists: ``rows[g][h]`` is g h."""
        return self[1].tolist()

    @cached_property
    def block_letters(self) -> int:
        """L: the most letters over the group's B = 2(n - 1) signed codes with B^L <= BLOCK_WORDS."""
        base, size = len(self[2]) - 1, 1
        while base ** (size + 1) <= BLOCK_WORDS:
            size += 1
        return size

    @cached_property
    def blocks(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The digit of each signed code c at index c, the weight of each
        letter of a block, and the element of every block.

        A block's letters are digits base B, code c the digit
        (c mod (B + 1)) - 1, with the first letter the most significant; the
        table holds the element of every block in the order of their digits
        and is built by one vectorised lookup per letter.
        """
        _, table, letters = self
        base = len(letters) - 1
        words = letters[1:]  # the element of each one-letter block, by digit
        for _ in range(self.block_letters - 1):
            words = table[words[:, None], letters[1:]].ravel()
        weights = base ** np.arange(self.block_letters - 1, -1, -1)
        return _frozen(np.arange(-1, base)), _frozen(weights), _frozen(words)


def finite_group(images: np.ndarray) -> _FiniteGroup:
    """The group made by the images of the signed letters 1..n-1, 1-n..-1: its
    elements (identity first), Cayley table (``table[g, h]`` is g h) and the
    element of each signed letter c at index c.  Each breadth-first layer is one matmul;
    the column of h = p l, p its parent, is p's column times l."""

    def keys_of(a: np.ndarray) -> np.ndarray:  # quarters: finer than the 0.5 between elements
        return np.rint(4 * a.view(float)).astype(np.int8)

    elements, parents, right = [np.eye(images.shape[-1], dtype=images.dtype)], [], []
    keys = {keys_of(elements[0]).tobytes(): 0}
    while len(right) < len(elements):  # one breadth-first layer per pass
        layer = np.matmul(np.stack(elements[len(right) :])[:, None], images)
        for row, row_keys in zip(layer, keys_of(layer)):
            right.append([keys.setdefault(key.tobytes(), len(keys)) for key in row_keys])
            for j, h in enumerate(right[-1]):
                if h == len(elements):
                    elements.append(row[j])
                    parents.append((len(right) - 1, j))
    right = np.array(right)
    table = np.empty((len(elements),) * 2, dtype=np.min_scalar_type(len(elements)))
    table[:, 0] = np.arange(len(elements))
    for h, (p, j) in enumerate(parents, start=1):
        table[:, h] = right[table[:, p], j]
    letters = np.concatenate(([0], right[0]))  # a negative code counts from the end
    return _FiniteGroup((_frozen(np.stack(elements)), _frozen(table), _frozen(letters)))


def table_product(group: _FiniteGroup, ids: np.ndarray) -> int:
    """The product, in order, of group elements given by their ids; the
    identity, id 0, when there are none.  While more than LOOP_IDS remain,
    each round multiplies them in pairs by one take from the flat Cayley
    table; the rest are folded left through ``group.rows``."""
    table = group[1]
    flat, order = table.ravel(), len(table)
    while len(ids) > LOOP_IDS:  # an odd last element passes to the next round as it is
        pairs = np.multiply(ids[:-1:2], order, dtype=np.intp)
        pairs += ids[1::2]
        ids = np.concatenate((flat.take(pairs), ids[len(ids) & ~1 :]))
    rows, g = group.rows, 0
    for h in ids.tolist():
        g = rows[g][h]
    return g


def _power(group: _FiniteGroup, g: int, k: int) -> int:
    """g^k in the group, by square-and-multiply in its Cayley table."""
    rows, out = group.rows, 0
    while k:
        if k & 1:
            out = rows[out][g]
        g, k = rows[g][g], k >> 1
    return out


def _stretch_elements(group: _FiniteGroup, stretch: np.ndarray) -> np.ndarray:
    """The element ids of a stretch of codes, in order: one per whole block
    of ``group.block_letters`` letters, read in ``group.blocks``, then one
    per letter left over."""
    whole = len(stretch) - len(stretch) % group.block_letters
    if not whole:
        return group[2][stretch]
    digits, weights, words = group.blocks
    blocks = digits[stretch[:whole]].reshape(-1, len(weights)) @ weights
    return np.concatenate((words.take(blocks), group[2][stretch[whole:]]))


def group_element(codes, runs, lo: int, hi: int, group: _FiniteGroup, tally) -> tuple[int, object]:
    """The ``finite_group`` element of codes[lo:hi] and the sum of ``tally``
    over it.

    ``tally`` maps a stretch of codes to a quantity that adds up over the
    stretches of a word, such as its exponent sum or the count of each code;
    the sum is 0 on an empty span.  ``runs`` are the power runs of the span,
    with starts relative to ``lo``.  A stretch of plain letters is read in
    blocks (``_stretch_elements``) with one tally; a run is its period's
    element raised to count % order (Lagrange) by square-and-multiply, and
    its period's tally count times.
    """
    ids, total, at = [], 0, lo
    for start, period, count, inner in (*runs, (hi - lo, 0, 0, ())):  # then the tail
        start += lo
        if at < start:
            stretch = codes[at:start]
            ids.append(_stretch_elements(group, stretch))
            total += tally(stretch)
        if count:
            g, run_total = group_element(codes, inner, start, start + period, group, tally)
            ids.append([_power(group, g, count % len(group[1]))])
            total += count * run_total
        at = start + period * count
    return (table_product(group, np.concatenate(ids)) if ids else 0), total


@functools.lru_cache(maxsize=TABLE_POINTS)
def _symmetric_group(points: int) -> _FiniteGroup:
    """S_points, the ``finite_group`` of its adjacent transpositions, each its own inverse."""
    eye = np.eye(points)
    swaps = [eye[[*range(i - 1), i, i - 1, *range(i + 1, points)]] for i in range(1, points)]
    return finite_group(np.stack(swaps + swaps[::-1]))


def _swaps(codes, runs, lo: int, hi: int, strands: int) -> tuple[list[int], list[int]]:
    """The swap loop over codes[lo:hi] from the identity arrangement: entry p
    is the position before the span of the strand at p after it, and entry i
    of the second list the signed count of s_i.

    Each written letter swaps two entries; a run maps p to its period's entry
    applied count times, through the cycles of the period's arrangement, so
    it costs O(strands) past its first period.
    """
    moved, sums, at = list(range(strands)), [0] * strands, lo
    for start, period, count, inner in (*runs, (hi - lo, 0, 0, ())):  # then the tail
        start += lo
        for c in codes[at:start].tolist():
            i = abs(c)
            moved[i - 1], moved[i] = moved[i], moved[i - 1]
            sums[i] += 1 if c > 0 else -1
        if count:
            step, run_sums = _swaps(codes, inner, start, start + period, strands)
            power = [-1] * strands
            for p in range(strands):
                if power[p] < 0:  # p's cycle under step, each entry sent count along it
                    cycle = [p]
                    while step[cycle[-1]] != p:
                        cycle.append(step[cycle[-1]])
                    for j, q in enumerate(cycle):
                        power[q] = cycle[(j + count) % len(cycle)]
            moved = [moved[q] for q in power]
            sums = [s + count * r for s, r in zip(sums, run_sums)]
        at = start + period * count
    return moved, sums


def word_images(word: BraidWord) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The permutation image and the signed letter count of each generator
    s_1 .. s_{n-1}: the word's element of the symmetric group on at most
    TABLE_POINTS strands, and on more its swap loop with powered runs."""
    n = word.strands
    if not len(word):
        return tuple(range(1, n + 1)), (0,) * (n - 1)
    if n <= TABLE_POINTS:
        group = _symmetric_group(n)
        g, counts = group_element(
            word.codes, word.powers, 0, len(word), group,
            lambda stretch: np.bincount(stretch + n, minlength=2 * n),
        )
        counts = counts.tolist()  # of each code c at c + n
        sums = [counts[n + i] - counts[n - i] for i in range(n)]
        moved = group[0][g].argmax(axis=0).tolist()  # column p: the start of the strand that ends at p
    else:
        moved, sums = _swaps(word.codes, word.powers, 0, len(word), n)
    image = [0] * n
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
