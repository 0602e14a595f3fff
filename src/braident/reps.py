"""Unitary braid-group representations on qubit registers.

Three concrete families plus a generic tensor template:

* ``b2_rep(theta)``: B2 on two qubits.  The single generator is the phased
  Bell-generating orthogonal matrix (e^{i theta}/sqrt 2) B2_CORE.

* ``ge_rep(theta)``: B3 on three qubits from the 4x4 Yang-Baxter unitary
  U = (e^{i theta}/sqrt 2) YANG_BAXTER_CORE placed on qubit pairs:
  sigma_1 = U(x)I, sigma_2 = I(x)U.

* ``jones_rep()``: B3 on three qubits built from Temperley-Lieb elements t_i
  (t_i^2 = sqrt(2) t_i, t_1 t_2 t_1 = t_1) as sigma_i = A t_i + A^{-1} I with
  A = exp(3 pi i / 8), so A^2 + A^{-2} = -sqrt(2) and each sigma_i is unitary
  with sigma_i^{-1} = A^{-1} t_i + A I.

* ``generic_rep(u, n)``: sigma_i = I(x)...(x)U(x)...(x)I with a 4x4 unitary U
  on qubits (i, i+1).  Far commutation holds by construction; the braid
  relation is measured but not enforced, since most U fail it.

Every generator is stored as a unitary block B of dimension k = 2^m on the m
qubits that start at qubit ``first``, and acts as the identity on the other
qubits.  b2, ge and jones use blocks that span the whole register
(``first`` = 1); ``generic_rep`` uses the 4x4 U itself at qubit i.  The
unitarity check, the relation residuals and ``evaluate`` all work on the
blocks.  ``Representation.relation_report`` measures the residuals on first
read, and ``verify_relations`` re-judges them at any tolerance;
``generator_images`` gives the dense register operators on request.

Conventions.  Strand i acts on qubit i, the i-th tensor factor from the left
(most significant index bit).  ``evaluate`` multiplies generator images in
written word order, so the word "s1 s2" becomes the operator product
sigma_1 sigma_2, whose rightmost factor (the last letter) acts first on kets.
It keeps that association by accumulating the transpose of the product:
M <- M (I(x)B(x)I) is P <- (I(x)B^T(x)I) P for P = M^T, one k x k block
applied along the block's qubits of P.  For a whole-register block this is
the same floating-point product as M <- M B.

On local blocks (``generic_rep``) the letters are fused before they reach
P.  In written order, a letter joins the latest pending group that holds
one of its qubits if the two together span at most WINDOW = 3 qubits; it
may pass the groups after that one, which share no qubit with it and so
commute with it.  Otherwise it opens a new group.  Each group's product,
k x k when all its letters share one block's qubits and else 8 x 8 from the
``window_steps`` placed once per representation, is then applied to P in
one pass: a group of g letters costs g small matmuls plus one d^2 * 8 pass
instead of g passes of d^2 * 4.  On a random word each pass takes about
four letters.

A parsed word's power runs (``BraidWord.powers``, a tree in which each run
holds the runs of its first period) of more than SEGMENT letters are not
multiplied out letter by letter.  ``evaluate`` forms the product of the
run's first period, itself evaluated with the runs that period holds, and
raises it to the run's count by repeated squaring, about 2 log2(count)
matmuls; the pieces are multiplied in written order.  A shorter run is
folded with the letters around it, runs it holds included.  A negative power
needs no conjugate transpose, since its first period already holds the
inverted letters.  The same holds for ``generic_rep``: at d <= 256
one d x d matmul costs about d/4 letter steps.

A stretch of letters between such runs that holds at least three whole
segments of SEGMENT letters is first freely reduced: every adjacent
``s_i s_i^-1`` pair cancels in the group, so it is dropped instead of being
multiplied out (a random literal word on two generators keeps about half its
letters).  On whole-register representations (b2, ge, jones) a reduced
stretch that still holds three whole segments is cut into segments (below
that the batched fold is slower than the letter loop).  All whole segments
are folded side by side, one letter position per batched matmul.  Their
products are then multiplied in written order, and the tail of fewer than
SEGMENT letters is folded letter by letter.

Such a word's product is therefore associated as a product of run powers
and segment products of the reduced letters, not as a pure left fold of
the written letters, and can differ from it in the last bits; fewer
products also mean less rounding.  On a whole-register representation a
word of at most SEGMENT letters has no long run and takes exactly the
per-letter steps, so its product is bit for bit the left fold; so is a
word with no long run and fewer than 3 SEGMENT letters.  The tests pin
both.  Fused groups on local blocks reassociate the product too, so there
the left fold holds within rounding, not bit for bit.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace
from functools import cached_property
from fractions import Fraction

import numpy as np

from .braids import BraidWord, free_reduce_codes
from .linalg import DEFAULT_TOL, equal_up_to_phase

DEFAULT_THETA = 1.0  # 1/pi is irrational, so the default angle is faithful

# Letters per segment of evaluate's lockstep fold, and the length above which a
# power run is raised by squaring; a word of at most this many letters is
# multiplied out one letter after another.
SEGMENT = 256

# Qubits a fused group of local-block letters may span in evaluate.
WINDOW = 3

_I2 = np.eye(2, dtype=complex)


@dataclass(frozen=True)
class RelationReport:
    """Frobenius residuals of the defining relations at a given tolerance."""

    far_commutation_residuals: tuple[tuple[int, int, float], ...]
    braiding_residuals: tuple[tuple[int, float], ...]
    max_residual: float
    tolerance: float
    passed: bool


@dataclass(frozen=True, eq=False)
class Representation:
    """A named assignment of unitary matrices to braid generators.

    ``blocks[i-1]`` is ``(block, first)``: the i-th generator acts as the
    unitary ``block`` on the run of qubits that starts at qubit ``first``
    and as the identity on every other qubit.  Representations compare by
    identity; each property below is computed once, on first use.
    """

    name: str
    strands: int
    dimension: int
    blocks: tuple[tuple[np.ndarray, int], ...]
    parameters: dict = field(default_factory=dict)

    @cached_property
    def relation_report(self) -> RelationReport:
        """The defining-relation residuals judged at DEFAULT_TOL, measured on first use."""
        return _relation_report(self.blocks, self.strands, DEFAULT_TOL)

    @cached_property
    def generator_images(self) -> tuple[np.ndarray, ...]:
        """Each generator as a dense operator on the whole register, built on first use."""
        return tuple(_frozen(_place(block, first, self.strands)) for block, first in self.blocks)

    @cached_property
    def steps(self) -> dict[int, tuple[np.ndarray, tuple[int, ...]]]:
        """Per signed index, B^T for i and conj(B) for -i, each with the shape
        of evaluate's transposed product that puts the block's qubits on one axis.
        """
        out = {}
        for i, (block, first) in enumerate(self.blocks, start=1):
            shape = _step_shape(self.dimension, first, len(block))
            out[i] = (_frozen(block.T), shape)
            out[-i] = (_frozen(block.conj()), shape)
        return out

    @cached_property
    def window_steps(self) -> dict[tuple[int, int], tuple[np.ndarray, tuple[int, ...]]]:
        """Per (signed index, window start), the step image placed on the WINDOW
        qubits from the window start, with the shape of the transposed product
        that puts those qubits on one axis.  Only blocks that fit are listed.
        """
        out = {}
        for c, (step, _) in self.steps.items():
            first = self.blocks[abs(c) - 1][1]
            m = len(step).bit_length() - 1
            for w in range(max(1, first + m - WINDOW), min(first, self.strands - WINDOW + 1) + 1):
                placed = _place(step, first - w + 1, WINDOW)
                out[c, w] = (_frozen(placed), _step_shape(self.dimension, w, 2**WINDOW))
        return out


@dataclass(frozen=True)
class ClosureResult:
    closes: bool
    phase: float | None


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


def _span(block: np.ndarray, first: int) -> tuple[int, int]:
    """The first and last qubit a block acts on."""
    return first, first + len(block).bit_length() - 2


def _step_shape(d: int, first: int, k: int) -> tuple[int, ...]:
    """Shape of a d x d transposed product with the k-dimensional factor from
    qubit ``first`` on its own axis (the leading one when ``first`` is 1)."""
    before = 2 ** (first - 1)
    return (k, d * d // k) if before == 1 else (before, k, d * d // (before * k))


def _place(block: np.ndarray, first: int, qubits: int) -> np.ndarray:
    """I(x)block(x)I on ``qubits`` qubits, with the block starting at qubit
    ``first``, written into place (np.kron costs about 25 us per call)."""
    k = len(block)
    before = 2 ** (first - 1)
    after = 2**qubits // (before * k)
    out = np.zeros((before, k, after, before, k, after), dtype=complex)
    for b in range(before):
        for a in range(after):
            out[b, :, a, b, :, a] = block
    return out.reshape(before * k * after, -1)


def _pair_residual(
    a: tuple[np.ndarray, int], b: tuple[np.ndarray, int], strands: int, word
) -> float:
    """Frobenius norm of word(A, B) - word(B, A) on the register, measured on a window.

    Both blocks are placed on the smallest run of qubits covering them; the
    identity on the qubits left out scales the norm by the square root of
    their dimension.
    """
    lo = min(a[1], b[1])
    width = max(_span(*a)[1], _span(*b)[1]) - lo + 1
    x, y = (_place(block, first - lo + 1, width) for block, first in (a, b))
    return math.sqrt(2 ** (strands - width)) * float(np.linalg.norm(word(x, y) - word(y, x)))


def _relation_report(
    blocks: tuple[tuple[np.ndarray, int], ...], strands: int, tol: float
) -> RelationReport:
    far: list[tuple[int, int, float]] = []
    braiding: list[tuple[int, float]] = []
    k = len(blocks)
    for i in range(1, k + 1):
        for j in range(i + 2, k + 1):
            x, y = blocks[i - 1], blocks[j - 1]
            (_, end0), (start1, _) = sorted((_span(*x), _span(*y)))
            if end0 < start1:  # blocks on disjoint qubits commute exactly, with no rounding
                r = 0.0
            else:
                r = _pair_residual(x, y, strands, lambda a, b: a @ b)
            far.append((i, j, r))
    for i in range(1, k):
        r = _pair_residual(blocks[i - 1], blocks[i], strands, lambda a, b: a @ b @ a)
        braiding.append((i, r))
    max_residual = max([r for *_, r in far + braiding], default=0.0)
    return RelationReport(tuple(far), tuple(braiding), max_residual, tol, max_residual <= tol)


def verify_relations(rep: Representation, tol: float = DEFAULT_TOL) -> RelationReport:
    """Far-commutation and braiding residuals of every generator pair, measured once
    per representation (``relation_report``) and judged here at tol."""
    report = rep.relation_report
    return replace(report, tolerance=tol, passed=report.max_residual <= tol)


def _assemble(
    name: str,
    strands: int,
    blocks: list[tuple[np.ndarray, int]],
    parameters: dict,
    require_braiding: bool,
) -> Representation:
    """Check and freeze (block, first qubit) generators into a Representation.

    A k x k block passes when sqrt(d/k) ||B B^dag - I||_F <= DEFAULT_TOL on a
    d-dimensional register: the register operator repeats the block d/k
    times, so this is the Frobenius quantity of the dense unitarity check.
    """
    d = 2**strands
    frozen = []
    for i, (block, first) in enumerate(blocks, start=1):
        block = _frozen(np.array(block, dtype=complex))
        k = len(block)
        defect = np.linalg.norm(block @ block.conj().T - np.eye(k, dtype=complex))
        if not math.sqrt(d / k) * defect <= DEFAULT_TOL:
            raise ValueError(f"image of generator {i} is not unitary within {DEFAULT_TOL}")
        frozen.append((block, first))
    rep = Representation(name, strands, d, tuple(frozen), parameters)
    if require_braiding and not rep.relation_report.passed:
        raise ValueError(
            f"defining relations violated for representation {name!r} "
            f"(max residual {rep.relation_report.max_residual:.3e} > {DEFAULT_TOL})"
        )
    return rep


def _warn_if_rational_angle(theta: float) -> None:
    if not math.isfinite(theta):
        raise ValueError(f"theta must be finite, got {theta}")
    # Irrationality of theta/pi is not machine checkable; flag small rationals.
    ratio = theta / math.pi
    approx = Fraction(ratio).limit_denominator(1000)
    if abs(ratio - approx) < 1e-12:
        warnings.warn(
            f"theta = {approx}*pi is a rational multiple of pi; the generator image has "
            "finite order up to phase, so distinct braid words can collapse to the same "
            "operator. Choose an irrational multiple of pi for a faithful action.",
            UserWarning,
            stacklevel=3,
        )


# The integer cores of the 4x4 generators, each phased by e^{i theta}/sqrt 2.
B2_CORE = _frozen(np.array([[1, 0, 0, 1], [0, 1, 1, 0], [0, 1, -1, 0], [1, 0, 0, -1]]))
YANG_BAXTER_CORE = _frozen(np.array([[1, 0, 0, -1], [0, 1, -1, 0], [0, 1, 1, 0], [1, 0, 0, 1]]))


def b2_generator(theta: float) -> np.ndarray:
    """The phased 4x4 Bell generator of the two-strand representation."""
    return np.exp(1j * theta) / math.sqrt(2) * B2_CORE


def yang_baxter_unitary(theta: float) -> np.ndarray:
    """The phased 4x4 Yang-Baxter solution used by the three-strand product rep."""
    return np.exp(1j * theta) / math.sqrt(2) * YANG_BAXTER_CORE


def b2_rep(theta: float = DEFAULT_THETA) -> Representation:
    """Two-strand representation on two qubits; no braiding relation applies."""
    _warn_if_rational_angle(theta)
    return _assemble("b2", 2, [(b2_generator(theta), 1)], {"theta": theta}, require_braiding=True)


def ge_rep(theta: float = DEFAULT_THETA) -> Representation:
    """Three-strand product representation sigma_1 = U(x)I, sigma_2 = I(x)U."""
    _warn_if_rational_angle(theta)
    u = yang_baxter_unitary(theta)
    blocks = [(np.kron(u, _I2), 1), (np.kron(_I2, u), 1)]
    return _assemble("ge", 3, blocks, {"theta": theta}, require_braiding=True)


JONES_A = np.exp(3j * np.pi / 8)


def temperley_lieb_generators() -> tuple[np.ndarray, np.ndarray]:
    """The two 8x8 Temperley-Lieb elements with t^2 = sqrt(2) t.

    t1 is sqrt(2) times the projector onto the first four basis states; t2 is
    (I - J)/sqrt(2) with J the anti-diagonal exchange matrix.
    """
    t1 = math.sqrt(2) * np.diag([1, 1, 1, 1, 0, 0, 0, 0]).astype(complex)
    t2 = (np.eye(8) - np.fliplr(np.eye(8))).astype(complex) / math.sqrt(2)
    return t1, t2


def jones_rep() -> Representation:
    """Three-strand Jones representation sigma_i = A t_i + A^{-1} I, A = e^{3 pi i/8}."""
    eye = np.eye(8, dtype=complex)
    blocks = [(JONES_A * t + JONES_A**-1 * eye, 1) for t in temperley_lieb_generators()]
    return _assemble("jones", 3, blocks, {"A": JONES_A}, require_braiding=True)


def generic_rep(u, strands: int) -> Representation:
    """Tensor template sigma_i = I(x)..(x)U(x)..(x)I for any 4x4 unitary U.

    U is checked on the whole register, like every block.  Far commutation
    holds by construction; the braid relation usually does not, and is
    measured in ``relation_report``, not enforced: a probe, not a certificate.
    """
    u = np.asarray(u, dtype=complex)
    if u.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got {u.shape}")
    if strands < 2:
        raise ValueError(f"need at least 2 strands, got {strands}")
    if strands > 8:
        raise ValueError(f"at most 8 strands supported, got {strands}")
    blocks = [(u, i) for i in range(1, strands)]
    return _assemble("generic", strands, blocks, {}, require_braiding=False)


def _fold_segments(rep: Representation, codes: np.ndarray) -> np.ndarray:
    """Transposed product of whole-register letters, folded SEGMENT letters at a time.

    ``codes`` holds whole segments of signed indices.  Every segment starts
    from the identity and takes one letter per step: one gather of the step
    images and one batched matmul advance all segments together, each slice
    by the same product the per-letter loop forms.  The segment products are
    then multiplied in written order.
    """
    n, d = rep.strands, rep.dimension
    eye = np.eye(d, dtype=complex)
    # table[c + n - 1] is the step image of signed index c (c = 0 is unused)
    table = np.stack([rep.steps[c][0] if c else eye for c in range(1 - n, n)])
    columns = codes.reshape(-1, SEGMENT).T + (n - 1)  # row j: letter j of every segment
    gathered = np.empty((columns.shape[1], d, d), dtype=complex)
    acc = np.empty_like(gathered)
    acc[:] = eye
    spare = np.empty_like(gathered)
    for column in columns:
        # buffered (mode="clip" fills out in place): a plain table[column] @ acc fold is slower
        np.take(table, column, axis=0, out=gathered, mode="clip")
        np.matmul(gathered, acc, out=spare)
        acc, spare = spare, acc
    p = acc[0]
    for segment in acc[1:]:
        p = segment @ p
    return p


def _fused_steps(rep: Representation, codes: list[int]):
    """The steps of local-block letters, fused into groups of at most WINDOW qubits.

    In written order, a letter joins the latest group that holds one of its
    qubits if the two together span at most WINDOW qubits; it commutes with
    every later group, none of which touches its qubits.  Otherwise it opens
    a new group.  Yields each group's transposed product and its shape, in
    group order: the block-sized product when all of a group's letters share
    one block's qubits, else the product of their ``window_steps``.
    """
    n = rep.strands
    spans = {}  # signed index -> (first qubit, last qubit) of its block
    for i, block in enumerate(rep.blocks, start=1):
        spans[i] = spans[-i] = _span(*block)
    groups: list[list] = []  # [first qubit, last qubit, signed indices]
    latest = [-1] * (n + 1)  # latest[q]: the index of the latest group holding qubit q
    for c in codes:
        lo, hi = spans[c]
        j = max(latest[lo : hi + 1])
        if j >= 0:
            group = groups[j]
            start, end = min(lo, group[0]), max(hi, group[1])
            if end - start < WINDOW:
                group[0], group[1] = start, end
                group[2].append(c)
                latest[lo : hi + 1] = [j] * (hi - lo + 1)
                continue
        latest[lo : hi + 1] = [len(groups)] * (hi - lo + 1)
        groups.append([lo, hi, [c]])
    steps, window = rep.steps, rep.window_steps
    for lo, _, members in groups:
        if all(spans[c] == spans[members[0]] for c in members):
            images = [steps[c] for c in members]
        else:
            w = min(lo, n - WINDOW + 1)
            images = [window[c, w] for c in members]
        t, shape = images[0]
        for image, _ in images[1:]:
            t = image @ t
        yield t, shape


def _fold(
    rep: Representation, letters, lo: int, hi: int, p: np.ndarray | None
) -> np.ndarray | None:
    """Continue the transposed product ``p`` (None: the identity) over letters[lo:hi].

    A stretch of at least three whole segments is freely reduced first.  On
    a whole-register representation a reduced stretch that still holds three
    whole segments goes through ``_fold_segments``; shorter stretches, and
    the tail, take one step per letter (the batched fold costs more than the
    letter loop below about 700 letters).  On local blocks the letters take
    one step per fused group (``_fused_steps``).
    """
    if lo == hi:
        return p
    d = rep.dimension
    codes = [letter.sign * letter.index for letter in letters[lo:hi]]
    if len(codes) >= 3 * SEGMENT:
        codes = free_reduce_codes(codes)
    whole = all(len(block) == d for block, _ in rep.blocks)
    folded = 0
    if len(codes) >= 3 * SEGMENT and whole:
        folded = len(codes) // SEGMENT * SEGMENT
        f = _fold_segments(rep, np.fromiter(codes, dtype=np.intp, count=folded))
        p = f if p is None else f @ p.reshape(d, d)
    if p is None:
        p = np.eye(d, dtype=complex)
    if whole:
        steps = map(rep.steps.__getitem__, codes[folded:])
    else:
        steps = _fused_steps(rep, codes)
    for block_t, shape in steps:
        if p.shape != shape:  # a reshape on every 8x8 letter made evaluate ~8% slower
            p = p.reshape(shape)
        p = block_t @ p
    return p


def _product(rep: Representation, letters, runs, lo: int, hi: int) -> np.ndarray | None:
    """The transposed product of letters[lo:hi], None for an empty stretch.

    ``runs`` are the power runs of the span, with starts relative to ``lo``.
    A run of more than SEGMENT letters is one period's product, itself
    evaluated with the runs nested in that period, raised to the run's
    count; shorter runs, and the runs inside them, are folded with the
    letters around them.
    """
    d = rep.dimension
    p, at = None, lo
    for start, period, count, inner in runs:
        if period * count <= SEGMENT:
            continue
        start += lo
        p = _fold(rep, letters, at, start, p)
        q = _product(rep, letters, inner, start, start + period)
        q = np.linalg.matrix_power(q.reshape(d, d), count)  # by repeated squaring
        p = q if p is None else q @ p.reshape(d, d)
        at = start + period * count
    return _fold(rep, letters, at, hi, p)


def evaluate(rep: Representation, word: BraidWord) -> np.ndarray:
    """Evaluate a braid word to the product of generator images in written order.

    The first letter is the leftmost factor, so the last letter acts first on
    column vectors: "s1 s2" evaluates to sigma_1 @ sigma_2.  Negative letters
    use the conjugate transpose of the generator image.  The empty word
    evaluates to the identity.  Each letter costs d^2 k for a k x k block
    (see the module docstring); on local blocks, letters are fused into
    groups of at most WINDOW qubits, each group costing one d^2 * 8 pass
    plus one 8 x 8 matmul per letter.  A power run of more than SEGMENT
    letters (``word.powers``) costs one period's product and about
    2 log2(count) matmuls.  A stretch of at least three whole segments
    between such runs is freely reduced first, so its cancelling
    ``s_i s_i^-1`` pairs cost nothing; on whole-register representations a
    reduced stretch that still holds three whole segments is folded segment
    by segment.  A word of at most SEGMENT letters is multiplied out one
    letter after another.
    """
    if word.strands != rep.strands:
        raise ValueError(
            f"word is over {word.strands} strands but representation {rep.name!r} "
            f"has {rep.strands}"
        )
    d = rep.dimension
    p = _product(rep, word.letters, word.powers, 0, len(word.letters))
    if p is None:
        return np.eye(d, dtype=complex)
    return np.ascontiguousarray(p.reshape(d, d).T)


def closure_of(matrix: np.ndarray, tol: float = DEFAULT_TOL) -> ClosureResult:
    """Is the matrix e^{i phi} I within tol in the Frobenius norm, and for which phi?"""
    phase = equal_up_to_phase(matrix, np.eye(len(matrix), dtype=complex), tol)
    return ClosureResult(phase is not None, phase)


def closure_check(rep: Representation, word: BraidWord, tol: float = DEFAULT_TOL) -> ClosureResult:
    """Does the word evaluate to a phase times the identity (closable to a link)?"""
    return closure_of(evaluate(rep, word), tol)
