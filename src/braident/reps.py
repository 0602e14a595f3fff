"""Unitary braid-group representations on qubit registers.

Three concrete families plus a generic tensor template:

* ``b2_rep(theta)``: B2 on two qubits.  The single generator is the phased
  Bell-generating orthogonal matrix

      (e^{i theta}/sqrt 2) [[1,0,0,1],[0,1,1,0],[0,1,-1,0],[1,0,0,-1]]

* ``ge_rep(theta)``: B3 on three qubits from the 4x4 Yang-Baxter unitary

      U = (e^{i theta}/sqrt 2) [[1,0,0,-1],[0,1,-1,0],[0,1,1,0],[1,0,0,1]]

  placed on qubit pairs: sigma_1 = U(x)I, sigma_2 = I(x)U.

* ``jones_rep()``: B3 on three qubits built from Temperley-Lieb elements t_i
  (t_i^2 = sqrt(2) t_i, t_1 t_2 t_1 = t_1) as sigma_i = A t_i + A^{-1} I with
  A = exp(3 pi i / 8), so A^2 + A^{-2} = -sqrt(2) and each sigma_i is unitary
  with sigma_i^{-1} = A^{-1} t_i + A I.

* ``generic_rep(u, n)``: sigma_i = I(x)...(x)U(x)...(x)I with a 4x4 unitary U
  on qubits (i, i+1).  Far commutation holds by construction; the braid
  relation is checked and recorded but not enforced, since most U fail it.

Every generator is stored as a unitary block B of dimension k = 2^m on the m
qubits that start at qubit ``first``, and acts as the identity on the other
qubits.  b2, ge and jones use blocks that span the whole register
(``first`` = 1); ``generic_rep`` uses the 4x4 U itself at qubit i.  The
unitarity check, the relation residuals and ``evaluate`` all work on the
blocks; ``Representation.generator_images`` gives the dense register
operators on request.

Conventions.  Strand i acts on qubit i, the i-th tensor factor from the left
(most significant index bit).  ``evaluate`` multiplies generator images in
written word order, so the word "s1 s2" becomes the operator product
sigma_1 sigma_2, whose rightmost factor (the last letter) acts first on kets.
It keeps that association by accumulating the transpose of the product:
M <- M (I(x)B(x)I) is P <- (I(x)B^T(x)I) P for P = M^T, one k x k block
applied along the block's qubits of P.  For a whole-register block this is
the same floating-point product as M <- M B.

Long words on whole-register representations (b2, ge, jones) are cut into
segments of SEGMENT letters.  All whole segments are folded side by side,
one letter position per batched matmul.  Their products are then multiplied
in written order, and the tail of fewer than SEGMENT letters is folded letter
by letter.  Such a word's product is therefore associated as a product of
segment products, not as a pure left fold, and can differ from it in the
last bits.  A word of at most SEGMENT letters takes exactly the per-letter
steps (a slice of a batched matmul is the same product as the single one),
so its product is bit for bit the left fold; the tests pin this.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction

import numpy as np

from .braids import BraidWord
from .linalg import DEFAULT_TOL, equal_up_to_phase, is_unitary

DEFAULT_THETA = 1.0  # 1/pi is irrational, so the default angle is faithful

# Letters per segment of evaluate's lockstep fold; a word of at most this many
# letters is multiplied out one letter after another.
SEGMENT = 256

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
    and as the identity on every other qubit.  ``relation_report`` records
    the defining-relation residuals measured at construction time.
    Representations compare by identity.
    """

    name: str
    strands: int
    dimension: int
    blocks: tuple[tuple[np.ndarray, int], ...]
    parameters: dict = field(default_factory=dict)
    relation_report: RelationReport | None = None

    @cached_property
    def generator_images(self) -> tuple[np.ndarray, ...]:
        """Each generator as a dense operator on the whole register, built on first use."""
        return tuple(_frozen(_place(block, first, self.strands)) for block, first in self.blocks)

    @cached_property
    def steps(self) -> dict[int, tuple[np.ndarray, tuple[int, ...]]]:
        """Per signed index, B^T for i and conj(B) for -i, each with the shape
        of evaluate's transposed product that puts the block's qubits on one axis.
        """
        d = self.dimension
        out = {}
        for i, (block, first) in enumerate(self.blocks, start=1):
            k = len(block)
            before = 2 ** (first - 1)
            shape = (k, d * d // k) if before == 1 else (before, k, d * d // (before * k))
            out[i] = (_frozen(block.T), shape)
            out[-i] = (_frozen(block.conj()), shape)
        return out


@dataclass(frozen=True)
class ClosureResult:
    closes: bool
    phase: float | None


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


def _place(block: np.ndarray, first: int, qubits: int) -> np.ndarray:
    """I(x)block(x)I on ``qubits`` qubits, with the block starting at qubit ``first``."""
    before = 2 ** (first - 1)
    after = 2**qubits // (before * len(block))
    if before > 1:
        block = np.kron(np.eye(before, dtype=complex), block)
    if after > 1:
        block = np.kron(block, np.eye(after, dtype=complex))
    return block


def _pair_residual(
    a: tuple[np.ndarray, int], b: tuple[np.ndarray, int], strands: int, word
) -> float:
    """Frobenius norm of word(A, B) - word(B, A) on the register, measured on a window.

    Both blocks are placed on the smallest run of qubits covering them, less
    the identity qubits between two disjoint spans; the identity on the
    qubits left out scales the norm by the square root of their dimension.
    """
    # (first qubit, last qubit) of each block, the earlier one first
    (lo, end0), (start1, end1) = sorted(
        (first, first + len(block).bit_length() - 2) for block, first in (a, b)
    )
    gap = max(0, start1 - end0 - 1)
    width = max(end0, end1) - lo + 1 - gap
    x, y = (
        _place(block, first - lo + 1 - (gap if first > lo else 0), width) for block, first in (a, b)
    )
    return math.sqrt(2 ** (strands - width)) * float(np.linalg.norm(word(x, y) - word(y, x)))


def _relation_report(
    blocks: tuple[tuple[np.ndarray, int], ...], strands: int, tol: float
) -> RelationReport:
    far: list[tuple[int, int, float]] = []
    braiding: list[tuple[int, float]] = []
    k = len(blocks)
    for i in range(1, k + 1):
        for j in range(i + 2, k + 1):
            r = _pair_residual(blocks[i - 1], blocks[j - 1], strands, lambda a, b: a @ b)
            far.append((i, j, r))
    for i in range(1, k):
        r = _pair_residual(blocks[i - 1], blocks[i], strands, lambda a, b: a @ b @ a)
        braiding.append((i, r))
    residuals = [r for _, _, r in far] + [r for _, r in braiding]
    max_residual = max(residuals, default=0.0)
    return RelationReport(tuple(far), tuple(braiding), max_residual, tol, max_residual <= tol)


def verify_relations(rep: Representation, tol: float = DEFAULT_TOL) -> RelationReport:
    """Measure far-commutation and braiding residuals of every generator pair."""
    return _relation_report(rep.blocks, rep.strands, tol)


def _assemble(
    name: str,
    strands: int,
    blocks: list[tuple[np.ndarray, int]],
    parameters: dict,
    tol: float,
    require_braiding: bool,
) -> Representation:
    """Check and freeze (block, first qubit) generators into a Representation.

    A k x k block is unitary on the d-dimensional register within tol iff
    sqrt(d/k) ||B B^dag - I||_F <= tol: the register operator repeats the
    block d/k times, so this is the Frobenius quantity of the dense check.
    """
    d = 2**strands
    frozen = []
    for i, (block, first) in enumerate(blocks, start=1):
        block = _frozen(np.array(block, dtype=complex))
        k = len(block)
        defect = np.linalg.norm(block @ block.conj().T - np.eye(k, dtype=complex))
        if not math.sqrt(d / k) * defect <= tol:
            raise ValueError(f"image of generator {i} is not unitary within {tol}")
        frozen.append((block, first))
    report = _relation_report(tuple(frozen), strands, tol)
    if require_braiding and not report.passed:
        raise ValueError(
            f"defining relations violated for representation {name!r} "
            f"(max residual {report.max_residual:.3e} > {tol})"
        )
    return Representation(name, strands, d, tuple(frozen), parameters, report)


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


def b2_generator(theta: float) -> np.ndarray:
    """The phased 4x4 Bell generator of the two-strand representation."""
    core = np.array(
        [[1, 0, 0, 1], [0, 1, 1, 0], [0, 1, -1, 0], [1, 0, 0, -1]], dtype=complex
    )
    return np.exp(1j * theta) / math.sqrt(2) * core


def yang_baxter_unitary(theta: float) -> np.ndarray:
    """The phased 4x4 Yang-Baxter solution used by the three-strand product rep."""
    core = np.array(
        [[1, 0, 0, -1], [0, 1, -1, 0], [0, 1, 1, 0], [1, 0, 0, 1]], dtype=complex
    )
    return np.exp(1j * theta) / math.sqrt(2) * core


def b2_rep(theta: float = DEFAULT_THETA) -> Representation:
    """Two-strand representation on two qubits; no braiding relation applies."""
    _warn_if_rational_angle(theta)
    return _assemble(
        "b2", 2, [(b2_generator(theta), 1)], {"theta": theta}, DEFAULT_TOL, require_braiding=True
    )


def ge_rep(theta: float = DEFAULT_THETA) -> Representation:
    """Three-strand product representation sigma_1 = U(x)I, sigma_2 = I(x)U."""
    _warn_if_rational_angle(theta)
    u = yang_baxter_unitary(theta)
    blocks = [(np.kron(u, _I2), 1), (np.kron(_I2, u), 1)]
    return _assemble("ge", 3, blocks, {"theta": theta}, DEFAULT_TOL, require_braiding=True)


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
    return _assemble("jones", 3, blocks, {"A": JONES_A}, DEFAULT_TOL, require_braiding=True)


def generic_rep(u, strands: int, tol: float = DEFAULT_TOL) -> Representation:
    """Tensor template sigma_i = I(x)..(x)U(x)..(x)I for any 4x4 unitary U.

    Far commutation holds by construction.  The braid relation usually does
    not; it is measured and recorded in ``relation_report`` rather than
    enforced, so the result is a probe for candidate U, not a certificate.
    """
    u = np.asarray(u, dtype=complex)
    if u.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got {u.shape}")
    if not is_unitary(u, tol):
        raise ValueError("U is not unitary within tolerance")
    if strands < 2:
        raise ValueError(f"need at least 2 strands, got {strands}")
    if strands > 8:
        raise ValueError(f"at most 8 strands supported, got {strands}")
    blocks = [(u, i) for i in range(1, strands)]
    return _assemble("generic", strands, blocks, {}, tol, require_braiding=False)


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
        # the codes are in range; take's default mode "raise" would buffer its out
        np.take(table, column, axis=0, out=gathered, mode="clip")
        np.matmul(gathered, acc, out=spare)
        acc, spare = spare, acc
    p = acc[0]
    for segment in acc[1:]:
        p = segment @ p
    return p


def evaluate(rep: Representation, word: BraidWord) -> np.ndarray:
    """Evaluate a braid word to the product of generator images in written order.

    The first letter is the leftmost factor, so the last letter acts first on
    column vectors: "s1 s2" evaluates to sigma_1 @ sigma_2.  Negative letters
    use the conjugate transpose of the generator image.  The empty word
    evaluates to the identity.  Each letter costs d^2 k for a k x k block
    (see the module docstring).  On whole-register representations the
    leading whole segments of SEGMENT letters are folded side by side, so a
    longer word's product is associated as a product of segment products.
    """
    if word.strands != rep.strands:
        raise ValueError(
            f"word is over {word.strands} strands but representation {rep.name!r} "
            f"has {rep.strands}"
        )
    steps = rep.steps
    d = rep.dimension
    codes = [letter.sign * letter.index for letter in word.letters]
    whole = all(len(block) == d for block, _ in rep.blocks)
    folded = len(codes) // SEGMENT * SEGMENT if whole else 0
    if folded:
        p = _fold_segments(rep, np.fromiter(codes, dtype=np.intp, count=folded))
    else:
        p = np.eye(d, dtype=complex)
    for code in codes[folded:]:
        block_t, shape = steps[code]
        if p.shape != shape:  # a reshape on every 8x8 letter made evaluate ~8% slower
            p = p.reshape(shape)
        p = block_t @ p
    return np.ascontiguousarray(p.reshape(d, d).T)


def closure_check(rep: Representation, word: BraidWord, tol: float = DEFAULT_TOL) -> ClosureResult:
    """Does the word evaluate to a phase times the identity (closable to a link)?"""
    phase = equal_up_to_phase(evaluate(rep, word), np.eye(rep.dimension, dtype=complex), tol)
    return ClosureResult(phase is not None, phase)
