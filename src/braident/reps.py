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

Conventions.  Strand i acts on qubit i, the i-th tensor factor from the left
(most significant index bit).  ``evaluate`` multiplies generator images in
written word order, so the word "s1 s2" becomes the operator product
sigma_1 sigma_2, whose rightmost factor (the last letter) acts first on kets.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .braids import BraidWord, GeneratorLetter
from .linalg import DEFAULT_TOL, dagger, equal_up_to_phase, is_unitary, kron

DEFAULT_THETA = 1.0  # 1/pi is irrational, so the default angle is faithful

_I2 = np.eye(2, dtype=complex)


@dataclass(frozen=True)
class RelationReport:
    """Frobenius residuals of the defining relations at a given tolerance."""

    far_commutation_residuals: tuple[tuple[int, int, float], ...]
    braiding_residuals: tuple[tuple[int, float], ...]
    max_residual: float
    tolerance: float
    passed: bool


@dataclass(frozen=True)
class Representation:
    """A named assignment of unitary matrices to braid generators.

    ``generator_images[i-1]`` is the image of the i-th generator on the
    2^strands dimensional qubit space.  ``relation_report`` records the
    defining-relation residuals measured at construction time.
    """

    name: str
    strands: int
    dimension: int
    generator_images: tuple[np.ndarray, ...]
    parameters: dict = field(default_factory=dict)
    relation_report: RelationReport | None = None

    def image(self, letter: GeneratorLetter) -> np.ndarray:
        m = self.generator_images[letter.index - 1]
        return m if letter.sign > 0 else dagger(m)


@dataclass(frozen=True)
class ClosureResult:
    closes: bool
    phase: float | None


def _relation_report(images: tuple[np.ndarray, ...], tol: float) -> RelationReport:
    far: list[tuple[int, int, float]] = []
    braiding: list[tuple[int, float]] = []
    k = len(images)
    for i in range(1, k + 1):
        for j in range(i + 2, k + 1):
            a, b = images[i - 1], images[j - 1]
            far.append((i, j, float(np.linalg.norm(a @ b - b @ a))))
    for i in range(1, k):
        a, b = images[i - 1], images[i]
        braiding.append((i, float(np.linalg.norm(a @ b @ a - b @ a @ b))))
    residuals = [r for _, _, r in far] + [r for _, r in braiding]
    max_residual = max(residuals, default=0.0)
    return RelationReport(tuple(far), tuple(braiding), max_residual, tol, max_residual <= tol)


def verify_relations(rep: Representation, tol: float = DEFAULT_TOL) -> RelationReport:
    """Measure far-commutation and braiding residuals of every generator pair."""
    return _relation_report(rep.generator_images, tol)


def _assemble(
    name: str,
    strands: int,
    images: list[np.ndarray],
    parameters: dict,
    tol: float,
    require_braiding: bool,
) -> Representation:
    frozen = []
    for i, m in enumerate(images, start=1):
        m = np.array(m, dtype=complex)
        if not is_unitary(m, tol):
            raise ValueError(f"image of generator {i} is not unitary within {tol}")
        m.setflags(write=False)
        frozen.append(m)
    report = _relation_report(tuple(frozen), tol)
    if require_braiding and not report.passed:
        raise ValueError(
            f"defining relations violated for representation {name!r} "
            f"(max residual {report.max_residual:.3e} > {tol})"
        )
    return Representation(name, strands, 2**strands, tuple(frozen), parameters, report)


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
        "b2", 2, [b2_generator(theta)], {"theta": theta}, DEFAULT_TOL, require_braiding=True
    )


def ge_rep(theta: float = DEFAULT_THETA) -> Representation:
    """Three-strand product representation sigma_1 = U(x)I, sigma_2 = I(x)U."""
    _warn_if_rational_angle(theta)
    u = yang_baxter_unitary(theta)
    images = [kron(u, _I2), kron(_I2, u)]
    return _assemble("ge", 3, images, {"theta": theta}, DEFAULT_TOL, require_braiding=True)


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
    images = []
    for t in temperley_lieb_generators():
        images.append(JONES_A * t + JONES_A**-1 * eye)
    return _assemble("jones", 3, images, {"A": JONES_A}, DEFAULT_TOL, require_braiding=True)


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
    images = []
    for i in range(1, strands):
        m = kron(np.eye(2 ** (i - 1), dtype=complex), u)
        m = kron(m, np.eye(2 ** (strands - i - 1), dtype=complex))
        images.append(m)
    return _assemble("generic", strands, images, {}, tol, require_braiding=False)


def evaluate(rep: Representation, word: BraidWord) -> np.ndarray:
    """Evaluate a braid word to the product of generator images in written order.

    The first letter is the leftmost factor, so the last letter acts first on
    column vectors: "s1 s2" evaluates to sigma_1 @ sigma_2.  Negative letters
    use the conjugate transpose of the generator image.  The empty word
    evaluates to the identity.
    """
    if word.strands != rep.strands:
        raise ValueError(
            f"word is over {word.strands} strands but representation {rep.name!r} "
            f"has {rep.strands}"
        )
    out = np.eye(rep.dimension, dtype=complex)
    for letter in word.letters:
        out = out @ rep.image(letter)
    return out


def closure_check(rep: Representation, word: BraidWord, tol: float = DEFAULT_TOL) -> ClosureResult:
    """Does the word evaluate to a phase times the identity (closable to a link)?"""
    phase = equal_up_to_phase(evaluate(rep, word), np.eye(rep.dimension, dtype=complex), tol)
    return ClosureResult(phase is not None, phase)
