"""Entanglement measures for small qubit registers.

Implements the standard quantitative measures used to tell the two kinds of
tripartite entanglement apart:

* pure and mixed two-qubit concurrence (Wootters); a pair reduction of a
  three-qubit pure state has rank at most 2 and is read from its factor as
  the singular-value gap of a symmetric 2x2 matrix, every other matrix
  through sqrt(rho) and an SVD,
* von Neumann entropy of reductions (base 2), in closed form for one qubit
  and by a Hermitian eigensolve above that,
* Schmidt coefficients across any bipartition,
* the three-tangle (four times the modulus of Cayley's 2x2x2
  hyperdeterminant, the discriminant of det(x A0 + y A1) for the two
  amplitude slices A0, A1 of qubit 1),
* the residual profile: measure each qubit in the computational basis and
  record outcome probability and leftover two-qubit concurrence, read from
  the eight amplitudes as Python numbers in the roundings numpy's
  measurement takes.

All measures except the residual profile are invariant under local unitaries;
the residual profile is deliberately basis dependent, which is what separates
states whose single-qubit measurements disentangle the rest from states whose
measurements always leave a Bell pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .states import PROB_FLOOR, DensityMatrix, PureState, _qubit_subset

_EIG_FLOOR = 1e-14

_PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_YY = np.kron(_PAULI_Y, _PAULI_Y)

# (qubit, outcome, amplitude indices of the branch in the order of the two
# qubits left) for the six branches of a three-qubit residual profile
_BRANCHES = tuple(
    (qubit, outcome, tuple(i for i in range(8) if i >> (3 - qubit) & 1 == outcome))
    for qubit in (1, 2, 3)
    for outcome in (0, 1)
)


@dataclass(frozen=True)
class ProfileEntry:
    """One (qubit, outcome) measurement branch: probability and leftover concurrence."""

    qubit: int
    outcome: int
    probability: float
    concurrence: float | None


@dataclass(frozen=True)
class ResidualProfile:
    """All six (qubit, outcome) branches of a three-qubit state."""

    entries: tuple[ProfileEntry, ...]


def concurrence_pure2(state: PureState) -> float:
    """Concurrence 2|a00 a11 - a01 a10| of a pure two-qubit state."""
    if state.qubits != 2:
        raise ValueError(f"expected a 2-qubit state, got {state.qubits} qubits")
    return _concurrence(state.amplitudes)


def _concurrence(a: np.ndarray) -> float:
    return float(2.0 * abs(a[0] * a[3] - a[1] * a[2]))


def _sqrt_psd(matrix: np.ndarray) -> np.ndarray:
    values, vectors = np.linalg.eigh(matrix)
    # descending order; ascending changes the 1e-16 noise in the JSON outputs
    values, vectors = values[::-1], vectors[:, ::-1]
    return (vectors * np.sqrt(np.clip(values, 0.0, None))) @ vectors.conj().T


def concurrence_mixed2(dm: DensityMatrix) -> float:
    """Wootters concurrence max(0, l1 - l2 - l3 - l4) of a two-qubit density matrix.

    The l_i are the decreasing square roots of the eigenvalues of
    rho (Y(x)Y) conj(rho) (Y(x)Y).  A matrix with a factor of at most two
    columns v_j (every pair reduction of a three-qubit pure state) has at
    most two nonzero l_i, the singular values s1 >= s2 of the symmetric
    2x2 matrix tau_ij = v_i^T (Y(x)Y) v_j (Wootters, quant-ph/9709029), and
    C = s1 - s2 is read as (s1^2 - s2^2) / (s1 + s2): the numerator is the
    eigenvalue gap of tau^dag tau and the denominator is
    sqrt(|tau|_F^2 + 2 |det tau|), so no difference of close numbers is
    taken.  One column is a pure state, 2 |det| of its amplitudes.

    Any other matrix takes the l_i as the singular values of
    K = sqrt(rho) (Y(x)Y) conj(sqrt(rho)), since K K^dag is the Hermitian
    similarity form sqrt(rho) (Y(x)Y) conj(rho) (Y(x)Y) sqrt(rho); taking
    singular values directly avoids the sqrt-of-eigenvalue precision loss
    near zero.
    """
    if dm.qubits != 2:
        raise ValueError(f"expected a 2-qubit density matrix, got {dm.qubits} qubits")
    factor = dm._factor  # rows 00, 01, 10, 11, as DensityMatrix lays it out
    if factor is not None and factor.shape[1] == 1:
        return _concurrence(factor[:, 0])
    if factor is not None and factor.shape[1] == 2:
        (v00, w00), (v01, w01), (v10, w10), (v11, w11) = factor.tolist()
        t00 = 2.0 * (v01 * v10 - v00 * v11)
        t11 = 2.0 * (w01 * w10 - w00 * w11)
        t01 = v01 * w10 + v10 * w01 - v00 * w11 - v11 * w00
        n00, n01, n11 = abs(t00) ** 2, abs(t01) ** 2, abs(t11) ** 2
        h01 = t00.conjugate() * t01 + t01.conjugate() * t11
        total = math.sqrt(n00 + 2.0 * n01 + n11 + 2.0 * abs(t00 * t11 - t01 * t01))
        if total == 0.0:
            return 0.0
        return math.sqrt((n00 - n11) ** 2 + 4.0 * abs(h01) ** 2) / total
    root = _sqrt_psd(dm.matrix)
    k = root @ _YY @ root.conj()
    lam = np.linalg.svd(k, compute_uv=False)
    return float(max(0.0, lam[0] - lam[1] - lam[2] - lam[3]))


def vn_entropy(dm: DensityMatrix) -> float:
    """Von Neumann entropy in bits; eigenvalues below 1e-14 count as exact zeros.

    A one-qubit matrix [[a, b], [b*, d]] has eigenvalues (t +- s) / 2 with
    t = a + d and s = sqrt((a - d)^2 + 4 |b|^2); the smaller one is read as
    2 det / (t + s), which keeps its digits when it is near zero.  Larger
    matrices take a Hermitian eigensolve.
    """
    if dm.matrix.shape == (2, 2):
        (a, b), (_, d) = dm.matrix.tolist()
        a, d = a.real, d.real
        s = math.sqrt((a - d) ** 2 + 4.0 * abs(b) ** 2)
        values = [2.0 * (a * d - abs(b) ** 2) / (a + d + s), (a + d + s) / 2.0]
    else:
        values = np.linalg.eigvalsh(dm.matrix).tolist()
    return max(0.0, -sum(v * math.log2(v) for v in values if v > _EIG_FLOOR))


def schmidt_coefficients(state: PureState, left) -> np.ndarray:
    """Descending singular values of the left|rest bipartition reshaping."""
    n = state.qubits
    left_sorted = _qubit_subset(left, n, "left", proper=True)
    rest = [q for q in range(1, n + 1) if q not in left_sorted]
    tensor = state.amplitudes.reshape([2] * n)
    perm = [q - 1 for q in left_sorted + rest]
    matrix = tensor.transpose(perm).reshape(2 ** len(left_sorted), 2 ** len(rest))
    return np.linalg.svd(matrix, compute_uv=False)


def three_tangle(state: PureState) -> float:
    """Residual tripartite entanglement 4 |Hdet(a)| of the 2x2x2 amplitude array.

    Cayley's hyperdeterminant Hdet is the discriminant m^2 - 4 d0 d1 of the
    binary quadratic det(x A0 + y A1), where A0 and A1 are the 2x2 amplitude
    slices for qubit 1 = 0 and 1: d0 = det A0, d1 = det A1 and m is the mixed
    term.  So the value is also 4 |det tau| for the symmetric 2x2 matrix
    tau = [[-2 d0, -m], [-m, -2 d1]] that gives the (2,3) pair concurrence.

    Values lie in [0, 1] up to rounding: 1 for the GHZ class representatives
    used here, 0 for product and W-class states.
    """
    if state.qubits != 3:
        raise ValueError(f"expected a 3-qubit state, got {state.qubits} qubits")
    a000, a001, a010, a011, a100, a101, a110, a111 = state.amplitudes.tolist()
    d0 = a000 * a011 - a001 * a010
    d1 = a100 * a111 - a101 * a110
    m = a000 * a111 + a100 * a011 - a001 * a110 - a101 * a010
    return 4.0 * abs(m * m - 4.0 * d0 * d1)


def residual_profile(state: PureState) -> ResidualProfile:
    """Probability and post-measurement concurrence for every (qubit, outcome).

    Impossible branches (probability below PROB_FLOOR) are recorded with
    probability 0 and concurrence None instead of raising, so profiles of
    basis states are total.  The values are those of ``measure_qubit`` and
    ``concurrence_pure2``, computed on the eight amplitudes as Python
    numbers without building a post-measurement ``PureState`` per branch.
    Two roundings follow numpy's: the branch's squared norm is summed as
    (x0^2 + x2^2) + (x1^2 + x3^2), once over the real parts and once over the
    imaginary ones, as ``np.linalg.norm`` sums them by OpenBLAS's strided
    ``ddot``; and the branch is scaled by 1/sqrt(p), as numpy divides a
    complex array by a float.
    """
    if state.qubits != 3:
        raise ValueError(f"expected a 3-qubit state, got {state.qubits} qubits")
    amplitudes = state.amplitudes.tolist()
    re2 = [a.real * a.real for a in amplitudes]
    im2 = [a.imag * a.imag for a in amplitudes]
    entries = []
    for qubit, outcome, (i, j, k, m) in _BRANCHES:
        squares = ((re2[i] + re2[k]) + (re2[j] + re2[m])) + ((im2[i] + im2[k]) + (im2[j] + im2[m]))
        probability = math.sqrt(squares) ** 2
        if probability < PROB_FLOOR:
            entries.append(ProfileEntry(qubit, outcome, 0.0, None))
            continue
        probability = min(max(probability, 0.0), 1.0)
        scale = 1.0 / math.sqrt(probability)
        b0, b1, b2, b3 = (amplitudes[x] * scale for x in (i, j, k, m))
        entries.append(ProfileEntry(qubit, outcome, probability, 2.0 * abs(b0 * b3 - b1 * b2)))
    return ResidualProfile(tuple(entries))
