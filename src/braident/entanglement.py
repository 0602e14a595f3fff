"""Entanglement measures for small qubit registers.

Implements the standard quantitative measures used to tell the two kinds of
tripartite entanglement apart:

* pure and mixed two-qubit concurrence (Wootters),
* von Neumann entropy of reductions (base 2),
* Schmidt coefficients across any bipartition,
* the three-tangle (four times the modulus of Cayley's 2x2x2
  hyperdeterminant of the amplitude tensor),
* the residual profile: measure each qubit in the computational basis and
  record outcome probability and leftover two-qubit concurrence.

All measures except the residual profile are invariant under local unitaries;
the residual profile is deliberately basis dependent, which is what separates
states whose single-qubit measurements disentangle the rest from states whose
measurements always leave a Bell pair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .states import (
    DensityMatrix,
    ImpossibleOutcomeError,
    PureState,
    measure_qubit,
)

_EIG_FLOOR = 1e-14

_PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_YY = np.kron(_PAULI_Y, _PAULI_Y)


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
    a = state.amplitudes
    return float(2.0 * abs(a[0] * a[3] - a[1] * a[2]))


def _sqrt_psd(matrix: np.ndarray) -> np.ndarray:
    values, vectors = np.linalg.eigh(matrix)
    # descending order; ascending changes the 1e-16 noise in the JSON outputs
    values, vectors = values[::-1], vectors[:, ::-1]
    return vectors @ np.diag(np.sqrt(np.clip(values, 0.0, None))) @ vectors.conj().T


def concurrence_mixed2(dm: DensityMatrix) -> float:
    """Wootters concurrence max(0, l1 - l2 - l3 - l4) of a two-qubit density matrix.

    The l_i are the decreasing square roots of the eigenvalues of
    rho (Y(x)Y) conj(rho) (Y(x)Y).  They are computed as the singular values
    of K = sqrt(rho) (Y(x)Y) conj(sqrt(rho)), since K K^dag is the Hermitian
    similarity form sqrt(rho) (Y(x)Y) conj(rho) (Y(x)Y) sqrt(rho); taking
    singular values directly avoids the sqrt-of-eigenvalue precision loss
    near zero.
    """
    if dm.qubits != 2:
        raise ValueError(f"expected a 2-qubit density matrix, got {dm.qubits} qubits")
    root = _sqrt_psd(dm.matrix)
    k = root @ _YY @ root.conj()
    lam = np.linalg.svd(k, compute_uv=False)
    return float(max(0.0, lam[0] - lam[1] - lam[2] - lam[3]))


def vn_entropy(dm: DensityMatrix) -> float:
    """Von Neumann entropy in bits; eigenvalues below 1e-14 count as exact zeros."""
    values = np.linalg.eigvalsh(dm.matrix)
    values = values[values > _EIG_FLOOR]
    return float(-np.sum(values * np.log2(values)))


def schmidt_coefficients(state: PureState, left) -> np.ndarray:
    """Descending singular values of the left|rest bipartition reshaping."""
    n = state.qubits
    left_sorted = sorted(set(left))
    if not left_sorted or len(left_sorted) >= n:
        raise ValueError("left must be a proper nonempty subset of the qubits")
    if left_sorted[0] < 1 or left_sorted[-1] > n:
        raise ValueError(f"left set {left_sorted} not a subset of 1..{n}")
    rest = [q for q in range(1, n + 1) if q not in left_sorted]
    tensor = state.amplitudes.reshape([2] * n)
    perm = [q - 1 for q in left_sorted + rest]
    matrix = tensor.transpose(perm).reshape(2 ** len(left_sorted), 2 ** len(rest))
    return np.linalg.svd(matrix, compute_uv=False)


def three_tangle(state: PureState) -> float:
    """Residual tripartite entanglement: 4 |Hdet(a)| for the 2x2x2 amplitude array.

    Hdet is Cayley's hyperdeterminant,

        Hdet = d1 - 2 d2 + 4 d3
        d1 = a000^2 a111^2 + a001^2 a110^2 + a010^2 a101^2 + a100^2 a011^2
        d2 = sum of the six products a000 a111 a_x a_y pairing complementary
             index pairs, plus the three fully mixed ones
        d3 = a000 a110 a101 a011 + a111 a001 a010 a100

    Values lie in [0, 1]: 1 for the GHZ class representatives used here, 0
    for product and W-class states.
    """
    if state.qubits != 3:
        raise ValueError(f"expected a 3-qubit state, got {state.qubits} qubits")
    a = state.amplitudes.reshape(2, 2, 2)
    d1 = (
        a[0, 0, 0] ** 2 * a[1, 1, 1] ** 2
        + a[0, 0, 1] ** 2 * a[1, 1, 0] ** 2
        + a[0, 1, 0] ** 2 * a[1, 0, 1] ** 2
        + a[1, 0, 0] ** 2 * a[0, 1, 1] ** 2
    )
    d2 = (
        a[0, 0, 0] * a[1, 1, 1] * a[0, 1, 1] * a[1, 0, 0]
        + a[0, 0, 0] * a[1, 1, 1] * a[1, 0, 1] * a[0, 1, 0]
        + a[0, 0, 0] * a[1, 1, 1] * a[1, 1, 0] * a[0, 0, 1]
        + a[0, 1, 1] * a[1, 0, 0] * a[1, 0, 1] * a[0, 1, 0]
        + a[0, 1, 1] * a[1, 0, 0] * a[1, 1, 0] * a[0, 0, 1]
        + a[1, 0, 1] * a[0, 1, 0] * a[1, 1, 0] * a[0, 0, 1]
    )
    d3 = (
        a[0, 0, 0] * a[1, 1, 0] * a[1, 0, 1] * a[0, 1, 1]
        + a[1, 1, 1] * a[0, 0, 1] * a[0, 1, 0] * a[1, 0, 0]
    )
    return float(4.0 * abs(d1 - 2.0 * d2 + 4.0 * d3))


def residual_profile(state: PureState) -> ResidualProfile:
    """Probability and post-measurement concurrence for every (qubit, outcome).

    Impossible branches are recorded with probability 0 and concurrence None
    instead of raising, so profiles of basis states are total.
    """
    if state.qubits != 3:
        raise ValueError(f"expected a 3-qubit state, got {state.qubits} qubits")
    entries = []
    for qubit in (1, 2, 3):
        for outcome in (0, 1):
            try:
                result = measure_qubit(state, qubit, outcome)
            except ImpossibleOutcomeError:
                entries.append(ProfileEntry(qubit, outcome, 0.0, None))
                continue
            entries.append(
                ProfileEntry(
                    qubit,
                    outcome,
                    result.probability,
                    concurrence_pure2(result.post_state),
                )
            )
    return ResidualProfile(tuple(entries))
