"""Dense complex linear algebra sized for qubit-register operators (dim <= 256).

Thin wrappers around numpy that add the dimension/Hermiticity checks the rest
of the package relies on, plus phase-insensitive matrix comparison.  Complex
scalars serialize as two-element ``[re, im]`` arrays and matrices as row-major
nested arrays; the ``*_to_json`` / ``*_from_json`` helpers implement that.
"""

from __future__ import annotations

import numpy as np

DEFAULT_TOL = 1e-10
MAX_DIM = 256


def _as_matrix(a) -> np.ndarray:
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"expected a matrix, got array of dimension {m.ndim}")
    return m


def kron(a, b) -> np.ndarray:
    """Kronecker product, (A(x)B)[i*rB+k, j*cB+l] = A[i,j]*B[k,l]."""
    return np.kron(_as_matrix(a), _as_matrix(b))


def dagger(a) -> np.ndarray:
    """Conjugate transpose."""
    return _as_matrix(a).conj().T


def frobenius_norm(a) -> float:
    return float(np.linalg.norm(np.asarray(a, dtype=complex)))


def is_unitary(a, tol: float = DEFAULT_TOL) -> bool:
    """True iff ||A A^dag - I||_F <= tol.  Raises on non-square input."""
    a = _as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"unitarity is only defined for square matrices, got {a.shape}")
    eye = np.eye(a.shape[0], dtype=complex)
    return bool(np.linalg.norm(a @ a.conj().T - eye) <= tol)


def equal_up_to_phase(a, b, tol: float = DEFAULT_TOL) -> float | None:
    """Return phi with ||A - e^{i phi} B||_F <= tol, or None if no phase works.

    The candidate phase is arg(trace(B^dag A)).  When that trace is
    degenerate (numerically zero) the tie-break is the argument of the entry
    ratio at B's largest-magnitude entry.  Absence of a phase is a value,
    not an error; a zero reference matrix B is a precondition violation.
    """
    a, b = _as_matrix(a), _as_matrix(b)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    norm_b = np.linalg.norm(b)
    if norm_b == 0.0:
        raise ValueError("reference matrix must be nonzero")
    overlap = np.trace(b.conj().T @ a)
    if abs(overlap) > 1e-12 * norm_b * np.linalg.norm(a):
        phase = float(np.angle(overlap))
    else:
        idx = np.unravel_index(int(np.argmax(np.abs(b))), b.shape)
        if abs(a[idx]) == 0.0:
            return None
        phase = float(np.angle(a[idx] / b[idx]))
    if np.linalg.norm(a - np.exp(1j * phase) * b) <= tol:
        return phase
    return None


def hermitian_eigensystem(a, tol: float = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (descending) and matching eigenvector columns of a Hermitian matrix."""
    a = _as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got {a.shape}")
    if a.shape[0] > MAX_DIM:
        raise ValueError(f"dimension {a.shape[0]} exceeds the supported maximum {MAX_DIM}")
    if np.linalg.norm(a - a.conj().T) > tol:
        raise ValueError("matrix is not Hermitian within tolerance")
    values, vectors = np.linalg.eigh(a)
    return values[::-1].copy(), vectors[:, ::-1].copy()


def hermitian_eigenvalues(a, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Real eigenvalues of a Hermitian matrix, sorted descending."""
    return hermitian_eigensystem(a, tol)[0]


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed random unitary via QR of a complex Gaussian matrix."""
    z = (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def complex_to_json(z: complex) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def complex_from_json(pair) -> complex:
    re, im = pair
    return complex(float(re), float(im))


def matrix_to_json(a) -> list[list[list[float]]]:
    return [[complex_to_json(z) for z in row] for row in _as_matrix(a)]


def matrix_from_json(rows) -> np.ndarray:
    return np.array([[complex_from_json(z) for z in row] for row in rows], dtype=complex)
