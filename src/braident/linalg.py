"""The unitarity check, phase-insensitive matrix comparison and Haar sampling.

Everything else in the package calls numpy directly.  ``is_unitary`` checks
that its input is a square matrix because it validates user-supplied factors.
"""

from __future__ import annotations

import numpy as np

DEFAULT_TOL = 1e-10


def is_unitary(a, tol: float = DEFAULT_TOL) -> bool:
    """True iff ||A A^dag - I||_F <= tol.  Raises on input that is not a square matrix."""
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"unitarity is only defined for square matrices, got shape {a.shape}")
    eye = np.eye(a.shape[0], dtype=complex)
    return bool(np.linalg.norm(a @ a.conj().T - eye) <= tol)


def equal_up_to_phase(a, b, tol: float = DEFAULT_TOL) -> float | None:
    """Return phi with ||A - e^{i phi} B||_F <= tol, or None if no phase works.

    The candidate phase is arg(trace(B^dag A)).  When that trace is
    degenerate (numerically zero) the tie-break is the argument of the entry
    ratio at B's largest-magnitude entry.  Absence of a phase is a value,
    not an error; a zero reference matrix B is a precondition violation.
    """
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got array of dimension {a.ndim}")
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


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed random unitary via QR of a complex Gaussian matrix."""
    z = (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))
