"""Qubit register states: named states, measurement, partial trace, local action.

Indexing convention: qubit 1 is the leftmost symbol of a ket string and the
most significant bit of the amplitude index, so ``basis_state("101")`` puts
amplitude 1 at index 5.  Measurement removes the measured qubit and returns a
renormalized state on the remaining ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import is_unitary

NORM_TOL = 1e-10
DRIFT_TOL = 1e-8
PROB_FLOOR = 1e-12


class ImpossibleOutcomeError(ValueError):
    """Requested measurement outcome has (numerically) zero probability."""


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class PureState:
    """Normalized amplitude vector over ``qubits`` qubits; states compare by identity."""

    qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        if self.qubits < 1:
            raise ValueError(f"need at least one qubit, got {self.qubits}")
        amps = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        # the bit length bounds qubits before 2**qubits is formed
        if amps.size.bit_length() != self.qubits + 1 or amps.size != 2**self.qubits:
            raise ValueError(
                f"amplitude count {amps.size} does not match 2^{self.qubits}"
            )
        norm = np.linalg.norm(amps)
        if not abs(norm - 1.0) <= NORM_TOL:  # NaN fails too
            raise ValueError(f"state is not normalized: |amplitudes| = {norm!r}")
        object.__setattr__(self, "amplitudes", _freeze(amps.copy()))


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite operator on a qubit register.

    The constructor checks the shape, that every entry is finite, and all
    three properties, each within NORM_TOL; positivity takes a full
    Hermitian eigensolve, O(d^3).

    ``density`` builds the projector of a pure state, positive semidefinite
    by construction, without these checks, and ``partial_trace`` reduces such
    a projector without them too; ``_from_projector`` marks both.  Every other
    matrix, and every reduction of one, goes through the checks.  The mark
    takes no part in repr.  Density matrices compare by identity.
    """

    qubits: int
    matrix: np.ndarray
    _from_projector: bool = field(init=False, default=False, compare=False, repr=False)

    def __post_init__(self):
        if self.qubits < 1:
            raise ValueError(f"need at least one qubit, got {self.qubits}")
        m = np.asarray(self.matrix, dtype=complex)
        # the side's bit length bounds qubits before 2**qubits is formed
        if (
            m.ndim != 2
            or m.shape[0].bit_length() != self.qubits + 1
            or m.shape != (2**self.qubits,) * 2
        ):
            raise ValueError(f"matrix shape {m.shape} does not match 2^{self.qubits}")
        if not np.isfinite(m).all():  # NaN would pass every check below
            raise ValueError("density matrix has a non-finite entry")
        if np.linalg.norm(m - m.conj().T) > NORM_TOL:
            raise ValueError("density matrix is not Hermitian within tolerance")
        trace = np.trace(m)
        if abs(trace.real - 1.0) > NORM_TOL or abs(trace.imag) > NORM_TOL:
            raise ValueError(f"density matrix trace is not 1: {trace!r}")
        if np.linalg.eigvalsh(m)[0] < -NORM_TOL:
            raise ValueError("density matrix has a negative eigenvalue")
        object.__setattr__(self, "matrix", _freeze(m.copy()))


@dataclass(frozen=True)
class MeasurementOutcome:
    probability: float
    post_state: PureState


def basis_state(bits: str) -> PureState:
    """Computational basis vector for a 0/1 string, leftmost bit = qubit 1."""
    if not bits or any(c not in "01" for c in bits):
        raise ValueError(f"basis label must be a nonempty string of 0/1, got {bits!r}")
    amps = np.zeros(2 ** len(bits), dtype=complex)
    amps[int(bits, 2)] = 1.0
    return PureState(len(bits), amps)


NAMED_STATES = {  # name -> (qubits, support)
    "ghz": (3, (0b000, 0b111)), "phi": (3, (0b000, 0b011, 0b101, 0b110)), "bell": (2, (0b00, 0b11)),
}


def named_state(name: str) -> PureState:
    """One of the reference states: 'ghz', 'phi' (both 3 qubits) or 'bell' (2),
    with equal amplitudes on the basis states of its NAMED_STATES support."""
    if name not in NAMED_STATES:
        raise ValueError(f"unknown named state {name!r} (expected ghz, phi or bell)")
    qubits, support = NAMED_STATES[name]
    amps = np.zeros(2**qubits, dtype=complex)
    amps[list(support)] = 1.0 / np.sqrt(len(support))
    return PureState(qubits, amps)


def apply(operator, state: PureState) -> PureState:
    """Apply a unitary matrix to the state, correcting tiny norm drift.

    Norm drift beyond 1e-8 means the operator was not unitary and raises.
    """
    m = np.asarray(operator, dtype=complex)
    dim = 2**state.qubits
    if m.shape != (dim, dim):
        raise ValueError(f"operator shape {m.shape} does not match 2^{state.qubits}")
    out = m @ state.amplitudes
    norm = np.linalg.norm(out)
    if abs(norm - 1.0) > DRIFT_TOL:
        raise ValueError(f"operator is not norm preserving (output norm {norm!r})")
    return PureState(state.qubits, out / norm)


def _branch(state: PureState, k: int, outcome: int) -> tuple[float, np.ndarray | None]:
    """Probability of ``outcome`` on qubit k and the normalized branch amplitudes.

    The branch is None when the probability is below PROB_FLOOR; otherwise
    the probability is clamped to [0, 1].  Arguments are not checked.
    """
    branch = state.amplitudes.reshape([2] * state.qubits).take(outcome, axis=k - 1).reshape(-1)
    probability = float(np.linalg.norm(branch) ** 2)
    if probability < PROB_FLOOR:
        return probability, None
    probability = min(max(probability, 0.0), 1.0)
    return probability, branch / np.sqrt(probability)


def measure_qubit(state: PureState, k: int, outcome: int) -> MeasurementOutcome:
    """Project qubit k onto |outcome> and drop it from the register.

    Returns the outcome probability and the renormalized post-measurement
    state on the remaining qubits.  Outcomes with probability below 1e-12
    raise ImpossibleOutcomeError.
    """
    n = state.qubits
    if n < 2:
        raise ValueError("measurement removes a qubit, so the register needs at least 2")
    if not 1 <= k <= n:
        raise ValueError(f"qubit index {k} out of range 1..{n}")
    if outcome not in (0, 1):
        raise ValueError(f"outcome must be 0 or 1, got {outcome!r}")
    probability, branch = _branch(state, k, outcome)
    if branch is None:
        raise ImpossibleOutcomeError(
            f"outcome {outcome} on qubit {k} has probability {probability:.3e}"
        )
    return MeasurementOutcome(probability, PureState(n - 1, branch))


def density(state: PureState) -> DensityMatrix:
    """Rank-one projector |psi><psi| / <psi|psi>, in O(d^2).

    ``PureState`` already checked psi, and psi psi^dag is Hermitian and
    positive semidefinite by construction, so none of the constructor's
    checks is repeated.  A norm within NORM_TOL of 1 can still leave
    <psi|psi> = tr(psi psi^dag) off 1 by more than NORM_TOL; only then is
    the outer product divided by its trace.  The result is marked
    ``_from_projector``, so ``partial_trace`` skips the checks on its
    reductions as well.
    """
    a = state.amplitudes
    m = np.outer(a, a.conj())
    trace = np.trace(m).real
    if abs(trace - 1.0) > NORM_TOL:
        m /= trace
    return _projector_density(state.qubits, m)


def _projector_density(qubits: int, m: np.ndarray) -> DensityMatrix:
    """A ``_from_projector`` DensityMatrix on ``m``, without the constructor's checks."""
    rho = object.__new__(DensityMatrix)
    object.__setattr__(rho, "qubits", qubits)
    object.__setattr__(rho, "matrix", _freeze(m))
    object.__setattr__(rho, "_from_projector", True)
    return rho


def partial_trace(dm: DensityMatrix, keep) -> DensityMatrix:
    """Reduced state on the kept qubits (ascending original order).

    The reduction of a ``_from_projector`` matrix is marked too and skips the
    constructor's checks: each entry of psi psi^dag is the exact complex
    conjugate of its transpose in IEEE arithmetic, so every partial sum of
    them is exactly Hermitian, and a partial trace keeps the unit trace and
    positivity.  Any other matrix's reduction is checked in full, since
    rounding can grow its Hermitian gap under the trace.
    """
    n = dm.qubits
    kept = sorted(set(keep))
    if not kept:
        raise ValueError("keep set must be nonempty")
    if kept[0] < 1 or kept[-1] > n:
        raise ValueError(f"keep set {kept} not a subset of 1..{n}")
    # einsum labels: qubit i + 1 has row axis i and column axis n + i, or i if traced out
    labels = [*range(n)] + [n + i if i + 1 in kept else i for i in range(n)]
    out = [q - 1 for q in kept] + [n + q - 1 for q in kept]
    dim = 2 ** len(kept)
    reduced = np.einsum(dm.matrix.reshape([2] * (2 * n)), labels, out).reshape(dim, dim)
    if dm._from_projector:
        return _projector_density(len(kept), reduced)
    return DensityMatrix(len(kept), reduced)


def apply_local(state: PureState, factors) -> PureState:
    """Apply a tensor product of single-qubit unitaries, factor i to qubit i.

    The product is formed left to right with one broadcast multiply per
    factor, the same products ``np.kron`` takes.
    """
    factors = [np.asarray(f, dtype=complex) for f in factors]
    if len(factors) != state.qubits:
        raise ValueError(
            f"need {state.qubits} factors (one per qubit), got {len(factors)}"
        )
    for i, f in enumerate(factors, start=1):
        if f.shape != (2, 2):
            raise ValueError(f"factor {i} has shape {f.shape}, expected (2, 2)")
        if not is_unitary(f, NORM_TOL):
            raise ValueError(f"factor {i} is not unitary within tolerance")
    product = factors[0]
    for f in factors[1:]:
        k = 2 * len(product)
        product = (product[:, None, :, None] * f[None, :, None, :]).reshape(k, k)
    return apply(product, state)
