"""Qubit register states: named states, measurement, partial trace, local action.

Indexing convention: qubit 1 is the leftmost symbol of a ket string and the
most significant bit of the amplitude index, so ``basis_state("101")`` puts
amplitude 1 at index 5.  Measurement removes the measured qubit and returns a
renormalized state on the remaining ones.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from operator import index

import numpy as np

NORM_TOL = 1e-10
DRIFT_TOL = 1e-8
PROB_FLOOR = 1e-12

_EPS = np.finfo(float).eps


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
            raise ValueError(f"state is not normalized: |amplitudes| = {float(norm)}")
        object.__setattr__(self, "amplitudes", _freeze(amps.copy()))


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite operator on a qubit register.

    The constructor checks the shape, that every entry is finite, and all
    three properties, each within NORM_TOL; positivity takes a full
    Hermitian eigensolve, O(d^3).

    ``density`` builds the projector of a pure state, positive semidefinite
    by construction, without these checks, and ``partial_trace`` reduces such
    a projector without them too.  Both keep a factor, ``_factor``, and
    these two functions are the only ones that build it.  Its layout is the
    contract the measures in ``entanglement`` read in place of the matrix:
    the read-only d x r array F with matrix = F F^dag, whose rows are indexed as
    the matrix's are (qubit 1 the most significant bit, so 00, 01, 10, 11 on
    two qubits), and whose columns are the pure state itself or, in a
    reduction, one per basis state of the qubits traced out (two for a pair
    of a three-qubit state).  Such a matrix is formed from F when ``matrix``
    is first read (repr reads it too), by the same products that would have
    formed it at once, and is read-only from then on; a measure that reads
    only the factor forms none.  Until that read, ``_form(_factor)`` is the
    matrix's product, which ``vn_entropy`` forms on one qubit without
    keeping it.  Every other matrix, and every reduction of one, goes
    through the checks and has ``_factor`` None.  The factor takes no part
    in repr.  Density matrices compare by identity.
    """

    qubits: int
    matrix: np.ndarray
    _factor: np.ndarray | None = field(init=False, default=None, compare=False, repr=False)

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
            raise ValueError(f"density matrix trace is not 1: {complex(trace)}")
        if np.linalg.eigvalsh(m)[0] < -NORM_TOL:
            raise ValueError("density matrix has a negative eigenvalue")
        object.__setattr__(self, "matrix", _freeze(m.copy()))

    def __getattr__(self, name):
        # reached only when ``name`` is not set: a projector's matrix before its first read
        form = self.__dict__.get("_form")
        if name != "matrix" or form is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        m = _freeze(form(self._factor))
        object.__setattr__(self, "matrix", m)
        return m


@dataclass(frozen=True)
class MeasurementOutcome:
    probability: float
    post_state: PureState


def _unchecked(qubits: int, amplitudes: np.ndarray) -> PureState:
    """A PureState over the read-only ``amplitudes`` as they are, without the
    constructor's checks and copy: for amplitudes normalised by construction."""
    state = object.__new__(PureState)
    object.__setattr__(state, "qubits", qubits)
    object.__setattr__(state, "amplitudes", amplitudes)
    return state


def basis_state(bits: str) -> PureState:
    """Computational basis vector for a 0/1 string, leftmost bit = qubit 1.

    One amplitude is 1 and the others 0, so the vector is normalised by
    construction and kept without the ``PureState`` checks."""
    if not bits or any(c not in "01" for c in bits):
        raise ValueError(f"basis label must be a nonempty string of 0/1, got {bits!r}")
    amps = np.zeros(2 ** len(bits), dtype=complex)
    amps[int(bits, 2)] = 1.0
    return _unchecked(len(bits), _freeze(amps))


NAMED_STATES = {  # name -> (qubits, support)
    "ghz": (3, (0b000, 0b111)), "phi": (3, (0b000, 0b011, 0b101, 0b110)), "bell": (2, (0b00, 0b11)),
}


def _reference(qubits: int, support: tuple[int, ...]) -> PureState:
    amps = np.zeros(2**qubits, dtype=complex)
    amps[list(support)] = 1.0 / np.sqrt(len(support))
    return PureState(qubits, amps)


_NAMED = {name: _reference(*spec) for name, spec in NAMED_STATES.items()}


def named_state(name: str) -> PureState:
    """One of the reference states: 'ghz', 'phi' (both 3 qubits) or 'bell' (2),
    with equal amplitudes on the basis states of its NAMED_STATES support.

    Each name's amplitudes are built and checked by ``PureState`` once, at
    import.  Every call returns a new state, since states compare by
    identity, over the same read-only amplitude array."""
    if name not in NAMED_STATES:
        raise ValueError(f"unknown named state {name!r} (expected ghz, phi or bell)")
    state = _NAMED[name]
    return _unchecked(state.qubits, state.amplitudes)


def apply(operator, state: PureState) -> PureState:
    """Apply a unitary matrix to the state, correcting tiny norm drift.

    Norm drift beyond 1e-8 means the operator was not unitary and raises.
    The output is divided by its norm in place and kept without the
    ``PureState`` checks, which that division meets.
    """
    m = np.asarray(operator, dtype=complex)
    dim = 2**state.qubits
    if m.shape != (dim, dim):
        raise ValueError(f"operator shape {m.shape} does not match 2^{state.qubits}")
    out = m @ state.amplitudes
    norm = np.linalg.norm(out)
    if not abs(norm - 1.0) <= DRIFT_TOL:  # NaN fails too
        raise ValueError(f"operator is not norm preserving (output norm {float(norm)})")
    out /= norm
    return _unchecked(state.qubits, _freeze(out))


def _shown(value) -> str:
    """repr of a value, a numpy scalar shown as the Python value it holds, so
    that a message reads the same on numpy 1.x and 2.x."""
    return repr(value.item() if isinstance(value, np.generic) else value)


def measure_qubit(state: PureState, k: int, outcome: int) -> MeasurementOutcome:
    """Project qubit k onto |outcome> and drop it from the register.

    Returns the outcome probability and the renormalized post-measurement
    state on the remaining qubits.  Outcomes with probability below 1e-12
    raise ImpossibleOutcomeError.
    """
    n = state.qubits
    if n < 2:
        raise ValueError("measurement removes a qubit, so the register needs at least 2")
    try:
        k = index(k)
    except TypeError:
        raise ValueError(f"qubit index must be an integer, got {_shown(k)}") from None
    if not 1 <= k <= n:
        raise ValueError(f"qubit index {k} out of range 1..{n}")
    if outcome not in (0, 1):
        raise ValueError(f"outcome must be 0 or 1, got {_shown(outcome)}")
    branch = state.amplitudes.reshape([2] * n).take(outcome, axis=k - 1).reshape(-1)
    probability = float(np.linalg.norm(branch) ** 2)
    if probability < PROB_FLOOR:
        raise ImpossibleOutcomeError(
            f"outcome {outcome} on qubit {k} has probability {probability:.3e}"
        )
    probability = min(max(probability, 0.0), 1.0)
    return MeasurementOutcome(probability, PureState(n - 1, branch / np.sqrt(probability)))


def density(state: PureState) -> DensityMatrix:
    """Rank-one projector |psi><psi| / <psi|psi>, with factor psi.

    ``PureState`` already checked psi, and psi psi^dag is Hermitian and
    positive semidefinite by construction, so none of the constructor's
    checks is repeated.  A norm within NORM_TOL of 1 can still leave
    <psi|psi> = tr(psi psi^dag) off 1 by more than NORM_TOL; only then is
    the outer product formed at once, O(d^2), and divided by its trace, and
    the factor by its square root.  Otherwise the matrix is the outer
    product ``np.outer(psi, psi*)``, formed when it is first read.  The
    factor lets ``partial_trace`` skip the checks on its reductions as well.
    """
    a = state.amplitudes
    factor = a.reshape(-1, 1)
    # vdot and the outer product's trace each lie within (d + 1) u of <psi|psi>,
    # so they agree on which side of NORM_TOL it lies when vdot is this close
    if abs(np.vdot(a, a).real - 1.0) <= NORM_TOL - 2 * a.size * _EPS:
        return _projector_density(state.qubits, factor, _outer)
    m = np.outer(a, a.conj())
    trace = np.trace(m).real
    if abs(trace - 1.0) > NORM_TOL:
        m /= trace
        factor = factor / np.sqrt(trace)
    rho = _projector_density(state.qubits, factor, None)
    object.__setattr__(rho, "matrix", _freeze(m))
    return rho


def _outer(factor: np.ndarray) -> np.ndarray:
    """The matrix of ``density``'s projector from its one-column factor."""
    return np.outer(factor[:, 0], factor[:, 0].conj())


def _gram(factor: np.ndarray) -> np.ndarray:
    """The matrix of a reduction from its factor F: F F^dag."""
    return factor @ factor.conj().T


def _projector_density(qubits: int, factor: np.ndarray, form) -> DensityMatrix:
    """A DensityMatrix on factor factor^dag, without the constructor's checks,
    whose matrix ``form(factor)`` makes on its first read."""
    rho = object.__new__(DensityMatrix)
    object.__setattr__(rho, "qubits", qubits)
    object.__setattr__(rho, "_factor", _freeze(factor))
    object.__setattr__(rho, "_form", form)
    return rho


def _qubit_subset(labels, n: int, name: str, proper: bool = False) -> list[int]:
    """The distinct qubit labels in ascending order, checked against 1..n.

    Each label is read with ``operator.index``, so a float or a string label
    raises ValueError.  The set must be nonempty and, if ``proper``, must
    leave out at least one of the n qubits.
    """
    try:
        subset = sorted(set(map(index, labels)))
    except TypeError:
        raise ValueError(f"{name} set must hold integer qubit labels, got {labels!r}") from None
    if proper and not 0 < len(subset) < n:
        raise ValueError(f"{name} must be a proper nonempty subset of the qubits")
    if not subset:
        raise ValueError(f"{name} set must be nonempty")
    if subset[0] < 1 or subset[-1] > n:
        raise ValueError(f"{name} set {subset} not a subset of 1..{n}")
    return subset


@functools.lru_cache(maxsize=256)
def _factor_axes(n: int, kept: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The tensor shape of an n-qubit factor and the axis order that puts the
    kept qubits first, then the traced ones, then the factor's columns."""
    traced = [q - 1 for q in range(1, n + 1) if q not in kept]
    return (2,) * n + (-1,), (*(q - 1 for q in kept), *traced, n)


def partial_trace(dm: DensityMatrix, keep) -> DensityMatrix:
    """Reduced state on the kept qubits (ascending original order).

    A matrix with a factor F (``density`` and its reductions) is reduced
    through F: with F's tensor reshaped to kept x (traced * columns), the
    reduction is F_k F_k^dag, and F_k is its factor.  That product is formed
    when the reduction's matrix is first read, so a measure that reads only
    F_k forms none.  It skips the constructor's checks: F_k F_k^dag is
    positive semidefinite by construction, Hermitian within rounding, and
    its trace is the squared norm of F, which ``density`` put at 1.  Any
    other matrix is reduced at once by summing its 2n-index tensor over the
    traced qubits and checked in full, since rounding can grow its Hermitian
    gap under the trace.
    """
    n = dm.qubits
    kept = _qubit_subset(keep, n, "keep")
    dim = 2 ** len(kept)
    if dm._factor is not None:
        shape, axes = _factor_axes(n, tuple(kept))
        f = dm._factor.reshape(shape).transpose(axes).reshape(dim, -1)
        return _projector_density(len(kept), f, _gram)
    # einsum labels: qubit i + 1 has row axis i and column axis n + i, or i if traced out
    labels = [*range(n)] + [n + i if i + 1 in kept else i for i in range(n)]
    out = [q - 1 for q in kept] + [n + q - 1 for q in kept]
    reduced = np.einsum(dm.matrix.reshape([2] * (2 * n)), labels, out).reshape(dim, dim)
    return DensityMatrix(len(kept), reduced)


def _unitary_gap(factor: np.ndarray) -> float:
    """||F F^dag - I||_F of a 2 x 2 factor [[a, b], [c, d]], on Python numbers:
    the square root of (|a|^2 + |b|^2 - 1)^2 + (|c|^2 + |d|^2 - 1)^2 + 2 |a c* + b d*|^2.

    Every square is a product, never ``abs`` or ``**``, which raise
    OverflowError on entries near 1e308; a product overflows to inf, and an
    inf or NaN entry gives an inf or NaN gap."""
    (a, b), (c, d) = factor.tolist()
    top = a.real * a.real + a.imag * a.imag + (b.real * b.real + b.imag * b.imag) - 1.0
    bottom = c.real * c.real + c.imag * c.imag + (d.real * d.real + d.imag * d.imag) - 1.0
    off = a * c.conjugate() + b * d.conjugate()
    off2 = off.real * off.real + off.imag * off.imag
    return math.sqrt(top * top + bottom * bottom + 2.0 * off2)


def apply_local(state: PureState, factors) -> PureState:
    """Apply a tensor product of single-qubit unitaries, factor i to qubit i.

    Every factor must be 2 x 2 and unitary within NORM_TOL (the Frobenius
    norm of F F^dag - I, ``_unitary_gap``).  The factors are checked in
    order, each for its shape and then its unitarity, and the first that
    fails raises.  The product is formed left to right with one broadcast
    multiply per factor, the same products ``np.kron`` takes.
    """
    factors = [np.asarray(f, dtype=complex) for f in factors]
    if len(factors) != state.qubits:
        raise ValueError(
            f"need {state.qubits} factors (one per qubit), got {len(factors)}"
        )
    for i, f in enumerate(factors, 1):
        if f.shape != (2, 2):
            raise ValueError(f"factor {i} has shape {f.shape}, expected (2, 2)")
        if not _unitary_gap(f) <= NORM_TOL:  # NaN fails too
            raise ValueError(f"factor {i} is not unitary within tolerance")
    product = factors[0]
    for f in factors[1:]:
        k = 2 * len(product)
        product = (product[:, None, :, None] * f[None, :, None, :]).reshape(k, k)
    return apply(product, state)
