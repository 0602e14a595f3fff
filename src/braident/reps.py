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

Finite images.  With e^{i theta} taken out (theta is 0 on jones), the
generators of b2, ge and jones make finite groups of order 2, 48 and 192
(Jones, Ann. Math. 126, 1987, on roots of unity with finite image; Kauffman
and Lomonaco, quant-ph/0401090, on these Bell-basis changes).
So b2 is faithful exactly when theta/pi is irrational, and ge and jones
are faithful at no theta: B3's commutator subgroup is infinite and has
exponent sum 0, so its image lies in the finite group.
``Representation.group`` is ``braids.finite_group`` of those generators, the
builder that also makes the symmetric group of a word's permutation image,
and ``evaluate`` reads a word in it by ``braids.group_element``, which also
sums the word's signs.  The image is e^{i theta e} M[g], e the exponent sum:
one rounded element at any length.  The word keeps (g, e) after that read,
with the group object itself as the key, matched by identity, so reading
the word again in the same group (``closure_check`` after ``evaluate``) is
a lookup and one scalar multiply, with the same bits.

Every path reads the word's signed codes (``BraidWord.codes``, +i for s_i
and -i for its inverse) by slices of one array, never its letters one by
one: the group path reads each plain stretch in blocks of letters through
the group's block table (built on the first long stretch), and the float
paths below take a stretch's codes as a list.

Conventions.  Strand i acts on qubit i, the i-th tensor factor from the left
(most significant index bit).  ``evaluate`` multiplies generator images in
written word order, so the word "s1 s2" becomes the operator product
sigma_1 sigma_2, whose rightmost factor (the last letter) acts first on kets.
Every other representation keeps that association by accumulating the
transpose of the product: M <- M (I(x)B(x)I) is P <- (I(x)B^T(x)I) P for
P = M^T, one k x k block applied along the block's qubits of P.

On ``generic_rep`` the letters are fused before they reach P.  In written
order, a letter joins the latest pending group that holds one of its qubits
if the two together span at most WINDOW = 3 qubits; it may pass the groups
after that one, which share no qubit with it and so commute with it.
Otherwise it opens a new group.  Each group's product, k x k when all its
letters share one block's qubits and else 8 x 8 from the ``window_steps``
placed once per representation, is then applied to P in one pass: a group
of g letters costs g small matmuls plus one d^2 * 8 pass instead of g
passes of d^2 * 4.  On a random word each pass takes about
four letters.  On 2 strands every letter shares the one block, so a stretch
is one group, whose product is the left fold of its letters.

Evaluation plan on every other representation.  One length rule applies,
SEGMENT letters.  A power run (``BraidWord.powers``, a tree in which each run
holds the runs of its first period) of more than SEGMENT letters is its
first period's product, evaluated with the runs that period holds, raised to
the count by repeated squaring: about 2 log2(count) matmuls, where on
``generic_rep`` at d <= 256 one d x d matmul costs about d/4 letter steps.
For a negative power the first period already holds the inverted letters.
Shorter runs are folded with the letters around them.  A longer stretch
between runs is first freely reduced, since each ``s_i s_i^-1`` pair cancels
(a random literal word on two generators keeps about half its letters).
Such a word can differ from the left fold of its letters in the last bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .braids import BraidWord, finite_group, free_reduce_codes, group_element, strand_count
from .linalg import DEFAULT_TOL, equal_up_to_phase

DEFAULT_THETA = 1.0  # 1/pi is irrational, so b2 is faithful at the default angle

# evaluate's one length rule without a finite image group: a longer power run
# is raised by squaring, and a longer stretch of letters is freely reduced.
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
    phase: float | None = None  # theta on b2 and ge, 0 on jones: see ``group``

    @cached_property
    def group(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``braids.finite_group`` of the unphased generators e^{-i phase} B: its
        elements (identity first), Cayley table (``table[g, h]`` is g h) and the
        element of each signed letter c at index c."""
        unphased = np.exp(-1j * self.phase) * np.stack([block for block, _ in self.blocks])
        return finite_group(np.concatenate((unphased, unphased[::-1].conj().transpose(0, 2, 1))))

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
    phase: float | None = None,
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
    rep = Representation(name, strands, d, tuple(frozen), parameters, phase)
    if require_braiding and not rep.relation_report.passed:
        raise ValueError(
            f"defining relations violated for representation {name!r} "
            f"(max residual {rep.relation_report.max_residual:.3e} > {DEFAULT_TOL})"
        )
    return rep


# The integer cores of the 4x4 generators, each phased by e^{i theta}/sqrt 2.
B2_CORE = _frozen(np.array([[1, 0, 0, 1], [0, 1, 1, 0], [0, 1, -1, 0], [1, 0, 0, -1]]))
YANG_BAXTER_CORE = _frozen(np.array([[1, 0, 0, -1], [0, 1, -1, 0], [0, 1, 1, 0], [1, 0, 0, 1]]))


def _phased(core: np.ndarray, theta: float) -> np.ndarray:
    """(e^{i theta}/sqrt 2) core, checked before e^{i theta} is formed: numpy
    warns on e^{i inf} and returns NaN."""
    if not math.isfinite(theta):
        raise ValueError(f"theta must be finite, got {theta}")
    return np.exp(1j * theta) / math.sqrt(2) * core


def b2_generator(theta: float) -> np.ndarray:
    """The phased 4x4 Bell generator of the two-strand representation."""
    return _phased(B2_CORE, theta)


def yang_baxter_unitary(theta: float) -> np.ndarray:
    """The phased 4x4 Yang-Baxter solution used by the three-strand product rep."""
    return _phased(YANG_BAXTER_CORE, theta)


def b2_rep(theta: float = DEFAULT_THETA) -> Representation:
    """Two-strand representation on two qubits; no braiding relation applies."""
    blocks = [(b2_generator(theta), 1)]
    return _assemble("b2", 2, blocks, {"theta": theta}, require_braiding=True, phase=theta)


def ge_rep(theta: float = DEFAULT_THETA) -> Representation:
    """Three-strand product representation sigma_1 = U(x)I, sigma_2 = I(x)U."""
    u = yang_baxter_unitary(theta)
    blocks = [(np.kron(u, _I2), 1), (np.kron(_I2, u), 1)]
    return _assemble("ge", 3, blocks, {"theta": theta}, require_braiding=True, phase=theta)


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
    return _assemble("jones", 3, blocks, {"A": JONES_A}, require_braiding=True, phase=0.0)


def generic_rep(u, strands: int) -> Representation:
    """Tensor template sigma_i = I(x)..(x)U(x)..(x)I for any 4x4 unitary U.

    U is checked on the whole register, like every block.  Far commutation
    holds by construction; the braid relation usually does not, and is
    measured in ``relation_report``, not enforced: a probe, not a certificate.
    """
    u = np.asarray(u, dtype=complex)
    if u.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got {u.shape}")
    strands = strand_count(strands)
    if strands > 8:
        raise ValueError(f"at most 8 strands supported, got {strands}")
    blocks = [(u, i) for i in range(1, strands)]
    return _assemble("generic", strands, blocks, {}, require_braiding=False)


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
    rep: Representation, codes: np.ndarray, lo: int, hi: int, p: np.ndarray | None
) -> np.ndarray | None:
    """Continue the transposed product ``p`` (None: the identity) over codes[lo:hi].

    A stretch of more than SEGMENT letters is freely reduced first.  The
    letters take one step per fused group (``_fused_steps``).
    """
    if lo == hi:
        return p
    codes = codes[lo:hi].tolist()
    if len(codes) > SEGMENT:
        codes = free_reduce_codes(codes)
    if p is None:
        p = np.eye(rep.dimension, dtype=complex)
    for block_t, shape in _fused_steps(rep, codes):
        if p.shape != shape:  # a reshape on every 8x8 letter made evaluate ~8% slower
            p = p.reshape(shape)
        p = block_t @ p
    return p


def _product(rep: Representation, codes: np.ndarray, runs, lo: int, hi: int) -> np.ndarray | None:
    """The transposed product of codes[lo:hi], None for an empty stretch.

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
        p = _fold(rep, codes, at, start, p)
        q = _product(rep, codes, inner, start, start + period)
        q = np.linalg.matrix_power(q.reshape(d, d), count)  # by repeated squaring
        p = q if p is None else q @ p.reshape(d, d)
        at = start + period * count
    return _fold(rep, codes, at, hi, p)


def _sign_sum(codes: np.ndarray) -> int:
    """The exponent sum of a stretch of codes: its positive codes less its negative ones."""
    return int(np.sign(codes).sum())


def evaluate(rep: Representation, word: BraidWord) -> np.ndarray:
    """Evaluate a braid word to the product of generator images in written order.

    The first letter is the leftmost factor, so the last letter acts first on
    column vectors: "s1 s2" evaluates to sigma_1 @ sigma_2.  Negative letters
    use the conjugate transpose of the generator image.  The empty word
    evaluates to the identity.  b2, ge and jones read the word in their
    finite image group; elsewhere the evaluation plan of the module docstring
    applies.
    """
    if word.strands != rep.strands:
        raise ValueError(
            f"word is over {word.strands} strands but representation {rep.name!r} "
            f"has {rep.strands}"
        )
    d = rep.dimension
    if rep.phase is not None:
        group = rep.group
        read = getattr(word, "_group_read", None)
        if read is None or read[0] is not group:
            read = (group, *group_element(word.codes, word.powers, 0, len(word), group, _sign_sum))
            object.__setattr__(word, "_group_read", read)
        _, g, e = read
        return np.exp(1j * rep.phase * e) * group[0][g]
    p = _product(rep, word.codes, word.powers, 0, len(word))
    if p is None:
        return np.eye(d, dtype=complex)
    return np.ascontiguousarray(p.reshape(d, d).T)


def closure_of(matrix: np.ndarray, tol: float = DEFAULT_TOL) -> ClosureResult:
    """Is the matrix e^{i phi} I within tol in the Frobenius norm, and for which phi?"""
    phase = equal_up_to_phase(matrix, np.eye(len(matrix), dtype=complex), tol)
    return ClosureResult(phase is not None, phase)


def closure_check(rep: Representation, word: BraidWord, tol: float = DEFAULT_TOL) -> ClosureResult:
    """Does the word evaluate to a phase times the identity (closable to a link)?

    On b2, ge and jones a word that ``evaluate`` has read already costs no
    second group read here: its element is kept on the word.
    """
    return closure_of(evaluate(rep, word), tol)
