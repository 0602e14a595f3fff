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
one rounded element at any length.  A finite theta whose product with e
overflows raises ValueError, since e^{i inf} is NaN.  The word keeps (g, e)
after that read, with the group object itself as the key, matched by
identity, so reading the word again in the same group (``closure_check``
after ``evaluate``) is a lookup.  Closure is decided there exactly, with no tolerance: the image
is a phase times I iff g is zeta^k I, zeta = e^{i pi/4}, which
``Representation.scalars`` lists once per group (1 of 2 elements on b2,
2 of 48 on ge, 8 of 192 on jones), and the phase is theta e + k pi/4.
"Central" would not do: b2's generator is central in {I, B} but not a
scalar.  Only ``generic_rep`` words are judged in floats, at a tolerance.

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

On ``generic_rep`` the letters are fused before they reach P (gate fusion,
Haener and Steiger, arXiv:1704.01127).  In written order, a letter joins
the latest pending group that holds one of its qubits if the two together
span at most the register's window; it may pass the groups after that one,
which share no qubit with it and so commute with it.  Otherwise it opens a
new group.  The window is 3 qubits up to 6 strands and 5 on 7 and 8: at
d = 256 a pass costs 0.2-0.3 ms with a 4x4 to 16x16 group and 0.4 ms with a
32x32 one, which takes about 11 letters of a random word against 4 for a
3-qubit group, while on a small P a wide group's own product costs more
than the passes it saves.  Each group is built when it is reached: on at
most 3 qubits as the product of its letters' steps placed on its qubits,
cached per representation under the keys a word uses, and on more by
applying each 4x4 step to the group's own 2^m x 2^m product, as a group is
applied to P.  The first group is placed on the register, so no pass
multiplies by the identity.  On 2 strands every letter shares the one
block, so a stretch is one group, whose product is the left fold of its
letters.

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

import cmath
import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .braids import (
    BraidWord,
    element_keys,
    finite_group,
    free_reduce_codes,
    group_element,
    strand_count,
)
from .linalg import DEFAULT_TOL, equal_up_to_phase

DEFAULT_THETA = 1.0  # 1/pi is irrational, so b2 is faithful at the default angle

# evaluate's one length rule without a finite image group: a longer power run
# is raised by squaring, and a longer stretch of letters is freely reduced.
SEGMENT = 256

_I2 = np.eye(2, dtype=complex)

# zeta^k for zeta = e^{i pi/4}, the even powers exact
_ZETA = tuple(1j ** (k // 2) * ((1 + 1j) / math.sqrt(2) if k % 2 else 1) for k in range(8))


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
    def scalars(self) -> dict[int, int]:
        """k for each element of ``group`` that is zeta^k I, zeta = e^{i pi/4}:
        the element's quarter-rounded key (``braids.element_keys``, the keys that
        tell the group's elements apart) equals that of zeta^k I."""
        elements = self.group[0]
        powers = np.array(_ZETA)[:, None, None] * np.eye(self.dimension)
        keys = element_keys(elements).reshape(len(elements), 1, -1)
        g, k = np.nonzero((keys == element_keys(powers).reshape(8, -1)).all(axis=-1))
        return dict(zip(g.tolist(), k.tolist()))

    @cached_property
    def relation_report(self) -> RelationReport:
        """The defining-relation residuals judged at DEFAULT_TOL, measured on first use."""
        return _relation_report(self.blocks, self.strands, DEFAULT_TOL)

    @cached_property
    def generator_images(self) -> tuple[np.ndarray, ...]:
        """Each generator as a dense operator on the whole register, built on first use."""
        return tuple(_frozen(_place(block, first, self.strands)) for block, first in self.blocks)

    @cached_property
    def steps(self) -> dict[int, np.ndarray]:
        """Per signed index, B^T for i and conj(B) for -i: the factor that
        ``evaluate``'s transposed product takes for the letter."""
        out = {}
        for i, (block, _) in enumerate(self.blocks, start=1):
            out[i], out[-i] = _frozen(block.T), _frozen(block.conj())
        return out

    @cached_property
    def spans(self) -> dict[int, tuple[int, int]]:
        """Per signed index, the first and last qubit of the generator's block."""
        out = {}
        for i, block in enumerate(self.blocks, start=1):
            out[i] = out[-i] = _span(*block)
        return out

    @cached_property
    def placed_steps(self) -> dict[tuple[int, int, int], np.ndarray]:
        """Per (signed index, group start, width), the step image placed on a
        fused group's qubits: filled by ``evaluate`` with the keys its words use."""
        return {}


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
    A block object given for several generators is checked and frozen once,
    and they share the frozen array.
    """
    d = 2**strands
    checked: dict[int, np.ndarray] = {}  # id of a given block -> its frozen copy
    frozen = []
    for i, (block, first) in enumerate(blocks, start=1):
        if id(block) not in checked:
            copy = _frozen(np.array(block, dtype=complex))
            k = len(copy)
            defect = np.linalg.norm(copy @ copy.conj().T - np.eye(k, dtype=complex))
            if not math.sqrt(d / k) * defect <= DEFAULT_TOL:
                raise ValueError(f"image of generator {i} is not unitary within {DEFAULT_TOL}")
            checked[id(block)] = copy
        frozen.append((checked[id(block)], first))
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


def _window(strands: int) -> int:
    """Qubits a fused group may span on a register of ``strands`` qubits: 3 up
    to 6 strands, 5 on 7 and 8, the fastest of 2 to 6 in timings of evaluate."""
    return 3 if strands <= 6 else 5


def _fused_groups(rep: Representation, codes: list[int]) -> list[list]:
    """Local-block letters fused into groups of at most ``_window`` qubits.

    In written order, a letter joins the latest group that holds one of its
    qubits if the two together span at most the window; it commutes with
    every later group, none of which touches its qubits.  Otherwise it opens
    a new group.  Returns [first qubit, last qubit, signed indices] per group.
    """
    window = _window(rep.strands)
    spans = rep.spans
    groups: list[list] = []
    latest = [-1] * (rep.strands + 1)  # latest[q]: the index of the latest group holding qubit q
    for c in codes:
        lo, hi = spans[c]
        j = max(latest[lo : hi + 1])
        if j >= 0:
            group = groups[j]
            start, end = min(lo, group[0]), max(hi, group[1])
            if end - start < window:
                group[0], group[1] = start, end
                group[2].append(c)
                latest[lo : hi + 1] = [j] * (hi - lo + 1)
                continue
        latest[lo : hi + 1] = [len(groups)] * (hi - lo + 1)
        groups.append([lo, hi, [c]])
    return groups


def _group_product(rep: Representation, lo: int, hi: int, members: list[int]) -> np.ndarray:
    """The transposed product of a fused group's letters on its qubits lo..hi.

    On at most 3 qubits it multiplies the letters' steps placed on those
    qubits (``Representation.placed_steps``); on more it applies each step to
    the group's own product, as ``_fold`` applies a group to P.
    """
    steps, spans, width = rep.steps, rep.spans, hi - lo + 1
    if width <= 3:
        placed = rep.placed_steps
        t = None
        for c in members:
            image = placed.get((c, lo, width))
            if image is None:
                image = steps[c]
                if spans[c] != (lo, hi):
                    image = _frozen(_place(image, spans[c][0] - lo + 1, width))
                placed[c, lo, width] = image
            t = image if t is None else image @ t
        return t
    k = 2**width
    t = np.eye(k, dtype=complex)
    for c in members:
        step = steps[c]
        t = step @ t.reshape(_step_shape(k, spans[c][0] - lo + 1, len(step)))
    return t.reshape(k, k)


def _fold(
    rep: Representation, codes: np.ndarray, lo: int, hi: int, p: np.ndarray | None
) -> np.ndarray | None:
    """Continue the transposed product ``p`` (None: the identity) over codes[lo:hi].

    A stretch of more than SEGMENT letters is freely reduced first.  The
    letters take one step per fused group (``_fused_groups``); on the
    identity the first group is placed on the register, not multiplied.
    """
    if lo == hi:
        return p
    codes = codes[lo:hi].tolist()
    if len(codes) > SEGMENT:
        codes = free_reduce_codes(codes)
    d = rep.dimension
    for first, last, members in _fused_groups(rep, codes):
        t = _group_product(rep, first, last, members)
        if p is None:
            p = _place(t, first, rep.strands)
        else:  # p is contiguous, so the reshape that puts t's qubits on one axis is a view
            p = t @ p.reshape(_step_shape(d, first, len(t)))
    return np.eye(d, dtype=complex) if p is None else p


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


def _check_strands(rep: Representation, word: BraidWord) -> None:
    if word.strands != rep.strands:
        raise ValueError(
            f"word is over {word.strands} strands but representation {rep.name!r} "
            f"has {rep.strands}"
        )


def _group_read(rep: Representation, word: BraidWord) -> tuple[int, int]:
    """The word's element g of ``rep.group`` and its exponent sum e, read once
    per group and kept on the word."""
    group = rep.group
    read = getattr(word, "_group_read", None)
    if read is None or read[0] is not group:
        read = (group, *group_element(word.codes, word.powers, 0, len(word), group, _sign_sum))
        object.__setattr__(word, "_group_read", read)
    return read[1:]


def _image_read(rep: Representation, word: BraidWord) -> tuple[int, complex]:
    """The word's element g of ``rep.group`` and the exponent i theta e of its
    phase e^{i theta e}, e the exponent sum.  A finite theta can still
    overflow theta e, and e^{i inf} is NaN, so that product raises."""
    g, e = _group_read(rep, word)
    exponent = 1j * rep.phase * e
    if not cmath.isfinite(exponent):
        raise ValueError(
            f"theta times the exponent sum is not finite: theta = {rep.phase!r}, "
            f"exponent sum {e}"
        )
    return g, exponent


def evaluate(rep: Representation, word: BraidWord) -> np.ndarray:
    """Evaluate a braid word to the product of generator images in written order.

    The first letter is the leftmost factor, so the last letter acts first on
    column vectors: "s1 s2" evaluates to sigma_1 @ sigma_2.  Negative letters
    use the conjugate transpose of the generator image.  The empty word
    evaluates to the identity.  b2, ge and jones read the word in their
    finite image group; elsewhere the evaluation plan of the module docstring
    applies.
    """
    _check_strands(rep, word)
    d = rep.dimension
    if rep.phase is not None:
        g, exponent = _image_read(rep, word)
        return np.exp(exponent) * rep.group[0][g]
    p = _product(rep, word.codes, word.powers, 0, len(word))
    if p is None:
        return np.eye(d, dtype=complex)
    return np.ascontiguousarray(p.reshape(d, d).T)


def _closed(phase: float) -> ClosureResult:
    """A closing result with its phase in [-pi, pi): pi is reported as -pi."""
    return ClosureResult(True, -math.pi if phase == math.pi else phase)


def closure_of(matrix: np.ndarray, tol: float = DEFAULT_TOL) -> ClosureResult:
    """Is the matrix e^{i phi} I within tol in the Frobenius norm, and for which
    phi in [-pi, pi)?"""
    phase = equal_up_to_phase(matrix, np.eye(len(matrix), dtype=complex), tol)
    return ClosureResult(False, None) if phase is None else _closed(phase)


def closure_check(rep: Representation, word: BraidWord, tol: float = DEFAULT_TOL) -> ClosureResult:
    """Does the word evaluate to a phase times the identity (closable to a link)?

    On b2, ge and jones the answer is exact and ``tol`` is not read: the
    word's image is e^{i theta e} times its group element g, which is a
    phase times I exactly when g is zeta^k I (``Representation.scalars``).
    The phase is theta e + k pi/4, wrapped into [-pi, pi).  A word that
    ``evaluate`` has read already costs no second group read: its element
    is kept on the word.  Elsewhere the evaluated matrix is judged by
    ``closure_of`` at ``tol``.
    """
    if rep.phase is None:
        return closure_of(evaluate(rep, word), tol)
    _check_strands(rep, word)
    g, exponent = _image_read(rep, word)
    k = rep.scalars.get(g)
    if k is None:
        return ClosureResult(False, None)
    return _closed(cmath.phase(cmath.exp(exponent) * _ZETA[k]))
