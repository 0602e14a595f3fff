"""The unphased image groups of b2, ge and jones, enumerated exactly.

Entries live in Z[zeta, 1/2] with zeta = e^{i pi/8}, a primitive 16th root
of unity: an element is eight integer coefficients c_0..c_7 of
1, zeta, .., zeta^7 over a power-of-two denominator, and zeta^8 = -1.  A
d x d matrix is an integer array of shape (d, d, 8) with one exponent k of
its denominator 2^k, kept as small as possible so that equal matrices have
equal keys.  The generators are written out from the paper's integer
matrices, sqrt 2 = zeta^2 - zeta^6 and A = zeta^3, and nothing here comes
from ``braident.reps``: the tests use this as the oracle for that module's
floating-point group and for ``evaluate``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

# zeta^a zeta^b = +-zeta^((a + b) mod 8), the sign flipping past zeta^8 = -1
_MUL = np.zeros((8, 8, 8), dtype=np.int64)
for _a in range(8):
    for _b in range(8):
        _MUL[_a, _b, (_a + _b) % 8] = 1 if _a + _b < 8 else -1

ZETA_POWERS = np.exp(1j * np.pi * np.arange(8) / 8)

SQRT2 = np.array([0, 0, 1, 0, 0, 0, -1, 0])  # zeta^2 - zeta^6
ZETA = np.eye(8, dtype=np.int64)  # ZETA[p] is zeta^p

B2_CORE = np.array([[1, 0, 0, 1], [0, 1, 1, 0], [0, 1, -1, 0], [1, 0, 0, -1]])
YANG_BAXTER_CORE = np.array([[1, 0, 0, -1], [0, 1, -1, 0], [0, 1, 1, 0], [1, 0, 0, 1]])


def normal(coeffs: np.ndarray, k: int) -> tuple[np.ndarray, int]:
    """coeffs / 2^k with the smallest k that keeps the coefficients integer."""
    while k > 0 and not (coeffs % 2).any():
        coeffs, k = coeffs // 2, k - 1
    return coeffs, k


def scaled(integers, scalar, k: int) -> tuple[np.ndarray, int]:
    """An integer matrix times one ring element ``scalar`` / 2^k."""
    return normal(np.asarray(integers, dtype=np.int64)[..., None] * scalar, k)


def add(x, y):
    (a, i), (b, j) = x, y
    k = max(i, j)
    return normal(a * 2 ** (k - i) + b * 2 ** (k - j), k)


def mul(x, y):
    (a, i), (b, j) = x, y
    return normal(np.einsum("ika,kjb,abc->ijc", a, b, _MUL, optimize=True), i + j)


def dagger(x):
    """Conjugate transpose: conj(zeta^p) = zeta^-p = -zeta^(8 - p)."""
    a, k = x
    conj = np.concatenate((a[..., :1], -a[..., :0:-1]), axis=-1)
    return conj.transpose(1, 0, 2), k


def to_complex(x) -> np.ndarray:
    a, k = x
    return (a @ ZETA_POWERS) / 2**k


def key(x) -> tuple[bytes, int]:
    return x[0].tobytes(), x[1]


def kron(x, y):
    (a, i), (b, j) = x, y
    out = np.einsum("ija,klb,abc->ikjlc", a, b, _MUL).reshape(len(a) * len(b), -1, 8)
    return normal(out, i + j)


def identity(d: int):
    return scaled(np.eye(d, dtype=np.int64), ZETA[0], 0)


def unphased_generators(name: str) -> list:
    """sigma_1, .., sigma_{n-1} of the named representation with e^{i theta} taken out."""
    if name == "b2":
        return [scaled(B2_CORE, SQRT2, 1)]  # B2_CORE / sqrt 2
    if name == "ge":
        u = scaled(YANG_BAXTER_CORE, SQRT2, 1)
        return [kron(u, identity(2)), kron(identity(2), u)]
    # sigma_i = A t_i + A^-1 I, A = zeta^3, A^-1 = -zeta^5,
    # t_1 = sqrt 2 diag(1, 1, 1, 1, 0, 0, 0, 0), t_2 = (I - J) / sqrt 2
    a = mul(scaled([[1]], ZETA[3], 0), scaled([[1]], SQRT2, 0))[0][0, 0]  # A sqrt 2
    t1 = np.diag([1, 1, 1, 1, 0, 0, 0, 0])
    t2 = np.eye(8, dtype=np.int64) - np.fliplr(np.eye(8, dtype=np.int64))
    inverse_a = scaled(np.eye(8, dtype=np.int64), -ZETA[5], 0)
    return [add(scaled(t1, a, 0), inverse_a), add(scaled(t2, a, 1), inverse_a)]


@dataclass(frozen=True)
class ExactGroup:
    """Elements in breadth-first order from the identity, each letter's element,
    the right multiplication ``right[g][c]`` (element g times letter c) and a
    shortest word of each element."""

    elements: list
    letters: dict[int, int]
    right: list[dict[int, int]]
    words: list[tuple[int, ...]]

    def element(self, codes) -> int:
        g = 0
        for c in codes:
            g = self.right[g][c]
        return g

    def matrix(self, g: int) -> np.ndarray:
        return to_complex(self.elements[g])


@functools.cache
def exact_group(name: str) -> ExactGroup:
    gens = unphased_generators(name)
    letters = {i: g for i, g in enumerate(gens, start=1)}
    letters.update({-i: dagger(g) for i, g in enumerate(gens, start=1)})
    elements = [identity(len(gens[0][0]))]
    index = {key(elements[0]): 0}
    right, words = [], [()]
    while len(right) < len(elements):
        g = len(right)
        right.append({})
        for c, image in letters.items():
            product = mul(elements[g], image)
            h = index.setdefault(key(product), len(elements))
            if h == len(elements):
                elements.append(product)
                words.append(words[g] + (c,))
            right[g][c] = h
    return ExactGroup(elements, {c: right[0][c] for c in letters}, right, words)
