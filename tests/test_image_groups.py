"""The finite image groups of b2, ge and jones, certified in exact arithmetic.

``exactgroups`` enumerates each unphased group in Z[zeta_16, 1/2]; here its
elements, its right multiplication and the words that reach each element are
the oracle for ``Representation.group``, the floating-point group that
``evaluate`` reads.
"""

import numpy as np
import pytest

from braident.reps import b2_rep, ge_rep, jones_rep
from exactgroups import exact_group, scalar_power

ORDERS = {"b2": 2, "ge": 48, "jones": 192}
BUILDERS = {"b2": lambda: b2_rep(1.0), "ge": lambda: ge_rep(0.3), "jones": jones_rep}

# Each float element is a breadth-first product of at most 7 letters.  The
# float jones generators sit 2.3e-16 from their exact values, so their error
# alone can add up to 1.6e-15; the worst jones element measured 1.34e-15.
ELEMENT_TOL = 2e-15


@pytest.mark.parametrize("name, order", sorted(ORDERS.items()))
def test_exact_orders(name, order):
    assert len(exact_group(name).elements) == order


def test_closing_words_are_minus_identity_exactly():
    # the unphased NUS word (s1 s2)^3 on ge, the Borromean word (s1 s2^-1)^3 on jones
    for name, codes in (("ge", [1, 2] * 3), ("jones", [1, -2] * 3)):
        group = exact_group(name)
        coeffs, k = group.elements[group.element(codes)]
        assert k == 0 and not coeffs[..., 1:].any()
        np.testing.assert_array_equal(coeffs[..., 0], -np.eye(8))
        assert group.element([1, 2, 1]) == group.element([2, 1, 2])  # the braid relation


def nearest_exact(exact, elements):
    """The exact element nearest each float one, and its distance."""
    matrices = np.stack([exact.matrix(g) for g in range(len(exact.elements))])
    # distinct elements differ by at least 0.5 in some entry, so the nearest one is it
    distance = np.abs(elements[:, None] - matrices[None]).max(axis=(2, 3))
    return distance.argmin(axis=1), distance.min(axis=1)


@pytest.fixture(scope="module", params=sorted(ORDERS))
def matched(request):
    """The exact group, the float group, and the exact element of each float one."""
    exact = exact_group(request.param)
    floats = BUILDERS[request.param]().group
    return exact, floats, *nearest_exact(exact, floats[0])


@pytest.mark.parametrize("name", sorted(ORDERS))
def test_scalar_table_holds_exactly_the_exact_scalars(name):
    # g is in the table, with k, exactly when its exact element is e^{i k pi/4} I
    rep, exact = BUILDERS[name](), exact_group(name)
    to_exact, _ = nearest_exact(exact, rep.group[0])
    expected = {}
    for g, h in enumerate(to_exact.tolist()):
        k = scalar_power(exact.elements[h])
        if k is not None:
            expected[g] = k
    assert rep.scalars == expected
    assert len(expected) == {"b2": 1, "ge": 2, "jones": 8}[name]


def test_float_elements_are_the_exact_ones(matched):
    exact, (elements, table, _), to_exact, distance = matched
    assert len(elements) == len(table) == len(exact.elements)
    assert sorted(to_exact) == list(range(len(exact.elements)))
    assert to_exact[0] == 0 and np.array_equal(elements[0], np.eye(len(elements[0])))
    assert distance.max() <= ELEMENT_TOL


def test_letters_and_right_multiplication_are_exact(matched):
    exact, (_, table, letters), to_exact, _ = matched
    for c, h in exact.letters.items():
        assert to_exact[letters[c]] == h
        for g in range(len(table)):
            assert to_exact[table[g, letters[c]]] == exact.right[to_exact[g]][c]


def test_cayley_table_is_exact(matched):
    # g h is g followed by a word of h, read through the exact right multiplication
    exact, (_, table, _), to_exact, _ = matched
    order = len(table)
    right = {c: np.array([exact.right[g][c] for g in range(order)]) for c in exact.letters}
    for h in range(order):
        products = to_exact.copy()
        for c in exact.words[to_exact[h]]:
            products = right[c][products]
        np.testing.assert_array_equal(to_exact[table[:, h]], products)
