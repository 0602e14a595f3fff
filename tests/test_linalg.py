import json

import numpy as np
import pytest

from braident.cli import _jsonable, matrix_from_json
from braident.entanglement import _sqrt_psd, vn_entropy
from braident.linalg import equal_up_to_phase, haar_unitary, is_unitary
from braident.reps import b2_generator, temperley_lieb_generators, yang_baxter_unitary
from braident.states import DensityMatrix

I2 = np.eye(2, dtype=complex)
I4 = np.eye(4, dtype=complex)
I8 = np.eye(8, dtype=complex)
LOCAL_FACTOR = np.array([[1, 1], [-1, 1]], dtype=complex) / np.sqrt(2)


class TestMatmul:
    def test_identity(self):
        a = np.arange(16, dtype=complex).reshape(4, 4)
        assert np.allclose(I4 @ a, a)

    def test_bell_generator_squares_to_identity_at_zero_angle(self):
        m = b2_generator(0.0)
        assert np.allclose(m @ m, I4, atol=1e-14)

    def test_temperley_lieb_square(self):
        t1, t2 = temperley_lieb_generators()
        assert np.allclose(t1 @ t1, np.sqrt(2) * t1, atol=1e-14)
        assert np.allclose(t2 @ t2, np.sqrt(2) * t2, atol=1e-14)


class TestKron:
    """np.kron puts its left factor on the more significant index bits, which is
    the package's convention that qubit 1 is the leftmost tensor factor."""

    def test_identity_product(self):
        assert np.allclose(np.kron(I2, I2), I4)

    def test_block_placement(self):
        a = np.array([[1, 2], [3, 4]], dtype=complex)
        b = np.array([[0, 1], [1, 0]], dtype=complex)
        out = np.kron(a, b)
        assert out.shape == (4, 4)
        assert np.allclose(out[:2, :2], a[0, 0] * b)
        assert np.allclose(out[2:, :2], a[1, 0] * b)

    def test_triple_local_factor_entries(self):
        v3 = np.kron(np.kron(LOCAL_FACTOR, LOCAL_FACTOR), LOCAL_FACTOR)
        assert np.allclose(np.abs(v3), 1.0 / (2.0 * np.sqrt(2.0)))

    def test_mixed_product_and_associativity(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            a, b, c, d = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(4))
            lhs = np.kron(a, b) @ np.kron(c, d)
            rhs = np.kron(a @ c, b @ d)
            assert np.allclose(lhs, rhs, atol=1e-12)
            assert np.allclose(np.kron(np.kron(a, b), c), np.kron(a, np.kron(b, c)), atol=1e-12)


class TestDagger:
    def test_unitary_inverse(self):
        m = b2_generator(0.7)
        assert np.allclose(m @ m.conj().T, I4, atol=1e-14)


class TestIsUnitary:
    def test_representation_generators_are_unitary(self):
        assert is_unitary(b2_generator(1.3))
        assert is_unitary(yang_baxter_unitary(0.4))

    def test_scaled_identity_is_not(self):
        assert not is_unitary(2 * I4)

    def test_non_square_raises(self):
        with pytest.raises(ValueError):
            is_unitary(np.zeros((2, 3)))

    def test_closed_under_product_and_dagger(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            u = haar_unitary(4, rng)
            w = haar_unitary(4, rng)
            assert is_unitary(u)
            assert is_unitary(u @ w)
            assert is_unitary(u.conj().T)


class TestEqualUpToPhase:
    def test_quarter_turn(self):
        phase = equal_up_to_phase(1j * I2, I2)
        assert phase == pytest.approx(np.pi / 2, abs=1e-12)

    def test_sign_pattern_has_no_phase(self):
        assert equal_up_to_phase(np.diag([1.0, -1.0]), I2) is None

    def test_recovers_random_phase(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            u = haar_unitary(4, rng)
            phi = rng.uniform(-np.pi, np.pi)
            rec = equal_up_to_phase(np.exp(1j * phi) * u, u)
            assert rec is not None
            assert abs((rec - phi + np.pi) % (2 * np.pi) - np.pi) < 1e-10

    def test_traceless_pair_without_phase_relation(self):
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        z = np.diag([1.0, -1.0]).astype(complex)
        assert equal_up_to_phase(x, z) is None  # trace(Z X) = 0 takes the tie-break path

    def test_zero_reference_rejected(self):
        with pytest.raises(ValueError, match="nonzero"):
            equal_up_to_phase(I2, np.zeros((2, 2)))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            equal_up_to_phase(I2, I4)


class TestHermitianEigenvalues:
    """The eigen-solves behind the density-matrix check, the entropy and the
    matrix square root of the mixed concurrence."""

    def test_diagonal(self):
        pure = DensityMatrix(1, np.diag([1.0, 0.0]))  # a zero eigenvalue is not negative
        assert vn_entropy(pure) == 0.0

    def test_maximally_mixed_single_qubit(self):
        # one-qubit reduction of a Bell pair
        assert vn_entropy(DensityMatrix(1, I2 / 2)) == pytest.approx(1.0, abs=1e-14)

    def test_temperley_lieb_spectrum(self):
        _, t2 = temperley_lieb_generators()
        values = np.linalg.eigvalsh(t2)  # ascending
        assert np.allclose(values[:4], 0.0, atol=1e-12)
        assert np.allclose(values[4:], np.sqrt(2), atol=1e-12)

    def test_trace_and_reconstruction(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
            h = a @ a.conj().T
            root = _sqrt_psd(h)
            assert np.linalg.norm(root - root.conj().T) < 1e-9
            assert np.linalg.eigvalsh(root)[0] > -1e-9
            assert np.linalg.norm(root @ root - h) < 1e-9


class TestJsonEncoding:
    def test_matrix_round_trip(self):
        m = np.array([[1 + 2j, 0], [-1j, 0.5]])
        encoded = json.loads(json.dumps(m, default=_jsonable))
        assert encoded[0][0] == [1.0, 2.0]
        assert np.allclose(matrix_from_json(encoded), m)
