import numpy as np
import pytest

from braident.linalg import (
    dagger,
    equal_up_to_phase,
    frobenius_norm,
    haar_unitary,
    hermitian_eigensystem,
    hermitian_eigenvalues,
    is_unitary,
    kron,
    matrix_from_json,
    matrix_to_json,
)
from braident.reps import b2_generator, temperley_lieb_generators, yang_baxter_unitary

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
    def test_identity_product(self):
        assert np.allclose(kron(I2, I2), I4)

    def test_block_placement(self):
        a = np.array([[1, 2], [3, 4]], dtype=complex)
        b = np.array([[0, 1], [1, 0]], dtype=complex)
        out = kron(a, b)
        assert out.shape == (4, 4)
        assert np.allclose(out[:2, :2], a[0, 0] * b)
        assert np.allclose(out[2:, :2], a[1, 0] * b)

    def test_triple_local_factor_entries(self):
        v3 = kron(kron(LOCAL_FACTOR, LOCAL_FACTOR), LOCAL_FACTOR)
        assert np.allclose(np.abs(v3), 1.0 / (2.0 * np.sqrt(2.0)))

    def test_mixed_product_and_associativity(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            a, b, c, d = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(4))
            lhs = kron(a, b) @ kron(c, d)
            rhs = kron(a @ c, b @ d)
            assert np.allclose(lhs, rhs, atol=1e-12)
            assert np.allclose(kron(kron(a, b), c), kron(a, kron(b, c)), atol=1e-12)


class TestDagger:
    def test_involution(self):
        a = np.array([[1 + 2j, 3], [0, -1j]])
        assert np.allclose(dagger(dagger(a)), a)
        assert np.allclose(dagger(I4), I4)

    def test_unitary_inverse(self):
        m = b2_generator(0.7)
        assert np.allclose(m @ dagger(m), I4, atol=1e-14)


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
            assert is_unitary(dagger(u))


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
    def test_diagonal(self):
        assert np.allclose(hermitian_eigenvalues(np.diag([1.0, 0.0])), [1.0, 0.0])

    def test_maximally_mixed_single_qubit(self):
        # one-qubit reduction of a Bell pair
        assert np.allclose(hermitian_eigenvalues(I2 / 2), [0.5, 0.5])

    def test_temperley_lieb_spectrum(self):
        _, t2 = temperley_lieb_generators()
        values = hermitian_eigenvalues(t2)
        assert np.allclose(values[:4], np.sqrt(2), atol=1e-12)
        assert np.allclose(values[4:], 0.0, atol=1e-12)

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError, match="Hermitian"):
            hermitian_eigenvalues(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_oversized_rejected(self):
        with pytest.raises(ValueError, match="exceeds"):
            hermitian_eigenvalues(np.eye(257))

    def test_trace_and_reconstruction(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
            h = a + dagger(a)
            values, vectors = hermitian_eigensystem(h)
            assert abs(values.sum() - np.trace(h).real) < 1e-10
            rebuilt = vectors @ np.diag(values) @ dagger(vectors)
            assert frobenius_norm(h - rebuilt) < 1e-9
            assert all(x >= y for x, y in zip(values, values[1:]))


class TestFrobeniusNorm:
    def test_values(self):
        assert frobenius_norm(I4) == pytest.approx(2.0)
        assert frobenius_norm(np.zeros((3, 3))) == 0.0
        # any 4x4 unitary has Frobenius norm sqrt(4)
        assert frobenius_norm(b2_generator(0.3)) == pytest.approx(2.0, abs=1e-12)


class TestJsonEncoding:
    def test_matrix_round_trip(self):
        m = np.array([[1 + 2j, 0], [-1j, 0.5]])
        encoded = matrix_to_json(m)
        assert encoded[0][0] == [1.0, 2.0]
        assert np.allclose(matrix_from_json(encoded), m)
