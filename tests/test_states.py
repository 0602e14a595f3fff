import dataclasses
import json
from functools import reduce
from itertools import combinations

import numpy as np
import pytest

from braident.braids import parse_braid_word
from braident.cli import LU_DEMO_FACTOR, _jsonable, state_from_json
from braident.linalg import haar_unitary
from braident.reps import b2_rep, evaluate, ge_rep, jones_rep
from braident.states import (
    DensityMatrix,
    ImpossibleOutcomeError,
    PureState,
    apply,
    apply_local,
    basis_state,
    density,
    measure_qubit,
    named_state,
    partial_trace,
)

I2 = np.eye(2, dtype=complex)


def random_state(rng, qubits):
    amps = rng.normal(size=2**qubits) + 1j * rng.normal(size=2**qubits)
    return PureState(qubits, amps / np.linalg.norm(amps))


def keep_sets(qubits):
    """Every nonempty subset of 1..qubits."""
    return [
        set(keep)
        for size in range(1, qubits + 1)
        for keep in combinations(range(1, qubits + 1), size)
    ]


class TestConstruction:
    def test_basis_states(self):
        assert basis_state("00").amplitudes[0] == 1.0
        assert basis_state("111").amplitudes[7] == 1.0
        assert basis_state("101").amplitudes[5] == 1.0

    def test_basis_state_rejects_bad_labels(self):
        with pytest.raises(ValueError, match="0/1"):
            basis_state("102")
        with pytest.raises(ValueError, match="0/1"):
            basis_state("")

    def test_named_states(self):
        ghz = named_state("ghz")
        assert ghz.qubits == 3
        expected = np.zeros(8)
        expected[0] = expected[7] = 1 / np.sqrt(2)
        assert np.allclose(ghz.amplitudes, expected)

        phi = named_state("phi")
        expected = np.zeros(8)
        expected[[0b000, 0b011, 0b101, 0b110]] = 0.5
        assert np.allclose(phi.amplitudes, expected)

        bell = named_state("bell")
        assert bell.qubits == 2
        assert np.allclose(bell.amplitudes, [1 / np.sqrt(2), 0, 0, 1 / np.sqrt(2)])

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown named state"):
            named_state("w")

    def test_normalization_enforced(self):
        with pytest.raises(ValueError, match="not normalized"):
            PureState(1, np.array([1.0, 1.0]))

    def test_density_matrix_validation(self):
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(1, np.array([[0.5, 0.5], [0.0, 0.5]]))
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(1, np.eye(2))
        with pytest.raises(ValueError, match="negative eigenvalue"):
            DensityMatrix(1, np.diag([1.5, -0.5]))

    def test_density_matrix_checks_its_qubit_count(self):
        with pytest.raises(ValueError, match="at least one qubit"):
            DensityMatrix(0, [[1]])
        with pytest.raises(ValueError, match="does not match"):
            DensityMatrix(10**8, np.eye(2) / 2)  # rejected before 2**qubits is formed

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_density_matrix_rejects_non_finite_entries(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            DensityMatrix(1, np.full((2, 2), bad))
        with pytest.raises(ValueError, match="non-finite"):
            DensityMatrix(1, np.diag([bad, 0.5]))

    def test_equality_is_identity_and_hash_works(self):
        ghz = named_state("ghz")
        rho = density(ghz)
        for value, twin in (
            (ghz, PureState(3, ghz.amplitudes)),
            (rho, DensityMatrix(3, rho.matrix)),
        ):
            assert (value == twin) is False
            assert (value == value) is True
            assert len({value, value, twin}) == 2  # hashable, by identity


class TestApply:
    def test_bell_generation(self):
        theta = 1.0
        rep = b2_rep(theta)
        out = apply(rep.generator_images[0], basis_state("00"))
        expected = np.exp(1j * theta) / np.sqrt(2) * np.array([1, 0, 0, 1], dtype=complex)
        assert np.allclose(out.amplitudes, expected, atol=1e-12)

    def test_two_strand_word_generates_phi_with_phase(self):
        theta = 1.0
        rep = ge_rep(theta)
        word = parse_braid_word("s1 s2", 3)
        out = apply(evaluate(rep, word), basis_state("000"))
        expected = np.exp(2j * theta) * named_state("phi").amplitudes
        assert np.allclose(out.amplitudes, expected, atol=1e-12)

    def test_jones_word_generates_ghz(self):
        word = parse_braid_word("s1 s2^-1", 3)
        out = apply(evaluate(jones_rep(), word), basis_state("000"))
        expected = (1 + 1j) / 2 * np.array([1, 0, 0, 0, 0, 0, 0, 1], dtype=complex)
        assert np.allclose(out.amplitudes, expected, atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            apply(np.eye(4), basis_state("000"))

    def test_norm_drift_detected(self):
        with pytest.raises(ValueError, match="norm preserving"):
            apply(2 * np.eye(4), basis_state("00"))

    def test_word_then_inverse_restores_state(self):
        from braident.braids import inverse

        rng = np.random.default_rng(17)
        rep = ge_rep(1.0)
        word = parse_braid_word("s1 s2^-1 s1 s1", 3)
        state = random_state(rng, 3)
        forward = apply(evaluate(rep, word), state)
        back = apply(evaluate(rep, inverse(word)), forward)
        assert np.allclose(back.amplitudes, state.amplitudes, atol=1e-10)


class TestMeasurement:
    def test_ghz_collapses_to_product(self):
        out = measure_qubit(named_state("ghz"), 1, 0)
        assert out.probability == pytest.approx(0.5, abs=1e-12)
        assert np.allclose(out.post_state.amplitudes, [1, 0, 0, 0])

        out1 = measure_qubit(named_state("ghz"), 1, 1)
        assert np.allclose(out1.post_state.amplitudes, [0, 0, 0, 1])

    def test_phi_collapses_to_bell(self):
        out = measure_qubit(named_state("phi"), 3, 0)
        assert out.probability == pytest.approx(0.5, abs=1e-12)
        assert np.allclose(out.post_state.amplitudes, named_state("bell").amplitudes)

    def test_impossible_outcome(self):
        with pytest.raises(ImpossibleOutcomeError):
            measure_qubit(basis_state("000"), 2, 1)

    def test_argument_validation(self):
        with pytest.raises(ValueError, match="out of range"):
            measure_qubit(named_state("ghz"), 4, 0)
        with pytest.raises(ValueError, match="at least 2"):
            measure_qubit(basis_state("0"), 1, 0)
        with pytest.raises(ValueError, match="outcome"):
            measure_qubit(named_state("ghz"), 1, 2)

    def test_probability_completeness(self):
        rng = np.random.default_rng(23)
        for _ in range(25):
            state = random_state(rng, 3)
            for qubit in (1, 2, 3):
                total = sum(
                    measure_qubit(state, qubit, outcome).probability for outcome in (0, 1)
                )
                assert total == pytest.approx(1.0, abs=1e-10)


class TestDensityAndPartialTrace:
    def test_density_examples(self):
        assert np.allclose(density(basis_state("0")).matrix, np.diag([1.0, 0.0]))
        bell_rho = density(named_state("bell")).matrix
        assert np.trace(bell_rho) == pytest.approx(1.0)
        assert np.linalg.matrix_rank(bell_rho) == 1

        ghz_rho = density(named_state("ghz")).matrix
        nonzero = np.argwhere(np.abs(ghz_rho) > 1e-12)
        assert sorted(map(tuple, nonzero)) == [(0, 0), (0, 7), (7, 0), (7, 7)]
        assert np.allclose(ghz_rho[ghz_rho != 0], 0.5)

    def test_ghz_two_qubit_reduction_is_classical_mixture(self):
        reduced = partial_trace(density(named_state("ghz")), {1, 2})
        expected = np.zeros((4, 4))
        expected[0, 0] = expected[3, 3] = 0.5
        assert np.allclose(reduced.matrix, expected, atol=1e-12)

    def test_phi_two_qubit_reduction_is_bell_mixture(self):
        reduced = partial_trace(density(named_state("phi")), {1, 2})
        expected = 0.25 * np.array(
            [[1, 0, 0, 1], [0, 1, 1, 0], [0, 1, 1, 0], [1, 0, 0, 1]], dtype=complex
        )
        assert np.allclose(reduced.matrix, expected, atol=1e-12)

    def test_product_state_reduction(self):
        reduced = partial_trace(density(basis_state("000")), {3})
        assert np.allclose(reduced.matrix, np.diag([1.0, 0.0]))

    def test_trace_preserved_on_random_states(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            rho = density(random_state(rng, 3))
            for keep in ({1}, {2, 3}, {1, 3}):
                reduced = partial_trace(rho, keep)
                assert np.trace(reduced.matrix) == pytest.approx(1.0, abs=1e-12)
                assert np.allclose(reduced.matrix, reduced.matrix.conj().T, atol=1e-12)

    @pytest.mark.parametrize("qubits", range(1, 9))
    def test_density_passes_the_validating_constructor(self, qubits):
        # density() skips the eigenvalue check, so the constructor's check guards it here
        rng = np.random.default_rng(40 + qubits)
        for _ in range(3):
            state = random_state(rng, qubits)
            rho = density(state)
            a = state.amplitudes
            assert rho.matrix.tobytes() == np.outer(a, a.conj()).tobytes()
            assert DensityMatrix(qubits, rho.matrix).matrix.tobytes() == rho.matrix.tobytes()
            assert not rho.matrix.flags.writeable

    def test_density_of_a_state_at_the_norm_tolerance(self):
        # |psi| = 1 + 0.9e-10 is a valid PureState, but tr(psi psi^dag) = 1 + 1.8e-10
        amps = np.zeros(8, dtype=complex)
        amps[0] = 1 + 0.9e-10
        state = PureState(3, amps)
        rho = density(state)
        assert np.trace(rho.matrix).real == pytest.approx(1.0, abs=1e-15)
        DensityMatrix(3, rho.matrix)
        expected = np.outer(amps, amps.conj()) / np.vdot(amps, amps).real
        assert np.max(np.abs(rho.matrix - expected)) <= 1e-16

    def test_sequential_contraction_consistency(self):
        rng = np.random.default_rng(37)
        for _ in range(10):
            rho = density(random_state(rng, 3))
            direct = partial_trace(rho, {2})
            staged = partial_trace(partial_trace(rho, {1, 2}), {2})
            assert np.allclose(direct.matrix, staged.matrix, atol=1e-12)

    @pytest.mark.parametrize("qubits", range(1, 7))
    def test_projector_reductions_are_valid_and_match_the_checked_path(self, qubits):
        # reductions of density(psi) skip the constructor's checks; the
        # constructor accepts them, and they equal the checked path's bit for bit
        rng = np.random.default_rng(60 + qubits)
        for _ in range(2):
            rho = density(random_state(rng, qubits))
            checked = DensityMatrix(qubits, rho.matrix)
            for keep in keep_sets(qubits):
                reduced = partial_trace(rho, keep)
                reduced_checked = partial_trace(checked, keep)
                assert reduced._from_projector and not reduced_checked._from_projector
                assert np.array_equal(reduced.matrix, reduced_checked.matrix)
                DensityMatrix(reduced.qubits, reduced.matrix)
                assert not reduced.matrix.flags.writeable
                for inner in keep_sets(reduced.qubits):
                    chained = partial_trace(reduced, inner)
                    chained_checked = partial_trace(reduced_checked, inner)
                    assert chained._from_projector
                    assert np.array_equal(chained.matrix, chained_checked.matrix)
                    DensityMatrix(chained.qubits, chained.matrix)

    def test_direct_matrix_reductions_keep_their_checks(self):
        # the Hermitian gap, 8.5e-11, is inside NORM_TOL; tracing out qubits 2
        # and 3 sums four 3e-11 entries into one, and the gap grows to 1.7e-10
        off_diagonal = np.kron(np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(4))
        matrix = density(named_state("ghz")).matrix + 3e-11 * off_diagonal
        direct = DensityMatrix(3, matrix)
        assert not direct._from_projector
        with pytest.raises(ValueError, match="not Hermitian"):
            partial_trace(direct, {1})
        with pytest.raises(ValueError, match="not Hermitian"):
            partial_trace(direct, {1, 2})
        assert partial_trace(direct, {2, 3}).matrix.shape == (4, 4)

    def test_projector_mark_is_outside_comparison_and_repr(self):
        mark = {f.name: f for f in dataclasses.fields(DensityMatrix)}["_from_projector"]
        assert (mark.init, mark.compare, mark.repr) == (False, False, False)
        rho = density(named_state("phi"))
        for derived in (rho, partial_trace(rho, {1, 3}), partial_trace(rho, {2})):
            direct = DensityMatrix(derived.qubits, derived.matrix)
            assert repr(derived) == repr(direct)
            assert derived.matrix.tobytes() == direct.matrix.tobytes()

    def test_keep_set_validation(self):
        rho = density(named_state("ghz"))
        with pytest.raises(ValueError, match="nonempty"):
            partial_trace(rho, set())
        with pytest.raises(ValueError, match="subset"):
            partial_trace(rho, {0, 1})
        with pytest.raises(ValueError, match="subset"):
            partial_trace(rho, {4})


class TestApplyLocal:
    def test_ghz_maps_onto_phi(self):
        # (f (x) f (x) f)|ghz> lands exactly on +|phi>: a weight-k basis state
        # gets (1 + (-1)^k)/4; -f, f up to a global phase, gives -|phi>
        out = apply_local(named_state("ghz"), [LU_DEMO_FACTOR] * 3)
        assert np.allclose(out.amplitudes, named_state("phi").amplitudes, atol=1e-12)
        out = apply_local(named_state("ghz"), [-LU_DEMO_FACTOR] * 3)
        assert np.allclose(out.amplitudes, -named_state("phi").amplitudes, atol=1e-12)

    def test_identity_factors(self):
        state = named_state("ghz")
        out = apply_local(state, [I2, I2, I2])
        assert np.allclose(out.amplitudes, state.amplitudes)

    def test_product_state_superposition_signs(self):
        out = apply_local(basis_state("000"), [LU_DEMO_FACTOR] * 3)
        expected = np.array(
            [(-1) ** bin(i).count("1") for i in range(8)], dtype=complex
        ) / (2 * np.sqrt(2))
        assert np.allclose(out.amplitudes, expected, atol=1e-12)

    def test_norm_preserved_under_random_factors(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            factors = [haar_unitary(2, rng) for _ in range(3)]
            out = apply_local(random_state(rng, 3), factors)
            assert np.linalg.norm(out.amplitudes) == pytest.approx(1.0, abs=1e-12)

    def test_matches_the_kron_product_bit_for_bit(self):
        # the reference is apply(reduce(np.kron, factors), state)
        rng = np.random.default_rng(43)
        cases = [(named_state("ghz"), [LU_DEMO_FACTOR] * 3), (basis_state("101"), [I2] * 3)]
        for qubits in (1, 2, 3, 3, 4, 5):
            for _ in range(100):
                state = random_state(rng, qubits)
                cases.append((state, [haar_unitary(2, rng) for _ in range(qubits)]))
        for state, factors in cases:
            expected = apply(reduce(np.kron, factors), state)
            assert np.array_equal(apply_local(state, factors).amplitudes, expected.amplitudes)

    def test_factor_validation(self):
        with pytest.raises(ValueError, match="factors"):
            apply_local(named_state("ghz"), [I2, I2])
        with pytest.raises(ValueError, match="not unitary"):
            apply_local(named_state("ghz"), [I2, I2, 2 * I2])
        with pytest.raises(ValueError, match="shape"):
            apply_local(named_state("ghz"), [I2, I2, np.eye(4)])


class TestJsonFormat:
    def test_round_trip(self):
        state = named_state("phi")
        doc = json.loads(json.dumps(state, default=_jsonable))
        assert doc["qubits"] == 3
        assert doc["amplitudes"][0] == [0.5, 0.0]
        restored = state_from_json(doc)
        assert restored.qubits == 3
        assert np.allclose(restored.amplitudes, state.amplitudes)

    def test_malformed_document(self):
        with pytest.raises(ValueError, match="malformed"):
            state_from_json({"amplitudes": [[1.0, 0.0]]})
