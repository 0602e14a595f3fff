import json

import numpy as np
import pytest

from braident.cli import _jsonable
from braident.entanglement import (
    concurrence_mixed2,
    concurrence_pure2,
    residual_profile,
    schmidt_coefficients,
    three_tangle,
    vn_entropy,
)
from braident.linalg import haar_unitary
from braident.states import (
    PureState,
    apply_local,
    basis_state,
    density,
    named_state,
    partial_trace,
)

LOCAL_FACTOR = np.array([[1, 1], [-1, 1]], dtype=complex) / np.sqrt(2)


def random_state(rng, qubits):
    amps = rng.normal(size=2**qubits) + 1j * rng.normal(size=2**qubits)
    return PureState(qubits, amps / np.linalg.norm(amps))


def w_state():
    amps = np.zeros(8, dtype=complex)
    amps[[0b001, 0b010, 0b100]] = 1 / np.sqrt(3)
    return PureState(3, amps)


def residual_tangle_oracle(state):
    """Three-tangle via tangle minus squared pairwise concurrences.

    tau(1|23) = 4 det(rho_1) for a pure state; the residual after removing
    the two-qubit concurrences is the genuinely tripartite share.
    """
    rho = density(state)
    rho1 = partial_trace(rho, {1}).matrix
    tangle_1_23 = 4.0 * np.linalg.det(rho1).real
    c12 = concurrence_mixed2(partial_trace(rho, {1, 2}))
    c13 = concurrence_mixed2(partial_trace(rho, {1, 3}))
    return tangle_1_23 - c12**2 - c13**2


class TestPureConcurrence:
    def test_named_values(self):
        assert concurrence_pure2(named_state("bell")) == pytest.approx(1.0, abs=1e-12)
        assert concurrence_pure2(basis_state("00")) == 0.0
        psi_plus = PureState(2, np.array([0, 1, 1, 0]) / np.sqrt(2))
        assert concurrence_pure2(psi_plus) == pytest.approx(1.0, abs=1e-12)

    def test_qubit_count_enforced(self):
        with pytest.raises(ValueError, match="2-qubit"):
            concurrence_pure2(named_state("ghz"))


class TestMixedConcurrence:
    def test_bell_projector(self):
        assert concurrence_mixed2(density(named_state("bell"))) == pytest.approx(1.0, abs=1e-10)

    def test_ghz_reduction_is_unentangled(self):
        reduced = partial_trace(density(named_state("ghz")), {2, 3})
        assert concurrence_mixed2(reduced) == pytest.approx(0.0, abs=1e-10)

    def test_phi_reduction_is_unentangled(self):
        reduced = partial_trace(density(named_state("phi")), {1, 2})
        assert concurrence_mixed2(reduced) == pytest.approx(0.0, abs=1e-10)

    def test_w_state_reduction_value(self):
        # pairwise concurrence of the W state is 2/3
        reduced = partial_trace(density(w_state()), {1, 2})
        assert concurrence_mixed2(reduced) == pytest.approx(2.0 / 3.0, abs=1e-10)

    def test_matches_pure_formula_on_random_states(self):
        rng = np.random.default_rng(53)
        for _ in range(200):
            state = random_state(rng, 2)
            assert concurrence_mixed2(density(state)) == pytest.approx(
                concurrence_pure2(state), abs=1e-9
            )

    def test_qubit_count_enforced(self):
        with pytest.raises(ValueError, match="2-qubit"):
            concurrence_mixed2(density(named_state("ghz")))


class TestEntropy:
    def test_pure_projector_has_zero_entropy(self):
        assert vn_entropy(density(named_state("bell"))) == pytest.approx(0.0, abs=1e-10)

    def test_maximally_mixed_reductions(self):
        for name in ("bell", "ghz"):
            reduced = partial_trace(density(named_state(name)), {1})
            assert vn_entropy(reduced) == pytest.approx(1.0, abs=1e-10)


class TestSchmidt:
    def test_bell_split(self):
        coeffs = schmidt_coefficients(named_state("bell"), {1})
        assert np.allclose(coeffs, [1 / np.sqrt(2)] * 2, atol=1e-12)

    def test_product_state_has_single_coefficient(self):
        for left in ({1}, {2}, {1, 3}):
            coeffs = schmidt_coefficients(basis_state("000"), left)
            assert coeffs[0] == pytest.approx(1.0, abs=1e-12)
            assert np.allclose(coeffs[1:], 0.0, atol=1e-12)

    def test_phi_single_qubit_split(self):
        coeffs = schmidt_coefficients(named_state("phi"), {1})
        assert np.allclose(coeffs, [1 / np.sqrt(2)] * 2, atol=1e-12)

    def test_squares_sum_to_one(self):
        rng = np.random.default_rng(59)
        for _ in range(20):
            state = random_state(rng, 3)
            for left in ({1}, {2}, {3}, {1, 2}, {1, 3}, {2, 3}):
                coeffs = schmidt_coefficients(state, left)
                assert np.sum(coeffs**2) == pytest.approx(1.0, abs=1e-10)
                assert all(x >= y for x, y in zip(coeffs, coeffs[1:]))

    def test_subset_validation(self):
        with pytest.raises(ValueError, match="proper nonempty"):
            schmidt_coefficients(named_state("ghz"), set())
        with pytest.raises(ValueError, match="proper nonempty"):
            schmidt_coefficients(named_state("ghz"), {1, 2, 3})
        with pytest.raises(ValueError, match="subset"):
            schmidt_coefficients(named_state("ghz"), {5})


class TestThreeTangle:
    def test_named_values(self):
        assert three_tangle(named_state("ghz")) == pytest.approx(1.0, abs=1e-12)
        assert three_tangle(named_state("phi")) == pytest.approx(1.0, abs=1e-12)
        assert three_tangle(basis_state("000")) == 0.0
        assert three_tangle(w_state()) == pytest.approx(0.0, abs=1e-12)

    def test_qubit_count_enforced(self):
        with pytest.raises(ValueError, match="3-qubit"):
            three_tangle(named_state("bell"))

    def test_matches_residual_tangle_oracle(self):
        for state, expected in (
            (named_state("ghz"), 1.0),
            (named_state("phi"), 1.0),
            (w_state(), 0.0),
        ):
            assert residual_tangle_oracle(state) == pytest.approx(expected, abs=1e-8)
            assert three_tangle(state) == pytest.approx(expected, abs=1e-8)
        rng = np.random.default_rng(61)
        for _ in range(50):
            state = random_state(rng, 3)
            assert three_tangle(state) == pytest.approx(
                residual_tangle_oracle(state), abs=1e-8
            )


class TestResidualProfile:
    def test_ghz_pattern(self):
        profile = residual_profile(named_state("ghz"))
        assert len(profile.entries) == 6
        for entry in profile.entries:
            assert entry.probability == pytest.approx(0.5, abs=1e-10)
            assert entry.concurrence == pytest.approx(0.0, abs=1e-10)

    def test_phi_pattern(self):
        profile = residual_profile(named_state("phi"))
        for entry in profile.entries:
            assert entry.probability == pytest.approx(0.5, abs=1e-10)
            assert entry.concurrence == pytest.approx(1.0, abs=1e-10)

    def test_basis_state_profile_is_total(self):
        profile = residual_profile(basis_state("000"))
        for entry in profile.entries:
            if entry.outcome == 0:
                assert entry.probability == pytest.approx(1.0, abs=1e-12)
                assert entry.concurrence == pytest.approx(0.0, abs=1e-12)
            else:
                assert entry.probability == 0.0
                assert entry.concurrence is None

    def test_per_qubit_probabilities_sum_to_one(self):
        rng = np.random.default_rng(67)
        for _ in range(20):
            profile = residual_profile(random_state(rng, 3))
            for qubit in (1, 2, 3):
                total = sum(
                    e.probability for e in profile.entries if e.qubit == qubit
                )
                assert total == pytest.approx(1.0, abs=1e-10)

    def test_json_schema(self):
        entries = residual_profile(basis_state("000")).entries
        doc = json.loads(json.dumps(entries, default=_jsonable))
        assert doc[0] == {"qubit": 1, "outcome": 0, "probability": 1.0, "concurrence": 0.0}
        assert doc[1]["concurrence"] is None


class TestLocalUnitaryBehavior:
    def test_measures_invariant_under_local_unitaries(self):
        rng = np.random.default_rng(71)
        for _ in range(25):
            state = random_state(rng, 3)
            factors = [haar_unitary(2, rng) for _ in range(3)]
            rotated = apply_local(state, factors)
            for qubit in (1, 2, 3):
                before = vn_entropy(partial_trace(density(state), {qubit}))
                after = vn_entropy(partial_trace(density(rotated), {qubit}))
                assert abs(before - after) < 1e-10
            for left in ({1}, {2}, {3}, {1, 2}):
                assert np.allclose(
                    schmidt_coefficients(state, left),
                    schmidt_coefficients(rotated, left),
                    atol=1e-10,
                )
            for pair in ({1, 2}, {1, 3}, {2, 3}):
                before = concurrence_mixed2(partial_trace(density(state), pair))
                after = concurrence_mixed2(partial_trace(density(rotated), pair))
                assert abs(before - after) < 1e-10
            assert abs(three_tangle(state) - three_tangle(rotated)) < 1e-10

    def test_profile_is_basis_dependent(self):
        # the same local rotation that preserves every measure flips the
        # profile concurrence pattern from all-zero to all-one
        ghz_profile = residual_profile(named_state("ghz"))
        rotated = apply_local(named_state("ghz"), [LOCAL_FACTOR] * 3)
        rotated_profile = residual_profile(rotated)
        assert all(e.concurrence == pytest.approx(0.0, abs=1e-10) for e in ghz_profile.entries)
        assert all(
            e.concurrence == pytest.approx(1.0, abs=1e-10) for e in rotated_profile.entries
        )

    def test_monogamy_bound(self):
        rng = np.random.default_rng(73)
        for _ in range(50):
            state = random_state(rng, 3)
            rho1 = partial_trace(density(state), {1}).matrix
            tangle_1_23 = 4.0 * np.linalg.det(rho1).real
            c12 = concurrence_mixed2(partial_trace(density(state), {1, 2}))
            c13 = concurrence_mixed2(partial_trace(density(state), {1, 3}))
            assert tangle_1_23 >= c12**2 + c13**2 - 1e-9

    def test_global_phase_invariance(self):
        rng = np.random.default_rng(79)
        state = random_state(rng, 3)
        shifted = PureState(3, np.exp(1j * 0.83) * state.amplitudes)
        assert three_tangle(state) == pytest.approx(three_tangle(shifted), abs=1e-12)
        for qubit in (1, 2, 3):
            assert vn_entropy(partial_trace(density(state), {qubit})) == pytest.approx(
                vn_entropy(partial_trace(density(shifted), {qubit})), abs=1e-12
            )
        for pair in ({1, 2}, {2, 3}):
            assert concurrence_mixed2(partial_trace(density(state), pair)) == pytest.approx(
                concurrence_mixed2(partial_trace(density(shifted), pair)), abs=1e-12
            )
        before = residual_profile(state)
        after = residual_profile(shifted)
        for e1, e2 in zip(before.entries, after.entries):
            assert e1.probability == pytest.approx(e2.probability, abs=1e-12)
            assert e1.concurrence == pytest.approx(e2.concurrence, abs=1e-12)
