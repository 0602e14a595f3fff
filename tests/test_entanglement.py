import itertools
import json
import math
import warnings

import numpy as np
import pytest

from braident.braids import parse_braid_word
from braident.cli import LU_DEMO_FACTOR, _jsonable
from braident.entanglement import (
    ProfileEntry,
    ResidualProfile,
    concurrence_mixed2,
    concurrence_pure2,
    residual_profile,
    schmidt_coefficients,
    three_tangle,
    vn_entropy,
)
from braident.linalg import haar_unitary
from braident.reps import evaluate, ge_rep, jones_rep
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



def random_state(rng, qubits):
    amps = rng.normal(size=2**qubits) + 1j * rng.normal(size=2**qubits)
    return PureState(qubits, amps / np.linalg.norm(amps))


def w_state():
    amps = np.zeros(8, dtype=complex)
    amps[[0b001, 0b010, 0b100]] = 1 / np.sqrt(3)
    return PureState(3, amps)


def profile_test_states():
    """Named, basis, Haar-random and local-unitary-image three-qubit states.

    The diagonal images of basis states keep their impossible branches, and
    two hand-made states put a branch just below and just above the 1e-12
    probability floor.
    """
    rng = np.random.default_rng(83)
    states = [named_state("ghz"), named_state("phi")]
    states += [basis_state(format(i, "03b")) for i in range(8)]
    states += [random_state(rng, 3) for _ in range(300)]
    for i in range(250):
        seed = named_state("ghz" if i % 2 else "phi")
        states.append(apply_local(seed, [haar_unitary(2, rng) for _ in range(3)]))
    for i in range(40):
        phases = [np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, 2))) for _ in range(3)]
        states.append(apply_local(basis_state(format(i % 8, "03b")), phases))
    for tiny in (1e-13, 1e-11):
        amps = np.zeros(8, dtype=complex)
        amps[0b000], amps[0b111] = np.sqrt(1 - tiny), np.sqrt(tiny)
        states.append(PureState(3, amps))
    return states


def closed_form_states():
    """States whose pair reductions take the rank-2 concurrence form.

    Haar states, local-unitary images of GHZ and phi, images of basis states
    under short ge and jones words, and edge states: basis and product
    states, a Bell pair beside a qubit on either side, and W.
    """
    rng = np.random.default_rng(97)
    states = [random_state(rng, 3) for _ in range(200)]
    for name in ("ghz", "phi"):
        for _ in range(100):
            states.append(apply_local(named_state(name), [haar_unitary(2, rng) for _ in range(3)]))
    words = ["s1", "s2^-1", "s1 s2", "s1 s2^-1 s1", "(s1 s2)^3 s2^-2", "s2 s1^-1 s2 s1 s1"]
    for rep, text, bits in itertools.product(
        (ge_rep(), jones_rep()), words, ("000", "011", "101", "110")
    ):
        states.append(apply(evaluate(rep, parse_braid_word(text, 3)), basis_state(bits)))
    states += [basis_state(format(i, "03b")) for i in range(8)]
    for _ in range(20):
        states.append(apply_local(basis_state("000"), [haar_unitary(2, rng) for _ in range(3)]))
    bell = named_state("bell").amplitudes
    qubit = haar_unitary(2, rng)[:, 0]
    states += [PureState(3, np.kron(bell, qubit)), PureState(3, np.kron(qubit, bell)), w_state()]
    return states


def eigvalsh_entropy(matrix):
    values = np.linalg.eigvalsh(matrix)
    values = values[values > 1e-14]
    return max(0.0, float(-np.sum(values * np.log2(values))))


def residual_tangle_oracle(state, focus=1):
    """Three-tangle via tangle minus squared pairwise concurrences.

    tau(A|BC) = 4 det(rho_A) for a pure state, with A the qubit ``focus``;
    the residual after removing the two-qubit concurrences C_AB and C_AC is
    the genuinely tripartite share (Coffman-Kundu-Wootters).
    """
    rho = density(state)
    rho_a = partial_trace(rho, {focus}).matrix
    tangle_a_bc = 4.0 * np.linalg.det(rho_a).real
    b, c = (q for q in (1, 2, 3) if q != focus)
    reduced_ab, reduced_ac = partial_trace(rho, {focus, b}), partial_trace(rho, {focus, c})
    assert reduced_ab._factor.shape == reduced_ac._factor.shape == (4, 2)
    c_ab, c_ac = concurrence_mixed2(reduced_ab), concurrence_mixed2(reduced_ac)
    return tangle_a_bc - c_ab**2 - c_ac**2


def cayley_tangle(state):
    """Three-tangle as 4 |Hdet(a)|, Cayley's hyperdeterminant written out.

        Hdet = d1 - 2 d2 + 4 d3
        d1 = a000^2 a111^2 + a001^2 a110^2 + a010^2 a101^2 + a100^2 a011^2
        d2 = sum of the six products a000 a111 a_x a_y pairing complementary
             index pairs, plus the three fully mixed ones
        d3 = a000 a110 a101 a011 + a111 a001 a010 a100
    """
    a = state.amplitudes.reshape(2, 2, 2)
    d1 = (
        a[0, 0, 0] ** 2 * a[1, 1, 1] ** 2
        + a[0, 0, 1] ** 2 * a[1, 1, 0] ** 2
        + a[0, 1, 0] ** 2 * a[1, 0, 1] ** 2
        + a[1, 0, 0] ** 2 * a[0, 1, 1] ** 2
    )
    d2 = (
        a[0, 0, 0] * a[1, 1, 1] * a[0, 1, 1] * a[1, 0, 0]
        + a[0, 0, 0] * a[1, 1, 1] * a[1, 0, 1] * a[0, 1, 0]
        + a[0, 0, 0] * a[1, 1, 1] * a[1, 1, 0] * a[0, 0, 1]
        + a[0, 1, 1] * a[1, 0, 0] * a[1, 0, 1] * a[0, 1, 0]
        + a[0, 1, 1] * a[1, 0, 0] * a[1, 1, 0] * a[0, 0, 1]
        + a[1, 0, 1] * a[0, 1, 0] * a[1, 1, 0] * a[0, 0, 1]
    )
    d3 = (
        a[0, 0, 0] * a[1, 1, 0] * a[1, 0, 1] * a[0, 1, 1]
        + a[1, 1, 1] * a[0, 0, 1] * a[0, 1, 0] * a[1, 0, 0]
    )
    return float(4.0 * abs(d1 - 2.0 * d2 + 4.0 * d3))


def tangle_test_states():
    """500 Gaussian states and 250 local-unitary images each of GHZ and phi."""
    rng = np.random.default_rng(89)
    states = [random_state(rng, 3) for _ in range(500)]
    for name in ("ghz", "phi"):
        for _ in range(250):
            factors = [haar_unitary(2, rng) for _ in range(3)]
            states.append(apply_local(named_state(name), factors))
    return states


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


    def test_matches_the_diagonal_product_square_root(self):
        def reference(dm):
            # sqrt(rho) as V diag(sqrt(values)) V^dag, eigenvalues descending
            values, vectors = np.linalg.eigh(dm.matrix)
            values, vectors = values[::-1], vectors[:, ::-1]
            root = vectors @ np.diag(np.sqrt(np.clip(values, 0.0, None))) @ vectors.conj().T
            lam = np.linalg.svd(root @ YY @ root.conj(), compute_uv=False)
            return float(max(0.0, lam[0] - lam[1] - lam[2] - lam[3]))

        yy = np.array([[0, -1j], [1j, 0]])
        YY = np.kron(yy, yy)
        # the bitwise pin is on the direct path; the factored value agrees with it
        for state in profile_test_states():
            rho = density(state)
            for pair in ({1, 2}, {1, 3}, {2, 3}):
                reduced = partial_trace(rho, pair)
                direct = DensityMatrix(2, reduced.matrix)
                assert concurrence_mixed2(direct) == reference(direct)
                assert abs(concurrence_mixed2(reduced) - reference(direct)) <= 2e-14


class TestClosedForms:
    def test_pair_concurrence_matches_the_lapack_path(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for state in closed_form_states():
                rho = density(state)
                for pair in ({1, 2}, {1, 3}, {2, 3}):
                    reduced = partial_trace(rho, pair)
                    assert reduced._factor.shape == (4, 2)
                    # the same matrix without its factor takes sqrt(rho) and an SVD
                    lapack = concurrence_mixed2(DensityMatrix(2, reduced.matrix))
                    assert abs(concurrence_mixed2(reduced) - lapack) <= 2e-14

    def test_edge_state_values(self):
        bell = named_state("bell").amplitudes
        states = {
            "basis": (basis_state("010"), (0.0, 0.0, 0.0)),
            "bell-qubit": (PureState(3, np.kron(bell, [1.0, 0.0])), (1.0, 0.0, 0.0)),
            "qubit-bell": (PureState(3, np.kron([0.0, 1.0], bell)), (0.0, 0.0, 1.0)),
            "w": (w_state(), (2.0 / 3.0,) * 3),
        }
        for state, expected in states.values():
            rho = density(state)
            values = [concurrence_mixed2(partial_trace(rho, p)) for p in ({1, 2}, {1, 3}, {2, 3})]
            assert values == pytest.approx(expected, abs=1e-15)
        # a one-column factor is a pure pair, read as 2 |det| of its amplitudes
        bell_state = named_state("bell")
        assert concurrence_mixed2(density(bell_state)) == concurrence_pure2(bell_state)

    def test_one_qubit_entropy_matches_eigvalsh(self):
        rng = np.random.default_rng(101)
        matrices = []
        for _ in range(300):
            g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            mixed = g @ g.conj().T
            matrices.append(mixed / np.trace(mixed).real)
            psi = g[:, 0] / np.linalg.norm(g[:, 0])
            matrices.append(np.outer(psi, psi.conj()))
        for state in closed_form_states():
            matrices += [partial_trace(density(state), {q}).matrix for q in (1, 2, 3)]
        for matrix in matrices:
            value = vn_entropy(DensityMatrix(1, matrix))
            assert value >= 0.0
            assert abs(value - eigvalsh_entropy(matrix)) <= 1e-14


class TestEntropy:
    def test_pure_projector_has_zero_entropy(self):
        assert vn_entropy(density(named_state("bell"))) == pytest.approx(0.0, abs=1e-10)

    def test_pure_reductions_give_positive_zero(self):
        product = apply(evaluate(ge_rep(), parse_braid_word("s1", 3)), basis_state("000"))
        for dm in (
            partial_trace(density(basis_state("000")), {1}),
            partial_trace(density(product), {3}),
        ):
            value = vn_entropy(dm)
            assert value == 0.0
            assert math.copysign(1.0, value) == 1.0

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

    @pytest.mark.parametrize("left", [[1.5], ["1"], [2.0]])
    def test_non_integer_labels_are_value_errors(self, left):
        with pytest.raises(ValueError, match="integer qubit labels"):
            schmidt_coefficients(named_state("ghz"), left)


class TestThreeTangle:
    def test_named_values(self):
        assert three_tangle(named_state("ghz")) == pytest.approx(1.0, abs=1e-12)
        assert three_tangle(named_state("phi")) == pytest.approx(1.0, abs=1e-12)
        assert three_tangle(basis_state("000")) == 0.0
        assert three_tangle(w_state()) == pytest.approx(0.0, abs=1e-12)

    def test_qubit_count_enforced(self):
        with pytest.raises(ValueError, match="3-qubit"):
            three_tangle(named_state("bell"))

    def test_matches_cayley_expansion(self):
        worst = max(abs(three_tangle(s) - cayley_tangle(s)) for s in tangle_test_states())
        assert worst <= 2e-15
        ghz = named_state("ghz")
        exact = [ghz, named_state("phi"), w_state(), basis_state("000"), basis_state("101")]
        exact += [apply_local(ghz, [f] * 3) for f in (LU_DEMO_FACTOR, -LU_DEMO_FACTOR, np.eye(2))]
        for state in exact:
            assert three_tangle(state) == cayley_tangle(state)

    def test_ckw_identity_for_every_focus_qubit(self):
        # the oracle's pair concurrences take the rank-2 form of the factor
        for state in tangle_test_states() + closed_form_states():
            tangle = three_tangle(state)
            for focus in (1, 2, 3):
                assert abs(tangle - residual_tangle_oracle(state, focus)) <= 1e-13

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

    def test_matches_measure_qubit_bit_for_bit(self):
        def reference(state):
            # one measure_qubit and one concurrence_pure2 per branch
            entries = []
            for qubit in (1, 2, 3):
                for outcome in (0, 1):
                    try:
                        result = measure_qubit(state, qubit, outcome)
                    except ImpossibleOutcomeError:
                        entries.append(ProfileEntry(qubit, outcome, 0.0, None))
                        continue
                    concurrence = concurrence_pure2(result.post_state)
                    entries.append(ProfileEntry(qubit, outcome, result.probability, concurrence))
            return ResidualProfile(tuple(entries))

        states = profile_test_states()
        assert len(states) >= 500
        impossible = 0
        for state in states:
            profile = residual_profile(state)
            assert profile == reference(state)
            impossible += sum(e.concurrence is None for e in profile.entries)
        assert impossible > 0

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
        rotated = apply_local(named_state("ghz"), [LU_DEMO_FACTOR] * 3)
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
