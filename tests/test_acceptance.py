"""End-to-end acceptance checks, one test per numbered criterion.

Run ``pytest tests/test_acceptance.py -v -s`` to get one PASS/FAIL line per
criterion.  Criterion 6 pins the signed action of the local factors on GHZ.
With f = [[1,1],[-1,1]]/sqrt(2) we have f|0> = (|0>-|1>)/sqrt(2) and
f|1> = (|0>+|1>)/sqrt(2), so in (f (x) f (x) f)|ghz> a basis state of Hamming
weight k has coefficient (1 + (-1)^k)/4: +1/2 for even k and 0 for odd k,
which is exactly +|phi>.  The paper's recorded -|phi> is what -f gives (-f is
f times a global phase of -1 on each factor, e.g. the rotation by 5 pi/4), so
the criterion checks both signed maps, f -> +phi and -f -> -phi.
"""

import warnings

import numpy as np

from braident.braids import (
    BraidWord,
    GeneratorLetter,
    concat,
    cycle_count,
    exponent_sum,
    parse_braid_word,
    permutation_image,
)
from braident.entanglement import (
    concurrence_mixed2,
    residual_profile,
    schmidt_coefficients,
    three_tangle,
    vn_entropy,
)
from braident.linalg import haar_unitary
from braident.reps import (
    b2_rep,
    closure_check,
    evaluate,
    ge_rep,
    jones_rep,
    verify_relations,
)
from braident.states import (
    PureState,
    apply,
    apply_local,
    basis_state,
    density,
    measure_qubit,
    named_state,
    partial_trace,
)

BORROMEAN = "(s1 s2^-1)^3"
NUS = "(s1 s2)^3"
LOCAL_FACTOR = np.array([[1, 1], [-1, 1]], dtype=complex) / np.sqrt(2)


def verdict(number: int, label: str, ok: bool, detail: str = "") -> None:
    print(f"[criterion {number}] {label}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({label}) failed" + (f": {detail}" if detail else "")


def quiet(builder, *args):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return builder(*args)


def random_state(rng, qubits=3):
    amps = rng.normal(size=2**qubits) + 1j * rng.normal(size=2**qubits)
    return PureState(qubits, amps / np.linalg.norm(amps))


def random_word(rng, strands, max_len=10):
    length = int(rng.integers(0, max_len + 1))
    letters = tuple(
        GeneratorLetter(int(rng.integers(1, strands)), int(rng.choice([1, -1])))
        for _ in range(length)
    )
    return BraidWord(strands, letters)


def w_state():
    amps = np.zeros(8, dtype=complex)
    amps[[0b001, 0b010, 0b100]] = 1 / np.sqrt(3)
    return PureState(3, amps)


def test_c1_relation_verification():
    tol = 1e-12
    reports = {
        "b2": verify_relations(b2_rep(1.0), tol),
        "ge": verify_relations(ge_rep(1.0), tol),
        "jones": verify_relations(jones_rep(), tol),
    }
    ok = all(r.passed for r in reports.values())
    detail = ", ".join(f"{name}: {r.max_residual:.3e}" for name, r in reports.items())
    verdict(1, "defining relations hold with residual <= 1e-12", ok, detail)


def test_c2_b2_closure_and_bell_generation():
    word = parse_braid_word("s1 s1", 2)
    bell = named_state("bell")
    ok = True
    details = []
    for theta in (0.0, 1.0, np.pi / 4):
        rep = quiet(b2_rep, theta)
        err = np.linalg.norm(
            evaluate(rep, word) - np.exp(2j * theta) * np.eye(4, dtype=complex)
        )
        generated = apply(rep.generator_images[0], basis_state("00"))
        overlap = abs(np.vdot(bell.amplitudes, generated.amplitudes))
        ok = ok and err <= 1e-12 and abs(overlap - 1.0) <= 1e-12
        details.append(f"theta={theta:.4f}: square error {err:.2e}, overlap {overlap:.12f}")
    verdict(2, "s1 s1 = e^(2i theta) I and s1|00> is a Bell state", ok, "; ".join(details))


def test_c3_nus_pipeline():
    closes = closure_check(ge_rep(1.0), parse_braid_word(NUS, 3)).closes
    ok = closes
    details = [f"(s1 s2)^3 closes: {closes}"]
    phi = named_state("phi")
    for theta in (1.0, 0.37, 2.5):
        rep = quiet(ge_rep, theta)
        generated = apply(evaluate(rep, parse_braid_word("s1 s2", 3)), basis_state("000"))
        err = np.max(np.abs(generated.amplitudes - np.exp(2j * theta) * phi.amplitudes))
        ok = ok and err <= 1e-12
        details.append(f"theta={theta}: entrywise error {err:.2e}")
    verdict(3, "NUS word closes and s1 s2 |000> = e^(2i theta)|phi>", ok, "; ".join(details))


def test_c4_borromean_pipeline():
    rep = jones_rep()
    closes = closure_check(rep, parse_braid_word(BORROMEAN, 3)).closes
    generated = apply(evaluate(rep, parse_braid_word("s1 s2^-1", 3)), basis_state("000"))
    target = (1 + 1j) / 2 * np.array([1, 0, 0, 0, 0, 0, 0, 1], dtype=complex)
    err = np.max(np.abs(generated.amplitudes - target))
    ok = closes and err <= 1e-12
    verdict(
        4,
        "Borromean word closes and s1 s2^-1 |000> = (1+i)/2 (|000>+|111>)",
        ok,
        f"closes: {closes}, entrywise error {err:.2e}",
    )


def test_c5_residual_profiles():
    ghz_profile = residual_profile(named_state("ghz"))
    phi_profile = residual_profile(named_state("phi"))
    ok = len(ghz_profile.entries) == 6 and len(phi_profile.entries) == 6
    for entry in ghz_profile.entries:
        ok = ok and abs(entry.probability - 0.5) <= 1e-10 and entry.concurrence <= 1e-10
    for entry in phi_profile.entries:
        ok = ok and abs(entry.probability - 0.5) <= 1e-10 and entry.concurrence >= 1 - 1e-10
    verdict(5, "ghz leaves product states, phi leaves Bell states", ok)


def test_c6_local_unitary_equivalence():
    ghz = named_state("ghz")
    phi = named_state("phi")
    plus = apply_local(ghz, [LOCAL_FACTOR] * 3)
    minus = apply_local(ghz, [-LOCAL_FACTOR] * 3)
    closed_form = np.array(
        [(1 + (-1) ** bin(i).count("1")) / 4 for i in range(8)], dtype=complex
    )

    plus_error = np.max(np.abs(plus.amplitudes - phi.amplitudes))
    closed_form_error = np.max(np.abs(plus.amplitudes - closed_form))
    minus_error = np.max(np.abs(minus.amplitudes - (-phi.amplitudes)))
    signed_ok = plus_error <= 1e-12 and closed_form_error <= 1e-12 and minus_error <= 1e-12

    invariants_ok = abs(three_tangle(ghz) - three_tangle(phi)) <= 1e-10
    for qubit in (1, 2, 3):
        s_ghz = vn_entropy(partial_trace(density(ghz), {qubit}))
        s_phi = vn_entropy(partial_trace(density(phi), {qubit}))
        invariants_ok = invariants_ok and abs(s_ghz - s_phi) <= 1e-10
    for pair in ({1, 2}, {1, 3}, {2, 3}):
        c_ghz = concurrence_mixed2(partial_trace(density(ghz), pair))
        c_phi = concurrence_mixed2(partial_trace(density(phi), pair))
        invariants_ok = invariants_ok and abs(c_ghz - c_phi) <= 1e-10

    detail = (
        f"f -> +phi missed by {plus_error:.3e}, "
        f"f -> (1+(-1)^k)/4 missed by {closed_form_error:.3e}, "
        f"-f -> -phi missed by {minus_error:.3e}; invariants agree: {invariants_ok}"
    )
    verdict(
        6,
        "local factors map ghz onto +phi (f) and -phi (-f) and invariants agree",
        signed_ok and invariants_ok,
        detail,
    )


def test_c7_topological_bookkeeping():
    hopf = parse_braid_word("s1 s1", 2)
    borromean = parse_braid_word("s1 s2^-1 s1 s2^-1 s1 s2^-1", 3)
    nus = parse_braid_word(NUS, 3)
    ok = (
        cycle_count(permutation_image(hopf)) == 2
        and cycle_count(permutation_image(borromean)) == 3
        and cycle_count(permutation_image(nus)) == 3
        and exponent_sum(hopf) == 2
        and exponent_sum(borromean) == 0
        and exponent_sum(nus) == 6
    )
    verdict(7, "closure components 2/3/3 and exponent sums 2/0/6", ok)


def test_c8_property_suites():
    tol = 1e-9
    rng = np.random.default_rng(20260810)
    reps = [b2_rep(1.0), ge_rep(1.0), jones_rep()]
    failures = []

    for trial in range(200):
        rep = reps[trial % 3]
        w1 = random_word(rng, rep.strands)
        w2 = random_word(rng, rep.strands)
        residual = np.linalg.norm(
            evaluate(rep, concat(w1, w2)) - evaluate(rep, w1) @ evaluate(rep, w2)
        )
        if residual > tol:
            failures.append(f"homomorphism trial {trial}: {residual:.2e}")

    site_a = BraidWord(3, (GeneratorLetter(1, 1), GeneratorLetter(2, 1), GeneratorLetter(1, 1)))
    site_b = BraidWord(3, (GeneratorLetter(2, 1), GeneratorLetter(1, 1), GeneratorLetter(2, 1)))
    three_strand = [ge_rep(1.0), jones_rep()]
    for trial in range(100):
        rep = three_strand[trial % 2]
        prefix = random_word(rng, 3, max_len=6)
        suffix = random_word(rng, 3, max_len=6)
        w_a = concat(concat(prefix, site_a), suffix)
        w_b = concat(concat(prefix, site_b), suffix)
        residual = np.linalg.norm(evaluate(rep, w_a) - evaluate(rep, w_b))
        if residual > tol:
            failures.append(f"braiding rewrite trial {trial}: {residual:.2e}")

    for trial in range(200):
        state = random_state(rng)
        for qubit in (1, 2, 3):
            total = sum(measure_qubit(state, qubit, b).probability for b in (0, 1))
            if abs(total - 1.0) > tol:
                failures.append(f"completeness trial {trial} qubit {qubit}: {total!r}")

    for trial in range(100):
        state = random_state(rng)
        rotated = apply_local(state, [haar_unitary(2, rng) for _ in range(3)])
        for qubit in (1, 2, 3):
            before = vn_entropy(partial_trace(density(state), {qubit}))
            after = vn_entropy(partial_trace(density(rotated), {qubit}))
            if abs(before - after) > tol:
                failures.append(f"entropy trial {trial} qubit {qubit}")
        for left in ({1}, {2}, {3}, {1, 2}, {1, 3}, {2, 3}):
            delta = np.max(
                np.abs(
                    schmidt_coefficients(state, left) - schmidt_coefficients(rotated, left)
                )
            )
            if delta > tol:
                failures.append(f"schmidt trial {trial} split {sorted(left)}")
        for pair in ({1, 2}, {1, 3}, {2, 3}):
            before = concurrence_mixed2(partial_trace(density(state), pair))
            after = concurrence_mixed2(partial_trace(density(rotated), pair))
            if abs(before - after) > tol:
                failures.append(f"pair concurrence trial {trial} {sorted(pair)}")
        if abs(three_tangle(state) - three_tangle(rotated)) > tol:
            failures.append(f"three-tangle trial {trial}")

    verdict(
        8,
        "seeded property suites (homomorphism, rewrites, completeness, LU invariance)",
        not failures,
        "; ".join(failures[:5]),
    )


def test_c9_three_tangle_oracle_cross_check():
    def residual_tangle(state):
        rho = density(state)
        tangle_1_23 = 4.0 * np.linalg.det(partial_trace(rho, {1}).matrix).real
        c12 = concurrence_mixed2(partial_trace(rho, {1, 2}))
        c13 = concurrence_mixed2(partial_trace(rho, {1, 3}))
        return tangle_1_23 - c12**2 - c13**2

    tol = 1e-8
    ok = True
    details = []
    for name, state, expected in (
        ("ghz", named_state("ghz"), 1.0),
        ("phi", named_state("phi"), 1.0),
        ("w", w_state(), 0.0),
    ):
        closed = three_tangle(state)
        oracle = residual_tangle(state)
        ok = ok and abs(closed - oracle) <= tol and abs(closed - expected) <= tol
        details.append(f"{name}: closed {closed:.10f}, oracle {oracle:.10f}")

    rng = np.random.default_rng(424242)
    worst = 0.0
    for _ in range(100):
        state = random_state(rng)
        worst = max(worst, abs(three_tangle(state) - residual_tangle(state)))
    ok = ok and worst <= tol
    details.append(f"worst random deviation {worst:.2e}")
    verdict(9, "closed-form three-tangle matches the residual-tangle oracle", ok, "; ".join(details))
