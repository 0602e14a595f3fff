import functools
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from braident.braids import (
    BraidWord,
    concat,
    free_reduce,
    inverse,
    parse_braid_word,
    render_braid_word,
)
from braident import reps
from braident.cli import main
from braident.linalg import equal_up_to_phase, haar_unitary, is_unitary
from braident.reps import (
    JONES_A,
    SEGMENT,
    WINDOW,
    b2_rep,
    closure_check,
    evaluate,
    ge_rep,
    generic_rep,
    jones_rep,
    temperley_lieb_generators,
    verify_relations,
    yang_baxter_unitary,
)
from exactgroups import exact_group
from wordcodes import codes_of, word_of

I2 = np.eye(2, dtype=complex)
I4 = np.eye(4, dtype=complex)
I8 = np.eye(8, dtype=complex)

BORROMEAN = "(s1 s2^-1)^3"
NUS = "(s1 s2)^3"


def quiet_rep(builder, *args):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return builder(*args)


def wrapped_angle_distance(a, b):
    return abs((a - b + np.pi) % (2 * np.pi) - np.pi)


def random_word(rng, strands, max_len=12, length=None):
    if length is None:
        length = int(rng.integers(0, max_len + 1))
    codes = [int(rng.integers(1, strands)) * int(rng.choice([1, -1])) for _ in range(length)]
    return word_of(strands, codes)


def unitarity_drift(m):
    return np.linalg.norm(m @ m.conj().T - np.eye(len(m)))


def assert_exact_image(rep, word):
    """evaluate on b2, ge or jones gives e^{i theta e} times the word's exact group
    element, e the exponent sum, within 1e-14 and unitary within 1e-14."""
    codes = codes_of(word)
    group = exact_group(rep.name)
    phase = np.exp(1j * rep.parameters.get("theta", 0.0) * int(np.sign(codes).sum()))
    product = evaluate(rep, word)
    assert np.max(np.abs(product - phase * group.matrix(group.element(codes)))) <= 1e-14
    assert unitarity_drift(product) <= 1e-14


class TestB2Rep:
    def test_generator_square_is_phase(self):
        for theta in (0.0, np.pi / 4):
            rep = quiet_rep(b2_rep, theta)
            m = rep.generator_images[0]
            assert np.allclose(m @ m, np.exp(2j * theta) * I4, atol=1e-12)

    def test_default_angle(self):
        rep = b2_rep()
        assert rep.parameters["theta"] == 1.0
        assert is_unitary(rep.generator_images[0], 1e-12)

    def test_rational_angle_warns(self):
        for theta, fraction in (
            (0.0, "0"),
            (np.pi / 4, "1/4"),
            (np.pi, "1"),
            (np.pi / 3, "1/3"),
            (2 * np.pi / 7, "2/7"),
            (1e4 * np.pi, "10000"),
            ((5000 + 1 / 3) * np.pi, "15001/3"),
        ):
            with pytest.warns(UserWarning, match=rf"^theta = {fraction}\*pi is a rational multiple of pi"):
                b2_rep(theta)

    def test_irrational_angle_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            b2_rep(1.0)
            ge_rep(0.37)
            # 1e11/pi lies 5.1e-7 from the nearest fraction with denominator <= 1000
            b2_rep(1e11)

    def test_vacuous_relations(self):
        report = verify_relations(b2_rep(1.0))
        assert report.passed
        assert report.max_residual == 0.0
        assert report.far_commutation_residuals == ()
        assert report.braiding_residuals == ()


class TestGeRep:
    def test_braiding_relation_holds(self):
        report = verify_relations(ge_rep(1.0), 1e-12)
        assert report.passed
        assert report.braiding_residuals[0][1] <= 1e-12

    def test_images_are_tensor_shifts(self):
        theta = 1.0
        rep = ge_rep(theta)
        u = yang_baxter_unitary(theta)
        assert np.allclose(rep.generator_images[0], np.kron(u, I2))
        assert np.allclose(rep.generator_images[1], np.kron(I2, u))
        assert is_unitary(rep.generator_images[0], 1e-12)
        assert is_unitary(rep.generator_images[1], 1e-12)

    def test_no_angle_warns_since_none_is_faithful(self):
        # the unphased image is a group of order 48 at every angle, so at the
        # default angle (s1 s2^-1)^6 closes, though it has infinite order in B3
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for theta in (0.0, np.pi / 4, 1.0):
                ge_rep(theta)
        assert closure_check(ge_rep(1.0), parse_braid_word("(s1 s2^-1)^6", 3)).closes

    def test_nus_word_closes_with_phase(self):
        # (sigma_1 sigma_2)^3 = -e^{6 i theta} I
        for theta in (1.0, 0.37):
            rep = quiet_rep(ge_rep, theta)
            result = closure_check(rep, parse_braid_word(NUS, 3), 1e-10)
            assert result.closes
            assert wrapped_angle_distance(result.phase, 6 * theta + np.pi) < 1e-10


class TestJonesRep:
    def test_braiding_relation_holds(self):
        report = verify_relations(jones_rep(), 1e-12)
        assert report.passed

    def test_generator_images_are_unitary(self):
        for sigma in jones_rep().generator_images:
            assert is_unitary(sigma, 1e-12)

    def test_phase_parameter_identity(self):
        assert JONES_A**2 + JONES_A**-2 == pytest.approx(-np.sqrt(2), abs=1e-12)

    def test_explicit_inverse_formula(self):
        rep = jones_rep()
        t1, t2 = temperley_lieb_generators()
        for sigma, t in zip(rep.generator_images, (t1, t2)):
            explicit_inverse = JONES_A**-1 * t + JONES_A * I8
            assert np.linalg.norm(sigma @ explicit_inverse - I8) < 1e-12
            assert np.linalg.norm(explicit_inverse - sigma.conj().T) < 1e-12

    def test_temperley_lieb_spectra(self):
        for t in temperley_lieb_generators():
            values = np.linalg.eigvalsh(t)
            distance_to_allowed = np.minimum(np.abs(values), np.abs(values - np.sqrt(2)))
            assert np.max(distance_to_allowed) < 1e-12

    def test_temperley_lieb_sandwich_relations(self):
        t1, t2 = temperley_lieb_generators()
        assert np.linalg.norm(t1 @ t2 @ t1 - t1) < 1e-12
        assert np.linalg.norm(t2 @ t1 @ t2 - t2) < 1e-12


class TestGenericRep:
    def test_matches_product_representation(self):
        rep = generic_rep(yang_baxter_unitary(1.0), 3)
        reference = ge_rep(1.0)
        for built, expected in zip(rep.generator_images, reference.generator_images):
            assert np.allclose(built, expected, atol=1e-14)
        assert rep.relation_report.passed

    def test_identity_block_on_four_strands(self):
        rep = generic_rep(I4, 4)
        assert rep.strands == 4
        assert rep.dimension == 16
        assert rep.relation_report.passed
        assert rep.relation_report.max_residual == 0.0

    def test_swap_satisfies_braiding(self):
        swap = np.array(
            [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
        )
        rep = generic_rep(swap, 3)
        assert rep.relation_report.passed

    def test_diagonal_phase_gate_fails_braiding(self):
        # sigma_1 = D(x)I and sigma_2 = I(x)D are diagonal, so the braid
        # relation reduces to sigma_1 = sigma_2, which fails for this D;
        # the residual is sqrt(2)*|1 - e^{i pi/3}| = sqrt(2).
        diag = np.diag([1.0, 1.0, 1.0, np.exp(1j * np.pi / 3)]).astype(complex)
        rep = generic_rep(diag, 3)
        assert not rep.relation_report.passed
        residual = rep.relation_report.braiding_residuals[0][1]
        assert residual == pytest.approx(np.sqrt(2), abs=1e-12)
        # far commutation still holds by construction
        assert all(r < 1e-14 for _, _, r in rep.relation_report.far_commutation_residuals)

    def test_far_commutation_by_construction(self):
        rep = generic_rep(yang_baxter_unitary(0.9), 5)
        assert all(r < 1e-12 for _, _, r in rep.relation_report.far_commutation_residuals)

    def test_input_validation(self):
        with pytest.raises(ValueError, match="not unitary"):
            generic_rep(2 * I4, 3)
        with pytest.raises(ValueError, match="4x4"):
            generic_rep(I2, 3)
        with pytest.raises(ValueError, match="at least 2"):
            generic_rep(I4, 1)
        with pytest.raises(ValueError, match="at most 8"):
            generic_rep(I4, 9)


class TestRelationReport:
    """The relation residuals are measured once, when first read, and re-judged per tol."""

    @staticmethod
    def spy(monkeypatch):
        placed = []
        pair = reps._pair_residual
        monkeypatch.setattr(
            reps, "_pair_residual", lambda *args: placed.append(args) or pair(*args)
        )
        return placed

    def test_generic_report_is_measured_on_first_read(self, monkeypatch):
        placed = self.spy(monkeypatch)
        rep = generic_rep(haar_unitary(4, np.random.default_rng(330)), 8)
        assert placed == []
        report = rep.relation_report
        assert len(placed) == 6
        assert rep.relation_report is report
        assert len(placed) == 6

    def test_verify_relations_rejudges_without_placing(self, monkeypatch):
        rep = generic_rep(haar_unitary(4, np.random.default_rng(340)), 8)
        placed = self.spy(monkeypatch)
        tols = (1e-17, 1e-10, 1.0, 1e3)
        judged = [verify_relations(rep, tol) for tol in tols]
        assert len(placed) == 6  # measured once, for the first call
        for tol, report in zip(tols, judged):
            assert report == reps._relation_report(rep.blocks, rep.strands, tol)
            assert report.tolerance == tol
        assert [report.passed for report in judged] == [False, False, False, True]

    def test_named_reps_are_judged_at_build(self, monkeypatch):
        placed = self.spy(monkeypatch)
        rep = jones_rep()
        assert len(placed) == 1  # one braiding pair, read by the relation check
        assert verify_relations(rep, 1e-12).passed
        assert len(placed) == 1

    def test_building_and_relations_leave_the_image_group_unbuilt(self, capsys, monkeypatch):
        for rep in (b2_rep(1.0), ge_rep(1.0), jones_rep()):
            verify_relations(rep)
            rep.generator_images
            assert "group" not in rep.__dict__
        rep = jones_rep()
        evaluate(rep, parse_braid_word("s1", 3))
        assert "group" in rep.__dict__
        built = []
        monkeypatch.setattr(reps.Representation, "group", property(built.append))
        for name in ("b2", "ge", "jones"):
            assert main(["relations", "--rep", name]) == 0
        assert built == []


def dense_images(u, strands):
    """sigma_i = I(x)U(x)I on the whole register, built here independently of reps."""
    return [
        np.kron(np.kron(np.eye(2 ** (i - 1)), u), np.eye(2 ** (strands - i - 1)))
        for i in range(1, strands)
    ]


def written_order_product(images, word, dim):
    factors = [images[c - 1] if c > 0 else images[-c - 1].conj().T for c in codes_of(word)]
    return functools.reduce(np.matmul, factors, np.eye(dim, dtype=complex))


def written_order_columns(images, word, dim, columns):
    """The first ``columns`` columns of written_order_product, last letter applied first."""
    out = np.eye(dim, columns, dtype=complex)
    for c in reversed(codes_of(word)):
        out = (images[c - 1] if c > 0 else images[-c - 1].conj().T) @ out
    return out


class TestBlockEvaluation:
    """Generators kept as local blocks agree with their dense register images."""

    @pytest.mark.parametrize("strands", [4, 5, 6, 7, 8])
    def test_generic_evaluate_matches_dense_product(self, strands):
        rng = np.random.default_rng(200 + strands)
        u = haar_unitary(4, rng)
        rep = generic_rep(u, strands)
        images = dense_images(u, strands)
        for _ in range(3):
            word = random_word(rng, strands, max_len=30)
            expected = written_order_product(images, word, 2**strands)
            assert np.max(np.abs(evaluate(rep, word) - expected)) < 1e-12

    @pytest.mark.parametrize("strands", [4, 5, 6, 7, 8])
    def test_generic_relation_residuals_match_dense(self, strands):
        u = haar_unitary(4, np.random.default_rng(300 + strands))
        report = generic_rep(u, strands).relation_report
        images = dense_images(u, strands)
        for i, j, r in report.far_commutation_residuals:
            a, b = images[i - 1], images[j - 1]
            assert np.linalg.norm(a @ b - b @ a) == 0.0
            assert r == 0.0
        assert len(report.braiding_residuals) == strands - 2
        for i, r in report.braiding_residuals:
            a, b = images[i - 1], images[i]
            dense = np.linalg.norm(a @ b @ a - b @ a @ b)
            assert abs(r - dense) <= 1e-12 * dense

    def test_named_reps_evaluate_as_exact_group_elements(self):
        rng = np.random.default_rng(400)
        for rep in (b2_rep(1.0), ge_rep(0.37), jones_rep()):
            n = rep.strands
            for _ in range(40):
                assert_exact_image(rep, random_word(rng, n, max_len=40))
            signs = rng.choice([1, -1], size=10**5)
            for codes in (rng.integers(1, n, size=10**5), signs * rng.integers(1, n, size=10**5)):
                assert_exact_image(rep, word_of(n, codes.tolist()))
            for text in (f"(s1 s{n - 1}^-1)^50000", f"((s{n - 1} s1^-1)^300 s1)^-7", "s1^99999"):
                assert_exact_image(rep, parse_braid_word(text, n))

    def test_disjoint_far_pairs_are_not_placed(self, monkeypatch):
        placed = []
        pair = reps._pair_residual
        monkeypatch.setattr(
            reps, "_pair_residual", lambda *args: placed.append(args) or pair(*args)
        )
        report = generic_rep(haar_unitary(4, np.random.default_rng(310)), 8).relation_report
        assert len(report.far_commutation_residuals) == 15
        assert len(placed) == len(report.braiding_residuals) == 6

    def test_overlapping_far_pairs_are_measured(self):
        rng = np.random.default_rng(320)
        images = dense_images(haar_unitary(4, rng), 4)
        third = haar_unitary(16, rng)
        blocks = ((images[0], 1), (images[1], 1), (third, 1))  # all on the whole register
        report = reps._relation_report(blocks, 4, 1e-10)
        ((i, j, r),) = report.far_commutation_residuals
        assert (i, j) == (1, 3)
        dense = np.linalg.norm(images[0] @ third - third @ images[0])
        assert dense > 1 and abs(r - dense) <= 1e-12 * dense

    def test_unitarity_is_checked_at_register_scale(self):
        # ||U U^dag - I||_F = 2e-11 passes on its own, but the image on
        # 8 strands repeats that defect 64 times: sqrt(64) * 2e-11 > 1e-10
        u = np.sqrt(1 + 1e-11) * I4
        assert is_unitary(u, 1e-10)
        generic_rep(u, 2)
        assert not is_unitary(dense_images(u, 8)[0], 1e-10)
        with pytest.raises(ValueError, match="generator 1 is not unitary"):
            generic_rep(u, 8)


class TestSegmentFold:
    """On b2, ge and jones every word is its exact group element times a phase.  On a
    whole-register float rep a word of at most SEGMENT letters is the left fold bit
    for bit; a longer one is freely reduced first."""

    REPS = None

    @classmethod
    def setup_class(cls):
        cls.WHOLE = generic_rep(haar_unitary(4, np.random.default_rng(505)), 2)
        cls.REPS = [b2_rep(1.0), ge_rep(0.37), jones_rep(), cls.WHOLE]

    @pytest.mark.parametrize(
        "length",
        [SEGMENT - 1, SEGMENT, SEGMENT + 1, 3 * SEGMENT - 1, 3 * SEGMENT, 3 * SEGMENT + 17],
    )
    def test_matches_dense_written_order_product(self, length):
        rng = np.random.default_rng(500 + length)
        for rep in self.REPS:
            word = random_word(rng, rep.strands, length=length)
            product = evaluate(rep, word)
            expected = written_order_product(rep.generator_images, word, rep.dimension)
            if rep is not self.WHOLE:
                assert_exact_image(rep, word)
            if rep is self.WHOLE and length <= SEGMENT:
                assert product.tobytes() == expected.tobytes()
            else:
                assert np.max(np.abs(product - expected)) < 1e-12
                eye = np.eye(rep.dimension)
                assert np.linalg.norm(product @ product.conj().T - eye) <= 1e-10

    def test_is_a_homomorphism_past_a_segment(self):
        rng = np.random.default_rng(510)
        for rep in self.REPS:
            w1 = random_word(rng, rep.strands, length=2 * SEGMENT + 5)
            w2 = random_word(rng, rep.strands, length=SEGMENT + 40)
            lhs = evaluate(rep, concat(w1, w2))
            rhs = evaluate(rep, w1) @ evaluate(rep, w2)
            assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_local_blocks_past_a_segment(self):
        rng = np.random.default_rng(520)
        u = haar_unitary(4, rng)
        word = random_word(rng, 5, length=SEGMENT + 60)
        expected = written_order_product(dense_images(u, 5), word, 32)
        assert np.max(np.abs(evaluate(generic_rep(u, 5), word) - expected)) < 1e-12


def uncancelled_codes(rng, strands, length):
    """Random signed codes of which no two neighbours cancel, so free reduction keeps all."""
    codes = []
    while len(codes) < length:
        c = int(rng.integers(1, strands)) * int(rng.choice([1, -1]))
        if not codes or c != -codes[-1]:
            codes.append(c)
    return codes


class TestReducedFold:
    """On float reps a stretch of more than SEGMENT letters is freely reduced, and only
    what is left is multiplied out."""

    REPS = None

    @classmethod
    def setup_class(cls):
        cls.WHOLE = generic_rep(haar_unitary(4, np.random.default_rng(535)), 2)
        cls.REPS = [b2_rep(1.0), ge_rep(0.37), jones_rep(), cls.WHOLE]

    def test_long_literal_words_match_the_dense_product(self, monkeypatch):
        rng = np.random.default_rng(530)
        for rep in self.REPS:
            word = random_word(rng, rep.strands, length=8 * SEGMENT)
            product = evaluate(rep, word)
            expected = written_order_product(rep.generator_images, word, rep.dimension)
            assert np.linalg.norm(product - expected) <= 1e-12 * np.linalg.norm(expected)
            if rep is not self.WHOLE:  # read in the image group, which reduces no letters
                assert_exact_image(rep, word)
                continue
            with monkeypatch.context() as m:
                m.setattr(reps, "free_reduce_codes", list)  # every written letter multiplied
                unreduced = evaluate(rep, word)
            assert unitarity_drift(product) <= unitarity_drift(unreduced)

    def test_a_word_that_reduces_to_one_segment_takes_the_letter_loop(self):
        rng = np.random.default_rng(550)
        rep = self.WHOLE
        w = random_word(rng, 2, length=2 * SEGMENT)
        tail = word_of(2, uncancelled_codes(rng, 2, SEGMENT))
        word = concat(concat(w, inverse(w)), tail)
        assert free_reduce(word) == free_reduce(tail) == tail
        expected = written_order_product(rep.generator_images, tail, rep.dimension)
        assert evaluate(rep, word).tobytes() == expected.tobytes()


class TestTableFold:
    """Words that cannot cancel: b2, ge and jones reduce them through the Cayley table
    of their image group, and a whole-register float rep multiplies every letter."""

    REPS = None

    @classmethod
    def setup_class(cls):
        u = haar_unitary(4, np.random.default_rng(565))
        cls.REPS = [b2_rep(1.0), ge_rep(0.37), jones_rep(), generic_rep(u, 2)]

    @staticmethod
    def check(rep, word):
        product = evaluate(rep, word)
        expected = written_order_product(rep.generator_images, word, rep.dimension)
        assert np.max(np.abs(product - expected)) < 1e-12
        assert unitarity_drift(product) <= 1e-10
        if rep.name != "generic":
            assert_exact_image(rep, word)

    @pytest.mark.parametrize("length", [3 * SEGMENT, 3 * SEGMENT + 1, 5 * SEGMENT + 3])
    def test_positive_words_match_the_dense_product(self, length):
        rng = np.random.default_rng(560 + length)
        for rep in self.REPS:
            self.check(rep, word_of(rep.strands, rng.integers(1, rep.strands, size=length).tolist()))

    @pytest.mark.parametrize("length", [SEGMENT + 1, 3 * SEGMENT - 1])
    def test_stretches_past_one_segment_reach_the_table(self, length):
        rng = np.random.default_rng(590 + length)
        for rep in self.REPS:
            self.check(rep, word_of(rep.strands, uncancelled_codes(rng, rep.strands, length)))

    def test_a_stretch_between_runs_reaches_the_table(self):
        rng = np.random.default_rng(595)
        for rep in self.REPS:
            n = rep.strands
            middle = render_braid_word(word_of(n, uncancelled_codes(rng, n, 300)))
            word = parse_braid_word(f"(s1 s{n - 1})^200 {middle} (s{n - 1} s1)^-150", n)
            assert [(start, period * count) for start, period, count, _ in word.powers] == [
                (0, 400), (700, 300)
            ]
            self.check(rep, word)

    def test_long_word_keeps_no_image_per_letter(self):
        rep = jones_rep()
        word = word_of(3, np.random.default_rng(580).integers(1, 3, size=10**5).tolist())
        evaluate(rep, word)  # builds the rep's cached steps outside the measurement
        tracemalloc.start()
        try:
            evaluate(rep, word)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # Measured 2.9 MB: the letter codes and their group elements as arrays.
        # Gathering every letter's 8x8 image at once would add about 100 MB.
        assert peak < 8 * 10**6


POWERED_WORDS = [
    "((s1 s2^-1)^300 s2)^-7",
    "(s1 (s2^-1 s1)^200 s2)^-3 s1",
    "((s1)^-500 (s2 s1)^-130)^-2",
    "(s1^300)^-2",
    "s1^1000",
    "(s1 s2)^0",
    "(s2 ((s1 s2^-1)^150 s2)^2)^-3",
    # runs of SEGMENT + 1 letters
    "s1^257",
    "(s2^-1)^-257",
    "s2 (s1 s2^-1 s1)^-86 s1",
]


class TestPowerRuns:
    """A power run is its period's group element repeated count mod order times on b2,
    ge and jones; on float reps a run of more than SEGMENT letters is raised to its
    count by squaring."""

    REPS = None

    @classmethod
    def setup_class(cls):
        u = haar_unitary(4, np.random.default_rng(600))
        cls.REPS = [b2_rep(1.0), ge_rep(0.37), jones_rep(), generic_rep(u, 5)]

    def parsed(self, text, rep):
        # b2 has the one generator s1, so its words spell every s2 as s1
        return parse_braid_word(text if rep.strands > 2 else text.replace("s2", "s1"), rep.strands)

    @pytest.mark.parametrize("text", POWERED_WORDS)
    def test_matches_flat_copy(self, text):
        for rep in self.REPS:
            word = self.parsed(text, rep)
            product = evaluate(rep, word)
            flat = evaluate(rep, BraidWord(rep.strands, word.codes))
            assert np.max(np.abs(product - flat)) < 1e-12
            eye = np.eye(rep.dimension)
            assert np.linalg.norm(product @ product.conj().T - eye) <= 1e-10

    @pytest.mark.parametrize("text", ["(s1 s2^-1)^128", "(s2 s1^-1 s1^-1 s2)^-64", "s1^256"])
    def test_runs_of_a_segment_are_bitwise_the_letter_loop(self, text):
        for rep in self.REPS:
            word = self.parsed(text, rep)
            assert len(word) == SEGMENT
            flat = BraidWord(rep.strands, word.codes)
            assert evaluate(rep, word).tobytes() == evaluate(rep, flat).tobytes()

    def test_only_long_runs_are_powered(self, monkeypatch):
        counts = []
        power = np.linalg.matrix_power

        def spy(q, count):
            counts.append(count)
            return power(q, count)

        monkeypatch.setattr(np.linalg, "matrix_power", spy)
        rep = generic_rep(haar_unitary(4, np.random.default_rng(610)), 3)
        evaluate(rep, parse_braid_word("s1 ((s2 s1^-1)^200 s2)^-3 (s1 s2)^128", 3))
        assert counts == [200, 3]  # the inner run first, while evaluating the outer period
        counts.clear()
        evaluate(rep, parse_braid_word("(s1 s2)^128 s1^256", 3))
        assert counts == []
        evaluate(rep, parse_braid_word("s1^257 (s1 s2^-1 s1)^-86", 3))
        assert counts == [257, 86]


class TestFusedLetters:
    """On local blocks, evaluate fuses letters into groups of at most WINDOW qubits."""

    def check(self, u, word, rep=None):
        n, dim = word.strands, 2**word.strands
        product = evaluate(rep or generic_rep(u, n), word)
        images = dense_images(u, n)
        if n <= 6:
            expected = written_order_product(images, word, dim)
        else:  # the full dense product of 300 letters at d = 256 takes seconds
            expected = written_order_columns(images, word, dim, 16)
            product = product[:, :16]
            assert np.linalg.norm(product.conj().T @ product - np.eye(16)) <= 1e-10
        assert np.max(np.abs(product - expected)) < 1e-12
        if n <= 6:
            assert np.linalg.norm(product @ product.conj().T - np.eye(dim)) <= 1e-10

    @pytest.mark.parametrize("strands", range(2, 9))
    def test_random_words_match_dense_product(self, strands):
        rng = np.random.default_rng(700 + strands)
        u = haar_unitary(4, rng)
        rep = generic_rep(u, strands)
        for length in (0, 1, 2, 3, 7, 60, 140, 300):
            self.check(u, random_word(rng, strands, length=length), rep)

    @pytest.mark.parametrize("text", [t for t in POWERED_WORDS if "^0" not in t])
    @pytest.mark.parametrize("strands", [3, 5])
    def test_powered_words_fuse_the_period(self, strands, text):
        u = haar_unitary(4, np.random.default_rng(710))
        word = parse_braid_word(text, strands)
        assert any(period * count > SEGMENT for _, period, count, _ in word.powers)
        self.check(u, word)
        rep = generic_rep(u, strands)
        flat = evaluate(rep, BraidWord(strands, word.codes))
        assert np.max(np.abs(evaluate(rep, word) - flat)) < 1e-12

    @pytest.mark.parametrize("strands", [6, 8])
    def test_letters_fuse_past_commuting_groups(self, strands):
        u = haar_unitary(4, np.random.default_rng(720))
        rep = generic_rep(u, strands)
        codes = [1, 4, 2, 5, 1]  # s1 s4 s2 s5 s1: groups s1 s2 s1 and s4 s5
        groups = list(reps._fused_steps(rep, codes))
        windows = rep.window_steps
        assert [shape for _, shape in groups] == [windows[1, 1][1], windows[4, 4][1]]
        # the transposed product of s1 s2 s1, each placed on the window of qubits 1-3
        s = [None] + [image.T for image in dense_images(u, WINDOW)]
        np.testing.assert_array_equal(groups[0][0], s[1] @ (s[2] @ s[1]))
        self.check(u, parse_braid_word("s1 s4 s2 s5 s1", strands), rep)

    def test_windows_cover_every_block_that_fits(self):
        u = haar_unitary(4, np.random.default_rng(730))
        assert generic_rep(u, 2).window_steps == {}  # no 3-qubit window on 2 qubits
        assert sorted(generic_rep(u, 3).window_steps) == [(c, 1) for c in (-2, -1, 1, 2)]
        table = generic_rep(u, 5).window_steps
        # s_i acts on qubits i and i + 1, which fit the windows from i - 1 and from i
        signed = (-4, -3, -2, -1, 1, 2, 3, 4)
        assert sorted(table) == sorted(
            (c, w) for c in signed for w in (abs(c) - 1, abs(c)) if 1 <= w <= 3
        )
        for (c, w), (image, _) in table.items():
            block = u.T if c > 0 else u.conj()
            i = abs(c)
            expected = np.kron(np.kron(np.eye(2 ** (i - w)), block), np.eye(2 ** (w + 1 - i)))
            np.testing.assert_array_equal(image, expected)


class TestClosurePhase:
    """Closing words against closed-form phases that share no code with reps.py.

    On ge, (s1 s2)^3 is e^{6i theta} times (UI IU)^3 of the unphased
    matrices, which is -I; the Borromean word (s1 s2^-1)^3 is -I on jones.
    """

    @staticmethod
    def assert_closes_with_phase(rep, text, phase):
        result = closure_check(rep, parse_braid_word(text, 3))
        assert result.closes
        assert wrapped_angle_distance(result.phase, phase) <= 1e-9

    @given(st.floats(min_value=0.3, max_value=2.8), st.integers(min_value=1, max_value=5000))
    @example(1.0, 20000)
    @settings(deadline=None)
    def test_ge_nus_powers(self, theta, m):
        rep = quiet_rep(ge_rep, theta)
        self.assert_closes_with_phase(rep, f"(s1 s2)^{3 * m}", 6 * m * theta + m * np.pi)

    @given(st.integers(min_value=1, max_value=5000))
    @example(20000)
    @settings(deadline=None)
    def test_jones_borromean_powers(self, m):
        self.assert_closes_with_phase(jones_rep(), f"(s1 s2^-1)^{3 * m}", m * np.pi)


class TestEvaluate:
    def test_written_order_product(self):
        rep = ge_rep(1.0)
        word = parse_braid_word("s1 s2", 3)
        expected = rep.generator_images[0] @ rep.generator_images[1]
        assert np.allclose(evaluate(rep, word), expected, atol=1e-14)

    def test_empty_word_is_identity(self):
        assert np.allclose(evaluate(jones_rep(), BraidWord(3)), I8)

    def test_b2_square_at_zero_angle(self):
        rep = quiet_rep(b2_rep, 0.0)
        assert np.allclose(evaluate(rep, parse_braid_word("s1 s1", 2)), I4, atol=1e-13)

    def test_inverse_pair_cancels_exactly(self):
        rep = jones_rep()
        out = evaluate(rep, parse_braid_word("s1 s1^-1", 3))
        assert np.linalg.norm(out - I8) < 1e-14

    def test_strand_mismatch(self):
        with pytest.raises(ValueError, match="strands"):
            evaluate(b2_rep(1.0), parse_braid_word("s1", 3))


class TestClosureCheck:
    def test_borromean_word_closes_to_minus_identity(self):
        result = closure_check(jones_rep(), parse_braid_word(BORROMEAN, 3))
        assert result.closes
        assert wrapped_angle_distance(abs(result.phase), np.pi) < 1e-10
        matrix = evaluate(jones_rep(), parse_braid_word(BORROMEAN, 3))
        assert np.linalg.norm(matrix + I8) < 1e-12

    def test_nus_word_closes(self):
        assert closure_check(ge_rep(1.0), parse_braid_word(NUS, 3)).closes

    def test_open_word_does_not_close(self):
        result = closure_check(ge_rep(1.0), parse_braid_word("s1 s2", 3))
        assert not result.closes
        assert result.phase is None


class TestRepresentationProperties:
    REPS = None

    def test_equality_is_identity(self):
        rep = b2_rep(1.0)
        assert (rep == b2_rep(1.0)) is False
        assert (rep == rep) is True

    @classmethod
    def setup_class(cls):
        cls.REPS = [b2_rep(1.0), ge_rep(1.0), jones_rep()]

    def test_evaluate_is_a_homomorphism(self):
        rng = np.random.default_rng(101)
        for rep in self.REPS:
            for _ in range(30):
                w1 = random_word(rng, rep.strands)
                w2 = random_word(rng, rep.strands)
                lhs = evaluate(rep, concat(w1, w2))
                rhs = evaluate(rep, w1) @ evaluate(rep, w2)
                assert np.linalg.norm(lhs - rhs) < 1e-12

    def test_inverse_word_is_dagger(self):
        rng = np.random.default_rng(102)
        for rep in self.REPS:
            for _ in range(20):
                word = random_word(rng, rep.strands)
                assert (
                    np.linalg.norm(evaluate(rep, inverse(word)) - evaluate(rep, word).conj().T)
                    < 1e-12
                )

    def test_evaluate_invariant_under_free_reduction(self):
        rng = np.random.default_rng(103)
        for rep in self.REPS:
            for _ in range(20):
                word = random_word(rng, rep.strands)
                assert (
                    np.linalg.norm(evaluate(rep, word) - evaluate(rep, free_reduce(word)))
                    < 1e-12
                )

    def test_braiding_rewrite_invariance(self):
        rng = np.random.default_rng(104)
        for rep in (ge_rep(1.0), jones_rep()):
            for _ in range(25):
                prefix = random_word(rng, 3, max_len=5)
                suffix = random_word(rng, 3, max_len=5)
                site_a = word_of(3, [1, 2, 1])
                site_b = word_of(3, [2, 1, 2])
                w_a = concat(concat(prefix, site_a), suffix)
                w_b = concat(concat(prefix, site_b), suffix)
                assert np.linalg.norm(evaluate(rep, w_a) - evaluate(rep, w_b)) < 1e-11

    def test_b2_infinite_order_phase_witness(self):
        # evaluate(s1^{2k}) = e^{2k i theta} I with theta = 1.0; the phase
        # 2k mod 2pi never returns to zero for k = 1..20
        rep = b2_rep(1.0)
        for k in range(1, 21):
            word = parse_braid_word(f"s1^{2 * k}", 2)
            phase = equal_up_to_phase(evaluate(rep, word), I4, 1e-9)
            assert phase is not None
            assert wrapped_angle_distance(phase, 2 * k) < 1e-9
            assert wrapped_angle_distance(phase, 0.0) > 1e-3
