import json

import numpy as np
import pytest

from braident.cli import main


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestRelations:
    @pytest.mark.parametrize("rep", ["b2", "ge", "jones"])
    def test_all_representations_pass(self, capsys, rep):
        code, doc = run_json(capsys, ["relations", "--rep", rep, "--format", "json"])
        assert code == 0
        assert doc["passed"] is True
        assert doc["max_residual"] <= 1e-12

    def test_b2_has_vacuous_relations(self, capsys):
        code, doc = run_json(capsys, ["relations", "--rep", "b2", "--format", "json"])
        assert code == 0
        assert doc["far_commutation"] == []
        assert doc["braiding"] == []

    def test_unknown_representation_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main(["relations", "--rep", "burau"])
        assert err.value.code == 2

    def test_impossible_tolerance_fails_with_exit_1(self, capsys):
        code, doc = run_json(
            capsys, ["relations", "--rep", "jones", "--tol", "1e-17", "--format", "json"]
        )
        assert code == 1
        assert doc["passed"] is False

    def test_text_format(self, capsys):
        code = main(["relations", "--rep", "jones"])
        out = capsys.readouterr().out
        assert code == 0
        assert "result: PASS" in out


class TestEval:
    def test_borromean_word_closes(self, capsys):
        code, doc = run_json(
            capsys,
            ["eval", "--rep", "jones", "--word", "(s1 s2^-1)^3", "--format", "json"],
        )
        assert code == 0
        assert doc["closure"]["closes"] is True
        assert abs(abs(doc["closure"]["phase"]) - np.pi) < 1e-10

    def test_nus_word_closes(self, capsys):
        code, doc = run_json(
            capsys, ["eval", "--rep", "ge", "--word", "(s1 s2)^3", "--format", "json"]
        )
        assert code == 0
        assert doc["closure"]["closes"] is True

    def test_single_generator_does_not_close(self, capsys):
        code, doc = run_json(
            capsys, ["eval", "--rep", "b2", "--word", "s1", "--format", "json"]
        )
        assert code == 0
        assert doc["closure"]["closes"] is False
        assert doc["closure"]["phase"] is None

    def test_matrix_is_row_major_pairs(self, capsys):
        code, doc = run_json(
            capsys, ["eval", "--rep", "b2", "--word", "", "--format", "json"]
        )
        assert code == 0
        matrix = doc["matrix"]
        assert matrix[0][0] == [1.0, 0.0]
        assert matrix[0][1] == [0.0, 0.0]

    def test_word_syntax_error_exits_2(self, capsys):
        code = main(["eval", "--rep", "jones", "--word", "s9"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_negative_exponent_form_theta_after_a_space(self, capsys):
        code, doc = run_json(
            capsys, ["eval", "--rep", "b2", "--word", "s1", "--theta", "-1e-3", "--format", "json"]
        )
        assert code == 0
        assert doc["representation"]["parameters"]["theta"] == -1e-3
        assert run_json(
            capsys, ["eval", "--rep", "b2", "--word", "s1", "--theta=-1e-3", "--format", "json"]
        ) == (code, doc)

    @pytest.mark.parametrize("theta", ["nan", "inf", "-inf"])
    def test_non_finite_theta_exits_2(self, capsys, theta):
        code = main(["eval", "--rep", "b2", "--word", "s1", f"--theta={theta}"])
        assert code == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")


class TestEntangle:
    def test_jones_word_builds_ghz(self, capsys):
        code, doc = run_json(
            capsys,
            ["entangle", "--rep", "jones", "--word", "s1 s2^-1", "--format", "json"],
        )
        assert code == 0
        assert doc["matched_state"] == "ghz"
        assert doc["named_overlaps"]["ghz"] == pytest.approx(1.0, abs=1e-12)
        assert doc["analysis"]["three_tangle"] == pytest.approx(1.0, abs=1e-10)
        for entry in doc["analysis"]["residual_profile"]:
            assert entry["concurrence"] == pytest.approx(0.0, abs=1e-10)

    def test_ge_word_builds_phi(self, capsys):
        code, doc = run_json(
            capsys, ["entangle", "--rep", "ge", "--word", "s1 s2", "--format", "json"]
        )
        assert code == 0
        assert doc["matched_state"] == "phi"
        for entry in doc["analysis"]["residual_profile"]:
            assert entry["probability"] == pytest.approx(0.5, abs=1e-10)
            assert entry["concurrence"] == pytest.approx(1.0, abs=1e-10)

    def test_b2_word_builds_bell(self, capsys):
        code, doc = run_json(
            capsys, ["entangle", "--rep", "b2", "--word", "s1", "--format", "json"]
        )
        assert code == 0
        assert doc["matched_state"] == "bell"
        assert doc["analysis"]["concurrence"] == pytest.approx(1.0, abs=1e-10)

    def test_inline_state_input(self, capsys):
        code, doc = run_json(
            capsys,
            [
                "entangle", "--rep", "ge", "--word", "", "--state", "011",
                "--format", "json",
            ],
        )
        assert code == 0
        assert doc["output_state"]["amplitudes"][0b011] == [1.0, 0.0]

    def test_state_file_round_trip(self, capsys, tmp_path):
        code, doc = run_json(
            capsys, ["entangle", "--rep", "ge", "--word", "s1 s2", "--format", "json"]
        )
        assert code == 0
        state_file = tmp_path / "state.json"
        state_file.write_text(json.dumps(doc["output_state"]))

        code, doc2 = run_json(
            capsys,
            [
                "entangle", "--rep", "ge", "--word", "", "--state", f"@{state_file}",
                "--format", "json",
            ],
        )
        assert code == 0
        assert doc2["input_state"] == doc["output_state"]

        # a whole previous result document is also accepted
        full_file = tmp_path / "full.json"
        full_file.write_text(json.dumps(doc))
        code, doc3 = run_json(
            capsys,
            [
                "entangle", "--rep", "ge", "--word", "", "--state", f"@{full_file}",
                "--format", "json",
            ],
        )
        assert code == 0
        assert doc3["input_state"] == doc["output_state"]

    def test_state_qubit_mismatch_exits_2(self, capsys):
        code = main(["entangle", "--rep", "b2", "--word", "s1", "--state", "000"])
        assert code == 2
        assert "qubits" in capsys.readouterr().err


class TestLuCheck:
    def test_default_reports_sign_mismatch(self, capsys):
        code, doc = run_json(capsys, ["lu-check", "--format", "json"])
        assert code == 1
        checks = doc["checks"]
        assert checks["target"] == "-phi"
        assert checks["signed_equality_to_target"] is False
        assert checks["max_entry_error_vs_target"] == pytest.approx(1.0, abs=1e-10)
        assert checks["max_entry_error_vs_plus_phi"] == pytest.approx(0.0, abs=1e-12)
        assert checks["overlap_modulus_with_phi"] == pytest.approx(1.0, abs=1e-12)
        assert doc["invariants"]["all_agree"] is True
        ghz_entries = doc["residual_profiles"]["ghz"]
        phi_entries = doc["residual_profiles"]["phi"]
        assert all(e["concurrence"] == pytest.approx(0.0, abs=1e-10) for e in ghz_entries)
        assert all(e["concurrence"] == pytest.approx(1.0, abs=1e-10) for e in phi_entries)

    def test_identity_factors_pass(self, capsys):
        code, doc = run_json(capsys, ["lu-check", "--factors", "identity", "--format", "json"])
        assert code == 0
        assert doc["passed"] is True
        assert doc["checks"]["target"] == "ghz"
        assert doc["checks"]["max_entry_error_vs_target"] == pytest.approx(0.0, abs=1e-12)

    def test_random_factors_preserve_invariants(self, capsys):
        code, doc = run_json(
            capsys,
            ["lu-check", "--factors", "random-unitary", "--seed", "7", "--format", "json"],
        )
        assert code == 0
        assert doc["invariants"]["all_agree"] is True

    def test_deterministic_given_seed(self, capsys):
        _, doc1 = run_json(
            capsys,
            ["lu-check", "--factors", "random-unitary", "--seed", "3", "--format", "json"],
        )
        _, doc2 = run_json(
            capsys,
            ["lu-check", "--factors", "random-unitary", "--seed", "3", "--format", "json"],
        )
        assert doc1 == doc2

    def test_factor_file(self, capsys, tmp_path):
        hadamard = [[[2**-0.5, 0.0], [2**-0.5, 0.0]], [[2**-0.5, 0.0], [-(2**-0.5), 0.0]]]
        factor_file = tmp_path / "factors.json"
        factor_file.write_text(json.dumps(hadamard))
        code, doc = run_json(
            capsys, ["lu-check", "--factors", f"@{factor_file}", "--format", "json"]
        )
        assert code == 0
        assert doc["invariants"]["all_agree"] is True

    def test_non_unitary_factor_file_exits_2(self, capsys, tmp_path):
        bad = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [2.0, 0.0]]]
        factor_file = tmp_path / "bad.json"
        factor_file.write_text(json.dumps(bad))
        code = main(["lu-check", "--factors", f"@{factor_file}"])
        assert code == 2
        assert "not unitary" in capsys.readouterr().err

    def test_unknown_factor_spec_exits_2(self, capsys):
        code = main(["lu-check", "--factors", "bogus"])
        assert code == 2


class TestLinksAndRender:
    def test_hopf_summary(self, capsys):
        code, doc = run_json(
            capsys,
            ["links", "--word", "s1 s1", "--strands", "2", "--format", "json"],
        )
        assert code == 0
        assert doc["components"] == 2
        assert doc["exponent_sum"] == 2
        assert doc["named_match"] == "hopf"

    def test_borromean_summary(self, capsys):
        code, doc = run_json(
            capsys,
            [
                "links", "--word", "s1 s2^-1 s1 s2^-1 s1 s2^-1", "--strands", "3",
                "--format", "json",
            ],
        )
        assert code == 0
        assert doc["components"] == 3
        assert doc["exponent_sum"] == 0
        assert doc["named_match"] == "borromean_word"

    def test_empty_word_unlink(self, capsys):
        code, doc = run_json(
            capsys, ["links", "--word", "", "--strands", "3", "--format", "json"]
        )
        assert code == 0
        assert doc["components"] == 3
        assert doc["named_match"] is None

    def test_diagram_included_on_request(self, capsys):
        code, doc = run_json(
            capsys,
            [
                "links", "--word", "s1", "--strands", "2", "--diagram",
                "--ascii-only", "--format", "json",
            ],
        )
        assert code == 0
        assert "\\   /" in doc["diagram"]

    def test_strand_range_enforced(self, capsys):
        code = main(["links", "--word", "s1", "--strands", "9"])
        assert code == 2

    def test_render_json(self, capsys):
        code, doc = run_json(
            capsys,
            [
                "render", "--word", "(s1 s2)^3", "--strands", "3",
                "--ascii-only", "--format", "json",
            ],
        )
        assert code == 0
        assert doc["diagram"].count("\\   /") == 6  # six positive crossing bands

    def test_render_text(self, capsys):
        code = main(["render", "--word", "s1", "--strands", "2", "--ascii-only"])
        out = capsys.readouterr().out
        assert code == 0
        assert "braid on 2 strands: s1" in out
