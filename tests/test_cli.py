import contextlib
import io
import json
import math
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braident import cli
from braident.cli import cmd_render, entry, main
from exactgroups import exact_group


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def assert_one_error_line(err: str) -> None:
    assert err.startswith("error:")
    assert err.count("\n") == 1 and err.endswith("\n")


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

    @pytest.mark.parametrize("rep", ["b2", "ge", "jones"])
    def test_faithfulness_follows_the_exact_group(self, capsys, rep):
        # the unphased image is finite (tests/exactgroups.py).  On 2 strands its
        # generator squares to I and is no scalar, so s1^(2q) is I exactly when
        # theta = p pi / q; on 3 strands B3's infinite commutator subgroup, whose
        # words have exponent sum 0 and so no phase, lands in it
        group = exact_group(rep)
        assert len(group.elements) == {"b2": 2, "ge": 48, "jones": 192}[rep]
        statement = (
            "exactly when theta/pi is irrational" if rep == "b2" else "at no theta"
        )
        code, doc = run_json(capsys, ["relations", "--rep", rep, "--format", "json"])
        assert code == 0 and doc["faithful"].startswith(statement + " (")
        main(["relations", "--rep", rep])
        lines = capsys.readouterr().out.splitlines()
        assert lines[-2:] == [f"faithful: {doc['faithful']}", "result: PASS"]


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

    @pytest.mark.parametrize(
        "rep,theta,word,phase",
        [
            # (s1 s2^-1)^3 is -I on jones; (s1 s2)^3 is -e^{6i theta} I on ge
            ("jones", 1.0, "(s1 s2^-1)^480000", 0.0),
            ("ge", 0.3, "(s1 s2)^480000", 960000 * 0.3),
            ("ge", 2.8, "(s1 s2)^480000", 960000 * 2.8),
        ],
    )
    def test_longest_closing_words_close(self, capsys, rep, theta, word, phase):
        argv = ["eval", "--rep", rep, "--word", word, "--theta", str(theta), "--format", "json"]
        code, doc = run_json(capsys, argv)
        assert code == 0
        assert doc["closure"]["closes"] is True
        assert abs((doc["closure"]["phase"] - phase + np.pi) % (2 * np.pi) - np.pi) < 1e-9

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

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["links", "--word=--", "--strands", "2"], "unexpected character '-'"),
            (["entangle", "--rep", "b2", "--word", "s1", "--state=--"], "basis label"),
        ],
    )
    def test_double_dash_attached_to_an_option_is_its_value(self, capsys, argv, message):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert_one_error_line(err)
        assert message in err

    @pytest.mark.parametrize("theta", ["nan", "inf", "-inf"])
    def test_non_finite_theta_exits_2(self, capsys, theta):
        for rep in ("b2", "ge", "jones"):  # jones reads no angle but rejects a bad one too
            code = main(["eval", "--rep", rep, "--word", "s1", f"--theta={theta}"])
            assert code == 2
            lines = capsys.readouterr().err.splitlines()
            assert lines == [f"error: theta must be finite, got {float(theta)}"]


class TestWarningCapture:
    def test_a_warning_of_a_run_that_succeeds_prints_on_one_line(self, monkeypatch, capsys):
        def warning_render(args):
            warnings.warn("from the command", UserWarning)
            return cmd_render(args)

        argv = ["render", "--word", "s1", "--strands", "2"]
        assert main(argv) == 0
        quiet = capsys.readouterr()
        monkeypatch.setattr(cli, "cmd_render", warning_render)
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert quiet.err == "" and captured.out == quiet.out
        assert captured.err == "warning: from the command\n"

    def test_overflow_warnings_of_a_failing_run_leave_one_error_line(self, capsys, tmp_path):
        # numpy warns "overflow encountered in matmul" on these factors and
        # "overflow encountered in dot" on this state
        factors = [[[1e308, 0.0], [1e308, 0.0]]] * 2
        state = {"qubits": 3, "amplitudes": [[1e308, 0.0]] * 8}
        for argv, document in ((FACTORS_OPTION, factors), (STATE_OPTION, state)):
            path = tmp_path / "input.json"
            path.write_text(json.dumps(document))
            code = main(argv + [f"@{path}"])
            captured = capsys.readouterr()
            assert code == 2 and captured.out == ""
            assert_one_error_line(captured.err)


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

    def test_loose_tol_names_the_closest_state(self, capsys):
        # ghz's overlap 0.354 is within 0.7 of 1 too, but phi's is 1
        argv = ["entangle", "--rep", "ge", "--word", "s1 s2", "--tol", "0.7"]
        code, doc = run_json(capsys, argv + ["--format", "json"])
        assert code == 0
        assert doc["named_overlaps"]["ghz"] == pytest.approx(2**-1.5, abs=1e-12)
        assert doc["matched_state"] == "phi"
        assert main(argv) == 0
        assert "matched named state: phi\n" in capsys.readouterr().out

    def test_unnormalized_state_file_names_its_norm_as_a_float(self, capsys, tmp_path):
        path = tmp_path / "state.json"
        path.write_text(json.dumps({"qubits": 2, "amplitudes": [[1.0, 0.0]] * 4}))
        assert main(["entangle", "--rep", "b2", "--word", "s1", "--state", f"@{path}"]) == 2
        err = capsys.readouterr().err
        assert err == "error: state is not normalized: |amplitudes| = 2.0\n"

    def test_state_qubit_mismatch_exits_2(self, capsys):
        code = main(["entangle", "--rep", "b2", "--word", "s1", "--state", "000"])
        assert code == 2
        assert "qubits" in capsys.readouterr().err

    def test_long_bit_string_is_rejected_before_it_is_built(self, capsys):
        # 2^64 amplitudes could never be allocated: the length is checked first
        code = main(["entangle", "--rep", "ge", "--word", "s1", "--state", "0" * 64])
        assert code == 2
        err = capsys.readouterr().err
        assert_one_error_line(err)
        assert "state has 64 qubits but the word acts on 3" in err


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

    def test_factor_file_of_the_wrong_shape_exits_2(self, capsys, tmp_path):
        factor_file = tmp_path / "wide.json"
        factor_file.write_text(json.dumps([[[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]] * 2))
        code = main(["lu-check", "--factors", f"@{factor_file}"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error:")
        assert "factor 1 has shape (2, 3), expected (2, 2)" in err

    def test_one_3x3_matrix_is_read_as_one_factor(self, capsys, tmp_path):
        factor_file = tmp_path / "identity3.json"
        identity3 = [[[float(i == j), 0.0] for j in range(3)] for i in range(3)]
        factor_file.write_text(json.dumps(identity3))
        code = main(["lu-check", "--factors", f"@{factor_file}"])
        assert code == 2
        err = capsys.readouterr().err
        assert_one_error_line(err)
        assert "factor 1 has shape (3, 3), expected (2, 2)" in err

    def test_a_list_of_two_matrices_exits_2(self, capsys, tmp_path):
        hadamard = [[[2**-0.5, 0.0], [2**-0.5, 0.0]], [[2**-0.5, 0.0], [-(2**-0.5), 0.0]]]
        factor_file = tmp_path / "two.json"
        factor_file.write_text(json.dumps([hadamard, hadamard]))
        code = main(["lu-check", "--factors", f"@{factor_file}"])
        assert code == 2
        err = capsys.readouterr().err
        assert_one_error_line(err)
        assert "factor file must hold one 2x2 matrix or a list of three" in err

    def test_unknown_factor_spec_exits_2(self, capsys):
        code = main(["lu-check", "--factors", "bogus"])
        assert code == 2


STATE_OPTION = ["entangle", "--rep", "ge", "--word", "", "--state"]
FACTORS_OPTION = ["lu-check", "--factors"]
KET0 = [[1.0, 0.0]] + [[0.0, 0.0]] * 7  # |000> as [re, im] pairs
DEEP = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize(
    "argv, code",
    [
        (["relations", "--rep", "jones"], 0),
        (["lu-check"], 1),
        (["eval", "--rep", "jones", "--word", "s9"], 2),
    ],
)
def test_entry_exits_with_mains_code(monkeypatch, capsys, argv, code):
    # entry is the console script of [project.scripts]; it reads sys.argv
    monkeypatch.setattr(sys, "argv", ["braident", *argv])
    with pytest.raises(SystemExit) as exit_info:
        entry()
    assert exit_info.value.code == code == main(argv)


class TestMalformedFiles:
    @pytest.mark.parametrize(
        "argv, text",
        [
            (STATE_OPTION, json.dumps({"amplitudes": KET0})),
            (STATE_OPTION, json.dumps({"qubits": 3, "amplitudes": KET0[:-1] + [0.0]})),
            (STATE_OPTION, json.dumps({"qubits": float("inf"), "amplitudes": KET0})),
            (STATE_OPTION, json.dumps({"qubits": 1e18, "amplitudes": KET0})),
            (STATE_OPTION, json.dumps({"qubits": 3, "amplitudes": [[math.nan, 0.0]] + KET0[1:]})),
            (STATE_OPTION, DEEP),
            (FACTORS_OPTION, "[1, 2, 3]"),
            (FACTORS_OPTION, DEEP),
            (FACTORS_OPTION, json.dumps([[[10**400, 0], [0, 0]], [[0, 0], [1, 0]]])),
        ],
        ids=[
            "state-missing-qubits", "state-non-pair-amplitude", "state-infinite-qubits",
            "state-huge-qubits", "state-nan-amplitude", "state-deep-nesting",
            "factors-of-numbers", "factors-deep-nesting", "factors-huge-integer",
        ],
    )
    def test_exits_2_with_one_error_line(self, capsys, tmp_path, argv, text):
        path = tmp_path / "input.json"
        path.write_text(text)
        code = main(argv + [f"@{path}"])
        assert code == 2
        assert_one_error_line(capsys.readouterr().err)


@pytest.mark.parametrize(
    "argv",
    [["lu-check"], ["links", "--word", "s1", "--strands", "2"],
     ["render", "--word", "s1", "--strands", "2"]],
    ids=["lu-check", "links", "render"],
)
def test_tol_is_rejected_where_no_tolerance_is_read(argv):
    with pytest.raises(SystemExit) as err:
        main(argv + ["--tol", "1e-3"])
    assert err.value.code == 2


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "argv",
    [["relations", "--rep", "jones"], ["eval", "--rep", "ge", "--word", "(s1 s2)^3"],
     ["entangle", "--rep", "ge", "--word", "s1 s2"]],
    ids=["relations", "eval", "entangle"],
)
def test_non_finite_tol_is_a_usage_error(capsys, argv, tol):
    with pytest.raises(SystemExit) as err:
        main(argv + [f"--tol={tol}"])
    assert err.value.code == 2
    assert f"tolerance must be positive and finite, got {float(tol)}" in capsys.readouterr().err


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


# Word text: the grammar's tokens plus noise that must be rejected cleanly
# (a Greek sigma is valid; superscript and Arabic-Indic digits, stray signs
# and parentheses are not).  Short token lists keep powered words small.
WORD_TOKENS = ["s", "\u03c3", "0", "1", "2", "3", "9", "^", "-", "+", "(", ")", " ",
               "\u00b2", "\u0663", "x"]


THETAS = st.sampled_from([0.0, math.pi, 1e308, math.nan, math.inf, -math.inf]) | st.floats()

# @file contents: any JSON document (big and non-finite numbers included), and
# documents shaped like a state or a factor list so that decoding gets further.
JSON_LEAVES = (st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
               | st.sampled_from([10**400, 1e308, -1e308]))
JSON_DOCS = st.recursive(
    JSON_LEAVES,
    lambda children: st.lists(children, max_size=9) | st.dictionaries(
        st.sampled_from(["qubits", "amplitudes", "output_state"]) | st.text(max_size=3),
        children, max_size=4,
    ),
    max_leaves=40,
)
PAIRS = st.lists(st.lists(JSON_LEAVES, max_size=3), max_size=9)
STATE_DOCS = st.fixed_dictionaries({"qubits": JSON_LEAVES, "amplitudes": PAIRS})
FACTOR_DOCS = st.lists(st.lists(st.lists(JSON_LEAVES, max_size=3), max_size=3), max_size=4)


@st.composite
def cli_argv(draw):
    command = draw(st.sampled_from(["eval", "entangle", "links", "render"]))
    word = "".join(draw(st.lists(st.sampled_from(WORD_TOKENS), max_size=14)))
    argv = [command, f"--word={word}", "--format", draw(st.sampled_from(["text", "json"]))]
    if command in ("eval", "entangle"):
        argv += ["--rep", draw(st.sampled_from(["b2", "ge", "jones"]))]
        if draw(st.booleans()):
            argv += ["--theta", repr(draw(THETAS))]
    else:
        argv += ["--strands", str(draw(st.integers(1, 9)))]
    if command == "entangle" and draw(st.booleans()):
        bits = draw(st.text(alphabet="01x-@", max_size=4))
        argv.append(f"--state={bits}")
    return argv


def assert_exit_contract(argv) -> int:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    if code == 2:
        assert_one_error_line(err.getvalue())
    return code


class TestMainFuzz:
    @settings(max_examples=150, deadline=None)
    @given(cli_argv())
    def test_exit_codes_and_error_lines(self, argv):
        code = assert_exit_contract(argv)
        if "--theta" in argv and not math.isfinite(float(argv[argv.index("--theta") + 1])):
            assert code == 2

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from([STATE_OPTION, FACTORS_OPTION]),
           st.one_of(JSON_DOCS, STATE_DOCS, FACTOR_DOCS))
    def test_file_inputs(self, option, document):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "input.json"
            path.write_text(json.dumps(document), encoding="utf-8")
            assert_exit_contract(option + [f"@{path}"])
