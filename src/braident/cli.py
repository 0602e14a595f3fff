"""braident: braid-group unitaries on qubits and the entanglement they generate.

Usage:
    braident relations --rep jones
    braident eval --rep ge --word "(s1 s2)^3" --format json
    braident entangle --rep jones --word "s1 s2^-1"
    braident lu-check
    braident lu-check --factors random-unitary --seed 7
    braident links --word "s1 s1" --strands 2 --diagram
    braident render --word "(s1 s2)^3" --strands 3

Exit codes: 0 success/pass, 1 a requested check failed, 2 usage or input
error.  With --format json every command writes a single JSON document to
stdout; complex numbers appear as [re, im] pairs.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from .braids import parse_braid_word, render_braid_word
from .entanglement import (
    ResidualProfile,
    concurrence_mixed2,
    concurrence_pure2,
    residual_profile,
    three_tangle,
    vn_entropy,
)
from .linalg import haar_unitary, is_unitary
from .links import render_braid_ascii, summarize_closure
from .reps import (
    DEFAULT_THETA,
    Representation,
    b2_rep,
    closure_check,
    evaluate,
    ge_rep,
    jones_rep,
    verify_relations,
)
from .states import (
    PureState,
    apply,
    apply_local,
    basis_state,
    density,
    named_state,
    partial_trace,
)

REP_BUILDERS = {"b2": b2_rep, "ge": ge_rep, "jones": lambda theta: jones_rep()}

LU_DEMO_FACTOR = np.array([[1, 1], [-1, 1]], dtype=complex) / np.sqrt(2)


def _jsonable(obj):
    """``json.dumps`` hook: complex numbers become [re, im] pairs, arrays nested
    lists, and dataclasses (states, profile entries) dicts of their fields."""
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if dataclasses.is_dataclass(obj):
        return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _read_json(path: str):
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError as exc:
            raise ValueError(f"{path}: JSON nested too deeply") from exc


def complex_from_json(pair) -> complex:
    re, im = pair
    return complex(float(re), float(im))


def matrix_from_json(rows) -> np.ndarray:
    try:
        return np.array([[complex_from_json(z) for z in row] for row in rows], dtype=complex)
    except TypeError as exc:
        raise ValueError(f"malformed matrix document: {exc}") from exc


def state_from_json(data) -> PureState:
    """Decode {"qubits": n, "amplitudes": [[re, im], ...]}."""
    try:
        qubits = int(data["qubits"])
        amps = np.array([complex_from_json(p) for p in data["amplitudes"]], dtype=complex)
    except (KeyError, TypeError, OverflowError) as exc:
        raise ValueError(f"malformed state document: {exc}") from exc
    return PureState(qubits, amps)


def _rep_json(rep: Representation) -> dict:
    return {
        "name": rep.name,
        "strands": rep.strands,
        "dimension": rep.dimension,
        "parameters": rep.parameters,
    }


def _load_state(source: str | None, qubits: int) -> PureState:
    if source is None:
        return basis_state("0" * qubits)
    if source.startswith("@"):
        data = _read_json(source[1:])
        if isinstance(data, dict) and "output_state" in data:
            data = data["output_state"]  # accept a previous entangle result
        state = state_from_json(data)
    else:
        state = basis_state(source)
    if state.qubits != qubits:
        raise ValueError(f"state has {state.qubits} qubits but the word acts on {qubits}")
    return state


def _emit(doc: dict, args, text_lines) -> None:
    if args.format == "json":
        print(json.dumps(doc, indent=2, default=_jsonable))
    else:
        for line in text_lines:
            print(line)


def _profile_lines(profile: ResidualProfile) -> list[str]:
    lines = []
    for e in profile.entries:
        conc = "n/a" if e.concurrence is None else f"{e.concurrence:.6f}"
        lines.append(
            f"  qubit {e.qubit} outcome {e.outcome}: "
            f"p = {e.probability:.6f}, leftover concurrence = {conc}"
        )
    return lines


def cmd_relations(args) -> int:
    rep = REP_BUILDERS[args.rep](args.theta)
    report = verify_relations(rep, args.tol)
    doc = {
        "command": "relations",
        "representation": _rep_json(rep),
        "far_commutation": [
            {"i": i, "j": j, "residual": r} for i, j, r in report.far_commutation_residuals
        ],
        "braiding": [{"i": i, "residual": r} for i, r in report.braiding_residuals],
        "max_residual": report.max_residual,
        "tolerance": report.tolerance,
        "passed": report.passed,
    }
    lines = [f"representation: {rep.name} ({rep.strands} strands, dimension {rep.dimension})"]
    if not report.far_commutation_residuals:
        lines.append("far commutation: no applicable generator pairs")
    for i, j, r in report.far_commutation_residuals:
        lines.append(f"far commutation s{i}/s{j}: residual {r:.3e}")
    if not report.braiding_residuals:
        lines.append("braiding: no applicable generator pairs")
    for i, r in report.braiding_residuals:
        lines.append(f"braiding s{i} s{i+1} s{i} vs s{i+1} s{i} s{i+1}: residual {r:.3e}")
    lines.append(f"max residual: {report.max_residual:.3e} (tolerance {report.tolerance:g})")
    lines.append(f"result: {'PASS' if report.passed else 'FAIL'}")
    _emit(doc, args, lines)
    return 0 if report.passed else 1


def _format_matrix_lines(matrix: np.ndarray) -> list[str]:
    lines = []
    for row in matrix:
        cells = []
        for z in row:
            cells.append(f"{z.real:+.4f}{z.imag:+.4f}j")
        lines.append("  " + "  ".join(cells))
    return lines


def cmd_eval(args) -> int:
    rep = REP_BUILDERS[args.rep](args.theta)
    word = parse_braid_word(args.word, rep.strands)
    matrix = evaluate(rep, word)
    closure = closure_check(rep, word, args.tol)
    doc = {
        "command": "eval",
        "representation": _rep_json(rep),
        "word": render_braid_word(word),
        "strands": word.strands,
        "matrix": matrix,
        "closure": {"closes": closure.closes, "phase": closure.phase},
    }
    lines = [
        f"word: {render_braid_word(word) or '(empty word)'}  "
        f"[{rep.name}, {rep.dimension}x{rep.dimension}]",
        "matrix:",
        *_format_matrix_lines(matrix),
    ]
    if closure.closes:
        lines.append(f"closure: phase * identity with phase = {closure.phase:+.12f} rad")
    else:
        lines.append("closure: not a phase times the identity")
    _emit(doc, args, lines)
    return 0


def _named_overlaps(state: PureState, tol: float) -> tuple[dict, str | None]:
    candidates = {"ghz": 3, "phi": 3, "bell": 2}
    overlaps = {}
    matched = None
    for name, qubits in candidates.items():
        if qubits != state.qubits:
            continue
        target = named_state(name)
        overlap = float(abs(np.vdot(target.amplitudes, state.amplitudes)))
        overlaps[name] = overlap
        if matched is None and 1.0 - overlap <= tol:
            matched = name
    return overlaps, matched


def cmd_entangle(args) -> int:
    rep = REP_BUILDERS[args.rep](args.theta)
    word = parse_braid_word(args.word, rep.strands)
    state_in = _load_state(args.state, rep.strands)
    state_out = apply(evaluate(rep, word), state_in)
    overlaps, matched = _named_overlaps(state_out, args.tol)

    analysis: dict = {}
    analysis_lines: list[str] = []
    if state_out.qubits == 3:
        tangle = three_tangle(state_out)
        profile = residual_profile(state_out)
        analysis = {"three_tangle": tangle, "residual_profile": profile.entries}
        analysis_lines = [f"three-tangle: {tangle:.6f}", "residual profile:"]
        analysis_lines += _profile_lines(profile)
    elif state_out.qubits == 2:
        conc = concurrence_pure2(state_out)
        analysis = {"concurrence": conc}
        analysis_lines = [f"concurrence: {conc:.6f}"]

    doc = {
        "command": "entangle",
        "representation": _rep_json(rep),
        "word": render_braid_word(word),
        "input_state": state_in,
        "output_state": state_out,
        "named_overlaps": overlaps,
        "matched_state": matched,
        "analysis": analysis,
    }
    lines = [f"word: {render_braid_word(word) or '(empty word)'}  [{rep.name}]"]
    lines.append("output amplitudes:")
    for idx, z in enumerate(state_out.amplitudes):
        if abs(z) > 1e-12:
            lines.append(f"  |{idx:0{state_out.qubits}b}>: {z.real:+.6f}{z.imag:+.6f}j")
    for name, overlap in overlaps.items():
        lines.append(f"|<{name}|out>| = {overlap:.12f}")
    lines.append(f"matched named state: {matched or 'none'}")
    lines += analysis_lines
    _emit(doc, args, lines)
    return 0


def _invariant_table(state: PureState) -> dict:
    rho = density(state)
    entropies = {
        str(q): vn_entropy(partial_trace(rho, {q})) for q in range(1, state.qubits + 1)
    }
    pairs = {}
    for a in range(1, state.qubits + 1):
        for b in range(a + 1, state.qubits + 1):
            pairs[f"{a}-{b}"] = concurrence_mixed2(partial_trace(rho, {a, b}))
    return {
        "single_qubit_entropies": entropies,
        "pair_concurrences": pairs,
        "three_tangle": three_tangle(state) if state.qubits == 3 else None,
    }


def _tables_agree(t1: dict, t2: dict, tol: float) -> bool:
    for key in ("single_qubit_entropies", "pair_concurrences"):
        for name, value in t1[key].items():
            if abs(value - t2[key][name]) > tol:
                return False
    if t1["three_tangle"] is not None and t2["three_tangle"] is not None:
        if abs(t1["three_tangle"] - t2["three_tangle"]) > tol:
            return False
    return True


def _resolve_factors(args) -> tuple[list[np.ndarray], str]:
    choice = args.factors
    if choice == "default":
        return [LU_DEMO_FACTOR] * 3, "default"
    if choice == "identity":
        return [np.eye(2, dtype=complex)] * 3, "identity"
    if choice == "random-unitary":
        rng = np.random.default_rng(args.seed)
        return [haar_unitary(2, rng) for _ in range(3)], f"random-unitary(seed={args.seed})"
    if choice.startswith("@"):
        data = _read_json(choice[1:])
        if not isinstance(data, list):
            raise ValueError("factor file must hold one 2x2 matrix or a list of three")
        if len(data) == 3:
            factors = [matrix_from_json(entry) for entry in data]
        else:
            factors = [matrix_from_json(data)] * 3
        for i, f in enumerate(factors, start=1):
            if f.shape != (2, 2):
                raise ValueError(f"factor {i} has shape {f.shape}, expected (2, 2)")
            if not is_unitary(f):
                raise ValueError(f"factor {i} is not unitary")
        return factors, choice
    raise ValueError(
        f"unknown --factors value {choice!r} (expected default, identity, "
        "random-unitary or @file.json)"
    )


def cmd_lu_check(args) -> int:
    factors, label = _resolve_factors(args)
    ghz = named_state("ghz")
    phi = named_state("phi")
    transformed = apply_local(ghz, factors)

    if label == "default":
        target = PureState(3, -phi.amplitudes)
        target_name = "-phi"
        reference = phi
    elif label == "identity":
        target = ghz
        target_name = "ghz"
        reference = transformed
    else:
        target = None
        target_name = None
        reference = transformed

    checks: dict = {}
    lines = [f"factors: {label}", "transformed = (f1 (x) f2 (x) f3) |ghz>"]
    if target is not None:
        err = float(np.max(np.abs(transformed.amplitudes - target.amplitudes)))
        equal = err <= 1e-12
        checks["target"] = target_name
        checks["max_entry_error_vs_target"] = err
        checks["signed_equality_to_target"] = equal
        lines.append(f"signed equality to {target_name}: max entry error {err:.3e} "
                     f"-> {'holds' if equal else 'FAILS'}")
        if target_name == "-phi":
            err_plus = float(np.max(np.abs(transformed.amplitudes - phi.amplitudes)))
            overlap = float(abs(np.vdot(phi.amplitudes, transformed.amplitudes)))
            checks["max_entry_error_vs_plus_phi"] = err_plus
            checks["overlap_modulus_with_phi"] = overlap
            lines.append(f"signed comparison against +phi: max entry error {err_plus:.3e}")
            lines.append(f"|<phi|transformed>| = {overlap:.12f}")
        passed_target = equal
    else:
        passed_target = True

    table_ghz = _invariant_table(ghz)
    table_ref = _invariant_table(reference)
    ref_label = "phi" if label == "default" else "transformed"
    invariants_agree = _tables_agree(table_ghz, table_ref, 1e-10)
    profile_ghz = residual_profile(ghz)
    profile_ref = residual_profile(reference)

    lines.append(f"invariant table (ghz vs {ref_label}):")
    for q, value in table_ghz["single_qubit_entropies"].items():
        lines.append(
            f"  entropy qubit {q}: {value:.6f} vs "
            f"{table_ref['single_qubit_entropies'][q]:.6f}"
        )
    for pair, value in table_ghz["pair_concurrences"].items():
        lines.append(
            f"  concurrence {pair}: {value:.6f} vs {table_ref['pair_concurrences'][pair]:.6f}"
        )
    lines.append(
        f"  three-tangle: {table_ghz['three_tangle']:.6f} vs {table_ref['three_tangle']:.6f}"
    )
    lines.append(f"invariants agree within 1e-10: {'yes' if invariants_agree else 'NO'}")
    lines.append("residual profile of ghz:")
    lines += _profile_lines(profile_ghz)
    lines.append(f"residual profile of {ref_label}:")
    lines += _profile_lines(profile_ref)
    note = (
        "local unitaries preserve the invariant table; computational-basis "
        "measurement profiles are basis dependent and may differ"
    )
    lines.append(f"note: {note}")

    passed = passed_target and invariants_agree
    lines.append(f"result: {'PASS' if passed else 'FAIL'}")
    doc = {
        "command": "lu-check",
        "factors": label,
        "transformed_state": transformed,
        "checks": checks,
        "invariants": {
            "ghz": table_ghz,
            ref_label: table_ref,
            "agree_within": 1e-10,
            "all_agree": invariants_agree,
        },
        "residual_profiles": {
            "ghz": profile_ghz.entries,
            ref_label: profile_ref.entries,
        },
        "note": note,
        "passed": passed,
    }
    _emit(doc, args, lines)
    return 0 if passed else 1


def cmd_links(args) -> int:
    if not 2 <= args.strands <= 8:
        raise ValueError(f"strands must be between 2 and 8, got {args.strands}")
    word = parse_braid_word(args.word, args.strands)
    summary = summarize_closure(word)
    doc = {
        "command": "links",
        "word": render_braid_word(word),
        "strands": word.strands,
        "components": summary.components,
        "exponent_sum": summary.exponent_sum,
        "named_match": summary.named_match,
    }
    lines = [
        f"word: {render_braid_word(word) or '(empty word)'} on {word.strands} strands",
        f"closure components: {summary.components}",
        f"exponent sum: {summary.exponent_sum}",
        f"named word match: {summary.named_match or 'none'}",
    ]
    if args.diagram:
        diagram = render_braid_ascii(word, ascii_only=args.ascii_only)
        doc["diagram"] = diagram
        lines.append(diagram)
    _emit(doc, args, lines)
    return 0


def cmd_render(args) -> int:
    if not 2 <= args.strands <= 8:
        raise ValueError(f"strands must be between 2 and 8, got {args.strands}")
    word = parse_braid_word(args.word, args.strands)
    diagram = render_braid_ascii(word, ascii_only=args.ascii_only)
    if args.format == "json":
        print(json.dumps({"command": "render", "diagram": diagram}, indent=2))
    else:
        print(diagram)
    return 0


def _positive_float(text: str) -> float:
    value = float(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"tolerance must be positive, got {value}")
    return value


def _add_common(parser: argparse.ArgumentParser, rep: bool = False, word: bool = False):
    if rep:
        parser.add_argument(
            "--rep", required=True, choices=sorted(REP_BUILDERS),
            help="representation name (no default on purpose: results are not "
            "comparable across representations)",
        )
        parser.add_argument(
            "--theta", type=float, default=DEFAULT_THETA,
            help="phase angle in radians for the b2/ge families (default 1.0)",
        )
    if word:
        parser.add_argument("--word", required=True, help='braid word, e.g. "(s1 s2)^3"')
    parser.add_argument("--tol", type=_positive_float, default=1e-10, help="numerical tolerance")
    parser.add_argument(
        "--format", choices=["json", "text"], default="text", help="output format"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="braident",
        description="Braid-group unitaries on qubit registers and the "
        "entanglement their words generate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("relations", help="verify the defining relations of a representation")
    _add_common(p, rep=True)
    p.set_defaults(func=cmd_relations)

    p = sub.add_parser("eval", help="evaluate a braid word to a unitary and check closure")
    _add_common(p, rep=True, word=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("entangle", help="apply a braid word to a state and analyze the result")
    _add_common(p, rep=True, word=True)
    p.add_argument(
        "--state", default=None,
        help='input state: a bit string like "000" or @file.json (default: all zeros)',
    )
    p.set_defaults(func=cmd_entangle)

    p = sub.add_parser(
        "lu-check",
        help="apply local unitaries to the GHZ state and compare invariants and profiles",
    )
    p.add_argument(
        "--factors", default="default",
        help="default | identity | random-unitary | @file.json with one or three "
        "2x2 complex matrices as [re, im] pair arrays",
    )
    p.add_argument("--seed", type=int, default=0, help="seed for random-unitary factors")
    _add_common(p)
    p.set_defaults(func=cmd_lu_check)

    p = sub.add_parser("links", help="closure component count and named-word recognition")
    _add_common(p, word=True)
    p.add_argument("--strands", type=int, required=True, help="strand count (2..8)")
    p.add_argument("--diagram", action="store_true", help="include an ASCII diagram")
    p.add_argument("--ascii-only", action="store_true", help="7-bit output only")
    p.set_defaults(func=cmd_links)

    p = sub.add_parser("render", help="draw a braid word as a fixed-width diagram")
    _add_common(p, word=True)
    p.add_argument("--strands", type=int, required=True, help="strand count (2..8)")
    p.add_argument("--ascii-only", action="store_true", help="7-bit output only")
    p.set_defaults(func=cmd_render)

    return parser


def _bind_theta(argv: list[str]) -> list[str]:
    """Join "--theta -1e-3" into "--theta=-1e-3".

    argparse takes a token that starts with "-" for an option unless it reads
    like -1 or -0.5, so a negative angle in exponent form would leave --theta
    without its value.
    """
    out: list[str] = []
    for token in argv:
        if out and out[-1] == "--theta" and token.startswith("-") and _is_number(token):
            out[-1] = f"--theta={token}"
        else:
            out.append(token)
    return out


def _is_number(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def main(argv=None) -> int:
    args = build_parser().parse_args(_bind_theta(sys.argv[1:] if argv is None else list(argv)))
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
