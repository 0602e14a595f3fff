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
stdout; complex numbers appear as [re, im] pairs.  Each ``cmd_*`` returns
(document, exit code); ``TEXT`` views a document as text; ``main`` prints.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import warnings

import numpy as np

from .braids import BraidWord, parse_braid_word, render_braid_word
from .entanglement import (
    concurrence_mixed2,
    concurrence_pure2,
    residual_profile,
    three_tangle,
    vn_entropy,
)
from .linalg import DEFAULT_TOL, haar_unitary
from .links import render_braid_ascii, summarize_closure
from .reps import (
    DEFAULT_THETA,
    Representation,
    b2_rep,
    closure_of,
    evaluate,
    ge_rep,
    jones_rep,
    verify_relations,
)
from .states import (
    NAMED_STATES,
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

# lu-check: --factors choice -> (signed target for the transformed state, the
# state whose invariant table is compared with ghz's).  Other choices have no
# signed target and compare the transformed state itself.
LU_TARGETS = {"default": ("-phi", "phi"), "identity": ("ghz", "transformed")}

LU_NOTE = (
    "local unitaries preserve the invariant table; computational-basis "
    "measurement profiles are basis dependent and may differ"
)


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
    except (TypeError, OverflowError) as exc:
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
        found = state.qubits
    else:
        state, found = None, len(source)  # checked before basis_state allocates 2^found amplitudes
    if found != qubits:
        raise ValueError(f"state has {found} qubits but the word acts on {qubits}")
    return basis_state(source) if state is None else state


def _profile_lines(entries):
    for e in entries:
        conc = "n/a" if e.concurrence is None else f"{e.concurrence:.6f}"
        yield (f"  qubit {e.qubit} outcome {e.outcome}: "
               f"p = {e.probability:.6f}, leftover concurrence = {conc}")


def _rep(args) -> Representation:
    # jones takes no angle, but a non-finite --theta is an input error for every rep
    if not math.isfinite(args.theta):
        raise ValueError(f"theta must be finite, got {args.theta}")
    return REP_BUILDERS[args.rep](args.theta)


def cmd_relations(args) -> tuple[dict, int]:
    rep = _rep(args)
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
    return doc, 0 if report.passed else 1


def _relations_text(doc: dict):
    rep = doc["representation"]
    yield f"representation: {rep['name']} ({rep['strands']} strands, dimension {rep['dimension']})"
    if not doc["far_commutation"]:
        yield "far commutation: no applicable generator pairs"
    for r in doc["far_commutation"]:
        yield f"far commutation s{r['i']}/s{r['j']}: residual {r['residual']:.3e}"
    if not doc["braiding"]:
        yield "braiding: no applicable generator pairs"
    for r in doc["braiding"]:
        i = r["i"]
        yield f"braiding s{i} s{i+1} s{i} vs s{i+1} s{i} s{i+1}: residual {r['residual']:.3e}"
    yield f"max residual: {doc['max_residual']:.3e} (tolerance {doc['tolerance']:g})"
    yield f"result: {'PASS' if doc['passed'] else 'FAIL'}"


def cmd_eval(args) -> tuple[dict, int]:
    rep = _rep(args)
    word = parse_braid_word(args.word, rep.strands)
    matrix = evaluate(rep, word)
    doc = {
        "command": "eval",
        "representation": _rep_json(rep),
        "word": render_braid_word(word),
        "strands": word.strands,
        "matrix": matrix,
        "closure": closure_of(matrix, args.tol),
    }
    return doc, 0


def _eval_text(doc: dict):
    rep, closure = doc["representation"], doc["closure"]
    d = rep["dimension"]
    yield f"word: {doc['word'] or '(empty word)'}  [{rep['name']}, {d}x{d}]"
    yield "matrix:"
    for row in doc["matrix"]:
        yield "  " + "  ".join(f"{z.real:+.4f}{z.imag:+.4f}j" for z in row)
    if closure.closes:
        yield f"closure: phase * identity with phase = {closure.phase:+.12f} rad"
    else:
        yield "closure: not a phase times the identity"


def cmd_entangle(args) -> tuple[dict, int]:
    rep = _rep(args)
    word = parse_braid_word(args.word, rep.strands)
    state_in = _load_state(args.state, rep.strands)
    state_out = apply(evaluate(rep, word), state_in)
    overlaps = {  # |<name|out>| for each reference state on as many qubits
        name: float(abs(np.vdot(named_state(name).amplitudes, state_out.amplitudes)))
        for name, (qubits, _) in NAMED_STATES.items()
        if qubits == state_out.qubits
    }
    closest = max(overlaps, key=overlaps.get)
    if state_out.qubits == 3:
        analysis = {
            "three_tangle": three_tangle(state_out),
            "residual_profile": residual_profile(state_out).entries,
        }
    else:
        analysis = {"concurrence": concurrence_pure2(state_out)}
    doc = {
        "command": "entangle",
        "representation": _rep_json(rep),
        "word": render_braid_word(word),
        "input_state": state_in,
        "output_state": state_out,
        "named_overlaps": overlaps,
        "matched_state": closest if 1.0 - overlaps[closest] <= args.tol else None,
        "analysis": analysis,
    }
    return doc, 0


def _entangle_text(doc: dict):
    state, analysis = doc["output_state"], doc["analysis"]
    yield f"word: {doc['word'] or '(empty word)'}  [{doc['representation']['name']}]"
    yield "output amplitudes:"
    for idx, z in enumerate(state.amplitudes):
        if abs(z) > 1e-12:
            yield f"  |{idx:0{state.qubits}b}>: {z.real:+.6f}{z.imag:+.6f}j"
    for name, overlap in doc["named_overlaps"].items():
        yield f"|<{name}|out>| = {overlap:.12f}"
    yield f"matched named state: {doc['matched_state'] or 'none'}"
    if "three_tangle" in analysis:
        yield f"three-tangle: {analysis['three_tangle']:.6f}"
        yield "residual profile:"
        yield from _profile_lines(analysis["residual_profile"])
    else:
        yield f"concurrence: {analysis['concurrence']:.6f}"


def _invariant_table(state: PureState) -> dict:
    rho = density(state)
    pairs = ((1, 2), (1, 3), (2, 3))
    return {
        "single_qubit_entropies": {str(q): vn_entropy(partial_trace(rho, {q})) for q in (1, 2, 3)},
        "pair_concurrences": {
            f"{a}-{b}": concurrence_mixed2(partial_trace(rho, {a, b})) for a, b in pairs
        },
        "three_tangle": three_tangle(state),
    }


def _tables_agree(t1: dict, t2: dict, tol: float) -> bool:
    keys = ("single_qubit_entropies", "pair_concurrences")
    gaps = [abs(t1[k][n] - t2[k][n]) for k in keys for n in t1[k]]
    return not any(gap > tol for gap in gaps + [abs(t1["three_tangle"] - t2["three_tangle"])])


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
        depth, first = 0, data  # how many nonempty lists deep the first entries nest
        while isinstance(first, list) and first:
            depth, first = depth + 1, first[0]
        if 0 < depth < 4:  # one matrix: rows of [re, im] pairs
            factors = [matrix_from_json(data)] * 3
        elif depth == 4 and len(data) == 3:  # three matrices
            factors = [matrix_from_json(entry) for entry in data]
        else:
            raise ValueError("factor file must hold one 2x2 matrix or a list of three")
        return factors, choice  # apply_local checks each factor's shape and unitarity
    raise ValueError(
        f"unknown --factors value {choice!r} (expected default, identity, "
        "random-unitary or @file.json)"
    )


def cmd_lu_check(args) -> tuple[dict, int]:
    factors, label = _resolve_factors(args)
    ghz, phi = named_state("ghz"), named_state("phi")
    transformed = apply_local(ghz, factors)
    amps = transformed.amplitudes
    states = {"ghz": ghz, "phi": phi, "-phi": PureState(3, -phi.amplitudes),
              "transformed": transformed}
    target, ref_label = LU_TARGETS.get(label, (None, "transformed"))
    reference = states[ref_label]

    checks: dict = {}
    if target is not None:
        err = float(np.max(np.abs(amps - states[target].amplitudes)))
        checks = {
            "target": target,
            "max_entry_error_vs_target": err,
            "signed_equality_to_target": err <= 1e-12,
        }
    if target == "-phi":
        checks["max_entry_error_vs_plus_phi"] = float(np.max(np.abs(amps - phi.amplitudes)))
        checks["overlap_modulus_with_phi"] = float(abs(np.vdot(phi.amplitudes, amps)))

    table_ghz = _invariant_table(ghz)
    table_ref = _invariant_table(reference)
    invariants_agree = _tables_agree(table_ghz, table_ref, DEFAULT_TOL)
    passed = checks.get("signed_equality_to_target", True) and invariants_agree
    doc = {
        "command": "lu-check",
        "factors": label,
        "transformed_state": transformed,
        "checks": checks,
        "invariants": {
            "ghz": table_ghz,
            ref_label: table_ref,
            "agree_within": DEFAULT_TOL,
            "all_agree": invariants_agree,
        },
        "residual_profiles": {
            "ghz": residual_profile(ghz).entries,
            ref_label: residual_profile(reference).entries,
        },
        "note": LU_NOTE,
        "passed": passed,
    }
    return doc, 0 if passed else 1


def _lu_check_text(doc: dict):
    checks, invariants = doc["checks"], doc["invariants"]
    _, ref_label = doc["residual_profiles"]  # ghz first, then the reference
    yield f"factors: {doc['factors']}"
    yield "transformed = (f1 (x) f2 (x) f3) |ghz>"
    if checks:
        holds = "holds" if checks["signed_equality_to_target"] else "FAILS"
        yield (f"signed equality to {checks['target']}: max entry error "
               f"{checks['max_entry_error_vs_target']:.3e} -> {holds}")
    if "overlap_modulus_with_phi" in checks:
        yield ("signed comparison against +phi: max entry error "
               f"{checks['max_entry_error_vs_plus_phi']:.3e}")
        yield f"|<phi|transformed>| = {checks['overlap_modulus_with_phi']:.12f}"
    ghz, ref = invariants["ghz"], invariants[ref_label]
    yield f"invariant table (ghz vs {ref_label}):"
    for q, value in ghz["single_qubit_entropies"].items():
        yield f"  entropy qubit {q}: {value:.6f} vs {ref['single_qubit_entropies'][q]:.6f}"
    for pair, value in ghz["pair_concurrences"].items():
        yield f"  concurrence {pair}: {value:.6f} vs {ref['pair_concurrences'][pair]:.6f}"
    yield f"  three-tangle: {ghz['three_tangle']:.6f} vs {ref['three_tangle']:.6f}"
    agree = "yes" if invariants["all_agree"] else "NO"
    yield f"invariants agree within {invariants['agree_within']:g}: {agree}"
    for name, entries in doc["residual_profiles"].items():
        yield f"residual profile of {name}:"
        yield from _profile_lines(entries)
    yield f"note: {doc['note']}"
    yield f"result: {'PASS' if doc['passed'] else 'FAIL'}"


def _word_on_strands(args) -> BraidWord:
    if not 2 <= args.strands <= 8:
        raise ValueError(f"strands must be between 2 and 8, got {args.strands}")
    return parse_braid_word(args.word, args.strands)


def cmd_links(args) -> tuple[dict, int]:
    word = _word_on_strands(args)
    summary = summarize_closure(word)
    doc = {
        "command": "links",
        "word": render_braid_word(word),
        "strands": word.strands,
        "components": summary.components,
        "exponent_sum": summary.exponent_sum,
        "named_match": summary.named_match,
    }
    if args.diagram:
        doc["diagram"] = render_braid_ascii(word, ascii_only=args.ascii_only)
    return doc, 0


def _links_text(doc: dict):
    yield f"word: {doc['word'] or '(empty word)'} on {doc['strands']} strands"
    yield f"closure components: {doc['components']}"
    yield f"exponent sum: {doc['exponent_sum']}"
    yield f"named word match: {doc['named_match'] or 'none'}"
    if "diagram" in doc:
        yield doc["diagram"]


def cmd_render(args) -> tuple[dict, int]:
    diagram = render_braid_ascii(_word_on_strands(args), ascii_only=args.ascii_only)
    return {"command": "render", "diagram": diagram}, 0


TEXT = {
    "relations": _relations_text,
    "eval": _eval_text,
    "entangle": _entangle_text,
    "lu-check": _lu_check_text,
    "links": _links_text,
    "render": lambda doc: [doc["diagram"]],
}


def _positive_float(text: str) -> float:
    value = float(text)
    if not 0 < value < math.inf:  # NaN fails too
        raise argparse.ArgumentTypeError(f"tolerance must be positive and finite, got {value}")
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
        parser.add_argument(
            "--tol", type=_positive_float, default=DEFAULT_TOL,
            help="tolerance on relation residuals, on closure (eval), and on "
            "1 - |<name|out>| of the closest named state (entangle)",
        )
    if word:
        parser.add_argument("--word", required=True, help='braid word, e.g. "(s1 s2)^3"')
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
    """Run one command and print its document; warnings become one stderr line each."""
    args = build_parser().parse_args(_bind_theta(sys.argv[1:] if argv is None else list(argv)))
    for name, value in vars(args).items():
        if value == []:  # argparse drops the "--" of "--word=--" and leaves an empty list
            setattr(args, name, "--")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            doc, code = args.func(args)
        except (ValueError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    for warning in caught:
        print(f"warning: {warning.message}", file=sys.stderr)
    if args.format == "json":
        print(json.dumps(doc, indent=2, default=_jsonable))
    else:
        print("\n".join(TEXT[doc["command"]](doc)))
    return code


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
