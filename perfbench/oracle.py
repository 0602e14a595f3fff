"""Independent checks of every request kind's output.

The checks run outside the timed interval and never call the library function
whose output they check: states are recomputed by plain numpy contraction,
reductions and entropies by reshaping and ``eigvalsh``, concurrence by its
own Wootters formula, the three-tangle by the Coffman-Kundu-Wootters identity,
component counts by swapping list entries, and closure phases from the
closed forms of the closing words.

``check`` returns a list of error strings (empty when the output is right)
and the unitarity drift of the evaluated product, if there is one.
``fingerprint`` reduces an output to a value that a later pass of the same
request must reproduce.
"""

from __future__ import annotations

import json
import math

import numpy as np

from loads import STRANDS, Context, Request

DRIFT_MAX = 1e-8
STATE_TOL = 1e-9
MEASURE_TOL = 1e-8
WOOTTERS_TOL = 1e-6  # sqrt of eigenvalues near zero costs half the digits
PHASE_TOL = 1e-8

_YY = np.kron(np.array([[0, -1j], [1j, 0]]), np.array([[0, -1j], [1j, 0]]))


def phase_gap(a: float, b: float) -> float:
    return abs((a - b + math.pi) % (2 * math.pi) - math.pi)


def drift(matrix: np.ndarray) -> float:
    return float(np.linalg.norm(matrix @ matrix.conj().T - np.eye(len(matrix))))


def components(letters: np.ndarray, strands: int) -> int:
    perm = list(range(strands))
    for i in np.abs(letters).tolist():
        perm[i - 1], perm[i] = perm[i], perm[i - 1]
    seen, count = set(), 0
    for start in range(strands):
        if start not in seen:
            count += 1
            x = start
            while x not in seen:
                seen.add(x)
                x = perm[x]
    return count


def exponent_sum(letters: np.ndarray) -> int:
    return int((letters > 0).sum()) - int((letters < 0).sum())


def expected_closure(req: Request, theta: float) -> tuple[bool, float | None] | None:
    """(closes, phase) from closed forms, or None where no closed form applies.

    (s1 s2)^3m under ge gives 6m*theta + m*pi and (s1 s2^-1)^3m under jones
    gives m*pi.  Every b2 letter is e^{+-i theta} times the same real
    involution, so a b2 word closes exactly when its exponent sum e is even,
    with phase e*theta.
    """
    rep, letters = req.args["rep"], req.args["expansion"]
    if rep == "b2":
        e = exponent_sum(letters)
        return (True, e * theta) if e % 2 == 0 else (False, None)
    if req.args.get("closing"):
        m = len(letters) // 6
        return True, (6 * m * theta + m * math.pi) if rep == "ge" else m * math.pi
    return None


def _closure_from_matrix(matrix: np.ndarray) -> tuple[bool, float | None] | None:
    """Scalar-matrix test with a dead band, so rounding never decides alone."""
    a00 = matrix[0, 0]
    residual = np.linalg.norm(matrix - a00 * np.eye(len(matrix)))
    if residual <= 1e-11 and abs(abs(a00) - 1.0) <= 1e-11:
        return True, float(np.angle(a00))
    if residual >= 1e-9:
        return False, None
    return None


def check_word(ctx: Context, req: Request, out) -> tuple[list[str], float]:
    errors = []
    letters = req.args["expansion"]
    word = out["word"]
    parsed = np.fromiter((l.index * l.sign for l in word.letters), np.int64, len(word.letters))
    if parsed.shape != letters.shape or (parsed != letters).any():
        errors.append("parsed letters differ from the expansion of the text")
    strands = STRANDS[req.args["rep"]]
    if out["summary"].components != components(letters, strands):
        errors.append(f"components {out['summary'].components} != {components(letters, strands)}")
    if out["summary"].exponent_sum != exponent_sum(letters):
        errors.append(f"exponent sum {out['summary'].exponent_sum} != {exponent_sum(letters)}")
    d = drift(out["matrix"])
    if d > DRIFT_MAX:
        errors.append(f"unitarity drift {d:.3e} > {DRIFT_MAX}")
    expected = expected_closure(req, ctx.theta) or _closure_from_matrix(out["matrix"])
    closure = out["closure"]
    if expected is not None:
        closes, phase = expected
        if closure.closes != closes:
            errors.append(f"closure_check says closes={closure.closes}, expected {closes}")
        elif closes and phase_gap(closure.phase, phase) > PHASE_TOL:
            errors.append(f"closure phase {closure.phase} != {phase} (mod 2pi)")
    return errors, d


def apply_letters(u: np.ndarray, letters: np.ndarray, bits: str) -> np.ndarray:
    """Basis state |bits> under the word's product, by einsum on qubit pairs.

    The last letter acts first; s_i applies U (s_i^-1 applies U^dag) to
    qubits i and i+1, qubit 1 being the most significant.
    """
    n = len(bits)
    psi = np.zeros(2**n, dtype=complex)
    psi[int(bits, 2)] = 1.0
    tensor = psi.reshape((2,) * n)
    axes = list(range(4, 4 + n))
    for x in letters[::-1].tolist():
        g = (u if x > 0 else u.conj().T).reshape(2, 2, 2, 2)
        i = abs(x)
        src = axes[: i - 1] + [2, 3] + axes[i + 1:]
        dst = axes[: i - 1] + [0, 1] + axes[i + 1:]
        tensor = np.einsum(g, [0, 1, 2, 3], tensor, src, dst)
    return tensor.reshape(-1)


def reduced(psi: np.ndarray, keep: list[int]) -> np.ndarray:
    """Reduced density matrix on the kept qubits (1-based, ascending)."""
    n = int(math.log2(len(psi)))
    tensor = np.moveaxis(psi.reshape((2,) * n), [q - 1 for q in keep], range(len(keep)))
    m = tensor.reshape(2 ** len(keep), -1)
    return m @ m.conj().T


def entropy(rho: np.ndarray) -> float:
    w = np.linalg.eigvalsh(rho)
    w = w[w > 1e-14]
    return float(-np.sum(w * np.log2(w)))


def wootters(rho: np.ndarray) -> float:
    """Concurrence from the eigenvalues of rho (YxY) conj(rho) (YxY)."""
    ev = np.linalg.eigvals(rho @ _YY @ rho.conj() @ _YY)
    lam = np.sort(np.sqrt(np.clip(ev.real, 0.0, None)))[::-1]
    return float(max(0.0, lam[0] - lam[1] - lam[2] - lam[3]))


def _gap(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


def check_probe(ctx: Context, req: Request, out) -> tuple[list[str], float]:
    errors = []
    n = req.args["strands"]
    psi = apply_letters(req.args["u"], req.args["expansion"], req.args["bits"])
    if _gap(out["state"].amplitudes, psi) > STATE_TOL:
        errors.append(f"output state off by {_gap(out['state'].amplitudes, psi):.3e}")
    want = [entropy(reduced(psi, [q])) for q in range(1, n + 1)]
    if _gap(out["entropies"], want) > MEASURE_TOL:
        errors.append(f"single-qubit entropies off by {_gap(out['entropies'], want):.3e}")
    half = 2 ** (n // 2)
    schmidt = np.linalg.svd(psi.reshape(half, -1), compute_uv=False)
    if len(out["schmidt"]) != len(schmidt) or _gap(out["schmidt"], schmidt) > MEASURE_TOL:
        errors.append("Schmidt coefficients differ")
    d = drift(out["matrix"])
    if d > DRIFT_MAX:
        errors.append(f"unitarity drift {d:.3e} > {DRIFT_MAX}")
    return errors, d


def check_tripartite(ctx: Context, req: Request, out) -> tuple[list[str], float | None]:
    errors = []
    if req.kind == "word3":
        images = ctx.reps[req.args["rep"]].generator_images
        psi = np.zeros(8, dtype=complex)
        psi[int(req.args["bits"], 2)] = 1.0
        for x in req.args["expansion"][::-1].tolist():
            g = images[abs(x) - 1]
            psi = (g if x > 0 else g.conj().T) @ psi
    else:
        start = np.zeros(8, dtype=complex)
        if req.args["state"] == "ghz":
            start[[0, 7]] = 1 / math.sqrt(2)
        else:
            start[[0, 3, 5, 6]] = 0.5
        f1, f2, f3 = req.args["factors"]
        psi = np.einsum("ai,bj,ck,ijk->abc", f1, f2, f3, start.reshape(2, 2, 2)).reshape(-1)
    if _gap(out["state"].amplitudes, psi) > STATE_TOL:
        errors.append(f"output state off by {_gap(out['state'].amplitudes, psi):.3e}")
    pairs = [wootters(reduced(psi, keep)) for keep in ([1, 2], [1, 3], [2, 3])]
    ckw = 4 * np.linalg.det(reduced(psi, [1])).real - pairs[0] ** 2 - pairs[1] ** 2
    if abs(out["three_tangle"] - ckw) > WOOTTERS_TOL:
        errors.append(f"three-tangle {out['three_tangle']} != CKW value {ckw}")
    if _gap(out["pair_concurrences"], pairs) > WOOTTERS_TOL:
        errors.append(f"pair concurrences {out['pair_concurrences']} != {pairs}")
    want = [entropy(reduced(psi, [q])) for q in (1, 2, 3)]
    if _gap(out["entropies"], want) > MEASURE_TOL:
        errors.append(f"single-qubit entropies off by {_gap(out['entropies'], want):.3e}")
    tensor = psi.reshape(2, 2, 2)
    for entry in out["profile"].entries:
        branch = np.take(tensor, entry.outcome, axis=entry.qubit - 1).reshape(-1)
        p = float(np.vdot(branch, branch).real)
        where = f"profile qubit {entry.qubit} outcome {entry.outcome}"
        if p < 1e-13:
            if entry.probability != 0.0 or entry.concurrence is not None:
                errors.append(f"{where}: impossible branch not reported as such")
        elif p > 1e-11:
            conc = 2 * abs(branch[0] * branch[3] - branch[1] * branch[2]) / p
            if abs(entry.probability - p) > MEASURE_TOL or entry.concurrence is None or abs(
                entry.concurrence - conc
            ) > MEASURE_TOL:
                errors.append(f"{where}: ({entry.probability}, {entry.concurrence}) != ({p}, {conc})")
    d = drift(out["matrix"]) if out["matrix"] is not None else None
    if d is not None and d > DRIFT_MAX:
        errors.append(f"unitarity drift {d:.3e} > {DRIFT_MAX}")
    return errors, d


def _near(value, target: float, tol: float = 1e-9) -> bool:
    return isinstance(value, (int, float)) and abs(value - target) <= tol


def _cli_json(case: str, req: Request, doc: dict) -> list[str]:
    a = req.args
    if case == "relations":
        ok = doc["passed"] is True and doc["representation"]["name"] == a["rep"]
        return [] if ok and doc["max_residual"] <= 1e-10 else ["relations did not pass"]
    if case == "eval":
        phase = 6 * a["theta"] + math.pi
        c = doc["closure"]
        ok = c["closes"] is True and phase_gap(c["phase"], phase) <= PHASE_TOL
        return [] if ok else [f"closure {c} != phase {phase}"]
    if case == "entangle":
        ok = doc["matched_state"] == a["state"] and _near(doc["named_overlaps"][a["state"]], 1.0)
        analysis = doc["analysis"]
        if a["state"] == "bell":
            ok = ok and _near(analysis["concurrence"], 1.0)
        else:
            ok = ok and _near(analysis["three_tangle"], 1.0)
        return [] if ok else [f"entangle result {doc['matched_state']}, {analysis}"]
    if case == "lu-default":
        inv = doc["invariants"]
        ok = (doc["passed"] is False and _near(doc["checks"]["overlap_modulus_with_phi"], 1.0)
              and inv["all_agree"] is True and _near(inv["ghz"]["three_tangle"], 1.0)
              and _near(inv["phi"]["three_tangle"], 1.0))
        return [] if ok else ["lu-check default fields wrong"]
    if case == "lu-random":
        inv = doc["invariants"]
        ok = (doc["passed"] is True and _near(inv["ghz"]["three_tangle"], 1.0)
              and _near(inv["transformed"]["three_tangle"], 1.0, 1e-8))
        return [] if ok else ["lu-check random-unitary fields wrong"]
    if case == "links":
        n = int(a["argv"][a["argv"].index("--strands") + 1])
        want = (components(a["expansion"], n), exponent_sum(a["expansion"]))
        got = (doc["components"], doc["exponent_sum"])
        return [] if got == want and doc.get("diagram") else [f"links {got} != {want}"]
    if case == "render":
        lines = len(doc["diagram"].splitlines())
        return [] if lines == 4 + 4 * a["letters"] else [f"diagram has {lines} lines"]
    return []


def _cli_text(case: str, req: Request, text: str) -> list[str]:
    a = req.args
    lines = text.splitlines()
    if case == "relations":
        return [] if lines and lines[-1] == "result: PASS" else ["relations did not pass"]
    if case == "eval":
        prefix = "closure: phase * identity with phase = "
        found = [l for l in lines if l.startswith(prefix)]
        phase = 6 * a["theta"] + math.pi
        ok = found and phase_gap(float(found[0][len(prefix):].split()[0]), phase) <= 1e-9
        return [] if ok else [f"no closure line with phase {phase}"]
    if case == "entangle":
        want = ["matched named state: " + a["state"],
                "concurrence: 1.000000" if a["state"] == "bell" else "three-tangle: 1.000000"]
        return [] if all(w in lines for w in want) else [f"missing {want}"]
    if case == "lu-default":
        want = ["|<phi|transformed>| = 1.000000000000", "result: FAIL"]
        return [] if all(w in lines for w in want) else [f"missing {want}"]
    if case == "lu-random":
        return [] if lines and lines[-1] == "result: PASS" else ["lu-check did not pass"]
    if case == "links":
        n = int(a["argv"][a["argv"].index("--strands") + 1])
        want = [f"closure components: {components(a['expansion'], n)}",
                f"exponent sum: {exponent_sum(a['expansion'])}"]
        return [] if all(w in lines for w in want) else [f"missing {want}"]
    if case == "render":
        return [] if len(lines) == 4 + 4 * a["letters"] else [f"diagram has {len(lines)} lines"]
    return []


def check_cli(ctx: Context, req: Request, out) -> tuple[list[str], None]:
    case = req.args["case"]
    rc, stdout, stderr = out["rc"], out["stdout"], out["stderr"]
    if case == "bad":
        lines = stderr.splitlines()
        ok = rc == 2 and not stdout and len(lines) == 1 and lines[0].startswith("error: ")
        return ([] if ok else [f"exit {rc} with {len(lines)} stderr lines, expected exit 2 "
                               "and one 'error:' line"]), None
    want_rc = 1 if case == "lu-default" else 0
    if rc != want_rc:
        return [f"exit {rc}, expected {want_rc}: {stderr.strip()[-200:]}"], None
    if "--format" in req.args["argv"] and req.args["argv"][-1] == "json":
        try:
            doc = json.loads(stdout)
        except ValueError:
            return ["stdout is not one JSON document"], None
        try:
            return _cli_json(case, req, doc), None
        except (KeyError, TypeError) as exc:
            return [f"JSON document lacks {exc}"], None
    return _cli_text(case, req, stdout), None


CHECKS = {
    "word": check_word,
    "probe": check_probe,
    "word3": check_tripartite,
    "lu": check_tripartite,
    "cli": check_cli,
}


def check(ctx: Context, req: Request, out) -> tuple[list[str], float | None]:
    return CHECKS[req.kind](ctx, req, out)


def fingerprint(req: Request, out):
    """A value the same request must reproduce on every later pass."""
    if req.kind == "cli":
        return out["rc"], out["stdout"], out["stderr"]
    parts = []
    for key in ("matrix", "state", "entropies", "schmidt", "three_tangle", "pair_concurrences"):
        value = out.get(key)
        if value is None:
            continue
        value = getattr(value, "amplitudes", value)
        parts.append(np.asarray(value, dtype=complex).ravel())
    if "summary" in out:
        s, c = out["summary"], out["closure"]
        parts.append(np.array([len(out["word"]), s.components, s.exponent_sum, c.closes,
                               9.0 if c.phase is None else c.phase], dtype=complex))
    if "profile" in out:
        parts.append(np.array([(e.probability, -1.0 if e.concurrence is None else e.concurrence)
                               for e in out["profile"].entries], dtype=complex).ravel())
    return np.concatenate(parts)


def same(a, b) -> bool:
    if isinstance(a, np.ndarray) and isinstance(b, np.ndarray):
        return a.shape == b.shape and float(np.max(np.abs(a - b), initial=0.0)) <= 1e-9
    return a == b
