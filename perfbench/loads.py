"""Seeded request lists for the perfbench workloads, and the code that runs them.

Every workload is a closed loop with one client: the next request starts when
the previous one has returned.  A request list is generated once from the seed
and replayed whole, pass after pass, so every pass does the same work.  Sizes
are stratified rather than drawn freely: the seed changes the letters, states,
angles and unitaries, while the total work of a pass stays nearly the same
from seed to seed.

Each ``run_*`` function calls into the library through ``rec.call(name, ...)``;
the names are the per-layer span names (``braids.parse``, ``reps.evaluate``,
...).  The untraced recorder calls straight through.
"""

from __future__ import annotations

import os
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from braident import (
    apply,
    apply_local,
    basis_state,
    closure_check,
    concurrence_mixed2,
    density,
    evaluate,
    generic_rep,
    ge_rep,
    jones_rep,
    b2_rep,
    named_state,
    parse_braid_word,
    partial_trace,
    residual_profile,
    schmidt_coefficients,
    summarize_closure,
    three_tangle,
    vn_entropy,
)

WORKLOADS = ("cli_showcase", "long_words", "wide_register", "tripartite")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

STRANDS = {"b2": 2, "ge": 3, "jones": 3}
CLOSING_BASE = {"ge": [1, 2], "jones": [1, -2]}  # (s1 s2)^3m and (s1 s2^-1)^3m
DEEP_NESTING = 3000


@dataclass
class Request:
    """One request of a workload.

    ``letters`` is the letter count after power expansion and
    ``power_letters`` the part of it produced by ``^k``; ``dim`` is the
    register dimension 2^strands (0 where no register is involved).
    """

    rid: int
    kind: str
    args: dict = field(default_factory=dict)
    letters: int = 0
    power_letters: int = 0
    dim: int = 0


@dataclass
class Context:
    """What a workload builds once before its first request."""

    theta: float
    reps: dict = field(default_factory=dict)
    traced_cli: bool = False


class RequestError(Exception):
    """A request's output could not be produced (e.g. a child process hung)."""


# --- inputs -----------------------------------------------------------------


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOADS.index(workload)])


def haar(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar unitary by QR with the phase fix; independent of the library's own."""
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_letters(rng: np.random.Generator, strands: int, count: int) -> np.ndarray:
    """Signed generator indices: +i is s_i, -i is s_i^-1."""
    index = rng.integers(1, strands, size=count)
    sign = rng.choice(np.array([-1, 1]), size=count)
    return (index * sign).astype(np.int64)


def letters_text(letters) -> str:
    return " ".join(f"s{x}" if x > 0 else f"s{-x}^-1" for x in letters)


def repeat(letters: np.ndarray, k: int) -> np.ndarray:
    """The grammar's (w)^k: w repeated k times, or w's inverse repeated -k times."""
    if k >= 0:
        return np.tile(letters, k)
    return np.tile(-letters[::-1], -k)


def _log_strata(count: int, lo: float, hi: float, rng) -> list[float]:
    """The midpoint of each of ``count`` strata of [lo, hi], jittered by a tenth of a stratum."""
    width = (hi - lo) / count
    return [lo + width * (i + 0.5 + rng.uniform(-0.1, 0.1)) for i in range(count)]


def _powered(rng, rep: str, target: int, closing: bool) -> tuple[str, np.ndarray, int]:
    """Compact powered text of about ``target`` letters: (text, expansion, written).

    A closing word is (s1 s2)^3m on ge or (s1 s2^-1)^3m on jones; otherwise
    the text is ((base)^inner tail)^outer with random signed powers.
    """
    strands = STRANDS[rep]
    if closing:
        base = np.array(CLOSING_BASE[rep])
        power = 3 * max(1, round(target / 6))
        return f"({letters_text(base)})^{power}", repeat(base, power), len(base)
    # Balanced signs in the base keep about half the expanded letters
    # inverses whatever the powers' signs, as in literal words.
    half = int(rng.integers(1, 3))
    base = np.abs(random_letters(rng, strands, 2 * half)) * rng.permutation(np.repeat([1, -1], half))
    tail = random_letters(rng, strands, int(rng.integers(1, 4)))
    outer = int(rng.integers(2, 10))
    inner = max(1, round((target / outer - len(tail)) / len(base)))
    inner *= int(rng.choice([-1, 1]))
    outer *= int(rng.choice([-1, 1]))
    text = f"(({letters_text(base)})^{inner} {letters_text(tail)})^{outer}"
    expansion = repeat(np.concatenate([repeat(base, inner), tail]), outer)
    return text, expansion, len(base) + len(tail)


def gen_long_words(rng, tiny: bool) -> list[Request]:
    # Six cells (rep x literal/powered).  The 24 lengths are the midpoints of
    # 24 log strata over 10^2..10^5; cell c takes strata c, c+6, c+12, c+18,
    # so every cell spans the whole range and the cell-to-size assignment is
    # fixed, which keeps the work of a pass the same from seed to seed.
    cells = [(rep, form) for form in ("literal", "powered") for rep in ("b2", "ge", "jones")]
    per_cell = 1 if tiny else 4
    hi = 2.5 if tiny else 5.0
    positions = _log_strata(len(cells) * per_cell, 2.0, hi, rng)
    requests = []
    for c, (rep, form) in enumerate(cells):
        for j in range(per_cell):
            target = round(10 ** positions[c + len(cells) * j])
            closing = rep in CLOSING_BASE and j % 2 == 1
            if form == "literal":
                expansion = random_letters(rng, STRANDS[rep], target)
                text, written = letters_text(expansion), len(expansion)
            else:
                text, expansion, written = _powered(rng, rep, target, closing)
            requests.append(
                Request(
                    0, "word",
                    {"rep": rep, "text": text, "expansion": expansion, "form": form,
                     "closing": form == "powered" and closing},
                    letters=len(expansion),
                    power_letters=len(expansion) - written,
                    dim=2 ** STRANDS[rep],
                )
            )
    return requests


def gen_wide_register(rng, tiny: bool) -> list[Request]:
    pool = [haar(4, rng) for _ in range(4)]
    strand_counts = (4, 5) if tiny else (4, 5, 6, 7, 8)
    per_n = 1 if tiny else 4
    requests = []
    for n in strand_counts:
        for j in range(per_n):
            count = round(20 + 120 * (j + 0.5 + rng.uniform(-0.1, 0.1)) / per_n)
            letters = random_letters(rng, n, count)
            bits = "".join(rng.choice(["0", "1"], size=n))
            requests.append(
                Request(
                    0, "probe",
                    {"u": pool[int(rng.integers(len(pool)))], "strands": n,
                     "text": letters_text(letters), "expansion": letters, "bits": bits},
                    letters=count, dim=2**n,
                )
            )
    return requests


def gen_tripartite(rng, tiny: bool) -> list[Request]:
    per_length = 1 if tiny else 4
    lengths = (1, 12) if tiny else range(1, 13)
    requests = []
    for rep in ("ge", "jones"):
        for length in lengths:
            for _ in range(per_length):
                letters = random_letters(rng, 3, length)
                bits = "".join(rng.choice(["0", "1"], size=3))
                requests.append(
                    Request(
                        0, "word3",
                        {"rep": rep, "text": letters_text(letters),
                         "expansion": letters, "bits": bits},
                        letters=length, dim=8,
                    )
                )
    for name in ("ghz", "phi"):
        for _ in range(len(lengths) * per_length):
            requests.append(
                Request(0, "lu", {"state": name, "factors": [haar(2, rng) for _ in range(3)]}, dim=8)
            )
    return requests


def _short_word(rng, strands: int) -> np.ndarray:
    return random_letters(rng, strands, int(rng.integers(1, 13)))


def gen_cli_showcase(rng, tiny: bool) -> list[Request]:
    """The README commands in text and json, plus four malformed inputs."""
    requests = []

    def add(kind, argv, **expect):
        requests.append(Request(0, "cli", {"case": kind, "argv": argv, **expect}))

    def theta():
        return float(rng.uniform(0.3, 2.8))

    for fmt in ("text", "json"):
        f = ["--format", fmt]
        reps = ("ge",) if tiny else ("b2", "ge", "jones")
        for rep in reps:
            t = theta()
            add("relations", ["relations", "--rep", rep, "--theta", repr(t), *f], rep=rep)
        t = theta()
        add("eval", ["eval", "--rep", "ge", "--word", "(s1 s2)^3", "--theta", repr(t), *f],
            theta=t)
        showcase = (("jones", "s1 s2^-1", "ghz"), ("ge", "s1 s2", "phi"), ("b2", "s1", "bell"))
        for rep, word, state in showcase[:1] if tiny else showcase:
            add("entangle",
                ["entangle", "--rep", rep, "--word", word, "--theta", repr(theta()), *f],
                state=state)
        add("lu-default", ["lu-check", *f])
        if not tiny:
            add("lu-random",
                ["lu-check", "--factors", "random-unitary",
                 "--seed", str(int(rng.integers(0, 10**6))), *f])
        n = int(rng.integers(2, 9))
        letters = _short_word(rng, n)
        add("links", ["links", "--word", letters_text(letters), "--strands", str(n),
                      "--diagram", *f], expansion=letters)
        if not tiny:
            n = int(rng.integers(2, 9))
            letters = _short_word(rng, n)
            add("render", ["render", "--word", letters_text(letters), "--strands", str(n), *f],
                letters=len(letters))
    bad = [
        ["eval", "--rep", "ge", "--word", "(s1 s2" + "".join(
            f" s{i}" for i in rng.integers(1, 3, size=3))],
        ["links", "--word", f"s1 s{int(rng.integers(3, 10))}", "--strands", "3"],
        ["entangle", "--rep", "ge", "--word", "s1",
         "--state", "".join(rng.choice(["0", "1"], size=2)) + "x"],
        ["eval", "--rep", "b2", "--word", "s1", "--theta", "nan"],
    ]
    for argv in bad[:1] if tiny else bad:
        add("bad", argv + ["--format", str(rng.choice(["text", "json"]))])
    return requests


GENERATORS = {
    "cli_showcase": gen_cli_showcase,
    "long_words": gen_long_words,
    "wide_register": gen_wide_register,
    "tripartite": gen_tripartite,
}


def generate(workload: str, seed: int, tiny: bool = False) -> tuple[float, list[Request]]:
    """The run's angle and its fixed, shuffled request list; same seed, same list."""
    rng = _rng(workload, seed)
    theta = float(rng.uniform(0.3, 2.8))
    requests = GENERATORS[workload](rng, tiny)
    order = rng.permutation(len(requests))
    requests = [requests[i] for i in order]
    for rid, req in enumerate(requests):
        req.rid = rid
    return theta, requests


def deep_nesting_request() -> Request:
    """Parens nested 3000 deep: must exit 2 with one error line (known failure)."""
    word = "(" * DEEP_NESTING + "s1" + ")" * DEEP_NESTING
    return Request(-1, "cli", {"case": "bad", "argv": ["eval", "--rep", "ge", "--word", word]})


# --- set-up -----------------------------------------------------------------

FIXED_REPS = {
    "cli_showcase": (),
    "long_words": ("b2", "ge", "jones"),
    "wide_register": (),
    "tripartite": ("ge", "jones"),
}


def build_fixed(workload: str, theta: float) -> Context:
    """Build what the workload's requests share; timed as ``setup_s``."""
    builders = {"b2": lambda: b2_rep(theta), "ge": lambda: ge_rep(theta), "jones": jones_rep}
    ctx = Context(theta, {name: builders[name]() for name in FIXED_REPS[workload]})
    if workload == "cli_showcase":
        import braident.cli  # noqa: F401  (what every CLI request imports)
    return ctx


# --- execution --------------------------------------------------------------


def run_word(ctx: Context, rec, req: Request):
    rep = ctx.reps[req.args["rep"]]
    word = rec.call("braids.parse", parse_braid_word, req.args["text"], rep.strands)
    rec.count("braids.letters", len(word))
    rec.count("braids.power_letters", req.power_letters)
    summary = rec.call("links.summarize_closure", summarize_closure, word)
    matrix = rec.call("reps.evaluate", evaluate, rep, word)
    rec.count("reps.evaluate_letters", len(word))
    closure = rec.call("reps.closure_check", closure_check, rep, word)
    return {"word": word, "summary": summary, "matrix": matrix, "closure": closure}


def _entropies(rec, rho, qubits: int) -> list[float]:
    return [
        rec.call("entanglement.vn_entropy", vn_entropy,
                 rec.call("states.partial_trace", partial_trace, rho, {q}))
        for q in range(1, qubits + 1)
    ]


def run_probe(ctx: Context, rec, req: Request):
    n = req.args["strands"]
    rep = rec.call("reps.build", generic_rep, req.args["u"], n)
    rec.count("reps.build_calls", 1)
    word = rec.call("braids.parse", parse_braid_word, req.args["text"], n)
    rec.count("braids.letters", len(word))
    matrix = rec.call("reps.evaluate", evaluate, rep, word)
    rec.count("reps.evaluate_letters", len(word))
    state = rec.call("states.apply", apply, matrix, basis_state(req.args["bits"]))
    rho = rec.call("states.density", density, state)
    entropies = _entropies(rec, rho, n)
    schmidt = rec.call("entanglement.schmidt", schmidt_coefficients, state, range(1, n // 2 + 1))
    return {"matrix": matrix, "state": state, "entropies": entropies, "schmidt": schmidt}


PAIRS = ({1, 2}, {1, 3}, {2, 3})


def run_tripartite(ctx: Context, rec, req: Request):
    if req.kind == "word3":
        rep = ctx.reps[req.args["rep"]]
        word = rec.call("braids.parse", parse_braid_word, req.args["text"], 3)
        rec.count("braids.letters", len(word))
        matrix = rec.call("reps.evaluate", evaluate, rep, word)
        rec.count("reps.evaluate_letters", len(word))
        state = rec.call("states.apply", apply, matrix, basis_state(req.args["bits"]))
    else:
        matrix = None
        state = rec.call("states.apply_local", apply_local,
                         named_state(req.args["state"]), req.args["factors"])
    tangle = rec.call("entanglement.three_tangle", three_tangle, state)
    profile = rec.call("entanglement.residual_profile", residual_profile, state)
    rho = rec.call("states.density", density, state)
    entropies = _entropies(rec, rho, 3)
    pairs = [
        rec.call("entanglement.concurrence_mixed2", concurrence_mixed2,
                 rec.call("states.partial_trace", partial_trace, rho, pair))
        for pair in PAIRS
    ]
    return {"matrix": matrix, "state": state, "three_tangle": tangle, "profile": profile,
            "entropies": entropies, "pair_concurrences": pairs}


CLI_TIMEOUT_S = 60


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_cli(ctx: Context, rec, req: Request):
    """One CLI subprocess; traced runs start it through probe_cli.py for its spans."""
    argv = req.args["argv"]
    if not ctx.traced_cli:
        return _spawn([sys.executable, "-m", "braident.cli", *argv])
    read_fd, write_fd = os.pipe()
    try:
        start = rec.now()
        out = _spawn([sys.executable, str(HERE / "probe_cli.py"), str(write_fd), *argv],
                     pass_fds=(write_fd,), close_fd=write_fd)
        with os.fdopen(read_fd, "rb") as fh:
            read_fd = -1
            stamps = fh.read().split()
    finally:
        if read_fd >= 0:
            os.close(read_fd)
    if len(stamps) == 3:
        numpy_done, cli_done, main_done = (int(s) for s in stamps)
        rec.add("cli.floor", start, numpy_done)
        rec.add("cli.import", numpy_done, cli_done)
        rec.add("cli.main", cli_done, main_done)
    return out


def _spawn(cmd: list[str], pass_fds=(), close_fd: int = -1) -> dict:
    try:
        proc = subprocess.Popen(
            cmd, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, pass_fds=pass_fds,
        )
    finally:
        if close_fd >= 0:
            os.close(close_fd)
    try:
        stdout, stderr = proc.communicate(timeout=CLI_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RequestError(f"no exit within {CLI_TIMEOUT_S} s")
    return {"rc": proc.returncode, "stdout": stdout.decode(), "stderr": stderr.decode()}


RUNNERS = {
    "cli_showcase": run_cli,
    "long_words": run_word,
    "wide_register": run_probe,
    "tripartite": run_tripartite,
}


def describe(requests: list[Request]) -> dict:
    """Measured input properties of a request list, for the result record."""
    letters = [r.letters for r in requests if r.letters]
    dims: dict[str, int] = {}
    for r in requests:
        if r.dim:
            dims[str(r.dim)] = dims.get(str(r.dim), 0) + 1
    total = sum(dims.values())
    power = sum(r.power_letters for r in requests)
    return {
        "requests": len(requests),
        "letters_min": min(letters, default=0),
        "letters_max": max(letters, default=0),
        "letters_total": sum(letters),
        "power_share": power / sum(letters) if letters else 0.0,
        "dimension_share": {d: round(c / total, 4) for d, c in sorted(dims.items(), key=lambda kv: int(kv[0]))},
    }

