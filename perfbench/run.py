"""braident benchmark: one workload, one run, one JSON result line.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: cli_showcase, long_words, wide_register, tripartite (see
BENCHMARK.json and perfbench/README.md).  The seed fixes the request list.
The list is replayed whole, pass after pass, until about S seconds of
requests have been timed.  The first pass is checked against the oracles in
oracle.py and every later pass must reproduce the first pass's outputs; each
output is checked when its request returns, outside the timed interval.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced and
traced passes and prints the per-layer metrics of the traced ones, plus the
tracing overhead.  The last stdout line is the result object; the line
before it records the environment, the input properties and any failures.
Results and spans are also written under perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BLAS_THREADS = "1"
SETUP_REPEATS = 7
MAX_LISTED_FAILURES = 20

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

PER_LAYER_MS = (
    "braids.parse", "links.summarize_closure", "reps.build", "reps.evaluate",
    "reps.closure_check", "states.apply", "states.apply_local", "states.density",
    "states.partial_trace", "entanglement.three_tangle", "entanglement.residual_profile",
    "entanglement.concurrence_mixed2", "entanglement.vn_entropy", "entanglement.schmidt",
    "cli.floor", "cli.import", "cli.main",
)
PER_LAYER_COUNTS = ("braids.letters", "reps.build_calls", "reps.evaluate_letters")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=["cli_showcase", "long_words", "wide_register", "tripartite"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], required=True)
    p.add_argument("--tiny", action="store_true", help="minimal request list (self-tests)")
    return p.parse_args(argv)


def blas_info() -> dict:
    """BLAS library and the thread count it reports, where it can be asked."""
    import ctypes

    import numpy as np

    info = {"blas": np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"],
            "blas_threads_requested": int(BLAS_THREADS), "blas_threads": None}
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({l.split()[-1] for l in fh if "openblas" in l and ".so" in l})
        for lib in libs:
            for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
                fn = getattr(ctypes.CDLL(lib), symbol, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    info["blas_threads"] = fn()
                    return info
    except OSError:
        pass
    return info


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def setup_seconds(workload: str, theta: float, env: dict) -> float:
    """Set-up seconds of one fresh interpreter (see probe_setup.py)."""
    out = subprocess.run(
        [sys.executable, str(HERE / "probe_setup.py"), workload, repr(theta)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "braident" / "__init__.py").is_file():
        print(f"error: no braident sources under {SRC}", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(SRC))

    import numpy as np

    import braident
    import loads
    import oracle
    from spans import REQUEST, NullRecorder, Recorder

    if Path(braident.__file__).resolve().parent != (SRC / "braident").resolve():
        print(f"error: braident imported from {braident.__file__}, not {SRC}", file=sys.stderr)
        return 2

    workload = args.workload
    theta, requests = loads.generate(workload, args.seed, args.tiny)
    info = {
        "workload": workload, "seed": args.seed, "trace": args.trace,
        "commit": git_commit(), "python": platform.python_version(),
        "numpy": np.__version__, "nproc": len(os.sched_getaffinity(0)), **blas_info(),
        "loop": "closed, one client" + (", one child process at a time"
                                        if workload == "cli_showcase" else ""),
        "theta": theta, "inputs": loads.describe(requests),
    }

    # Set-up is probed in fresh interpreters spread over the run (after one
    # discarded probe that warms the bytecode cache), so that a burst of host
    # slowdown moves at most a minority of the probes behind the median.
    setup_repeats = 0 if args.trace else 1 if args.tiny else SETUP_REPEATS
    setups: list[float] = []
    if setup_repeats:
        setup_seconds(workload, theta, loads.child_env())
    ctx = loads.build_fixed(workload, theta)
    execute = loads.RUNNERS[workload]
    null, recorder = NullRecorder(), Recorder()

    reference: list = [None] * len(requests)  # first pass's fingerprints
    failures: dict[int, str] = {}
    failed = attempted = 0
    drift_max = 0.0

    def verify(req, out, first_pass: bool) -> str:
        """Oracle check on the first pass, fingerprint match on later ones."""
        nonlocal drift_max
        if isinstance(out, Exception):
            reference[req.rid] = ("exception", f"{type(out).__name__}: {out}")
            return reference[req.rid][1]
        if not first_pass:
            fp = oracle.fingerprint(req, out)
            return "" if oracle.same(fp, reference[req.rid]) else "output differs from pass 1"
        try:
            errors, d = oracle.check(ctx, req, out)
        except Exception as exc:  # an output the oracle cannot read is wrong
            errors, d = [f"unreadable output: {type(exc).__name__}: {exc}"], None
        drift_max = max(drift_max, d or 0.0)
        reference[req.rid] = oracle.fingerprint(req, out)
        return "; ".join(errors)

    def run_pass(rec, latencies, first_pass: bool) -> float:
        """One pass over the list; each output is checked after its request
        returns, outside its timed interval, and then dropped."""
        nonlocal failed
        timed = 0.0
        for req in requests:
            rec.request_id = req.rid
            t0 = time.perf_counter()
            try:
                out = rec.call(REQUEST, execute, ctx, rec, req)
            except Exception as exc:  # every failure is counted, the run goes on
                out = exc
            elapsed = time.perf_counter() - t0
            latencies[req.rid].append(elapsed)
            timed += elapsed
            error = verify(req, out, first_pass)
            if error:
                failed += 1
                failures.setdefault(req.rid, error)
        return timed

    for req in requests[: max(2, len(requests) // 10)]:  # warm-up, untimed
        try:
            execute(ctx, null, req)
        except Exception:
            pass

    # latencies[traced][rid]: seconds of each execution of request rid
    latencies = {mode: [[] for _ in requests] for mode in (False, True)}
    passes = {False: 0, True: 0}
    timed = 0.0
    while True:
        traced = bool(args.trace) and passes[False] > passes[True]
        ctx.traced_cli = traced
        first_pass = passes[False] + passes[True] == 0
        timed += run_pass(recorder if traced else null, latencies[traced], first_pass)
        passes[traced] += 1
        attempted += len(requests)
        while len(setups) < min(setup_repeats, math.ceil(setup_repeats * timed / args.seconds)):
            setups.append(setup_seconds(workload, theta, loads.child_env()))
        mean_pass = timed / (passes[False] + passes[True])
        if (passes[True] or not args.trace) and timed + mean_pass / 2 >= args.seconds:
            break
    while len(setups) < setup_repeats:
        setups.append(setup_seconds(workload, theta, loads.child_env()))

    info["passes"] = {"untraced": passes[False], "traced": passes[True]}
    info["timed_s"] = timed
    info["pass_seconds"] = [sum(l[i] for l in latencies[False]) for i in range(passes[False])]
    info["error_rate"] = failed / attempted
    info["failures"] = [
        {"request": rid, "case": requests[rid].args.get("case", requests[rid].kind), "error": e}
        for rid, e in sorted(failures.items())[:MAX_LISTED_FAILURES]
    ]

    # Each request's time is the mean of its executions, which spreads the
    # host's slow and fast phases evenly over the list; the percentiles are
    # taken over these per-request means (see README.md).
    means = {mode: [statistics.fmean(l) for l in lat if l] for mode, lat in latencies.items()}
    if args.trace:
        metrics = layer_metrics(recorder, passes[True])
        metrics["reps.unitarity_drift_max"] = {"value": drift_max, "unit": "norm"}
        metrics["bench.tracing_overhead"] = {
            "value": sum(means[True]) / sum(means[False]), "unit": "ratio"}
        RESULTS.mkdir(exist_ok=True)
        recorder.write(RESULTS / f"{workload}.spans.tsv")
        info["spans"] = len(recorder)
    else:
        peak_kb = resource.getrusage(
            resource.RUSAGE_CHILDREN if workload == "cli_showcase" else resource.RUSAGE_SELF
        ).ru_maxrss
        info["latency_samples"] = {"requests": len(requests), "executions": attempted,
                                   "per_request": passes[False]}
        info["setup_probes"] = setups
        if workload == "cli_showcase":
            info["known_failures"] = [known_failure(ctx, execute, oracle)]
        ms = [1e3 * m for m in means[False]]
        metrics = {
            "throughput_rps": {"value": attempted / timed, "unit": "1/s"},
            "latency_p50_ms": {"value": statistics.median(ms), "unit": "ms"},
            "latency_p90_ms": {
                "value": statistics.quantiles(ms, n=10, method="inclusive")[8], "unit": "ms"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": peak_kb / 1024, "unit": "MB"},
        }

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    RESULTS.mkdir(exist_ok=True)
    with open(RESULTS / f"{workload}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump({"info": info, "result": result}, fh, indent=1)
    print(json.dumps({"perfbench": info}))
    print(json.dumps(result))
    return 0


def layer_metrics(recorder, traced_passes: int) -> dict:
    """Per-layer busy ms and counts per traced pass."""
    self_ns = recorder.self_times_ns()
    per_pass = 1e-6 / traced_passes
    metrics = {
        f"{name}_ms": {"value": self_ns.get(name, 0) * per_pass, "unit": "ms"}
        for name in PER_LAYER_MS
    }
    for name in PER_LAYER_COUNTS:
        metrics[name] = {"value": recorder.counts.get(name, 0) / traced_passes, "unit": "count"}
    letters = recorder.counts.get("braids.letters", 0)
    metrics["braids.power_share"] = {
        "value": recorder.counts.get("braids.power_letters", 0) / letters if letters else 0.0,
        "unit": "ratio",
    }
    metrics["bench.untraced_ms"] = {"value": self_ns.get("request", 0) * per_pass, "unit": "ms"}
    return metrics


def known_failure(ctx, execute, oracle) -> dict:
    """The 3000-deep parenthesis case, run once outside the timed passes.

    It should exit 2 with one error line; today the parser recurses and the
    CLI ends in a RecursionError traceback.  It is reported here rather than
    counted in ``failed`` until the parser is fixed.
    """
    import loads
    from spans import NullRecorder

    req = loads.deep_nesting_request()
    out = execute(ctx, NullRecorder(), req)
    errors, _ = oracle.check(ctx, req, out)
    return {"case": f"eval --word with parens nested {loads.DEEP_NESTING} deep",
            "expected": "exit 2 with one 'error:' line", "exit_code": out["rc"],
            "stderr_lines": len(out["stderr"].splitlines()), "passes": not errors}


if __name__ == "__main__":
    sys.exit(main())
