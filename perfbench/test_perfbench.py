"""Self-tests of the benchmark.  Run: python3 -m pytest perfbench"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import loads  # noqa: E402
import oracle  # noqa: E402
from spans import REQUEST, NullRecorder, Recorder  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def canonical(requests):
    def plain(value):
        if isinstance(value, np.ndarray):
            return value.tolist()
        if isinstance(value, list):
            return [plain(v) for v in value]
        if isinstance(value, dict):
            return {k: plain(v) for k, v in value.items()}
        return value

    return [plain(dataclasses.asdict(r)) for r in requests]


@pytest.mark.parametrize("workload", loads.WORKLOADS)
def test_same_seed_same_request_list(workload):
    first = loads.generate(workload, 7)
    again = loads.generate(workload, 7)
    other = loads.generate(workload, 8)
    assert first[0] == again[0]
    assert canonical(first[1]) == canonical(again[1])
    assert canonical(first[1]) != canonical(other[1])


def test_long_words_cover_the_length_range_and_both_forms():
    _, requests = loads.generate("long_words", 3)
    letters = [r.letters for r in requests]
    assert 100 <= min(letters) < 150 and 75_000 < max(letters) <= 100_000
    assert sum(r.args["form"] == "literal" for r in requests) == len(requests) // 2
    assert {r.args["rep"] for r in requests if r.args["closing"]} == {"ge", "jones"}


def _outputs(workload):
    theta, requests = loads.generate(workload, 5, tiny=True)
    ctx = loads.build_fixed(workload, theta)
    run = loads.RUNNERS[workload]
    return ctx, [(req, run(ctx, NullRecorder(), req)) for req in requests]


def _rejects(ctx, req, out):
    errors, _ = oracle.check(ctx, req, out)
    return bool(errors)


def test_word_oracle_rejects_perturbed_outputs():
    ctx, results = _outputs("long_words")
    for req, out in results:
        assert oracle.check(ctx, req, out)[0] == []
        s = out["summary"]
        assert _rejects(ctx, req, {**out, "summary": dataclasses.replace(s, components=s.components + 1)})
        assert _rejects(ctx, req, {**out, "summary": dataclasses.replace(s, exponent_sum=s.exponent_sum + 2)})
        assert _rejects(ctx, req, {**out, "matrix": out["matrix"] * 1.001})
        shorter = dataclasses.replace(out["word"], letters=out["word"].letters[:-1])
        assert _rejects(ctx, req, {**out, "word": shorter})
    closing = [(req, out) for req, out in results if out["closure"].closes]
    assert closing
    for req, out in closing:
        c = out["closure"]
        assert _rejects(ctx, req, {**out, "closure": dataclasses.replace(c, phase=c.phase + 0.01)})
        assert _rejects(ctx, req, {**out, "closure": dataclasses.replace(c, closes=False)})


def _state(out, amplitudes):
    return dataclasses.replace(out["state"], amplitudes=amplitudes)


def test_probe_oracle_rejects_perturbed_outputs():
    ctx, results = _outputs("wide_register")
    for req, out in results:
        assert oracle.check(ctx, req, out)[0] == []
        amps = out["state"].amplitudes
        assert _rejects(ctx, req, {**out, "state": _state(out, np.roll(amps, 1))})
        assert _rejects(ctx, req, {**out, "entropies": [e + 1e-3 for e in out["entropies"]]})
        assert _rejects(ctx, req, {**out, "schmidt": out["schmidt"] * 0.99})
        assert _rejects(ctx, req, {**out, "matrix": out["matrix"] * 1.001})


def test_tripartite_oracle_rejects_perturbed_outputs():
    ctx, results = _outputs("tripartite")
    for req, out in results:
        assert oracle.check(ctx, req, out)[0] == []
        assert _rejects(ctx, req, {**out, "three_tangle": out["three_tangle"] + 1e-3})
        pairs = list(out["pair_concurrences"])
        pairs[0] += 1e-3
        assert _rejects(ctx, req, {**out, "pair_concurrences": pairs})
        assert _rejects(ctx, req, {**out, "entropies": [e + 1e-3 for e in out["entropies"]]})
        amps = out["state"].amplitudes * np.exp(0.3j * np.arange(8))
        assert _rejects(ctx, req, {**out, "state": _state(out, amps)})
        entries = list(out["profile"].entries)
        entries[0] = dataclasses.replace(entries[0], probability=entries[0].probability + 0.01)
        profile = dataclasses.replace(out["profile"], entries=tuple(entries))
        assert _rejects(ctx, req, {**out, "profile": profile})


def test_cli_oracle_rejects_perturbed_outputs():
    ctx, results = _outputs("cli_showcase")
    for req, out in results:
        assert oracle.check(ctx, req, out)[0] == [], (req.args, out)
        assert _rejects(ctx, req, {**out, "rc": 3})
        if req.args["case"] == "bad":
            assert _rejects(ctx, req, {**out, "stderr": "Traceback\n" + out["stderr"]})
        elif req.args["argv"][-1] == "text":
            assert _rejects(ctx, req, {**out, "stdout": ""})
            shifted = out["stdout"].replace("phase = +", "phase = +1").replace("phase = -", "phase = -1")
            if shifted != out["stdout"]:
                assert _rejects(ctx, req, {**out, "stdout": shifted})
        else:
            doc = json.loads(out["stdout"])
            for key in ("closure", "matched_state", "passed", "components", "diagram"):
                if key in doc:
                    doc[key] = {"closure": {"closes": True, "phase": 0.123}}.get(key, None)
            assert _rejects(ctx, req, {**out, "stdout": json.dumps(doc)})


def test_deep_nesting_is_the_known_failure():
    ctx = loads.build_fixed("cli_showcase", 1.0)
    req = loads.deep_nesting_request()
    out = loads.run_cli(ctx, NullRecorder(), req)
    assert _rejects(ctx, req, out)  # passes once the parser stops recursing


def test_layer_self_times_add_up_to_request_time():
    rec = Recorder()

    def layer(inner):
        time.sleep(0.002)
        if inner:
            rec.call("child", time.sleep, 0.001)

    def request():
        time.sleep(0.001)
        rec.call("a", layer, True)
        rec.call("b", layer, False)
        start = rec.now()
        time.sleep(0.0005)  # stands for a child process reporting its own stamps
        rec.add("c", start, rec.now())

    for rid in range(3):
        rec.request_id = rid
        rec.call(REQUEST, request)
    self_ns = rec.self_times_ns()
    assert sum(self_ns.values()) == rec.request_ns()
    assert self_ns["c"] >= 3 * 500_000
    assert self_ns[REQUEST] >= 3 * 1_000_000  # the 1 ms sleeps outside every layer span
    rows = list(rec.rows())
    assert {r[4] for r in rows} == {0, 1, 2}
    assert all(r[3] >= 0 for r in rows if r[0] != REQUEST)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_tiny_run_prints_every_named_metric(workload, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "2",
           "--seconds", "0.05", "--trace", str(trace), "--tiny"]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=300, check=True)
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())
