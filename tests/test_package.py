"""The top-level package surface, and the README's library example that uses it."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

import braident
import braident.cli

README = Path(__file__).resolve().parents[1] / "README.md"

# Prints the top-level modules that importing every braident submodule adds
# to a fresh interpreter, leaving out the standard library.
IMPORT_ALL = """
import importlib, json, pkgutil, sys
before = {name.partition(".")[0] for name in sys.modules}
import braident
for info in pkgutil.iter_modules(braident.__path__):
    importlib.import_module("braident." + info.name)
added = {name.partition(".")[0] for name in sys.modules} - before
print(json.dumps(sorted(added - set(sys.stdlib_module_names))))
"""

EXPORTS = [
    "BraidWord",
    "DensityMatrix",
    "PureState",
    "Representation",
    "WordSyntaxError",
    "apply",
    "apply_local",
    "b2_rep",
    "basis_state",
    "closure_check",
    "concat",
    "concurrence_mixed2",
    "density",
    "evaluate",
    "ge_rep",
    "generic_rep",
    "jones_rep",
    "named_state",
    "parse_braid_word",
    "partial_trace",
    "permutation_image",
    "residual_profile",
    "schmidt_coefficients",
    "summarize_closure",
    "three_tangle",
    "vn_entropy",
]


def test_exported_names():
    assert sorted(braident.__all__) == EXPORTS
    assert all(hasattr(braident, name) for name in EXPORTS)


def test_readme_library_example_runs():
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    namespace: dict = {}
    exec(compile(code, "README.md#Library", "exec"), namespace)
    assert namespace["rep"].name == "jones"
    assert abs(namespace["three_tangle"](namespace["state"]) - 1.0) < 1e-12


def test_no_runtime_dependency_beyond_numpy():
    # Relative to a bare interpreter, which may already hold modules that
    # site hooks preload (setuptools' _distutils_hack, certifi).
    src = str(Path(braident.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_ALL], env=env, capture_output=True, text=True, check=True
    )
    assert json.loads(out.stdout) == ["braident", "numpy"]


def test_benchmark_contract(capsys):
    # perfbench/loads.py and perfbench/oracle.py read exactly these names and
    # attributes.  The benchmark is not part of this suite, so breaking one
    # shows up only as a failed or incorrect bench run: change any of them in
    # a benchmark PR first (ROADMAP items 1-2).
    rep = braident.jones_rep()
    word = braident.parse_braid_word("(s1 s2^-1)^3", rep.strands)
    assert len(word) == 6
    assert [(letter.index, letter.sign) for letter in word.letters] == [(1, 1), (2, -1)] * 3
    summary = braident.summarize_closure(word)
    assert (summary.components, summary.exponent_sum) == (3, 0)
    matrix = braident.evaluate(rep, word)
    closure = braident.closure_check(rep, word)
    assert closure.closes and abs(abs(closure.phase) - np.pi) < 1e-9
    assert np.allclose(matrix, np.exp(1j * closure.phase) * np.eye(8))
    s1 = braident.evaluate(rep, braident.parse_braid_word("s1", rep.strands))
    assert np.array_equal(s1, rep.generator_images[0])

    step = braident.evaluate(rep, braident.parse_braid_word("s1 s2^-1", rep.strands))
    state = braident.apply(step, braident.basis_state("000"))
    assert np.allclose(np.abs(state.amplitudes[[0, 7]]), 2**-0.5)
    entries = braident.residual_profile(state).entries
    assert [(e.qubit, e.outcome) for e in entries] == [(q, b) for q in (1, 2, 3) for b in (0, 1)]
    for e in entries:
        assert abs(e.probability - 0.5) < 1e-12 and abs(e.concurrence) < 1e-12

    assert braident.cli.main(["relations", "--rep", "b2", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["passed"] is True
