"""The top-level package surface, and the README's library example that uses it."""

import re
from pathlib import Path

import braident

README = Path(__file__).resolve().parents[1] / "README.md"

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
