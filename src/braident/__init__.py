"""Unitary braid-group representations on qubit registers.

Parse braid words, evaluate them through two-strand and three-strand unitary
representations, verify the defining relations and closure conditions
numerically, and quantify the entanglement of the states the words generate.
Names not exported here stay importable from their submodules.
"""

from .braids import BraidWord, WordSyntaxError, concat, parse_braid_word, permutation_image
from .entanglement import (
    concurrence_mixed2,
    residual_profile,
    schmidt_coefficients,
    three_tangle,
    vn_entropy,
)
from .links import summarize_closure
from .reps import (
    Representation,
    b2_rep,
    closure_check,
    evaluate,
    ge_rep,
    generic_rep,
    jones_rep,
)
from .states import (
    DensityMatrix,
    PureState,
    apply,
    apply_local,
    basis_state,
    density,
    named_state,
    partial_trace,
)

__version__ = "0.1.0"

__all__ = [
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
