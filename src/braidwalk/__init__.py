"""Exact braid-group calculus: Burau matrices, signature invariants via the
Meyer cocycle, random walks on braid and symplectic groups, and the braid
classification behind Lissajous toric knots."""

from .braid import BraidWord, closure_components, concat, inverse, parse_word, format_word, permutation, writhe
from .burau import (
    alexander_at_minus1,
    alexander_poly,
    burau_matrix,
    burau_minus1,
    intersection_form,
    is_form_preserving,
    radical_vector,
    symplectic_image,
    symplectic_quotient,
)
from .laurent import LaurentPoly
from .lissajous import (
    LissajousClass,
    LissajousParams,
    bezout_a,
    braid_from_parametrization,
    classify,
    lambda_seq,
    lissajous_braid,
    percentage_table,
    percentage_tables,
    power_signature,
    sample_polyline,
)
from .meyer import (
    SignatureResult,
    check_big_entries,
    gg_signature,
    is_hyperbolic,
    meyer_cocycle,
    power_signatures,
    seifert_signature_oracle,
)
from .walks import (
    FiniteWalkResult,
    GenMeasure,
    finite_walk_tv,
    hitting_series,
    monte_carlo_hitting,
    psp_order,
    sp_order,
    zero_density,
)

__version__ = "0.1.0"

__all__ = [
    "BraidWord",
    "FiniteWalkResult",
    "GenMeasure",
    "LaurentPoly",
    "LissajousClass",
    "LissajousParams",
    "SignatureResult",
    "alexander_at_minus1",
    "alexander_poly",
    "bezout_a",
    "braid_from_parametrization",
    "burau_matrix",
    "burau_minus1",
    "check_big_entries",
    "classify",
    "closure_components",
    "concat",
    "finite_walk_tv",
    "format_word",
    "gg_signature",
    "hitting_series",
    "intersection_form",
    "inverse",
    "is_form_preserving",
    "is_hyperbolic",
    "lambda_seq",
    "lissajous_braid",
    "meyer_cocycle",
    "monte_carlo_hitting",
    "parse_word",
    "percentage_table",
    "percentage_tables",
    "permutation",
    "power_signature",
    "power_signatures",
    "psp_order",
    "radical_vector",
    "sample_polyline",
    "seifert_signature_oracle",
    "sp_order",
    "symplectic_image",
    "symplectic_quotient",
    "writhe",
    "zero_density",
    "__version__",
]
