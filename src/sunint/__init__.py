"""Exact and Monte Carlo moments of Haar-random unitary matrix elements.

The exact layer works over the field of rational functions in the matrix
dimension N: coefficient tables for balanced moments, for the
determinant sector of the special unitary group, and large-N series of
the associated free energies.  The numeric layer draws Haar samples and
cross-checks every exact value statistically.  It needs numpy, so its
names are loaded from ``haar_mc`` on first access (PEP 562), and the
exact layer runs without numpy.
"""
from .exactmath import (
    N,
    InconsistentSystemError,
    LinearSystemError,
    PolyN,
    RankDeficientError,
    RatFuncN,
    format_poly,
    parse_ratfunc,
    poly_gcd,
    solve_linear_system,
)
from .largen import (
    TraceSeries,
    shifted_free_energy_closed,
    shifted_free_energy_fixedpoint,
    shifted_free_energy_from_tables,
    strong_coupling_coeff,
    strong_coupling_series,
)
from .partitions import (
    Partition,
    catalan,
    character,
    class_size,
    dim_gl,
    dim_sn,
    enumerate_diagrams,
    enumerate_partitions,
)
from .reference import reference_families, reference_table, reference_weights
from .su_shifted import (
    check_shift_identity,
    epsilon_integral,
    shifted_table,
    shifted_table_recursive,
)
from .weingarten import (
    MAX_TENSOR_WEIGHT,
    MAX_WEIGHT,
    CoeffTable,
    SectorError,
    monomial_integral,
    weingarten_class_coefficient,
    weingarten_table_character,
    weingarten_table_recursive,
)

__version__ = "0.1.0"

__all__ = [
    "N", "PolyN", "RatFuncN", "poly_gcd", "format_poly", "parse_ratfunc",
    "solve_linear_system", "LinearSystemError", "RankDeficientError",
    "InconsistentSystemError",
    "Partition", "enumerate_partitions", "enumerate_diagrams",
    "class_size", "character", "dim_sn", "dim_gl", "catalan",
    "CoeffTable", "SourceMatrices", "SectorError", "MAX_WEIGHT",
    "MAX_TENSOR_WEIGHT", "weingarten_class_coefficient",
    "weingarten_table_character", "weingarten_table_recursive",
    "monomial_integral", "eval_ordinary",
    "epsilon_integral", "shifted_table", "shifted_table_recursive",
    "eval_shifted", "check_shift_identity",
    "TraceSeries", "shifted_free_energy_closed",
    "shifted_free_energy_fixedpoint", "shifted_free_energy_from_tables",
    "strong_coupling_coeff", "strong_coupling_series",
    "GroupSpec", "MCEstimate", "UNITARY", "SPECIAL_UNITARY",
    "sample_haar", "estimate_trace_moment", "estimate_monomial",
    "compare", "random_source_matrices",
    "reference_families", "reference_weights", "reference_table",
]


def __getattr__(name: str):
    # a name in __all__ that is not bound above is one of haar_mc's
    if name in __all__:
        from . import haar_mc
        return getattr(haar_mc, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
