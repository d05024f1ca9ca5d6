"""Exact and Monte Carlo moments of Haar-random unitary matrix elements.

The exact layer works over the field of rational functions in the matrix
dimension N: coefficient tables for balanced moments, for the
determinant sector of the special unitary group, and large-N series of
the associated free energies.  The numeric layer draws Haar samples and
cross-checks every exact value statistically; it lives in ``haar_mc``,
the one module that needs numpy.

``import sunint`` loads no submodule.  Each public name is imported from
its home module on first access (PEP 562) and then kept in the package
namespace, so ``sunint.shifted_table`` loads only ``su_shifted`` and the
modules it imports, and numpy is loaded only by the first numeric name.
"""
import importlib

__version__ = "0.1.0"

# each public name, under the submodule that defines it
_EXPORTS = {
    "exactmath": (
        "N", "PolyN", "RatFuncN", "poly_gcd", "format_poly",
        "solve_linear_system", "LinearSystemError", "RankDeficientError",
        "InconsistentSystemError"),
    "partitions": (
        "Partition", "enumerate_partitions", "enumerate_diagrams",
        "class_size", "character", "dim_sn", "dim_gl", "catalan"),
    "weingarten": (
        "CoeffTable", "MAX_WEIGHT", "weingarten_table_character",
        "weingarten_table_recursive", "monomial_integral"),
    "su_shifted": (
        "epsilon_integral", "shifted_table", "shifted_table_recursive",
        "check_shift_identity"),
    "largen": (
        "TraceSeries", "shifted_free_energy_closed",
        "shifted_free_energy_fixedpoint", "shifted_free_energy_from_tables",
        "strong_coupling_coeff", "strong_coupling_series"),
    "haar_mc": (
        "SourceMatrices", "eval_ordinary", "eval_shifted", "GroupSpec",
        "MCEstimate", "UNITARY", "SPECIAL_UNITARY", "sample_haar",
        "estimate_trace_moment", "estimate_monomial", "compare",
        "random_source_matrices"),
    "reference": ("reference_families", "reference_weights",
                  "reference_table"),
}
_HOME = {name: module for module, names in _EXPORTS.items()
         for name in names}

__all__ = list(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{_HOME[name]}")
    value = getattr(module, name)
    globals()[name] = value  # so later lookups never come back here
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
