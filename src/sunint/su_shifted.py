"""The determinant sector, specific to the special unitary group: averages
with exactly N more factors of U than of U-dagger.

The n = 0 base case is the epsilon-tensor integral, equivalently det K at the
generating-function level.  For n >= 1 the trace-monomial coefficients come
from two independent routes: the dimension-shift relation applied to the
balanced-sector table, and the recursion system whose only differences from
the balanced one are the N -> N+1 replacement in the delta-contraction term
and an extra (N+n) factor on the right-hand side.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial
from typing import Sequence

from .exactmath import N, PolyN, RatFuncN, _linear_product
from .partitions import Partition, enumerate_partitions
from .weingarten import (
    MAX_WEIGHT,
    CoeffTable,
    _character_table,
    _cycle_type,
    recursion_step,
    weingarten_table_character,
)


def _levi_civita(indices: Sequence[int], dim: int) -> int:
    """Sign of the index tuple as a permutation of 1..dim; 0 on repeats."""
    if sorted(indices) != list(range(1, dim + 1)):
        return 0
    cycles = _cycle_type([x - 1 for x in indices]).num_parts
    return (-1) ** (dim - cycles)


def epsilon_integral(i: Sequence[int], j: Sequence[int],
                     dim: int) -> Fraction:
    """Exact Haar average over the special unitary group of
    U_{i1 j1} ... U_{iN jN} (one factor per dimension, no daggers):
    the product of the two epsilon signs divided by N!.  Indices 1-based."""
    if dim < 1 or any(not 1 <= x <= dim for x in (*i, *j)):
        raise ValueError(f"need dim >= 1 and indices in 1..{dim}")
    if len(i) != dim or len(j) != dim:
        raise ValueError(f"index lists must have length {dim}")
    return Fraction(_levi_civita(i, dim) * _levi_civita(j, dim),
                    factorial(dim))


@lru_cache(maxsize=None)
def shifted_table(n: int) -> CoeffTable:
    """Determinant-sector table via the dimension-shift relation:
    entry(alpha) = (N+n)(N+n-1)...(N+1) * balanced entry(alpha) at N+1,
    the balanced character route run one dimension up."""
    return _character_table(n, 1)


@lru_cache(maxsize=None)
def shifted_table_recursive(n: int) -> CoeffTable:
    """Determinant-sector table from the recursion system alone, anchored at
    the weight-0 base {empty: 1} (the epsilon-tensor / det K case)."""
    if n < 0:
        raise ValueError("weight must be nonnegative")
    if n > MAX_WEIGHT:
        raise ValueError(f"weight {n} above supported cap {MAX_WEIGHT}")
    if n == 0:
        return CoeffTable(n=0, family="su-shifted",
                          entries={Partition(): RatFuncN(1)})
    prev = shifted_table_recursive(n - 1)
    entries = recursion_step(prev, marked=N + 1, rhs_scale=(N + n) * n)
    return CoeffTable(n=n, family="su-shifted", entries=entries)


def check_shift_identity(n: int) -> list[dict]:
    """Confirm, per partition of n, that the recursion-derived
    determinant-sector entry matches the pole-stripped numerator of the
    balanced entry evaluated one dimension up.

    When the balanced entry times N^2 (N^2-1) ... (N^2-(n-1)^2) is a
    polynomial P, the claim is entry * (N+1) N (N-1) ... (N-(n-2)) = P(N+1).
    That product clears every pole for n <= 5 only.  From n = 6 on, most
    balanced entries have double poles at N = +-1 (a factor (N^2-1)^2 in the
    denominator), so the product stays a rational function; such rows report
    ``ok`` False and ``numerator`` None (at n = 6, all but 1^1 5^1 and 6^1).
    The determinant-sector side uses the recursion route so the two tables
    enter through independent derivations.
    """
    if n < 1:
        raise ValueError("weight must be positive")
    balanced = weingarten_table_character(n)
    shifted = shifted_table_recursive(n)
    # N^2 (N^2-1) ... (N^2-(n-1)^2) and (N+1) N (N-1) ... (N-(n-2))
    even_product = PolyN(
        _linear_product({k: 1 + (k == 0) for k in range(1 - n, n)}))
    down_product = PolyN(_linear_product({1 - m: 1 for m in range(n)}))
    report = []
    for alpha in enumerate_partitions(n):
        stripped = balanced[alpha] * even_product
        ok = stripped.is_polynomial
        if ok:
            ok = shifted[alpha] * down_product == stripped.shifted(1)
        report.append({
            "partition": alpha.to_string(),
            "ok": bool(ok),
            "numerator": str(stripped) if stripped.is_polynomial else None,
        })
    return report
