"""The balanced sector: averages of n matrix elements of U against n of
U-dagger over the unitary group.

Two independent derivations of the coefficient table are provided.  The
character formula sums over irreducibles of S_n; the recursion route solves
the overdetermined linear system obtained by differentiating the generating
integral once in each source and matching coefficients of the formally
independent tensors (JK)^m_{il} * t_beta.  Their agreement is a regression
test, not an implementation shortcut: neither calls the other.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm, prod
from operator import mul
from typing import Sequence

from .exactmath import (
    N,
    PolyN,
    RatFuncN,
    _linear_product,
    _over_linear_factors,
    solve_linear_system,
)
from .partitions import (
    Partition,
    _character_matrix,
    class_size,
    enumerate_partitions,
)

MAX_WEIGHT = 8  # table sizes stay desk-scale; p(8) = 22 unknowns


@dataclass(frozen=True)
class CoeffTable:
    """Coefficients of the trace monomials t_alpha for one sector weight.

    ``entries`` is keyed by every partition of ``n`` in enumeration order;
    ``family`` is "weingarten" for the balanced sector and "su-shifted" for
    the determinant sector.
    """

    n: int
    family: str
    entries: dict[Partition, RatFuncN]

    def __post_init__(self):
        expected = enumerate_partitions(self.n)
        if list(self.entries.keys()) != expected:
            raise ValueError("entries must cover all partitions of n "
                             "in enumeration order")

    def __getitem__(self, alpha: Partition) -> RatFuncN:
        return self.entries[alpha]

    def as_json_dict(self) -> dict:
        return {
            "n": self.n,
            "family": self.family,
            "entries": [
                {"partition": a.to_string(), "value": str(v)}
                for a, v in self.entries.items()
            ],
        }


@lru_cache(maxsize=None)
def _class_sums(n: int) -> tuple[dict[int, int], int,
                                 dict[Partition, list[int]]]:
    """The character sum of weight n over one common denominator.

    By the hook-content formula dim_gl(lam) = prod over cells of (N + c) /
    H(lam), with c = column - row the cell's content, so every term of C
    divides D(N) = prod_k (N + k)^{m_k}, where m_k is the largest number of
    cells of content k in any lam of weight n.  The weight of lam is
    f^2 H(lam) / n!^2 = f / n!, with f = chi^lam(1^n) = n! / H(lam), so

        n! D(N) C(alpha) = sum_lam chi^lam(1^n) chi^lam(alpha)
                           * prod_k (N + k)^{m_k - c_lam(k)},

    an integer polynomial.  Returns the exponents m_k, n! and that
    numerator's integer coefficients for every class alpha of weight n,
    built on int lists from one matrix of the weight's characters.
    """
    diagrams = enumerate_partitions(n)
    contents = [Counter(j - i for i, r in enumerate(lam.parts)
                        for j in range(r)) for lam in diagrams]
    exponents: dict[int, int] = {}
    for counts in contents:
        for k, m in counts.items():
            exponents[k] = max(exponents.get(k, 0), m)
    sums = [[0] * (sum(exponents.values()) - n + 1) for _ in diagrams]
    for counts, chi in zip(contents, _character_matrix(n)):
        cofactor = _linear_product(
            {k: m - counts[k] for k, m in exponents.items()})
        for acc, x in zip(sums, chi):
            if x:
                weight = chi[0] * x
                for d, c in enumerate(cofactor):
                    acc[d] += weight * c
    return exponents, factorial(n), dict(zip(diagrams, sums))


@lru_cache(maxsize=None)
def _class_function(n: int, dim: int) -> dict[Partition, Fraction]:
    """C(alpha) at the integer N = dim for each class alpha of weight n, in
    enumeration order (Collins and Sniady, math-ph/0402073): the sum over the
    lam with at most dim rows, the irreducibles of U(dim) (dim_gl vanishes
    on the rest), of chi^lam(1^n) chi^lam(alpha) / (n! P(lam)), P(lam) the
    product over cells of dim + content, in ints over the lcm of the P(lam).
    It equals the table entry over class_size(alpha) where that has no pole."""
    diagrams = enumerate_partitions(n)
    kept = [(chi, prod(dim + j - i for i, r in enumerate(lam.parts)
                       for j in range(r)))
            for lam, chi in zip(diagrams, _character_matrix(n))
            if lam.num_parts <= dim]
    den = lcm(*(p for _, p in kept))
    weights = [chi[0] * (den // p) for chi, p in kept]
    columns = zip(*(chi for chi, _ in kept))
    return {alpha: Fraction(sum(map(mul, weights, column)), factorial(n) * den)
            for alpha, column in zip(diagrams, columns)}


def _character_table(n: int, shift: int) -> CoeffTable:
    """The character route's weight-n table: at shift 0 the balanced sector,
    entry(alpha) = class_size(alpha) * C(alpha), and at shift 1 the
    determinant sector, that entry at N+1 times (N+1)...(N+n).  Each entry is
    built once from the character sum's numerator over its common denominator
    n! D(N+shift), in which (N+1)...(N+n) cancels one power of each N+1+k,
    0 <= k < n; the rest is reduced at its known roots, with no gcd."""
    if n < 0:
        raise ValueError("weight must be nonnegative")
    exponents, scale, sums = _class_sums(n)
    exponents = {k: m - shift * (k >= 0) for k, m in exponents.items()}
    entries = {a: _over_linear_factors(
                   (class_size(a) * PolyN(num).shifted(shift)).coeffs,
                   scale, exponents, shift=shift)
               for a, num in sums.items()}
    return CoeffTable(n, ("weingarten", "su-shifted")[shift], entries)


@lru_cache(maxsize=None)
def weingarten_table_character(n: int) -> CoeffTable:
    """Balanced-sector table via the character formula: one common-denominator
    character sum per weight, and no solver or recursion."""
    return _character_table(n, 0)


# -- recursion route ---------------------------------------------------------
#
# Differentiating the weight-n generating integral once in each source turns
# every trace monomial t_alpha into a combination of tensors
# (JK)^m_{il} * t_beta with m + |beta| = n - 1 (with (JK)^0 = delta).  Those
# tensors are formally independent for generic sources, so matching their
# coefficients against the weight-(n-1) side yields one equation per (m, beta)
# and one unknown per alpha: an overdetermined exact linear system.

def _recursion_contributions(alpha: Partition, marked: PolyN):
    """Yield ((m, beta), coefficient) rows produced by one unknown.

    ``marked`` is the polynomial multiplying the delta-contraction term: N for
    the balanced sector, N+1 for the determinant sector.
    """
    for q, aq in alpha.items():
        hat = alpha.remove_part(q)
        yield (q - 1, hat), marked * (q * aq)
        for s in range(1, q):
            yield (q - s - 1, hat.add_part(s)), q * aq
        if aq >= 2:
            yield (2 * q - 1, hat.remove_part(q)), q * q * aq * (aq - 1)
        for r, ar in alpha.items():
            if r > q:
                yield (q + r - 1, hat.remove_part(r)), 2 * q * r * aq * ar


def recursion_step(prev: CoeffTable, marked: PolyN,
                   rhs_scale: PolyN | int) -> dict[Partition, RatFuncN]:
    """Solve the weight-(n) coefficients from the weight-(n-1) table.

    The right-hand side row (0, beta) receives rhs_scale * prev[beta]; all
    other rows are homogeneous.  Raises the solver's fatal diagnostics if the
    overdetermined system is rank-deficient or inconsistent.
    """
    n = prev.n + 1
    cols = enumerate_partitions(n)
    row_keys = [(m, beta)
                for m in range(n)
                for beta in enumerate_partitions(n - 1 - m)]
    index = {key: i for i, key in enumerate(row_keys)}
    matrix: list[list[PolyN | int]] = [[0] * len(cols) for _ in row_keys]
    for c, alpha in enumerate(cols):
        for key, coeff in _recursion_contributions(alpha, marked):
            matrix[index[key]][c] = matrix[index[key]][c] + coeff
    rhs: list[RatFuncN | int] = [0] * len(row_keys)
    for beta in enumerate_partitions(n - 1):
        rhs[index[(0, beta)]] = rhs_scale * prev[beta]
    solution = solve_linear_system(matrix, rhs)
    return dict(zip(cols, solution))


@lru_cache(maxsize=None)
def weingarten_table_recursive(n: int) -> CoeffTable:
    """Balanced-sector table derived from the recursion system alone."""
    if n < 0:
        raise ValueError("weight must be nonnegative")
    if n > MAX_WEIGHT:
        raise ValueError(f"weight {n} above supported cap {MAX_WEIGHT}")
    if n == 0:
        return CoeffTable(n=0, family="weingarten",
                          entries={Partition(): RatFuncN(1)})
    prev = weingarten_table_recursive(n - 1)
    entries = recursion_step(prev, marked=N, rhs_scale=n)
    return CoeffTable(n=n, family="weingarten", entries=entries)


# -- tensor-level integral ----------------------------------------------------

def _cycle_type(sigma: Sequence[int]) -> Partition:
    seen = [False] * len(sigma)
    parts = []
    for start in range(len(sigma)):
        if seen[start]:
            continue
        length = 0
        a = start
        while not seen[a]:
            seen[a] = True
            a = sigma[a]
            length += 1
        parts.append(length)
    return Partition.from_parts(parts)


def _double_coset(sigma: tuple, left: list, right: list) -> set[tuple]:
    """H sigma K in S_n, for H and K generated by the transpositions in
    ``left`` and ``right``: the closure of {sigma} under (a b) o x (swap
    the entries a and b of x) and x o (a b) (swap positions a and b)."""
    coset = {sigma}
    stack = [sigma]
    while stack:
        x = stack.pop()
        for a, b in [(x.index(u), x.index(v)) for u, v in left] + right:
            y = list(x)
            y[a], y[b] = x[b], x[a]
            y = tuple(y)
            if y not in coset:
                coset.add(y)
                stack.append(y)
    return coset


def monomial_integral(i: Sequence[int], j: Sequence[int],
                      k: Sequence[int], l: Sequence[int],
                      dim: int) -> Fraction:
    """Exact Haar average of U_{i1 j1} ... U_{in jn} * conj over index pairs
    (k, l): the balanced product of n elements of U and n of U-dagger on a
    dim-dimensional unitary group, at any weight n up to MAX_WEIGHT,
    n >= dim included.  It is also the average over the special unitary
    group, since the product is invariant under U -> exp(i theta) U.
    Indices are 1-based.  The value is real.

    The sum of C(tau^-1 rho) at N = dim over tau in T = {i = l o tau} and
    rho in S = {j = k o rho}, cosets of Young subgroups that are empty
    unless i rearranges l and j rearranges k.  The products fill the double
    coset D = H_i sigma0 H_j (H_x the Young subgroup that fixes x), each
    |H_i| |H_j| / |D| times, so D (at most n! elements) is summed instead,
    reading C once per cycle type.
    """
    n = len(i)
    if not (len(j) == len(k) == len(l) == n):
        raise ValueError("index lists must have equal length")
    if n > MAX_WEIGHT:
        raise ValueError(f"monomial weight {n} above cap {MAX_WEIGHT}")
    if dim < 1 or any(not 1 <= x <= dim for x in (*i, *j, *k, *l)):
        raise ValueError(f"need dim >= 1 and indices in 1..{dim}")
    if sorted(i) != sorted(l) or sorted(j) != sorted(k):
        return Fraction(0)

    # tau0^-1 and rho0 pair the positions of each value in order, and the
    # swaps of neighbouring positions of one value generate H_i and H_j
    i_pos, j_pos, k_pos, l_pos = (sorted(range(n), key=x.__getitem__)
                                  for x in (i, j, k, l))
    inverse, rho = dict(zip(l_pos, i_pos)), dict(zip(j_pos, k_pos))
    left, right = ([(a, b) for a, b in zip(pos, pos[1:]) if x[a] == x[b]]
                   for x, pos in ((i, i_pos), (j, j_pos)))
    coset = _double_coset(tuple(inverse[rho[a]] for a in range(n)),
                          left, right)
    types = Counter(map(_cycle_type, coset))
    values = _class_function(n, dim)
    total = sum(values[alpha] * count for alpha, count in types.items())
    stabilizers = prod(factorial(m) for x in (i, j)
                       for m in Counter(x).values())
    return total * stabilizers / len(coset)
