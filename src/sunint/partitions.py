"""Integer partitions and the representation-theoretic quantities built on
them: symmetric-group class sizes, irreducible characters by the
Murnaghan-Nakayama rule, S_n and GL(N) dimensions by the hook length and
hook-content formulas, and Catalan numbers.

One type, ``Partition``, serves both roles a partition of n plays here: a
cycle type (a conjugacy class of S_n, and a coefficient-table key) and a
Young diagram (an irreducible of S_n or GL(N)).  It stores part
multiplicities; ``Partition.parts`` gives the diagram's row lengths in weakly
decreasing order.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, prod
from typing import Iterable, Iterator

from .exactmath import N, PolyN


class Partition:
    """A partition of n by part multiplicities.

    ``multiplicities[q-1]`` is the number of parts equal to q; trailing zeros
    are trimmed so equal partitions compare equal.  Immutable and hashable.
    """

    __slots__ = ("multiplicities",)

    def __init__(self, multiplicities: Iterable[int] = ()):
        ms = list(multiplicities)
        while ms and ms[-1] == 0:
            ms.pop()
        for m in ms:
            if not isinstance(m, int) or m < 0:
                raise ValueError("multiplicities must be nonnegative integers")
        self.multiplicities: tuple[int, ...] = tuple(ms)

    @classmethod
    def from_parts(cls, parts: Iterable[int]) -> Partition:
        parts = list(parts)
        if any(p < 1 for p in parts):
            raise ValueError("parts must be positive")
        ms = [0] * (max(parts) if parts else 0)
        for p in parts:
            ms[p - 1] += 1
        return cls(ms)

    @classmethod
    def from_string(cls, text: str) -> Partition:
        """Parse exponent notation, e.g. "1^2 2^1"; "" is the empty partition."""
        ms: dict[int, int] = {}
        for token in text.split():
            part, _, exp = token.partition("^")
            q = int(part)
            m = int(exp) if exp else 1
            if q < 1 or m < 0:
                raise ValueError(f"bad partition token {token!r}")
            ms[q] = ms.get(q, 0) + m
        top = max(ms) if ms else 0
        return cls([ms.get(q, 0) for q in range(1, top + 1)])

    # -- views --------------------------------------------------------------

    @property
    def weight(self) -> int:
        return sum(q * m for q, m in self.items())

    @property
    def num_parts(self) -> int:
        """Number of parts, i.e. the cycle count c(alpha)."""
        return sum(self.multiplicities)

    @property
    def parts(self) -> tuple[int, ...]:
        """Parts in weakly decreasing order."""
        out: list[int] = []
        for q, m in self.items():
            out.extend([q] * m)
        return tuple(reversed(out))

    def items(self) -> Iterator[tuple[int, int]]:
        """(part, multiplicity) pairs with multiplicity > 0, ascending part."""
        for q, m in enumerate(self.multiplicities, start=1):
            if m:
                yield q, m

    def multiplicity(self, q: int) -> int:
        return self.multiplicities[q - 1] if 1 <= q <= len(self.multiplicities) else 0

    # -- edits (return new partitions) ---------------------------------------

    def add_part(self, q: int) -> Partition:
        ms = list(self.multiplicities) + [0] * max(0, q - len(self.multiplicities))
        ms[q - 1] += 1
        return Partition(ms)

    def remove_part(self, q: int) -> Partition:
        if self.multiplicity(q) == 0:
            raise ValueError(f"no part equal to {q} in {self}")
        ms = list(self.multiplicities)
        ms[q - 1] -= 1
        return Partition(ms)

    # -- protocol -------------------------------------------------------------

    def to_string(self) -> str:
        """Exponent notation used in all serialized output, e.g. "1^2 2^1"."""
        return " ".join(f"{q}^{m}" for q, m in self.items())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Partition):
            return self.multiplicities == other.multiplicities
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.multiplicities)

    def __str__(self) -> str:
        return self.to_string() if self.multiplicities else "(empty)"

    def __repr__(self) -> str:
        return f"Partition.from_string({self.to_string()!r})"


@lru_cache(maxsize=None)
def _partitions(n: int) -> tuple[Partition, ...]:
    if n == 0:
        return (Partition(),)
    # largest part first, then the partitions of the rest with no larger part
    return tuple(rest.add_part(first) for first in range(1, n + 1)
                 for rest in _partitions(n - first)
                 if len(rest.multiplicities) <= first)


def enumerate_partitions(n: int) -> list[Partition]:
    """All partitions of n, in ascending lexicographic order of the
    descending parts tuple: [1^n] first, ..., [n] last.  This order is used
    everywhere (tables, solver columns, serialized output).  Each weight's
    partitions are built once and shared; every call returns a new list."""
    if n < 0:
        raise ValueError("weight must be nonnegative")
    return list(_partitions(n))


#: Irreducibles of S_n are labelled by the same partitions, in the same order.
enumerate_diagrams = enumerate_partitions


def class_size(alpha: Partition) -> int:
    """Number of permutations in S_n with cycle type alpha:
    n! / prod_q q^{m_q} m_q!."""
    n = alpha.weight
    den = 1
    for q, m in alpha.items():
        den *= q ** m * factorial(m)
    return factorial(n) // den


def character(lam: Partition, alpha: Partition) -> int:
    """Irreducible character chi^lam evaluated on class alpha, both of the
    same weight, by the Murnaghan-Nakayama border-strip recursion on
    first-column hook lengths (beta sets)."""
    if lam.weight != alpha.weight:
        raise ValueError(
            f"weight mismatch: diagram {lam.weight}, class {alpha.weight}")
    return _strip_sum(_betas(lam), alpha.parts)


def _betas(lam: Partition) -> tuple[int, ...]:
    """lam's first-column hook lengths, ascending."""
    return tuple(r + i for i, r in enumerate(reversed(lam.parts)))


@lru_cache(maxsize=None)
def _character_matrix(n: int) -> list[list[int]]:
    """chi^lam(alpha) for every diagram lam (rows) and class alpha (columns)
    of weight n, both in enumeration order, from the same recursion as
    ``character``; cached, so callers must not mutate it."""
    classes = [alpha.parts for alpha in _partitions(n)]
    return [[_strip_sum(betas, parts) for parts in classes]
            for betas in map(_betas, _partitions(n))]


@lru_cache(maxsize=None)
def _strip_sum(betas: tuple[int, ...], strips: tuple[int, ...]) -> int:
    if not strips:
        return 1
    t, rest = strips[0], strips[1:]
    bset = set(betas)
    total = 0
    for b in betas:
        nb = b - t
        if nb < 0 or nb in bset:
            continue
        # removing the strip moves beta b down to nb; the sign is the parity
        # of the number of occupied positions it jumps over
        crossed = sum(1 for x in bset if nb < x < b)
        new = tuple(sorted((bset - {b}) | {nb}))
        term = _strip_sum(new, rest)
        total += -term if crossed % 2 else term
    return total


def _hook_product(lam: Partition) -> int:
    """Product of the hook lengths of lam's cells, read from its rows and
    column lengths."""
    rows = lam.parts
    cols = [sum(1 for r in rows if r > j) for j in range(max(rows, default=0))]
    return prod(r - j + cols[j] - i - 1
                for i, r in enumerate(rows) for j in range(r))


def dim_sn(lam: Partition) -> int:
    """Dimension of the S_n irreducible for lam (hook length formula)."""
    return factorial(lam.weight) // _hook_product(lam)


def dim_gl(lam: Partition) -> PolyN:
    """Dimension of the GL(N) irreducible for lam as a polynomial in N:
    prod over cells (i,j) of (N + j - i) / hook(i,j)."""
    num = prod((N + (j - i) for i, r in enumerate(lam.parts)
                for j in range(r)), start=PolyN([1]))
    return num * Fraction(1, _hook_product(lam))


def catalan(m: int) -> int:
    """Catalan number (2m)! / (m! (m+1)!)."""
    if m < 0:
        raise ValueError("Catalan index must be nonnegative")
    return comb(2 * m, m) // (m + 1)
