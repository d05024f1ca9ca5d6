"""Integer partitions as cycle types, symmetric-group class data, and the
representation-theoretic quantities built on them: irreducible characters by
the Murnaghan-Nakayama rule, GL(N) dimensions by the hook-content formula, and
Catalan numbers.

Partitions carry two complementary views.  ``Partition`` stores the
multiplicity vector (how many parts equal q), which is the natural shape for
cycle types and for coefficient-table keys.  ``YoungDiagram`` stores the row
lengths, which is the natural shape for characters and hooks.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial
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

    def merge(self, other: Partition) -> Partition:
        """Union of the two multisets of parts."""
        a, b = self.multiplicities, other.multiplicities
        if len(a) < len(b):
            a, b = b, a
        return Partition(tuple(x + y for x, y in zip(a, b)) + a[len(b):])

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


class YoungDiagram:
    """Row lengths of a partition, weakly decreasing."""

    __slots__ = ("rows",)

    def __init__(self, rows: Iterable[int]):
        rows = tuple(rows)
        if any(r < 1 for r in rows):
            raise ValueError("row lengths must be positive")
        if any(rows[i] < rows[i + 1] for i in range(len(rows) - 1)):
            raise ValueError("rows must be weakly decreasing")
        self.rows: tuple[int, ...] = rows

    @property
    def weight(self) -> int:
        return sum(self.rows)

    @property
    def num_rows(self) -> int:
        return len(self.rows)

    def conjugate(self) -> YoungDiagram:
        if not self.rows:
            return YoungDiagram(())
        return YoungDiagram(tuple(
            sum(1 for r in self.rows if r > j) for j in range(self.rows[0])))

    def hook_lengths(self) -> list[list[int]]:
        conj = self.conjugate().rows
        return [[r - j + conj[j - 1] - i + 1 for j in range(1, r + 1)]
                for i, r in enumerate(self.rows, start=1)]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, YoungDiagram):
            return self.rows == other.rows
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        return f"YoungDiagram({list(self.rows)!r})"


@lru_cache(maxsize=None)
def _parts_tuples(n: int, cap: int) -> tuple[tuple[int, ...], ...]:
    if n == 0:
        return ((),)
    out = []
    for first in range(1, min(n, cap) + 1):
        out.extend((first, *rest) for rest in _parts_tuples(n - first, first))
    return tuple(out)


def enumerate_partitions(n: int) -> list[Partition]:
    """All partitions of n, in ascending lexicographic order of the
    descending parts tuple: [1^n] first, ..., [n] last.  This order is used
    everywhere (tables, solver columns, serialized output).
    """
    if n < 0:
        raise ValueError("weight must be nonnegative")
    return [Partition.from_parts(t) for t in _parts_tuples(n, n)]


def enumerate_diagrams(n: int) -> list[YoungDiagram]:
    return [YoungDiagram(t) for t in _parts_tuples(n, n)]


def class_size(alpha: Partition) -> int:
    """Number of permutations in S_n with cycle type alpha:
    n! / prod_q q^{m_q} m_q!."""
    n = alpha.weight
    den = 1
    for q, m in alpha.items():
        den *= q ** m * factorial(m)
    return factorial(n) // den


def character(lam: YoungDiagram, alpha: Partition) -> int:
    """Irreducible character chi^lam evaluated on class alpha, both of the
    same weight, by the Murnaghan-Nakayama border-strip recursion on
    first-column hook lengths (beta sets)."""
    if lam.weight != alpha.weight:
        raise ValueError(
            f"weight mismatch: diagram {lam.weight}, class {alpha.weight}")
    rows = lam.rows
    length = len(rows)
    betas = tuple(sorted(rows[i] + (length - 1 - i) for i in range(length)))
    strips = tuple(sorted(alpha.parts, reverse=True))
    return _strip_sum(betas, strips)


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


def dim_sn(lam: YoungDiagram) -> int:
    """Dimension of the S_n irreducible for lam (hook length formula)."""
    hooks = 1
    for row in lam.hook_lengths():
        for h in row:
            hooks *= h
    return factorial(lam.weight) // hooks


def dim_gl(lam: YoungDiagram) -> PolyN:
    """Dimension of the GL(N) irreducible for lam as a polynomial in N:
    prod over cells (i,j) of (N + j - i) / hook(i,j)."""
    num = PolyN([1])
    hooks = 1
    for i, (r, hook_row) in enumerate(zip(lam.rows, lam.hook_lengths()),
                                      start=1):
        for j in range(1, r + 1):
            num = num * (N + (j - i))
            hooks *= hook_row[j - 1]
    return num * Fraction(1, hooks)


def catalan(m: int) -> int:
    """Catalan number (2m)! / (m! (m+1)!)."""
    if m < 0:
        raise ValueError("Catalan index must be nonnegative")
    return comb(2 * m, m) // (m + 1)
