"""Partition combinatorics, characters, and dimension formulas."""

import itertools
from fractions import Fraction
from math import comb, factorial

import pytest

from sunint.exactmath import N, PolyN
from sunint.partitions import (
    Partition,
    _character_matrix,
    catalan,
    character,
    class_size,
    dim_gl,
    dim_sn,
    enumerate_diagrams,
    enumerate_partitions,
)


def test_partition_round_trips():
    p = Partition.from_parts([2, 1, 1])
    assert p.multiplicities == (2, 1)
    assert p.weight == 4
    assert p.num_parts == 3
    assert p.parts == (2, 1, 1)
    assert p.to_string() == "1^2 2^1"
    assert Partition.from_string("1^2 2^1") == p
    assert Partition.from_string("") == Partition()
    assert Partition.from_string("3") == Partition.from_parts([3])
    assert repr(p) == "Partition.from_string('1^2 2^1')"


@pytest.mark.parametrize("call, message", [
    (lambda: Partition([1, -1]), "multiplicities must be nonnegative"),
    (lambda: Partition([1.0]), "multiplicities must be nonnegative"),
    (lambda: Partition.from_parts([2, 0]), "parts must be positive"),
    (lambda: Partition.from_string("0^1"), "bad partition token '0\\^1'"),
    (lambda: Partition.from_string("2^-1"), "bad partition token"),
    (lambda: catalan(-1), "Catalan index must be nonnegative"),
], ids=["negative-multiplicity", "float-multiplicity", "zero-part",
        "zero-token", "negative-exponent", "catalan-negative"])
def test_refused_inputs(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_partition_edits():
    p = Partition.from_parts([2, 1])
    assert p.add_part(2) == Partition.from_parts([2, 2, 1])
    assert p.remove_part(2) == Partition.from_parts([1])
    with pytest.raises(ValueError):
        p.remove_part(3)


def test_enumeration_order_and_counts():
    assert enumerate_partitions(0) == [Partition()]
    got = [p.parts for p in enumerate_partitions(4)]
    assert got == [(1, 1, 1, 1), (2, 1, 1), (2, 2), (3, 1), (4,)]
    assert len(enumerate_partitions(10)) == 42
    assert len(enumerate_partitions(6)) == 11
    with pytest.raises(ValueError):
        enumerate_partitions(-1)

    # against an independent enumeration: cut 1..n at every subset of its
    # n - 1 gaps, sort each composition's parts descending, and sort the
    # distinct tuples ascending
    def brute(n):
        if n == 0:
            return [()]
        out = set()
        for cuts in itertools.product((False, True), repeat=n - 1):
            parts, run = [], 1
            for cut in cuts:
                if cut:
                    parts.append(run)
                    run = 0
                run += 1
            out.add(tuple(sorted(parts + [run], reverse=True)))
        return sorted(out)

    for n in range(17):
        assert [p.parts for p in enumerate_partitions(n)] == brute(n), n

    # a caller may edit the list it gets without changing the next one
    first = enumerate_partitions(5)
    first.clear()
    enumerate_partitions(6).append(Partition.from_parts([9]))
    assert [p.parts for p in enumerate_partitions(5)] == brute(5)
    assert [p.parts for p in enumerate_partitions(6)] == brute(6)


def test_enumeration_builds_each_partition_once():
    for n in range(13):
        a, b = enumerate_partitions(n), enumerate_partitions(n)
        assert a is not b
        assert len(a) == len(b) and all(x is y for x, y in zip(a, b))


def test_class_sizes():
    assert class_size(Partition.from_parts([1] * 5)) == 1
    assert class_size(Partition.from_parts([3])) == 2
    for n in range(1, 7):
        assert sum(class_size(a) for a in enumerate_partitions(n)) == factorial(n)


def test_character_small_cases():
    # trivial representation: all values 1
    for n in range(1, 6):
        lam = Partition.from_parts([n])
        for a in enumerate_partitions(n):
            assert character(lam, a) == 1
    # sign representation: parity of the permutation
    assert character(Partition.from_parts([1, 1, 1]), Partition.from_parts([3])) == 1
    assert character(Partition.from_parts([1, 1]), Partition.from_parts([2])) == -1
    with pytest.raises(ValueError):
        character(Partition.from_parts([2]), Partition.from_parts([3]))


def test_character_standard_rep_brute_force():
    # the 2-dimensional irreducible of S_3: permutation matrices restricted to
    # the plane orthogonal to (1,1,1); trace computed by explicit sum
    def perm_char(sigma):
        return sum(1 for a in range(3) if sigma[a] == a) - 1

    lam = Partition.from_parts([2, 1])
    counts = {}
    for sigma in itertools.permutations(range(3)):
        counts.setdefault(_cycle_type(sigma), []).append(perm_char(sigma))
    for alpha, vals in counts.items():
        assert len(set(vals)) == 1
        assert character(lam, alpha) == vals[0]
    assert character(lam, Partition.from_parts([1, 1, 1])) == 2


def _cycle_type(sigma):
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


def test_character_orthogonality():
    for n in range(1, 7):
        diagrams = enumerate_diagrams(n)
        classes = enumerate_partitions(n)
        sizes = [class_size(a) for a in classes]
        tables = {d: [character(d, a) for a in classes] for d in diagrams}
        for d1 in diagrams:
            for d2 in diagrams:
                inner = sum(s * x * y for s, x, y in
                            zip(sizes, tables[d1], tables[d2]))
                assert inner == (factorial(n) if d1 == d2 else 0)


def test_dimension_consistency():
    for n in range(1, 7):
        total = 0
        for d in enumerate_diagrams(n):
            dim = dim_sn(d)
            assert character(d, Partition.from_parts([1] * n)) == dim
            total += dim * dim
        assert total == factorial(n)
    # the character route reads f^lam = chi^lam(1^n) from the first column
    for n in range(13):
        assert [row[0] for row in _character_matrix(n)] == \
            [dim_sn(d) for d in enumerate_diagrams(n)], n


def test_dim_gl_small():
    assert dim_gl(Partition.from_parts([1])) == N
    assert dim_gl(Partition.from_parts([2])) == (N**2 + N) * Fraction(1, 2)
    # single column: binomial(N, k) as a polynomial
    for k in range(1, 6):
        expect = PolyN([1])
        for i in range(k):
            expect = expect * (N - i)
        expect = expect * Fraction(1, factorial(k))
        assert dim_gl(Partition.from_parts([1] * k)) == expect


def test_dim_gl_integer_values():
    for n in range(1, 7):
        for d in enumerate_diagrams(n):
            for dim in (1, 2, 3):
                v = dim_gl(d)(dim)
                assert v.denominator == 1
                assert v >= 0
                assert (v == 0) == (d.num_parts > dim)


def test_catalan():
    assert [catalan(m) for m in range(7)] == [1, 1, 2, 5, 14, 42, 132]
    for m in range(13):
        assert catalan(m + 1) == sum(
            catalan(i) * catalan(m - i) for i in range(m + 1))
    assert catalan(20) == comb(40, 20) // 21
