"""Determinant-sector coefficients, epsilon base case, and shift identity."""

import itertools
from fractions import Fraction
from math import factorial, prod

import numpy as np
import pytest

from sunint.exactmath import N, RatFuncN
from sunint.haar_mc import SourceMatrices, eval_shifted
from sunint.partitions import Partition
from sunint.reference import reference_table
from sunint.su_shifted import (
    check_shift_identity,
    epsilon_integral,
    shifted_table,
    shifted_table_recursive,
)
from sunint.weingarten import MAX_WEIGHT, weingarten_table_character


def part(text):
    return Partition.from_string(text)


@pytest.mark.parametrize("build, n, message", [
    (shifted_table, -1, "weight must be nonnegative"),
    (shifted_table_recursive, -1, "weight must be nonnegative"),
    (shifted_table_recursive, MAX_WEIGHT + 1,
     "weight %d above supported cap %d" % (MAX_WEIGHT + 1, MAX_WEIGHT)),
    (check_shift_identity, 0, "weight must be positive"),
], ids=["shift-negative", "recursion-negative", "recursion-above-cap",
        "identity-zero"])
def test_refused_weights(build, n, message):
    with pytest.raises(ValueError, match=message):
        build(n)


def test_epsilon_integral_values():
    assert epsilon_integral([1, 2], [1, 2], 2) == Fraction(1, 2)
    assert epsilon_integral([1, 2], [2, 1], 2) == Fraction(-1, 2)
    assert epsilon_integral([1, 1, 2], [1, 2, 3], 3) == 0
    assert epsilon_integral([3, 1, 2], [1, 2, 3], 3) == Fraction(1, 6)
    with pytest.raises(ValueError):
        epsilon_integral([1, 2], [1, 2], 3)
    with pytest.raises(ValueError):
        epsilon_integral([1, 5], [1, 2], 2)
    with pytest.raises(ValueError):
        epsilon_integral([0, 1], [2, 1], 2)
    # there is no SU(0), and no SU(-1) to ask for an index list of length -1
    for dim in (0, -1):
        with pytest.raises(ValueError, match="need dim >= 1"):
            epsilon_integral([], [], dim)


def test_epsilon_contraction_gives_determinant():
    # summing the integral against products of K entries rebuilds det K
    for dim in (2, 3, 4):
        rng = np.random.Generator(np.random.Philox(key=5))
        k = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal(
            (dim, dim))
        total = 0j
        for i_idx in itertools.product(range(1, dim + 1), repeat=dim):
            for j_idx in itertools.permutations(range(1, dim + 1)):
                w = epsilon_integral(list(i_idx), list(j_idx), dim)
                if w:
                    value = 1.0 + 0j
                    for a in range(dim):
                        value *= k[j_idx[a] - 1, i_idx[a] - 1]
                    total += float(w) * value
        assert abs(total - np.linalg.det(k)) < 1e-9


def test_shift_table_matches_reference():
    for n in range(1, 5):
        table = shifted_table(n)
        expected = reference_table("su-shifted", n)
        assert set(table.entries) == set(expected)
        for alpha, value in expected.items():
            assert table[alpha] == value, alpha.to_string()


def test_recursive_equals_shift():
    for n in range(MAX_WEIGHT + 1):
        ts = shifted_table(n)
        tr = shifted_table_recursive(n)
        for alpha in ts.entries:
            assert ts[alpha] == tr[alpha], (n, alpha.to_string())


def test_table_coefficients_are_ints():
    # canonical entries have integer coefficients, stored as int
    for n in range(MAX_WEIGHT + 1):
        for table in (weingarten_table_character(n), shifted_table(n)):
            for v in table.entries.values():
                for c in (*v.num.coeffs, *v.den.coeffs):
                    assert type(c) is int, (table.family, n, v)


def test_family_tag():
    assert shifted_table(2).family == "su-shifted"
    assert shifted_table_recursive(3).family == "su-shifted"


def test_sign_law_matches_balanced_sector():
    for n in range(1, 6):
        balanced = weingarten_table_character(n)
        shifted = shifted_table(n)
        for alpha in balanced.entries:
            expect = -1 if (alpha.num_parts + n) % 2 else 1
            assert (1 if shifted[alpha].num.leading > 0 else -1) == expect
            assert (1 if balanced[alpha].num.leading > 0 else -1) == expect


def test_slower_decay():
    for n in range(2, 6):
        balanced = weingarten_table_character(n)
        shifted = shifted_table(n)
        for alpha in balanced.entries:
            assert shifted[alpha].degree_gap() < balanced[alpha].degree_gap()


def test_shift_identity_report():
    for n in range(1, 6):
        report = check_shift_identity(n)
        assert len(report) == len(shifted_table(n).entries)
        assert all(entry["ok"] for entry in report)
    # the n=2 numerator is the hand-checkable case: entry * N^2(N^2-1) = -N
    rep2 = {e["partition"]: e for e in check_shift_identity(2)}
    assert rep2["2^1"]["numerator"] == "-N"


def test_shift_identity_report_n6_double_poles():
    # from n = 6 the N^2 (N^2-1) ... (N^2-25) factor leaves the double poles
    # at N = +-1 of most balanced entries in place: no numerator, not ok
    report = check_shift_identity(6)
    assert len(report) == 11
    ok = [row["partition"] for row in report if row["ok"]]
    assert ok == ["1^1 5^1", "6^1"]
    for row in report:
        if row["ok"]:
            assert row["numerator"] is not None
        else:
            assert row["numerator"] is None
    rows = {row["partition"]: row for row in report}
    assert rows["6^1"]["numerator"] == "-5040*N"
    assert rows["1^1 5^1"]["numerator"] == "2016*N^2 - 20160"


def _fixed_sources(dim):
    rng = np.random.Generator(np.random.Philox(key=77))
    j = (rng.standard_normal((dim, dim))
         + 1j * rng.standard_normal((dim, dim))) / (2 * dim) ** 0.5
    k = (rng.standard_normal((dim, dim))
         + 1j * rng.standard_normal((dim, dim))) / (2 * dim) ** 0.5
    return SourceMatrices(j, k)


def test_eval_shifted_small(monkeypatch):
    src = _fixed_sources(4)
    det_k = np.linalg.det(src.K)
    assert abs(eval_shifted(0, src) - det_k) < 1e-12
    assert eval_shifted(0, src) == complex(det_k)
    with pytest.raises(ValueError):
        eval_shifted(-1, src)
    t1 = src.trace_powers(1)[0]
    assert abs(eval_shifted(1, src) - det_k * t1) < 1e-12
    t1, t2 = src.trace_powers(2)
    # coefficients at N=4: [1^2] -> 5/4, [2] -> -1/4
    expect = det_k * (1.25 * t1 ** 2 - 0.25 * t2)
    assert abs(eval_shifted(2, src) - expect) < 1e-12
    # at n = dim no diagram has more than dim + 1 rows, and the table holds
    t = src.trace_powers(4)
    expect = det_k * sum(float(v.evaluate(4)) * prod(t[q - 1] ** m
                                                     for q, m in a.items())
                         for a, v in shifted_table(4).entries.items())
    assert abs(eval_shifted(4, src) - expect) < 1e-12
    # SU(1) is the identity alone, so the integrand is K^(n+1) J^n itself
    one = _fixed_sources(1)
    j, k = complex(one.J[0, 0]), complex(one.K[0, 0])
    for n in range(MAX_WEIGHT + 1):
        assert abs(eval_shifted(n, one) - k ** (n + 1) * j ** n) < 1e-12
    # n = 0 returns det K itself: a product with 1 would turn -0.0 into 0.0
    monkeypatch.setattr(np.linalg, "det", lambda k: complex(2.0, -0.0))
    assert repr(eval_shifted(0, src)) == repr(complex(2.0, -0.0))


def test_shifted_entries_have_no_pole_at_valid_dims():
    # the table's poles lie at dim <= n - 2 (eval_shifted does not read the
    # table); at every dim > n each denominator factor stays nonzero
    for n in range(1, 6):
        for dim in range(n + 1, n + 4):
            for v in shifted_table(n).entries.values():
                v.evaluate(dim)
