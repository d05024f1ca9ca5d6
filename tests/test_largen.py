"""Limit series for both sectors: closed forms, fixed point, finite-N limit."""

from collections import Counter
from fractions import Fraction
from math import comb, factorial

import pytest

from sunint import exactmath, largen
from sunint.exactmath import N, RatFuncN
from sunint.largen import (
    TraceSeries,
    fixedpoint_w_series,
    shifted_free_energy_closed,
    shifted_free_energy_fixedpoint,
    shifted_free_energy_from_tables,
    strong_coupling_coeff,
    strong_coupling_series,
)
from sunint.partitions import Partition, catalan, enumerate_partitions
from sunint.weingarten import CoeffTable


def part(text):
    return Partition.from_string(text)


def series_dict(s):
    return {(g, a.to_string()): v for g, a, v in s.sorted_terms()}


def test_trace_series_read_only_contract():
    # built out of order, with zero coefficients that construction drops
    s = TraceSeries(3, {
        (3, part("3^1")): Fraction(1, 3),
        (2, part("2^1")): Fraction(-1, 2),
        (1, part("1^1")): 1,
        (2, part("1^2")): Fraction(0),
        (3, part("1^3")): Fraction(1, 3),
        (3, part("1^1 2^1")): 0,
    })
    assert s.terms == {(3, part("3^1")): Fraction(1, 3),
                       (2, part("2^1")): Fraction(-1, 2),
                       (1, part("1^1")): 1,
                       (3, part("1^3")): Fraction(1, 3)}
    assert [(g, a.to_string(), c) for g, a, c in s.sorted_terms()] == [
        (1, "1^1", 1), (2, "2^1", Fraction(-1, 2)),
        (3, "1^3", Fraction(1, 3)), (3, "3^1", Fraction(1, 3))]
    assert s.grade_slice(3) == {part("1^3"): Fraction(1, 3),
                                part("3^1"): Fraction(1, 3)}
    assert s.grade_slice(2) == {part("2^1"): Fraction(-1, 2)}
    low = s.truncated(2)
    assert low.max_order == 2
    assert low.terms == {(1, part("1^1")): 1,
                         (2, part("2^1")): Fraction(-1, 2)}
    assert low == TraceSeries(2, {(2, part("2^1")): Fraction(-1, 2),
                                  (1, part("1^1")): 1})
    assert low != s


@pytest.mark.parametrize("route", [
    shifted_free_energy_closed, fixedpoint_w_series,
    shifted_free_energy_from_tables, strong_coupling_series,
], ids=["closed", "fixedpoint-w", "finite-n", "strong-coupling"])
def test_refused_order(route):
    for order in (0, -1):
        with pytest.raises(ValueError, match="order must be positive"):
            route(order)


def test_catalan_functional_equation():
    order = 12
    c = [catalan(m) for m in range(order + 1)]
    # t*C(t)^2 - C(t) + 1 must vanish through t^order
    square = [sum(c[i] * c[k - i] for i in range(k + 1))
              for k in range(order + 1)]
    residual = [0] * (order + 1)
    for k in range(1, order + 1):
        residual[k] += square[k - 1]
    for k in range(order + 1):
        residual[k] -= c[k]
    residual[0] += 1
    assert residual == [0] * (order + 1)


def test_closed_form_low_orders():
    s = shifted_free_energy_closed(4)
    d = series_dict(s)
    assert d[(1, "1^1")] == 1
    assert d[(2, "1^2")] == Fraction(1, 2)
    assert d[(2, "2^1")] == Fraction(-1, 2)
    assert d[(3, "1^3")] == Fraction(1, 3)
    assert d[(3, "1^1 2^1")] == -1
    assert d[(3, "3^1")] == Fraction(2, 3)
    assert d[(4, "1^4")] == Fraction(1, 4)
    assert d[(4, "1^2 2^1")] == Fraction(-3, 2)
    assert d[(4, "2^2")] == Fraction(1, 2)
    assert d[(4, "1^1 3^1")] == 2
    assert d[(4, "4^1")] == Fraction(-5, 4)


def test_fixedpoint_equals_closed_through_order_12():
    assert (shifted_free_energy_fixedpoint(12)
            == shifted_free_energy_closed(12))


def test_fixedpoint_equals_closed_through_order_16():
    assert (shifted_free_energy_fixedpoint(16)
            == shifted_free_energy_closed(16))


def test_fixedpoint_computes_one_new_grade_per_pass(monkeypatch):
    # a deterministic count: pass g multiplies only grade-g slices, which
    # takes 3714 merges at order 12; rerunning the whole series every pass
    # took 14567
    merges = 0
    real = Partition.merge

    def counted(self, other):
        nonlocal merges
        merges += 1
        return real(self, other)

    monkeypatch.setattr(Partition, "merge", counted)
    fixedpoint_w_series(12)
    assert 0 < merges <= 4000


def test_finite_tables_limit_equals_closed_through_order_4():
    assert shifted_free_energy_from_tables(4) == shifted_free_energy_closed(4)


def test_finite_tables_limit_equals_closed_through_order_10():
    assert (shifted_free_energy_from_tables(10)
            == shifted_free_energy_closed(10))


def test_finite_tables_route_runs_no_polynomial_gcd(monkeypatch):
    def refuse(a, b):
        raise AssertionError("polynomial gcd in the finite-N route")

    monkeypatch.setattr(exactmath, "_primitive_gcd", refuse)
    assert shifted_free_energy_from_tables(6) == shifted_free_energy_closed(6)


def _patch_weight_2_entry(monkeypatch, change):
    real = largen.shifted_table

    def patched(n):
        table = real(n)
        if n != 2:
            return table
        entries = dict(table.entries)
        entries[part("2^1")] = change(entries[part("2^1")])
        return CoeffTable(n=2, family=table.family, entries=entries)

    monkeypatch.setattr(largen, "shifted_table", patched)


def test_finite_tables_route_refuses_an_entry_growing_with_n(monkeypatch):
    # -1/N becomes -N^2, which no expansion in 1/N can hold
    _patch_weight_2_entry(monkeypatch, lambda v: v * N**3)
    with pytest.raises(ValueError,
                       match=r"grade 2, partition \[2\^1\] grows"):
        shifted_free_energy_from_tables(4)


def test_finite_tables_route_refuses_a_divergent_coefficient(monkeypatch):
    # -1/N becomes 1 - 1/N: still bounded, but the grade-2 log coefficient
    # gains a constant term, which the rescaling by N turns into N/2
    _patch_weight_2_entry(monkeypatch, lambda v: v + RatFuncN(1))
    with pytest.raises(ValueError,
                       match=r"grade 2, partition \[2\^1\] diverges .*"
                             r"N\^1 term is 1/2"):
        shifted_free_energy_from_tables(4)


def test_fixedpoint_w_coefficients_are_ints():
    w = fixedpoint_w_series(12)
    assert w.terms and all(type(c) is int for c in w.terms.values())


def test_lagrange_coefficient_identity():
    # grade-n slice of w equals the multinomial sum over partitions with
    # factors f_q = (-1)^(q-1) Cat(q-1)
    order = 10
    w = fixedpoint_w_series(order)
    for n in range(1, order + 1):
        got = w.grade_slice(n)
        for alpha in enumerate_partitions(n):
            c = alpha.num_parts
            value = Fraction(factorial(n), factorial(n + 1 - c))
            for q, m in alpha.items():
                value *= Fraction(((-1) ** (q - 1) * catalan(q - 1)) ** m,
                                  factorial(m))
            assert got.get(alpha, 0) == value, (n, alpha.to_string())


def test_truncation_consistency():
    lo = shifted_free_energy_closed(3)
    hi = shifted_free_energy_closed(6)
    assert hi.truncated(3).terms == lo.terms
    lo_fp = shifted_free_energy_fixedpoint(3)
    hi_fp = shifted_free_energy_fixedpoint(6)
    assert hi_fp.truncated(3).terms == lo_fp.terms
    w12 = fixedpoint_w_series(12)
    for k in range(1, 12):
        assert w12.truncated(k) == fixedpoint_w_series(k), k


def test_strong_coupling_coeffs():
    assert strong_coupling_coeff(part("1^1")) == 1
    assert strong_coupling_coeff(part("2^1")) == Fraction(-1, 2)
    assert strong_coupling_coeff(part("1^2")) == Fraction(1, 2)
    assert strong_coupling_coeff(part("1^1 2^1")) == -2
    assert strong_coupling_coeff(part("4^1")) == Fraction(-5, 4)
    assert strong_coupling_coeff(part("1^4")) == 6
    with pytest.raises(ValueError):
        strong_coupling_coeff(Partition())


def test_closed_forms_equal_their_formulas_through_order_14():
    # each docstring formula, evaluated factor by factor in Fractions from
    # the parts alone; ww has no second route, so this and the grade-4
    # literals are its witnesses
    def closed(parts):
        n, c = sum(parts), len(parts)
        value = Fraction((-1) ** (n - c)) * Fraction(factorial(n - 1),
                                                     factorial(n - c + 1))
        for q, m in Counter(parts).items():
            value *= Fraction(catalan(q - 1)) ** m / factorial(m)
        return value

    def strong(parts):
        n, c = sum(parts), len(parts)
        value = Fraction((-1) ** n) * Fraction(factorial(2 * n - 3 + c),
                                               factorial(2 * n))
        for q, m in Counter(parts).items():
            value *= Fraction(-comb(2 * q, q)) ** m / factorial(m)
        return value

    wd, ww = shifted_free_energy_closed(14), strong_coupling_series(14)
    for n in range(1, 15):
        for alpha in enumerate_partitions(n):
            assert wd.terms[(n, alpha)] == closed(alpha.parts), alpha
            assert ww.terms[(n, alpha)] == strong(alpha.parts), alpha
    assert len(wd.terms) == len(ww.terms) == sum(
        len(enumerate_partitions(n)) for n in range(1, 15))


def test_strong_coupling_series_displayed_orders():
    s = strong_coupling_series(4)
    d = series_dict(s)
    assert d[(1, "1^1")] == 1
    assert d[(2, "1^2")] == Fraction(1, 2)
    assert d[(2, "2^1")] == Fraction(-1, 2)
    assert d[(3, "1^3")] == Fraction(4, 3)
    assert d[(3, "1^1 2^1")] == -2
    assert d[(3, "3^1")] == Fraction(2, 3)
    assert d[(4, "1^4")] == 6
    assert d[(4, "1^2 2^1")] == -12
    assert d[(4, "2^2")] == Fraction(9, 4)
    assert d[(4, "1^1 3^1")] == 5
    assert d[(4, "4^1")] == Fraction(-5, 4)
