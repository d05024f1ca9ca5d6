"""Limit series for both sectors: closed forms, fixed point, finite-N limit."""

from collections import Counter
from fractions import Fraction
from math import comb, factorial, prod

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
from sunint.partitions import (Partition, catalan, class_size,
                               enumerate_partitions)
from sunint.su_shifted import shifted_table
from sunint.weingarten import (MAX_WEIGHT, CoeffTable,
                               weingarten_table_character)


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
    # a deterministic count: pass g multiplies only grade-g slices, one
    # grade product per power u^m still needed, which at order 12 takes 66
    # calls and 3096 monomial products (3714 with the trace-symbol shifts
    # of w); rerunning the whole series every pass took 14567
    calls, products = Counter(), 0
    real = largen._grade_product

    def counted(lower, w, g):
        nonlocal products
        calls[(id(lower), g)] += 1
        products += sum(len(lower[g - j]) * len(w[j]) for j in range(g + 1))
        return real(lower, w, g)

    monkeypatch.setattr(largen, "_grade_product", counted)
    fixedpoint_w_series(12)
    assert set(calls.values()) == {1}
    assert len(calls) == 12 * 11 // 2
    assert 0 < products <= 4000


@pytest.mark.parametrize("order", [1, 2, 3, 7, 8, 15, 16])
def test_packed_keys_round_trip_at_the_route_width(order):
    # [1^order] fills its field to order, which is 2^width - 1 at 7 and 15
    width = order.bit_length()
    for n in range(order + 1):
        for alpha in enumerate_partitions(n):
            key = largen._pack(alpha, width)
            assert largen._unpack(key, width) == alpha, alpha
    assert largen._pack(part(f"1^{order}"), width) == order
    assert order < 1 << width


@pytest.mark.parametrize("order", [7, 15])
def test_fixedpoint_at_a_full_multiplicity_field(order):
    assert (shifted_free_energy_fixedpoint(order)
            == shifted_free_energy_closed(order))


def test_finite_tables_limit_at_a_full_multiplicity_field():
    assert shifted_free_energy_from_tables(7) == shifted_free_energy_closed(7)


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


def test_shifted_table_expansions_are_ints():
    # every shifted-table denominator is monic, so the long division in 1/N
    # never leaves the integers and the finite-N log runs in ints
    for n in range(1, 9):
        for alpha, v in shifted_table(n).entries.items():
            series = largen._series_in_inverse_n(v, 9)
            assert series and all(type(c) is int for c in series.values()), (
                n, alpha)
    # the general case still divides exactly in Fractions
    assert largen._series_in_inverse_n(RatFuncN(1, 2 * N + 1), 3) == {
        1: Fraction(1, 2), 2: Fraction(-1, 4)}


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


def _mobius(alpha):
    # the leading Weingarten coefficient of one cycle of length q is
    # (-1)^(q-1) Cat(q-1); a permutation's is the product over its cycles
    return prod(((-1) ** (q - 1) * catalan(q - 1)) ** m
                for q, m in alpha.items())


def _leading_law_misses(table, gap):
    """The partitions whose entry is not |C_a| Mob(a) N^-gap (1 + O(1/N)),
    with gap a function of the weight n and the part count c."""
    return [alpha for alpha, v in table.entries.items()
            if v.degree_gap() != gap(table.n, alpha.num_parts)
            or Fraction(v.num.leading, v.den.leading)
            != class_size(alpha) * _mobius(alpha)]


def _balanced_gap(n, c):
    return 2 * n - c


def _shifted_gap(n, c):
    return n - c


def test_large_n_leading_terms_at_every_weight():
    # the paper's large-N comparison as an exact law: both sectors share
    # the leading coefficient |C_a| Mob(a), and the shifted entry is larger
    # by N^n.  The balanced law is Collins's leading Weingarten term
    # (math-ph/0205010)
    for n in range(1, MAX_WEIGHT + 1):
        assert _leading_law_misses(weingarten_table_character(n),
                                   _balanced_gap) == [], n
        assert _leading_law_misses(shifted_table(n), _shifted_gap) == [], n


@pytest.mark.parametrize("family", ["weingarten", "su-shifted"])
def test_large_n_law_refuses_one_changed_leading_coefficient(family):
    build, gap = {"weingarten": (weingarten_table_character, _balanced_gap),
                  "su-shifted": (shifted_table, _shifted_gap)}[family]
    table, alpha = build(5), part("2^1 3^1")
    entries = dict(table.entries)
    # adding N^-gap moves the leading coefficient by one and nothing below
    entries[alpha] = entries[alpha] + RatFuncN(1, N ** gap(5, 2))
    changed = CoeffTable(n=5, family=family, entries=entries)
    assert _leading_law_misses(changed, gap) == [alpha]
