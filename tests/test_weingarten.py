"""Balanced-sector coefficient tables and the exact tensor integral."""

import bisect
import itertools
from collections import Counter
from fractions import Fraction
from math import comb, factorial, prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sunint import exactmath, weingarten
from sunint.exactmath import N, PolyN, RatFuncN
from sunint.haar_mc import SourceMatrices, eval_ordinary
from sunint.partitions import (
    Partition,
    character,
    class_size,
    dim_gl,
    dim_sn,
    enumerate_partitions,
)
from sunint.reference import reference_table
from sunint.su_shifted import shifted_table
from sunint.weingarten import (
    MAX_WEIGHT,
    CoeffTable,
    monomial_integral,
    weingarten_table_character,
    weingarten_table_recursive,
)


def part(text):
    return Partition.from_string(text)


@pytest.mark.parametrize("build, n, message", [
    (weingarten_table_character, -1, "weight must be nonnegative"),
    (weingarten_table_recursive, -1, "weight must be nonnegative"),
    (weingarten_table_recursive, MAX_WEIGHT + 1,
     "weight %d above supported cap %d" % (MAX_WEIGHT + 1, MAX_WEIGHT)),
], ids=["character-negative", "recursion-negative", "recursion-above-cap"])
def test_refused_weights(build, n, message):
    with pytest.raises(ValueError, match=message):
        build(n)


def test_class_coefficient_small():
    # C = 1/N on [1], 1/(N^2 - 1) on [1^2] and -1/((N^2 - 1) N) on [2]
    for dim in range(2, 6):
        assert weingarten._class_function(1, dim) == {
            part("1^1"): Fraction(1, dim)}
        assert list(weingarten._class_function(2, dim).items()) == [
            (part("1^2"), Fraction(1, dim ** 2 - 1)),
            (part("2^1"), Fraction(-1, (dim ** 2 - 1) * dim))]
    # at N = 1, where those have a pole, only the one-row diagram [2] is an
    # irreducible of U(1): C = 1 * 1 / (2! * 1 * 2) on both classes
    assert weingarten._class_function(2, 1) == {
        part("1^2"): Fraction(1, 4), part("2^1"): Fraction(1, 4)}


def test_class_function_equals_tables_where_they_hold():
    # where no diagram is dropped (n <= dim, and n <= dim + 1 one dimension
    # up) the integer-N sum is the tables' rational functions at N = dim
    for n in range(MAX_WEIGHT + 1):
        balanced, shifted = weingarten_table_character(n), shifted_table(n)
        for dim in range(max(n - 1, 1), n + 4):
            values = weingarten._class_function(n, dim)
            up = weingarten._class_function(n, dim + 1)
            rise = prod(range(dim + 1, dim + n + 1))
            for alpha in enumerate_partitions(n):
                assert rise * class_size(alpha) * up[alpha] == \
                    shifted[alpha].evaluate(dim), (n, dim, alpha.to_string())
                if dim >= n:
                    assert class_size(alpha) * values[alpha] == \
                        balanced[alpha].evaluate(dim), (n, dim)


def test_class_function_sums_to_the_u11_moment():
    # n! sum over classes of class_size * C = E|U_11|^(2n) = 1/C(N+n-1, n),
    # at every weight, n >= N included
    for dim in range(1, 5):
        for n in range(MAX_WEIGHT + 1):
            values = weingarten._class_function(n, dim)
            total = sum(class_size(a) * c for a, c in values.items())
            assert factorial(n) * total == Fraction(1, comb(dim + n - 1, n))


def _longest_increasing(sigma):
    """Length of the longest increasing subsequence, by patience sorting."""
    tops = []
    for x in sigma:
        at = bisect.bisect_left(tops, x)
        tops[at:at + 1] = [x]
    return len(tops)


def test_class_function_counts_permutations_by_longest_increasing():
    # E|tr U|^(2n) over U(N), n! sum of class_size * C * N^(parts) with
    # J = K = 1, counts the permutations of n with no increasing subsequence
    # longer than N (Rains, Electron. J. Combin. 5 (1998) R12)
    for n in range(7):
        longest = Counter(map(_longest_increasing,
                              itertools.permutations(range(n))))
        for dim in range(1, 5):
            values = weingarten._class_function(n, dim)
            moment = factorial(n) * sum(
                class_size(a) * c * dim ** a.num_parts
                for a, c in values.items())
            assert moment == sum(count for length, count in longest.items()
                                 if length <= dim), (n, dim)


def test_character_table_matches_reference():
    for n in range(1, 5):
        table = weingarten_table_character(n)
        expected = reference_table("weingarten", n)
        assert set(table.entries) == set(expected)
        for alpha, value in expected.items():
            assert table[alpha] == value, alpha.to_string()


def test_recursive_equals_character():
    for n in range(MAX_WEIGHT + 1):
        tc = weingarten_table_character(n)
        tr = weingarten_table_recursive(n)
        for alpha in tc.entries:
            assert tc[alpha] == tr[alpha], (n, alpha.to_string())


def _per_diagram_coefficient(alpha):
    """C(alpha) as one reduced term per diagram, each sum reduced in full:
    sum over lam of dim_sn(lam)^2 chi^lam(alpha) / (n!^2 dim_gl(lam))."""
    n = alpha.weight
    total = RatFuncN(0)
    for lam in enumerate_partitions(n):
        weight = Fraction(dim_sn(lam) ** 2 * character(lam, alpha),
                          factorial(n) ** 2)
        if weight:
            term = RatFuncN(PolyN([weight]), dim_gl(lam))
            total = RatFuncN(total.num * term.den + term.num * total.den,
                             total.den * term.den)
    return total


def _content_bound(n, shift):
    """D(N + shift) = prod_k (N + shift + k)^{m_k}, m_k the most cells of
    content k in any diagram of weight n."""
    most = Counter()
    for lam in enumerate_partitions(n):
        cells = Counter(j - i for i, r in enumerate(lam.parts)
                        for j in range(r))
        most |= cells
    return prod(((N + shift + k) ** m for k, m in most.items()),
                start=PolyN([1]))


def test_character_route_equals_per_diagram_sum():
    for n in range(MAX_WEIGHT + 1):
        balanced = weingarten_table_character(n)
        shifted = shifted_table(n)
        rise = prod((N + k for k in range(1, n + 1)), start=PolyN([1]))
        bounds = _content_bound(n, 0), _content_bound(n, 1)
        for alpha in enumerate_partitions(n):
            coefficient = _per_diagram_coefficient(alpha)
            entry = RatFuncN(class_size(alpha) * coefficient.num,
                             coefficient.den)
            up = RatFuncN(rise * entry.num.shifted(1), entry.den.shifted(1))
            assert str(balanced[alpha]) == str(entry), (n, alpha.to_string())
            assert str(shifted[alpha]) == str(up), (n, alpha.to_string())
            for value, bound in zip((balanced[alpha], shifted[alpha]),
                                    bounds):
                assert bound.divmod(value.den)[1].is_zero, \
                    (n, alpha.to_string())


def test_character_and_shift_routes_run_no_polynomial_gcd(monkeypatch):
    def refuse(a, b):
        raise AssertionError("polynomial gcd in the character route")

    monkeypatch.setattr(exactmath, "_primitive_gcd", refuse)
    for n in range(MAX_WEIGHT + 1):
        weingarten_table_character.__wrapped__(n)
        shifted_table.__wrapped__(n)
        weingarten._class_function.__wrapped__(n, 2)


def test_sign_law():
    # overall sign is (-1)^(cycles + n), read off the leading numerator coeff
    for n in range(1, 6):
        for alpha, v in weingarten_table_character(n).entries.items():
            expect = -1 if (alpha.num_parts + n) % 2 else 1
            assert (1 if v.num.leading > 0 else -1) == expect


def test_degree_law():
    for n in range(1, 6):
        for alpha, v in weingarten_table_character(n).entries.items():
            assert v.degree_gap() == 2 * n - alpha.num_parts


def test_table_key_order_is_enumeration_order():
    for n in (2, 4, 5):
        assert list(weingarten_table_character(n).entries) == \
            enumerate_partitions(n)


def test_coeff_table_validates_keys():
    with pytest.raises(ValueError):
        CoeffTable(n=2, family="weingarten",
                   entries={part("1^2"): RatFuncN(1)})


def test_json_schema():
    payload = weingarten_table_character(2).as_json_dict()
    assert payload["n"] == 2
    assert payload["family"] == "weingarten"
    assert payload["entries"][0] == {"partition": "1^2",
                                     "value": "1/(N^2 - 1)"}


def test_monomial_integral_basics():
    assert monomial_integral([1], [1], [1], [1], 3) == Fraction(1, 3)
    assert monomial_integral([1], [2], [3], [3], 3) == 0
    assert monomial_integral([], [], [], [], 5) == 1
    # |U_11|^2 |U_22|^2 at dim 3: identity pairing only
    assert monomial_integral([1, 2], [1, 2], [1, 2], [1, 2], 3) == \
        Fraction(1, 8)
    # row sum: sum_j |U_1j|^2 = 1 exactly
    assert sum(monomial_integral([1], [j], [j], [1], 4)
               for j in range(1, 5)) == 1
    # weight n >= dim: on U(2), |U_22| = |U_11|, so this is E|U_11|^4
    assert monomial_integral([1, 2], [1, 2], [1, 2], [1, 2], 2) == \
        Fraction(1, 3)


@st.composite
def _monomial_case(draw):
    """Indices of a weight-n monomial on U(dim), two permutations of the
    factor pairs and two relabellings of 1..dim."""
    n = draw(st.integers(1, 3))
    dim = draw(st.integers(n + 1, 5))
    index = st.lists(st.integers(1, dim), min_size=n, max_size=n)
    i, j, k, l = (draw(index) for _ in range(4))
    return (i, j, k, l, dim,
            draw(st.permutations(range(n))), draw(st.permutations(range(n))),
            draw(st.permutations(range(1, dim + 1))),
            draw(st.permutations(range(1, dim + 1))))


@settings(deadline=None)
@given(_monomial_case())
@example(([1, 2, 1], [2, 1, 1], [2, 1, 1], [1, 2, 1], 4,
          [2, 0, 1], [0, 1, 2], [1, 2, 3, 4], [1, 2, 3, 4]))
def test_monomial_integral_symmetries(case):
    i, j, k, l, dim, u_order, ud_order, rows, cols = case
    base = monomial_integral(i, j, k, l, dim)
    # the factors commute: permute the (i, j) pairs and the (k, l) pairs
    assert monomial_integral([i[a] for a in u_order], [j[a] for a in u_order],
                             [k[b] for b in ud_order],
                             [l[b] for b in ud_order], dim) == base

    # U -> P U Q for permutation matrices P, Q: row indices (i, l) relabel
    # by one permutation, column indices (j, k) by another
    def relabel(perm, xs):
        return [perm[x - 1] for x in xs]

    assert monomial_integral(relabel(rows, i), relabel(cols, j),
                             relabel(cols, k), relabel(rows, l), dim) == base
    # U -> U^T
    assert monomial_integral(j, i, l, k, dim) == base
    # exchange of the two factor groups (i<->l, j<->k); values are real
    assert monomial_integral(l, k, j, i, dim) == base


def _pair_sum_oracle(i, j, k, l, dim):
    """The tensor integral as the full double sum over permutation pairs:
    every tau with i = l o tau, against every sigma in S_n, weighted by
    C(sigma) when j = k o tau o sigma."""
    n = len(i)
    taus = [tau for tau in itertools.permutations(range(n))
            if all(i[a] == l[tau[a]] for a in range(n))]
    total = Fraction(0)
    for sigma in itertools.permutations(range(n)):
        matches = sum(1 for tau in taus
                      if all(j[a] == k[tau[sigma[a]]] for a in range(n)))
        if matches:
            alpha = weingarten._cycle_type(sigma)
            entry = weingarten_table_character(n)[alpha].evaluate(dim)
            total += matches * entry / class_size(alpha)
    return total


@st.composite
def _repeated_indices(draw):
    """Index tuples of weight n <= 5 over at most three values, so values
    repeat; l and k are often rearrangements of i and j."""
    n = draw(st.integers(1, 5))
    dim = draw(st.integers(n + 1, 7))
    index = st.lists(st.integers(1, min(dim, 3)), min_size=n, max_size=n)
    i, j = draw(index), draw(index)
    l = draw(st.one_of(st.permutations(i), index))
    k = draw(st.one_of(st.permutations(j), index))
    return i, j, k, l, dim


@settings(deadline=None, max_examples=60)
@given(_repeated_indices())
@example(([1, 1, 2, 2, 1], [2, 1, 1, 1, 2], [1, 2, 1, 2, 1],
          [2, 1, 1, 1, 2], 6))
@example(([1] * 5, [1] * 5, [1] * 5, [1] * 5, 6))
@example(([1, 2, 1, 2, 1, 1], [2, 2, 1, 1, 2, 1], [1, 2, 1, 2, 2, 1],
          [1, 1, 2, 2, 1, 1], 7))
def test_monomial_integral_matches_pair_sum_oracle(case):
    i, j, k, l, dim = case
    assert monomial_integral(i, j, k, l, dim) == _pair_sum_oracle(
        i, j, k, l, dim)


def test_monomial_integral_all_equal_indices_at_weight_six():
    # E|U_11|^12 on U(7) is 6! 6! / (7 * 8 * ... * 12) = 1/924
    assert monomial_integral([1] * 6, [1] * 6, [1] * 6, [1] * 6, 7) == \
        Fraction(1, 924)


def test_monomial_integral_u11_moment_law():
    # E|U_11|^(2n) = 1/C(N+n-1, n), n >= N included
    for dim in range(1, 5):
        for n in range(1, 7):
            ones = [1] * n
            assert monomial_integral(ones, ones, ones, ones, dim) == \
                Fraction(1, comb(dim + n - 1, n)), (n, dim)
    # up to the weight cap at one N; at n = 8 the double coset is all of S_8
    for n, expected in ((7, Fraction(1, 1716)), (8, Fraction(1, 3003))):
        ones = [1] * n
        assert monomial_integral(ones, ones, ones, ones, 7) == expected


def test_monomial_integral_unmatched_indices_skip_enumeration(monkeypatch):
    def enumerate_anyway(sigma, left, right):
        raise AssertionError("enumerated a coset of unmatched indices")

    monkeypatch.setattr(weingarten, "_double_coset", enumerate_anyway)
    # i is no rearrangement of l, then j none of k
    assert monomial_integral([1, 2, 2], [1, 2, 3], [3, 1, 2],
                             [2, 1, 1], 4) == 0
    assert monomial_integral([1, 2, 2], [1, 2, 3], [3, 1, 1],
                             [2, 1, 2], 4) == 0


def test_monomial_integral_guards():
    with pytest.raises(ValueError, match="dim >= 1"):
        monomial_integral([], [], [], [], 0)
    with pytest.raises(ValueError):
        monomial_integral([1, 2], [1], [1, 2], [1, 2], 5)
    with pytest.raises(ValueError):
        monomial_integral([0], [1], [1], [1], 3)
    with pytest.raises(ValueError, match="monomial weight 9 above cap 8"):
        monomial_integral(list(range(1, 10)), list(range(1, 10)),
                          list(range(1, 10)), list(range(1, 10)), 20)


def test_weight_cap_bounds_the_double_coset():
    # monomial_integral enumerates one double coset of S_n, up to n!
    # elements at n = MAX_WEIGHT; that work is measured at 8! (about 1 s
    # cold at N = 7) and at no larger cap
    assert factorial(MAX_WEIGHT) <= 40_320, \
        "raising MAX_WEIGHT past 8 needs the double-coset work re-measured " \
        "(ROADMAP item 6)"


def test_monomial_integral_rejects_indices_above_dim():
    # an index past the dimension names no matrix element
    for args in (([4], [1], [1], [1]), ([1], [1], [1], [4]),
                 ([1, 2], [1, 1], [1, 1], [1, 4])):
        with pytest.raises(ValueError, match=r"1\.\.3"):
            monomial_integral(*args, 3)
    assert monomial_integral([3], [3], [3], [3], 4) == Fraction(1, 4)


def _fixed_sources(dim):
    import numpy as np
    rng = np.random.Generator(np.random.Philox(key=2024))
    j = (rng.standard_normal((dim, dim))
         + 1j * rng.standard_normal((dim, dim))) / (2 * dim) ** 0.5
    k = (rng.standard_normal((dim, dim))
         + 1j * rng.standard_normal((dim, dim))) / (2 * dim) ** 0.5
    return SourceMatrices(j, k)


def test_eval_ordinary():
    src = _fixed_sources(4)
    assert eval_ordinary(0, src) == 1
    assert type(eval_ordinary(0, src)) is complex
    with pytest.raises(ValueError):
        eval_ordinary(-1, src)
    t1 = src.trace_powers(1)[0]
    assert abs(eval_ordinary(1, src) - t1 / 4) < 1e-12
    # n=2 against the explicit table combination
    t1, t2 = src.trace_powers(2)
    z11 = Fraction(1, 15)          # 1/(N^2-1) at N=4
    z2 = Fraction(-1, 60)          # -1/((N^2-1)N) at N=4
    expect = 2 * (float(z11) * t1 ** 2 + float(z2) * t2)
    assert abs(eval_ordinary(2, src) - expect) < 1e-12
    # at n = dim no diagram has more than dim rows, and the table holds
    t = src.trace_powers(4)
    expect = 24 * sum(float(v.evaluate(4)) * prod(t[q - 1] ** m
                                                   for q, m in a.items())
                      for a, v in weingarten_table_character(4).entries.items())
    assert abs(eval_ordinary(4, src) - expect) < 1e-12
    # every U(1) sample is a phase, so the integrand is (JK)^n itself
    one = _fixed_sources(1)
    jk = complex(one.J[0, 0] * one.K[0, 0])
    for n in range(MAX_WEIGHT + 1):
        assert abs(eval_ordinary(n, one) - jk ** n) < 1e-12


def test_source_matrices_json_round_trip():
    src = _fixed_sources(3)
    again = SourceMatrices.from_json_dict(src.as_json_dict())
    assert (again.J == src.J).all()
    assert (again.K == src.K).all()
    with pytest.raises(ValueError):
        SourceMatrices.from_json_dict({"N": 2, "J": [[[0, 0]]],
                                       "K": [[[0, 0]]]})
