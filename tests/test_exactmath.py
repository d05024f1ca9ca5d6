"""Exact polynomial / rational-function arithmetic and the linear solver."""

import random
import time
from fractions import Fraction
from math import gcd, prod

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from sunint.exactmath import (
    MAX_EXPONENT,
    N,
    InconsistentSystemError,
    PolyN,
    RankDeficientError,
    RatFuncN,
    parse_ratfunc,
    poly_gcd,
    solve_linear_system,
)
from sunint.reference import (reference_families, reference_table,
                              reference_weights)


def test_poly_basics():
    p = N**2 - 1
    assert p.degree == 2
    assert p(3) == 8
    assert p(Fraction(1, 2)) == Fraction(-3, 4)
    assert (p * 0).is_zero
    assert PolyN().degree == -1
    assert (N + 1) * (N - 1) == p
    assert p.shifted(1) == N**2 + 2 * N


def test_poly_coefficients_are_int_when_integral():
    half = (N**2 + N) * Fraction(1, 2)
    assert half.coeffs == (0, Fraction(1, 2), Fraction(1, 2))
    assert type(half.coeffs[1]) is Fraction
    p = half * 2
    assert all(type(c) is int for c in p.coeffs) and p == N**2 + N
    assert type(PolyN([Fraction(4, 2)]).leading) is int
    assert repr(PolyN([Fraction(3), Fraction(1, 2)])) == \
        "PolyN([3, Fraction(1, 2)])"
    assert type(half(3)) is int and half(3) == 6
    assert half(Fraction(1, 2)) == Fraction(3, 8)
    assert type(RatFuncN(N, 2).evaluate(4)) is Fraction


def test_poly_and_ratfunc_add_sub_in_both_orders():
    p, r = N + 1, RatFuncN(1, N)
    total = RatFuncN(N**2 + N + 1, N)
    assert p + r == total and r + p == total
    assert p - r == RatFuncN(N**2 + N - 1, N)
    assert r - p == RatFuncN(-N**2 - N + 1, N)
    assert (p + r) - r == p and p - (p - r) == r


def test_poly_divmod_exact():
    p = N**3 - 6 * N**2 + 11 * N - 6          # (N-1)(N-2)(N-3)
    q, r = p.divmod(N - 2)
    assert r.is_zero
    assert q == N**2 - 4 * N + 3
    assert p.exact_div(N - 1) == N**2 - 5 * N + 6
    with pytest.raises(ValueError):
        (N**2 + 1).exact_div(N - 1)


def test_poly_gcd_monic():
    a = (N - 1) ** 2 * (N + 3)
    b = (N - 1) * (N + 5)
    g = poly_gcd(a, b)
    assert g == N - 1
    assert poly_gcd(a, N + 7) == 1


def test_ratfunc_add_cancels():
    # 1/N + (-1/N) = 0
    assert (RatFuncN(1, N) + RatFuncN(-1, N)).is_zero


def test_ratfunc_mul_reduces():
    # (1/(N-1)) * ((N-1)/N) = 1/N
    lhs = RatFuncN(1, N - 1) * RatFuncN(N - 1, N)
    assert lhs == RatFuncN(1, N)


def test_ratfunc_canonical_form():
    f = RatFuncN(2 * N + 2, 4 * N)
    assert f.num == N + 1
    assert f.den == 2 * N
    g = RatFuncN(N, -N**2 + 1)          # leading den coeff must end up > 0
    assert g.den.leading > 0
    assert g == RatFuncN(-N, N**2 - 1)
    assert RatFuncN(0, N - 5) == 0
    assert str(RatFuncN(0, N - 5)) == "0"


def test_ratfunc_evaluate_and_pole():
    f = RatFuncN(-1, (N**2 - 1) * N)
    assert f.evaluate(2) == Fraction(-1, 6)
    with pytest.raises(ZeroDivisionError):
        f.evaluate(1)


def test_ratfunc_shift():
    f = RatFuncN(-1, (N**2 - 1) * N)
    assert f.shifted(1) == RatFuncN(-1, N * (N + 1) * (N + 2))


def test_ratfunc_degree_gap_and_negative_power():
    assert RatFuncN(-1, (N**2 - 1) * N).degree_gap() == 3
    # powers are nonnegative; the reciprocal is spelled 1 / f
    f = RatFuncN(N + 1, N - 2)
    with pytest.raises(ValueError):
        f ** -1
    assert 1 / f == RatFuncN(N - 2, N + 1)


def test_parse_round_trip():
    cases = [
        "1/N",
        "-1/((N^2 - 1)*N)",
        "8*(2*N^2 - 3)/((N^2 - 9)*(N^2 - 4)*(N^2 - 1)*N^2)",
        "(N^4 - 8*N^2 + 6)/((N^2 - 9)*(N^2 - 4)*(N^2 - 1)*N^2)",
        "((N + 1)^2 - 2)/(N*(N - 1))",
        "0",
        "7",
    ]
    for text in cases:
        f = parse_ratfunc(text)
        assert parse_ratfunc(str(f)) == f


def test_parse_rejects_garbage():
    for bad in ["N +", "2**3", "(N", "x + 1", "N^-1"]:
        with pytest.raises(ValueError):
            parse_ratfunc(bad)


@pytest.mark.parametrize("text, value", [
    ("007", RatFuncN(7)),
    ("N^02", RatFuncN(N**2)),
    ("-N^2", RatFuncN(-N**2)),
    ("(2^3)^2", RatFuncN(64)),
    ("--N", RatFuncN(N)),
    ("2*-N", RatFuncN(-2 * N)),
    ("N\n/ 2\t/\n\t3", RatFuncN(N, 6)),
    ("N2", ValueError),
    ("NN", ValueError),
    ("N**2", ValueError),
    ("1_0", ValueError),
    ("1.5", ValueError),
    ("2^3^2", ValueError),
    ("N^-1", ValueError),
    ("N^+2", ValueError),
    ("N^(2)", ValueError),
    ("()", ValueError),
    ("(N, 1)", ValueError),
    ("N(1)", ValueError),
    ("", ValueError),
    ("1/0", ZeroDivisionError),
])
def test_parse_edge_cases(text, value):
    if isinstance(value, type):
        with pytest.raises(value):
            parse_ratfunc(text)
    else:
        assert parse_ratfunc(text) == value


def test_parse_refuses_oversized_input_with_value_error():
    # the packaged tables need 57 characters at most; text nested past
    # Python's recursion limit is malformed input, not a crash
    for text in ["+".join(["N"] * 3000), "(" * 300 + "N" + ")" * 300]:
        with pytest.raises(ValueError):
            parse_ratfunc(text)


def test_parse_admits_exponent_at_the_bound():
    assert parse_ratfunc(f"(N+1)^{MAX_EXPONENT}") == RatFuncN(
        (N + 1) ** MAX_EXPONENT)
    # nested exponents multiply: 16 * 16 is the bound
    assert parse_ratfunc("((N+1)^16)^16") == RatFuncN((N + 1) ** 256)
    assert MAX_EXPONENT == 256


@pytest.mark.parametrize("text", [
    f"(N+1)^{MAX_EXPONENT + 1}",
    "(N+1)^4000",
    "((N+1)^17)^16",
    "(((10^256)^256)^256)^256",
    "1 + 2*(N - (N+1)^100000)",
])
def test_parse_refuses_exponent_above_the_bound_before_multiplying(text):
    start = time.perf_counter()
    with pytest.raises(ValueError, match="exponent above 256"):
        parse_ratfunc(text)
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize("k", [2, 16])
def test_parse_refuses_products_of_bounded_powers_quickly(k):
    # each power is at the bound, but their product's degree is not
    start = time.perf_counter()
    with pytest.raises(ValueError, match="degree above 256"):
        parse_ratfunc("*".join(["(N+1)^256"] * k))
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize("text", [
    "(" + "*".join(["(N+1)"] * 256) + ")^2",
    "(N*N + 1)^129",
    "(N+1)^128/(N+2)^128 + (N+3)^128/(N+4)^128 + (N+5)^128/(N+7)^128",
])
def test_parse_refuses_intermediate_degree_above_the_bound(text):
    start = time.perf_counter()
    with pytest.raises(ValueError, match="degree above 256"):
        parse_ratfunc(text)
    assert time.perf_counter() - start < 1.0


def _fraction_sum(a, b, c, d):
    return f"((N+{a})^128/(N+{b})^128)+((N+{c})^128/(N+{d})^128)"


@pytest.mark.parametrize("text", [
    _fraction_sum("12345678901234567890", "98765432109876543210",
                  "3333333333333", "4444444444"),
    *(_fraction_sum(*(str(k) * digits for k in range(1, 5)))
      for digits in (20, 40, 80)),
    "*".join(["(N+" + "9" * 80 + ")"] * 64),
    "12345678901234567890^128",
], ids=["mixed-digits", "digits-20", "digits-40", "digits-80",
        "long-literal-product", "literal-power"])
def test_parse_refuses_large_coefficients_quickly(text):
    # within the degree bound, but the coefficients grow with the literals
    start = time.perf_counter()
    with pytest.raises(ValueError, match="coefficients above 1024 bits"):
        parse_ratfunc(text)
    assert time.perf_counter() - start < 0.05


def test_parse_admits_degree_at_the_bound():
    assert parse_ratfunc("(N*N + 1)^128") == RatFuncN((N**2 + 1) ** 128)
    assert parse_ratfunc("N^256 + N^255 - 1/2") == RatFuncN(
        N**256 + N**255 - Fraction(1, 2))
    assert parse_ratfunc("(N+1)^200/(N+1)^200") == RatFuncN(1)


def test_parse_round_trips_every_packaged_reference_entry():
    for family in reference_families():
        for n in reference_weights(family):
            for v in reference_table(family, n).values():
                assert parse_ratfunc(str(v)) == v


def test_small_powers_equal_repeated_multiplication():
    for base in (N + 1, 2 * N - 3, N**2 + Fraction(1, 2) * N - 5,
                 PolyN([7]), PolyN()):
        product = PolyN([1])
        for k in range(20):
            assert base**k == product, (base, k)
            product = product * base
    assert RatFuncN(N + 1, N - 1) ** 3 == RatFuncN((N + 1) ** 3,
                                                   (N - 1) ** 3)


def test_parse_matches_constructed():
    assert parse_ratfunc("-3/((N^2 - 4)*(N^2 - 1))") == RatFuncN(
        -3, (N**2 - 4) * (N**2 - 1))
    assert parse_ratfunc("(N + 1)/N") == RatFuncN(N + 1, N)


_coeff = st.one_of(st.integers(-6, 6),
                   st.fractions(-3, 3, max_denominator=4))
_poly = st.lists(_coeff, max_size=4).map(PolyN)
_nonzero_poly = _poly.filter(bool)
_ratfunc = st.builds(RatFuncN, _poly, _nonzero_poly)


@given(_ratfunc, _ratfunc)
def test_canonical_product_quotient_property(a, b):
    assume(b)
    assert (a * b) / b == a
    assert (a / b) * b == a


@given(_ratfunc, _ratfunc, st.fractions(-30, 30, max_denominator=5))
def test_evaluate_commutes_with_arithmetic(a, b, x):
    try:
        lhs = (a * b + a).evaluate(x)
        rhs = a.evaluate(x) * b.evaluate(x) + a.evaluate(x)
    except ZeroDivisionError:
        assume(False)
    assert lhs == rhs


@given(_poly, _nonzero_poly,
       st.one_of(_coeff.filter(bool), _nonzero_poly))
def test_canonical_form_is_unique(a, b, c):
    f, g = RatFuncN(a * c, b * c), RatFuncN(a, b)
    assert f.num.coeffs == g.num.coeffs and f.den.coeffs == g.den.coeffs
    assert str(f) == str(g) and hash(f) == hash(g)
    # integer coefficients, joint content 1, no common factor, den > 0
    coeffs = [Fraction(c) for c in (*g.num.coeffs, *g.den.coeffs)]
    assert all(c.denominator == 1 for c in coeffs)
    assert gcd(*(c.numerator for c in coeffs)) == 1
    assert poly_gcd(g.num, g.den) == 1 and g.den.leading > 0


@given(_ratfunc)
def test_parse_str_round_trip(f):
    g = parse_ratfunc(str(f))
    assert g == f and str(g) == str(f)


@given(_ratfunc, _ratfunc, st.integers(-20, 20), st.integers(-3, 3))
def test_evaluation_is_a_homomorphism(a, b, x, delta):
    try:
        ax, bx = a.evaluate(x), b.evaluate(x)
    except ZeroDivisionError:
        assume(False)
    assert (a + b).evaluate(x) == ax + bx
    assert (a - b).evaluate(x) == ax - bx
    assert (a * b).evaluate(x) == ax * bx
    if bx:
        assert (a / b).evaluate(x) == ax / bx
    try:
        shifted = a.evaluate(x + delta)
    except ZeroDivisionError:
        return
    assert a.shifted(delta).evaluate(x) == shifted


def test_float_arguments_are_rejected():
    for p in (PolyN([1, 2]), PolyN()):
        with pytest.raises(TypeError):
            p(2.5)
    with pytest.raises(TypeError):
        RatFuncN(N + 1, N).evaluate(0.5)


@given(_ratfunc, _ratfunc, _ratfunc)
def test_ratfunc_field_laws(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a - a).is_zero and a - a == 0
    if a:
        assert a * (1 / a) == 1


def _euclid_gcd_over_q(a, b):
    """Monic gcd of two PolyN by Euclid over Q on plain Fraction lists, an
    independent witness for poly_gcd (it shares no arithmetic with PolyN)."""
    def trim(cs):
        while cs and cs[-1] == 0:
            cs.pop()
        return cs

    a = trim([Fraction(c) for c in a.coeffs])
    b = trim([Fraction(c) for c in b.coeffs])
    while b:
        while len(a) >= len(b):
            q = a[-1] / b[-1]
            shift = len(a) - len(b)
            for j, c in enumerate(b):
                a[shift + j] -= q * c
            trim(a)
        a, b = b, a
    return PolyN([c / a[-1] for c in a]) if a else PolyN()


_linear_factors = st.lists(st.integers(-6, 6).map(lambda k: N + k),
                           min_size=1, max_size=8)
_gcd_coeff = st.one_of(st.integers(-9, 9),
                       st.fractions(-5, 5, max_denominator=7))
_gcd_poly = st.lists(_gcd_coeff, max_size=9).map(PolyN)


@settings(deadline=None)
@given(_gcd_poly, _gcd_poly,
       st.one_of(_gcd_poly.filter(bool),
                 _linear_factors.map(lambda fs: prod(fs, start=PolyN([1])))))
def test_poly_gcd_matches_euclid_over_q(a, b, c):
    a, b = a * c, b * c
    g = poly_gcd(a, b)
    assert g == _euclid_gcd_over_q(a, b)
    if a or b:
        assert g.leading == 1
        assert a.divmod(g)[1].is_zero and b.divmod(g)[1].is_zero


@given(_gcd_poly)
def test_poly_gcd_with_zero(a):
    monic = PolyN() if not a else a * Fraction(1, a.leading)
    assert poly_gcd(a, PolyN()) == monic and poly_gcd(PolyN(), a) == monic
    assert poly_gcd(PolyN(), PolyN()) == 0


# products of (N + k)^e over a few k, so that two draws often share factors
# with each other's numerators and denominators
_shared_factors = st.dictionaries(st.integers(-3, 3), st.integers(1, 3),
                                  max_size=4).map(
    lambda ex: prod(((N + k) ** e for k, e in ex.items()), start=PolyN([1])))
_shared_ratfunc = st.builds(lambda p, f, d: RatFuncN(p * f, d),
                            _poly, _shared_factors, _shared_factors)


def _ratfunc_of(x):
    return x if isinstance(x, RatFuncN) else RatFuncN(x)


def _plain_sum(a, b, sign):
    a, b = _ratfunc_of(a), _ratfunc_of(b)
    return RatFuncN(a.num * b.den + sign * b.num * a.den, a.den * b.den)


def _plain_product(a, b):
    a, b = _ratfunc_of(a), _ratfunc_of(b)
    return RatFuncN(a.num * b.num, a.den * b.den)


@settings(deadline=None)
@given(_shared_ratfunc,
       st.one_of(_shared_ratfunc, _poly, st.integers(-6, 6),
                 st.fractions(-3, 3, max_denominator=4)))
# sums whose numerator shares a factor with gcd(b, d): N and N + 1
@example(RatFuncN(1, N * (N + 1)), RatFuncN(1, N * (N - 1)))
@example(RatFuncN(1, N + 1), RatFuncN(N, N + 1))
def test_henrici_arithmetic_matches_full_reduction(a, b):
    # sums and products reduce only by the factors that can be shared; the
    # result must be the representation of a full reduction, in either order
    for got, want in ((a + b, _plain_sum(a, b, 1)),
                      (b + a, _plain_sum(b, a, 1)),
                      (a - b, _plain_sum(a, b, -1)),
                      (b - a, _plain_sum(b, a, -1)),
                      (a * b, _plain_product(a, b)),
                      (b * a, _plain_product(b, a))):
        assert isinstance(got, RatFuncN)
        assert got.num.coeffs == want.num.coeffs
        assert got.den.coeffs == want.den.coeffs
        assert str(got) == str(want)


def test_high_degree_common_factor_cancels():
    p = Fraction(5, 9)
    for k in range(-4, 5):
        p = p * (N + k) ** 2
    q = Fraction(2, 3) * N**3 - N + Fraction(1, 5)
    r = Fraction(7, 4) * N**2 + 3
    f = RatFuncN(p * q, p * r)
    assert f == RatFuncN(q, r) and str(f) == str(RatFuncN(q, r))
    assert f.num == 40 * N**3 - 60 * N + 12 and f.den == 105 * N**2 + 180


def _random_ratfunc(rng):
    def poly():
        return PolyN([rng.randint(-4, 4) for _ in range(rng.randint(1, 4))])

    den = PolyN()
    while den.is_zero:
        den = poly()
    return RatFuncN(poly(), den)


def test_solver_small_systems():
    (x,) = solve_linear_system([[N]], [1])
    assert x == RatFuncN(1, N)
    # overdetermined but consistent: same equation twice
    (x,) = solve_linear_system([[N], [2 * N]], [1, 2])
    assert x == RatFuncN(1, N)
    with pytest.raises(InconsistentSystemError):
        solve_linear_system([[N], [N]], [1, 2])
    with pytest.raises(RankDeficientError):
        solve_linear_system([[N, 2 * N], [2 * N, 4 * N]], [1, 2])
    # too few rows
    with pytest.raises(RankDeficientError):
        solve_linear_system([[N, 1]], [1])


def test_solver_pivot_from_later_row():
    # column 0 is zero in the first two rows, so its pivot comes from a later
    # row, and each row's right-hand side has its own high-degree denominator
    x = RatFuncN(1, (N + 1) ** 3)
    y = RatFuncN(N, (N - 2) ** 2)
    rows = [[0, 1], [0, N], [N, 0], [N + 1, 2]]
    rhs = [a * x + b * y for a, b in rows]
    assert solve_linear_system(rows, rhs) == [x, y]


def test_solver_recovers_known_solution():
    rng = random.Random(99)
    for _ in range(8):
        k = 4
        target = [_random_ratfunc(rng) for _ in range(k)]
        rows = []
        rhs = []
        while len(rows) < k + 2:          # overdetermined by two rows
            row = [RatFuncN(PolyN([rng.randint(-3, 3)
                                   for _ in range(rng.randint(1, 3))]))
                   for _ in range(k)]
            rows.append(row)
            acc = RatFuncN(0)
            for c, t in zip(row, target):
                acc = acc + c * t
            rhs.append(acc)
        try:
            got = solve_linear_system(rows, rhs)
        except RankDeficientError:
            continue                      # random rows may be singular
        assert got == target


def test_solver_mixed_scalar_entries():
    # entries may be ints, Fractions, PolyN, or RatFuncN
    x = solve_linear_system(
        [[1, Fraction(1, 2)], [N, RatFuncN(1, N)]],
        [Fraction(3, 2), RatFuncN(N**2 + 1, N)])
    assert x[0] == 1
    assert x[1] == 1


def test_solver_rank_deficient_systems():
    # second column is N times the first: rank 1 over Q(N) at every N
    with pytest.raises(RankDeficientError):
        solve_linear_system([[N, N**2], [1, N], [N + 2, N**2 + 2 * N]],
                            [1, 2, 3])
    # constant matrix of rank 1, consistent right-hand side
    with pytest.raises(RankDeficientError):
        solve_linear_system([[1, 2], [2, 4], [3, 6]], [1, 2, 3])
    # a zero column
    with pytest.raises(RankDeficientError):
        solve_linear_system([[N, 0], [1, 0], [N**2, 0]], [N, 1, N**2])


def test_solver_inconsistent_systems():
    with pytest.raises(InconsistentSystemError):
        solve_linear_system([[1], [N]], [1, 1])
    # the second row agrees with x = 1 at N = 1..6 and nowhere else, so the
    # first sampled points are all consistent
    bump = (N - 1) * (N - 2) * (N - 3) * (N - 4) * (N - 5) * (N - 6)
    with pytest.raises(InconsistentSystemError):
        solve_linear_system([[1], [1]], [1, 1 + bump])
    with pytest.raises(InconsistentSystemError):
        solve_linear_system([[N, 1], [1, N], [N + 1, N + 1]],
                            [1, 1, RatFuncN(1, N)])


def test_solver_skips_rank_drops_and_poles():
    # the matrix is singular at N = 1 and N = 2 and the entries have poles
    # at N = 1, 2, 3; neither matters to a solution over Q(N)
    (x,) = solve_linear_system([[(N - 1) * (N - 2)]], [1])
    assert x == RatFuncN(1, (N - 1) * (N - 2))
    x, y = solve_linear_system(
        [[RatFuncN(1, N - 1), 1], [1, RatFuncN(N, N - 3)], [2, 2]],
        [RatFuncN(N, N - 1), RatFuncN(2 * N - 3, N - 3), 4])
    assert (x, y) == (RatFuncN(1), RatFuncN(1))
    # entries and solution share the poles N = +-2
    (x,) = solve_linear_system([[N**2 - 4], [N + 2]], [N + 1, RatFuncN(
        N + 1, N - 2)])
    assert x == RatFuncN(N + 1, N**2 - 4)


_POLE_FACTORS = [N, N - 1, N - 2, N + 1, N + 3, N**2 + 1]


@st.composite
def _known_system(draw):
    """A random full-rank overdetermined system with a known solution whose
    entries may have poles at N = 0, 1, 2."""
    small = st.integers(-3, 3)
    k = draw(st.integers(1, 4))
    extra = draw(st.integers(1, 2))

    def poly(max_deg):
        return PolyN(draw(st.lists(small, min_size=1,
                                   max_size=max_deg + 1)))

    target = []
    for _ in range(k):
        den = PolyN([draw(st.integers(1, 3))])
        for f in draw(st.lists(st.sampled_from(_POLE_FACTORS),
                               max_size=3)):
            den = den * f
        target.append(RatFuncN(poly(3), den))
    # upper-triangular block with nonzero diagonal: full rank over Q(N)
    rows = []
    for i in range(k):
        diag = PolyN([draw(st.sampled_from([1, -1, 2, -3])),
                      *draw(st.lists(small, max_size=2))])
        rows.append([poly(2) if j > i else (diag if j == i else PolyN())
                     for j in range(k)])
    for _ in range(extra):
        rows.append([poly(2) for _ in range(k)])
    # mix rows and give some of them rational entries; rank is unchanged
    for i in range(len(rows)):
        j = draw(st.integers(0, len(rows) - 1))
        c = draw(small)
        if j != i and c:
            rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    for i in range(len(rows)):
        if draw(st.booleans()):
            div = draw(st.sampled_from(_POLE_FACTORS))
            rows[i] = [RatFuncN(a, div) for a in rows[i]]
    order = draw(st.permutations(range(len(rows))))
    rows = [rows[i] for i in order]
    rhs = []
    for row in rows:
        acc = RatFuncN(0)
        for a, t in zip(row, target):
            acc = acc + a * t
        rhs.append(acc)
    return rows, rhs, target


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_known_system())
def test_solver_property_recovers_known_solution(system):
    rows, rhs, target = system
    assert solve_linear_system(rows, rhs) == target
