"""Exact polynomial / rational-function arithmetic, the linear solver and
the reader of the packaged reference tables."""

import random
from fractions import Fraction
from math import gcd, prod

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from sunint.exactmath import (
    N,
    InconsistentSystemError,
    PolyN,
    RankDeficientError,
    RatFuncN,
    _linear_product,
    _over_linear_factors,
    poly_gcd,
    solve_linear_system,
)
from sunint.reference import (_parse, reference_families, reference_table,
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
    assert str(p) == "N^2 - 1"


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
    assert 1 - p == -N and Fraction(1, 2) - N == PolyN([Fraction(1, 2), -1])


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


@pytest.mark.parametrize("call, error, message", [
    (lambda: PolyN().leading, ValueError, "no leading coefficient"),
    (lambda: (N + 1).divmod(PolyN()), ZeroDivisionError, "division by zero"),
    (lambda: RatFuncN(N, 0), ZeroDivisionError, "division by zero"),
    (lambda: RatFuncN(0).degree_gap(), ValueError, "zero function"),
    (lambda: solve_linear_system([], []), ValueError, "sizes do not match"),
    (lambda: solve_linear_system([[N]], [1, 2]), ValueError,
     "sizes do not match"),
    (lambda: solve_linear_system([[N, 1], [N]], [1, 2]), ValueError,
     "ragged"),
], ids=["leading-of-zero", "divmod-by-zero", "zero-denominator",
        "degree-gap-of-zero", "empty-system", "rhs-length", "ragged-rows"])
def test_refused_inputs(call, error, message):
    with pytest.raises(error, match=message):
        call()


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
        f = _parse(text)
        assert _parse(str(f)) == f


def test_parse_rejects_garbage():
    for bad in ["N +", "2**3", "(N", "x + 1", "N^-1"]:
        with pytest.raises(ValueError):
            _parse(bad)


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
            _parse(text)
    else:
        assert _parse(text) == value


def test_parse_refuses_oversized_input_with_value_error():
    # the packaged tables need 57 characters at most; text nested past
    # Python's recursion limit is malformed input, not a crash
    for text in ["+".join(["N"] * 3000), "(" * 300 + "N" + ")" * 300]:
        with pytest.raises(ValueError):
            _parse(text)


def test_parse_round_trips_every_packaged_reference_entry():
    for family in reference_families():
        for n in reference_weights(family):
            for v in reference_table(family, n).values():
                assert _parse(str(v)) == v


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
    assert _parse("-3/((N^2 - 4)*(N^2 - 1))") == RatFuncN(
        -3, (N**2 - 4) * (N**2 - 1))
    assert _parse("(N + 1)/N") == RatFuncN(N + 1, N)


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
    g = _parse(str(f))
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
    # the four sum rows check the constructor path, which sums go through;
    # the two product rows check the Henrici path, which reduces only by the
    # factors that can be shared.  Each result, in either order, must be the
    # representation of a full reduction
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


def _horner_shift(p, delta):
    """p(N + delta) by Horner's rule over PolyN products."""
    acc = PolyN()
    for c in reversed(p.coeffs):
        acc = acc * (N + delta) + c
    return acc


@given(st.one_of(_poly, _gcd_poly), st.integers(-3, 3))
@example(PolyN(), 2)
@example(PolyN([Fraction(1, 3), 0, 0, Fraction(-5, 2), 7]), -3)
def test_taylor_shift_matches_horner_composition(p, delta):
    shifted = p.shifted(delta)
    assert shifted == _horner_shift(p, delta)
    assert [type(c) for c in shifted.coeffs] == \
        [type(c) for c in _horner_shift(p, delta).coeffs]
    assert shifted.shifted(-delta) == p


@st.composite
def _split_quotient(draw):
    """A numerator q * prod (N + shift + k)^f_k and the exponents e_k >= 0 of
    a denominator, where f is a random sub-multiset of e, so the numerator
    shares some factors with the denominator, some more than once."""
    exponents = draw(st.dictionaries(st.integers(-4, 4), st.integers(0, 3),
                                     max_size=5))
    shared = {k: draw(st.integers(0, e)) for k, e in exponents.items()}
    q = draw(st.lists(st.integers(-9, 9), max_size=4).map(PolyN))
    shift = draw(st.integers(0, 1))
    scale = draw(st.integers(-30, 30).filter(bool))
    num = q * PolyN(_linear_product(shared, shift))
    return num, scale, exponents, shift


@settings(deadline=None)
@given(_split_quotient())
@example((PolyN(), 6, {0: 2, 1: 1}, 0))
@example((PolyN([-4]), 2, {-1: 3}, 1))
@example(((N + 1) ** 2 * (N + 2) ** 3 * (N - 5), 24,
          {0: 2, 1: 3, -2: 1}, 1))
@example(((N - 3) ** 3 * (3 * N + 1), -12, {-3: 3, 2: 1}, 0))
def test_over_linear_factors_matches_gcd_reduction(case):
    num, scale, exponents, shift = case
    den = PolyN(_linear_product(exponents, shift)) * scale
    got = _over_linear_factors(num.coeffs, scale, exponents, shift)
    want = RatFuncN(num, den)
    assert got.num.coeffs == want.num.coeffs
    assert got.den.coeffs == want.den.coeffs
    assert str(got) == str(want)


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
            row = [PolyN([rng.randint(-3, 3)
                          for _ in range(rng.randint(1, 3))])
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
    # matrix entries are ints or integer PolyN; anything else is refused
    # before any work, here ahead of the too-few-rows RankDeficientError
    for bad in (Fraction(1, 2), RatFuncN(1, N), 0.5, True,
                PolyN([Fraction(1, 2)])):
        with pytest.raises(TypeError, match="int coefficients"):
            solve_linear_system([[N, bad]], [1])
        with pytest.raises(TypeError, match="int coefficients"):
            solve_linear_system([[N, 1], [1, bad]], [1, 2])
    # the right-hand side may mix ints, Fractions, PolyN and RatFuncN (a
    # constant denominator included); the last row has content 2
    x, y = solve_linear_system(
        [[0, 2], [0, 1], [N, 2 * N], [0, N], [6, 4 * N]],
        [1, Fraction(1, 2), N + 1, RatFuncN(N, 2),
         RatFuncN(2 * N**2 + 6, N)])
    assert (x, y) == (RatFuncN(1, N), RatFuncN(1, 2))


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
    # the matrix is singular at N = 1 and N = 2, where the solution has its
    # poles; neither matters to a solution over Q(N)
    (x,) = solve_linear_system([[(N - 1) * (N - 2)]], [1])
    assert x == RatFuncN(1, (N - 1) * (N - 2))
    # rows with poles at N = 1 and N = 3, each cleared with its right-hand
    # side by its own denominator
    x, y = solve_linear_system(
        [[1, N - 1], [N - 3, N], [2, 2]], [N, 2 * N - 3, 4])
    assert (x, y) == (RatFuncN(1), RatFuncN(1))
    # matrix and solution share the poles N = +-2
    (x,) = solve_linear_system([[N**2 - 4], [N + 2]], [N + 1, RatFuncN(
        N + 1, N - 2)])
    assert x == RatFuncN(N + 1, N**2 - 4)


_POLE_FACTORS = [N, N - 1, N - 2, N + 1, N + 3, N**2 + 1]
# common factors of whole rows, a pole factor or a content above 1: the
# solver keeps each row as given, so every minor carries them
_ROW_FACTORS = _POLE_FACTORS + [PolyN([2]), PolyN([-6])]


def _times(rows, x):
    """A x, entry by entry, over Q(N)."""
    out = []
    for row in rows:
        acc = RatFuncN(0)
        for a, t in zip(row, x):
            acc = acc + a * t
        out.append(acc)
    return out


@st.composite
def _known_system(draw):
    """A random full-rank overdetermined integer-polynomial system with a
    known solution whose entries may have poles at N = 0, 1, 2."""
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
    # mix rows and give some of them a common factor, which the solver
    # does not divide out; rank is unchanged
    for i in range(len(rows)):
        j = draw(st.integers(0, len(rows) - 1))
        c = draw(small)
        if j != i and c:
            rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    for i in range(len(rows)):
        if draw(st.booleans()):
            factor = draw(st.sampled_from(_ROW_FACTORS))
            rows[i] = [a * factor for a in rows[i]]
    order = draw(st.permutations(range(len(rows))))
    rows = [rows[i] for i in order]
    return rows, _times(rows, target), target


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_known_system())
def test_solver_property_recovers_known_solution(system):
    rows, rhs, target = system
    assert solve_linear_system(rows, rhs) == target


_WIDE = st.integers(-2**80, 2**80)


@st.composite
def _wide_system(draw):
    """A full-rank integer-polynomial system at the packed solver's width:
    signed coefficients up to 2^80, entries of degree up to 6, rows of zeros
    and rows with a common factor among the rows, and a known solution with
    large coefficients (all zero at times), so the right-hand sides are
    large-coefficient rational functions."""
    k = draw(st.integers(1, 3))

    def poly(max_deg):
        return PolyN(draw(st.lists(_WIDE, min_size=1, max_size=max_deg + 1)))

    if draw(st.booleans()):
        target = [RatFuncN(0)] * k
    else:
        target = [RatFuncN(poly(3), PolyN([draw(st.integers(1, 2**80))])
                           * draw(st.sampled_from(_POLE_FACTORS)))
                  for _ in range(k)]
    rows = []
    for i in range(k):
        diag = poly(6)
        assume(not diag.is_zero)
        rows.append([poly(6) if j > i else (diag if j == i else PolyN())
                     for j in range(k)])
    rows += [[poly(6) for _ in range(k)]
             for _ in range(draw(st.integers(0, 2)))]
    rows += [[PolyN()] * k for _ in range(draw(st.integers(0, 2)))]
    for i in range(len(rows)):
        if draw(st.booleans()):
            factor = draw(st.sampled_from(_ROW_FACTORS))
            rows[i] = [a * factor for a in rows[i]]
    order = draw(st.permutations(range(len(rows))))
    rows = [rows[i] for i in order]
    return rows, _times(rows, target), target


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.filter_too_much])
@given(_wide_system(), st.data())
def test_solver_property_wide_coefficients(system, data):
    rows, rhs, target = system
    assert solve_linear_system(rows, rhs) == target
    k = len(target)
    # a zero row whose right-hand side is not zero cannot be satisfied
    bump = RatFuncN(PolyN([data.draw(_WIDE.filter(bool))]), N + 2)
    with pytest.raises(InconsistentSystemError):
        solve_linear_system(rows + [[0] * k], rhs + [bump])
    # the last column a multiple of the first: rank below k
    if k > 1:
        scale = PolyN(data.draw(st.lists(_WIDE, min_size=1, max_size=3)))
        low = [row[:-1] + [row[0] * scale] for row in rows]
        with pytest.raises(RankDeficientError):
            solve_linear_system(low, _times(low, target))


def test_solver_reads_back_a_minor_at_the_bound():
    # diagonal monomials +-M N^e, a redundant zero row and a right-hand side
    # of 1-norm 1: the determinant -M^2 N^3 has the coefficient M^2, which is
    # the product of the two row norms times the norm of b, so the packed
    # width has no slack to spare
    for big in (2**80, 2**80 - 1, 3**51):
        rows = [[big * N, 0], [0, -big * N**2], [0, 0]]
        (x, y) = solve_linear_system(rows, [0, N**3, 0])
        assert (x, y) == (RatFuncN(0), RatFuncN(-N, big))
        # a right-hand side of zero still reads the pivots back exactly
        assert solve_linear_system([[N - 4]], [0]) == [RatFuncN(0)]
        (x, y) = solve_linear_system(rows, [big * N**2, N**3, 0])
        assert (x, y) == (RatFuncN(N), RatFuncN(-N, big))
