"""Exact arithmetic kernel: polynomials and rational functions of the matrix
dimension N, and exact linear solving over that field by fraction-free
elimination in Z[N].

Coefficients are exact rationals: an ``int`` when integral, else a reduced
``fractions.Fraction``.  ``PolyN`` is a dense univariate polynomial in the
symbol N; ``RatFuncN`` is a quotient of two such polynomials kept in a
canonical reduced form with integer coefficients, so equality of values is
equality of representations and printed tables are byte-stable across runs.
That reduction stays in Z[N]: the gcd is a primitive remainder sequence over
the integers, and only ``poly_gcd`` scales it to monic.

Everything here is immutable value semantics: operations return new objects
and never mutate their arguments, so the types are safe to share across
threads.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from math import gcd, lcm, prod
from typing import Iterable, Sequence, Union

Scalar = Union[int, Fraction]


class LinearSystemError(ValueError):
    """Base class for failures of the exact linear solver."""


class RankDeficientError(LinearSystemError):
    """The coefficient matrix does not have full column rank."""


class InconsistentSystemError(LinearSystemError):
    """A redundant row of an overdetermined system is not satisfied."""


def _scalar(x: Scalar) -> Scalar:
    """x as an int when it is integral, else as a (reduced) Fraction."""
    if isinstance(x, int):
        return x
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


class PolyN:
    """Dense polynomial in N with exact rational coefficients.

    ``coeffs[k]`` is the coefficient of N**k, an ``int`` when it is integral
    and a ``Fraction`` otherwise; trailing zeros are trimmed, so the zero
    polynomial has an empty coefficient tuple and degree -1.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        cs = [c if type(c) is int else _scalar(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: tuple[Scalar, ...] = tuple(cs)

    # -- basic queries ----------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> Scalar:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __bool__(self) -> bool:
        return not self.is_zero

    def __eq__(self, other: object) -> bool:
        if isinstance(other, PolyN):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == PolyN([other])
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.coeffs)

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other: PolyN | Scalar) -> PolyN:
        if not isinstance(other, (PolyN, int, Fraction)):
            return NotImplemented
        other = _as_poly(other)
        n = max(len(self.coeffs), len(other.coeffs))
        a = self.coeffs + (0,) * (n - len(self.coeffs))
        b = other.coeffs + (0,) * (n - len(other.coeffs))
        return PolyN(x + y for x, y in zip(a, b))

    __radd__ = __add__

    def __neg__(self) -> PolyN:
        return PolyN(-c for c in self.coeffs)

    def __sub__(self, other: PolyN | Scalar) -> PolyN:
        if not isinstance(other, (PolyN, int, Fraction)):
            return NotImplemented
        return self + (-_as_poly(other))

    def __rsub__(self, other: PolyN | Scalar) -> PolyN:
        if not isinstance(other, (PolyN, int, Fraction)):
            return NotImplemented
        return _as_poly(other) + (-self)

    def __mul__(self, other: PolyN | Scalar) -> PolyN:
        if isinstance(other, (int, Fraction)):
            return PolyN(c * other for c in self.coeffs)
        if not isinstance(other, PolyN):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return PolyN()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return PolyN(out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> PolyN:
        if k < 0:
            raise ValueError("negative polynomial power")
        out = PolyN([1])
        for _ in range(k):
            out = out * self
        return out

    def __call__(self, x: Scalar) -> Scalar:
        """Evaluate at N = x (Horner)."""
        x = _scalar(x)
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return _scalar(acc)

    def shifted(self, delta: int = 1) -> PolyN:
        """The polynomial with N replaced by N + delta: a Taylor shift in
        place on the coefficient list by repeated synthetic division by
        N - delta, d(d+1)/2 multiply-adds for degree d."""
        cs = list(self.coeffs)
        top = len(cs) - 1
        for i in range(top):
            for k in range(top - 1, i - 1, -1):
                cs[k] += delta * cs[k + 1]
        return PolyN(cs)

    # -- division / gcd ---------------------------------------------------

    def divmod(self, other: PolyN) -> tuple[PolyN, PolyN]:
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        quo = [0] * max(len(rem) - len(other.coeffs) + 1, 0)
        d = other.degree
        lead = other.leading
        for k in range(len(rem) - 1, d - 1, -1):
            c = rem[k]
            if c == 0:
                continue
            q, r = divmod(c, lead)      # stays in Z when the step is exact
            if r:
                q = Fraction(c, lead)
            quo[k - d] = q
            for j, b in enumerate(other.coeffs):
                rem[k - d + j] -= q * b
        return PolyN(quo), PolyN(rem)

    def exact_div(self, other: PolyN) -> PolyN:
        q, r = self.divmod(other)
        if not r.is_zero:
            raise ValueError("polynomial division is not exact")
        return q

    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:
        return f"PolyN({list(self.coeffs)!r})"


#: The polynomial N itself; build others as e.g. ``N**2 - 1``.
N = PolyN((0, 1))

_POLY_ZERO = PolyN()
_POLY_ONE = PolyN([1])


def _as_poly(x: PolyN | Scalar) -> PolyN:
    if isinstance(x, PolyN):
        return x
    return PolyN([x])


def poly_gcd(a: PolyN, b: PolyN) -> PolyN:
    """Monic gcd over the rationals (1 if coprime, 0 only for gcd(0, 0)).

    Computed in Z[N] by the primitive remainder sequence (Knuth, TAOCP
    vol. 2, 4.6.1): both operands are made primitive, each integer
    pseudo-remainder is divided by its content, and the last nonzero one is
    the gcd up to a rational factor, which scales it to monic."""
    g = _primitive_gcd(a, b)
    return g if g.is_zero else g * Fraction(1, g.leading)


def _primitive_gcd(a: PolyN, b: PolyN) -> PolyN:
    """A primitive integer polynomial that is a gcd of a and b over Q (the
    zero polynomial for gcd(0, 0)); its sign is not fixed."""
    if a.degree < b.degree:
        a, b = b, a
    if b.degree == 0:
        return _POLY_ONE
    (a,), (b,) = _primitive([a]), _primitive([b])
    while b.degree > 0:
        # lc(b)^(deg a - deg b + 1) * a divides by b without leaving Z
        rem = (a * b.leading ** (a.degree - b.degree + 1)).divmod(b)[1]
        a, (b,) = b, _primitive([rem])
    return a if b.is_zero else _POLY_ONE


def _primitive(polys: Sequence[PolyN]) -> list[PolyN]:
    """c * p for every p, with the one positive rational c that makes all
    their coefficients coprime integers."""
    cs = [c for p in polys for c in p.coeffs]
    # unpack lists, not generators: CPython builds a generator's argument
    # tuple oversized and shrinks it, stranding memory on its tuple free lists
    den = lcm(*[c.denominator for c in cs])
    num = gcd(*[c.numerator for c in cs]) or 1
    if den == num == 1:
        return list(polys)
    # c * den is an integer that num divides, so // is exact and stays in Z
    return [PolyN(c * den // num for c in p.coeffs) for p in polys]


def format_poly(p: PolyN) -> str:
    """Canonical descending-power form, e.g. ``N^3 - 5*N + 1``."""
    if p.is_zero:
        return "0"
    parts: list[str] = []
    for k in range(p.degree, -1, -1):
        c = p.coeffs[k]
        if c == 0:
            continue
        mag = abs(c)
        if k == 0:
            body = str(mag)
        else:
            power = "N" if k == 1 else f"N^{k}"
            body = power if mag == 1 else f"{mag}*{power}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


class RatFuncN:
    """Rational function of N in canonical reduced form.

    Canonical form: numerator and denominator have integer coefficients with
    coprime contents, no common polynomial factor, and a positive leading
    denominator coefficient.  Zero is 0/1.  With that convention two equal
    values always have identical representations.

    The constructor reduces by a full gcd, and sums go through it.  A
    product of values already in canonical form reduces only by the factors
    that can be shared (Henrici, Knuth TAOCP vol. 2, 4.5.1): (a/b)(c/d) only
    across gcd(a, d) and gcd(c, b).  Sums get no such shortcut because no
    table or series route adds rational functions.  Every path ends in
    ``_canonical``, which fixes content and sign, so the representation is
    the same whichever way a value was computed.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: PolyN | Scalar, den: PolyN | Scalar = 1):
        num = _as_poly(num)
        den = _as_poly(den)
        if den.is_zero:
            raise ZeroDivisionError("division by zero rational function")
        # with num, den in Z[N] and their gcd primitive, both quotients stay
        # in Z[N] (Gauss's lemma)
        self.num, self.den = _canonical(*_cancel(*_primitive([num, den])))

    @classmethod
    def _coprime(cls, num: PolyN, den: PolyN) -> RatFuncN:
        """num/den for integer polynomials with no common factor of positive
        degree, put in canonical form without a polynomial gcd."""
        out = object.__new__(cls)
        out.num, out.den = _canonical(num, den)
        return out

    # -- queries ----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    @property
    def is_polynomial(self) -> bool:
        """True when the value lies in Q[N] (constant denominator)."""
        return self.den.degree == 0

    def degree_gap(self) -> int:
        """deg(denominator) - deg(numerator); the decay rate as N grows."""
        if self.is_zero:
            raise ValueError("degree gap of the zero function is undefined")
        return self.den.degree - self.num.degree

    def __bool__(self) -> bool:
        return not self.is_zero

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (RatFuncN, PolyN, int, Fraction)):
            other = _as_ratfunc(other)
            return self.num == other.num and self.den == other.den
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other: RatFuncN | PolyN | Scalar) -> RatFuncN:
        other = _as_ratfunc(other)
        return RatFuncN(self.num * other.den + other.num * self.den,
                        self.den * other.den)

    __radd__ = __add__

    def __neg__(self) -> RatFuncN:
        return RatFuncN._coprime(-self.num, self.den)

    def __sub__(self, other: RatFuncN | PolyN | Scalar) -> RatFuncN:
        return self + (-_as_ratfunc(other))

    def __rsub__(self, other: RatFuncN | PolyN | Scalar) -> RatFuncN:
        return _as_ratfunc(other) + (-self)

    def __mul__(self, other: RatFuncN | PolyN | Scalar) -> RatFuncN:
        other = _as_ratfunc(other)
        a, d = _cancel(self.num, other.den)
        c, b = _cancel(other.num, self.den)
        return RatFuncN._coprime(a * c, b * d)

    __rmul__ = __mul__

    def __truediv__(self, other: RatFuncN | PolyN | Scalar) -> RatFuncN:
        other = _as_ratfunc(other)
        if other.is_zero:
            raise ZeroDivisionError("division by zero rational function")
        return self * RatFuncN._coprime(other.den, other.num)

    def __rtruediv__(self, other: RatFuncN | PolyN | Scalar) -> RatFuncN:
        return _as_ratfunc(other) / self

    def __pow__(self, k: int) -> RatFuncN:
        return RatFuncN._coprime(self.num ** k, self.den ** k)

    def evaluate(self, x: Scalar) -> Fraction:
        """Exact substitution N = x; raises ZeroDivisionError at a pole."""
        d = self.den(x)
        if d == 0:
            raise ZeroDivisionError(f"pole at N = {x}")
        return Fraction(self.num(x), d)

    def shifted(self, delta: int = 1) -> RatFuncN:
        """The function with N replaced by N + delta.  The shift is a ring
        automorphism of Z[N], so the result is canonical as it stands."""
        return RatFuncN._coprime(self.num.shifted(delta),
                                 self.den.shifted(delta))

    def __str__(self) -> str:
        num_s = format_poly(self.num)
        if self.den == _POLY_ONE:
            return num_s
        if len([c for c in self.num.coeffs if c != 0]) > 1:
            num_s = f"({num_s})"
        den_s = format_poly(self.den)
        # parenthesize unless the denominator prints as a bare power of N
        if not (self.den.degree >= 0 and self.den.leading == 1
                and all(c == 0 for c in self.den.coeffs[:-1])):
            den_s = f"({den_s})"
        return f"{num_s}/{den_s}"

    def __repr__(self) -> str:
        return f"RatFuncN({self})"


def _as_ratfunc(x: RatFuncN | PolyN | Scalar) -> RatFuncN:
    if isinstance(x, RatFuncN):
        return x
    return RatFuncN(_as_poly(x))


def _canonical(num: PolyN, den: PolyN) -> tuple[PolyN, PolyN]:
    """The canonical pair for num/den, where num and den are integer
    polynomials with no common factor of positive degree: their joint
    content divided out and the leading denominator coefficient made
    positive."""
    if num.is_zero:
        return _POLY_ZERO, _POLY_ONE
    c = gcd(*num.coeffs, *den.coeffs)
    if den.leading < 0:
        c = -c
    if c == 1:
        return num, den
    # c divides every coefficient, so // is exact and stays in Z
    return (PolyN([x // c for x in num.coeffs]),
            PolyN([x // c for x in den.coeffs]))


def _cancel(num: PolyN, den: PolyN) -> tuple[PolyN, PolyN]:
    """num and den, both divided by their gcd of positive degree, if any."""
    g = _primitive_gcd(num, den)
    if g.degree <= 0:
        return num, den
    return num.exact_div(g), den.exact_div(g)


# -- denominators of known linear factors (the hook-content formula's) ------

def _linear_product(exponents: dict[int, int], shift: int = 0) -> list[int]:
    """The integer coefficients of prod over k of (N + shift + k)^exponents[k],
    each factor multiplied into the list in place."""
    out = [1]
    for k, e in exponents.items():
        root = shift + k
        for _ in range(e):
            out.append(0)
            for d in range(len(out) - 1, 0, -1):
                out[d] = out[d - 1] + root * out[d]
            out[0] *= root
    return out


def _over_linear_factors(num: Sequence[int], scale: int,
                         exponents: dict[int, int],
                         shift: int = 0) -> RatFuncN:
    """num / (scale * prod over k of (N + shift + k)^exponents[k]) in
    canonical form, for integer num and a nonzero integer scale, with no
    polynomial gcd: each factor is divided out of num by synthetic division
    for as long as N = -(shift + k) is a root of it, and ``_canonical``
    fixes what is left.  Equal to ``RatFuncN(num, den)``."""
    num = list(PolyN(num).coeffs)
    left = {}
    for k, e in exponents.items():
        root = -(shift + k)
        while e and num:
            # Horner's partial values: the quotient by N - root, then num(root)
            *quotient, rest = accumulate(reversed(num),
                                         lambda acc, c: acc * root + c)
            if rest:
                break
            num, e = quotient[::-1], e - 1
        left[k] = e
    den = PolyN([scale * c for c in _linear_product(left, shift)])
    return RatFuncN._coprime(PolyN(num), den)


# -- linear solving ----------------------------------------------------------
#
# Fraction-free Gaussian elimination (Bareiss, Math. Comp. 22 (1968) 565-578)
# over Z[N].  The matrix entries are integer polynomials, as the recursion
# builds them, and are used as they come; the right-hand side is scaled as
# one column by a common denominator L, so the matrix entries keep their low
# degree (clearing the right-hand side row by row would raise every minor's
# degree).  After step c every entry below the pivots is a (c+1)-minor of
# [A | L b], so each update divides exactly by the previous pivot, and the
# last pivot is the determinant of the k pivot rows.  Any nonzero pivot is
# valid; the one of least degree keeps those minors, and so the work, small.
#
# The elimination runs on plain integers (Kronecker substitution, von zur
# Gathen & Gerhard, Modern Computer Algebra, 8.4): each entry p is packed as
# p(2^bits).  p -> p(2^bits) is a ring map Z[N] -> Z, so every division that
# is exact in Z[N] is exact on the packed integers, and the products
# p*a - h*t need no bound.  Every value that is read back (zero tests, pivot
# degrees, the last pivot, the Cramer numerators) is a minor of [A | L b]
# with at most one b column.  A minor of A alone has 1-norm at most the
# product of its rows' 1-norms; one with the b column, expanded along it, at
# most the b column's 1-norm times a product of at most k row norms.  So its
# coefficients are at most bound = (product of the k largest A-row 1-norms,
# zero rows skipped) * (sum of the L b entries' 1-norms, or 1 when b is
# zero).  With bits = bound.bit_length() + 2 the map is injective on those
# values: p is read back from its balanced base-2^bits digits, and its
# degree is abs(p(2^bits)).bit_length() // bits.


def _unpack(v: int, bits: int) -> PolyN:
    """The integer polynomial p with p(2^bits) = v whose coefficients are
    the balanced base-2^bits digits of v, each in [-2^(bits-1), 2^(bits-1))."""
    half, base = 1 << (bits - 1), 1 << bits
    out = []
    while v:
        d = v & (base - 1)
        if d >= half:
            d -= base
        out.append(d)
        v = (v - d) >> bits
    return PolyN(out)


def solve_linear_system(rows: Sequence[Sequence[PolyN | int]],
                        rhs: Sequence[RatFuncN | PolyN | Scalar],
                        ) -> list[RatFuncN]:
    """Solve A x = b exactly over the field of rational functions of N.

    Each entry of A must be an int or a PolyN with int coefficients; any
    other entry (a Fraction, a RatFuncN, a float, a bool) raises TypeError
    before any work is done.  b may hold any value of Q(N).  The system may
    be overdetermined (rows >= columns); it must have full column rank and
    every redundant row must be satisfied identically, else
    RankDeficientError / InconsistentSystemError is raised.

    b is scaled into Z[N] as one column by the lcm L of its denominators,
    and [A | L b] is eliminated fraction-free on its values at N = 2^bits,
    with bits wide enough to read back every minor (see the section
    comment), so every result is exact by construction.
    """
    m = len(rows)
    if m == 0 or len(rhs) != m:
        raise ValueError("matrix and right-hand side sizes do not match")
    k = len(rows[0])
    if any(len(row) != k for row in rows):
        raise ValueError("ragged coefficient matrix")
    entries = [[a.coeffs if isinstance(a, PolyN) else (a,) for a in row]
               for row in rows]
    if any(type(c) is not int for row in entries for cs in row for c in cs):
        raise TypeError("matrix entries must be int or PolyN with int "
                        "coefficients")
    if m < k:
        raise RankDeficientError(f"{m} rows cannot determine {k} unknowns")

    # L: an lcm over Q[N] of b's denominators, kept in Z[N] by dividing each
    # denominator by a primitive gcd (Gauss's lemma); L b and L are then
    # made primitive together
    scale = _POLY_ONE
    for b in rhs:
        if isinstance(b, RatFuncN):
            scale = scale * b.den.exact_div(_primitive_gcd(scale, b.den))
    *col, scale = _primitive([
        *(b.num * scale.exact_div(b.den) if isinstance(b, RatFuncN)
          else _as_poly(b) * scale for b in rhs), scale])

    norms = sorted(sum(abs(c) for cs in row for c in cs) for row in entries)
    bound = prod(v for v in norms[-k:] if v) * (
        sum(abs(c) for b in col for c in b.coeffs) or 1)
    bits = bound.bit_length() + 2
    mat = [[sum(c << i * bits for i, c in enumerate(cs))
            for cs in (*row, b.coeffs)] for row, b in zip(entries, col)]

    prev = 1
    for c in range(k):
        piv = min((r for r in range(c, m) if mat[r][c]), default=None,
                  key=lambda r: abs(mat[r][c]).bit_length() // bits)
        if piv is None:
            raise RankDeficientError(
                f"column {c} has no nonzero pivot: rank below {k} over Q(N)")
        mat[c], mat[piv] = mat[piv], mat[c]
        top = mat[c]
        p = top[c]
        for r in range(c + 1, m):
            row = mat[r]
            h = row[c]
            if h:
                row[c + 1:] = [(p * a - h * t) // prev
                               for a, t in zip(row[c + 1:], top[c + 1:])]
            else:
                row[c + 1:] = [p * a // prev for a in row[c + 1:]]
        prev = p
    if any(mat[r][k] for r in range(k, m)):
        raise InconsistentSystemError(
            "overdetermined system is inconsistent (a redundant row is not "
            "satisfied identically)")
    # back substitution for the Cramer numerators x_j * det, all in Z[N]
    nums = [0] * k
    for r in range(k - 1, -1, -1):
        row = mat[r]
        acc = prev * row[k]
        for c in range(r + 1, k):
            acc -= row[c] * nums[c]
        nums[r] = acc // row[r]
    den = _unpack(prev, bits) * scale
    return [RatFuncN(_unpack(v, bits), den) for v in nums]
