"""Exact arithmetic kernel: polynomials and rational functions of the matrix
dimension N, plus exact linear solving over that field.

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
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __call__(self, x: Scalar) -> Scalar:
        """Evaluate at N = x (Horner)."""
        x = _scalar(x)
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return _scalar(acc)

    def shifted(self, delta: int = 1) -> PolyN:
        """The polynomial with N replaced by N + delta (Horner in N+delta)."""
        arg = PolyN([delta, 1])
        acc = PolyN()
        for c in reversed(self.coeffs):
            acc = acc * arg + PolyN([c])
        return acc

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
    (a,), (b,) = _primitive([a]), _primitive([b])
    if a.degree < b.degree:
        a, b = b, a
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
    """

    __slots__ = ("num", "den")

    def __init__(self, num: PolyN | Scalar, den: PolyN | Scalar = 1):
        num = _as_poly(num)
        den = _as_poly(den)
        if den.is_zero:
            raise ZeroDivisionError("division by zero rational function")
        if num.is_zero:
            self.num, self.den = _POLY_ZERO, _POLY_ONE
            return
        # with num, den in Z[N] of joint content 1 and g primitive, both
        # quotients stay in Z[N] with joint content 1 (Gauss's lemma)
        num, den = _primitive([num, den])
        g = _primitive_gcd(num, den)
        if g.degree > 0:
            num = num.exact_div(g)
            den = den.exact_div(g)
        if den.leading < 0:
            num, den = -num, -den
        self.num, self.den = num, den

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
        return RatFuncN(-self.num, self.den)

    def __sub__(self, other: RatFuncN | PolyN | Scalar) -> RatFuncN:
        return self + (-_as_ratfunc(other))

    def __rsub__(self, other: RatFuncN | PolyN | Scalar) -> RatFuncN:
        return _as_ratfunc(other) + (-self)

    def __mul__(self, other: RatFuncN | PolyN | Scalar) -> RatFuncN:
        if isinstance(other, RatFuncN):
            return RatFuncN(self.num * other.num, self.den * other.den)
        return RatFuncN(self.num * _as_poly(other), self.den)

    __rmul__ = __mul__

    def __truediv__(self, other: RatFuncN | PolyN | Scalar) -> RatFuncN:
        other = _as_ratfunc(other)
        if other.is_zero:
            raise ZeroDivisionError("division by zero rational function")
        return RatFuncN(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other: RatFuncN | PolyN | Scalar) -> RatFuncN:
        return _as_ratfunc(other) / self

    def __pow__(self, k: int) -> RatFuncN:
        if k < 0:
            return RatFuncN(self.den ** (-k), self.num ** (-k))
        return RatFuncN(self.num ** k, self.den ** k)

    def evaluate(self, x: Scalar) -> Fraction:
        """Exact substitution N = x; raises ZeroDivisionError at a pole."""
        d = self.den(x)
        if d == 0:
            raise ZeroDivisionError(f"pole at N = {x}")
        return Fraction(self.num(x), d)

    def shifted(self, delta: int = 1) -> RatFuncN:
        """The function with N replaced by N + delta, re-canonicalized."""
        return RatFuncN(self.num.shifted(delta), self.den.shifted(delta))

    def limit_at_infinity(self) -> Fraction:
        """Limit as N -> infinity; raises ValueError when divergent."""
        if self.is_zero:
            return Fraction(0)
        gap = self.degree_gap()
        if gap > 0:
            return Fraction(0)
        if gap == 0:
            return Fraction(self.num.leading, self.den.leading)
        raise ValueError(f"diverges at large N: ({self})")

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


# -- parsing ---------------------------------------------------------------
#
# Grammar (whitespace-insensitive):
#   expr   := term (('+'|'-') term)*
#   term   := factor (('*'|'/') factor)*
#   factor := ('+'|'-')* atom ('^' uint)?
#   atom   := uint | 'N' | '(' expr ')'
#
# This accepts everything format_poly / str(RatFuncN) emit, plus factored
# input like "8*(2*N^2 - 3)/((N^2 - 9)*N^2)".

class _Parser:
    def __init__(self, text: str):
        self.toks = self._tokenize(text)
        self.pos = 0

    @staticmethod
    def _tokenize(text: str) -> list[str]:
        toks: list[str] = []
        i = 0
        while i < len(text):
            ch = text[i]
            if ch.isspace():
                i += 1
            elif ch.isdigit():
                j = i
                while j < len(text) and text[j].isdigit():
                    j += 1
                toks.append(text[i:j])
                i = j
            elif ch in "+-*/^()N":
                toks.append(ch)
                i += 1
            else:
                raise ValueError(f"unexpected character {ch!r} in expression")
        return toks

    def _peek(self) -> str | None:
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def _next(self) -> str:
        tok = self._peek()
        if tok is None:
            raise ValueError("unexpected end of expression")
        self.pos += 1
        return tok

    def parse(self) -> RatFuncN:
        value = self._expr()
        if self._peek() is not None:
            raise ValueError(f"trailing input at token {self._peek()!r}")
        return value

    def _expr(self) -> RatFuncN:
        value = self._term()
        while self._peek() in ("+", "-"):
            if self._next() == "+":
                value = value + self._term()
            else:
                value = value - self._term()
        return value

    def _term(self) -> RatFuncN:
        value = self._factor()
        while self._peek() in ("*", "/"):
            if self._next() == "*":
                value = value * self._factor()
            else:
                value = value / self._factor()
        return value

    def _factor(self) -> RatFuncN:
        sign = 1
        while self._peek() in ("+", "-"):
            if self._next() == "-":
                sign = -sign
        value = self._atom()
        if self._peek() == "^":
            self._next()
            tok = self._next()
            if not tok.isdigit():
                raise ValueError("exponent must be a nonnegative integer")
            value = value ** int(tok)
        return sign * value

    def _atom(self) -> RatFuncN:
        tok = self._next()
        if tok.isdigit():
            return RatFuncN(int(tok))
        if tok == "N":
            return RatFuncN(N)
        if tok == "(":
            value = self._expr()
            if self._next() != ")":
                raise ValueError("missing closing parenthesis")
            return value
        raise ValueError(f"unexpected token {tok!r}")


def parse_ratfunc(text: str) -> RatFuncN:
    """Parse an expression in N (integers, + - * / ^, parentheses)."""
    return _Parser(text).parse()


# -- linear solving ----------------------------------------------------------
#
# The solver never eliminates over Q(N).  It clears every row to integer
# polynomials, solves the evaluated system exactly at integer points N = x,
# rebuilds each unknown from its point values, and accepts the candidate only
# after checking every row as a polynomial identity.  Full column rank at one
# point makes the checked solution the unique one.
#
# Degree bound.  With D the sum of the k largest cleared row degrees, Cramer's
# rule on any k rows that are independent over Q(N) writes every unknown as
# num/den with both degrees <= D, so the common denominator Q has degree <= D
# and each Q * x_j has a reduced numerator of degree <= 2D.  A nonzero k-minor
# of the matrix part has degree <= D_A <= D, so the rank drops at no more than
# D_A points unless it is deficient over Q(N).  At a full-rank point the
# solution has no pole (a pole would give a kernel vector), so an inconsistent
# full-rank point refutes the whole system.  With 3D + 1 fitted points and D
# held-out points the reconstruction below can neither miss nor be fooled by
# a function of those degrees, which caps the points at 4D + 1.

_HELD_OUT = 2   # held-out points that must confirm a candidate before the cap


def _num_den(x: RatFuncN | PolyN | Scalar) -> tuple[PolyN, PolyN]:
    if isinstance(x, RatFuncN):
        return x.num, x.den
    return _as_poly(x), _POLY_ONE


def _clear_row(entries: Sequence[tuple[PolyN, PolyN]]
               ) -> tuple[list[PolyN], PolyN]:
    """Multiply one row, given as (numerator, denominator) pairs, by the lcm
    of its denominators and a constant so every entry is an integer
    polynomial.  Returns the cleared row and the lcm."""
    scale = _POLY_ONE
    for _, den in entries:
        if den.degree > 0:
            scale = scale * den.exact_div(poly_gcd(scale, den))
    return _primitive([
        num * (scale.exact_div(den) if den.degree > 0
               else scale * Fraction(1, den.leading))
        for num, den in entries]), scale


def _solve_at(rows: list[list[PolyN]], k: int,
              x: int) -> list[Fraction] | None:
    """Solve the cleared system at N = x by fraction-free (Bareiss)
    elimination over the integers.  Returns None when the evaluated matrix
    has rank below k; raises InconsistentSystemError when it has full rank
    but some row is violated."""
    mat = []
    for row in rows:
        vals = [p(x) for p in row]
        g = gcd(*vals)
        mat.append([v // g for v in vals] if g > 1 else vals)
    m = len(mat)
    prev = 1
    for col in range(k):
        piv = next((r for r in range(col, m) if mat[r][col]), None)
        if piv is None:
            return None
        mat[col], mat[piv] = mat[piv], mat[col]
        top = mat[col]
        p = top[col]
        tail = top[col + 1:]
        for r in range(col + 1, m):
            row = mat[r]
            h = row[col]
            if h:
                row[col + 1:] = [(p * a - h * b) // prev
                                 for a, b in zip(row[col + 1:], tail)]
            else:
                row[col + 1:] = [p * a // prev for a in row[col + 1:]]
        prev = p
    if any(mat[r][k] for r in range(k, m)):
        raise InconsistentSystemError(
            f"overdetermined system is inconsistent (at N = {x}, where the "
            "matrix has full column rank)")
    # back substitution for the Cramer numerators x_j * det, all integers
    nums = [0] * k
    for r in range(k - 1, -1, -1):
        row = mat[r]
        acc = prev * row[k]
        for c in range(r + 1, k):
            acc -= row[c] * nums[c]
        nums[r] = acc // row[r]
    return [Fraction(v, prev) for v in nums]


def _newton(xs: Sequence[int], ys: Sequence[Fraction]) -> PolyN:
    """The polynomial of degree < len(xs) through the points (xs, ys)."""
    c = list(ys)
    for j in range(1, len(xs)):
        for i in range(len(xs) - 1, j - 1, -1):
            c[i] = Fraction(c[i] - c[i - 1], xs[i] - xs[i - j])
    poly = PolyN(c[-1:])                # Horner in the Newton basis
    for i in range(len(xs) - 2, -1, -1):
        poly = poly * (N - xs[i]) + c[i]
    return poly


def _reconstruct(xs: Sequence[int], ys: Sequence[Fraction],
                 held: int) -> tuple[PolyN, PolyN] | None:
    """Rational reconstruction: fit all but the last ``held`` points, then
    walk the extended Euclidean sequence r_i = t_i * interpolant mod
    prod(N - x) and return the first (r_i, t_i) whose ratio also takes every
    held-out value.  The first pair is the interpolant over 1, so a
    polynomial costs no division.  Returns None when no pair fits."""
    fit = len(xs) - held
    checks = list(zip(xs[fit:], ys[fit:]))
    r0 = prod((N - x for x in xs[:fit]), start=_POLY_ONE)
    r1 = _newton(xs[:fit], ys[:fit])
    t0, t1 = _POLY_ZERO, _POLY_ONE
    while True:
        if all((tv := t1(x)) and r1(x) == y * tv for x, y in checks):
            return r1, t1
        if r1.is_zero:
            return None
        q, rem = r0.divmod(r1)
        t0, t1 = t1, t0 - q * t1
        if not rem.is_zero:
            # monic remainders keep the rationals small; only r/t matters
            inv = Fraction(1, rem.leading)
            rem, t1 = rem * inv, t1 * inv
        r0, r1 = r1, rem


def _reconstruct_all(xs: Sequence[int], values: Sequence[list[Fraction]],
                     held: int, den: PolyN) -> tuple[list[PolyN], PolyN]:
    """Numerators P_j and one common denominator Q with x_j = P_j / Q.

    Q starts at ``den``.  Unknowns are taken in order; each is multiplied by
    the denominator found so far, so usually at most the first needs a
    rational reconstruction and the rest are polynomial fits.  Stops at the
    first unknown the points do not determine, so fewer numerators than
    unknowns come back when more points are needed."""
    den_at = [den(x) for x in xs]
    nums: list[PolyN] = []
    for j in range(len(values[0])):
        got = _reconstruct(xs, [v[j] * d for v, d in zip(values, den_at)],
                           held)
        if got is None:
            break
        r, t = got
        if t.degree > 0:
            nums = [p * t for p in nums]
            den = den * t
            den_at = [d * t(x) for d, x in zip(den_at, xs)]
        else:
            r = r * Fraction(1, t.leading)
        nums.append(r)
    return nums, den


def _satisfies(rows: list[list[PolyN]], nums: list[PolyN],
               den: PolyN) -> bool:
    """Whether x_j = nums[j]/den satisfies every row identically.

    A cleared row is the original row times a nonzero polynomial, so the
    identity sum_j a_ij x_j = b_i in Q(N) is checked, after multiplying
    through by Q = den, as sum_j a_ij * P_j - b_i * Q == 0 in Z[N]."""
    polys = _primitive([*nums, -den])
    return all(sum((a * p for a, p in zip(row, polys)), _POLY_ZERO).is_zero
               for row in rows)


def solve_linear_system(rows: Sequence[Sequence[RatFuncN | PolyN | Scalar]],
                        rhs: Sequence[RatFuncN | PolyN | Scalar],
                        ) -> list[RatFuncN]:
    """Solve A x = b exactly over the field of rational functions of N.

    The system may be overdetermined (rows >= columns); it must have full
    column rank and every redundant row must be satisfied identically, else
    RankDeficientError / InconsistentSystemError is raised.

    Each row is cleared to integer polynomials.  The evaluated system is
    solved exactly at N = 1, 2, 3, ..., skipping points where an entry has a
    pole or the rank drops; every unknown is rebuilt from its point values
    by rational reconstruction, with points added until held-out points
    confirm the candidate.  The result is returned only once every row holds
    as an identity of rational functions, and the matrix has full rank at
    the sampled points, so the solution is unique.  A degree bound from the
    cleared rows caps the number of points (see the section comment).
    """
    m = len(rows)
    if m == 0 or len(rhs) != m:
        raise ValueError("matrix and right-hand side sizes do not match")
    k = len(rows[0])
    if any(len(row) != k for row in rows):
        raise ValueError("ragged coefficient matrix")
    if m < k:
        raise RankDeficientError(f"{m} rows cannot determine {k} unknowns")

    cleared = []
    poles = set()
    for row, rb in zip(rows, rhs):
        polys, scale = _clear_row([_num_den(x) for x in (*row, rb)])
        cleared.append(polys)
        if scale.degree > 0:
            poles.add(scale)
    # The entries' own denominators are the first guess for the solution's;
    # it shrinks what is left to reconstruct.  The final attempt drops it.
    hint = _POLY_ONE
    for p in poles:
        hint = hint * p.exact_div(poly_gcd(hint, p))

    def top_k_sum(degrees):
        return sum(sorted((max(d, 0) for d in degrees), reverse=True)[:k])

    bound_a = top_k_sum(max(p.degree for p in row[:k]) for row in cleared)
    bound = top_k_sum(max(p.degree for p in row) for row in cleared)
    cap = 4 * bound + 1

    xs: list[int] = []
    values: list[list[Fraction]] = []
    deficient = 0
    x = 0
    want = min(_HELD_OUT + 2, cap)
    while True:
        while len(xs) < want:
            x += 1
            if any(p(x) == 0 for p in poles):
                continue
            sol = _solve_at(cleared, k, x)
            if sol is None:
                deficient += 1
                if deficient > bound_a:
                    raise RankDeficientError(
                        f"rank below {k} at {deficient} points; a nonzero "
                        f"{k}-minor has degree at most {bound_a}")
                continue
            xs.append(x)
            values.append(sol)
        final = want >= cap
        nums, den = (_reconstruct_all(xs, values, bound, _POLY_ONE) if final
                     else _reconstruct_all(xs, values, _HELD_OUT, hint))
        if len(nums) == k:
            if _satisfies(cleared, nums, den):
                return [RatFuncN(p, den) for p in nums]
        else:
            hint = den      # keep the denominator found while points last
        if final:
            raise InconsistentSystemError(
                "overdetermined system is inconsistent (no rational solution "
                f"within the degree bound {bound} satisfies every row)")
        want = min(cap, want + max(2, want // 3))
