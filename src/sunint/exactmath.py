"""Exact arithmetic kernel: polynomials and rational functions of the matrix
dimension N, a reader for expressions in N (Python's ``ast`` parser with a
node whitelist), and exact linear solving over that field by fraction-free
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

import ast
import operator
import re
from fractions import Fraction
from math import gcd, lcm
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
            k >>= 1
            if k:
                base = base * base
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

    The constructor reduces by a full gcd.  Arithmetic on values already in
    canonical form reduces only by the factors that can be shared (Henrici,
    Knuth TAOCP vol. 2, 4.5.1): a sum a/b + c/d over g = gcd(b, d) can only
    cancel gcd(numerator, g), and a product only gcd(a, d) and gcd(c, b).
    Every path ends in ``_canonical``, which fixes content and sign, so the
    representation is the same whichever way a value was computed.
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
        a, b, c, d = self.num, self.den, other.num, other.den
        g = _primitive_gcd(b, d)
        if g.degree <= 0:
            return RatFuncN._coprime(a * d + c * b, b * d)
        b, d = b.exact_div(g), d.exact_div(g)
        num = a * d + c * b
        den = self.den * d
        # a factor of b/g or d/g cannot divide num, so only g's can cancel
        h = _primitive_gcd(num, g)
        if h.degree > 0:
            num, den = num.exact_div(h), den.exact_div(h)
        return RatFuncN._coprime(num, den)

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


# -- parsing ---------------------------------------------------------------

# the grammar's characters, every '^' followed by digits: ast drops the
# parentheses of N^(2), which the grammar refuses
_ALPHABET = re.compile(r"(?:[0-9N+\-*/()\s]|\^\s*[0-9])*")
_LEADING_ZEROS = re.compile(r"\b0+(?=[0-9])")
_UNARY = {ast.UAdd: lambda value: value, ast.USub: operator.neg}
_BINARY = {ast.Add: operator.add, ast.Sub: operator.sub,
           ast.Mult: operator.mul, ast.Div: operator.truediv}

#: Largest exponent times the exponents around it, and largest degree before
#: cancelling of any numerator or denominator, that ``parse_ratfunc``
#: computes.  Printed tables use at most N^35 (weight 12).  On a 2-vCPU box
#: (N+1)^256 takes 4 ms, a 40-character base to the 256th about 1 s,
#: (N+1)^2000 1.4 s and a sum of fractions of degree 256 and 128 14 s.
MAX_EXPONENT = 256
# Largest coefficient size, in bits of the sum of the absolute coefficients
# of a numerator or denominator, times the exponents around it, that
# parse_ratfunc computes.  The degree bound alone admits sums of degree-128
# fractions whose time grows with their literals, in the gcds: 2.0 s on a
# 2-vCPU box with 20-digit literals, 5.8 s with 40.  Under this bound the
# slowest such sum of linear factors tried takes 0.3 s; the printed tables
# need under 100 bits.
_MAX_COEFF_BITS = 1024


def parse_ratfunc(text: str) -> RatFuncN:
    """Parse an expression in N.

    Grammar (whitespace-insensitive): integers, the symbol N, parentheses,
    unary and binary + and -, * and /, and ``^`` with a nonnegative integer
    literal as exponent; ``^`` binds tighter than unary minus and does not
    chain.  With ``^`` spelled ``**`` this is Python's expression grammar
    with Python's precedence, so ``ast.parse`` reads the text and a
    whitelist evaluates the tree: int constants, the name N, unary + and -,
    binary + - * /, and ``**`` with an int literal exponent.  Nothing is
    compiled or executed.  Any other character or node, malformed text and
    input nested beyond Python's recursion limit raise ValueError, and so
    does an exponent or an intermediate degree above ``MAX_EXPONENT`` (see
    there) or an intermediate coefficient size above a like bound; a zero
    divisor raises ZeroDivisionError.
    This accepts everything ``str(RatFuncN)`` emits, plus factored input
    like ``8*(2*N^2 - 3)/((N^2 - 9)*N^2)``.
    """
    if not _ALPHABET.fullmatch(text) or "**" in text:
        raise ValueError("unexpected character or exponent in expression")
    # one line of Python with no leading zeros, which its tokenizer refuses
    source = _LEADING_ZEROS.sub("", " ".join(text.split()))
    try:
        tree = ast.parse(source.replace("^", "**"), mode="eval")
        return _evaluate(tree.body)
    except SyntaxError as exc:
        raise ValueError(f"malformed expression: {exc.msg}") from None
    except RecursionError:
        raise ValueError("expression nested too deeply") from None


def _evaluate(node: ast.expr, power: int = 1) -> RatFuncN:
    """The value of node, which sits inside powers whose exponents multiply
    to power (zero exponents count as one)."""
    op = type(getattr(node, "op", None))
    if isinstance(node, ast.Constant) and type(node.value) is int:
        _check_bits(node.value.bit_length(), power)
        return RatFuncN(node.value)
    if isinstance(node, ast.Name) and node.id == "N":
        return RatFuncN(N)
    if isinstance(node, ast.UnaryOp) and op in _UNARY:
        return _UNARY[op](_evaluate(node.operand, power))
    if isinstance(node, ast.BinOp) and op in _BINARY:
        a, b = _evaluate(node.left, power), _evaluate(node.right, power)
        (an, ad), (bn, bd) = ((v.num.degree, v.den.degree) for v in (a, b))
        if op is ast.Div:
            bn, bd = bd, bn
        # a op b's degree before cancelling, times the powers around it
        if power * max(an + bn if op in (ast.Mult, ast.Div)
                       else max(an + bd, bn + ad), ad + bd) > MAX_EXPONENT:
            raise ValueError(f"degree above {MAX_EXPONENT} in expression")
        # likewise its coefficient bits: they add under * and /, and + and -
        # cross-multiply and add one carry bit
        _check_bits(_bits(a) + _bits(b) + (op in (ast.Add, ast.Sub)), power)
        return _BINARY[op](a, b)
    if (isinstance(node, ast.BinOp) and op is ast.Pow
            and isinstance(node.right, ast.Constant)
            and type(node.right.value) is int):
        power *= max(node.right.value, 1)
        if power > MAX_EXPONENT:
            raise ValueError(f"exponent above {MAX_EXPONENT} in expression")
        return _evaluate(node.left, power) ** node.right.value
    raise ValueError(f"unsupported {type(node).__name__} in expression")


def _bits(value: RatFuncN) -> int:
    """Bits of the sum of the absolute coefficients of value's numerator or
    denominator, whichever is larger; the sum bounds each coefficient and is
    submultiplicative."""
    return max(sum(map(abs, p.coeffs)).bit_length()
               for p in (value.num, value.den))


def _check_bits(bits: int, power: int) -> None:
    if power * bits > _MAX_COEFF_BITS:
        raise ValueError(
            f"coefficients above {_MAX_COEFF_BITS} bits in expression")


# -- linear solving ----------------------------------------------------------
#
# Fraction-free Gaussian elimination (Bareiss, Math. Comp. 22 (1968) 565-578)
# over Z[N].  Each row is cleared to Z[N] by the lcm of its own coefficients'
# denominators; the right-hand side is then scaled as one column by a common
# denominator L, so the matrix entries keep the low degree of the cleared rows
# (clearing the right-hand side row by row would raise every minor's degree).
# After step c every entry below the pivots is a (c+1)-minor of the cleared
# system, so each update divides exactly by the previous pivot, and the last
# pivot is the determinant of the k pivot rows.  Any nonzero pivot is valid;
# the one of least degree keeps those minors, and so the work, small.


def _lcm_den(values: Sequence[RatFuncN | PolyN | Scalar]) -> PolyN:
    """An lcm over Q[N] of the denominators of the rational functions among
    values (1 when there are none)."""
    out = _POLY_ONE
    for v in values:
        if isinstance(v, RatFuncN) and v.den.degree > 0:
            out = out * v.den.exact_div(poly_gcd(out, v.den))
    return out


def _as_polys(values: Sequence[RatFuncN | PolyN | Scalar],
              scale: PolyN) -> list[PolyN]:
    """scale * v for every v, as polynomials over Q; scale must be a multiple
    of every denominator among values."""
    return [v.num * scale.exact_div(v.den) if isinstance(v, RatFuncN)
            else _as_poly(v) * scale for v in values]


def solve_linear_system(rows: Sequence[Sequence[RatFuncN | PolyN | Scalar]],
                        rhs: Sequence[RatFuncN | PolyN | Scalar],
                        ) -> list[RatFuncN]:
    """Solve A x = b exactly over the field of rational functions of N.

    The system may be overdetermined (rows >= columns); it must have full
    column rank and every redundant row must be satisfied identically, else
    RankDeficientError / InconsistentSystemError is raised.

    The rows are cleared to Z[N] and eliminated fraction-free (see the
    section comment), so every result is exact by construction.  A column
    with no nonzero pivot means rank below k over Q(N); a nonzero right-hand
    side left in a redundant row means the system is inconsistent.
    """
    m = len(rows)
    if m == 0 or len(rhs) != m:
        raise ValueError("matrix and right-hand side sizes do not match")
    k = len(rows[0])
    if any(len(row) != k for row in rows):
        raise ValueError("ragged coefficient matrix")
    if m < k:
        raise RankDeficientError(f"{m} rows cannot determine {k} unknowns")

    mat = []
    col = []
    for row, b in zip(rows, rhs):
        # s is made integral with the row, so b * s stays on the row's scale
        s = _lcm_den(row)
        *cleared, s = _primitive([*_as_polys(row, s), s])
        mat.append(cleared)
        col.append(b * s)
    scale = _lcm_den(col)
    *col, scale = _primitive([*_as_polys(col, scale), scale])
    for row, b in zip(mat, col):
        row.append(b)

    prev = _POLY_ONE
    for c in range(k):
        piv = min((r for r in range(c, m) if mat[r][c]), default=None,
                  key=lambda r: mat[r][c].degree)
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
                row[c + 1:] = [(p * a - h * t).exact_div(prev)
                               for a, t in zip(row[c + 1:], top[c + 1:])]
            else:
                row[c + 1:] = [(p * a).exact_div(prev) for a in row[c + 1:]]
        prev = p
    if any(mat[r][k] for r in range(k, m)):
        raise InconsistentSystemError(
            "overdetermined system is inconsistent (a redundant row is not "
            "satisfied identically)")
    # back substitution for the Cramer numerators x_j * det, all in Z[N]
    nums = [_POLY_ZERO] * k
    for r in range(k - 1, -1, -1):
        row = mat[r]
        acc = prev * row[k]
        for c in range(r + 1, k):
            acc = acc - row[c] * nums[c]
        nums[r] = acc.exact_div(row[r])
    return [RatFuncN(p, prev * scale) for p in nums]
