"""Large-dimension limits of the generating integrals as formal series in the
scaled coupling, with trace powers kept as commuting symbols.

The determinant-sector free energy is produced three independent ways: the
closed product formula over partitions, the fixed-point equation iterated
in integers so that pass g computes only grade g, from per-grade slices of
the powers of 1 + w (the route Lagrange inversion justifies), and the
exact finite-N tables expanded as power series in 1/N, whose log yields
each limit as one series coefficient.  The strong-coupling series of the
balanced sector comes from its own closed coefficient formula.  Agreement
of the routes is the point, so none of them shares code with another
beyond the key codec: each computes in its own arithmetic and returns a
read-only ``TraceSeries``.  The fixed point and the finite-N route key
their dicts by packed ints (``_pack``), so a product of trace monomials is
a sum of keys, and the finite-N route takes g! times its log, in ints.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

from .exactmath import RatFuncN
from .partitions import Partition, catalan, enumerate_partitions
from .su_shifted import shifted_table


@dataclass(frozen=True)
class TraceSeries:
    """Truncated formal series: terms[(grade, alpha)] is the coefficient of
    coupling^grade times the trace monomial for alpha.

    A read-only result: each route builds its terms in its own arithmetic
    and hands them over once; readers slice, truncate, sort and compare.
    Coefficients are exact: ints in the fixed point's w series, Fractions
    in the free energies.  Zero coefficients are dropped.
    """

    max_order: int
    terms: dict[tuple[int, Partition], int | Fraction]

    def __post_init__(self):
        cleaned = {key: c for key, c in self.terms.items() if c}
        object.__setattr__(self, "terms", cleaned)

    def grade_slice(self, g: int) -> dict[Partition, object]:
        return {a: c for (gg, a), c in self.terms.items() if gg == g}

    def truncated(self, order: int) -> TraceSeries:
        return TraceSeries(order,
                           {(g, a): c for (g, a), c in self.terms.items()
                            if g <= order})

    def sorted_terms(self) -> list[tuple[int, Partition, object]]:
        """(grade, partition, coefficient) by grade, then enumeration order."""
        return [(g, a, self.terms[(g, a)])
                for g, a in sorted(self.terms, key=lambda k: (k[0], k[1].parts))]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, TraceSeries):
            return self.terms == other.terms
        return NotImplemented


def shifted_free_energy_closed(order: int) -> TraceSeries:
    """Determinant-sector limit free energy from the closed formula: the
    grade-n coefficient of the monomial for alpha (with c parts) is
    (-1)^(n-c) (n-1)!/(n-c+1)! times the product over parts q of
    Cat(q-1)^(mult) / mult!.  Each term is one int numerator over one int
    denominator, reduced once."""
    if order < 1:
        raise ValueError("order must be positive")
    terms: dict[tuple[int, Partition], Fraction] = {}
    for n in range(1, order + 1):
        for alpha in enumerate_partitions(n):
            c = alpha.num_parts
            num = (-1) ** (n - c) * factorial(n - 1)
            den = factorial(n - c + 1)
            for q, m in alpha.items():
                num *= catalan(q - 1) ** m
                den *= factorial(m)
            terms[(n, alpha)] = Fraction(num, den)
    return TraceSeries(order, terms)


def _pack(alpha: Partition, width: int) -> int:
    """alpha as one int, the multiplicity of part q in bit field q - 1 of
    the given width; no field carries while weights stay below 2^width."""
    return sum(m << width * (q - 1) for q, m in alpha.items())


def _unpack(key: int, width: int) -> Partition:
    return Partition((key >> s) & ((1 << width) - 1)
                     for s in range(0, key.bit_length(), width))


def _grade_product(lower: list[dict], w: list[dict], g: int) -> dict:
    """Grade g of the product of two series of packed-key grade slices."""
    grade: dict[int, int] = {}
    for j in range(g + 1):
        right = w[j].items()
        for a1, c1 in lower[g - j].items():
            for a2, c2 in right:
                key = a1 + a2
                grade[key] = grade.get(key, 0) + c1 * c2
    return grade


def fixedpoint_w_series(order: int) -> TraceSeries:
    """The auxiliary series w = y/coupling - 1, where y solves
    y = coupling * sum_m f_m y^m with f_0 = 1 and f_m = (-1)^(m-1) Cat(m-1)
    times the trace symbol of power m (grades 1..order).

    In u = 1 + w the equation reads w = sum_{m>=1} f_m coupling^m u^m.
    Every f_m coupling^m has grade >= 1, so grade g of w needs only grades
    below g of each u^m: pass g sets w_g = sum_{m=1..g} f_m times grade g-m
    of u^m, then extends each power u^m with m <= order - g by its grade-g
    slice, sum_{j=0..g} (grade g-j of u^(m-1)) w_j with w_0 = 1, in
    ascending m, so that grade g of u^(m-1) is ready.  Grades are dicts
    from packed partition to coefficient; each f_m is an int, and so is
    every coefficient of w."""
    if order < 1:
        raise ValueError("order must be positive")
    width = order.bit_length()
    one = {0: 1}
    w = [one]
    # powers[m][k]: grade k of u^m; u^0 = 1 has no grade above 0
    powers = [[one] + [{}] * order] + [[one] for _ in range(order)]
    for g in range(1, order + 1):
        w_g: dict[int, int] = {}
        for m in range(1, g + 1):
            f_m = (-1) ** (m - 1) * catalan(m - 1)
            trace = 1 << width * (m - 1)
            for a, c in powers[m][g - m].items():
                w_g[a + trace] = w_g.get(a + trace, 0) + f_m * c
        w.append(w_g)
        for m in range(1, order - g + 1):
            powers[m].append(_grade_product(powers[m - 1], w, g))
    return TraceSeries(order, {(g, _unpack(a, width)): c for g in
                               range(1, order + 1) for a, c in w[g].items()})


def shifted_free_energy_fixedpoint(order: int) -> TraceSeries:
    """Determinant-sector limit free energy from the fixed-point route:
    integrate the w series term by term (grade n picks up 1/n)."""
    w = fixedpoint_w_series(order)
    return TraceSeries(order, {(g, a): Fraction(c, g)
                               for (g, a), c in w.terms.items()})


def _series_in_inverse_n(value: RatFuncN,
                         length: int) -> dict[int, int | Fraction] | None:
    """The nonzero coefficients of x^0 .. x^(length-1), keyed by the power
    in ascending order, in the expansion of value as a power series in
    x = 1/N; None when value grows with N.

    With numerator and denominator of degrees p <= q, value is x^(q-p)
    times the quotient of the reversed coefficient lists, and the reversed
    denominator starts with the leading coefficient, so long division
    yields the quotient one term at a time, an int while the leading
    coefficient divides it (always, for a monic denominator)."""
    num, den = value.num.coeffs[::-1], value.den.coeffs[::-1]
    shift = len(den) - len(num)
    if shift < 0:
        return None
    quo: list[int | Fraction] = []
    for k in range(length - shift):
        c = num[k] if k < len(num) else 0
        for i in range(1, min(k, len(den) - 1) + 1):
            c -= den[i] * quo[k - i]
        quo.append(c // den[0] if type(c) is int and c % den[0] == 0
                   else Fraction(c, den[0]))
    return {shift + k: c for k, c in enumerate(quo) if c}


def shifted_free_energy_from_tables(order: int) -> TraceSeries:
    """Determinant-sector limit free energy from exact finite-N tables.

    G = 1 + sum_n coupling^n/n! T_n, T_n the weight-n table with every
    entry expanded once as a power series in x = 1/N through x^(order-1).
    The log L = log G follows from G L' = G': in ints, Lam_g = g! L_g =
    T_g - sum_{0<j<g} C(g-1, j-1) Lam_j T_{g-j}.  Rescaling the coupling by
    N and dividing by N multiplies grade g by N^(g-1), so the limit of a
    grade-g coefficient is the x^(g-1) term of Lam_g over g!, and every
    term below it must vanish.  A divergent coefficient, or a table entry
    that grows with N, would refute the whole scaling picture, so it
    raises rather than being clipped.  Series are dicts of their nonzero
    terms, since entries decay like powers of x and most are zero.
    """
    if order < 1:
        raise ValueError("order must be positive")
    width = order.bit_length()
    # table[g] and log[g]: T_g and Lam_g, packed alpha -> series in x
    table: list[dict[int, dict]] = [{}]
    log: list[dict[int, dict]] = [{}]
    terms: dict[tuple[int, Partition], Fraction] = {}
    for g in range(1, order + 1):
        table.append({})
        for a, v in shifted_table(g).entries.items():
            series = _series_in_inverse_n(v, order)
            if series is None:
                raise ValueError(f"table entry at grade {g}, partition [{a}] "
                                 f"grows as N grows: {v}")
            table[g][_pack(a, width)] = series
        acc = {a: dict(s) for a, s in table[g].items()}
        for j in range(1, g):
            weight = comb(g - 1, j - 1)
            for a1, s1 in log[j].items():
                s1 = {k: c * weight for k, c in s1.items()}
                for a2, s2 in table[g - j].items():
                    out = acc.setdefault(a1 + a2, {})
                    for k1, c1 in s1.items():
                        for k2, c2 in s2.items():   # ascending in k2
                            if k1 + k2 >= order:
                                break
                            out[k1 + k2] = out.get(k1 + k2, 0) - c1 * c2
        log.append({a: {k: c for k, c in s.items() if c}
                    for a, s in acc.items()})
        for a, s in log[g].items():
            alpha, low = _unpack(a, width), [k for k in s if k < g - 1]
            if low:
                k = min(low)
                raise ValueError(
                    f"coefficient at grade {g}, partition [{alpha}] diverges "
                    f"as N grows: its N^{g - 1 - k} term is "
                    f"{Fraction(s[k], factorial(g))}")
            terms[(g, alpha)] = Fraction(s.get(g - 1, 0), factorial(g))
    return TraceSeries(order, terms)


def strong_coupling_coeff(alpha: Partition) -> Fraction:
    """Strong-coupling series coefficient of the balanced-sector free energy
    for one trace monomial: with n the weight and c the part count,
    (-1)^n (2n-3+c)!/(2n)! times the product over parts q of
    (-binom(2q, q))^(mult) / mult!, reduced once from one int numerator
    over one int denominator."""
    n = alpha.weight
    if n < 1:
        raise ValueError("partition must be nonempty")
    c = alpha.num_parts
    num = (-1) ** n * factorial(2 * n - 3 + c)
    den = factorial(2 * n)
    for q, m in alpha.items():
        num *= (-comb(2 * q, q)) ** m
        den *= factorial(m)
    return Fraction(num, den)


def strong_coupling_series(order: int) -> TraceSeries:
    """Balanced-sector strong-coupling free energy through the given grade;
    grade n stands for coupling^(2n)."""
    if order < 1:
        raise ValueError("order must be positive")
    terms = {(n, alpha): strong_coupling_coeff(alpha)
             for n in range(1, order + 1)
             for alpha in enumerate_partitions(n)}
    return TraceSeries(order, terms)
