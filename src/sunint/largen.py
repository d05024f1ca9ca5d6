"""Large-dimension limits of the generating integrals as formal series in the
scaled coupling, with trace powers kept as commuting symbols.

The determinant-sector free energy is produced three independent ways: the
closed product formula over partitions, the fixed-point equation iterated
so that pass g fixes grade g (the route Lagrange inversion justifies), and
the exact finite-N tables followed by a term-by-term limit.  The
strong-coupling series of the balanced sector comes from its own closed
coefficient formula.  Agreement of the routes is the point, so none of them
shares code with another.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, factorial

from .exactmath import N, RatFuncN
from .partitions import Partition, catalan, enumerate_partitions
from .su_shifted import shifted_table

EMPTY = Partition()


@dataclass(frozen=True)
class TraceSeries:
    """Truncated formal series: terms[(grade, alpha)] is the coefficient of
    coupling^grade times the trace monomial for alpha.

    Coefficients are exact rationals in the limit series and rational
    functions of N in the finite-N intermediate; the algebra only needs
    +, *, and truth-testing, so both work.
    """

    max_order: int
    terms: dict[tuple[int, Partition], object] = field(default_factory=dict)

    def __post_init__(self):
        cleaned = {key: c for key, c in self.terms.items() if c}
        object.__setattr__(self, "terms", cleaned)

    # -- algebra (all truncating at max_order) -------------------------------

    def __add__(self, other: TraceSeries | int | Fraction) -> TraceSeries:
        if isinstance(other, (int, Fraction)):
            other = TraceSeries(self.max_order, {(0, EMPTY): other})
        out = dict(self.terms)
        for key, c in other.terms.items():
            out[key] = out.get(key, 0) + c
        return TraceSeries(self.max_order, out)

    def __sub__(self, other: TraceSeries | int | Fraction) -> TraceSeries:
        return self + (other * -1 if isinstance(other, TraceSeries)
                       else -other)

    def __mul__(self, other) -> TraceSeries:
        if isinstance(other, TraceSeries):
            out: dict = {}
            for (g1, a1), c1 in self.terms.items():
                for (g2, a2), c2 in other.terms.items():
                    g = g1 + g2
                    if g > self.max_order:
                        continue
                    key = (g, a1.merge(a2))
                    out[key] = out.get(key, 0) + c1 * c2
            return TraceSeries(self.max_order, out)
        return TraceSeries(self.max_order,
                           {key: c * other for key, c in self.terms.items()})

    __rmul__ = __mul__

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
    Cat(q-1)^(mult) / mult!."""
    if order < 1:
        raise ValueError("order must be positive")
    terms: dict[tuple[int, Partition], Fraction] = {}
    for n in range(1, order + 1):
        for alpha in enumerate_partitions(n):
            c = alpha.num_parts
            value = Fraction((-1) ** (n - c) * factorial(n - 1),
                             factorial(n - c + 1))
            for q, m in alpha.items():
                value *= Fraction(catalan(q - 1) ** m, factorial(m))
            terms[(n, alpha)] = value
    return TraceSeries(order, terms)


def fixedpoint_w_series(order: int) -> TraceSeries:
    """The auxiliary series w = y/coupling - 1, where y solves
    y = coupling * sum_m f_m y^m with f_0 = 1 and f_m = (-1)^(m-1) Cat(m-1)
    times the trace symbol of power m (grades 1..order).

    In u = 1 + w the equation reads w = sum_{m>=1} f_m coupling^m u^m.
    Iterating from w = 0, pass g evaluates that sum by Horner in u,
    truncated at grade g.  Every f_m coupling^m has grade >= 1, so grade g
    of w is final after pass g."""
    if order < 1:
        raise ValueError("order must be positive")
    w = TraceSeries(0, {})
    for g in range(1, order + 1):
        u = TraceSeries(g, w.terms) + 1
        acc = TraceSeries(g, {})
        for m in range(g, 0, -1):
            f_m = Fraction((-1) ** (m - 1) * catalan(m - 1))
            acc = (acc + TraceSeries(g, {(m, EMPTY.add_part(m)): f_m})) * u
        w = acc
    return w


def shifted_free_energy_fixedpoint(order: int) -> TraceSeries:
    """Determinant-sector limit free energy from the fixed-point route:
    integrate the w series term by term (grade n picks up 1/n)."""
    w = fixedpoint_w_series(order)
    return TraceSeries(order, {(g, a): c * Fraction(1, g)
                               for (g, a), c in w.terms.items()})


def shifted_free_energy_from_tables(order: int) -> TraceSeries:
    """Determinant-sector limit free energy from exact finite-N tables.

    Assemble sum_n coupling^n/n! times the weight-n table, take the formal
    log with rational-function coefficients, rescale the coupling by N and
    divide by N (so the grade-n coefficient gains N^(n-1)), then take the
    exact limit of every coefficient.  A divergent coefficient would refute
    the whole scaling picture, so it raises rather than being clipped.
    """
    if order < 1:
        raise ValueError("order must be positive")
    gen = TraceSeries(order, {(0, EMPTY): RatFuncN(1)})
    for n in range(1, order + 1):
        scale = Fraction(1, factorial(n))
        table = shifted_table(n)
        gen = gen + TraceSeries(order, {(n, a): v * scale
                                        for a, v in table.entries.items()})
    # log(1 + x) with x the positive-grade part
    x = TraceSeries(order, {(g, a): c for (g, a), c in gen.terms.items()
                            if g > 0})
    log_series = TraceSeries(order, {})
    power = TraceSeries(order, {(0, EMPTY): RatFuncN(1)})
    for k in range(1, order + 1):
        power = power * x
        log_series = log_series + power * Fraction((-1) ** (k + 1), k)
    terms: dict[tuple[int, Partition], Fraction] = {}
    for (g, a), coeff in log_series.terms.items():
        rescaled = coeff * N ** (g - 1)
        try:
            terms[(g, a)] = rescaled.limit_at_infinity()
        except ValueError as exc:
            raise ValueError(
                f"coefficient at grade {g}, partition [{a}] diverges "
                f"as N grows: {coeff}") from exc
    return TraceSeries(order, terms)


def strong_coupling_coeff(alpha: Partition) -> Fraction:
    """Strong-coupling series coefficient of the balanced-sector free energy
    for one trace monomial: with n the weight and c the part count,
    (-1)^n (2n-3+c)!/(2n)! times the product over parts q of
    (-binom(2q, q))^(mult) / mult!."""
    n = alpha.weight
    if n < 1:
        raise ValueError("partition must be nonempty")
    c = alpha.num_parts
    value = Fraction((-1) ** n * factorial(2 * n - 3 + c), factorial(2 * n))
    for q, m in alpha.items():
        value *= Fraction((-comb(2 * q, q)) ** m, factorial(m))
    return value


def strong_coupling_series(order: int) -> TraceSeries:
    """Balanced-sector strong-coupling free energy through the given grade;
    grade n stands for coupling^(2n)."""
    if order < 1:
        raise ValueError("order must be positive")
    terms = {(n, alpha): strong_coupling_coeff(alpha)
             for n in range(1, order + 1)
             for alpha in enumerate_partitions(n)}
    return TraceSeries(order, terms)
