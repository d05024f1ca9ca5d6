"""Command line front end.

Subcommands:
  coeffs   print a coefficient table for one weight
  largen   print a large-N series for the shifted free energy
  mc       Monte Carlo estimate of a trace-moment integral, with the
           exact sector value when one is available
  tensor   exact value of a single tensor-level integral
  verify   run consistency suites and exit nonzero on failure

Results go to stdout, or to the ``--output`` file, as JSON (or latex/csv
where supported); progress and diagnostics go to stderr.  Exit codes: 0
success, 1 a verification comparison failed, 2 refused input.

Each ``_cmd_*`` handler returns its text and its 0/1 status, and refuses
input by raising ValueError; ``main`` alone writes the text, and turns a
ValueError or OSError into one ``error:`` line on stderr and exit 2, with
nothing on stdout.

Each handler, and each verify suite, imports the modules it runs, so a
command loads only those: ``largen`` alone loads ``largen``, ``verify
--suite tables|all`` alone loads ``reference``, and the numeric layer
(``haar_mc``, and with it numpy) is loaded only by the commands that
sample: ``mc``, ``tensor --mc-samples`` and ``verify --suite mc|all``.
"""
from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
from fractions import Fraction
from typing import TYPE_CHECKING

# weingarten, and the two modules it imports, are loaded by every command
# (the parser's help quotes MAX_WEIGHT); the rest is imported where it runs
from .exactmath import format_poly
from .partitions import Partition
from .weingarten import (
    MAX_WEIGHT,
    monomial_integral,
    weingarten_table_character,
    weingarten_table_recursive,
)

if TYPE_CHECKING:
    from .exactmath import RatFuncN
    from .haar_mc import GroupSpec, SourceMatrices
    from .largen import TraceSeries
    from .weingarten import CoeffTable

WEINGARTEN = "weingarten"
SU_SHIFTED = "su-shifted"
# the CLI's group names; haar_mc spells its own, and _group_spec maps them
_UNITARY = "unitary"
_SPECIAL_UNITARY = "special-unitary"

_DEFAULT_METHOD = {WEINGARTEN: "character", SU_SHIFTED: "shift"}


def _table_builders() -> dict:
    """The table builder per (family, method)."""
    from .su_shifted import shifted_table, shifted_table_recursive
    return {
        (WEINGARTEN, "character"): weingarten_table_character,
        (WEINGARTEN, "recursion"): weingarten_table_recursive,
        (SU_SHIFTED, "shift"): shifted_table,
        (SU_SHIFTED, "recursion"): shifted_table_recursive,
    }


def _json_text(payload: dict) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _frac_latex(x: Fraction) -> str:
    if x.denominator == 1:
        return str(x.numerator)
    sign = "-" if x < 0 else ""
    return sign + r"\frac{%d}{%d}" % (abs(x.numerator), x.denominator)


def _ratfunc_latex(val: RatFuncN) -> str:
    num = format_poly(val.num)
    if val.den == 1:
        return num
    return r"\frac{%s}{%s}" % (num, format_poly(val.den))


def _partition_label(alpha: Partition) -> str:
    return "[%s]" % alpha.to_string() if alpha.weight else "[]"


# ---------------------------------------------------------------- coeffs

def _render_table(table: CoeffTable, fmt: str) -> str:
    if fmt == "json":
        return _json_text(table.as_json_dict())
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["partition", "value"])
        for alpha, value in table.entries.items():
            writer.writerow([alpha.to_string(), str(value)])
        return buf.getvalue()
    lines = [r"\begin{array}{ll}"]
    for alpha, value in table.entries.items():
        lines.append(r"%s & %s \\" % (_partition_label(alpha),
                                      _ratfunc_latex(value)))
    lines.append(r"\end{array}")
    return "\n".join(lines) + "\n"


def _cmd_coeffs(args: argparse.Namespace) -> tuple[str, int]:
    method = args.method or _DEFAULT_METHOD[args.family]
    builder = _table_builders().get((args.family, method))
    if builder is None:
        raise ValueError("method %r does not apply to family %r"
                         % (method, args.family))
    if not 1 <= args.n <= MAX_WEIGHT:
        raise ValueError("--n must be in 1..%d" % MAX_WEIGHT)
    return _render_table(builder(args.n), args.format), 0


# ---------------------------------------------------------------- largen

# Per target: the power of the coupling that one grade stands for, and the
# trace symbol
_SERIES_SYMBOLS = {"wd": (1, "t"), "ww": (2, "tau")}


def _series_payload(series: TraceSeries, target: str, method: str) -> dict:
    kappa_per_grade, symbol = _SERIES_SYMBOLS[target]
    terms = []
    for grade, alpha, coeff in series.sorted_terms():
        terms.append({
            "grade": grade,
            "kappa_power": grade * kappa_per_grade,
            "partition": alpha.to_string(),
            "coefficient": str(coeff),
        })
    return {"target": target, "order": series.max_order,
        "method": method, "trace_symbol": symbol,
        "terms": terms}


def _series_latex(series: TraceSeries, target: str) -> str:
    kappa_per_grade, sym = _SERIES_SYMBOLS[target]
    sym = {"tau": r"\tau"}.get(sym, sym)
    lines = []
    for grade, alpha, coeff in series.sorted_terms():
        mono = " ".join(
            "%s_%d" % (sym, q) if m == 1 else "%s_%d^{%d}" % (sym, q, m)
            for q, m in alpha.items()) or "1"
        lines.append(r"\tilde\kappa^{%d} \cdot %s \, %s"
                     % (grade * kappa_per_grade, _frac_latex(coeff), mono))
    return "\n".join(lines) + "\n"


def _series_routes() -> dict:
    """The series builder per (target, method)."""
    from .largen import (shifted_free_energy_closed,
                         shifted_free_energy_fixedpoint,
                         shifted_free_energy_from_tables,
                         strong_coupling_series)
    return {
        ("wd", "closed"): shifted_free_energy_closed,
        ("wd", "fixedpoint"): shifted_free_energy_fixedpoint,
        ("wd", "finite-n"): shifted_free_energy_from_tables,
        ("ww", "closed"): strong_coupling_series,
    }


# Largest --order per route, so every call ends in bounded time.  On a
# 2-vCPU box `largen wd --order 38` takes 3.3-3.9 s.  The fixed point
# computes one new grade per pass on packed int keys, about 1.3x per order:
# `largen wd --order 27 --compare` took 0.9-1.4 s, alternating with order
# 38.  Its cap of 27, which --compare shares, was the last order no slower
# than closed at 38 before the keys were packed; raising it changes which
# calls exit 2.  The finite-N route, tables included, takes 0.01 s at order
# 8 and 0.11-0.12 s at 12; its cap stays at 4 on purpose, because a cap of
# 8 or more changes the output of `largen wd --order 8 --compare`.
_ORDER_CAPS = {"closed": 38, "fixedpoint": 27, "finite-n": 4}


def _cmd_largen(args: argparse.Namespace) -> tuple[str, int]:
    if args.order < 1:
        raise ValueError("--order must be >= 1")
    method = args.method or "closed"
    routes = _series_routes()
    if (args.target, method) not in routes:
        raise ValueError("target 'ww' supports only --method closed")
    if args.compare and args.target == "ww":
        raise ValueError("--compare applies to target 'wd' only")
    if args.order > _ORDER_CAPS[method]:
        raise ValueError("--method %s supports --order <= %d"
                         % (method, _ORDER_CAPS[method]))
    if args.compare and args.order > _ORDER_CAPS["fixedpoint"]:
        raise ValueError("--compare runs --method fixedpoint, which supports "
                         "--order <= %d" % _ORDER_CAPS["fixedpoint"])
    series = routes[(args.target, method)](args.order)
    payload = _series_payload(series, args.target, method)
    status = 0
    if args.compare:
        others = [m for m in ("closed", "fixedpoint", "finite-n")
                  if m != method and args.order <= _ORDER_CAPS[m]]
        mismatches = []
        for other in others:
            alt = routes[("wd", other)](args.order)
            keys = set(series.terms) | set(alt.terms)
            for key in sorted(keys, key=lambda k: (k[0], str(k[1]))):
                a = series.terms.get(key, Fraction(0))
                b = alt.terms.get(key, Fraction(0))
                if a != b:
                    mismatches.append({
                        "method": other, "grade": key[0],
                        "partition": key[1].to_string(),
                        "expected": str(a), "got": str(b)})
        payload["compare"] = {"methods": others,
                              "identical": not mismatches,
                              "mismatches": mismatches}
        if mismatches:
            status = 1
    text = (_series_latex(series, args.target) if args.format == "latex"
            else _json_text(payload))
    return text, status


# ------------------------------------------------------------------- mc

def _group_spec(name: str, dim: int) -> GroupSpec:
    from . import haar_mc
    group = (haar_mc.SPECIAL_UNITARY if name == _SPECIAL_UNITARY
             else haar_mc.UNITARY)
    return haar_mc.GroupSpec(group, dim)


def _sector(group: str, p: int, n: int, dim: int) -> str:
    """Sector of an integral with p factors of U and n of U-dagger over
    U(dim) or SU(dim), by its charge p - n alone: the value is zero in
    "unbalanced" (U(dim), p != n) and "charge-mismatch" (SU(dim), p - n not
    a multiple of dim); the paper solves "balanced" (p = n) and "shifted"
    (p = n + dim); every other multiple of dim is "outside-range".  Whether
    a value is implemented is for the caller to say."""
    if group == _UNITARY and p != n:
        return "unbalanced"
    if (p - n) % dim:
        return "charge-mismatch"
    if p == n:
        return "balanced"
    return "shifted" if p - n == dim else "outside-range"


_ZERO_SECTORS = ("unbalanced", "charge-mismatch")


def _exact_trace_moment(p: int, n: int, src: SourceMatrices,
                        group: str) -> tuple[complex | None, str]:
    """Exact value of the (p, n) trace-moment integral, with its sector
    label; the value is None outside the balanced and shifted sectors and
    above weight n = MAX_WEIGHT."""
    from . import haar_mc
    sector = _sector(group, p, n, src.dim)
    if sector in _ZERO_SECTORS:
        return 0.0, sector
    if sector == "outside-range" or n > MAX_WEIGHT:
        return None, sector
    evaluate = haar_mc.eval_ordinary if p == n else haar_mc.eval_shifted
    return complex(evaluate(n, src)), sector


# Largest sampling job the CLI admits, so every Monte Carlo call ends in
# bounded time: drawn matrix entries per command (samples x N^2 for mc and
# tensor, summed over the estimator calls of verify --suite mc), and N.
# On a 2-vCPU box SU(N) draws about 10 M entries/s up to N = 64 but 3.3 M at
# N = 128, so the slowest admitted call, mc --N 128 --samples 8192, takes
# about 41 s.
_MAX_SAMPLED_ENTRIES = 2 ** 27
_MAX_SAMPLED_N = 128


def _check_sampled_size(option: str, samples: int, dim: int) -> None:
    if dim > _MAX_SAMPLED_N:
        raise ValueError("sampling supports --N <= %d" % _MAX_SAMPLED_N)
    _check_entries(option, samples, "N^2", dim ** 2, "at N = %d" % dim)


def _check_entries(option: str, samples: int, factor: str, per_sample: int,
                   where: str) -> None:
    if samples * per_sample > _MAX_SAMPLED_ENTRIES:
        raise ValueError("%s times %s must be <= %d (%s <= %d %s)"
                         % (option, factor, _MAX_SAMPLED_ENTRIES, option,
                            _MAX_SAMPLED_ENTRIES // per_sample, where))


def _check_sigmas(sigmas: float) -> None:
    if not (math.isfinite(sigmas) and sigmas > 0):
        raise ValueError("--sigmas must be finite and > 0")


def _cmd_mc(args: argparse.Namespace) -> tuple[str, int]:
    _check_sigmas(args.sigmas)
    if args.p < 0 or args.n < 0:
        raise ValueError("--p and --n must be >= 0")
    if args.N < 1:
        raise ValueError("--N must be >= 1")
    _check_sampled_size("--samples", args.samples, args.N)
    from . import haar_mc
    haar_mc.check_sampling(args.samples, args.seed)
    if args.matrices:
        src = haar_mc.SourceMatrices.from_json_file(args.matrices)
        if src.dim != args.N:
            raise ValueError("matrices file has N=%d, not %d"
                             % (src.dim, args.N))
    else:
        src = haar_mc.random_source_matrices(args.N, args.seed)
    spec = _group_spec(args.group, args.N)
    print("sampling %d matrices from %s(%d)"
          % (args.samples, "SU" if args.group == _SPECIAL_UNITARY else "U",
             args.N), file=sys.stderr)
    est = haar_mc.estimate_trace_moment(args.p, args.n, src, spec,
                                        samples=args.samples, seed=args.seed)
    exact, sector = _exact_trace_moment(args.p, args.n, src, args.group)
    report = (None if exact is None
              else haar_mc.compare(est, exact, sigmas=args.sigmas))
    payload = {"p": args.p, "n": args.n, "N": args.N,
               "group": args.group, "sector": sector,
               "estimate": est.as_json_dict(),
               "exact": None if report is None else report["exact"],
               "comparison": report}
    return _json_text(payload), 0 if report is None or report["pass"] else 1


# --------------------------------------------------------------- tensor

def _parse_index_pairs(text: str) -> tuple[list[int], list[int]]:
    rows: list[int] = []
    cols: list[int] = []
    text = text.strip()
    if not text:
        return rows, cols
    for chunk in text.split(","):
        a, _, b = chunk.partition(":")
        rows.append(int(a))
        cols.append(int(b))
    return rows, cols


def _exact_monomial(i: list[int], j: list[int], k: list[int], l: list[int],
                    dim: int, group: str) -> tuple[Fraction | None, str]:
    """Exact value of one tensor-level integral when known, with its sector
    label; the shifted sector is known here only at n = 0 (epsilon)."""
    sector = _sector(group, len(i), len(k), dim)
    if sector in _ZERO_SECTORS:
        return Fraction(0), sector
    if sector == "balanced":
        return monomial_integral(i, j, k, l, dim), sector
    if sector == "shifted" and not k:
        from .su_shifted import epsilon_integral
        return epsilon_integral(i, j, dim), "epsilon"
    return None, sector


def _cmd_tensor(args: argparse.Namespace) -> tuple[str, int]:
    try:
        i, j = _parse_index_pairs(args.u)
        k, l = _parse_index_pairs(args.udagger)
    except ValueError:
        raise ValueError("index lists look like '1:2,3:1'") from None
    dim = args.N
    if dim < 1:
        raise ValueError("--N must be >= 1")
    # n U-dagger factors bound the double coset by n!; more U factors are
    # cheap (epsilon is O(N log N)), and N <= 128 keeps 1/N! printable
    u_cap = max(MAX_WEIGHT, min(dim, _MAX_SAMPLED_N))
    if len(k) > MAX_WEIGHT or len(i) > u_cap:
        raise ValueError("at most %d U-dagger factors and %d U factors at "
                         "N = %d" % (MAX_WEIGHT, u_cap, dim))
    if any(not 1 <= x <= dim for x in i + j + k + l):
        raise ValueError("indices must be in 1..%d" % dim)
    if args.mc_samples:
        _check_sigmas(args.sigmas)
        _check_sampled_size("--mc-samples", args.mc_samples, dim)
        from . import haar_mc
        haar_mc.check_sampling(args.mc_samples, args.seed)
    exact, sector = _exact_monomial(i, j, k, l, dim, args.group)
    payload = {"N": dim, "group": args.group, "sector": sector,
               "u": args.u, "udagger": args.udagger,
               "exact": None if exact is None else str(exact),
               "exact_float": None if exact is None else float(exact)}
    status = 0
    if args.mc_samples:
        spec = _group_spec(args.group, dim)
        est = haar_mc.estimate_monomial(i, j, k, l, spec,
                                        samples=args.mc_samples,
                                        seed=args.seed)
        payload["estimate"] = est.as_json_dict()
        if exact is not None:
            report = haar_mc.compare(est, complex(exact), sigmas=args.sigmas)
            payload["comparison"] = report
            status = 0 if report["pass"] else 1
    return _json_text(payload), status


# --------------------------------------------------------------- verify

def _suite_tables() -> list[dict]:
    from .reference import reference_table, reference_weights
    builders = _table_builders()
    checks = []
    for family in (WEINGARTEN, SU_SHIFTED):
        primary = builders[(family, _DEFAULT_METHOD[family])]
        secondary = builders[(family, "recursion")]
        for n in reference_weights(family):
            ok = primary(n).entries == reference_table(family, n)
            checks.append({"name": "%s n=%d vs packaged" % (family, n),
                           "pass": ok})
        for n in range(1, MAX_WEIGHT + 1):
            ok = primary(n).entries == secondary(n).entries
            checks.append({"name": "%s n=%d dual route" % (family, n),
                           "pass": ok})
    return checks


def _suite_shift() -> list[dict]:
    from .su_shifted import check_shift_identity
    checks = []
    for n in range(1, 6):
        rows = check_shift_identity(n)
        ok = all(row["ok"] for row in rows)
        checks.append({"name": "shift identity n=%d" % n, "pass": ok})
    return checks


def _suite_largen() -> list[dict]:
    routes = _series_routes()
    checks = []
    closed = routes[("wd", "closed")](8)
    checks.append({"name": "wd closed == fixedpoint to order 8",
                   "pass": closed == routes[("wd", "fixedpoint")](8)})
    checks.append({"name": "wd closed == finite-n route to order 8",
                   "pass": closed == routes[("wd", "finite-n")](8)})
    ww = routes[("ww", "closed")](4)
    expected_g4 = {
        Partition.from_string("1^4"): Fraction(6),
        Partition.from_string("1^2 2^1"): Fraction(-12),
        Partition.from_string("2^2"): Fraction(9, 4),
        Partition.from_string("1^1 3^1"): Fraction(5),
        Partition.from_string("4^1"): Fraction(-5, 4),
    }
    checks.append({"name": "ww grade-4 slice",
                   "pass": ww.grade_slice(4) == expected_g4})
    return checks


# The mc suite's estimator calls, each with the same --samples: trace moments
# Z(p, n) on SU(3), then the bare pair U_1a U_2b on SU(2) per column order.
_SUITE_MC_TRACE_DIM = 3
_SUITE_MC_TRACE_CASES = (
    ("Z(1,1) balanced", 1, 1),
    ("Z(2,2) balanced", 2, 2),
    ("Z(3,0) pure det", 3, 0),
    ("Z(4,1) shifted", 4, 1),
    ("Z(5,2) shifted", 5, 2),
    ("Z(2,1) charge mismatch", 2, 1),
    ("Z(3,1) charge mismatch", 3, 1),
)
_SUITE_MC_PAIR_DIM = 2
_SUITE_MC_PAIR_COLS = ([1, 2], [2, 1])
# entries the suite draws per --samples at worst, with no kept columns (71)
_SUITE_MC_ENTRIES = (len(_SUITE_MC_TRACE_CASES) * _SUITE_MC_TRACE_DIM ** 2
                     + len(_SUITE_MC_PAIR_COLS) * _SUITE_MC_PAIR_DIM ** 2)


def _suite_mc(samples: int, seed: int) -> list[dict]:
    from . import haar_mc
    checks = []
    dim = _SUITE_MC_TRACE_DIM
    src = haar_mc.random_source_matrices(dim, seed)
    su = _group_spec(_SPECIAL_UNITARY, dim)
    for name, p, n in _SUITE_MC_TRACE_CASES:
        est = haar_mc.estimate_trace_moment(p, n, src, su,
                                            samples=samples, seed=seed)
        exact, _ = _exact_trace_moment(p, n, src, _SPECIAL_UNITARY)
        report = haar_mc.compare(est, exact)
        checks.append({"name": name, "pass": report["pass"],
                       "pull": [report["pull_real"],
                                report["pull_imag"]]})
    su2 = _group_spec(_SPECIAL_UNITARY, _SUITE_MC_PAIR_DIM)
    for cols in _SUITE_MC_PAIR_COLS:
        est = haar_mc.estimate_monomial([1, 2], cols, [], [], su2,
                                        samples=samples, seed=seed)
        exact, _ = _exact_monomial([1, 2], cols, [], [], su2.N,
                                   _SPECIAL_UNITARY)
        report = haar_mc.compare(est, complex(exact))
        checks.append({"name": "SU(2) bare pair cols=%s" % (cols,),
                       "pass": report["pass"],
                       "pull": [report["pull_real"],
                                report["pull_imag"]]})
    return checks


def _cmd_verify(args: argparse.Namespace) -> tuple[str, int]:
    suites = {"tables": _suite_tables, "shift": _suite_shift,
              "largen": _suite_largen,
              "mc": functools.partial(_suite_mc, args.samples, args.seed)}
    names = list(suites) if args.suite == "all" else [args.suite]
    if "mc" in names:
        _check_entries("--samples", args.samples, str(_SUITE_MC_ENTRIES),
                       _SUITE_MC_ENTRIES, "for the mc suite")
        from . import haar_mc
        haar_mc.check_sampling(args.samples, args.seed)
    payload = {"suites": {}, "pass": True}
    for name in names:
        print("running suite %r" % name, file=sys.stderr)
        checks = suites[name]()
        ok = all(c["pass"] for c in checks)
        payload["suites"][name] = {"pass": ok, "checks": checks}
        payload["pass"] = payload["pass"] and ok
    return _json_text(payload), 0 if payload["pass"] else 1


# --------------------------------------------------------------- parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sunint",
        description="exact and Monte Carlo moments of Haar-random "
                    "unitary matrix elements")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--output", help="write result to a file "
                                         "instead of stdout")

    p_coeffs = sub.add_parser(
        "coeffs", parents=[common],
        help="coefficient table for one weight")
    p_coeffs.add_argument("--family", required=True,
                          choices=[WEINGARTEN, SU_SHIFTED])
    p_coeffs.add_argument("--n", type=int, required=True,
                          help="total weight, 1..%d" % MAX_WEIGHT)
    p_coeffs.add_argument("--method",
                          choices=["character", "recursion", "shift"])
    p_coeffs.add_argument("--format", default="json",
                          choices=["json", "latex", "csv"])
    p_coeffs.set_defaults(handler=_cmd_coeffs)

    p_largen = sub.add_parser(
        "largen", parents=[common],
        help="large-N series of the shifted free energy")
    p_largen.add_argument("target", choices=["wd", "ww"])
    p_largen.add_argument("--order", type=int, required=True)
    p_largen.add_argument("--method",
                          choices=["closed", "fixedpoint", "finite-n"])
    p_largen.add_argument("--compare", action="store_true",
                          help="cross-check against the other routes")
    p_largen.add_argument("--format", default="json",
                          choices=["json", "latex"])
    p_largen.set_defaults(handler=_cmd_largen)

    p_mc = sub.add_parser(
        "mc", parents=[common],
        help="Monte Carlo estimate of a trace-moment integral")
    p_mc.add_argument("--p", type=int, required=True,
                      help="power of tr(KU)")
    p_mc.add_argument("--n", type=int, required=True,
                      help="power of tr(J U^dagger)")
    p_mc.add_argument("--N", type=int, required=True)
    p_mc.add_argument("--group", default=_SPECIAL_UNITARY,
                      choices=[_SPECIAL_UNITARY, _UNITARY])
    p_mc.add_argument("--samples", type=int, default=100_000)
    p_mc.add_argument("--seed", type=int, default=0)
    p_mc.add_argument("--sigmas", type=float, default=5.0)
    p_mc.add_argument("--matrices",
                      help="JSON file with source matrices J and K")
    p_mc.set_defaults(handler=_cmd_mc)

    p_tensor = sub.add_parser(
        "tensor", parents=[common],
        help="exact single tensor-level integral")
    p_tensor.add_argument("--N", type=int, required=True)
    p_tensor.add_argument("--u", default="",
                          help="row:col pairs for plain factors, "
                               "e.g. '1:2,2:1'")
    p_tensor.add_argument("--udagger", default="",
                          help="row:col pairs for conjugate factors")
    p_tensor.add_argument("--group", default=_SPECIAL_UNITARY,
                          choices=[_SPECIAL_UNITARY, _UNITARY])
    p_tensor.add_argument("--mc-samples", type=int, default=0,
                          help="also cross-check by sampling")
    p_tensor.add_argument("--seed", type=int, default=0)
    p_tensor.add_argument("--sigmas", type=float, default=5.0)
    p_tensor.set_defaults(handler=_cmd_tensor)

    p_verify = sub.add_parser(
        "verify", parents=[common],
        help="run consistency suites")
    p_verify.add_argument("--suite", default="all",
                          choices=["tables", "shift", "largen", "mc",
                                   "all"])
    p_verify.add_argument("--samples", type=int, default=100_000)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.set_defaults(handler=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        text, status = args.handler(args)
        if args.output:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except (OSError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    return status


if __name__ == "__main__":
    sys.exit(main())
