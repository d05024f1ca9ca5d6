"""One repetition of a benchmark task, run in a fresh interpreter.

    python3 bench/worker.py TASK --seed S [--trace] [--smoke] [--corrupt]

TASK is one of:
  mc-sweep    estimate_trace_moment over SU(N) and U(N), N in 2..16, plus
              the SU(3) sector set and the SU(2) epsilon monomials
  mc-probe    the SU(3) sector set alone
  exact-cold  every exact table and series from empty caches, checked after
  layers      kernel timings, sampler memory and sample counts (traced only)

Inputs depend only on (TASK, seed).  The last stdout line is one JSON
object with the repetition's wall time, one timing per call into the
package, the outcome of every output check and, with --trace, the spans
and per-layer values.  --smoke shrinks the Monte Carlo sample counts;
--corrupt makes one expected value wrong, to prove a failed check is
counted rather than fatal.
"""
from __future__ import annotations

import argparse
import json
import math
import random
import statistics
import sys
import time
import tracemalloc
from contextlib import contextmanager
from fractions import Fraction

import numpy as np

import sunint
from sunint import (
    N,
    SPECIAL_UNITARY,
    UNITARY,
    GroupSpec,
    RatFuncN,
    SourceMatrices,
    check_shift_identity,
    class_size,
    compare,
    epsilon_integral,
    estimate_monomial,
    estimate_trace_moment,
    eval_ordinary,
    eval_shifted,
    monomial_integral,
    poly_gcd,
    random_source_matrices,
    reference_families,
    reference_table,
    reference_weights,
    sample_haar,
    shifted_free_energy_closed,
    shifted_free_energy_fixedpoint,
    shifted_free_energy_from_tables,
    shifted_table,
    shifted_table_recursive,
    strong_coupling_series,
    weingarten_table_character,
    weingarten_table_recursive,
)
from sunint import su_shifted, weingarten

import speed
from inputs import MC_REQUESTS, SECTOR_CASES, sector_sources

# Sample counts are multiples of 8192, the sampler's batch size at the
# commit that defined this benchmark; they are fixed here so that the
# workload stays the same when the sampler's batch size changes.
BATCH = 8192
SWEEP_BATCHES = {2: 8, 3: 8, 5: 4, 8: 2, 16: 1}
SECTOR_BATCHES = 8
SIGMAS = 5.0
EXACT_MAX_CHARACTER = 8
EXACT_MAX_RECURSION = 6
MONOMIAL_WEIGHT = 6
MONOMIAL_DIM = 7
MONOMIAL_COUNT = 3

# Criterion 5 and 6 literals: grade-4 slices of the large-N series.
CLOSED_G4 = {"1^4": Fraction(1, 4), "1^2 2^1": Fraction(-3, 2),
             "2^2": Fraction(1, 2), "1^1 3^1": Fraction(2),
             "4^1": Fraction(-5, 4)}
STRONG_G4 = {"1^4": Fraction(6), "1^2 2^1": Fraction(-12),
             "2^2": Fraction(9, 4), "1^1 3^1": Fraction(5),
             "4^1": Fraction(-5, 4)}


class Tracer:
    """Spans around the benchmark's calls into the package.

    Every call is a top-level span (its request), so untraced runs still
    time each call; a top-level span also records the speed scale measured
    just before it (see speed.py).  With ``detailed`` set, wrapped
    package functions add nested spans and the Gaussian draws are counted.
    """

    def __init__(self, detailed: bool):
        self.detailed = detailed
        self.spans: list[dict] = []
        self._open: list[dict] = []
        self.normals_drawn = 0

    @contextmanager
    def span(self, name: str, **attrs):
        rec = {"id": len(self.spans),
               "parent": self._open[-1]["id"] if self._open else None,
               "name": name, **attrs}
        if rec["parent"] is None:
            rec["scale"] = speed.scale()
        self.spans.append(rec)
        self._open.append(rec)
        start = time.perf_counter()
        try:
            yield rec
        finally:
            rec["start"] = start
            rec["s"] = time.perf_counter() - start
            self._open.pop()

    def wrap(self, module, attr: str, name: str, describe=None) -> None:
        original = getattr(module, attr)

        def traced(*args, **kwargs):
            with self.span(name) as rec:
                if describe is not None:
                    rec.update(describe(*args))
                return original(*args, **kwargs)

        setattr(module, attr, traced)

    def count_normals(self) -> None:
        """Count every standard normal drawn from a numpy Generator, which
        is how the sampler makes its Ginibre matrices."""
        tracer = self

        class CountingGenerator(np.random.Generator):
            def standard_normal(self, size=None, *args, **kwargs):
                tracer.normals_drawn += 1 if size is None else math.prod(
                    (size,) if isinstance(size, int) else size)
                return super().standard_normal(size, *args, **kwargs)

        np.random.Generator = CountingGenerator

    def calls(self) -> list[dict]:
        """The top-level spans, one per call, in call order."""
        return [{k: v for k, v in s.items()
                 if k not in ("id", "parent", "start")}
                for s in self.spans if s["parent"] is None]

    def export(self) -> list[dict]:
        child_time: dict[int, float] = {}
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] = child_time.get(s["parent"], 0.0) \
                    + s["s"]
        return [{**s, "self_s": s["s"] - child_time.get(s["id"], 0.0)}
                for s in self.spans]


class Checks:
    """Outcomes of output checks; an exception inside a check is a failed
    check, never a crashed run."""

    def __init__(self):
        self.results: list[list] = []

    def run(self, name: str, fn) -> None:
        try:
            ok = bool(fn())
        except Exception as exc:  # a broken check must still be counted
            self.results.append([name, False, repr(exc)])
            return
        self.results.append([name, ok] if ok else [name, False, "mismatch"])


def _mc_pass(est, exact) -> bool:
    return compare(est, complex(exact), sigmas=SIGMAS)["pass"]


# ------------------------------------------------------------ Monte Carlo

def _estimate(tr: Tracer, name: str, spec: GroupSpec, samples: int, call,
              **attrs):
    """Time one estimator call and record its standard error; traced,
    also count the samples it drew."""
    group = "su" if spec.group == SPECIAL_UNITARY else "u"
    with tr.span(name, group=group, N=spec.N, samples=samples,
                 **attrs) as rec:
        before = tr.normals_drawn
        est = call()
        if tr.detailed:
            rec["drawn"] = (tr.normals_drawn - before) / (2 * spec.N ** 2)
    rec["stderr"] = math.hypot(est.stderr_real, est.stderr_imag)
    return est


def _sector_set(rng: random.Random, tr: Tracer, checks: Checks,
                samples: int, corrupt: bool) -> None:
    """The SU(3) sector set of acceptance criterion 7, whose calls are
    marked ``sector``, and the SU(2) epsilon monomials."""
    src = SourceMatrices(*sector_sources(rng.randrange(2 ** 62)))
    spec = GroupSpec(SPECIAL_UNITARY, 3)
    su2 = GroupSpec(SPECIAL_UNITARY, 2)
    mc_seed = rng.randrange(2 ** 62)
    done = [(p, n, _estimate(
        tr, "haar_mc.estimate_trace_moment", spec, samples,
        lambda: estimate_trace_moment(p, n, src, spec, samples, mc_seed),
        sector=True)) for p, n in SECTOR_CASES]
    eps = [(cols, _estimate(
        tr, "haar_mc.estimate_monomial", su2, samples,
        lambda: estimate_monomial([1, 2], cols, [], [], su2, samples,
                                  mc_seed))) for cols in ([1, 2], [2, 1])]

    for p, n, est in done:
        if p == n:
            exact = eval_ordinary(n, src)
        elif p - n == 3:
            exact = eval_shifted(n, src)
        else:
            exact = 0.0
        if corrupt and (p, n) == SECTOR_CASES[0]:
            exact += 1.0
        checks.run(f"mc SU(3) Z({p},{n}) within 5 sigma",
                   lambda est=est, exact=exact: _mc_pass(est, exact))
    for cols, est in eps:
        checks.run(f"mc SU(2) epsilon cols={cols} within 5 sigma",
                   lambda est=est, cols=cols: _mc_pass(
                       est, epsilon_integral([1, 2], cols, 2)))


def mc_sweep(seed: int, tr: Tracer, checks: Checks, smoke: bool,
             corrupt: bool) -> dict:
    rng = random.Random(f"mc-sweep:{seed}")
    cases = []
    for dim in SWEEP_BATCHES:
        for group in (SPECIAL_UNITARY, UNITARY):
            src = random_source_matrices(dim, rng.randrange(2 ** 62))
            pns = [(1, 1), (2, 1)] + ([(2, 2)] if dim > 2 else [])
            cases.append((GroupSpec(group, dim), src, pns,
                          rng.randrange(2 ** 62)))
    if tr.detailed:
        tr.count_normals()

    start = time.perf_counter()
    results = []
    for spec, src, pns, mc_seed in cases:
        samples = BATCH * (1 if smoke else SWEEP_BATCHES[spec.N])
        for p, n in pns:
            results.append((spec, src, p, n, _estimate(
                tr, "haar_mc.estimate_trace_moment", spec, samples,
                lambda: estimate_trace_moment(p, n, src, spec, samples,
                                              mc_seed))))
    _sector_set(rng, tr, checks, BATCH * (1 if smoke else SECTOR_BATCHES),
                corrupt)
    wall = time.perf_counter() - start

    for spec, src, p, n, est in results:
        exact = eval_ordinary(n, src) if p == n else 0.0
        checks.run(f"mc {spec.group}({spec.N}) Z({p},{n}) within 5 sigma",
                   lambda est=est, exact=exact: _mc_pass(est, exact))
    out = {"wall_s": wall}
    if tr.detailed:
        out["layer"] = _mc_layers(tr.spans)
    return out


def _mc_layers(spans: list[dict]) -> dict:
    mc = [s for s in spans if s["name"].startswith("haar_mc.")]
    layer = {"haar_mc.samples_drawn_per_requested.mc_sweep":
             sum(s["drawn"] for s in mc) / sum(s["samples"] for s in mc)}
    for group in ("su", "u"):
        for dim in SWEEP_BATCHES:
            mine = [s for s in mc
                    if s["name"] == "haar_mc.estimate_trace_moment"
                    and s["group"] == group and s["N"] == dim]
            layer[f"haar_mc.estimate_trace_moment.us_per_sample."
                  f"{group}.N{dim}"] = (sum(s["s"] for s in mine) * 1e6
                                        / sum(s["samples"] for s in mine))
    return layer


def mc_probe(seed: int, tr: Tracer, checks: Checks, smoke: bool,
             corrupt: bool) -> dict:
    rng = random.Random(f"mc-probe:{seed}")
    start = time.perf_counter()
    _sector_set(rng, tr, checks, BATCH * (1 if smoke else SECTOR_BATCHES),
                corrupt)
    return {"wall_s": time.perf_counter() - start}


# ------------------------------------------------------------------ exact

def _call(tr: Tracer, name: str, fn, *args, **attrs):
    with tr.span(name, **attrs):
        return fn(*args)


def _cycle_type(perm: list[int]) -> sunint.Partition:
    seen, parts = set(), []
    for start in range(len(perm)):
        length, a = 0, start
        while a not in seen:
            seen.add(a)
            a = perm[a]
            length += 1
        if length:
            parts.append(length)
    return sunint.Partition.from_parts(parts)


def _seeded_monomial(rng: random.Random):
    """A weight-6 monomial with distinct row and column indices, so exactly
    one permutation pair contributes: its value is the class coefficient
    of sigma's cycle type, which the recursion table witnesses."""
    n = MONOMIAL_WEIGHT
    tau, sigma = list(range(n)), list(range(n))
    rng.shuffle(tau)
    rng.shuffle(sigma)
    i = j = list(range(1, n + 1))
    k, l = [0] * n, [0] * n
    for a in range(n):
        l[tau[a]] = i[a]
        k[tau[sigma[a]]] = j[a]
    return i, j, k, l, _cycle_type(sigma)


def _sum_rule(table) -> bool:
    """sum_alpha entry(alpha) N^len(alpha) = 1, which is
    E|tr U|^(2n) = n! for n <= N."""
    total = RatFuncN(0)
    for alpha, value in table.entries.items():
        total = total + value * N ** alpha.num_parts
    return total == RatFuncN(1)


def _shift_identity_report_holds(n: int, rows: list[dict], balanced,
                                 shifted) -> bool:
    """The report of check_shift_identity(n) is right.

    Independently of the report, shifted * (N+1) N ... (N-n+2) must equal
    S(N+1), with S = balanced * N^2 (N^2-1) ... (N^2-(n-1)^2), for every
    partition: that is the dimension-shift identity.  A row is ok exactly
    when S is also a polynomial.  For n <= 5 every S is (acceptance
    criterion 3).  From n = 6 on some balanced entries have double poles
    at N = +-1 that this product does not clear, and the report must say
    so for exactly those rows.
    """
    even, down = RatFuncN(1), RatFuncN(1)
    for m in range(n):
        even = even * (N ** 2 - m * m)
        down = down * (N + 1 - m)
    for alpha, row in zip(sunint.enumerate_partitions(n), rows):
        stripped = balanced[alpha] * even
        if shifted[alpha] * down != stripped.shifted(1):
            return False
        if row["partition"] != alpha.to_string() \
                or row["ok"] != stripped.is_polynomial:
            return False
    return n > 5 or all(row["ok"] for row in rows)


def _coeff_bits(table) -> int:
    return max(max(c.numerator.bit_length(), c.denominator.bit_length())
               for v in table.entries.values()
               for c in (*v.num.coeffs, *v.den.coeffs))


def exact_cold(seed: int, tr: Tracer, checks: Checks, smoke: bool,
               corrupt: bool) -> dict:
    del smoke  # the exact work has no sample count to shrink
    rng = random.Random(f"exact-cold:{seed}")
    monomials = [_seeded_monomial(rng) for _ in range(MONOMIAL_COUNT)]
    if tr.detailed:
        step = (lambda prev, *_: {"n": prev.n + 1})
        tr.wrap(weingarten, "recursion_step", "weingarten.recursion_step",
                step)
        tr.wrap(su_shifted, "recursion_step", "su_shifted.recursion_step",
                step)
        tr.wrap(weingarten, "solve_linear_system",
                "exactmath.solve_linear_system",
                lambda rows, *_: {"rows": len(rows), "cols": len(rows[0])})

    start = time.perf_counter()
    top = EXACT_MAX_CHARACTER
    rec_top = EXACT_MAX_RECURSION
    char = {n: _call(tr, "weingarten.table_character",
                     weingarten_table_character, n, n=n)
            for n in range(1, top + 1)}
    shifted = {n: _call(tr, "su_shifted.shifted_table", shifted_table, n, n=n)
               for n in range(1, top + 1)}
    wrec = {n: _call(tr, "weingarten.table_recursive",
                     weingarten_table_recursive, n, n=n)
            for n in range(1, rec_top + 1)}
    srec = {n: _call(tr, "su_shifted.table_recursive",
                     shifted_table_recursive, n, n=n)
            for n in range(1, rec_top + 1)}
    identity = {n: _call(tr, "su_shifted.check_shift_identity",
                         check_shift_identity, n, n=n)
                for n in range(1, rec_top + 1)}
    closed = _call(tr, "largen.closed", shifted_free_energy_closed, 12,
                   order=12)
    fixed = _call(tr, "largen.fixedpoint", shifted_free_energy_fixedpoint,
                  12, order=12)
    tables = _call(tr, "largen.from_tables", shifted_free_energy_from_tables,
                   8, order=8)
    strong = _call(tr, "largen.strong_coupling", strong_coupling_series, 12,
                   order=12)
    values = [_call(tr, "weingarten.monomial_integral", monomial_integral,
                    i, j, k, l, MONOMIAL_DIM, weight=MONOMIAL_WEIGHT)
              for i, j, k, l, _ in monomials]
    wall = time.perf_counter() - start

    for family, built in (("weingarten", char), ("su-shifted", shifted)):
        for n in reference_weights(family):
            ref = reference_table(family, n)
            if corrupt and family == "weingarten" and n == 1:
                ref = {a: v + 1 for a, v in ref.items()}
            checks.run(f"{family} n={n} equals packaged reference",
                       lambda ref=ref, got=built[n]: all(
                           got[a] == v for a, v in ref.items()))
    for n in range(1, rec_top + 1):
        checks.run(f"weingarten n={n} character == recursion",
                   lambda n=n: char[n].entries == wrec[n].entries)
        checks.run(f"su-shifted n={n} shift == recursion",
                   lambda n=n: shifted[n].entries == srec[n].entries)
        checks.run(f"shift identity n={n}",
                   lambda n=n: _shift_identity_report_holds(
                       n, identity[n], char[n], srec[n]))
    for n in range(1, top + 1):
        checks.run(f"weingarten n={n} sum rule",
                   lambda n=n: _sum_rule(char[n]))
    checks.run("wd closed == fixedpoint to order 12", lambda: closed == fixed)
    checks.run("wd closed == finite-N tables to order 8",
               lambda: closed.truncated(8) == tables)
    checks.run("wd grade-4 slice", lambda: {
        a.to_string(): c for a, c in closed.grade_slice(4).items()}
        == CLOSED_G4)
    checks.run("ww grade-4 slice", lambda: {
        a.to_string(): c for a, c in strong.grade_slice(4).items()}
        == STRONG_G4)
    for (i, j, k, l, alpha), value in zip(monomials, values):
        checks.run(f"monomial_integral {i}{j}{k}{l} vs recursion table",
                   lambda alpha=alpha, value=value: value == (
                       wrec[MONOMIAL_WEIGHT][alpha].evaluate(MONOMIAL_DIM)
                       / class_size(alpha)))

    out = {"wall_s": wall}
    if tr.detailed:
        out["layer"] = _exact_layers(tr.spans, char[top])
    return out


def _exact_layers(spans: list[dict], top_table) -> dict:
    def one(name, **attrs):
        found = [s["s"] for s in spans if s["name"] == name and all(
            s.get(k) == v for k, v in attrs.items())]
        return statistics.median(found)

    def total(name):
        return sum(s["s"] for s in spans if s["name"] == name)

    solver = {}
    for s in spans:
        if s["name"] == "exactmath.solve_linear_system":
            parent = spans[s["parent"]]
            if parent["name"] == "weingarten.recursion_step":
                solver[parent["n"]] = s
    layer = {
        "weingarten.table_recursive.s.n6": total("weingarten.table_recursive"),
        "su_shifted.table_recursive.s.n6": total("su_shifted.table_recursive"),
        "su_shifted.shifted_table.s.n8": one("su_shifted.shifted_table", n=8),
        "su_shifted.check_shift_identity.s.n6":
            one("su_shifted.check_shift_identity", n=6),
        "weingarten.monomial_integral.s.w6":
            one("weingarten.monomial_integral"),
        "largen.closed.s.o12": one("largen.closed"),
        "largen.fixedpoint.s.o12": one("largen.fixedpoint"),
        "largen.from_tables.s.o8": one("largen.from_tables"),
        "exactmath.table.max_degree.n8": max(
            max(v.num.degree, v.den.degree)
            for v in top_table.entries.values()),
        "exactmath.table.max_coeff_bits.n8": _coeff_bits(top_table),
    }
    for n in (6, 7, 8):
        layer[f"weingarten.table_character.s.n{n}"] = one(
            "weingarten.table_character", n=n)
    for n in (5, 6):
        layer[f"weingarten.recursion_step.s.n{n}"] = one(
            "weingarten.recursion_step", n=n)
        layer[f"exactmath.solver.rows.n{n}"] = solver[n]["rows"]
        layer[f"exactmath.solver.cols.n{n}"] = solver[n]["cols"]
    return layer


# ----------------------------------------------------------------- layers

def _us_per_call(fn, per_round: int) -> float:
    """Median over five rounds of microseconds per operation; a round
    repeats fn, which performs per_round operations, for at least 20 ms."""
    rounds = []
    for _ in range(5):
        reps, start = 0, time.perf_counter()
        while True:
            fn()
            reps += 1
            elapsed = time.perf_counter() - start
            if elapsed >= 0.02:
                break
        rounds.append(elapsed / (reps * per_round) * 1e6)
    return statistics.median(rounds)


def layers(seed: int, tr: Tracer, checks: Checks, smoke: bool,
           corrupt: bool) -> dict:
    del smoke, corrupt
    rng = random.Random(f"layers:{seed}")
    layer = {}
    with tr.span("partitions.character_sum", n=8) as rec:
        for lam in sunint.enumerate_diagrams(8):
            for alpha in sunint.enumerate_partitions(8):
                sunint.character(lam, alpha)
    layer["partitions.character_sum.s.n8"] = rec["s"]
    with tr.span("reference.load_all") as rec:
        refs = [reference_table(f, n) for f in reference_families()
                for n in reference_weights(f)]
    layer["reference.load_all.s"] = rec["s"]
    checks.run("reference tables load", lambda: all(refs))

    # kernel operands: entries of the weight-6 balanced table, paired
    # cyclically with their successor
    entries = list(weingarten_table_character(6).entries.values())
    pairs = list(zip(entries, entries[1:] + entries[:1]))
    kernels = {
        "exactmath.polyn_mul.us": (
            lambda x, y: x * y, [(a.num, b.den) for a, b in pairs]),
        "exactmath.polyn_divmod.us": (
            lambda x, y: x.divmod(y),
            [(a.num * b.den + b.num, a.den) for a, b in pairs]),
        "exactmath.poly_gcd.us": (
            poly_gcd, [(a.den, b.den) for a, b in pairs]),
        "exactmath.ratfunc_add.us": (lambda x, y: x + y, pairs),
    }
    for name, (fn, operands) in kernels.items():
        with tr.span(name.rsplit(".", 1)[0], operands=len(operands)):
            layer[name] = _us_per_call(
                lambda: [fn(x, y) for x, y in operands], len(operands))

    gen = np.random.default_rng(rng.randrange(2 ** 62))
    su3 = GroupSpec(SPECIAL_UNITARY, 3)
    with tr.span("haar_mc.sample_haar", N=3):
        layer["haar_mc.sample_haar.us_per_call.N3"] = _us_per_call(
            lambda: [sample_haar(su3, gen) for _ in range(50)], 50)

    # the Monte Carlo requests of the cli-small workload, made in-process
    sources = {req["N"]: random_source_matrices(req["N"],
                                                rng.randrange(2 ** 62))
               for req in MC_REQUESTS}
    tr.count_normals()
    peaks = {}
    for req in MC_REQUESTS:
        spec = GroupSpec(req["group"].replace("-", "_"), req["N"])
        src, mc_seed = sources[req["N"]], rng.randrange(2 ** 62)
        if req["kind"] == "monomial":
            call = (lambda: estimate_monomial([1], [1], [1], [1], spec,
                                              req["samples"], mc_seed))
        else:
            call = (lambda: estimate_trace_moment(1, 1, src, spec,
                                                  req["samples"], mc_seed))
        tracemalloc.start()
        est = _estimate(tr, "haar_mc.estimate_" + req["kind"], spec,
                        req["samples"], call)
        peaks[req["N"]] = max(peaks.get(req["N"], 0),
                              tracemalloc.get_traced_memory()[1] / 2 ** 20)
        tracemalloc.stop()
        exact = 1 / req["N"] if req["kind"] == "monomial" \
            else eval_ordinary(1, src)
        checks.run(f"in-process {req['kind']} N={req['N']} within 5 sigma",
                   lambda est=est, exact=exact: _mc_pass(est, exact))
    mc = [s for s in tr.spans if "drawn" in s]
    layer["haar_mc.samples_drawn_per_requested"] = (
        sum(s["drawn"] for s in mc) / sum(s["samples"] for s in mc))
    for dim in (16, 32):
        layer[f"haar_mc.peak_traced_mb.N{dim}"] = peaks[dim]
    return {"layer": layer}


TASKS = {"mc-sweep": mc_sweep, "mc-probe": mc_probe,
         "exact-cold": exact_cold, "layers": layers}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("task", choices=sorted(TASKS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--corrupt", action="store_true")
    args = parser.parse_args()
    tr, checks = Tracer(args.trace), Checks()
    out = TASKS[args.task](args.seed, tr, checks, args.smoke, args.corrupt)
    out["calls"] = tr.calls()
    out["checks"] = checks.results
    if args.trace:
        out["spans"] = tr.export()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
