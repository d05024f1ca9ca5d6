"""Acceptance gate: one test per criterion, each printing a PASS line.

Exact criteria compare canonical rational functions or Fractions with
tolerance zero.  Statistical criteria use a 5 sigma pull window.
"""
import time
from fractions import Fraction

import numpy as np

from sunint import (
    GroupSpec,
    Partition,
    SPECIAL_UNITARY,
    UNITARY,
    check_shift_identity,
    compare,
    enumerate_partitions,
    epsilon_integral,
    estimate_monomial,
    estimate_trace_moment,
    eval_ordinary,
    eval_shifted,
    random_source_matrices,
    reference_table,
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

MC_SAMPLES = 1_000_000
MC_SEED = 42


def _report(k: int, detail: str) -> None:
    print("criterion %d PASS: %s" % (k, detail))


def test_criterion_1_table_regression():
    t0 = time.time()
    for n in range(1, 5):
        ref = reference_table("weingarten", n)
        got = weingarten_table_character(n)
        for alpha, val in ref.items():
            assert got[alpha] == val, ("weingarten", n, str(alpha))
    for n in range(1, 5):
        ref = reference_table("su-shifted", n)
        got = shifted_table(n)
        for alpha, val in ref.items():
            assert got[alpha] == val, ("su-shifted", n, str(alpha))
    dt = time.time() - t0
    assert dt < 1.0
    _report(1, "both families n=1..4 identical to packaged canonical "
               "forms in %.2fs" % dt)


def test_criterion_2_dual_derivations():
    t0 = time.time()
    for n in range(1, 6):
        # the recursive builders solve overdetermined systems and verify
        # every residual row exactly; an inconsistency raises
        assert weingarten_table_recursive(n).entries \
            == weingarten_table_character(n).entries, n
        assert shifted_table_recursive(n).entries \
            == shifted_table(n).entries, n
    dt = time.time() - t0
    assert dt < 30.0
    _report(2, "recursion route equals character/shift route entrywise "
               "for n<=5 in %.2fs" % dt)


def test_criterion_3_shift_identity():
    t0 = time.time()
    for n in range(1, 6):
        rows = check_shift_identity(n)
        assert all(row["ok"] for row in rows), (n, rows)
    dt = time.time() - t0
    assert dt < 5.0
    _report(3, "pole-stripped dimension-shift identity holds per "
               "partition for n=1..5 in %.2fs" % dt)


def test_criterion_4_sign_and_degree_laws():
    t0 = time.time()
    for n in range(1, 6):
        z_tab = weingarten_table_character(n)
        d_tab = shifted_table(n)
        for alpha in enumerate_partitions(n):
            c = alpha.num_parts
            want = 1 if (c + n) % 2 == 0 else -1
            z_val, d_val = z_tab[alpha], d_tab[alpha]
            assert (1 if z_val.num.leading > 0 else -1) == want, alpha
            assert (1 if d_val.num.leading > 0 else -1) == want, alpha
            assert z_val.degree_gap() == 2 * n - c, alpha
            assert d_val.degree_gap() == n - c, alpha
    dt = time.time() - t0
    assert dt < 5.0
    _report(4, "sign (-1)^(c+n) and degree gaps 2n-c (balanced) and n-c "
               "(determinant sector) hold for n<=5 in %.2fs" % dt)


def test_criterion_5_largen_triple_agreement():
    t0 = time.time()
    closed8 = shifted_free_energy_closed(8)
    assert closed8 == shifted_free_energy_fixedpoint(8)
    assert closed8.truncated(4) == shifted_free_energy_from_tables(4)
    expected_g4 = {
        Partition.from_string("1^4"): Fraction(1, 4),
        Partition.from_string("1^2 2^1"): Fraction(-3, 2),
        Partition.from_string("2^2"): Fraction(1, 2),
        Partition.from_string("1^1 3^1"): Fraction(2),
        Partition.from_string("4^1"): Fraction(-5, 4),
    }
    assert closed8.grade_slice(4) == expected_g4
    dt = time.time() - t0
    assert dt < 60.0
    _report(5, "closed form, fixed point (order 8) and finite-dimension "
               "route (order 4) agree, 4th-order display exact, "
               "in %.2fs" % dt)


def test_criterion_6_strong_coupling_regression():
    t0 = time.time()
    series = strong_coupling_series(4)
    expected = {
        (1, "1^1"): Fraction(1),
        (2, "1^2"): Fraction(1, 2), (2, "2^1"): Fraction(-1, 2),
        (3, "1^3"): Fraction(4, 3), (3, "1^1 2^1"): Fraction(-2),
        (3, "3^1"): Fraction(2, 3),
        (4, "1^4"): Fraction(24, 4), (4, "1^2 2^1"): Fraction(-48, 4),
        (4, "2^2"): Fraction(9, 4), (4, "1^1 3^1"): Fraction(20, 4),
        (4, "4^1"): Fraction(-5, 4),
    }
    got = {(g, a.to_string()): c for g, a, c in series.sorted_terms()}
    assert got == expected
    dt = time.time() - t0
    assert dt < 1.0
    _report(6, "strong-coupling series matches all four displayed "
               "orders including the grade-4 set {24,-48,9,20,-5}/4 "
               "in %.2fs" % dt)


def test_criterion_7_monte_carlo_agreement():
    t0 = time.time()
    dim = 3
    src = random_source_matrices(dim, MC_SEED)
    su = GroupSpec(SPECIAL_UNITARY, dim)

    cases = [
        ("Z(3,0) vs det K", 3, 0, complex(np.linalg.det(src.K))),
        ("Z(4,1) vs shifted eval", 4, 1, complex(eval_shifted(1, src))),
        ("Z(5,2) vs shifted eval", 5, 2, complex(eval_shifted(2, src))),
        ("Z(1,1) vs balanced eval", 1, 1, complex(eval_ordinary(1, src))),
        ("Z(2,2) vs balanced eval", 2, 2, complex(eval_ordinary(2, src))),
        ("Z(1,0) selection rule", 1, 0, 0.0),
        ("Z(2,0) selection rule", 2, 0, 0.0),
        ("Z(2,1) selection rule", 2, 1, 0.0),
        ("Z(3,1) selection rule", 3, 1, 0.0),
    ]
    pulls = []
    for name, p, n, exact in cases:
        est = estimate_trace_moment(p, n, src, su,
                                    samples=MC_SAMPLES, seed=MC_SEED)
        report = compare(est, exact)
        assert report["pass"], (name, report)
        pulls.append(max(report["pull_real"], report["pull_imag"]))

    su2 = GroupSpec(SPECIAL_UNITARY, 2)
    for cols, want in (([1, 2], Fraction(1, 2)), ([2, 1], Fraction(-1, 2))):
        assert epsilon_integral([1, 2], cols, 2) == want
        est = estimate_monomial([1, 2], cols, [], [], su2,
                                samples=MC_SAMPLES, seed=MC_SEED)
        report = compare(est, complex(want))
        assert report["pass"], (cols, report)
        pulls.append(max(report["pull_real"], report["pull_imag"]))

    dt = time.time() - t0
    assert dt < 600.0
    _report(7, "11 sector checks at 1e6 samples all within 5 sigma "
               "(max pull %.2f) in %.1fs" % (max(pulls), dt))


def test_criterion_8_sampler_quality():
    t0 = time.time()
    rng = np.random.default_rng(123)
    worst_unitarity = 0.0
    worst_det = 0.0
    for _ in range(200):
        u = sample_haar(GroupSpec(UNITARY, 5), rng)
        s = sample_haar(GroupSpec(SPECIAL_UNITARY, 5), rng)
        eye = np.eye(5)
        worst_unitarity = max(
            worst_unitarity,
            np.abs(u.conj().T @ u - eye).max(),
            np.abs(s.conj().T @ s - eye).max())
        worst_det = max(worst_det, abs(np.linalg.det(s) - 1.0))
    assert worst_unitarity < 1e-12, worst_unitarity
    assert worst_det < 1e-12, worst_det

    u3 = GroupSpec(UNITARY, 3)
    # first moment of a single entry vanishes
    est = estimate_monomial([1], [1], [], [], u3, samples=100_000, seed=7)
    assert compare(est, 0.0)["pass"]
    # pair moments: <U_ab conj(U_cd)> = delta_ac delta_bd / N
    est = estimate_monomial([1], [1], [1], [1], u3,
                            samples=100_000, seed=7)
    assert compare(est, complex(Fraction(1, 3)))["pass"]
    est = estimate_monomial([1], [2], [2], [1], u3,
                            samples=100_000, seed=7)
    assert compare(est, complex(Fraction(1, 3)))["pass"]
    est = estimate_monomial([1], [1], [2], [2], u3,
                            samples=100_000, seed=7)
    assert compare(est, 0.0)["pass"]

    src = random_source_matrices(3, 7)
    su = GroupSpec(SPECIAL_UNITARY, 3)
    a = estimate_trace_moment(2, 2, src, su, samples=20_000, seed=7)
    b = estimate_trace_moment(2, 2, src, su, samples=20_000, seed=7)
    assert a.mean == b.mean
    assert a.stderr_real == b.stderr_real
    c = estimate_trace_moment(2, 2, src, su, samples=20_000, seed=8)
    assert c.mean != a.mean

    dt = time.time() - t0
    _report(8, "residuals < 1e-12, moment checks at 5 sigma, "
               "bit-exact seed determinism in %.1fs" % dt)
