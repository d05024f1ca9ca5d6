"""Seeded inputs shared by the harness and the worker, and the independent
witnesses that the cli-small workload's exact outputs are checked against.

Imports no part of the package, so the harness can build the cli-small
call list without importing it.  Every input depends only on the workload
seed; the cost of a call does not, so timings are comparable across seeds.
"""
from __future__ import annotations

import random
from fractions import Fraction
from itertools import permutations
from math import factorial, sqrt

import numpy as np

# The trace-moment sector set of acceptance criterion 7 at SU(3): balanced,
# pure determinant, shifted and charge-mismatch cases.
SECTOR_CASES = ((3, 0), (4, 1), (5, 2), (1, 1), (2, 2),
                (1, 0), (2, 0), (2, 1), (3, 1))

SECTOR_TWIST = np.diag(np.exp(1j * np.array([0.4, 1.3, -2.1])))

# cli-small calls whose stdout is exact and pinned by a sha256 golden
GOLDEN_CALLS = tuple(line.split() for line in (
    "coeffs --family weingarten --n 2",
    "coeffs --family weingarten --n 3",
    "coeffs --family weingarten --n 4",
    "coeffs --family weingarten --n 5",
    "coeffs --family weingarten --n 6",
    "coeffs --family weingarten --n 4 --format csv",
    "coeffs --family su-shifted --n 3",
    "coeffs --family su-shifted --n 6",
    "coeffs --family su-shifted --n 4 --format latex",
    "coeffs --family weingarten --n 4 --method recursion",
    "coeffs --family su-shifted --n 4 --method recursion",
    "largen wd --order 4 --compare",
    "largen wd --order 8 --compare",
    "largen wd --order 6 --method fixedpoint",
    "largen ww --order 6",
    "tensor --N 3 --u 1:1,2:2 --udagger 2:2,1:1 --group unitary",
    "tensor --N 2 --u 1:1,2:2",
))

# cli-small exact tensor calls with seeded indices: (kind, group, N)
SEEDED_TENSORS = (
    ("balanced2", "unitary", 3),
    ("balanced2", "special-unitary", 3),
    ("balanced2", "unitary", 4),
    ("balanced1", "unitary", 3),
    ("balanced1", "special-unitary", 5),
    ("epsilon", "special-unitary", 3),
    ("epsilon", "special-unitary", 4),
)

# cli-small Monte Carlo calls.  Each asks for far fewer samples than one
# 8192-sample batch, as a short interactive call does.
MC_REQUESTS = (
    *({"kind": "trace", "group": "special-unitary", "N": 3, "p": p, "n": n,
       "samples": 1000, "sector": True} for p, n in SECTOR_CASES),
    {"kind": "trace", "group": "special-unitary", "N": 16, "p": 1, "n": 1,
     "samples": 100},
    {"kind": "trace", "group": "unitary", "N": 16, "p": 2, "n": 1,
     "samples": 500},
    {"kind": "trace", "group": "special-unitary", "N": 32, "p": 1, "n": 1,
     "samples": 1000},
    {"kind": "monomial", "group": "unitary", "N": 3, "tensor": "balanced1",
     "samples": 500},
    {"kind": "monomial", "group": "special-unitary", "N": 2,
     "tensor": "epsilon", "samples": 1000},
    {"kind": "monomial", "group": "special-unitary", "N": 3,
     "tensor": "epsilon", "samples": 1000},
)


def haar_unitary(seed: int, dim: int) -> np.ndarray:
    """A Haar unitary from the benchmark's own generator (Ginibre + QR with
    the phase fix), used only to make inputs."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def sector_sources(seed: int) -> tuple[np.ndarray, np.ndarray]:
    """(J, K) = ((W Z)^dagger, W) / sqrt(3) for a seeded Haar W in U(3) and
    the fixed unitary Z = SECTOR_TWIST.

    With V = WU Haar on SU(3) up to a phase, tr KU and tr J U-dagger are
    functions of V alone, so the integrand's spread, and with it
    stderr * sqrt(seconds), is the same for every seed; with Gaussian
    sources it varies several-fold between seeds.  Z keeps the integrand
    complex: with Z = 1 the balanced cases would be real, and a pull on
    an imaginary part that is pure rounding is meaningless.
    """
    w = haar_unitary(seed, 3) / sqrt(3)
    return (w @ SECTOR_TWIST).conj().T, w


def matrices_payload(j: np.ndarray, k: np.ndarray) -> dict:
    """The CLI's --matrices layout: N*N [re, im] pairs, row-major."""
    def encode(m):
        return [[float(z.real), float(z.imag)] for z in m.reshape(-1)]
    return {"N": j.shape[0], "J": encode(j), "K": encode(k)}


def _pairs(rows, cols) -> str:
    return ",".join(f"{a}:{b}" for a, b in zip(rows, cols))


def tensor_indices(kind: str, dim: int, rng: random.Random):
    """(i, j, k, l) for one seeded tensor call; l is a rearrangement of i
    and k of j, so every balanced call has a nonzero value."""
    if kind == "epsilon":
        i, j = list(range(1, dim + 1)), list(range(1, dim + 1))
        rng.shuffle(i)
        rng.shuffle(j)
        return i, j, [], []
    n = 2 if kind == "balanced2" else 1
    i = [rng.randint(1, dim) for _ in range(n)]
    j = [rng.randint(1, dim) for _ in range(n)]
    l, k = i[:], j[:]
    rng.shuffle(l)
    rng.shuffle(k)
    return i, j, k, l


def tensor_argv(i, j, k, l, group: str, dim: int) -> list[str]:
    argv = ["tensor", "--N", str(dim), "--u", _pairs(i, j), "--group", group]
    if k:
        argv += ["--udagger", _pairs(k, l)]
    return argv


def _sign(perm: list[int]) -> int:
    return (-1) ** sum(1 for a in range(len(perm))
                       for b in range(a + 1, len(perm)) if perm[a] > perm[b])


def tensor_witness(i, j, k, l, dim: int) -> Fraction:
    """Exact value from closed forms independent of the package: the
    epsilon integral sign(i) sign(j) / N!, and for weight <= 2 the sum over
    permutation pairs with the closed-form Weingarten function
    Wg(id) = 1/N, or 1/(N^2-1) and Wg((12)) = -1/(N(N^2-1))."""
    if not k:
        return Fraction(_sign(i) * _sign(j), factorial(dim))
    wg = {1: {(0,): Fraction(1, dim)},
          2: {(0, 1): Fraction(1, dim * dim - 1),
              (1, 0): Fraction(-1, dim * (dim * dim - 1))}}[len(i)]
    total = Fraction(0)
    for tau in permutations(range(len(i))):
        if all(i[a] == l[tau[a]] for a in range(len(i))):
            for sigma, w in wg.items():
                if all(j[a] == k[tau[sigma[a]]] for a in range(len(i))):
                    total += w
    return total
