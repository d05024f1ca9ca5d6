"""Monte Carlo verification: Haar sampling on the unitary and special
unitary groups with unbiased estimators and per-component error bars.

Sampling is counter-based and worker-count invariant: sample index s always
lives in batch s // BATCH, which is generated from its own Philox stream
keyed by (seed << 64) + batch_index, and a full batch is always drawn before
slicing.  The value of sample s therefore depends only on (seed, s), no
matter how many samples were requested or how the work is split.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt
from typing import Iterator, Sequence

import numpy as np

from .weingarten import SourceMatrices

BATCH = 8192
_RESERVED_STREAM = 2 ** 64 - 1   # source-matrix stream; never a batch index
_MAX_SEED = 2 ** 63

UNITARY = "unitary"
SPECIAL_UNITARY = "special_unitary"


@dataclass(frozen=True)
class GroupSpec:
    """Which compact group to sample, and its dimension."""

    group: str
    N: int

    def __post_init__(self):
        if self.group not in (UNITARY, SPECIAL_UNITARY):
            raise ValueError(f"unknown group {self.group!r}")
        if self.N < 1:
            raise ValueError("dimension must be at least 1")


@dataclass(frozen=True)
class MCEstimate:
    """Sample mean with per-component standard errors."""

    mean: complex
    stderr_real: float
    stderr_imag: float
    samples: int
    seed: int

    def as_json_dict(self) -> dict:
        return {
            "mean": [self.mean.real, self.mean.imag],
            "stderr_real": self.stderr_real,
            "stderr_imag": self.stderr_imag,
            "samples": self.samples,
            "seed": self.seed,
        }


def _check_seed(seed: int) -> None:
    if not 0 <= seed < _MAX_SEED:
        raise ValueError("seed must satisfy 0 <= seed < 2**63")


def sample_haar(spec: GroupSpec, rng: np.random.Generator) -> np.ndarray:
    """One Haar-distributed matrix drawn from the given generator."""
    return _haar_batch(spec, 1, rng)[0]


def _haar_batch(spec: GroupSpec, count: int,
                rng: np.random.Generator) -> np.ndarray:
    """(count, N, N) stack of independent Haar samples.

    Ginibre + QR, with the R diagonal phase pushed back into Q; raw QR is not
    Haar without that fix.  The special unitary projection divides by the
    principal N-th root of the determinant.
    """
    dim = spec.N
    z = rng.standard_normal((count, dim, dim)) \
        + 1j * rng.standard_normal((count, dim, dim))
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    q = q * (diag / np.abs(diag))[:, None, :]
    if spec.group == SPECIAL_UNITARY:
        root = np.linalg.det(q) ** (1.0 / dim)
        q = q / root[:, None, None]
    return q


def _batches(spec: GroupSpec, samples: int, seed: int) -> Iterator[np.ndarray]:
    done = 0
    batch_index = 0
    while done < samples:
        rng = np.random.Generator(
            np.random.Philox(key=(seed << 64) + batch_index))
        u = _haar_batch(spec, BATCH, rng)
        take = min(BATCH, samples - done)
        yield u[:take]
        done += take
        batch_index += 1


class _Accumulator:
    """Streaming mean / second-moment accumulator over complex values,
    merged batch-by-batch with the associative (count, mean, M2) update."""

    def __init__(self):
        self.count = 0
        self.mean = complex(0)
        self.m2_real = 0.0
        self.m2_imag = 0.0

    def add(self, values: np.ndarray) -> None:
        b = values.size
        if b == 0:
            return
        mean_b = complex(values.mean())
        m2r = float(((values.real - mean_b.real) ** 2).sum())
        m2i = float(((values.imag - mean_b.imag) ** 2).sum())
        total = self.count + b
        delta = mean_b - self.mean
        self.m2_real += m2r + delta.real ** 2 * self.count * b / total
        self.m2_imag += m2i + delta.imag ** 2 * self.count * b / total
        self.mean += delta * (b / total)
        self.count = total

    def estimate(self, seed: int) -> MCEstimate:
        if self.count < 2:
            raise ValueError("need at least 2 samples")
        scale = 1.0 / ((self.count - 1) * self.count)
        return MCEstimate(
            mean=self.mean,
            stderr_real=sqrt(self.m2_real * scale),
            stderr_imag=sqrt(self.m2_imag * scale),
            samples=self.count,
            seed=seed,
        )


def estimate_trace_moment(p: int, n: int, src: SourceMatrices,
                          spec: GroupSpec, samples: int,
                          seed: int) -> MCEstimate:
    """Monte Carlo estimate of the Haar average of
    (tr KU)^p (tr J U-dagger)^n."""
    if spec.N != src.dim:
        raise ValueError(
            f"group dimension {spec.N} does not match matrices {src.dim}")
    if p < 0 or n < 0:
        raise ValueError("exponents must be nonnegative")
    if samples < 100:
        raise ValueError("need at least 100 samples")
    _check_seed(seed)
    acc = _Accumulator()
    for u in _batches(spec, samples, seed):
        tku = np.einsum("ij,bji->b", src.K, u)
        tju = np.einsum("ij,bij->b", src.J, np.conj(u))
        acc.add(tku ** p * tju ** n)
    return acc.estimate(seed)


def estimate_monomial(i: Sequence[int], j: Sequence[int],
                      k: Sequence[int], l: Sequence[int],
                      spec: GroupSpec, samples: int, seed: int) -> MCEstimate:
    """Monte Carlo estimate of the Haar average of
    prod_a U_{i_a j_a} times prod_b conj(U_{l_b k_b}); the (k, l) pairs index
    elements of U-dagger, and U-dagger_{kl} = conj(U_{lk}).  Indices 1-based.
    """
    if len(i) != len(j) or len(k) != len(l):
        raise ValueError("paired index lists must have equal length")
    for lists in (i, j, k, l):
        if any(not 1 <= x <= spec.N for x in lists):
            raise ValueError("index out of range")
    if samples < 2:
        raise ValueError("need at least 2 samples")
    _check_seed(seed)
    acc = _Accumulator()
    for u in _batches(spec, samples, seed):
        values = np.ones(u.shape[0], dtype=complex)
        for a, b in zip(i, j):
            values = values * u[:, a - 1, b - 1]
        if k:
            conj = np.conj(u)
            for a, b in zip(k, l):
                values = values * conj[:, b - 1, a - 1]
        acc.add(values)
    return acc.estimate(seed)


def compare(est: MCEstimate, exact: complex, sigmas: float = 5.0) -> dict:
    """Pass/fail report for an estimate against an exact target: both the
    real and imaginary pulls must stay within the sigma budget.  A zero
    standard error requires exact equality of that component."""
    if sigmas <= 0:
        raise ValueError("sigma budget must be positive")
    exact = complex(exact)

    def pull(diff: float, err: float) -> float:
        if diff == 0:
            return 0.0
        return abs(diff) / err if err > 0 else float("inf")

    pull_real = pull(est.mean.real - exact.real, est.stderr_real)
    pull_imag = pull(est.mean.imag - exact.imag, est.stderr_imag)
    return {
        "pass": bool(pull_real <= sigmas and pull_imag <= sigmas),
        "pull_real": pull_real,
        "pull_imag": pull_imag,
        "mean": [est.mean.real, est.mean.imag],
        "exact": [exact.real, exact.imag],
        "stderr_real": est.stderr_real,
        "stderr_imag": est.stderr_imag,
        "sigmas": sigmas,
        "samples": est.samples,
    }


def random_source_matrices(dim: int, seed: int) -> SourceMatrices:
    """Deterministic pseudo-random source pair on a reserved stream that the
    sample batches can never collide with.  Entries are scaled so traces of
    powers of JK stay of order one as the dimension grows."""
    _check_seed(seed)
    if dim < 1:
        raise ValueError("dimension must be at least 1")
    rng = np.random.Generator(
        np.random.Philox(key=(seed << 64) + _RESERVED_STREAM))
    scale = 1.0 / sqrt(2 * dim)

    def draw():
        return scale * (rng.standard_normal((dim, dim))
                        + 1j * rng.standard_normal((dim, dim)))

    return SourceMatrices(draw(), draw())
