"""The numeric layer: Haar sampling on the unitary and special unitary
groups with unbiased estimators and per-component error bars, and the
source matrices J, K at which the exact tables are evaluated in floating
point for comparison.  It is the package's only module that uses numpy.

Sampling is counter-based.  Samples come in batches of ``_batch_size(N)``
matrices: ``BATCH``, or fewer at large N so that one batch holds about
2**19 matrix entries (2048 samples at N = 16, 512 at N = 32).  Batch b is
drawn from its own Philox stream keyed by (seed << 64) + b, as one
standard_normal((count, N, N, 2)) array, so its first k samples are the
same whether k or the whole batch is drawn, and only the samples asked for
are drawn.  The value of sample s therefore depends only on (seed, N, s),
not on how many samples were requested.  Batches run on a thread pool of
at most one worker per visible core, and their moments are merged in batch
order, so every estimate is bit-identical for any worker count.  A worker
takes its batch in chunks of about 2**17 entries, so peak memory stays
small and does not depend on how the workers' batches overlap in time.

``estimate_trace_moment`` keeps the per-sample (tr KU, tr J U-dagger)
columns of its last call's batches of index below 2**19 / (2 * batch
size), 8 MB, keyed by group, N, seed, samples and the bytes of J and K.
A call with that key reads them instead of drawing those batches, so
samples and estimates are unchanged.
"""

from __future__ import annotations

import json
import os
from collections import deque
from dataclasses import dataclass
from math import factorial, isfinite, prod, sqrt
from pathlib import Path
from typing import Callable, Iterator, Sequence

import numpy as np

from .su_shifted import shifted_table
from .weingarten import SectorError, weingarten_table_character

BATCH = 8192
_BATCH_ENTRIES = 2 ** 19         # bounds one batch's working set at large N
_CHUNK_ENTRIES = 2 ** 17         # bounds one worker's live arrays
_CGS2_MAX_N = 7                  # measured crossover, see BENCH_8_sampler.json
_RESERVED_STREAM = 2 ** 64 - 1   # source-matrix stream; never a batch index
_MAX_SEED = 2 ** 63
MIN_TRACE_SAMPLES = 100
MIN_MONOMIAL_SAMPLES = 2         # the fewest that give a standard error
_ROUNDING_FLOOR = 8 * 2.0 ** -52  # relative: a few ulps of the compared values
_NOT_FINITE = "estimate is not finite: sampled values overflow double precision"
_CORES = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
          else os.cpu_count() or 1)

UNITARY = "unitary"
SPECIAL_UNITARY = "special_unitary"

_kept: tuple = (None, {})    # see the module docstring


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


@dataclass(frozen=True, eq=False)
class SourceMatrices:
    """A pair of square complex source matrices of matching dimension."""

    J: np.ndarray
    K: np.ndarray

    def __post_init__(self):
        j = np.asarray(self.J, dtype=complex)
        k = np.asarray(self.K, dtype=complex)
        if j.shape != k.shape or j.ndim != 2 or j.shape[0] != j.shape[1]:
            raise ValueError("J and K must be square matrices of equal size")
        if not (np.isfinite(j).all() and np.isfinite(k).all()):
            raise ValueError("J and K must have finite entries")
        object.__setattr__(self, "J", j)
        object.__setattr__(self, "K", k)

    @property
    def dim(self) -> int:
        return self.J.shape[0]

    def trace_powers(self, n_max: int) -> list[complex]:
        """[t_1, ..., t_n_max] with t_q = tr((JK)^q)."""
        m = self.J @ self.K
        out = []
        power = np.eye(self.dim, dtype=complex)
        for _ in range(n_max):
            power = power @ m
            out.append(complex(np.trace(power)))
        return out

    @classmethod
    def from_json_dict(cls, payload: dict) -> SourceMatrices:
        def decode(data):
            if len(data) != dim * dim or any(len(z) != 2 for z in data):
                raise ValueError("J and K must each be a flat list of N*N "
                                 "[re, im] pairs, row-major")
            return np.array([complex(re, im) for re, im in data]).reshape(
                dim, dim)

        try:
            dim = payload["N"]
            if type(dim) is not int or dim < 1:
                raise ValueError("source matrices need N as an integer >= 1")
            return cls(decode(payload["J"]), decode(payload["K"]))
        except (KeyError, TypeError, IndexError) as exc:
            raise ValueError("source matrices must be an object with N, J "
                             "and K, entries as [re, im] numbers") from exc

    @classmethod
    def from_json_file(cls, path: str | Path) -> SourceMatrices:
        with open(path, encoding="utf-8") as fh:
            return cls.from_json_dict(json.load(fh))

    def as_json_dict(self) -> dict:
        def encode(mat):
            return [[float(z.real), float(z.imag)] for z in mat.reshape(-1)]

        return {"N": self.dim, "J": encode(self.J), "K": encode(self.K)}


def _check_seed(seed: int) -> None:
    if not 0 <= seed < _MAX_SEED:
        raise ValueError("seed must satisfy 0 <= seed < 2**63")


def check_sampling(samples: int, seed: int, minimum: int) -> None:
    """Raise ValueError unless an estimator may draw this many samples
    (at least ``minimum``: ``MIN_TRACE_SAMPLES`` for
    ``estimate_trace_moment``, ``MIN_MONOMIAL_SAMPLES`` for
    ``estimate_monomial``) with this seed (0 <= seed < 2**63)."""
    if samples < minimum:
        raise ValueError(f"need at least {minimum} samples")
    _check_seed(seed)


def sample_haar(spec: GroupSpec, rng: np.random.Generator) -> np.ndarray:
    """One Haar-distributed matrix drawn from the given generator."""
    return _haar_batch(spec, 1, rng)[0]


def _haar_batch(spec: GroupSpec, count: int,
                rng: np.random.Generator) -> np.ndarray:
    """(count, N, N) stack of independent Haar samples.

    The Ginibre matrices are one standard_normal((count, N, N, 2)) draw
    viewed as complex, so the first k of them do not depend on count; with
    the per-N batch of ``_batch_size`` and the per-batch streams of
    ``_keyed_batch``, sample s depends only on (seed, N, s), and on no
    worker count.  Up
    to ``_CGS2_MAX_N`` they are orthonormalized by ``_cgs2``; above it by
    LAPACK QR with the R diagonal phase pushed back into Q, since raw QR is
    not Haar without that fix.  The special unitary projection divides by
    the principal N-th root of the determinant, exp(i arg(det Q) / N) since
    |det Q| = 1.
    """
    dim = spec.N
    if spec.group == SPECIAL_UNITARY and dim == 1:
        return np.ones((count, 1, 1), dtype=complex)
    z = rng.standard_normal((count, dim, dim, 2)).view(np.complex128)[..., 0]
    if dim <= _CGS2_MAX_N:
        q = _cgs2(z)
    else:
        q, r = np.linalg.qr(z)
        diag = np.diagonal(r, axis1=-2, axis2=-1)
        q = q * (diag / np.abs(diag))[:, None, :]
    if spec.group == SPECIAL_UNITARY:
        q = q * np.exp(-1j / dim * np.angle(_det(q)))[:, None, None]
    return q


def _cgs2(z: np.ndarray) -> np.ndarray:
    """Q of the factorization Z = QR whose R has a positive diagonal, by
    classical Gram-Schmidt run twice over the columns of each matrix.  The
    second pass restores orthogonality to rounding ("twice is enough",
    Giraud, Langou and Rozloznik 2005), and the positive diagonal makes Q
    Haar with no phase fix (Mezzadri, math-ph/0609050)."""
    count, dim, _ = z.shape
    cols = np.empty_like(z)    # cols[:, k] is column k of Q
    conj = np.empty_like(z)
    for k in range(dim):
        v = z[:, :, k]
        for _ in range(2 if k else 0):
            coeff = np.einsum("bki,bi->bk", conj[:, :k], v)
            v = v - np.einsum("bki,bk->bi", cols[:, :k], coeff)
        norm = np.sqrt(np.einsum("bi,bi->b", v.real, v.real)
                       + np.einsum("bi,bi->b", v.imag, v.imag))
        cols[:, k] = v / norm[:, None]
        np.conjugate(cols[:, k], out=conj[:, k])
    return cols.transpose(0, 2, 1)


def _det(q: np.ndarray) -> np.ndarray:
    """Determinants of a (count, N, N) stack with N >= 2, in closed form
    for N <= 3."""
    if q.shape[1] == 2:
        (a, b), (c, d) = np.moveaxis(q, 0, -1)
        return a * d - b * c
    if q.shape[1] == 3:
        (a, b, c), (d, e, f), (g, h, i) = np.moveaxis(q, 0, -1)
        return (a * (e * i - f * h) - b * (d * i - f * g)
                + c * (d * h - e * g))
    return np.linalg.det(q)


def _batch_size(dim: int) -> int:
    return max(1, min(BATCH, _BATCH_ENTRIES // dim ** 2))


def _keyed_batch(spec: GroupSpec, seed: int, index: int, count: int,
                 values_of: Callable = lambda u: u) -> np.ndarray:
    """values_of over the first count samples of batch index, drawn from the
    batch's own Philox stream in near-equal chunks of about _CHUNK_ENTRIES
    entries; the chunks continue the stream, so they are one draw."""
    rng = np.random.Generator(np.random.Philox(key=(seed << 64) + index))
    parts = min(count, -(-count * spec.N ** 2 // _CHUNK_ENTRIES))
    return np.concatenate([values_of(_haar_batch(
        spec, (k + 1) * count // parts - k * count // parts, rng))
        for k in range(parts)])


def _moments(values: np.ndarray) -> tuple[int, complex, float, float]:
    """(count, mean, M2 of the real parts, M2 of the imaginary parts)."""
    mean = complex(values.mean())
    return (values.size, mean,
            float(((values.real - mean.real) ** 2).sum()),
            float(((values.imag - mean.imag) ** 2).sum()))


def _estimate(spec: GroupSpec, samples: int, seed: int,
              batch_values: Callable[[int, int], np.ndarray]) -> MCEstimate:
    """Mean over samples 0..samples-1 of batch_values(index, count), the
    values of batch index's first count samples.  More than one batch runs
    on a pool of min(cores, batches) threads; the batch moments are merged
    in batch order whatever thread made them."""
    size = _batch_size(spec.N)
    batches = -(-samples // size)

    def moments(index: int) -> tuple[int, complex, float, float]:
        count = min(size, samples - index * size)
        # errstate holds per thread, so it is set where the batch runs;
        # values beyond double range become inf or nan and merged refuses them
        with np.errstate(over="ignore", invalid="ignore"):
            return _moments(batch_values(index, count))

    def merged(parts) -> MCEstimate:
        acc = _Accumulator()
        try:
            for part in parts:
                acc.add(*part)
        except OverflowError:    # squaring a batch mean beyond double range
            raise ValueError(_NOT_FINITE) from None
        est = acc.estimate(seed)
        if not all(map(isfinite, (est.mean.real, est.mean.imag,
                                  est.stderr_real, est.stderr_imag))):
            raise ValueError(_NOT_FINITE)
        return est

    workers = min(_CORES, batches)
    if workers <= 1:
        return merged(map(moments, range(batches)))
    # imported here: concurrent.futures costs every `import sunint` ~7 ms
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(workers) as pool:
        return merged(_ordered(pool, moments, batches, 2 * workers))


def _ordered(pool, fn: Callable[[int], tuple], count: int,
             ahead: int) -> Iterator[tuple]:
    """fn(0), ..., fn(count - 1) computed on pool and yielded in order, with
    at most ahead of them submitted and not yet yielded, so that a huge
    count does not queue one future per item the way pool.map does."""
    pending: deque = deque()
    for index in range(count):
        pending.append(pool.submit(fn, index))
        if len(pending) >= ahead:
            yield pending.popleft().result()
    while pending:
        yield pending.popleft().result()


class _Accumulator:
    """Streaming mean / second-moment accumulator over complex values,
    merged batch-by-batch with the associative (count, mean, M2) update."""

    def __init__(self):
        self.count = 0
        self.mean = complex(0)
        self.m2_real = 0.0
        self.m2_imag = 0.0

    def add(self, b: int, mean_b: complex, m2r: float, m2i: float) -> None:
        total = self.count + b
        delta = mean_b - self.mean
        if self.count:
            self.m2_real += m2r + delta.real ** 2 * self.count * b / total
            self.m2_imag += m2i + delta.imag ** 2 * self.count * b / total
        else:    # the first batch's delta has weight zero: do not square it
            self.m2_real += m2r
            self.m2_imag += m2i
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
    check_sampling(samples, seed, MIN_TRACE_SAMPLES)
    global _kept
    key = (spec, seed, samples, src.J.tobytes(), src.K.tobytes())
    kept_key, kept = _kept    # read once: other threads may replace it
    if kept_key != key:
        _kept = (key, (kept := {}))

    def columns(u: np.ndarray) -> np.ndarray:
        return np.stack([np.einsum("ij,bji->b", src.K, u), np.conj(
            np.einsum("ij,bij->b", np.conj(src.J), u))], axis=1)

    def batch_values(index: int, count: int) -> np.ndarray:
        traces = kept.get(index)
        if traces is None:
            traces = _keyed_batch(spec, seed, index, count, columns).T.copy()
            if index < _BATCH_ENTRIES // (2 * _batch_size(spec.N)):
                kept[index] = traces
        return traces[0] ** p * traces[1] ** n

    return _estimate(spec, samples, seed, batch_values)


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
    check_sampling(samples, seed, MIN_MONOMIAL_SAMPLES)

    def values_of(u: np.ndarray) -> np.ndarray:
        values = np.ones(u.shape[0], dtype=complex)
        for a, b in zip(i, j):
            values = values * u[:, a - 1, b - 1]
        for a, b in zip(k, l):
            values = values * np.conj(u[:, b - 1, a - 1])
        return values

    return _estimate(spec, samples, seed, lambda index, count: _keyed_batch(
        spec, seed, index, count, values_of))


def compare(est: MCEstimate, exact: complex, sigmas: float = 5.0) -> dict:
    """Pass/fail report for an estimate against an exact target: both the
    real and imaginary pulls must stay within the sigma budget.  Each
    component's standard error is floored at ``_ROUNDING_FLOOR`` times
    max(|mean|, |exact|), so a difference that is only rounding (as when
    every sample takes the same value, or a component is exactly zero) is
    not read as a many-sigma deviation."""
    if not (isfinite(sigmas) and sigmas > 0):
        raise ValueError("sigma budget must be finite and positive")
    exact = complex(exact)
    floor = _ROUNDING_FLOOR * max(abs(est.mean), abs(exact))

    def pull(diff: float, err: float) -> float:
        if diff == 0:
            return 0.0
        err = max(err, floor)
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


# -- exact tables at the source matrices --------------------------------------

def _trace_sum(build: Callable, n: int, src: SourceMatrices) -> complex:
    """Sum over alpha of build(n)[alpha] at N = dim times t_alpha, with the
    traces t_q = tr((JK)^q) computed once for the whole table.  The tables
    hold for weight n < dim only; at n = 0 the sum is 1."""
    if n < 0:
        raise ValueError("weight must be nonnegative")
    if n >= src.dim:
        raise SectorError(
            f"weight {n} not below dimension {src.dim}: outside validity domain")
    if n == 0:
        return complex(1)
    t = src.trace_powers(n)
    total = complex(0)
    for alpha, coeff in build(n).entries.items():
        monomial = prod((t[q - 1] ** m for q, m in alpha.items()),
                        start=complex(1))
        total += float(coeff.evaluate(src.dim)) * monomial
    return total


def eval_ordinary(n: int, src: SourceMatrices) -> complex:
    """Numeric value of the balanced generating integral of weight n:
    the Haar average of (tr KU)^n (tr J U-dagger)^n, computed as
    n! * sum over alpha of entry(alpha) at N=dim times t_alpha."""
    return _trace_sum(weingarten_table_character, n, src) * factorial(n)


def eval_shifted(n: int, src: SourceMatrices) -> complex:
    """Numeric value of the determinant-sector generating integral: the Haar
    average over SU(dim) of (tr KU)^(dim+n) (tr J U-dagger)^n, equal to
    det K times the coefficient-weighted sum of trace monomials t_alpha."""
    total = _trace_sum(shifted_table, n, src)
    det_k = complex(np.linalg.det(src.K))
    # at n = 0 the sum is 1, and a product with 1 can flip a signed zero
    return det_k * total if n else det_k
