"""The numeric layer: Haar sampling on the unitary and special unitary
groups with unbiased estimators and per-component error bars, and the
source matrices J, K at which the exact sectors are evaluated in floating
point for comparison.  It is the package's only module that uses numpy.

Sampling is counter-based.  Samples come in batches of ``_batch_size(N)``
matrices: ``BATCH``, or fewer at large N so that one batch holds about
2**19 matrix entries (2048 samples at N = 16, 512 at N = 32).  Batch b is
drawn from its own Philox stream keyed by (seed << 64) + b, as one
standard_normal array of N(N+1) normals per sample up to
``_REFLECTOR_MAX_N`` (Householder reflectors, see ``_haar_batch``) and 2N**2
above it (LAPACK QR), so its first k samples are the same whether k or the
whole batch is drawn, and only the samples asked for are drawn.  The value
of sample s therefore depends only on (seed, N, s), not on how many
samples were requested.  Batches run on a thread pool of at most one
worker per visible core, and their moments are merged in batch order, so
every estimate is bit-identical for any worker count.  A worker takes its
batch in chunks of about 2**15 entries, 512 KB per array, so an SU(32)
call of 1000 samples on two workers traces a peak of 4.6 MB.

Each thread that draws holds one working set for one estimator call, in a
``threading.local`` that ``_estimate`` makes per call.  Every chunk's draw
and, up to ``_REFLECTOR_MAX_N``, its vectors and Q, laid out sample-minor so
that each numpy loop runs over all of the chunk's samples, and the
reflectors' products are written into it; each chunk's trace columns go
straight into its batch's result.  Above it ``np.linalg.qr`` and, for
SU(N), ``np.linalg.det`` still allocate per chunk.

``estimate_trace_moment`` keeps the per-sample (tr KU, tr J U-dagger)
columns of its last call's batches of index below 2**19 / (2 * batch
size), 8 MB, keyed by group, N, seed, samples and the bytes of J and K.
A call with that key reads them instead of drawing those batches, so
samples and estimates are unchanged.  Such a call reduces each kept
batch in one pass on the calling thread, and starts a pool only for the
batches it still has to draw, when there are two or more.  A repeat call
at SU(3) with 65 536 samples, all kept, takes 0.35-0.63 ms for (p, n)
up to (2, 2) on a 2-vCPU box.
"""

from __future__ import annotations

import json
import os
import threading
from collections import deque
from dataclasses import dataclass
from math import factorial, isfinite, prod, sqrt
from numbers import Integral
from pathlib import Path
from typing import Callable, Iterator, Sequence

import numpy as np

from .partitions import class_size
from .weingarten import _class_function

BATCH = 8192
_BATCH_ENTRIES = 2 ** 19         # bounds one batch's working set at large N
_CHUNK_ENTRIES = 2 ** 15         # 512 KB arrays: a worker's ~4 fit a 2 MB L2
_REFLECTOR_MAX_N = 24            # measured, BENCH_37_sample_minor.json
_RESERVED_STREAM = 2 ** 64 - 1   # source-matrix stream; never a batch index
_MAX_SEED = 2 ** 63
# an N = 128 file, the sampling cap, is 2.2 MB with indent=2 and 2.9 MB with
# indent=4; parsing takes about 18 bytes of memory per byte of the file
_MAX_MATRICES_BYTES = 4 * 2 ** 20
# with fewer samples, a 5-sigma pull (compare) fails correct values by chance
MIN_SAMPLES = 100
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
        _check_integers("dimension", self.N)
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
        if j.shape != k.shape or j.ndim != 2 or not 0 < len(j) == j.shape[1]:
            raise ValueError("J and K must be square matrices of equal size "
                             "N >= 1")
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
            # exact types: a JSON true or false is a bool, an int subclass
            if any(type(x) not in (int, float) for z in data for x in z):
                raise TypeError("entries must be JSON numbers")
            return np.array([complex(re, im) for re, im in data]).reshape(
                dim, dim)

        try:
            dim = payload["N"]
            if type(dim) is not int or dim < 1:
                raise ValueError("source matrices need N as an integer >= 1")
            return cls(decode(payload["J"]), decode(payload["K"]))
        except (KeyError, TypeError, IndexError, OverflowError) as exc:
            raise ValueError("source matrices must be an object with N, J "
                             "and K, entries as [re, im] numbers") from exc

    @classmethod
    def from_json_file(cls, path: str | Path) -> SourceMatrices:
        with open(path, "rb") as fh:
            data = fh.read(_MAX_MATRICES_BYTES + 1)
        if len(data) > _MAX_MATRICES_BYTES:    # refused before it is parsed
            raise ValueError(
                f"matrices file is over {_MAX_MATRICES_BYTES} bytes")
        try:
            payload = json.loads(data.decode("utf-8"))
        except RecursionError:    # too deep to parse: refused as not
            payload = None        # an object, like any other payload
        return cls.from_json_dict(payload)

    def as_json_dict(self) -> dict:
        def encode(mat):
            return [[float(z.real), float(z.imag)] for z in mat.reshape(-1)]

        return {"N": self.dim, "J": encode(self.J), "K": encode(self.K)}


def _check_integers(what: str, *values) -> None:
    # Python and numpy integers pass; bool, float and the rest do not
    if any(isinstance(v, bool) or not isinstance(v, Integral) for v in values):
        raise ValueError(f"{what} must be an integer")


def _check_seed(seed: int) -> None:
    _check_integers("seed", seed)
    if not 0 <= seed < _MAX_SEED:
        raise ValueError("seed must satisfy 0 <= seed < 2**63")


def check_sampling(samples: int, seed: int) -> None:
    """Raise ValueError unless an estimator may draw this many samples
    (at least ``MIN_SAMPLES``) with this seed (0 <= seed < 2**63)."""
    _check_integers("sample count", samples)
    if samples < MIN_SAMPLES:
        raise ValueError(f"need at least {MIN_SAMPLES} samples")
    _check_seed(seed)


def sample_haar(spec: GroupSpec, rng: np.random.Generator) -> np.ndarray:
    """One Haar-distributed matrix drawn from the given generator."""
    return _haar_batch(spec, 1, rng)[0]


def _buffer(scratch: dict | None, name: str, shape: tuple,
            dtype: type = complex) -> np.ndarray:
    """An array of the given shape whose contents are undefined: a view of
    scratch's buffer of that name, grown when it is too small, or a fresh
    array when scratch is None."""
    if scratch is None:
        return np.empty(shape, dtype)
    size = prod(shape)
    buffer = scratch.get(name)
    if buffer is None or len(buffer) < size:
        buffer = scratch[name] = np.empty(size, dtype)
    return buffer[:size].reshape(shape)


def _haar_batch(spec: GroupSpec, count: int, rng: np.random.Generator,
                scratch: dict | None = None) -> np.ndarray:
    """(count, N, N) stack of independent Haar samples: the Q of Ginibre
    matrices' QR factorization whose R has a positive diagonal, Haar only
    with that phase fix (Mezzadri, math-ph/0609050).

    Up to ``_REFLECTOR_MAX_N`` no Ginibre matrix is drawn.  Householder's
    step k maps the column in its way to -e^(i theta_k) |x_k| e_1, and the
    reflector depends on that column alone, so the trailing block it leaves
    is a fresh Ginibre block (Stewart, SIAM J. Numer. Anal. 17 (1980) 403):
    each sample takes N(N+1)/2 complex normals, vectors x_k of length N - k,
    k = 0..N-1, one after another.  With e^(i theta_k) = x_k1 / |x_k1| and
    w_k = x_k + e^(i theta_k) |x_k| e_1, Q = H_0 ... H_(N-2) D, where H_k =
    1 - 2 w_k w_k^H / |w_k|^2 and D = diag(-e^(i theta_0), ...,
    -e^(i theta_(N-2)), e^(i theta_(N-1))) holds R's diagonal phases.  Each
    H_k has determinant -1, so det Q is the product of the e^(i theta_k).
    The x_k are transposed once and Q is built sample-minor, (N, N, count),
    the stack a view of it: each numpy loop of a step runs over all the
    chunk's samples, not over one matrix row of N - k entries, and no sum
    runs along the samples' axis.  Above it LAPACK QR of one
    standard_normal((count, N, N, 2)) draw is faster, with R's diagonal
    phases pushed into Q.  The special unitary projection divides by the
    principal N-th root of det Q, exp(i arg(det Q) / N); on the reflector
    path it scales D.

    The first k samples do not depend on count; with the per-N batch of
    ``_batch_size`` and the per-batch streams of ``_keyed_batch``, sample s
    depends only on (seed, N, s), and on no worker count.  The draw and the
    reflector path's Q are written into the buffers of scratch (see
    ``_buffer``), so with a scratch the stack is valid only until the next
    call with it.
    """
    dim = spec.N
    if spec.group == SPECIAL_UNITARY and dim == 1:
        return np.ones((count, 1, 1), dtype=complex)
    qr = dim > _REFLECTOR_MAX_N
    shape = (count, dim, dim, 2) if qr else (count, dim * (dim + 1) // 2, 2)
    # size= as well as out=: a subclass may read the size of the draw
    g = rng.standard_normal(size=shape, out=_buffer(
        scratch, "ginibre", shape, np.float64))
    x = g.view(np.complex128)[..., 0]
    if qr:
        q, r = np.linalg.qr(x)
        diag = np.diagonal(r, axis1=-2, axis2=-1)
        q *= (diag / np.abs(diag))[:, None, :]
        if spec.group == SPECIAL_UNITARY:
            q *= np.exp(-1j / dim * np.angle(np.linalg.det(q)))[:, None, None]
        return q
    starts = [k * dim - k * (k - 1) // 2 for k in range(dim)]
    t = _buffer(scratch, "outer", (dim * dim, count))[:shape[1]]
    np.copyto(t, x.T)    # sample-minor, and back into the draw's buffer
    np.copyto(x := g.reshape(-1).view(np.complex128).reshape(t.shape), t)
    q = _buffer(scratch, "haar", (dim, dim, count))
    q[:] = 0
    d = q.reshape(dim * dim, count)[::dim + 1]    # the diagonal of q
    # |x_k|^2 as sums of re^2 and im^2 rows; a lone column would be summed
    # pairwise, so the re and im columns are added only after the rows
    squares = np.square(x.view(np.float64), out=t.view(np.float64))
    norm = np.empty((dim, 2 * count))
    for k, start in enumerate(starts):
        np.add.reduce(squares[start:start + dim - k], axis=0, out=norm[k])
    norm = np.sqrt(norm[:, 0::2] + norm[:, 1::2])
    lead = np.abs(x[starts])                # |x_k1|
    np.divide(x[starts].real, lead, out=d.real)    # e^(i theta_k)
    np.divide(x[starts].imag, lead, out=d.imag)
    if spec.group == SPECIAL_UNITARY:
        det = d[0]    # np.prod multiplies a lone column in another order
        for k in range(1, dim):
            det = det * d[k]
        d *= np.exp(-1j / dim * np.angle(det))
    np.negative(d[:-1], out=d[:-1])
    inverse = 1 / (norm * (norm + lead))    # 2 / |w_k|^2
    norm /= lead                            # |x_k| / |x_k1|
    del lead                                # not held through the loop
    for k in range(dim - 2, -1, -1):    # H_k acts on the trailing block
        start, size = starts[k], dim - k
        block, w = q[k:, k:], x[start:start + size]
        w[0] += w[0] * norm[k]              # x_k becomes w_k in place
        u = np.conj(w)
        u *= inverse[k]                     # w_k^H / (|w_k|^2 / 2)
        part = np.multiply(u[:, None], block, out=_buffer(
            scratch, "outer", block.shape))
        block -= np.multiply(w[:, None], part.sum(axis=0), out=part)
    return q.transpose(2, 0, 1)


def _batch_size(dim: int) -> int:
    return max(1, min(BATCH, _BATCH_ENTRIES // dim ** 2))


def _keyed_batch(spec: GroupSpec, seed: int, index: int, out: np.ndarray,
                 values_of: Callable[[np.ndarray, np.ndarray], None],
                 scratch: dict) -> np.ndarray:
    """out, filled by values_of over the first count samples of batch index,
    count the length of out's last axis.  They are drawn from the batch's
    own Philox stream in near-equal chunks of about _CHUNK_ENTRIES entries,
    and the chunks continue the stream, so they are one draw.  values_of(u,
    part) writes the values of the chunk's (k, N, N) stack u into part, the
    chunk's k positions of out's last axis.  u lives in the buffers of
    scratch: it is valid only until values_of returns."""
    count = out.shape[-1]
    rng = np.random.Generator(np.random.Philox(key=(int(seed) << 64) + index))
    parts = min(count, -(-count * spec.N ** 2 // _CHUNK_ENTRIES))
    for k in range(parts):
        start, stop = k * count // parts, (k + 1) * count // parts
        values_of(_haar_batch(spec, stop - start, rng, scratch),
                  out[..., start:stop])
    return out


def _estimate(spec: GroupSpec, samples: int, seed: int,
              batch_values: Callable[[int, int, dict], np.ndarray],
              ready: frozenset = frozenset()) -> MCEstimate:
    """Mean over samples 0..samples-1 of batch_values(index, count,
    scratch), the values of batch index's first count samples, as a fresh
    array that is reduced in place; scratch is the working set of the
    thread that runs it, for this call only.  The batches in ready have
    their values without a draw, and are reduced on the calling thread, one
    pass each: a call with every batch ready starts no thread and costs
    about its arithmetic alone.  When two or more batches must be drawn,
    they run meanwhile on a pool of min(cores, those batches) threads.  The
    batch moments are merged in batch order whatever thread made them, so
    the estimate is the same for any worker count."""
    size = _batch_size(spec.N)
    batches = -(-samples // size)
    workspace = threading.local()    # made per call: no buffer outlives it

    def moments(index: int) -> tuple[int, complex, float, float]:
        """(count, mean, M2 of the real parts, M2 of the imaginary parts)."""
        count = min(size, samples - index * size)
        # errstate holds per thread, so it is set where the batch runs;
        # values beyond double range become inf or nan and merged refuses them
        with np.errstate(over="ignore", invalid="ignore"):
            values = batch_values(index, count, vars(workspace))
            mean = complex(values.mean())
            values -= mean
            squares = values.view(np.float64)    # re, im, re, im, ...
            np.square(squares, out=squares)
            return (values.size, mean, float(squares[0::2].sum()),
                    float(squares[1::2].sum()))

    def merged(parts) -> MCEstimate:
        """The batch moments combined in order by the associative
        (count, mean, M2) update."""
        count, mean, m2_real, m2_imag = 0, complex(0), 0.0, 0.0
        try:
            for b, mean_b, m2r, m2i in parts:
                total = count + b
                delta = mean_b - mean
                if count:
                    m2_real += m2r + delta.real ** 2 * count * b / total
                    m2_imag += m2i + delta.imag ** 2 * count * b / total
                else:    # the first delta has weight zero: do not square it
                    m2_real += m2r
                    m2_imag += m2i
                mean += delta * (b / total)
                count = total
        except OverflowError:    # squaring a batch mean beyond double range
            raise ValueError(_NOT_FINITE) from None
        # count >= 2: every estimator calls check_sampling first
        scale = 1.0 / ((count - 1) * count)
        stderr = sqrt(m2_real * scale), sqrt(m2_imag * scale)
        if not all(map(isfinite, (mean.real, mean.imag, *stderr))):
            raise ValueError(_NOT_FINITE)
        return MCEstimate(mean, *stderr, samples=count, seed=seed)

    drawn = [index for index in range(batches) if index not in ready]
    workers = min(_CORES, len(drawn))
    if workers <= 1:
        return merged(map(moments, range(batches)))
    # imported here: concurrent.futures takes ~7 ms to import, which a
    # single-batch call (most `sunint mc` commands) never needs
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(workers) as pool:
        pooled = _ordered(pool, lambda k: moments(drawn[k]), len(drawn),
                          2 * workers)
        return merged(moments(index) if index in ready else next(pooled)
                      for index in range(batches))


def _ordered(pool, fn: Callable[[int], tuple], count: int,
             ahead: int) -> Iterator[tuple]:
    """fn(0), ..., fn(count - 1) computed on pool and yielded in order, with
    at most ahead of them submitted and not yet yielded, so that a huge
    count does not queue one future per item the way pool.map does.  The
    first ahead are submitted before this returns, so the pool is busy
    while the caller does other work before taking a result."""
    pending = deque(pool.submit(fn, index)
                    for index in range(min(ahead, count)))

    def results() -> Iterator[tuple]:
        for index in range(ahead, ahead + count):
            yield pending.popleft().result()
            if index < count:
                pending.append(pool.submit(fn, index))

    return results()


def _power(x: np.ndarray, e: int) -> np.ndarray:
    """x ** e, bit for bit, without numpy's general complex power for
    e = 0 and 1, which costs about ten copies of x.  x ** 1 is x itself,
    except that it gives every zero, of either sign, as +0+0j."""
    if e == 0:
        return np.ones_like(x)
    if e == 1:
        return x if x.all() else np.where(x == 0, 0, x)
    return x ** e


def _trace_columns(src: SourceMatrices, u: np.ndarray,
                   out: np.ndarray) -> None:
    """Write tr KU and tr J U-dagger for each matrix of the stack u into
    the rows of out, (2, count).  einsum sums a lone matrix in another order
    than a stack (at N >= 3 up to ``_REFLECTOR_MAX_N``, N >= 91 above it),
    so a lone matrix is given a twin laid out as that N's stacks are: each
    sample's value does not depend on the samples beside it."""
    if len(u) == 1:
        axis = 2 if len(u[0]) <= _REFLECTOR_MAX_N else 0
        twin = np.empty((2, 2), dtype=complex)
        _trace_columns(src, np.moveaxis(np.stack([u[0], u[0]], axis), axis,
                                        0), twin)
        out[:] = twin[:, :1]
        return
    np.einsum("ij,bji->b", src.K, u, out=out[0])
    np.einsum("ij,bij->b", np.conj(src.J), u, out=out[1])
    np.conjugate(out[1], out=out[1])


def estimate_trace_moment(p: int, n: int, src: SourceMatrices,
                          spec: GroupSpec, samples: int,
                          seed: int) -> MCEstimate:
    """Monte Carlo estimate of the Haar average of
    (tr KU)^p (tr J U-dagger)^n."""
    if spec.N != src.dim:
        raise ValueError(
            f"group dimension {spec.N} does not match matrices {src.dim}")
    _check_integers("each exponent", p, n)
    if p < 0 or n < 0:
        raise ValueError("exponents must be nonnegative")
    check_sampling(samples, seed)
    global _kept
    key = (spec, seed, samples, src.J.tobytes(), src.K.tobytes())
    kept_key, kept = _kept    # read once: other threads may replace it
    if kept_key != key:
        _kept = (key, (kept := {}))

    def batch_values(index: int, count: int, scratch: dict) -> np.ndarray:
        traces = kept.get(index)
        if traces is None:
            traces = _keyed_batch(
                spec, seed, index, np.empty((2, count), dtype=complex),
                lambda u, out: _trace_columns(src, u, out), scratch)
            if index < _BATCH_ENTRIES // (2 * _batch_size(spec.N)):
                kept[index] = traces
        # a product is a fresh array: the kept columns are never reduced
        return _power(traces[0], p) * _power(traces[1], n)

    # entries are only ever added to kept, so a batch seen now stays there
    return _estimate(spec, samples, seed, batch_values, frozenset(kept))


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
        _check_integers("each index", *lists)
        if any(not 1 <= x <= spec.N for x in lists):
            raise ValueError("index out of range")
    check_sampling(samples, seed)

    def values_of(u: np.ndarray, out: np.ndarray) -> None:
        # not out *= ...: numpy multiplies one complex pair in place with
        # another rounding than out of place
        values = np.ones(u.shape[0], dtype=complex)
        for a, b in zip(i, j):
            values = values * u[:, a - 1, b - 1]
        for a, b in zip(k, l):
            values = values * np.conj(u[:, b - 1, a - 1])
        out[:] = values

    return _estimate(
        spec, samples, seed, lambda index, count, scratch: _keyed_batch(
            spec, seed, index, np.empty(count, dtype=complex), values_of,
            scratch))


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
    _check_integers("dimension", dim)
    if dim < 1:
        raise ValueError("dimension must be at least 1")
    rng = np.random.Generator(
        np.random.Philox(key=(int(seed) << 64) + _RESERVED_STREAM))
    scale = 1.0 / sqrt(2 * dim)

    def draw():
        return scale * (rng.standard_normal((dim, dim))
                        + 1j * rng.standard_normal((dim, dim)))

    return SourceMatrices(draw(), draw())


# -- exact values at the source matrices --------------------------------------

def _trace_sum(n: int, dim: int, scale: int, src: SourceMatrices) -> complex:
    """Sum over classes alpha of weight n of scale * class_size(alpha) *
    C(alpha) at N = dim, rounded to float once, times t_alpha, with the
    traces t_q = tr((JK)^q) computed once for all classes."""
    t = src.trace_powers(n)
    total = complex(0)
    for alpha, c in _class_function(n, dim).items():    # refuses n < 0
        monomial = prod((t[q - 1] ** m for q, m in alpha.items()),
                        start=complex(1))
        total += float(scale * class_size(alpha) * c) * monomial
    return total


def eval_ordinary(n: int, src: SourceMatrices) -> complex:
    """Numeric value of the balanced generating integral of weight n: the
    Haar average of (tr KU)^n (tr J U-dagger)^n over U(dim) or SU(dim),
    n! times the sum over alpha of class_size(alpha) C(alpha) t_alpha."""
    return _trace_sum(n, src.dim, 1, src) * factorial(n)


def eval_shifted(n: int, src: SourceMatrices) -> complex:
    """Numeric value of the determinant-sector generating integral: the Haar
    average over SU(dim) of (tr KU)^(dim+n) (tr J U-dagger)^n, equal to
    det K times the sum over alpha of (dim+1)...(dim+n) class_size(alpha)
    C(alpha) at N = dim+1 times t_alpha."""
    dim = src.dim
    total = _trace_sum(n, dim + 1, prod(range(dim + 1, dim + n + 1)), src)
    det_k = complex(np.linalg.det(src.K))
    # at n = 0 the sum is 1, and a product with 1 can flip a signed zero
    return det_k * total if n else det_k
