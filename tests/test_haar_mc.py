"""Haar sampler quality, estimator correctness, and determinism contracts."""

import ast
import concurrent.futures
import gc
import importlib.util
import json
import os
import sys
import threading
import tracemalloc
import weakref
from concurrent.futures import Future
from fractions import Fraction
from math import factorial, prod
from pathlib import Path

import numpy as np
import pytest

from sunint import haar_mc
from sunint.haar_mc import (
    _REFLECTOR_MAX_N,
    SPECIAL_UNITARY,
    UNITARY,
    GroupSpec,
    MCEstimate,
    SourceMatrices,
    _batch_size,
    _haar_batch,
    _keyed_batch,
    check_sampling,
    compare,
    estimate_monomial,
    estimate_trace_moment,
    random_source_matrices,
    sample_haar,
)
from sunint.weingarten import monomial_integral

SIGMAS = 5.0
# the last N built from reflectors, and the first built by LAPACK QR
CROSSOVER = (_REFLECTOR_MAX_N, _REFLECTOR_MAX_N + 1)
EXACT_MODULES = ("exactmath", "partitions", "weingarten", "su_shifted",
                 "largen", "reference")


def _matrices(spec, seed, index, count, scratch=None):
    """The first count Haar matrices of batch index, each chunk copied out
    of the working set before the next chunk is drawn into it."""
    chunks = []
    _keyed_batch(spec, seed, index, np.empty(count),
                 lambda u, out: chunks.append(u.copy()),
                 {} if scratch is None else scratch)
    return np.concatenate(chunks)


def _fresh(call):
    """call() after the kept trace columns are cleared, so that it draws
    every batch."""
    haar_mc._kept = (None, {})
    return call()


def _imports(module: str) -> set[str]:
    """Modules that one package module imports, read from its source:
    package modules as sunint.<name>, others by their dotted name."""
    path = Path(haar_mc.__file__).parent / f"{module}.py"
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                base = "sunint." + base if base else "sunint"
            if base == "sunint":
                names.update("sunint." + alias.name for alias in node.names)
            else:
                names.add(base)
    return names


@pytest.mark.parametrize("module", EXACT_MODULES)
def test_exact_modules_import_only_stdlib_and_exact_modules(module):
    for name in _imports(module):
        top, _, rest = name.partition(".")
        if top == "sunint":
            assert rest in EXACT_MODULES, name
        else:
            assert top in sys.stdlib_module_names, name


def test_haar_mc_is_the_only_module_importing_numpy():
    package = Path(haar_mc.__file__).parent
    users = {path.stem for path in package.glob("*.py")
             if any(name.partition(".")[0] == "numpy"
                    for name in _imports(path.stem))}
    assert users == {"haar_mc"}


def test_group_spec_validation():
    with pytest.raises(ValueError):
        GroupSpec("orthogonal", 3)
    with pytest.raises(ValueError):
        GroupSpec(UNITARY, 0)
    # a count must be a Python or numpy integer, and not a bool
    for dim in (2.5, 3.0, True, np.float64(3)):
        with pytest.raises(ValueError, match="dimension must be an integer"):
            GroupSpec(UNITARY, dim)
    assert GroupSpec(UNITARY, np.int64(2)).N == 2


def test_random_source_matrices_rejects_dimension_below_1():
    for dim in (0, -1):
        with pytest.raises(ValueError, match="dimension must be at least 1"):
            random_source_matrices(dim, 0)
    for dim in (2.5, True):
        with pytest.raises(ValueError, match="dimension must be an integer"):
            random_source_matrices(dim, 0)
    assert random_source_matrices(1, 0).dim == 1
    # a numpy seed names the same stream as the Python int (a 64-bit shift
    # of it would wrap to seed 0)
    a, b = random_source_matrices(np.int64(2), np.int64(5)), \
        random_source_matrices(2, 5)
    assert (a.J == b.J).all() and (a.K == b.K).all()


def test_unitarity_and_determinant_residuals():
    # both sides of the reflector / LAPACK crossover, and the sampling cap
    for dim in [*range(1, _REFLECTOR_MAX_N + 2), 16, 32, 128]:
        for group in (UNITARY, SPECIAL_UNITARY):
            spec = GroupSpec(group, dim)
            rng = np.random.Generator(np.random.Philox(key=3))
            u = _haar_batch(spec, 1000 if dim <= 32 else 20, rng)
            gram = np.conj(np.transpose(u, (0, 2, 1))) @ u
            assert np.abs(gram - np.eye(dim)).max() < 1e-12
            if group == SPECIAL_UNITARY:
                assert np.abs(np.linalg.det(u) - 1).max() < 1e-12


def _reflector_phases(dim, count, key):
    """e^(i theta_k) = x_k1 / |x_k1| of the draw that _haar_batch makes for
    count matrices on the stream key: vector x_k of length N - k starts at
    kN - k(k-1)/2 in each matrix's N(N+1)/2 complex normals."""
    rng = np.random.Generator(np.random.Philox(key=key))
    x = rng.standard_normal((count, dim * (dim + 1) // 2, 2)).view(
        np.complex128)[..., 0]
    first = x[:, [k * dim - k * (k - 1) // 2 for k in range(dim)]]
    return first / np.abs(first)


def test_determinant_is_the_product_of_the_reflector_phases():
    # det Q = prod_k e^(i theta_k), since each reflector has determinant -1
    # and D holds N - 1 phases with a minus sign; SU(N) scales the same
    # sample by the principal N-th root of that product
    for dim in range(1, _REFLECTOR_MAX_N + 1):
        phases = np.prod(_reflector_phases(dim, 200, 5), axis=1)
        u, s = (_haar_batch(GroupSpec(group, dim), 200,
                            np.random.Generator(np.random.Philox(key=5)))
                for group in (UNITARY, SPECIAL_UNITARY))
        assert np.abs(np.linalg.det(u) - phases).max() < 1e-12, dim
        root = np.exp(1j / dim * np.angle(phases))[:, None, None]
        assert np.abs(s * root - u).max() < 1e-12, dim
        assert np.abs(np.linalg.det(s) - 1).max() < 1e-12, dim


def test_su1_is_trivial():
    rng = np.random.Generator(np.random.Philox(key=1))
    u = sample_haar(GroupSpec(SPECIAL_UNITARY, 1), rng)
    assert u.shape == (1, 1)
    assert u[0, 0] == 1


def test_first_moment_and_orthogonality():
    # |U_11|^2 averages to 1/N on the unitary group
    spec = GroupSpec(UNITARY, 3)
    est = estimate_monomial([1], [1], [1], [1], spec, 10**5, 21)
    assert compare(est, Fraction(1, 3), SIGMAS)["pass"]
    # off-diagonal covariance vanishes
    est = estimate_monomial([1], [1], [2], [2], spec, 10**5, 22)
    assert compare(est, 0, SIGMAS)["pass"]
    # first moment of tr U vanishes on SU(2)
    spec2 = GroupSpec(SPECIAL_UNITARY, 2)
    src = random_source_matrices(2, 5)
    eye = type(src)(np.eye(2), np.eye(2))
    est = estimate_trace_moment(1, 0, eye, spec2, 10**5, 23)
    assert compare(est, 0, SIGMAS)["pass"]


def test_monomial_estimate_matches_exact_tensor():
    spec = GroupSpec(UNITARY, 3)
    exact = monomial_integral([1, 2], [1, 2], [1, 2], [1, 2], 3)
    est = estimate_monomial([1, 2], [1, 2], [1, 2], [1, 2], spec, 10**5, 31)
    assert compare(est, exact, SIGMAS)["pass"]


def test_epsilon_entries_at_dim_2():
    spec = GroupSpec(SPECIAL_UNITARY, 2)
    est = estimate_monomial([1, 2], [1, 2], [], [], spec, 10**5, 41)
    assert compare(est, 0.5, SIGMAS)["pass"]
    est = estimate_monomial([1, 2], [2, 1], [], [], spec, 10**5, 42)
    assert compare(est, -0.5, SIGMAS)["pass"]


def test_selection_rule_sectors_vanish():
    spec = GroupSpec(SPECIAL_UNITARY, 3)
    src = random_source_matrices(3, 9)
    for p, n in ((1, 0), (2, 1), (3, 2), (2, 0), (3, 1), (4, 2),
                 (4, 0), (5, 1), (5, 0)):
        assert (p - n) % 3 != 0
        est = estimate_trace_moment(p, n, src, spec, 2 * 10**4, 50 + p + 7 * n)
        assert compare(est, 0, SIGMAS)["pass"], (p, n)


def test_trivial_moment_is_exact():
    spec = GroupSpec(SPECIAL_UNITARY, 3)
    src = random_source_matrices(3, 1)
    est = estimate_trace_moment(0, 0, src, spec, 100, 1)
    assert est.mean == 1
    assert est.stderr_real == 0
    assert est.stderr_imag == 0
    assert est.samples == 100


def test_seed_determinism_and_stream_slicing():
    spec = GroupSpec(SPECIAL_UNITARY, 3)
    src = random_source_matrices(3, 2)
    a = _fresh(lambda: estimate_trace_moment(2, 2, src, spec, 12000, 7))
    b = _fresh(lambda: estimate_trace_moment(2, 2, src, spec, 12000, 7))
    assert a == b
    # sample s depends only on (seed, N, s): it is entry s % size of batch
    # s // size, whose stream is keyed by the seed and the batch index, and
    # the last batch of a run is cut to the samples asked for
    for dim in (3, 16):
        spec = GroupSpec(UNITARY, dim)
        size = _batch_size(dim)
        samples = 2 * size + 5
        u = np.concatenate([
            _matrices(spec, 7, b, min(size, samples - b * size))
            for b in range(3)])
        assert u.shape == (samples, dim, dim)
        values = u[:, 0, 1] * np.conj(u[:, 0, 1])
        est = estimate_monomial([1], [2], [2], [1], spec, samples, 7)
        assert est.mean == pytest.approx(values.mean(), rel=1e-12)
        assert est.stderr_real == pytest.approx(
            values.real.std(ddof=1) / samples ** 0.5, rel=1e-9)


@pytest.mark.parametrize("group", [UNITARY, SPECIAL_UNITARY])
@pytest.mark.parametrize("dim", [1, 2, 3, 5, 16, *CROSSOVER])
def test_batch_draw_is_prefix_stable(group, dim):
    spec = GroupSpec(group, dim)
    full = _matrices(spec, 13, 4, _batch_size(dim))
    assert (_matrices(spec, 13, 4, 100) == full[:100]).all()


@pytest.mark.parametrize("group", [UNITARY, SPECIAL_UNITARY])
@pytest.mark.parametrize("dim", [3, 7, 8, 32, 400])
def test_chunked_batch_is_one_draw(group, dim):
    # a worker draws its batch in chunks of about _CHUNK_ENTRIES entries
    # from the batch's one stream: together they are the samples of a
    # single draw of the whole batch, bit for bit
    spec = GroupSpec(group, dim)
    size = _batch_size(dim)
    chunks = []
    _keyed_batch(spec, 13, 4, np.empty(size),
                 lambda u, out: chunks.append(len(u)), {})
    chunks = np.array(chunks)
    assert chunks.sum() == size and chunks.min() >= 1
    assert chunks.max() * dim ** 2 <= haar_mc._CHUNK_ENTRIES + dim ** 2
    one = _haar_batch(spec, size, np.random.Generator(
        np.random.Philox(key=(13 << 64) + 4)))
    assert (_matrices(spec, 13, 4, size) == one).all()


def _fresh_array_matrices(spec, seed, index, count):
    """The first count matrices of batch index built from fresh arrays: one
    draw on the batch's stream, then, up to the crossover, the vectors x_k
    laid out sample-minor, (N(N+1)/2, count), and the reflectors applied to
    D from the last to the first, each as products of fresh (N - k, N - k,
    count) arrays; above it LAPACK QR with R's diagonal phases pushed into
    Q."""
    rng = np.random.Generator(np.random.Philox(key=(seed << 64) + index))
    dim, special = spec.N, spec.group == SPECIAL_UNITARY
    if dim > _REFLECTOR_MAX_N:
        z = rng.standard_normal((count, dim, dim, 2)).view(
            np.complex128)[..., 0]
        q, r = np.linalg.qr(z)
        diag = np.diagonal(r, axis1=-2, axis2=-1)
        q = q * (diag / np.abs(diag))[:, None, :]
        if special:
            q = q * np.exp(-1j / dim * np.angle(np.linalg.det(q)))[:, None,
                                                                   None]
        return np.ascontiguousarray(q)
    if special and dim == 1:
        return np.ones((count, 1, 1), dtype=complex)
    g = rng.standard_normal((count, dim * (dim + 1) // 2, 2))
    x = np.ascontiguousarray(g.view(np.complex128)[..., 0].T)
    starts = [k * dim - k * (k - 1) // 2 for k in range(dim)]
    squares = np.square(x.view(np.float64))
    sums = np.array([squares[start:start + dim - k].sum(axis=0)
                     for k, start in enumerate(starts)])
    norm = np.sqrt(sums[:, 0::2] + sums[:, 1::2])
    lead = np.abs(x[starts])
    phase = np.empty_like(x[starts])
    phase.real, phase.imag = x[starts].real / lead, x[starts].imag / lead
    d = np.concatenate([-phase[:-1], phase[-1:]])
    if special:
        det = phase[0]
        for k in range(1, dim):
            det = det * phase[k]
        d = d * np.exp(-1j / dim * np.angle(det))
    q = np.zeros((dim, dim, count), dtype=complex)
    q[range(dim), range(dim)] = d
    inverse, ratio = 1 / (norm * (norm + lead)), norm / lead
    for k in reversed(range(dim - 1)):
        first, part = starts[k], slice(starts[k] + 1, starts[k] + dim - k)
        w = np.concatenate([x[first:first + 1] + x[first:first + 1]
                            * ratio[k], x[part]])
        u = np.conj(w) * inverse[k]
        v = (u[:, None] * q[k:, k:]).sum(axis=0)
        q[k:, k:] = q[k:, k:] - w[:, None] * v
    return q.transpose(2, 0, 1)


@pytest.mark.parametrize("group", [UNITARY, SPECIAL_UNITARY])
@pytest.mark.parametrize("dim", [2, 3, 7, 8, 16, *CROSSOVER, 32])
def test_reused_buffers_never_leak_stale_data(monkeypatch, group, dim):
    # one working set serves every chunk of several batches, of unequal
    # sizes, after a batch at another N has filled it: a chunk that read
    # anything it had not written itself would differ in some bit from the
    # same samples built from fresh arrays. 2**13 entries cut each whole
    # batch into 4 (N = 2) to 64 chunks
    monkeypatch.setattr(haar_mc, "_CHUNK_ENTRIES", 2 ** 13)
    spec = GroupSpec(group, dim)
    size = _batch_size(dim)
    scratch = {}
    _matrices(GroupSpec(group, 5), 9, 0, _batch_size(5), scratch)
    for index, count in ((4, size), (5, size // 2 + 3), (6, size)):
        u = _matrices(spec, 9, index, count, scratch)
        assert u.tobytes() == _fresh_array_matrices(
            spec, 9, index, count).tobytes(), (index, count)


@pytest.mark.parametrize("group", [UNITARY, SPECIAL_UNITARY])
@pytest.mark.parametrize("dim", [2, 3, 16, _REFLECTOR_MAX_N])
def test_short_chunks_are_prefixes_of_a_long_one(group, dim):
    # the reflector path runs each numpy loop over all of a chunk's samples
    # and never sums along the samples' axis: a chunk of 1, 2 or 37
    # matrices is the start of a 129-matrix chunk, bit for bit
    spec = GroupSpec(group, dim)

    def chunk(count):
        rng = np.random.Generator(np.random.Philox(key=8))
        return _haar_batch(spec, count, rng, {}).copy()

    full = chunk(129)
    for count in (1, 2, 37):
        assert chunk(count).tobytes() == full[:count].tobytes(), count


@pytest.mark.parametrize("group", [UNITARY, SPECIAL_UNITARY])
@pytest.mark.parametrize("dim", [3, 8])
def test_sample_haar_returns_an_owned_matrix(group, dim):
    # a later draw must not write into a matrix already handed out
    spec = GroupSpec(group, dim)
    rng = np.random.Generator(np.random.Philox(key=4))
    first = sample_haar(spec, rng)
    before = first.copy()
    second = sample_haar(spec, rng)
    assert first.tobytes() == before.tobytes()
    assert (second != first).any()


def test_every_draw_states_its_size(monkeypatch):
    # a Generator subclass that counts normals from size, as the
    # benchmark's counter does, sees every normal a call draws
    src = random_source_matrices(3, 1)
    dim = CROSSOVER[1]
    wide = random_source_matrices(dim, 1)
    sizes = []

    class Counting(np.random.Generator):
        def standard_normal(self, size=None, *args, **kwargs):
            sizes.append(size)
            return super().standard_normal(size, *args, **kwargs)

    monkeypatch.setattr(np.random, "Generator", Counting)
    _fresh(lambda: estimate_trace_moment(1, 1, src, GroupSpec(UNITARY, 3),
                                         1000, 1))
    # a chunk of k matrices draws k N(N+1) normals, N(N+1)/2 complex ones
    # per matrix, and so does sample_haar
    assert sizes and all(size[1:] == (6, 2) for size in sizes)
    assert sum(prod(size) for size in sizes) == 1000 * 3 * 4
    sizes.clear()
    sample_haar(GroupSpec(SPECIAL_UNITARY, 3), np.random.Generator(
        np.random.Philox(key=1)))
    assert sizes == [(1, 6, 2)]
    # above the crossover, the whole Ginibre matrix: 2 N^2 normals each
    sizes.clear()
    _fresh(lambda: estimate_trace_moment(1, 1, wide, GroupSpec(UNITARY, dim),
                                         1000, 1))
    assert sum(prod(size) for size in sizes) == 1000 * 2 * dim ** 2


def test_no_working_set_outlives_a_call(monkeypatch):
    # each thread's buffers live for one estimator call: none is reachable
    # after it, and the module's globals hold no array and no thread-local
    # store except the documented kept trace columns
    buffers = []
    grow = haar_mc._buffer

    def recorded(scratch, name, shape, dtype=complex):
        view = grow(scratch, name, shape, dtype)
        if scratch is not None:
            buffers.append(weakref.ref(scratch[name]))
        return view

    def holds_state(value):
        if isinstance(value, dict):
            value = list(value.values())
        if isinstance(value, (tuple, list, set, frozenset)):
            return any(map(holds_state, value))
        return isinstance(value, (np.ndarray, threading.local))

    monkeypatch.setattr(haar_mc, "_buffer", recorded)
    for cores in (1, 2):
        monkeypatch.setattr(haar_mc, "_CORES", cores)
        for dim in CROSSOVER:    # the reflector path, then the QR path
            spec = GroupSpec(SPECIAL_UNITARY, dim)
            src = random_source_matrices(dim, 3)
            samples = 2 * _batch_size(dim) + 5
            _fresh(lambda: estimate_trace_moment(1, 1, src, spec, samples,
                                                 3))
            estimate_monomial([1], [2], [2], [1], spec, samples, 3)
    gc.collect()
    assert buffers and all(ref() is None for ref in buffers)
    assert [name for name, value in vars(haar_mc).items()
            if name != "_kept" and holds_state(value)] == []


@pytest.mark.parametrize("group", [UNITARY, SPECIAL_UNITARY])
@pytest.mark.parametrize("dim", [3, 8, *CROSSOVER, 32])
def test_chunk_size_is_not_a_sampling_parameter(monkeypatch, group, dim):
    # the chunk bounds a worker's memory only: the samples and both
    # estimators' results are the same, bit for bit, at any chunk size
    spec = GroupSpec(group, dim)
    src = random_source_matrices(dim, 6)
    samples = _batch_size(dim) + 37
    runs = []
    for entries in (2 ** 10, 2 ** 15, 2 ** 17):
        monkeypatch.setattr(haar_mc, "_CHUNK_ENTRIES", entries)
        runs.append((
            _matrices(spec, 6, 1, 37),
            _fresh(lambda: estimate_trace_moment(2, 1, src, spec, samples, 6)),
            estimate_monomial([1, 2], [2, 1], [1], [dim], spec, samples, 6)))
    for u, trace, monomial in runs[1:]:
        assert (u == runs[0][0]).all()
        assert trace == runs[0][1] and monomial == runs[0][2]


def test_no_lone_sample_in_a_chunk_where_two_fit(monkeypatch):
    # at N = 128 numpy's einsum sums one lone matrix in another order than
    # a stack, so a lone sample would change tr JU-dagger in its last bits.
    # 101 samples end in a batch of 5, which 2**15 entries cut 1, 2, 2 and
    # 2**17 entries leave whole; the lone sample's traces are taken with a
    # twin, so the estimate is the same
    spec = GroupSpec(UNITARY, 128)
    src = random_source_matrices(128, 2)
    runs = []
    for entries in (2 ** 15, 2 ** 17):
        monkeypatch.setattr(haar_mc, "_CHUNK_ENTRIES", entries)
        runs.append(_fresh(lambda: estimate_trace_moment(1, 1, src, spec,
                                                         101, 2)))
    assert runs[0] == runs[1]


def _phase_sources(dim):
    """K a diagonal of phases and J = K-dagger: JK = 1, and the balanced
    integrand |tr KU|^(2n) is real and nonnegative."""
    k = np.diag(np.exp(1j * np.array([0.4, 1.3, -2.1, 2.7, -0.8][:dim])))
    return SourceMatrices(k.conj(), k)


@pytest.mark.parametrize("group", [UNITARY, SPECIAL_UNITARY])
@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
def test_sectors_at_weight_up_from_dim_pass_mc(group, dim):
    # the balanced sector on both groups and the shifted one on SU(N), from
    # weight N, where the character sum drops the diagrams with more than N
    # rows (N + 1 one dimension up), to weight 6; one key, so the kept
    # columns serve every moment. Each weight is one whose stderr is under
    # 5% of the value: at N = 4 the shifted sector reaches that up to
    # n = 5, at N = 5 the balanced one at n = 5 and the shifted one only up
    # to n = 2. The shifted sector sees D's phases and the SU phase
    balanced, shifted = {4: (range(4, 7), range(4, 6)),
                         5: (range(5, 6), range(0, 3))}.get(
                             dim, (range(dim, 7), range(dim, 7)))
    spec = GroupSpec(group, dim)
    src = _phase_sources(dim)
    cases = [(n, n, haar_mc.eval_ordinary(n, src)) for n in balanced]
    if group == SPECIAL_UNITARY:
        cases += [(dim + n, n, haar_mc.eval_shifted(n, src)) for n in shifted]
    for p, n, exact in cases:
        est = estimate_trace_moment(p, n, src, spec, 200_000, 5)
        assert compare(est, exact, SIGMAS)["pass"], (p, n)
        assert max(est.stderr_real, est.stderr_imag) < 0.05 * abs(exact)


@pytest.mark.parametrize("dim", [8, CROSSOVER[1]])
def test_trace_moments_of_u_pass_mc_on_both_paths(dim):
    # E |tr U|^(2k) = k! on U(N) for k <= N, on each side of the crossover:
    # built from reflectors, and by LAPACK QR at its first N
    spec = GroupSpec(UNITARY, dim)
    eye = SourceMatrices(np.eye(dim), np.eye(dim))
    for k in (1, 2, 3):
        est = estimate_trace_moment(k, k, eye, spec, 200_000, 5)
        assert compare(est, factorial(k), SIGMAS)["pass"], k
        assert max(est.stderr_real, est.stderr_imag) < 0.05 * factorial(k)


def test_batch_size_bounds_the_working_set():
    assert [_batch_size(n) for n in (1, 3, 8, 16, 32, 128, 1024)] == \
        [8192, 8192, 8192, 2048, 512, 32, 1]


@pytest.mark.parametrize("dim", [3, 8, 16, *CROSSOVER])
def test_estimates_do_not_depend_on_worker_count(monkeypatch, dim):
    spec = GroupSpec(SPECIAL_UNITARY, dim)
    src = random_source_matrices(dim, 4)
    samples = 2 * _batch_size(dim) + 37
    runs = []
    # three batches: three workers is more than the two cores of the
    # reference box, and a short switch interval interleaves them finely
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for workers in (1, 2, 3):
            monkeypatch.setattr(haar_mc, "_CORES", workers)
            runs.append((
                _fresh(lambda: estimate_trace_moment(2, 1, src, spec,
                                                     samples, 11)),
                estimate_monomial([1, 2], [2, 1], [1], [2], spec, samples,
                                  12)))
    finally:
        sys.setswitchinterval(interval)
    assert runs[0] == runs[1] == runs[2]


@pytest.mark.parametrize("cores", [1, 2])
def test_batch_merge_matches_exact_two_pass(monkeypatch, cores):
    # three batches, the last one short, with batch means far apart so the
    # merge's between-batch term carries much of the variance
    spec = GroupSpec(UNITARY, 16)
    size = _batch_size(16)
    samples = 2 * size + 37

    def batch_values(index, count, scratch=None):
        # a generator per call, so the values do not depend on the thread
        rng = np.random.default_rng(index)
        shift = (index + 1) * complex(3, -2)
        return shift + rng.standard_normal(count) + 1j * rng.standard_normal(
            count) * (index + 1)

    monkeypatch.setattr(haar_mc, "_CORES", cores)
    est = haar_mc._estimate(spec, samples, 5, batch_values)
    values = np.concatenate([batch_values(b, min(size, samples - b * size))
                             for b in range(3)])
    assert est.samples == values.size == samples and est.seed == 5
    for part, got_mean, got_err in (
            (values.real, est.mean.real, est.stderr_real),
            (values.imag, est.mean.imag, est.stderr_imag)):
        exact = [Fraction(x) for x in part.tolist()]
        mean = sum(exact) / samples
        m2 = sum((x - mean) ** 2 for x in exact)
        assert got_mean == pytest.approx(float(mean), rel=1e-12)
        assert got_err == pytest.approx(
            float(m2 / (samples * (samples - 1))) ** 0.5, rel=1e-12)


def _kept_values() -> int:
    return sum(traces.size for traces in haar_mc._kept[1].values())


@pytest.mark.parametrize("group, dim, moments", [
    *(pytest.param(group, dim, ((2, 1), (0, 3), (2, 2)), id=f"{dim}-{group}")
      for dim in (1, 2, 3, 8, 16) for group in (UNITARY, SPECIAL_UNITARY)),
    # every exponent the kept path takes apart, 0 and 1 among them
    pytest.param(SPECIAL_UNITARY, 3, [(p, n) for p in range(6)
                                      for n in range(6)],
                 id="3-special_unitary-every-moment"),
])
def test_kept_columns_give_the_fresh_estimate(monkeypatch, group, dim,
                                              moments):
    spec = GroupSpec(group, dim)
    src = random_source_matrices(dim, 5)
    samples = 2 * _batch_size(dim) + 17
    _fresh(lambda: estimate_trace_moment(1, 1, src, spec, samples, 3))
    with monkeypatch.context() as patch:    # every batch is kept: none drawn
        patch.setattr(haar_mc, "_keyed_batch", None)
        kept = [estimate_trace_moment(p, n, src, spec, samples, 3)
                for p, n in moments]
    assert kept == [
        _fresh(lambda: estimate_trace_moment(p, n, src, spec, samples, 3))
        for p, n in moments]


def test_kept_call_starts_no_thread(monkeypatch):
    # a call whose batches are all kept reduces them on the calling thread
    monkeypatch.setattr(haar_mc, "_CORES", 2)
    spec = GroupSpec(SPECIAL_UNITARY, 3)
    src = random_source_matrices(3, 7)
    samples = 4 * _batch_size(3) + 9
    moments = ((1, 1), (2, 1), (0, 3), (4, 1))
    # the last fresh call leaves every batch kept
    fresh = [_fresh(lambda: estimate_trace_moment(p, n, src, spec, samples, 2))
             for p, n in moments]

    def refuse(*args, **kwargs):
        raise AssertionError("a call on kept columns started a pool")

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", refuse)
    assert [estimate_trace_moment(p, n, src, spec, samples, 2)
            for p, n in moments] == fresh


def test_kept_columns_are_not_changed_in_place():
    # each batch's values are reduced in place: they must never be a view
    # of the kept columns, even where an exponent is 0 or 1
    spec = GroupSpec(UNITARY, 3)
    src = random_source_matrices(3, 8)
    samples = 2 * _batch_size(3) + 11
    moments = ((1, 0), (0, 1), (1, 1))

    def call(p, n):
        return estimate_trace_moment(p, n, src, spec, samples, 5)

    runs = [_fresh(lambda: call(*moments[0]))]
    kept = {index: traces.tobytes()
            for index, traces in haar_mc._kept[1].items()}
    runs += [call(*moments[0]), *(call(p, n) for p, n in moments[1:]
                                  for _ in range(2))]
    assert {index: traces.tobytes()
            for index, traces in haar_mc._kept[1].items()} == kept
    for (p, n), first, repeat in zip(moments, runs[::2], runs[1::2]):
        assert first == repeat == _fresh(lambda: call(p, n)), (p, n)


def test_power_shortcut_is_numpy_power():
    special = [0.0, -0.0, 1.5, -1.5, np.inf, -np.inf, np.nan, 1e308,
               -1e-310, 5e-324]
    rng = np.random.default_rng(0)
    x = np.concatenate([
        np.array([complex(re, im) for re in special for im in special]),
        rng.standard_normal(1000) + 1j * rng.standard_normal(1000)])
    with np.errstate(all="ignore"):
        for e in range(7):
            assert (haar_mc._power(x, e).view(np.uint64)
                    == (x ** e).view(np.uint64)).all(), e


@pytest.mark.parametrize("dim", [3, 16, _REFLECTOR_MAX_N, 91, 128])
def test_lone_sample_gets_its_stacked_traces(dim):
    # einsum sums a lone matrix in another order than a stack, sample-minor
    # on the reflector path (N >= 3) or of over 8192 entries on the QR path;
    # a batch of one sample must still give that sample's traces
    spec = GroupSpec(UNITARY, dim)
    src = random_source_matrices(dim, 2)

    def columns(u, out):
        haar_mc._trace_columns(src, u, out)

    one = _keyed_batch(spec, 2, 4, np.empty((2, 1), dtype=complex), columns,
                       {})
    # the traces of the batch's first three samples taken as one stack,
    # laid out as the sampler lays it out
    three = np.empty((2, 3), dtype=complex)
    columns(_haar_batch(spec, 3, np.random.Generator(
        np.random.Philox(key=(2 << 64) + 4))), three)
    for row in range(2):
        assert one[row, 0] == three[row, 0], row


def test_kept_columns_are_bounded(monkeypatch):
    spec = GroupSpec(SPECIAL_UNITARY, 3)
    src = random_source_matrices(3, 6)
    limit = haar_mc._BATCH_ENTRIES // (2 * _batch_size(3))
    assert limit == 32
    samples = (limit + 2) * _batch_size(3) + 5    # 35 batches
    _fresh(lambda: estimate_trace_moment(1, 1, src, spec, samples, 8))
    assert sorted(haar_mc._kept[1]) == list(range(limit))
    # 32 batches are reduced on the calling thread, 3 drawn on the pool
    kept = []
    for cores in (1, 2, 4):
        monkeypatch.setattr(haar_mc, "_CORES", cores)
        kept.append(estimate_trace_moment(2, 1, src, spec, samples, 8))
    assert _kept_values() == haar_mc._BATCH_ENTRIES == 2 ** 19
    assert kept == 3 * [_fresh(
        lambda: estimate_trace_moment(2, 1, src, spec, samples, 8))]


def test_kept_columns_follow_every_input():
    spec = GroupSpec(SPECIAL_UNITARY, 3)
    src = random_source_matrices(3, 9)

    def fill_then(call):
        _fresh(lambda: estimate_trace_moment(1, 1, src, spec, 9000, 4))
        return call()

    # not a balanced moment: with one seed an SU(3) sample is the U(3)
    # sample times a phase, which (tr KU)(tr J U-dagger) does not see
    base = _fresh(lambda: estimate_trace_moment(2, 1, src, spec, 9000, 4))
    variants = [
        lambda: estimate_trace_moment(2, 1, src, spec, 9000, 5),
        lambda: estimate_trace_moment(2, 1, src, GroupSpec(UNITARY, 3),
                                      9000, 4),
        lambda: estimate_trace_moment(2, 1, random_source_matrices(2, 9),
                                      GroupSpec(SPECIAL_UNITARY, 2), 9000, 4),
        lambda: estimate_trace_moment(2, 1, src, spec, 9001, 4),
    ]
    for call in variants:
        assert fill_then(call) == _fresh(call) != base
    _fresh(lambda: estimate_trace_moment(1, 1, src, spec, 9000, 4))
    src.K[0, 0] += 1    # the matrices are mutable: the key holds their bytes
    changed = estimate_trace_moment(2, 1, src, spec, 9000, 4)
    assert changed == _fresh(
        lambda: estimate_trace_moment(2, 1, src, spec, 9000, 4)) != base


def test_kept_columns_under_concurrent_callers():
    spec = GroupSpec(SPECIAL_UNITARY, 3)
    sources = [random_source_matrices(3, s) for s in (10, 11)]
    samples = 2 * _batch_size(3) + 3
    moments = [(1, 1), (2, 1), (2, 2), (0, 1)]
    expected = [[_fresh(lambda: estimate_trace_moment(
        p, n, src, spec, samples, seed)) for p, n in moments]
        for src, seed in zip(sources, (1, 2))]
    keys = [0, 1, 0, 1]    # four threads, more than the cores of a 2-vCPU box
    results: list = [None] * len(keys)

    def worker(slot):
        src, seed = sources[keys[slot]], keys[slot] + 1
        results[slot] = [estimate_trace_moment(p, n, src, spec, samples, seed)
                         for p, n in moments]

    # each thread's calls replace the other key while that key's calls still
    # read their own columns
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _ in range(3):
            haar_mc._kept = (None, {})
            threads = [threading.Thread(target=worker, args=(slot,))
                       for slot in range(len(keys))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
                assert not thread.is_alive()
            assert results == [expected[key] for key in keys]
    finally:
        sys.setswitchinterval(interval)


def test_pool_results_come_in_order_with_bounded_lookahead():
    class InlinePool:
        submitted = 0

        def submit(self, fn, *args):
            self.submitted += 1
            future = Future()
            future.set_result(fn(*args))
            return future

    pool, seen = InlinePool(), []
    for value in haar_mc._ordered(pool, lambda i: (i,), 1000, 4):
        assert pool.submitted - len(seen) <= 4
        seen.append(value)
    assert seen == [(i,) for i in range(1000)]


def _traced_peak(call):
    """(call(), the peak of memory traced while it ran) with the kept trace
    columns cleared first."""
    tracemalloc.start()
    try:
        return _fresh(call), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_large_dimension_memory_is_bounded(monkeypatch):
    # each worker holds its own chunk, so the bound is for two workers
    monkeypatch.setattr(haar_mc, "_CORES", 2)
    src = random_source_matrices(128, 0)
    est, peak = _traced_peak(lambda: estimate_trace_moment(
        1, 1, src, GroupSpec(UNITARY, 128), 100, 0))
    assert est.samples == 100
    assert peak < 8 * 2 ** 20


def test_small_cli_call_memory_is_bounded():
    # the largest sampling call of the cli-small benchmark workload: two
    # batches of 512 SU(32) samples on at most two workers
    src = random_source_matrices(32, 11)
    est, peak = _traced_peak(lambda: estimate_trace_moment(
        1, 1, src, GroupSpec(SPECIAL_UNITARY, 32), 1000, 11))
    assert est.samples == 1000
    assert peak < 6 * 2 ** 20


def test_matrices_file_is_bounded_before_it_is_parsed(monkeypatch, tmp_path):
    cap = haar_mc._MAX_MATRICES_BYTES
    # a file at the sampling cap, N = 128, fits even with wide indentation
    assert len(json.dumps(random_source_matrices(128, 0).as_json_dict(),
                          indent=4)) < cap
    text = json.dumps(random_source_matrices(2, 0).as_json_dict())
    path = tmp_path / "src.json"
    path.write_text(text.ljust(cap))
    assert SourceMatrices.from_json_file(path).dim == 2

    def parse(*args, **kwargs):
        raise AssertionError("a file over the cap was parsed")

    path.write_text(text.ljust(cap + 1))
    monkeypatch.setattr(json, "load", parse)
    monkeypatch.setattr(json, "loads", parse)
    with pytest.raises(ValueError, match=f"matrices file is over {cap} bytes"):
        SourceMatrices.from_json_file(path)


def test_left_invariance():
    # multiplying every sample by a fixed group element leaves the Haar
    # distribution unchanged: estimates from {WU} and {U} agree within errors
    spec = GroupSpec(SPECIAL_UNITARY, 3)
    w = sample_haar(spec, np.random.Generator(np.random.Philox(key=123)))
    idx = ([1, 2], [1, 3], [2, 1], [1, 3])

    def manual_estimate(seed, transform):
        values = []
        size = _batch_size(3)
        for b in range(-(-10**5 // size)):
            u = _matrices(spec, seed, b, min(size, 10**5 - b * size))
            if transform is not None:
                u = transform @ u
            i, j, k, l = idx
            v = np.ones(u.shape[0], dtype=complex)
            for a, b in zip(i, j):
                v = v * u[:, a - 1, b - 1]
            conj = np.conj(u)
            for a, b in zip(k, l):
                v = v * conj[:, b - 1, a - 1]
            values.append(v)
        values = np.concatenate(values)
        return values.mean(), values.std() / len(values) ** 0.5

    m1, e1 = manual_estimate(61, None)
    m2, e2 = manual_estimate(62, w)
    err = (e1 ** 2 + e2 ** 2) ** 0.5
    assert abs(m1 - m2) < SIGMAS * err


def _two_batch_means(low, high):
    """The estimate over two whole batches at N = 16, every value of the
    first equal to low and of the second to high."""
    return haar_mc._estimate(
        GroupSpec(UNITARY, 16), 2 * _batch_size(16), 0,
        lambda index, count, scratch: np.full(count, (low, high)[index],
                                              dtype=complex))


@pytest.mark.parametrize("call, message", [
    (lambda: SourceMatrices(np.eye(2), np.eye(3)), "square matrices"),
    (lambda: SourceMatrices(np.ones((2, 3)), np.ones((2, 3))),
     "square matrices"),
    (lambda: SourceMatrices(np.ones((0, 0)), np.ones((0, 0))), "N >= 1"),
    # each batch is finite, but squaring the gap of their means overflows
    (lambda: _two_batch_means(0.0, 1e200), "estimate is not finite"),
], ids=["unequal-sizes", "not-square", "empty", "merge-overflow"])
def test_refused_inputs(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_core_count_without_sched_getaffinity(monkeypatch):
    # platforms without sched_getaffinity fall back to os.cpu_count()
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    spec = importlib.util.spec_from_file_location("sunint._haar_mc_copy",
                                                  haar_mc.__file__)
    module = importlib.util.module_from_spec(spec)
    # the dataclasses look their module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    assert module._CORES == (os.cpu_count() or 1)


def test_compare_reports():
    est = MCEstimate(mean=0.334 + 0j, stderr_real=0.002, stderr_imag=0.002,
                     samples=1000, seed=0)
    assert compare(est, 1 / 3, 5.0)["pass"]
    bad = MCEstimate(mean=0.4 + 0j, stderr_real=0.002, stderr_imag=0.002,
                     samples=1000, seed=0)
    report = compare(bad, 1 / 3, 5.0)
    assert not report["pass"]
    assert report["pull_real"] > 30
    exact_est = MCEstimate(mean=1 + 0j, stderr_real=0.0, stderr_imag=0.0,
                           samples=100, seed=0)
    assert compare(exact_est, 1, 5.0)["pass"]
    assert not compare(exact_est, 2, 5.0)["pass"]
    for sigmas in (0, -1, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            compare(est, 0, sigmas)


def test_compare_floors_the_error_at_rounding():
    exact = 0.7 + 0.2j
    ulp = np.spacing(0.7)
    tiny = MCEstimate(mean=complex(0.7 + ulp, 0.2), stderr_real=1e-17,
                      stderr_imag=1e-17, samples=100, seed=0)
    report = compare(tiny, exact, 5.0)
    assert report["pass"] and report["pull_real"] < 1
    assert report["stderr_real"] == 1e-17
    far = MCEstimate(mean=complex(0.7 + 1e-12, 0.2), stderr_real=1e-17,
                     stderr_imag=1e-17, samples=100, seed=0)
    assert not compare(far, exact, 5.0)["pass"]


def test_estimator_input_validation():
    spec = GroupSpec(UNITARY, 3)
    src = random_source_matrices(3, 1)
    with pytest.raises(ValueError):
        estimate_trace_moment(1, 1, src, GroupSpec(UNITARY, 4), 1000, 1)
    with pytest.raises(ValueError):
        estimate_trace_moment(1, 1, src, spec, 50, 1)
    with pytest.raises(ValueError):
        estimate_trace_moment(1, 1, src, spec, 1000, -1)
    with pytest.raises(ValueError, match="exponents must be nonnegative"):
        estimate_trace_moment(1, -1, src, spec, 1000, 1)
    with pytest.raises(ValueError):
        estimate_monomial([1], [4], [], [], spec, 1000, 1)
    with pytest.raises(ValueError):
        estimate_monomial([1, 2], [1], [], [], spec, 1000, 1)
    # both estimators share one floor: fewer samples fail 5-sigma pulls
    with pytest.raises(ValueError, match="need at least 100 samples"):
        estimate_monomial([1], [1], [], [], spec, 99, 1)
    assert estimate_monomial([1], [1], [], [], spec, 100, 1).samples == 100
    # non-integral counts, seeds, exponents and indices are refused up
    # front, not left to fail (or to take a branch cut) inside numpy
    for samples, seed in ((1000.0, 1), (1000, 1.5), (True, 1), (1000, True)):
        with pytest.raises(ValueError, match="must be an integer"):
            check_sampling(samples, seed)
        with pytest.raises(ValueError, match="must be an integer"):
            estimate_trace_moment(1, 1, src, spec, samples, seed)
    for p, n in ((1.5, 1), (1, 1.0), (True, 1)):
        with pytest.raises(ValueError, match="each exponent must be an"):
            estimate_trace_moment(p, n, src, spec, 1000, 1)
    for cols in ([1.0], [True], [np.float64(2)]):
        with pytest.raises(ValueError, match="each index must be an"):
            estimate_monomial([1], cols, [], [], spec, 1000, 1)
    # numpy integers stay accepted everywhere
    one, two = np.int64(1), np.int64(2)
    assert estimate_trace_moment(one, one, src, GroupSpec(UNITARY, np.int64(3)),
                                 np.int64(1000), one).samples == 1000
    assert estimate_monomial([one], [two], [], [], spec, 1000, two) == \
        estimate_monomial([1], [2], [], [], spec, 1000, 2)
