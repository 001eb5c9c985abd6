"""Factorizations against hand-rolled references and exact cases."""

import numpy as np
import pytest
import scipy.linalg

import oracles
from parsvd import linalg
from parsvd.linalg import (QrResult, RandomSketchConfig, SvdResult,
                           aligned_mode_difference, low_rank_svd, qr_factor,
                           randomized_range, svd_full)
from parsvd.comm import RankContext
from parsvd.datagen import synthetic_spectrum_matrix
from parsvd.errors import ConvergenceError
from parsvd.streaming import StreamConfig, stream_incorporate
from test_dsvd import _slab


# ---------- qr_factor ----------

def test_qr_identity():
    res = qr_factor(np.eye(4))
    assert np.array_equal(res.q, np.eye(4))
    assert np.array_equal(res.r, np.eye(4))


def test_qr_negated_identity_sign_convention():
    # the raw factorization of -I could return q = -I, r = I; the sign
    # convention forces diag(r) >= 0 instead
    res = qr_factor(-np.eye(3))
    assert np.all(np.diag(res.r) >= 0.0)
    assert np.max(np.abs(res.q @ res.r + np.eye(3))) < 1e-15


def test_qr_matches_gram_schmidt():
    rng = np.random.Generator(np.random.Philox(10))
    for m, n in [(8, 3), (6, 6), (3, 7)]:
        a = rng.standard_normal((m, n))
        res = qr_factor(a)
        q_ref, r_ref = oracles.mgs_qr(a)
        k = min(m, n)
        assert res.q.shape == (m, k) and res.r.shape == (k, n)
        assert np.max(np.abs(res.q - q_ref)) < 1e-10
        assert np.max(np.abs(res.r - r_ref)) < 1e-10
        assert np.max(np.abs(res.q @ res.r - a)) < 1e-12
        assert np.all(np.diag(res.r) >= 0.0)


def test_qr_rejects_bad_input():
    with pytest.raises(ValueError):
        qr_factor(np.zeros((0, 3)))
    with pytest.raises(ValueError):
        qr_factor(np.ones(4))
    with pytest.raises(ValueError):
        qr_factor(np.array([[1.0, np.nan], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        qr_factor(np.array([[np.inf, 1.0], [0.0, 1.0]]))


def test_qr_is_deterministic():
    rng = np.random.Generator(np.random.Philox(11))
    a = rng.standard_normal((20, 7))
    first = qr_factor(a)
    second = qr_factor(a.copy())
    assert np.array_equal(first.q, second.q)
    assert np.array_equal(first.r, second.r)


def test_qr_finds_dgeqrt_wherever_openblas_is_found():
    # a symbol renamed by a numpy or OpenBLAS upgrade fails here instead of
    # silently running qr_factor's fallback
    if linalg._openblas_threads() is None:
        pytest.skip("numpy does not use OpenBLAS")
    assert linalg._lapack("dgeqrt") is not None


def _lapack_qr(a):
    """np.linalg.qr with qr_factor's sign convention: the reference for
    qr_factor's kernels."""
    q, r = np.linalg.qr(a, mode="reduced")
    d = np.sign(np.diag(r))
    d[d == 0.0] = 1.0
    return q * d, r * d[:, None]


def _qr_inputs(m, n, rng):
    """(name, matrix, full_rank) cases: Gaussian, graded column scales,
    numerically low rank, an exact zero column, a repeated column (the last
    one, so no row of R depends on the direction its rounding picks), and
    all zeros."""
    g = rng.standard_normal((m, n))
    yield "gaussian", g, True
    yield "graded", g * np.logspace(0, -16, n), True
    rank = min(3, m, n)
    low = rng.standard_normal((m, rank)) @ rng.standard_normal((rank, n))
    yield "rank-deficient", low + 1e-15 * rng.standard_normal((m, n)), False
    zero_col = g.copy()
    zero_col[:, n // 2] = 0.0
    yield "zero column", zero_col, False
    if n > 1:
        repeated = g.copy()
        repeated[:, -1] = repeated[:, 0]
        yield "repeated column", repeated, False
    yield "zeros", np.zeros((m, n)), False


def _check_qr_against_lapack(a, full_rank, label):
    m, n = a.shape
    q, r = qr_factor(a)
    q_ref, r_ref = _lapack_qr(a)
    scale = 1.0 + np.max(np.abs(a))
    assert q.shape == q_ref.shape and r.shape == r_ref.shape, label
    assert np.max(np.abs(q @ r - a)) <= 1e-13 * scale, label
    assert np.max(np.abs(q.T @ q - np.eye(q.shape[1]))) <= 1e-13 * max(m, n), label
    assert np.all(np.diag(r) >= 0.0), label
    assert np.all(np.tril(r, -1) == 0.0), label
    assert np.max(np.abs(r - r_ref)) <= 1e-12 * scale, label
    if full_rank:
        assert np.max(np.abs(q - q_ref)) <= 1e-12, label


def _check_kernel_against_lapack(n, rows_per_col):
    rng = np.random.Generator(np.random.Philox(30 + n))
    for name, a, full_rank in _qr_inputs(rows_per_col * n, n, rng):
        _check_qr_against_lapack(a, full_rank, f"{rows_per_col * n}x{n} {name}")


def _check_tall_and_wide(shape):
    rng = np.random.Generator(np.random.Philox(40))
    for name, a, full_rank in _qr_inputs(*shape, rng):
        _check_qr_against_lapack(a, full_rank, f"{shape} {name}")


@pytest.mark.parametrize("n", [1, 16, 17, 33, 100, 135])
@pytest.mark.parametrize("rows_per_col", [1, 3])
def test_qr_recursive_kernel_matches_lapack(n, rows_per_col):
    # dgeqrt's one block is dgeqrt3's, which splits every block wider than
    # one column in half, so odd widths exercise uneven splits
    _check_kernel_against_lapack(n, rows_per_col)


@pytest.mark.parametrize("n", [1, 16, 17, 33, 100, 135])
@pytest.mark.parametrize("rows_per_col", [1, 3])
def test_qr_fallback_kernel_matches_lapack(n, rows_per_col, fallback_qr):
    _check_kernel_against_lapack(n, rows_per_col)


@pytest.mark.parametrize("shape", [(16384, 100), (20, 40)])
def test_qr_recursive_kernel_tall_and_wide(shape):
    # the streaming update's residual shape, and a wide input whose
    # trailing columns are projected onto q
    _check_tall_and_wide(shape)


@pytest.mark.parametrize("shape", [(16384, 100), (20, 40)])
def test_qr_fallback_kernel_tall_and_wide(shape, fallback_qr):
    _check_tall_and_wide(shape)


def test_qr_first_burgers_streaming_residual(burgers_snapshots):
    # The residual the first streaming update factors: the second 100-column
    # batch minus its projection onto the carried block. Its column norms
    # grow from 1.7e-7 to 0.6 and its singular values fall to 1e-12, so
    # rows of R past the ninth follow the rounding of the input: LAPACK's
    # own R moves by 8e-4 when the residual is perturbed by one unit in the
    # last place, or when its rows are reversed. What R determines here is
    # R^T R = A^T A and the singular values, which are compared instead,
    # along with the leading rows, whose diagonal stays far above rounding.
    state = stream_incorporate(RankContext(0, 1), None,
                               burgers_snapshots[:, :100], StreamConfig(5))
    u = state.carried_modes
    batch = burgers_snapshots[:, 100:200]
    resid = batch - u @ (u.T @ batch)
    m, n = resid.shape
    q, r = qr_factor(resid)
    _, r_ref = _lapack_qr(resid)
    scale = 1.0 + np.max(np.abs(resid))
    assert np.max(np.abs(q @ r - resid)) <= 1e-13 * scale
    assert np.max(np.abs(q.T @ q - np.eye(n))) <= 1e-13 * m
    assert np.all(np.diag(r) >= 0.0) and np.all(np.tril(r, -1) == 0.0)
    assert np.max(np.abs(r.T @ r - r_ref.T @ r_ref)) <= 1e-13 * scale ** 2
    s = np.linalg.svd(r, compute_uv=False)
    s_ref = np.linalg.svd(r_ref, compute_uv=False)
    assert np.max(np.abs(s - s_ref)) <= 1e-13 * s_ref[0]
    assert np.max(np.abs(r[:5] - r_ref[:5])) <= 1e-12 * scale


def _reflector_q(res):
    """q as qr_factor forms it from its reflectors: ([I; 0] - V T V[:k]^T)
    diag(d), as one column-major product over V plus d on the diagonal."""
    t, d = res.wy
    k = t.shape[0]
    v = res.basis
    q = (((t @ v[:k].T) * -d).T @ v.T).T
    q[np.arange(k), np.arange(k)] += d
    return q


@pytest.mark.parametrize("shape", [(40, 1), (50, 16), (16, 16), (300, 17),
                                   (1000, 100), (20, 10), (200, 100),
                                   (20, 40), (30, 8), (7, 12)])
def test_qr_apply_matches_formed_q(shape):
    # narrow inputs (one panel) and wide ones, with more columns than rows
    # too; 20 x 10 and 200 x 100 are the root stacks of a two-rank parallel
    # QR
    rng = np.random.Generator(np.random.Philox(31))
    res = qr_factor(rng.standard_normal(shape))
    k = min(shape)
    x = rng.standard_normal((k, 7))
    applied = res.apply(x)
    assert applied.shape == (shape[0], 7)
    assert np.max(np.abs(applied - res.q @ x)) <= 1e-13 * np.max(np.abs(x))


def test_qr_forms_q_once_by_the_reflector_formula():
    rng = np.random.Generator(np.random.Philox(32))
    for shape in [(20, 10), (200, 100), (135, 33), (20, 40)]:
        a = rng.standard_normal(shape)
        res = qr_factor(a)
        q, r = qr_factor(a)
        assert np.array_equal(q, res.q) and np.array_equal(r, res.r)
        assert res.q is res.q
        assert np.array_equal(q, _reflector_q(res))


_BATTERY_SHAPES = [(rows_per_col * n, n) for n in (1, 16, 17, 33, 100, 135)
                   for rows_per_col in (1, 3)] + [(2000, 100), (20, 40)]


@pytest.mark.parametrize("shape", _BATTERY_SHAPES)
def test_qr_in_place_matches_a_copy_bit_for_bit(shape):
    # overwrite_a factors a column-major input in its own columns, which
    # then hold the basis; r, q and every product must equal those of
    # qr_factor on a copy, bit for bit, with or without a block stacked
    # before the basis (the streaming workspace's [U | V])
    rng = np.random.Generator(np.random.Philox(33))
    m, n = shape
    k = min(shape)
    lead = rng.standard_normal((m, 3))
    x = rng.standard_normal((k, 4))
    lead_x = rng.standard_normal((3, 4))
    for name, a, _ in _qr_inputs(m, n, rng):
        ref = qr_factor(np.asfortranarray(a))
        block = np.asfortranarray(np.concatenate([lead, a], axis=1))
        res = qr_factor(block[:, 3:], overwrite_a=True, check_finite=False)
        assert np.shares_memory(res.basis, block), name
        assert np.array_equal(res.r, ref.r), name
        assert np.array_equal(res.apply(x), ref.apply(x)), name
        stacked = np.asfortranarray(np.concatenate([lead, ref.basis], axis=1))
        assert np.array_equal(
            res.apply(x, tall=block[:, :3 + k], tall_x=lead_x),
            ref.apply(x, tall=stacked, tall_x=lead_x)), name
        assert np.array_equal(res.q, ref.q), name
    # a row-major input (at least two columns) is copied, not overwritten
    a = rng.standard_normal((m + 1, n + 1))
    keep = a.copy()
    qr_factor(a, overwrite_a=True)
    assert np.array_equal(a, keep)


@pytest.mark.parametrize("fallback", [False, True])
@pytest.mark.parametrize("shape", [(1000, 100), (50, 10), (20, 40)])
def test_qr_overwrite_a_on_a_workspace_slice(shape, fallback, request):
    # a column slice of a column-major workspace is factored in its own
    # columns, on either kernel: same bits as the copying call, and the
    # columns around it are left alone
    if fallback:
        request.getfixturevalue("fallback_qr")
    rng = np.random.Generator(np.random.Philox(34))
    m, n = shape
    a = rng.standard_normal(shape)
    x = rng.standard_normal((min(shape), 3))
    ref = qr_factor(np.asfortranarray(a))
    workspace = np.asfortranarray(rng.standard_normal((m, n + 7)))
    workspace[:, 4:4 + n] = a
    keep = workspace.copy()
    res = qr_factor(workspace[:, 4:4 + n], overwrite_a=True)
    assert np.shares_memory(res.basis, workspace)
    assert np.array_equal(res.r, ref.r)
    assert np.array_equal(res.apply(x), ref.apply(x))
    assert np.array_equal(res.q, ref.q)
    assert np.array_equal(workspace[:, :4], keep[:, :4])
    assert np.array_equal(workspace[:, 4 + n:], keep[:, 4 + n:])
    # a C-ordered input is factored from a copy and left as it was
    assert a.flags.c_contiguous and not a.flags.f_contiguous
    ref = qr_factor(a)
    res = qr_factor(a, overwrite_a=True)
    assert not np.shares_memory(res.basis, a)
    assert np.array_equal(a, keep[:, 4:4 + n])
    assert np.array_equal(res.r, ref.r)
    assert np.array_equal(res.q, ref.q)


def test_qr_check_finite_false_skips_only_the_scan():
    with pytest.raises(ValueError, match="non-finite"):
        qr_factor(np.array([[1.0, np.inf], [0.0, 1.0]]))
    qr_factor(np.array([[1.0, np.inf], [0.0, 1.0]]), check_finite=False)
    with pytest.raises(ValueError, match="2-D"):
        qr_factor(np.ones(4), check_finite=False)


# ---------- _lapack_call ----------

def test_r_factor_raises_on_a_lapack_error(capfd):
    # a block of 0 columns is an illegal third argument to dgeqrt, which
    # LAPACK reports through INFO (and a line on stdout)
    if linalg._lapack("dgeqrt") is None:
        pytest.skip("numpy's LAPACK does not export dgeqrt")
    work = np.ones((5, 3), order="F")
    t = np.empty((0, 3), order="F")
    with pytest.raises(RuntimeError, match="info -3"):
        linalg._lapack_call("dgeqrt", 5, 3, 0, work, 5, t, 1, np.empty_like(t))


def test_dsyevr_raises_on_a_lapack_error(capfd):
    # a leading dimension below N is an illegal sixth argument to dsyevr
    if linalg._lapack("dsyevr") is None:
        pytest.skip("numpy's LAPACK does not export dsyevr")
    ints = np.dtype(linalg._lapack("dsyevr")[1])
    a = np.eye(3, order="F")
    with pytest.raises(RuntimeError, match="dsyevr.* info -6"):
        linalg._lapack_call("dsyevr", "V", "I", "U", 3, a, 1, 0.0, 0.0, 1,
                            3, 0.0, np.zeros(1, ints), np.empty(3),
                            np.empty((3, 3), order="F"), 3,
                            np.empty(6, ints), np.empty(100), 100,
                            np.empty(30, ints), 30)


def test_lapack_call_refuses_an_integer_array_of_another_type():
    if linalg._lapack("dsyevr") is None:
        pytest.skip("numpy's LAPACK does not export dsyevr")
    a = np.eye(3, order="F")
    with pytest.raises(ValueError, match="dsyevr needs column-major"):
        linalg._lapack_call("dsyevr", "V", "I", "U", 3, a, 3, 0.0, 0.0, 1,
                            3, 0.0, np.zeros(1, np.int8), np.empty(3),
                            np.empty((3, 3), order="F"), 3,
                            np.empty(6, np.int8), np.empty(100), 100,
                            np.empty(30, np.int8), 30)


def test_top_eigenvectors_raises_when_dsyevr_fails(monkeypatch):
    # a positive INFO from dsyevr is a failed eigensolve, as svd_full
    # reports one; the workspace query's is let through
    if linalg._lapack("dsyevr") is None:
        pytest.skip("numpy's LAPACK does not export dsyevr")
    call = linalg._lapack_call

    def failing(routine, *args):
        info = call(routine, *args)
        return info if args[-3] == -1 else 2

    monkeypatch.setattr(linalg, "_lapack_call", failing)
    with pytest.raises(ConvergenceError, match="dsyevr info 2"):
        linalg._top_eigenvectors(np.eye(4), 2)


def _gram(name, snapshots):
    if name == "zero":
        return np.zeros((50, 50))
    if name == "double":
        sv = 2.0 ** -np.arange(40.0)
        sv[4] = sv[3]
        a = synthetic_spectrum_matrix(100, 40, sv, seed=7)
    else:
        a = _slab(snapshots, name)
    return a.T @ a


@pytest.mark.parametrize("fallback", [False, True])
@pytest.mark.parametrize("name", ["tall", "repeated-column", "double",
                                  "zero"])
def test_top_eigenvectors_match_eigh(burgers_snapshots, name, fallback,
                                     request):
    # the w leading eigenpairs, as eigh's last w columns give them: values
    # (Rayleigh quotients) to 1e-13 of the largest, and the same invariant
    # subspace to within rounding over the gap that separates it. A slab
    # with a repeated column has a singular Gram matrix; "double" has a
    # repeated eigenvalue inside the w; every eigenvalue of zero is 0
    if fallback:
        request.getfixturevalue("fallback_qr")
    g = _gram(name, burgers_snapshots)
    w = 30 if g.shape[0] > 40 else 10
    lam, vec = np.linalg.eigh(g)
    v = linalg._top_eigenvectors(g, w)
    assert v.shape == (g.shape[0], w)
    assert np.max(np.abs(v.T @ v - np.eye(w))) <= 1e-14
    theta = np.einsum("ij,ij->j", v, g @ v)
    scale = max(lam[-1], 1.0)
    assert np.max(np.abs(theta - lam[-w:])) <= 1e-13 * scale
    gap = lam[-w] - lam[-w - 1]
    if gap > 0:
        lead = vec[:, -w:]
        sin = np.linalg.norm(v @ v.T - lead @ lead.T, 2)
        assert sin <= 10 * np.finfo(float).eps * lam[-1] / gap


# ---------- svd_full ----------

def test_svd_diagonal_exact():
    res = svd_full(np.diag([3.0, 1.0]))
    assert np.array_equal(res.s, [3.0, 1.0])
    assert np.array_equal(np.abs(res.u), np.eye(2))
    assert np.array_equal(np.abs(res.vt), np.eye(2))


def test_svd_identity():
    res = svd_full(np.eye(5))
    assert np.array_equal(res.s, np.ones(5))
    assert np.max(np.abs(res.u @ np.diag(res.s) @ res.vt - np.eye(5))) < 1e-14


def test_svd_against_jacobi_gram_oracle():
    rng = np.random.Generator(np.random.Philox(12))
    for m, n in [(6, 4), (4, 6), (9, 9)]:
        a = rng.standard_normal((m, n))
        res = svd_full(a)
        ref = oracles.gram_singular_values(a)
        assert np.max(np.abs(res.s - ref)) < 1e-9 * (1.0 + ref[0])


def test_svd_post_conditions_and_sign_convention():
    rng = np.random.Generator(np.random.Philox(13))
    a = rng.standard_normal((10, 6))
    u, s, vt = svd_full(a)
    assert np.all(np.diff(s) <= 0.0) and np.all(s >= 0.0)
    assert np.max(np.abs(u.T @ u - np.eye(6))) < 1e-12
    assert np.max(np.abs(vt @ vt.T - np.eye(6))) < 1e-12
    assert np.max(np.abs((u * s) @ vt - a)) < 1e-12
    peaks = u[np.argmax(np.abs(u), axis=0), np.arange(6)]
    assert np.all(peaks > 0.0)


def test_svd_zero_matrix():
    res = svd_full(np.zeros((4, 3)))
    assert np.array_equal(res.s, np.zeros(3))


# ---------- randomized_range / low_rank_svd ----------

def test_sketch_config_validation():
    with pytest.raises(ValueError):
        RandomSketchConfig(target_rank=0)
    with pytest.raises(ValueError):
        RandomSketchConfig(target_rank=2, oversampling=-1)
    with pytest.raises(ValueError):
        RandomSketchConfig(target_rank=2, power_iterations=-1)
    with pytest.raises(ValueError):
        RandomSketchConfig(target_rank=2, seed=-1)
    assert RandomSketchConfig(target_rank=3, oversampling=4).sketch_width == 7


def test_range_finder_captures_exact_rank():
    rng = np.random.Generator(np.random.Philox(15))
    # exactly rank 2: any sketch of width >= 2 must span it
    a = np.outer(rng.standard_normal(30), rng.standard_normal(12))
    a += np.outer(rng.standard_normal(30), rng.standard_normal(12))
    q = randomized_range(a, RandomSketchConfig(target_rank=2, oversampling=3,
                                               power_iterations=0, seed=0))
    assert q.shape == (30, 5)
    assert np.max(np.abs(q.T @ q - np.eye(5))) < 1e-12
    assert np.max(np.abs(a - q @ (q.T @ a))) < 1e-10


def test_range_finder_rejects_oversized_sketch():
    with pytest.raises(ValueError):
        randomized_range(np.eye(4), RandomSketchConfig(target_rank=3,
                                                       oversampling=2))


def test_range_finder_deterministic_per_seed():
    rng = np.random.Generator(np.random.Philox(16))
    a = rng.standard_normal((25, 10))
    cfg = RandomSketchConfig(target_rank=4, oversampling=2, seed=99)
    assert np.array_equal(randomized_range(a, cfg), randomized_range(a, cfg))
    other = RandomSketchConfig(target_rank=4, oversampling=2, seed=100)
    assert not np.array_equal(randomized_range(a, cfg),
                              randomized_range(a, other))


def test_low_rank_svd_exact_on_low_rank_input():
    rng = np.random.Generator(np.random.Philox(17))
    u0 = qr_factor(rng.standard_normal((40, 3))).q
    v0 = qr_factor(rng.standard_normal((15, 3))).q
    a = (u0 * [7.0, 4.0, 2.0]) @ v0.T
    res = low_rank_svd(a, RandomSketchConfig(target_rank=3, oversampling=5,
                                             power_iterations=1, seed=1))
    assert np.allclose(res.s, [7.0, 4.0, 2.0], rtol=1e-10)
    direct = svd_full(a)
    assert np.max(aligned_mode_difference(res.u, direct.u[:, :3])) < 1e-9
    assert np.max(np.abs((res.u * res.s) @ res.vt - a)) < 1e-9


def test_low_rank_svd_on_known_diagonal():
    a = np.zeros((8, 5))
    a[:5, :5] = np.diag([5.0, 4.0, 3.0, 2.0, 1.0])
    res = low_rank_svd(a, RandomSketchConfig(target_rank=3, oversampling=2,
                                             power_iterations=2, seed=7))
    assert res.u.shape == (8, 3) and res.vt.shape == (3, 5)
    assert np.allclose(res.s, [5.0, 4.0, 3.0], atol=1e-8)


def test_low_rank_svd_tail_quality_over_seeds():
    # decaying spectrum: the sketch should land within 1% on the leading
    # values and within 3x optimal on reconstruction for almost all seeds
    from parsvd.datagen import synthetic_spectrum_matrix
    sv = 2.0 ** -np.arange(1, 41)
    good_values = 0
    good_recon = 0
    seeds = range(20)
    for seed in seeds:
        a = synthetic_spectrum_matrix(120, 40, sv, seed=seed)
        res = low_rank_svd(a, RandomSketchConfig(target_rank=10,
                                                 oversampling=10,
                                                 power_iterations=1,
                                                 seed=seed))
        if np.max(np.abs(res.s[:5] - sv[:5]) / sv[:5]) <= 0.01:
            good_values += 1
        recon = np.linalg.norm(a - (res.u * res.s) @ res.vt)
        if recon <= 3.0 * np.linalg.norm(sv[10:]):
            good_recon += 1
    assert good_values >= 19
    assert good_recon >= 19


# ---------- helpers ----------

def test_aligned_mode_difference_ignores_sign():
    rng = np.random.Generator(np.random.Philox(19))
    u = qr_factor(rng.standard_normal((12, 4))).q
    flipped = u * np.array([1.0, -1.0, 1.0, -1.0])
    assert np.max(aligned_mode_difference(flipped, u)) == 0.0
    with pytest.raises(ValueError):
        aligned_mode_difference(u, u[:, :2])


def test_subspace_angles_against_scipy():
    rng = np.random.Generator(np.random.Philox(20))
    a = rng.standard_normal((20, 4))
    b = rng.standard_normal((20, 3))
    mine = oracles.subspace_angles(a, b)
    ref = np.sort(scipy.linalg.subspace_angles(a, b))
    assert np.max(np.abs(mine - ref)) < 1e-10
    same = oracles.subspace_angles(a, a @ rng.standard_normal((4, 4)))
    assert np.max(same) < 1e-7


def test_kernel_invariant_battery_small():
    # a compact version of the acceptance battery with the hand-rolled
    # Jacobi oracle on the value side
    rng = np.random.Generator(np.random.Philox(21))
    for trial in range(40):
        m = int(rng.integers(1, 17))
        n = int(rng.integers(1, 17))
        a = rng.standard_normal((m, n))
        rank_one = trial % 5 == 0 and min(m, n) > 1
        if rank_one:
            a = a[:, :1] @ a[:1, :]
        res = qr_factor(a)
        assert np.max(np.abs(res.q @ res.r - a)) < 1e-11 * (1 + np.max(np.abs(a)))
        assert np.all(np.diag(res.r) >= 0.0)
        u, s, vt = svd_full(a)
        assert np.all(np.diff(s) <= 0.0) and np.all(s >= 0.0)
        assert np.max(np.abs((u * s) @ vt - a)) < 1e-11 * (1 + s[0])
        ref = oracles.gram_singular_values(a)
        # squaring in the Gram route turns exact zeros into sqrt(eps)-level
        # noise, so rank-deficient inputs get a correspondingly wider bound
        tol = (5e-8 if rank_one else 1e-9) * (1.0 + ref[0])
        assert np.max(np.abs(s - ref)) < tol
