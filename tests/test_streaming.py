"""Streaming SVD update rule: exactness, invariances, forget factor."""

import numpy as np
import pytest

from parsvd.datagen import synthetic_spectrum_matrix
from parsvd.io import BatchSource
from oracles import subspace_angles
from parsvd.linalg import aligned_mode_difference, qr_factor, svd_full
from parsvd.streaming import StreamConfig, StreamState, stream_all, \
    stream_incorporate, stream_initialize


def _constructed(rows=60, cols=36, seed=11):
    """Spectrum with a clear gap after the fifth value and a tiny tail, so
    K = 5 streaming is essentially exact under any partition."""
    sv = np.concatenate([1.25 ** -np.arange(5), 1e-8 * 0.5 ** np.arange(12)])
    return synthetic_spectrum_matrix(rows, cols, sv, seed=seed)


def test_config_validation():
    with pytest.raises(ValueError):
        StreamConfig(k_modes=0)
    with pytest.raises(ValueError):
        StreamConfig(k_modes=2, forget_factor=0.0)
    with pytest.raises(ValueError):
        StreamConfig(k_modes=2, forget_factor=1.5)
    with pytest.raises(ValueError):
        StreamConfig(k_modes=2, buffer_columns=-1)
    assert StreamConfig(k_modes=2).forget_factor == 0.95
    assert StreamConfig(k_modes=2).buffer_columns == 30


def test_initialize_diagonal_exact():
    state = stream_initialize(np.diag([3.0, 2.0, 1.0]),
                              StreamConfig(k_modes=3))
    assert np.array_equal(state.singular_values, [3.0, 2.0, 1.0])
    assert np.array_equal(np.abs(state.modes), np.eye(3))
    assert state.iteration == 0


def test_initialize_matches_direct_svd():
    rng = np.random.Generator(np.random.Philox(40))
    a0 = rng.standard_normal((30, 8))
    state = stream_initialize(a0, StreamConfig(k_modes=8))
    direct = svd_full(a0)
    # same factorization reached through QR + small SVD; equal to roundoff
    assert np.max(np.abs(state.singular_values - direct.s) / direct.s) < 1e-12
    assert np.max(aligned_mode_difference(state.modes, direct.u)) < 1e-10


def test_initialize_needs_enough_columns():
    with pytest.raises(ValueError):
        stream_initialize(np.ones((5, 2)), StreamConfig(k_modes=3))


def test_single_shot_equivalence_constructed_spectrum():
    a = _constructed()
    direct = svd_full(a)
    config = StreamConfig(k_modes=5, forget_factor=1.0)
    state, _ = stream_all(BatchSource.from_matrix(a, 15), config)
    rel = np.abs(state.singular_values - direct.s[:5]) / direct.s[:5]
    assert np.max(rel) < 1e-8
    assert np.max(aligned_mode_difference(state.modes, direct.u[:, :5])) < 1e-6


def test_partition_invariance():
    a = _constructed()
    direct = svd_full(a)
    for width in (36, 12, 9, 7, 5):
        config = StreamConfig(k_modes=5, forget_factor=1.0)
        state, history = stream_all(BatchSource.from_matrix(a, width), config)
        rel = np.abs(state.singular_values - direct.s[:5]) / direct.s[:5]
        assert np.max(rel) < 1e-6, f"width {width}"
        assert np.max(aligned_mode_difference(state.modes,
                                              direct.u[:, :5])) < 1e-5
        assert state.iteration == len(history) - 1 == -(-36 // width) - 1


def test_exact_when_k_covers_rank():
    # rank-3 data, K = 3, no forgetting: streaming loses nothing
    a = synthetic_spectrum_matrix(40, 24, [4.0, 2.0, 1.0], seed=12)
    direct = svd_full(a)
    config = StreamConfig(k_modes=3, forget_factor=1.0)
    state, _ = stream_all(BatchSource.from_matrix(a, 6), config)
    assert np.allclose(state.singular_values, direct.s[:3], rtol=1e-10)
    assert np.max(aligned_mode_difference(state.modes, direct.u[:, :3])) < 1e-9


def test_incorporate_batch_in_current_span():
    # a batch inside span(modes) must leave the subspace unchanged; the new
    # values are exactly the svd of [diag(d) | coefficients]
    rng = np.random.Generator(np.random.Philox(41))
    a0 = rng.standard_normal((25, 6))
    config = StreamConfig(k_modes=4, forget_factor=1.0)
    state = stream_initialize(a0, config)
    coeff = rng.standard_normal((4, 3))
    batch = state.modes @ coeff
    new = stream_incorporate(state, batch, config)
    angles = subspace_angles(new.modes, state.modes)
    # arccos cannot resolve angles below sqrt(2 eps) ~ 2e-8; anything under
    # 1e-7 is zero to measurement precision
    assert np.max(angles) < 1e-7
    small = np.concatenate([np.diag(state.singular_values), coeff], axis=1)
    expect = svd_full(small).s[:4]
    assert np.allclose(new.singular_values, expect, rtol=1e-12)
    assert new.iteration == 1


def test_forget_factor_damps_history():
    a = _constructed(rows=50, cols=20, seed=13)
    plain = StreamConfig(k_modes=5, forget_factor=1.0)
    damped = StreamConfig(k_modes=5, forget_factor=0.95)
    s_plain, _ = stream_all(BatchSource.from_matrix(a, 10), plain)
    s_damped, _ = stream_all(BatchSource.from_matrix(a, 10), damped)
    assert s_damped.singular_values[0] < s_plain.singular_values[0]
    assert np.all(s_damped.singular_values <= s_plain.singular_values + 1e-12)


def test_modes_stay_orthonormal_over_many_updates():
    rng = np.random.Generator(np.random.Philox(42))
    config = StreamConfig(k_modes=6, forget_factor=0.95)
    state = stream_initialize(rng.standard_normal((64, 8)), config)
    for _ in range(50):
        state = stream_incorporate(state, rng.standard_normal((64, 8)), config)
    gram = state.modes.T @ state.modes
    assert np.max(np.abs(gram - np.eye(6))) < 1e-8
    assert np.all(np.diff(state.singular_values) <= 0.0)
    assert np.all(state.singular_values >= 0.0)
    assert state.iteration == 50


def test_variable_batch_width_accepted():
    rng = np.random.Generator(np.random.Philox(43))
    config = StreamConfig(k_modes=3, forget_factor=1.0)
    state = stream_initialize(rng.standard_normal((20, 5)), config)
    state = stream_incorporate(state, rng.standard_normal((20, 1)), config)
    state = stream_incorporate(state, rng.standard_normal((20, 9)), config)
    assert state.modes.shape == (20, 3)
    assert state.iteration == 2


def test_incorporate_validates_shapes():
    config = StreamConfig(k_modes=2)
    state = stream_initialize(np.diag([2.0, 1.0, 0.5])[:, :3], config)
    with pytest.raises(ValueError):
        stream_incorporate(state, np.ones((4, 2)), config)  # wrong rows
    with pytest.raises(ValueError):
        stream_incorporate(state, np.ones((3, 0)), config)  # empty batch
    wrong_k = StreamConfig(k_modes=3)
    with pytest.raises(ValueError):
        stream_incorporate(state, np.ones((3, 2)), wrong_k)


def test_rescue_pass_restores_orthonormality():
    # feed a state whose modes have drifted well past the guard threshold;
    # the update must hand back an orthonormal block anyway
    rng = np.random.Generator(np.random.Philox(44))
    config = StreamConfig(k_modes=3, forget_factor=1.0)
    q = qr_factor(rng.standard_normal((30, 3))).q
    drifted = q + 1e-4 * rng.standard_normal((30, 3))
    state = StreamState(drifted, np.array([3.0, 2.0, 1.0]), 0)
    new = stream_incorporate(state, rng.standard_normal((30, 4)), config)
    gram = new.modes.T @ new.modes
    assert np.max(np.abs(gram - np.eye(3))) < 1e-12
    assert np.all(np.diff(new.singular_values) <= 0.0)


@pytest.mark.parametrize("lean", [1e-4, 0.99999])
def test_rescue_pass_keeps_the_carried_matrix(lean):
    # a mildly drifted block is repaired through a Cholesky factor of its
    # Gram matrix, one with two nearly parallel columns through QR; either
    # way the update must factor [U diag(s) | A] exactly, since nothing is
    # truncated here
    rng = np.random.Generator(np.random.Philox(45))
    config = StreamConfig(k_modes=3, forget_factor=1.0)
    q = qr_factor(rng.standard_normal((30, 3))).q
    drifted = q.copy()
    drifted[:, 2] = lean * q[:, 0] + np.sqrt(1.0 - lean ** 2) * q[:, 2]
    values = np.array([3.0, 2.0, 1.0])
    batch = rng.standard_normal((30, 4))
    new = stream_incorporate(StreamState(drifted, values, 0), batch, config)
    exact = svd_full(np.concatenate([drifted * values, batch], axis=1))
    basis = new.carried_modes
    assert basis.shape == (30, 7)
    assert np.max(np.abs(basis.T @ basis - np.eye(7))) < 1e-12
    assert np.max(np.abs(new.carried_values - exact.s) / exact.s) < 1e-12
    assert np.max(aligned_mode_difference(basis, exact.u)) < 1e-10


def test_carried_width_follows_rank_and_row_count():
    # rank-3 data: the directions past the third are rounding noise and are
    # not carried; six rows: at most six columns are
    low_rank = synthetic_spectrum_matrix(40, 24, [4.0, 2.0, 1.0], seed=12)
    state, _ = stream_all(BatchSource.from_matrix(low_rank, 6),
                          StreamConfig(k_modes=3))
    assert state.carried_modes.shape == (40, 3)
    rng = np.random.Generator(np.random.Philox(46))
    short = rng.standard_normal((6, 20))
    config = StreamConfig(k_modes=2, forget_factor=1.0)
    state, _ = stream_all(BatchSource.from_matrix(short, 4), config)
    assert state.carried_modes.shape == (6, 6)
    assert state.modes.shape == (6, 2)
    direct = svd_full(short)
    assert np.allclose(state.carried_values, direct.s, rtol=1e-10)


def test_stream_all_checks_the_last_block():
    # a last batch inside span(modes) up to 1e-10 leaves a new direction
    # that one projection cannot make orthogonal; stream_all repairs the
    # block after the last update
    rng = np.random.Generator(np.random.Philox(47))
    a0 = rng.standard_normal((50, 6))
    last = a0 @ rng.standard_normal((6, 3)) \
        + 1e-10 * rng.standard_normal((50, 3))
    config = StreamConfig(k_modes=3, forget_factor=1.0)
    raw = stream_incorporate(stream_initialize(a0, config), last, config)
    width = raw.carried_modes.shape[1]
    gram = raw.carried_modes.T @ raw.carried_modes
    assert np.max(np.abs(gram - np.eye(width))) > 1e-8
    state, history = stream_all([a0, last], config)
    gram = state.carried_modes.T @ state.carried_modes
    assert np.max(np.abs(gram - np.eye(width))) < 1e-12
    assert np.allclose(state.singular_values, raw.singular_values,
                       rtol=1e-10)
    assert np.array_equal(history[-1], state.singular_values)


def test_stream_all_requires_batches():
    with pytest.raises(ValueError):
        stream_all([], StreamConfig(k_modes=2))


def test_first_burgers_batch_matches_direct(burgers_snapshots):
    a0 = burgers_snapshots[:, :100]
    state = stream_initialize(a0, StreamConfig(k_modes=10))
    direct = svd_full(a0)
    rel = np.abs(state.singular_values - direct.s[:10]) / direct.s[:10]
    assert np.max(rel) < 1e-10
    assert np.max(aligned_mode_difference(state.modes, direct.u[:, :10])) < 1e-8
