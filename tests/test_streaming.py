"""Streaming SVD update rule: exactness, invariances, forget factor."""

import numpy as np
import pytest

from parsvd.comm import RankContext
from parsvd.datagen import synthetic_spectrum_matrix
from parsvd.io import BatchSource, write_matrix_blocks
from oracles import subspace_angles
from parsvd.linalg import aligned_mode_difference, qr_factor, svd_full
from parsvd.streaming import StreamConfig, StreamState, Workspace, \
    stream_all, stream_incorporate

# Every stream here runs serially: one rank with no connections.
ONE = RankContext(0, 1)

def _slices(a, width):
    """a's column batches of the given width, the last one narrower."""
    return [a[:, i:i + width] for i in range(0, a.shape[1], width)]


def _carrying(modes, values):
    """A state that carries just its modes: the rescue-pass tests' inputs."""
    return StreamState(modes, values, modes, values, modes.shape[0])


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
    state = stream_incorporate(ONE, None, np.diag([3.0, 2.0, 1.0]),
                               StreamConfig(k_modes=3))
    assert np.array_equal(state.singular_values, [3.0, 2.0, 1.0])
    assert np.array_equal(np.abs(state.modes), np.eye(3))


def test_initialize_matches_direct_svd():
    rng = np.random.Generator(np.random.Philox(40))
    a0 = rng.standard_normal((30, 8))
    state = stream_incorporate(ONE, None, a0, StreamConfig(k_modes=8))
    direct = svd_full(a0)
    # same factorization reached through QR + small SVD; equal to roundoff
    assert np.max(np.abs(state.singular_values - direct.s) / direct.s) < 1e-12
    assert np.max(aligned_mode_difference(state.modes, direct.u)) < 1e-10


def test_initialize_needs_enough_columns():
    with pytest.raises(ValueError):
        stream_incorporate(ONE, None, np.ones((5, 2)),
                           StreamConfig(k_modes=3))


def test_single_shot_equivalence_constructed_spectrum():
    a = _constructed()
    direct = svd_full(a)
    config = StreamConfig(k_modes=5, forget_factor=1.0)
    state, _ = stream_all(ONE, _slices(a, 15), config)
    rel = np.abs(state.singular_values - direct.s[:5]) / direct.s[:5]
    assert np.max(rel) < 1e-8
    assert np.max(aligned_mode_difference(state.modes, direct.u[:, :5])) < 1e-6


def test_partition_invariance():
    a = _constructed()
    direct = svd_full(a)
    for width in (36, 12, 9, 7, 5):
        config = StreamConfig(k_modes=5, forget_factor=1.0)
        state, history = stream_all(ONE, _slices(a, width), config)
        rel = np.abs(state.singular_values - direct.s[:5]) / direct.s[:5]
        assert np.max(rel) < 1e-6, f"width {width}"
        assert np.max(aligned_mode_difference(state.modes,
                                              direct.u[:, :5])) < 1e-5
        assert len(history) == -(-36 // width)


def test_exact_when_k_covers_rank():
    # rank-3 data, K = 3, no forgetting: streaming loses nothing
    a = synthetic_spectrum_matrix(40, 24, [4.0, 2.0, 1.0], seed=12)
    direct = svd_full(a)
    config = StreamConfig(k_modes=3, forget_factor=1.0)
    state, _ = stream_all(ONE, _slices(a, 6), config)
    assert np.allclose(state.singular_values, direct.s[:3], rtol=1e-10)
    assert np.max(aligned_mode_difference(state.modes, direct.u[:, :3])) < 1e-9


def test_incorporate_batch_in_current_span():
    # a batch inside span(modes) must leave the subspace unchanged; the new
    # values are exactly the svd of [diag(d) | coefficients]
    rng = np.random.Generator(np.random.Philox(41))
    a0 = rng.standard_normal((25, 6))
    config = StreamConfig(k_modes=4, forget_factor=1.0)
    state = stream_incorporate(ONE, None, a0, config)
    coeff = rng.standard_normal((4, 3))
    batch = state.modes @ coeff
    new = stream_incorporate(ONE, state, batch, config)
    angles = subspace_angles(new.modes, state.modes)
    # arccos cannot resolve angles below sqrt(2 eps) ~ 2e-8; anything under
    # 1e-7 is zero to measurement precision
    assert np.max(angles) < 1e-7
    small = np.concatenate([np.diag(state.singular_values), coeff], axis=1)
    expect = svd_full(small).s[:4]
    assert np.allclose(new.singular_values, expect, rtol=1e-12)


def test_forget_factor_damps_history():
    a = _constructed(rows=50, cols=20, seed=13)
    plain = StreamConfig(k_modes=5, forget_factor=1.0)
    damped = StreamConfig(k_modes=5, forget_factor=0.95)
    s_plain, _ = stream_all(ONE, _slices(a, 10), plain)
    s_damped, _ = stream_all(ONE, _slices(a, 10), damped)
    assert s_damped.singular_values[0] < s_plain.singular_values[0]
    assert np.all(s_damped.singular_values <= s_plain.singular_values + 1e-12)


@pytest.mark.parametrize("ff, width", [(0.95, 100), (0.8, 50)])
def test_forget_factor_matches_the_weighted_matrix(burgers_snapshots, ff,
                                                   width):
    # with ff < 1 the stream tracks [ff^(T-1) A_1, ..., ff A_(T-1), A_T]:
    # the weight falls per batch, not per snapshot. The gates are those of
    # the streaming-equivalence acceptance line
    batches = _slices(burgers_snapshots, width)
    count = len(batches)
    weighted = np.hstack([ff ** (count - 1 - t) * batch
                          for t, batch in enumerate(batches)])
    state, _ = stream_all(ONE, batches,
                          StreamConfig(k_modes=5, forget_factor=ff))
    exact = svd_full(weighted)
    value_err = np.abs(state.singular_values - exact.s[:5]) / exact.s[:5]
    assert np.max(value_err) <= 1e-6
    assert np.max(aligned_mode_difference(state.modes, exact.u[:, :5])) <= 1e-5


def test_modes_stay_orthonormal_over_many_updates():
    rng = np.random.Generator(np.random.Philox(42))
    config = StreamConfig(k_modes=6, forget_factor=0.95)
    state = None
    for _ in range(51):
        state = stream_incorporate(ONE, state, rng.standard_normal((64, 8)),
                                   config)
    gram = state.modes.T @ state.modes
    assert np.max(np.abs(gram - np.eye(6))) < 1e-8
    assert np.all(np.diff(state.singular_values) <= 0.0)
    assert np.all(state.singular_values >= 0.0)


def test_variable_batch_width_accepted():
    rng = np.random.Generator(np.random.Philox(43))
    config = StreamConfig(k_modes=3, forget_factor=1.0)
    state = None
    for width in (5, 1, 9):
        state = stream_incorporate(ONE, state,
                                   rng.standard_normal((20, width)), config)
    assert state.modes.shape == (20, 3)
    # 15 Gaussian columns span 15 directions, all carried
    assert state.carried_modes.shape == (20, 15)


def test_incorporate_validates_shapes():
    config = StreamConfig(k_modes=2)
    state = stream_incorporate(ONE, None, np.diag([2.0, 1.0, 0.5]), config)
    with pytest.raises(ValueError):
        stream_incorporate(ONE, state, np.ones((4, 2)), config)  # wrong rows
    with pytest.raises(ValueError):
        stream_incorporate(ONE, state, np.ones((3, 0)), config)  # empty batch
    wrong_k = StreamConfig(k_modes=3)
    with pytest.raises(ValueError):
        stream_incorporate(ONE, state, np.ones((3, 2)), wrong_k)


def test_rescue_pass_restores_orthonormality():
    # feed a state whose modes have drifted well past the guard threshold;
    # the update must hand back an orthonormal block anyway
    rng = np.random.Generator(np.random.Philox(44))
    config = StreamConfig(k_modes=3, forget_factor=1.0)
    q = qr_factor(rng.standard_normal((30, 3))).q
    drifted = q + 1e-4 * rng.standard_normal((30, 3))
    state = _carrying(drifted, np.array([3.0, 2.0, 1.0]))
    new = stream_incorporate(ONE, state, rng.standard_normal((30, 4)), config)
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
    new = stream_incorporate(ONE, _carrying(drifted, values), batch, config)
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
    state, _ = stream_all(ONE, _slices(low_rank, 6), StreamConfig(k_modes=3))
    assert state.carried_modes.shape == (40, 3)
    rng = np.random.Generator(np.random.Philox(46))
    short = rng.standard_normal((6, 20))
    config = StreamConfig(k_modes=2, forget_factor=1.0)
    state, _ = stream_all(ONE, _slices(short, 4), config)
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
    raw = None
    for batch in (a0, last):
        raw = stream_incorporate(ONE, raw, batch, config)
    width = raw.carried_modes.shape[1]
    gram = raw.carried_modes.T @ raw.carried_modes
    assert np.max(np.abs(gram - np.eye(width))) > 1e-8
    state, history = stream_all(ONE, [a0, last], config)
    gram = state.carried_modes.T @ state.carried_modes
    assert np.max(np.abs(gram - np.eye(width))) < 1e-12
    assert np.allclose(state.singular_values, raw.singular_values,
                       rtol=1e-10)
    assert np.array_equal(history[-1], state.singular_values)


def test_stream_all_requires_batches():
    with pytest.raises(ValueError):
        stream_all(ONE, [], StreamConfig(k_modes=2))


def test_first_burgers_batch_matches_direct(burgers_snapshots):
    a0 = burgers_snapshots[:, :100]
    state = stream_incorporate(ONE, None, a0, StreamConfig(k_modes=10))
    direct = svd_full(a0)
    rel = np.abs(state.singular_values - direct.s[:10]) / direct.s[:10]
    assert np.max(rel) < 1e-10
    assert np.max(aligned_mode_difference(state.modes, direct.u[:, :10])) < 1e-8


# ---------- the workspace ----------

def _arrays(state):
    return [np.array(x) for x in (state.modes, state.singular_values,
                                  state.carried_modes, state.carried_values)]


def _same_state(x, y):
    return all(np.array_equal(a, b) for a, b in zip(_arrays(x), _arrays(y)))


def _single_steps(batches, config):
    """stream_all's steps, one call each and without the final check."""
    state, history = None, []
    for batch in batches:
        state = stream_incorporate(ONE, state, batch, config)
        history.append(state.singular_values)
    return state, history


def test_returned_states_survive_later_updates():
    rng = np.random.Generator(np.random.Philox(48))
    config = StreamConfig(k_modes=3, buffer_columns=4)
    batches = [rng.standard_normal((40, 5)) for _ in range(5)]
    inputs = [b.copy() for b in batches]
    first = None
    for batch in batches[:2]:
        first = stream_incorporate(ONE, first, batch, config)
    kept = _arrays(first)
    state = first
    for batch in batches[2:]:
        state = stream_incorporate(ONE, state, batch, config)
    assert all(np.array_equal(a, b) for a, b in zip(kept, _arrays(first)))
    assert all(np.array_equal(a, b) for a, b in zip(batches, inputs))


@pytest.mark.parametrize("widths", [(8, 8, 8, 8, 8), (5, 3, 12, 2, 20, 1)])
def test_stream_all_matches_single_steps_bit_for_bit(widths, tmp_path):
    # one workspace for the whole stream gives the bits of a workspace per
    # update; a later batch wider than the first grows the workspace
    rng = np.random.Generator(np.random.Philox(49))
    a = rng.standard_normal((50, sum(widths)))
    edges = np.cumsum((0,) + widths)
    batches = [a[:, lo:hi] for lo, hi in zip(edges[:-1], edges[1:])]
    config = StreamConfig(k_modes=3, buffer_columns=5)
    ref, ref_history = _single_steps(batches, config)
    state, history = stream_all(ONE, batches, config)
    assert _same_state(state, ref)
    assert all(np.array_equal(x, y) for x, y in zip(history, ref_history))
    # a file source reads its batches straight into the workspace
    path = tmp_path / "a.bin"
    write_matrix_blocks(path, a.shape, [a])
    source = BatchSource(path, widths[0], rows=(10, 50))
    ref, ref_history = _single_steps(list(source), config)
    state, history = stream_all(ONE, source, config)
    assert _same_state(state, ref)
    assert all(np.array_equal(x, y) for x, y in zip(history, ref_history))


def _drifted_state(lean, rng):
    """The inputs of the rescue-pass tests: a block drifted at random by
    1e-4 (lean None), or with its third column leaning on its first."""
    q = qr_factor(rng.standard_normal((30, 3))).q
    if lean is None:
        return _carrying(q + 1e-4 * rng.standard_normal((30, 3)),
                         np.array([3.0, 2.0, 1.0]))
    drifted = q.copy()
    drifted[:, 2] = lean * q[:, 0] + np.sqrt(1.0 - lean ** 2) * q[:, 2]
    return _carrying(drifted, np.array([3.0, 2.0, 1.0]))


@pytest.mark.parametrize("lean", [None, 1e-4, 0.99999])
def test_one_workspace_matches_single_steps_through_rescue_passes(lean):
    # the Cholesky and QR rescue passes rewrite the carried block; in a
    # shared workspace they must leave the same bits as in a fresh one
    rng = np.random.Generator(np.random.Philox(50))
    config = StreamConfig(k_modes=3, forget_factor=1.0)
    shared = single = _drifted_state(lean, rng)
    workspace = Workspace(config.k_modes + config.buffer_columns)
    for width in (4, 6, 2):
        batch = rng.standard_normal((30, width))
        shared = stream_incorporate(ONE, shared, batch, config, workspace)
        single = stream_incorporate(ONE, single, batch, config)
        assert _same_state(shared, single)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_later_batch_is_refused(bad, tmp_path):
    rng = np.random.Generator(np.random.Philox(51))
    a = rng.standard_normal((20, 12))
    a[7, 9] = bad
    config = StreamConfig(k_modes=2)
    with pytest.raises(ValueError, match="non-finite"):
        stream_all(ONE, [a[:, :4], a[:, 4:8], a[:, 8:]], config)
    # the file reader does not scan; the update does, once the batch is in
    path = tmp_path / "a.bin"
    write_matrix_blocks(path, a.shape, [np.nan_to_num(a)])
    with open(path, "r+b") as fh:
        fh.seek(24 + 8 * (20 * 9 + 7))
        fh.write(np.float64(bad).tobytes())
    with pytest.raises(ValueError, match="non-finite"):
        stream_all(ONE, BatchSource(path, 4), config)

