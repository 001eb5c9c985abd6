"""Distributed assembly: right-vector exchange, APMOS, TSQR, streaming."""

import numpy as np
import pytest

import oracles
import parsvd.comm
from parsvd.comm import (FRAME_HEADER, MATRIX_HEADER, RankContext,
                         run_simulated)
from test_comm import run_tcp
from oracles import row_partition
from parsvd.datagen import partition_bounds, synthetic_spectrum_matrix
from parsvd.dsvd import (ApmosConfig, _rank_sum, apmos, gather_modes,
                         generate_right_vectors, parallel_qr)
from parsvd.errors import DegenerateModeError, ProtocolError
from parsvd.linalg import (RandomSketchConfig, aligned_mode_difference,
                           qr_factor, svd_full)
from parsvd.streaming import StreamConfig, StreamState, stream_all, \
    stream_incorporate


def _random(rows, cols, seed):
    rng = np.random.Generator(np.random.Philox(seed))
    return rng.standard_normal((rows, cols))


# ---------- generate_right_vectors ----------

def test_right_vectors_diagonal():
    v, s = generate_right_vectors(np.diag([2.0, 1.0]), 2)
    assert np.array_equal(s, [2.0, 1.0])
    assert np.array_equal(np.abs(v), np.eye(2))


def test_right_vectors_against_gram_oracle():
    a = _random(50, 8, seed=60)
    v, s = generate_right_vectors(a, 4)
    ref = oracles.gram_singular_values(a)
    assert np.max(np.abs(s - ref[:4])) < 1e-9 * (1 + ref[0])
    # v columns are right singular vectors: A^T A v = s^2 v
    assert np.max(np.abs(a.T @ (a @ v) - v * s * s)) < 1e-9 * (1 + ref[0] ** 2)


def test_right_vectors_zero_padding_keeps_gram_identity():
    # a short block (4 rows, 10 columns) asked for r1 = 7 > min(m, n):
    # padded columns carry sigma 0 and W W^T must still equal A^T A
    a = _random(4, 10, seed=61)
    v, s = generate_right_vectors(a, 7)
    assert v.shape == (10, 7) and s.shape == (7,)
    assert np.all(s[4:] == 0.0)
    assert np.all(v[:, 4:] == 0.0)
    w = v * s
    assert np.max(np.abs(w @ w.T - a.T @ a)) < 1e-12


@pytest.mark.parametrize("name", ["zeros", "rank-2"])
def test_right_vectors_degenerate_tall_slabs(name):
    # a tall slab with fewer nonzero directions than r1: the subspace
    # iteration's QR meets a rank-deficient block, and v must still be
    # orthonormal with W W^T = A^T A
    a = np.zeros((50, 8))
    if name == "rank-2":
        a = _random(50, 2, seed=65) @ _random(2, 8, seed=66)
    v, s = generate_right_vectors(a, 5)
    assert v.shape == (8, 5) and s.shape == (5,)
    assert np.all(np.isfinite(v)) and np.all(np.isfinite(s))
    assert np.max(np.abs(v.T @ v - np.eye(5))) < 1e-13
    w = v * s
    scale = 1.0 + np.linalg.norm(a, 2) ** 2
    assert np.max(np.abs(w @ w.T - a.T @ a)) <= 1e-13 * scale


# Slabs of the 2048 x 800 Burgers matrix: the tall ones are 1024 rows high
# and go through the Gram eigenvectors and one subspace iteration. "narrow"
# is a tall slab 300 columns wide.
_SLABS = ["tall", "square", "wide", "zero-column", "repeated-column", "narrow"]


def _slab(snapshots, name):
    rows = {"square": slice(1024, 1824), "wide": slice(1024, 1424)}
    slab = snapshots[rows.get(name, slice(1024, None))].copy()
    if name == "zero-column":
        slab[:, 400] = 0.0
    elif name == "repeated-column":
        slab[:, -1] = slab[:, 0]
    elif name == "narrow":
        slab = slab[:, :300]
    return slab


def _check_right_vectors_match_slab_svd(slab):
    # values and sign-fixed vectors must be those of svd_full(slab)
    ref = svd_full(slab)
    v, s = generate_right_vectors(slab, 20)
    assert np.max(np.abs(s - ref.s[:20])) <= 1e-13 * ref.s[0]
    assert np.max(np.abs(v - ref.vt[:20].T)) <= 1e-13


@pytest.mark.parametrize("name", _SLABS)
def test_right_vectors_match_slab_svd(burgers_snapshots, name):
    # a tall slab goes through its Gram eigenvectors, the others through a
    # direct SVD
    _check_right_vectors_match_slab_svd(_slab(burgers_snapshots, name))


@pytest.mark.parametrize("name", _SLABS)
def test_right_vectors_match_slab_svd_on_the_fallback(burgers_snapshots, name,
                                                      fallback_qr):
    # the subspace iteration's QR as a numpy without dgeqrt takes it
    _check_right_vectors_match_slab_svd(_slab(burgers_snapshots, name))


@pytest.mark.parametrize("fallback", [False, True])
def test_right_vectors_steep_spectrum(fallback, request):
    # sigma_20 / sigma_1 = 4.6e-7: the Gram eigenvectors alone miss the
    # slab's trailing vectors by 9e-4, the subspace iteration recovers them
    if fallback:
        request.getfixturevalue("fallback_qr")
    a = synthetic_spectrum_matrix(3000, 40, 10.0 ** (-np.arange(40) / 3),
                                  seed=3)
    ref = svd_full(a)
    v, s = generate_right_vectors(a, 20)
    assert np.max(np.abs(s - ref.s[:20])) <= 1e-13 * ref.s[0]
    assert np.max(np.abs(v - ref.vt[:20].T)) <= 1e-9
    w = v * s
    leading = (ref.vt[:20].T * ref.s[:20] ** 2) @ ref.vt[:20]
    assert np.max(np.abs(w @ w.T - leading)) <= 1e-13 * ref.s[0] ** 2


def test_right_vectors_validation():
    with pytest.raises(ValueError):
        generate_right_vectors(np.ones((3, 2)), 3)  # r1 > columns
    with pytest.raises(ValueError):
        generate_right_vectors(np.ones((3, 2)), 0)


# ---------- apmos ----------

def test_apmos_world_size_one_matches_direct():
    a = _random(30, 10, seed=63)
    direct = svd_full(a)
    config = ApmosConfig(local_rank=10, global_rank=6, k_modes=4)
    [local] = run_simulated(1, lambda ctx: apmos(ctx, a, config))
    assert local.vt is None
    assert np.allclose(local.s, direct.s[:4], rtol=1e-10)
    assert np.max(aligned_mode_difference(local.u, direct.u[:, :4])) < 1e-9


@pytest.mark.parametrize("world_size", [1, 2, 4])
def test_apmos_matches_the_burgers_svd(burgers_snapshots, burgers_direct_svd,
                                       world_size):
    # r1 = 50 of 800 columns per rank, so every rank truncates; tall slabs
    # (P = 1, 2) take the Gram route, the 512-row slabs at P = 4 a direct SVD
    blocks = row_partition(burgers_snapshots, world_size)
    config = ApmosConfig(local_rank=50, global_rank=5, k_modes=5)

    def program(ctx):
        local = apmos(ctx, blocks[ctx.rank], config)
        return gather_modes(ctx, local.u), local.s

    modes, values = run_simulated(world_size, program)[0]
    exact = burgers_direct_svd.s[:5]
    assert np.max(np.abs(values - exact) / exact) <= 1e-10
    assert np.max(aligned_mode_difference(
        modes, burgers_direct_svd.u[:, :5])) <= 1e-10


def test_apmos_four_ranks_exact_when_untrancated():
    a = _random(64, 16, seed=42)
    direct = svd_full(a)
    blocks = row_partition(a, 4)
    config = ApmosConfig(local_rank=16, global_rank=16, k_modes=5)

    def program(ctx):
        local = apmos(ctx, blocks[ctx.rank], config)
        return gather_modes(ctx, local.u), local.s

    results = run_simulated(4, program)
    stacked, values = results[0]
    assert results[1][0] is None
    for rank in range(1, 4):  # identical values everywhere
        assert np.array_equal(results[rank][1], values)
    assert np.max(np.abs(values - direct.s[:5]) / direct.s[:5]) < 1e-9
    assert np.max(aligned_mode_difference(stacked, direct.u[:, :5])) < 1e-8


def test_apmos_broadcasts_only_the_k_columns_it_lifts():
    # on the dense route r2 only bounds the stacked factorization: r2 = K
    # and r2 = 2K give the same bits, and rank 0 sends one broadcast frame
    # of [X_K; lambda_K], (N + 1) x K
    a = _random(64, 16, seed=70)
    blocks = row_partition(a, 2)
    k = 3

    def run(r2):
        config = ApmosConfig(local_rank=8, global_rank=r2, k_modes=k)

        def program(ctx):
            local = apmos(ctx, blocks[ctx.rank], config)
            return local.u, local.s, ctx.stats.bytes_sent

        return run_simulated(2, program)

    narrow, wide = run(k), run(2 * k)
    for (u, s, _), (wide_u, wide_s, _) in zip(narrow, wide):
        assert np.array_equal(u, wide_u) and np.array_equal(s, wide_s)
    frame = FRAME_HEADER.size + MATRIX_HEADER.size + 8 * (16 + 1) * k
    assert narrow[0][2] == wide[0][2] == frame


def test_apmos_rank_count_invariance_with_short_blocks():
    a = _random(64, 16, seed=42)
    reference = None
    for world_size in (1, 2, 4, 8):
        blocks = row_partition(a, world_size)
        config = ApmosConfig(local_rank=16, global_rank=16, k_modes=5)

        def program(ctx):
            return gather_modes(ctx, apmos(ctx, blocks[ctx.rank], config).u)

        stacked = run_simulated(world_size, program)[0]
        if reference is None:
            reference = stacked
        else:
            assert np.max(aligned_mode_difference(stacked, reference)) < 1e-8


def test_apmos_randomized_kernel_route():
    # gapped spectrum, sketch comfortably wider than the kept rank
    a = synthetic_spectrum_matrix(48, 12, 2.0 ** -np.arange(6), seed=64)
    direct = svd_full(a)
    blocks = row_partition(a, 3)
    sketch = RandomSketchConfig(target_rank=6, oversampling=6,
                                power_iterations=2, seed=9)
    config = ApmosConfig(local_rank=12, global_rank=6, k_modes=3,
                         sketch=sketch)

    def program(ctx):
        return gather_modes(ctx, apmos(ctx, blocks[ctx.rank], config).u)

    stacked = run_simulated(3, program)[0]
    assert np.max(aligned_mode_difference(stacked, direct.u[:, :3])) < 1e-7


@pytest.mark.parametrize("rows", [20, 4])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_apmos_refuses_a_non_finite_slab(rows, bad):
    # apmos leaves the scan of its slab to generate_right_vectors, on the
    # tall route and the short one alike
    a = _random(rows, 6, seed=67)
    a[2, 3] = bad
    with pytest.raises(ValueError, match="a_local contains non-finite"):
        apmos(RankContext(0, 1), a, ApmosConfig(3, 2, 2))


def test_apmos_degenerate_mode_error_names_index():
    blocks = [np.zeros((4, 6)), np.zeros((4, 6))]
    config = ApmosConfig(local_rank=3, global_rank=2, k_modes=2)

    def program(ctx):
        return apmos(ctx, blocks[ctx.rank], config)

    with pytest.raises(DegenerateModeError, match="mode 0"):
        run_simulated(2, program)


def test_apmos_config_validation():
    with pytest.raises(ValueError):
        ApmosConfig(local_rank=0, global_rank=2, k_modes=1)
    with pytest.raises(ValueError):
        ApmosConfig(local_rank=4, global_rank=2, k_modes=3)  # k > r2
    with pytest.raises(ValueError):
        ApmosConfig(local_rank=4, global_rank=4, k_modes=2,
                    sketch=RandomSketchConfig(target_rank=2))

    # r2 beyond what the exchange can deliver fails at run time
    def program(ctx):
        config = ApmosConfig(local_rank=2, global_rank=5, k_modes=2)
        return apmos(ctx, np.ones((3, 4)), config)

    with pytest.raises(ValueError, match="global_rank"):
        run_simulated(2, program)


# ---------- parallel_qr ----------

def test_parallel_qr_world_size_one_is_serial_bitwise():
    a = _random(20, 6, seed=65)
    serial = qr_factor(a)
    [parallel] = run_simulated(1, lambda ctx: parallel_qr(ctx, a))
    assert np.array_equal(parallel.q, serial.q)
    assert np.array_equal(parallel.r, serial.r)


def test_parallel_qr_four_ranks():
    a = _random(32, 5, seed=66)
    blocks = row_partition(a, 4)

    def program(ctx):
        res = parallel_qr(ctx, blocks[ctx.rank])
        return res.q, res.r

    results = run_simulated(4, program)
    r = results[0][1]
    for rank in range(1, 4):  # same triangular factor on every rank
        assert np.array_equal(results[rank][1], r)
    q = np.concatenate([res[0] for res in results], axis=0)
    assert np.max(np.abs(q.T @ q - np.eye(5))) < 1e-12
    assert np.max(np.abs(q @ r - a)) < 1e-12
    assert np.all(np.diag(r) >= 0.0)
    # same convention as the serial kernel, so the factors must agree
    serial = qr_factor(a)
    assert np.max(np.abs(r - serial.r)) < 1e-10
    assert np.max(np.abs(q - serial.q)) < 1e-10


def test_parallel_qr_handles_short_blocks():
    # 3 rows per rank, 5 columns: local triangular factors are 3 x 5
    a = _random(9, 5, seed=67)
    blocks = row_partition(a, 3)

    def program(ctx):
        res = parallel_qr(ctx, blocks[ctx.rank])
        return res.q, res.r

    results = run_simulated(3, program)
    q = np.concatenate([res[0] for res in results], axis=0)
    r = results[0][1]
    assert np.max(np.abs(q @ r - a)) < 1e-12
    assert np.max(np.abs(q.T @ q - np.eye(5))) < 1e-12


def test_parallel_qr_refuses_a_factor_of_another_width():
    # rank 1 factors 4 columns against rank 0's 3: its R cannot be stacked
    def program(ctx):
        return parallel_qr(ctx, _random(6, 3 + ctx.rank, seed=68))

    with pytest.raises(ProtocolError, match=r"rank 1 sent a \(4, 4\)"):
        run_simulated(2, program)


def test_rank_sum_refuses_a_part_of_another_shape():
    # a 1 x 1 part would broadcast into rank 0's 3 x 4 sum without an error
    def program(ctx):
        return _rank_sum(ctx, np.ones((3, 4) if ctx.rank == 0 else (1, 1)))

    with pytest.raises(ProtocolError, match=r"rank 1 sent a \(1, 1\) part"):
        run_simulated(2, program)


@pytest.mark.parametrize("world_size", [1, 2, 3])
@pytest.mark.parametrize("shape", [(60, 8), (300, 40)])
def test_parallel_qr_apply_matches_formed_q(world_size, shape):
    # 8 columns are one panel, 40 recurse; the local factor goes through
    # this rank's slice of the root's q
    a = _random(*shape, seed=68)
    x = _random(shape[1], 6, seed=69)
    blocks = row_partition(a, world_size)

    def program(ctx):
        res = parallel_qr(ctx, blocks[ctx.rank])
        return res.apply(x), res.q

    results = run_simulated(world_size, program)
    applied = np.concatenate([res[0] for res in results], axis=0)
    q = np.concatenate([res[1] for res in results], axis=0)
    assert np.max(np.abs(applied - q @ x)) <= 1e-13 * np.max(np.abs(x))
    if world_size == 1:
        assert np.array_equal(applied, qr_factor(a).apply(x))


# ---------- streaming across ranks ----------

# The serial references below: one rank with no connections.
ONE = RankContext(0, 1)


def test_stream_steps_in_a_world_of_one_match_a_simulated_rank_bitwise():
    a = _random(24, 15, seed=68)
    config = StreamConfig(k_modes=4, forget_factor=0.95)

    def program(ctx):
        state = None
        for batch in (a[:, :5], a[:, 5:10], a[:, 10:]):
            state = stream_incorporate(ctx, state, batch, config)
        return state

    serial = program(ONE)
    [parallel] = run_simulated(1, program)
    assert np.array_equal(parallel.modes, serial.modes)
    assert np.array_equal(parallel.singular_values, serial.singular_values)


def test_parallel_rescue_pass_restores_orthonormality():
    # world-size-2 counterpart of the serial rescue test: a drifted state
    # split across ranks must come back orthonormal, and agree with the
    # serial update of the same drifted state
    rng = np.random.Generator(np.random.Philox(44))
    config = StreamConfig(k_modes=3, forget_factor=1.0)
    q = qr_factor(rng.standard_normal((30, 3))).q
    drifted = q + 1e-4 * rng.standard_normal((30, 3))
    values = np.array([3.0, 2.0, 1.0])
    batch = rng.standard_normal((30, 4))
    serial = stream_incorporate(
        ONE, StreamState(drifted, values, drifted, values, 30), batch, config)
    mode_blocks = row_partition(drifted, 2)
    batch_blocks = row_partition(batch, 2)

    def program(ctx):
        block = mode_blocks[ctx.rank]
        state = StreamState(block, values, block, values, 30)
        new = stream_incorporate(ctx, state, batch_blocks[ctx.rank], config)
        return gather_modes(ctx, new.modes), new.singular_values

    (stacked, got), (_, other) = run_simulated(2, program)
    assert np.max(np.abs(stacked.T @ stacked - np.eye(3))) < 1e-12
    assert np.all(np.diff(got) <= 0.0)
    assert np.array_equal(got, other)
    assert np.max(np.abs(got - serial.singular_values)) < 1e-12
    assert np.max(aligned_mode_difference(stacked, serial.modes)) < 1e-10


def test_stream_all_in_a_world_of_one_matches_simulated_ranks():
    a = _random(40, 23, seed=70)
    config = StreamConfig(k_modes=3, forget_factor=0.9)
    serial, serial_history = stream_all(
        ONE, [a[:, i:i + 5] for i in range(0, 23, 5)], config)

    def program(ctx):
        lo, hi = partition_bounds(40, ctx.world_size)[ctx.rank]
        state, history = stream_all(
            ctx, [a[lo:hi, i:i + 5] for i in range(0, 23, 5)], config)
        return gather_modes(ctx, state.modes), state, history

    [(modes, state, history)] = run_simulated(1, program)
    assert np.array_equal(modes, serial.modes)
    assert np.array_equal(state.carried_values, serial.carried_values)
    assert np.array_equal(np.vstack(history), np.vstack(serial_history))

    modes, state, history = run_simulated(3, program)[0]
    assert len(history) == len(serial_history) == 5
    assert np.allclose(state.carried_values, serial.carried_values,
                       rtol=1e-12)
    assert np.max(aligned_mode_difference(modes, serial.modes)) < 1e-10


def test_a_world_of_one_never_touches_the_codec(monkeypatch):
    # no other rank exists, so no collective writes or reads a frame
    def refuse(*args):
        raise AssertionError("a frame was written or read in a world of one")

    monkeypatch.setattr(parsvd.comm, "_frame", refuse)
    monkeypatch.setattr(parsvd.comm, "_read_frame", refuse)
    a = _random(40, 23, seed=70)
    state, history = stream_all(
        ONE, [a[:, i:i + 5] for i in range(0, 23, 5)],
        StreamConfig(k_modes=3, forget_factor=0.9))
    assert len(history) == 5
    config = ApmosConfig(local_rank=10, global_rank=5, k_modes=3)
    [modes] = run_simulated(
        1, lambda ctx: gather_modes(ctx, apmos(ctx, a, config).u))
    assert modes.shape == (40, 3)


def test_parallel_states_survive_later_updates():
    # each call runs in a workspace of its own, so a state returned earlier
    # keeps its bits through later updates, at every rank
    a = _random(40, 25, seed=71)
    config = StreamConfig(k_modes=3, buffer_columns=4)

    def program(ctx):
        lo, hi = partition_bounds(40, ctx.world_size)[ctx.rank]
        first = None
        for start in (0, 5):
            first = stream_incorporate(ctx, first, a[lo:hi, start:start + 5],
                                       config)
        kept = [first.modes.copy(), first.carried_modes.copy(),
                first.carried_values.copy()]
        state = first
        for start in (10, 15, 20):
            state = stream_incorporate(ctx, state, a[lo:hi, start:start + 5],
                                       config)
        now = [first.modes, first.carried_modes, first.carried_values]
        return all(np.array_equal(x, y) for x, y in zip(kept, now))

    assert run_simulated(2, program) == [True, True]


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_parallel_stream_refuses_a_non_finite_later_batch(bad):
    a = _random(40, 15, seed=72)
    a[31, 12] = bad  # rank 1's rows, third batch
    config = StreamConfig(k_modes=3)

    def program(ctx):
        lo, hi = partition_bounds(40, ctx.world_size)[ctx.rank]
        return stream_all(
            ctx, [a[lo:hi, i:i + 5] for i in range(0, 15, 5)], config)

    with pytest.raises(ValueError, match="non-finite"):
        run_simulated(2, program)


# Rank 0's (frames sent, bytes sent, frames received, bytes received) over
# a stream of four batches, by world size.
STREAM_TRAFFIC = {2: (9, 8588, 9, 5388), 3: (18, 17176, 18, 10776)}


@pytest.mark.parametrize("world_size", [2, 3])
def test_stream_traffic_is_four_transfers_per_batch(world_size):
    # with no QR rescue, rank 0 moves 4 (P - 1) frames per batch and
    # 2 (P - 1) for the final check: a TSQR is one gather and one reply to
    # each rank, a rank sum one gather and one broadcast. The first batch
    # is the update of an empty block: its TSQR and row-count sum make the
    # four, with no rank sum of a projection
    a = _random(60, 40, seed=74)
    config = StreamConfig(k_modes=3, buffer_columns=2)

    def program(ctx):
        lo, hi = partition_bounds(60, ctx.world_size)[ctx.rank]
        stream_all(ctx, [a[lo:hi, i:i + 10] for i in range(0, 40, 10)],
                   config)
        return ctx.stats

    stats = run_simulated(world_size, program)[0]
    assert stats.frames_sent + stats.frames_received \
        == (4 * 4 + 2) * (world_size - 1)
    assert (stats.frames_sent, stats.bytes_sent, stats.frames_received,
            stats.bytes_received) == STREAM_TRAFFIC[world_size]


def test_parallel_stream_caps_width_at_global_rows():
    # six rows over three ranks: the carried width follows the global row
    # count, which each state keeps, not any rank's share of it
    short = _random(6, 20, seed=73)
    config = StreamConfig(k_modes=2, forget_factor=1.0)

    def program(ctx):
        lo, hi = partition_bounds(6, ctx.world_size)[ctx.rank]
        state, _ = stream_all(
            ctx, [short[lo:hi, i:i + 4] for i in range(0, 20, 4)], config)
        return state

    direct = svd_full(short)
    for state in run_simulated(3, program):
        assert state.carried_modes.shape == (2, 6)
        assert state.total_rows == 6
        assert np.allclose(state.carried_values, direct.s, rtol=1e-10)


def test_parallel_stream_over_tcp_matches_simulator_wide_batches():
    # three ranks over the star-shaped TCP transport, with batches wide
    # enough that each rank sum moves a (K + p) x (K + p + b) block of
    # 150 KB: the update must finish and match the simulator bit for bit
    a = _random(600, 1500, seed=72)
    config = StreamConfig(k_modes=5, forget_factor=1.0)

    def program(ctx):
        lo, hi = partition_bounds(600, ctx.world_size)[ctx.rank]
        state, history = stream_all(
            ctx, [a[lo:hi, i:i + 500] for i in range(0, 1500, 500)], config)
        return state.carried_modes, np.vstack(history)

    for (t_modes, t_hist), (s_modes, s_hist) in zip(
            run_tcp(3, program, deadline=30.0), run_simulated(3, program)):
        assert np.array_equal(t_modes, s_modes)
        assert np.array_equal(t_hist, s_hist)


def test_parallel_stream_matches_direct_on_gapped_spectrum():
    sv = np.concatenate([1.3 ** -np.arange(4), 1e-9 * 0.5 ** np.arange(8)])
    a = synthetic_spectrum_matrix(60, 24, sv, seed=69)
    direct = svd_full(a)
    blocks = row_partition(a, 4)
    config = StreamConfig(k_modes=4, forget_factor=1.0)

    def program(ctx):
        block = blocks[ctx.rank]
        state = None
        for start in (0, 8, 16):
            state = stream_incorporate(ctx, state, block[:, start:start + 8],
                                       config)
        return gather_modes(ctx, state.modes), state.singular_values

    stacked, values = run_simulated(4, program)[0]
    assert np.max(np.abs(values - direct.s[:4]) / direct.s[:4]) < 1e-8
    assert np.max(aligned_mode_difference(stacked, direct.u[:, :4])) < 1e-6


def test_parallel_stream_burgers_truncation_error_profile(burgers_snapshots,
                                                          burgers_direct_svd):
    """Streaming with a K-wide state cannot beat the energy it discards.

    On the Burgers spectrum (slow decay), K = 5 lands near 1e-2 of the top
    five values; carrying a 50-wide state and reading out the top five gets
    through at 1e-6. Both facts are pinned here.
    """
    a = burgers_snapshots
    direct = burgers_direct_svd
    blocks = row_partition(a, 4)

    def run(k_modes):
        config = StreamConfig(k_modes=k_modes, forget_factor=1.0,
                              buffer_columns=0)

        def program(ctx):
            block = blocks[ctx.rank]
            state = None
            for start in range(0, 800, 200):
                state = stream_incorporate(
                    ctx, state, block[:, start:start + 200], config)
            return state.singular_values

        return run_simulated(4, program)[0]

    narrow = run(5)
    err_narrow = np.max(np.abs(narrow - direct.s[:5]) / direct.s[:5])
    assert 1e-6 < err_narrow < 2e-2

    wide = run(50)
    err_wide = np.max(np.abs(wide[:5] - direct.s[:5]) / direct.s[:5])
    assert err_wide < 1e-6


def test_gather_modes_rank_order():
    def program(ctx):
        return gather_modes(ctx, np.full((2, 2), float(ctx.rank)))

    results = run_simulated(3, program)
    assert results[1] is None and results[2] is None
    assert np.array_equal(results[0][::2, 0], [0.0, 1.0, 2.0])


def test_gather_modes_refuses_a_block_of_another_width():
    # ranks started with different --k values assemble different K
    def program(ctx):
        return gather_modes(ctx, np.ones((2, 2 + ctx.rank)))

    with pytest.raises(ProtocolError, match=r"rank 1 sent a \(2, 3\)"):
        run_simulated(2, program)
