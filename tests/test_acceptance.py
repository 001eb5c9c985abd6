"""Acceptance battery: one test per promised behavior, one PASS/FAIL line each.

Each test exercises a headline guarantee end to end and reports a summary
line through the `acceptance` fixture, so a full run prints a checklist.
Tolerances here are contractual; they must not be loosened to make a red
test green.
"""

import subprocess
import sys
import time

import numpy as np

from conftest import free_port
from oracles import subspace_angles
from parsvd.cli import main
from parsvd.comm import (FRAME_HEADER, MATRIX_HEADER, RankContext,
                         run_simulated)
from parsvd.datagen import partition_bounds, synthetic_spectrum_matrix
from parsvd.dsvd import ApmosConfig, apmos, gather_modes
from parsvd.io import write_matrix_blocks
from parsvd.linalg import (RandomSketchConfig, aligned_mode_difference,
                           low_rank_svd, qr_factor, svd_full)
from parsvd.streaming import StreamConfig, stream_all


def _apmos_runner(a, world_size, config):
    """Run apmos over a simulated world and return stacked modes + values."""

    def body(ctx):
        lo, hi = partition_bounds(a.shape[0], ctx.world_size)[ctx.rank]
        res = apmos(ctx, a[lo:hi], config)
        stacked = gather_modes(ctx, res.u)
        return (stacked, res.s) if ctx.rank == 0 else None

    return run_simulated(world_size, body)[0]


def test_serial_vs_parallel_agreement(acceptance, burgers_snapshots,
                                      burgers_direct_svd):
    # 2048 x 800 snapshot matrix over 4 ranks; the two leading modes of the
    # partitioned decomposition must agree with a direct SVD well below
    # plotting resolution.
    start = time.perf_counter()
    config = ApmosConfig(local_rank=50, global_rank=5, k_modes=2)
    modes, values = _apmos_runner(burgers_snapshots, 4, config)
    direct = burgers_direct_svd.u[:, :2]
    mode_err = float(np.max(aligned_mode_difference(modes, direct)))
    angle = float(np.max(subspace_angles(modes, direct)))
    elapsed = time.perf_counter() - start
    ok = mode_err <= 1e-6 and angle <= 1e-6 and elapsed < 60.0
    acceptance(
        "serial-vs-parallel-agreement", ok,
        f"mode max-abs {mode_err:.3e}, angle {angle:.3e} rad, {elapsed:.1f}s",
    )


def test_streaming_equivalence(acceptance, burgers_snapshots,
                               burgers_direct_svd):
    # ff=1.0 streaming over 100-column batches against the one-shot SVD.
    start = time.perf_counter()
    config = StreamConfig(k_modes=5, forget_factor=1.0)
    batches = [burgers_snapshots[:, i:i + 100] for i in range(0, 800, 100)]
    state, _ = stream_all(RankContext(0, 1), batches, config)
    exact = burgers_direct_svd.s[:5]
    value_err = float(np.max(np.abs(state.singular_values - exact) / exact))
    mode_err = float(np.max(aligned_mode_difference(
        state.modes, burgers_direct_svd.u[:, :5])))
    elapsed = time.perf_counter() - start
    ok = value_err <= 1e-6 and mode_err <= 1e-5 and elapsed < 30.0
    acceptance(
        "streaming-equivalence", ok,
        f"sigma rel err {value_err:.3e}, mode max-abs {mode_err:.3e}, "
        f"{elapsed:.1f}s",
    )


def test_exactness_limit(acceptance):
    # Keeping every local and global vector (r1 = r2 = N) makes the
    # partitioned result exact, not approximate.
    start = time.perf_counter()
    rng = np.random.Generator(np.random.Philox(42))
    a = rng.standard_normal((64, 16))
    direct = svd_full(a, want_vt=False)
    config = ApmosConfig(local_rank=16, global_rank=16, k_modes=5)
    modes, values = _apmos_runner(a, 4, config)
    mode_err = float(np.max(aligned_mode_difference(modes, direct.u[:, :5])))
    value_err = float(np.max(np.abs(values[:5] - direct.s[:5]) / direct.s[:5]))
    elapsed = time.perf_counter() - start
    ok = mode_err <= 1e-8 and value_err <= 1e-9 and elapsed < 1.0
    acceptance(
        "exactness-limit", ok,
        f"mode max-abs {mode_err:.3e}, sigma rel err {value_err:.3e}, "
        f"{elapsed:.2f}s",
    )


def test_rank_count_invariance(acceptance):
    # The assembled modes must not depend on how many ranks the rows were
    # dealt across.
    start = time.perf_counter()
    rng = np.random.Generator(np.random.Philox(42))
    a = rng.standard_normal((64, 16))
    config = ApmosConfig(local_rank=16, global_rank=16, k_modes=5)
    results = [_apmos_runner(a, ws, config)[0] for ws in (1, 2, 4, 8)]
    worst = 0.0
    for i in range(len(results)):
        for j in range(i + 1, len(results)):
            worst = max(worst, float(np.max(
                aligned_mode_difference(results[i], results[j]))))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed < 5.0
    acceptance(
        "rank-count-invariance", ok,
        f"worst pairwise mode diff {worst:.3e} over world sizes 1/2/4/8, "
        f"{elapsed:.2f}s",
    )


def test_randomized_quality(acceptance):
    # Sketched SVD on a geometrically decaying spectrum: across 50 sketch
    # seeds, at least 95% must nail the top-5 values to 1% and reconstruct
    # within 3x the optimal rank-10 error.
    start = time.perf_counter()
    exact_sv = 2.0 ** -np.arange(1, 51)
    a = synthetic_spectrum_matrix(200, 50, exact_sv, seed=7)
    optimal = float(np.sqrt(np.sum(exact_sv[10:] ** 2)))
    value_hits = recon_hits = 0
    trials = 50
    for seed in range(trials):
        sketch = RandomSketchConfig(target_rank=10, oversampling=10,
                                    power_iterations=1, seed=seed)
        res = low_rank_svd(a, sketch)
        rel = np.abs(res.s[:5] - exact_sv[:5]) / exact_sv[:5]
        if np.max(rel) <= 0.01:
            value_hits += 1
        recon = float(np.linalg.norm(a - (res.u * res.s) @ res.vt))
        if recon <= 3.0 * optimal:
            recon_hits += 1
    elapsed = time.perf_counter() - start
    need = int(np.ceil(0.95 * trials))
    ok = value_hits >= need and recon_hits >= need and elapsed < 10.0
    acceptance(
        "randomized-quality", ok,
        f"values {value_hits}/{trials}, reconstruction {recon_hits}/{trials} "
        f"within gates, {elapsed:.2f}s",
    )


def test_transport_equivalence(acceptance, burgers_snapshots, tmp_path,
                               subprocess_env):
    # The same two-rank decomposition over loopback TCP and over the
    # in-process simulator must emit byte-identical result files.
    start = time.perf_counter()
    mat = tmp_path / "burgers.bin"
    write_matrix_blocks(mat, burgers_snapshots.shape, [burgers_snapshots])
    args = ["--input", str(mat), "--mode", "parallel-batch",
            "--r1", "50", "--r2", "5", "--k", "2", "--seed", "0"]
    sim = tmp_path / "sim"
    assert main(["decompose", "--outdir", str(sim),
                 "--world-size", "2"] + args) == 0

    tcp = tmp_path / "tcp"
    port = free_port()
    procs = []
    for rank in range(2):
        env = dict(subprocess_env)
        env.update(PARSVD_WORLD_SIZE="2", PARSVD_RANK=str(rank),
                   PARSVD_ROOT_ADDR=f"127.0.0.1:{port}")
        procs.append(subprocess.Popen(
            [sys.executable, "-m", "parsvd", "rank",
             "--outdir", str(tcp)] + args,
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE))
    failures = []
    for proc in procs:
        _, err = proc.communicate(timeout=60)
        if proc.returncode != 0:
            failures.append(err.decode())
    values_same = (sim / "singular_values.csv").read_bytes() == \
        (tcp / "singular_values.csv").read_bytes()
    modes_same = (sim / "modes.csv").read_bytes() == \
        (tcp / "modes.csv").read_bytes()
    elapsed = time.perf_counter() - start
    ok = not failures and values_same and modes_same and elapsed < 30.0
    acceptance(
        "transport-equivalence", ok,
        f"values identical {values_same}, modes identical {modes_same}, "
        f"{elapsed:.1f}s",
    )


def test_gather_payload_scaling(acceptance):
    # Each non-root rank ships exactly one N x r1 matrix to the root during
    # assembly: 20 header bytes + 8*N*r1 payload, no matter how many rows
    # the rank holds. This is the property that keeps communication flat as
    # the spatial grid grows.
    start = time.perf_counter()
    n_cols, r1, world = 100, 10, 4
    expected = FRAME_HEADER.size + MATRIX_HEADER.size + 8 * n_cols * r1
    config = ApmosConfig(local_rank=r1, global_rank=r1, k_modes=5)
    sent_by_case = []
    root_received = []
    for local_rows in (64, 1024, 8192):
        rng = np.random.Generator(np.random.Philox(local_rows))
        a = rng.standard_normal((local_rows * world, n_cols))

        def body(ctx):
            lo, hi = partition_bounds(a.shape[0], ctx.world_size)[ctx.rank]
            apmos(ctx, a[lo:hi], config)
            return ctx.stats.bytes_sent, ctx.stats.bytes_received

        outcomes = run_simulated(world, body)
        sent_by_case.append([sent for sent, _ in outcomes[1:]])
        root_received.append(outcomes[0][1])
    flat = [sent for case in sent_by_case for sent in case]
    sends_ok = all(sent == expected for sent in flat)
    root_ok = all(got == (world - 1) * expected for got in root_received)
    elapsed = time.perf_counter() - start
    ok = sends_ok and root_ok and elapsed < 10.0
    acceptance(
        "gather-payload-scaling", ok,
        f"per-sender bytes {sorted(set(flat))} (want [{expected}]) across "
        f"local row counts 64/1024/8192, {elapsed:.2f}s",
    )


def test_kernel_invariants(acceptance):
    # 1000 seeded matrices, every dimension up to 32: factorization
    # post-conditions plus agreement with the Gram-eigenvalue route.
    start = time.perf_counter()
    worst_gram = 0.0
    trials = 1000
    for seed in range(trials):
        rng = np.random.Generator(np.random.Philox(seed))
        rows, cols = rng.integers(1, 33, size=2)
        a = rng.standard_normal((rows, cols))

        qr = qr_factor(a)
        identity = np.eye(min(rows, cols))
        assert np.max(np.abs(qr.q.T @ qr.q - identity)) <= 1e-13 * max(rows, cols)
        assert np.max(np.abs(qr.q @ qr.r - a)) <= 1e-12 * (1 + np.max(np.abs(a)))
        assert np.all(np.diag(qr.r) >= 0)

        res = svd_full(a)
        assert np.all(res.s >= 0)
        assert np.all(np.diff(res.s) <= 0)
        recon = (res.u * res.s) @ res.vt
        assert np.max(np.abs(recon - a)) <= 1e-12 * (1 + res.s[0])

        gram = a.T @ a if cols <= rows else a @ a.T
        eigs = np.linalg.eigvalsh(gram)[::-1]
        oracle = np.sqrt(np.clip(eigs, 0.0, None))
        gram_err = float(np.max(np.abs(oracle - res.s)) / (1 + res.s[0]))
        worst_gram = max(worst_gram, gram_err)
        assert gram_err <= 1e-9
    elapsed = time.perf_counter() - start
    ok = worst_gram <= 1e-9 and elapsed < 60.0
    acceptance(
        "kernel-invariants", ok,
        f"{trials} matrices, worst Gram-route deviation {worst_gram:.3e}, "
        f"{elapsed:.1f}s",
    )
