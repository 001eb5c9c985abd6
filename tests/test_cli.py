"""Command-line interface: subcommands, config precedence, exit codes."""

import itertools
import json
import os
import select
import socket
import struct
import subprocess
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

import parsvd.cli
import parsvd.datagen
from conftest import free_port
from parsvd.cli import MODES, main
from parsvd.comm import (BCAST_TAG, FRAME_HEADER, GATHER_TAG,
                         MATRIX_HEADER, encode_matrix, run_simulated)
from parsvd.datagen import (BurgersConfig, burgers_matrix, partition_bounds,
                            synthetic_spectrum_matrix)
from parsvd.dsvd import ApmosConfig, apmos, gather_modes
from parsvd.io import (read_matrix_header, read_modes_csv,
                       read_singular_values_csv, read_submatrix, write_matrix,
                       write_modes_csv, write_singular_values_csv)
from parsvd.linalg import (RandomSketchConfig, _available_cpus,
                           blas_thread_budget, svd_full)

RESULT_FILES = ("singular_values.csv", "modes.csv", "modes.svg", "summary.txt")


def _write_test_matrix(path, rows=16, cols=8, rank=6, seed=80):
    sv = 2.0 ** -np.arange(rank)
    a = synthetic_spectrum_matrix(rows, cols, sv, seed=seed)
    write_matrix(path, a)
    return a


def _summary(outdir):
    with open(os.path.join(outdir, "summary.txt")) as fh:
        return dict(line.strip().split("=", 1) for line in fh if "=" in line)


# ---------- generate ----------

@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("shape", [(2049, 1), (2049, 17), (2049, 33), (64, 800)],
                         ids=lambda shape: "%dx%d" % shape)
def test_generate_writes_burgers_matrix(tmp_path, monkeypatch, shape, workers):
    # the streamed file, one 16-column block at a time from one or several
    # threads, against the one-block writer given the whole matrix
    monkeypatch.setattr(parsvd.datagen, "_available_cpus", lambda: workers)
    rows, cols = shape
    out = tmp_path / "burgers.bin"
    code = main(["generate", "--out", str(out),
                 "--grid-points", str(rows), "--snapshots", str(cols)])
    assert code == 0
    expected = tmp_path / "expected.bin"
    write_matrix(expected, burgers_matrix(BurgersConfig(grid_points=rows,
                                                        n_snapshots=cols)))
    assert out.read_bytes() == expected.read_bytes()


def test_generate_holds_a_few_blocks_not_the_matrix(tmp_path, monkeypatch):
    # 8192 x 400 is 26 MB in 25 blocks of 1 MB; two workers keep at most
    # four blocks in flight and the writer one, well under a quarter of the
    # matrix (tracemalloc sees numpy's allocations)
    monkeypatch.setattr(parsvd.datagen, "_available_cpus", lambda: 2)
    out = tmp_path / "burgers.bin"
    tracemalloc.start()
    try:
        code = main(["generate", "--out", str(out),
                     "--grid-points", "8192", "--snapshots", "400"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert read_matrix_header(out) == (8192, 400)
    assert peak < 8 * 8192 * 400 / 4


def test_generate_failure_leaves_no_file(tmp_path, monkeypatch, capsys):
    # the file is open when the third block fails: it is removed, and the
    # pool has stopped by the time generate returns
    real = parsvd.datagen._burgers_into
    calls = itertools.count()

    def fail_third(out, *args):
        if next(calls) == 2:
            raise ValueError("injected failure")
        real(out, *args)

    monkeypatch.setattr(parsvd.datagen, "_burgers_into", fail_third)
    monkeypatch.setattr(parsvd.datagen, "_available_cpus", lambda: 3)
    before = set(threading.enumerate())
    out = tmp_path / "burgers.bin"
    code = main(["generate", "--out", str(out),
                 "--grid-points", "2049", "--snapshots", "800"])
    assert code == 1
    assert "injected failure" in capsys.readouterr().err
    assert not out.exists()
    assert set(threading.enumerate()) == before


def test_generate_unwritable_path(tmp_path, capsys):
    out = tmp_path / "no-such-dir" / "burgers.bin"
    assert main(["generate", "--out", str(out), "--grid-points", "8",
                 "--snapshots", "4"]) == 2
    assert "error:" in capsys.readouterr().err


def test_generate_rejects_bad_grid(capsys):
    assert main(["generate", "--out", "/tmp/x.bin", "--grid-points", "0"]) == 1


# ---------- decompose ----------

def test_decompose_serial_batch(tmp_path, capsys):
    mat = tmp_path / "a.bin"
    a = _write_test_matrix(mat)
    outdir = tmp_path / "serial"
    code = main(["decompose", "--input", str(mat), "--outdir", str(outdir),
                 "--mode", "serial-batch", "--k", "4"])
    assert code == 0
    for name in RESULT_FILES:
        assert (outdir / name).exists()
    res = svd_full(a, want_vt=False)
    assert np.array_equal(read_singular_values_csv(outdir / "singular_values.csv"),
                          res.s[:4])
    grid, modes = read_modes_csv(outdir / "modes.csv")
    assert np.array_equal(grid, np.arange(16.0))
    assert np.array_equal(modes, res.u[:, :4])
    summary = _summary(outdir)
    assert summary["mode"] == "serial-batch"
    assert summary["k"] == "4"
    assert not (outdir / "singular_value_history.csv").exists()


def test_decompose_serial_stream_history(tmp_path):
    mat = tmp_path / "a.bin"
    _write_test_matrix(mat, rows=20, cols=10)
    outdir = tmp_path / "stream"
    code = main(["decompose", "--input", str(mat), "--outdir", str(outdir),
                 "--mode", "serial-stream", "--k", "3", "--batch", "4",
                 "--ff", "1.0"])
    assert code == 0
    lines = (outdir / "singular_value_history.csv").read_text().splitlines()
    assert lines[0] == "iteration,sigma_1,sigma_2,sigma_3"
    assert len(lines) == 4  # header + ceil(10 / 4) updates
    assert _summary(outdir)["iterations"] == "3"


def test_decompose_parallel_modes_match_serial(tmp_path):
    mat = tmp_path / "a.bin"
    _write_test_matrix(mat, rows=12, cols=6, rank=6)
    serial = tmp_path / "serial"
    para = tmp_path / "para"
    assert main(["decompose", "--input", str(mat), "--outdir", str(serial),
                 "--mode", "serial-batch", "--k", "3"]) == 0
    assert main(["decompose", "--input", str(mat), "--outdir", str(para),
                 "--mode", "parallel-batch", "--world-size", "2",
                 "--r1", "6", "--r2", "6", "--k", "3"]) == 0
    assert _summary(para)["world_size"] == "2"
    assert main(["compare", str(serial), str(para), "--threshold", "1e-8"]) == 0


def test_decompose_parallel_randomized_matches_library(tmp_path, capsys):
    # the stacked exchange matrix is 16 x (2 * 8); the sketch is 5 + 10 wide
    mat = tmp_path / "a.bin"
    a = _write_test_matrix(mat, rows=32, cols=16, rank=10)
    outdir = tmp_path / "randomized"
    base = ["decompose", "--input", str(mat), "--mode", "parallel-batch",
            "--world-size", "2", "--r1", "8", "--r2", "4", "--k", "3",
            "--randomized", "--seed", "7"]
    assert main(base + ["--outdir", str(outdir), "--sketch-rank", "5"]) == 0

    config = ApmosConfig(local_rank=8, global_rank=4, k_modes=3,
                         sketch=RandomSketchConfig(5, 10, 1, 7))
    bounds = partition_bounds(a.shape[0], 2)

    def program(ctx):
        # the same column-major row block the CLI reads for this rank
        lo, hi = bounds[ctx.rank]
        block = read_submatrix(mat, lo, hi, 0, a.shape[1])
        res = apmos(ctx, block, config)
        return gather_modes(ctx, res.u), res.s

    modes, values = run_simulated(2, program)[0]
    assert np.array_equal(
        read_singular_values_csv(outdir / "singular_values.csv"), values)
    assert np.array_equal(read_modes_csv(outdir / "modes.csv")[1], modes)

    assert main(base + ["--outdir", str(tmp_path / "narrow"),
                        "--sketch-rank", "3"]) == 1
    assert "sketch-rank 3" in capsys.readouterr().err


def test_decompose_parallel_stream_smoke(tmp_path):
    mat = tmp_path / "a.bin"
    _write_test_matrix(mat, rows=18, cols=9)
    outdir = tmp_path / "pstream"
    code = main(["decompose", "--input", str(mat), "--outdir", str(outdir),
                 "--mode", "parallel-stream", "--world-size", "3",
                 "--k", "2", "--batch", "3", "--ff", "1.0"])
    assert code == 0
    values = read_singular_values_csv(outdir / "singular_values.csv")
    assert values.shape == (2,) and np.all(np.isfinite(values))


@pytest.mark.parametrize("threads", [1, 3])
def test_serial_stream_is_parallel_stream_at_its_world_size(tmp_path,
                                                            monkeypatch,
                                                            threads):
    # serial-stream trades each OpenBLAS thread for a one-thread rank
    monkeypatch.setattr(parsvd.cli, "_openblas_thread_count", lambda: threads)
    monkeypatch.setattr(parsvd.cli, "_available_cpus", lambda: threads)
    mat = tmp_path / "a.bin"
    write_matrix(mat, burgers_matrix(BurgersConfig(grid_points=512,
                                                   n_snapshots=120)))
    args = ["--input", str(mat), "--k", "5", "--batch", "10", "--ff", "1.0"]
    serial = tmp_path / "serial"
    para = tmp_path / "para"
    # one BLAS thread for the parallel ranks too, so both runs take the
    # same BLAS code paths whatever this host's thread count
    with blas_thread_budget(_available_cpus()):
        assert main(["decompose", "--outdir", str(serial),
                     "--mode", "serial-stream"] + args) == 0
        assert main(["decompose", "--outdir", str(para), "--mode",
                     "parallel-stream", "--world-size", str(threads)]
                    + args) == 0
    for name in ("singular_values.csv", "modes.csv", "modes.svg",
                 "singular_value_history.csv"):
        assert (serial / name).read_bytes() == (para / name).read_bytes(), name
    assert _summary(serial) == dict(_summary(para), mode="serial-stream")
    assert _summary(serial)["world_size"] == str(threads)


@pytest.mark.parametrize("threads, rows, world_size", [(3, 2, 2), (None, 16, 1)])
def test_serial_stream_world_size_limits(tmp_path, monkeypatch, threads, rows,
                                         world_size):
    # no more ranks than rows; without OpenBLAS (no thread count to read)
    # there are no threads to trade, so the world is one rank
    monkeypatch.setattr(parsvd.cli, "_openblas_thread_count", lambda: threads)
    monkeypatch.setattr(parsvd.cli, "_available_cpus", lambda: 8)
    mat = tmp_path / "a.bin"
    _write_test_matrix(mat, rows=rows, cols=8, rank=2)
    outdir = tmp_path / "stream"
    assert main(["decompose", "--input", str(mat), "--outdir", str(outdir),
                 "--mode", "serial-stream", "--k", "2", "--batch", "3"]) == 0
    assert _summary(outdir)["world_size"] == str(world_size)


@pytest.mark.parametrize("shape", [(0, 3), (4, 0)], ids=["0x3", "4x0"])
@pytest.mark.parametrize("mode", MODES)
def test_decompose_rejects_an_empty_matrix(tmp_path, capsys, mode, shape):
    # one check names the file and its shape in every mode, before any
    # mode's own checks (world size against rows, k against columns)
    mat = tmp_path / "empty.bin"
    write_matrix(mat, np.zeros(shape))
    assert main(["decompose", "--input", str(mat), "--outdir",
                 str(tmp_path / "o"), "--mode", mode]) == 1
    rows, cols = shape
    assert (f"error: {mat} holds a {rows}x{cols} matrix, nothing to factor"
            in capsys.readouterr().err)
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("mode", ["serial-stream", "parallel-stream"])
def test_decompose_stream_rejects_a_non_finite_later_batch(tmp_path, capsys,
                                                           mode):
    mat = tmp_path / "a.bin"
    rows = 16
    _write_test_matrix(mat, rows=rows, cols=8)
    with open(mat, "r+b") as fh:  # row 13, column 6: a later batch
        fh.seek(24 + 8 * (rows * 6 + 13))
        fh.write(np.float64(np.nan).tobytes())
    args = ["decompose", "--input", str(mat), "--outdir", str(tmp_path / "o"),
            "--mode", mode, "--k", "2", "--batch", "3"]
    if mode == "parallel-stream":
        args += ["--world-size", "2"]
    assert main(args) == 1
    assert "non-finite" in capsys.readouterr().err


@pytest.mark.parametrize("mode", ["serial-stream", "parallel-stream"])
def test_decompose_stream_refuses_randomized(tmp_path, capsys, mode):
    # the streaming modes have no root-side factorization to randomize, so
    # the setting is refused from a flag and from a config file alike
    mat = tmp_path / "a.bin"
    _write_test_matrix(mat)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("randomized = true\n")
    base = ["decompose", "--input", str(mat), "--outdir", str(tmp_path / "o"),
            "--mode", mode, "--k", "2", "--batch", "3"]
    for extra in (["--randomized"], ["--config", str(cfg)]):
        assert main(base + extra) == 1
        err = capsys.readouterr().err
        assert "randomized" in err and mode in err
    assert not (tmp_path / "o").exists()


def test_decompose_missing_input(tmp_path, capsys):
    assert main(["decompose", "--input", str(tmp_path / "absent.bin"),
                 "--outdir", str(tmp_path / "o"), "--mode", "serial-batch"]) == 2


@pytest.mark.parametrize("extra", [-8, 8])
def test_every_mode_refuses_a_bad_file_size_before_any_rank_starts(
        tmp_path, monkeypatch, capsys, extra):
    # a truncated file (extra < 0) or trailing bytes (extra > 0)
    mat = tmp_path / "a.bin"
    _write_test_matrix(mat)  # 16 x 8: a 1024-byte payload
    data = mat.read_bytes()
    mat.write_bytes(data[:extra] if extra < 0 else data + bytes(extra))
    message = f"payload is {1024 + extra} bytes, header promises 1024"
    args = ["--input", str(mat), "--outdir", str(tmp_path / "o"), "--k", "2"]

    monkeypatch.setenv("PARSVD_WORLD_SIZE", "1")
    monkeypatch.setenv("PARSVD_RANK", "0")
    for mode in ("parallel-batch", "parallel-stream"):
        monkeypatch.setenv("PARSVD_ROOT_ADDR", f"127.0.0.1:{free_port()}")
        assert main(["rank", "--mode", mode] + args) == 2
        assert message in capsys.readouterr().err

    started = []
    monkeypatch.setattr(parsvd.cli, "_rank_work",
                        lambda ctx, cfg: started.append(cfg.mode))
    for mode in MODES:
        assert main(["decompose", "--mode", mode] + args) == 2
        assert message in capsys.readouterr().err
    assert started == []
    assert not (tmp_path / "o").exists()


def test_decompose_k_exceeds_shape(tmp_path, capsys):
    mat = tmp_path / "a.bin"
    _write_test_matrix(mat, rows=6, cols=4, rank=4)
    assert main(["decompose", "--input", str(mat), "--outdir", str(tmp_path / "o"),
                 "--mode", "serial-batch", "--k", "5"]) == 1
    assert "k 5" in capsys.readouterr().err


def test_unknown_flag_is_config_error(capsys):
    assert main(["decompose", "--bogus", "1"]) == 1
    assert main(["no-such-command"]) == 1


# ---------- settings precedence ----------

def test_config_file_and_flag_precedence(tmp_path):
    mat = tmp_path / "a.bin"
    _write_test_matrix(mat)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# defaults for this dataset\n"
        "mode = serial-batch\n"
        f"input = {mat}\n"
        "k = 3\n"
    )
    from_file = tmp_path / "from-file"
    assert main(["decompose", "--config", str(cfg),
                 "--outdir", str(from_file)]) == 0
    assert read_singular_values_csv(from_file / "singular_values.csv").shape == (3,)

    flag_wins = tmp_path / "flag-wins"
    assert main(["decompose", "--config", str(cfg), "--outdir", str(flag_wins),
                 "--k", "2"]) == 0
    assert read_singular_values_csv(flag_wins / "singular_values.csv").shape == (2,)


def test_env_beats_file_and_flag_beats_env(tmp_path, monkeypatch):
    mat = tmp_path / "a.bin"
    _write_test_matrix(mat)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("world-size = 1\n")
    base = ["decompose", "--input", str(mat), "--mode", "parallel-batch",
            "--r1", "6", "--r2", "3", "--k", "2", "--config", str(cfg)]

    monkeypatch.setenv("PARSVD_WORLD_SIZE", "4")
    from_env = tmp_path / "from-env"
    assert main(base + ["--outdir", str(from_env)]) == 0
    assert _summary(from_env)["world_size"] == "4"

    from_flag = tmp_path / "from-flag"
    assert main(base + ["--outdir", str(from_flag), "--world-size", "2"]) == 0
    assert _summary(from_flag)["world_size"] == "2"


def test_bad_env_value_reported(tmp_path, monkeypatch, capsys):
    mat = tmp_path / "a.bin"
    _write_test_matrix(mat)
    monkeypatch.setenv("PARSVD_WORLD_SIZE", "many")
    assert main(["decompose", "--input", str(mat), "--outdir",
                 str(tmp_path / "o"), "--mode", "parallel-batch"]) == 1
    assert "PARSVD_WORLD_SIZE" in capsys.readouterr().err


def test_config_file_syntax_error(tmp_path, capsys):
    cfg = tmp_path / "broken.cfg"
    cfg.write_text("mode serial-batch\n")
    assert main(["decompose", "--config", str(cfg)]) == 1
    assert "broken.cfg:1" in capsys.readouterr().err


# ---------- compare ----------

def test_compare_accepts_sign_flips(tmp_path, capsys):
    rng = np.random.Generator(np.random.Philox(81))
    grid = np.arange(10.0)
    modes = rng.standard_normal((10, 3))
    values = np.array([3.0, 2.0, 1.0])
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    for d, signs in ((dir_a, 1.0), (dir_b, np.array([1.0, -1.0, 1.0]))):
        d.mkdir()
        write_modes_csv(d / "modes.csv", grid, modes * signs)
        write_singular_values_csv(d / "singular_values.csv", values)
    assert main(["compare", str(dir_a), str(dir_b)]) == 0
    assert "PASS" in capsys.readouterr().out


def test_compare_flags_differences_and_shapes(tmp_path, capsys):
    grid = np.arange(6.0)
    modes = np.eye(6)[:, :2]
    dir_a, dir_b, dir_c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    for d, vals, m in (
        (dir_a, np.array([2.0, 1.0]), modes),
        (dir_b, np.array([2.0, 1.001]), modes),
        (dir_c, np.array([2.0]), modes[:, :1]),
    ):
        d.mkdir()
        write_modes_csv(d / "modes.csv", grid, m)
        write_singular_values_csv(d / "singular_values.csv", vals)
    assert main(["compare", str(dir_a), str(dir_b)]) == 1
    assert "FAIL" in capsys.readouterr().out
    assert main(["compare", str(dir_a), str(dir_c)]) == 1
    assert "shape mismatch" in capsys.readouterr().out
    assert main(["compare", str(dir_a), str(dir_b), "--threshold", "1e-2"]) == 0


# ---------- rank (tcp) ----------

def test_rank_missing_env_names_variable(monkeypatch, capsys, tmp_path):
    monkeypatch.setenv("PARSVD_WORLD_SIZE", "2")
    monkeypatch.setenv("PARSVD_RANK", "1")
    monkeypatch.delenv("PARSVD_ROOT_ADDR", raising=False)
    assert main(["rank", "--input", str(tmp_path / "a.bin"),
                 "--outdir", str(tmp_path / "o"),
                 "--mode", "parallel-batch"]) == 1
    assert "PARSVD_ROOT_ADDR" in capsys.readouterr().err


def test_rank_rejects_serial_mode(monkeypatch, capsys, tmp_path):
    assert main(["rank", "--input", str(tmp_path / "a.bin"),
                 "--outdir", str(tmp_path / "o"),
                 "--mode", "serial-batch"]) == 1
    assert "parallel" in capsys.readouterr().err


def test_rank_connect_failure_exits_4(monkeypatch, tmp_path):
    mat = tmp_path / "a.bin"
    _write_test_matrix(mat)
    monkeypatch.setenv("PARSVD_WORLD_SIZE", "2")
    monkeypatch.setenv("PARSVD_RANK", "1")
    monkeypatch.setenv("PARSVD_ROOT_ADDR", f"127.0.0.1:{free_port()}")
    monkeypatch.setenv("PARSVD_DEADLINE", "0.5")
    assert main(["rank", "--input", str(mat), "--outdir", str(tmp_path / "o"),
                 "--mode", "parallel-batch"]) == 4


@pytest.mark.parametrize("rank", ["0", "1"])
@pytest.mark.parametrize("deadline", ["inf", "nan", "-1"])
def test_rank_refuses_a_bad_deadline_before_any_socket_opens(
        monkeypatch, capsys, tmp_path, deadline, rank):
    # inf would overflow select's timeout mid-run, -1 would time out at
    # once and nan never: each exits 1 before a socket opens
    def no_socket(*args, **kwargs):
        raise AssertionError("a socket was opened")

    monkeypatch.setattr(socket, "create_server", no_socket)
    monkeypatch.setattr(socket, "create_connection", no_socket)
    mat = tmp_path / "a.bin"
    _write_test_matrix(mat)
    monkeypatch.setenv("PARSVD_WORLD_SIZE", "2")
    monkeypatch.setenv("PARSVD_RANK", rank)
    monkeypatch.setenv("PARSVD_ROOT_ADDR", "127.0.0.1:1")
    monkeypatch.setenv("PARSVD_DEADLINE", deadline)
    assert main(["rank", "--input", str(mat), "--outdir", str(tmp_path / "o"),
                 "--mode", "parallel-batch"]) == 1
    assert (f"PARSVD_DEADLINE must be a finite number of seconds above 0, "
            f"got '{deadline}'") in capsys.readouterr().err


def _root_against_fake_peers(tmp_path, env, misbehave, deadline,
                             world_size=2):
    """Start `parsvd rank` as rank 0 of `world_size` on a small Burgers
    matrix, connect a raw socket for each other rank, send their hellos,
    then hand the sockets, in rank order, to `misbehave`. Returns (exit
    code, stderr, seconds from the misbehaviour to the root's exit)."""
    mat = tmp_path / "a.bin"
    write_matrix(mat, burgers_matrix(BurgersConfig(grid_points=64,
                                                   n_snapshots=20)))
    port = free_port()
    env = dict(env, PARSVD_WORLD_SIZE=str(world_size), PARSVD_RANK="0",
               PARSVD_ROOT_ADDR=f"127.0.0.1:{port}",
               PARSVD_DEADLINE=str(deadline))
    proc = subprocess.Popen(
        [sys.executable, "-m", "parsvd", "rank", "--input", str(mat),
         "--outdir", str(tmp_path / "out"), "--mode", "parallel-stream",
         "--k", "2", "--batch", "4"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    socks = []
    try:
        limit = time.monotonic() + 30.0
        for rank in range(1, world_size):
            while True:
                try:
                    sock = socket.create_connection(("127.0.0.1", port),
                                                    timeout=1.0)
                    break
                except OSError:
                    assert time.monotonic() < limit, "root never listened"
                    time.sleep(0.05)
            socks.append(sock)
            sock.sendall(struct.pack("<I", rank))
        start = time.monotonic()
        misbehave(*socks)
        _, err = proc.communicate(timeout=deadline + 10.0)
        elapsed = time.monotonic() - start
    finally:
        for sock in socks:
            sock.close()
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    return proc.returncode, err.decode(), elapsed


def test_rank_root_refuses_oversized_frame(tmp_path, subprocess_env):
    # the peer stays connected, so only the header can end the run
    def oversized(sock):
        sock.sendall(FRAME_HEADER.pack(GATHER_TAG, 1, 0)
                     + MATRIX_HEADER.pack(2 ** 32, 2 ** 32))

    code, err, elapsed = _root_against_fake_peers(
        tmp_path, subprocess_env, oversized, deadline=30.0)
    assert code == 2, err
    assert "limit" in err
    assert elapsed < 5.0


def test_rank_root_fails_fast_on_truncated_frame(tmp_path, subprocess_env):
    # a 2x2 matrix needs 32 payload bytes; the peer sends 8 and hangs up
    def truncated(sock):
        sock.sendall(FRAME_HEADER.pack(GATHER_TAG, 1, 0)
                     + MATRIX_HEADER.pack(2, 2) + bytes(8))
        sock.close()

    code, err, elapsed = _root_against_fake_peers(
        tmp_path, subprocess_env, truncated, deadline=30.0)
    assert code == 2, err
    assert "connection to rank 1 closed after 8 of 32 bytes" in err
    assert elapsed < 5.0


def test_rank_root_fails_fast_when_peer_hangs_up(tmp_path, subprocess_env):
    code, err, elapsed = _root_against_fake_peers(
        tmp_path, subprocess_env, lambda sock: sock.close(),
        deadline=30.0)
    assert code == 2, err
    assert "rank 1 closed" in err
    assert elapsed < 5.0


def test_rank_root_fails_fast_when_peer_exits_mid_gather(tmp_path,
                                                        subprocess_env):
    # rank 1 sends its part of the first gather and waits, as a live rank
    # would; rank 2 hangs up before sending its part
    def one_sends_two_exits(peer1, peer2):
        peer1.sendall(FRAME_HEADER.pack(GATHER_TAG, 1, 0)
                      + encode_matrix(np.zeros((2, 2))))
        peer2.close()

    code, err, elapsed = _root_against_fake_peers(
        tmp_path, subprocess_env, one_sends_two_exits, deadline=30.0,
        world_size=3)
    assert code == 2, err
    assert "rank 2 closed" in err
    assert elapsed < 5.0


def test_rank_root_refuses_a_tcp_frame_addressed_to_another_rank(
        tmp_path, subprocess_env):
    # rank 0 is one end of every transfer, so a frame rank 1 addresses to
    # rank 2 is corrupt: the root exits 2 naming rank 2, not passing it on
    def misaddressed(peer1, peer2):
        peer1.sendall(FRAME_HEADER.pack(GATHER_TAG, 1, 2)
                      + encode_matrix(np.zeros((2, 2))))

    code, err, elapsed = _root_against_fake_peers(
        tmp_path, subprocess_env, misaddressed, deadline=30.0, world_size=3)
    assert code == 2, err
    assert "addressed to rank 2" in err
    assert elapsed < 5.0


def test_rank_root_refuses_a_foreign_tag(tmp_path, subprocess_env):
    # rank 1 sends a frame of no known operation where its part of the
    # stream's first rank sum (the row count) is due: the root exits 2
    # naming rank 1 and both tags
    def foreign(sock):
        sock.sendall(FRAME_HEADER.pack(0x1234, 1, 0)
                     + encode_matrix(np.zeros((2, 2))))

    code, err, elapsed = _root_against_fake_peers(
        tmp_path, subprocess_env, foreign, deadline=30.0)
    assert code == 2, err
    assert ("rank 1 sent rank 0 a foreign frame (tag 0x1234) where a gather "
            "frame (tag 0xffff0001) was due") in err
    assert elapsed < 5.0


def test_rank_exits_fast_when_root_exits(tmp_path, subprocess_env):
    # a fake root accepts rank 1's hello and hangs up. The rank's one send
    # before its first receive still succeeds (the kernel buffers it; the
    # closed root answers it with a reset), and that receive reads the
    # root's end of stream or the reset. Both raise ProtocolError naming
    # the root, exit 2; exit 4 is left for a root that never answered
    mat = tmp_path / "a.bin"
    write_matrix(mat, burgers_matrix(BurgersConfig(grid_points=64,
                                                   n_snapshots=20)))
    with socket.create_server(("127.0.0.1", 0)) as server:
        port = server.getsockname()[1]
        env = dict(subprocess_env, PARSVD_WORLD_SIZE="2", PARSVD_RANK="1",
                   PARSVD_ROOT_ADDR=f"127.0.0.1:{port}",
                   PARSVD_DEADLINE="30")
        proc = subprocess.Popen(
            [sys.executable, "-m", "parsvd", "rank", "--input", str(mat),
             "--outdir", str(tmp_path / "out"), "--mode", "parallel-stream",
             "--k", "2", "--batch", "4"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        try:
            server.settimeout(30.0)
            conn, _ = server.accept()
            with conn:
                assert conn.recv(4) == struct.pack("<I", 1)
            start = time.monotonic()
            _, err = proc.communicate(timeout=40.0)
            elapsed = time.monotonic() - start
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
    err = err.decode()
    assert proc.returncode == 2, err
    assert ("root closed the connection" in err
            or "connection to root failed mid-read" in err), err
    assert elapsed < 5.0


def test_rank_world_size_one_matches_simulated(monkeypatch, tmp_path):
    mat = tmp_path / "a.bin"
    _write_test_matrix(mat, rows=14, cols=7)
    args = ["--input", str(mat), "--mode", "parallel-batch",
            "--r1", "7", "--r2", "4", "--k", "3"]
    sim = tmp_path / "sim"
    assert main(["decompose", "--outdir", str(sim)] + args) == 0

    monkeypatch.setenv("PARSVD_WORLD_SIZE", "1")
    monkeypatch.setenv("PARSVD_RANK", "0")
    monkeypatch.setenv("PARSVD_ROOT_ADDR", f"127.0.0.1:{free_port()}")
    tcp = tmp_path / "tcp"
    assert main(["rank", "--outdir", str(tcp)] + args) == 0

    for name in RESULT_FILES:
        assert (sim / name).read_bytes() == (tcp / name).read_bytes(), name


def test_rank_root_refuses_an_unread_frame_before_writing(monkeypatch,
                                                         capsys, tmp_path):
    # rank 0 finishes its work while a frame from rank 1 sits unread: the
    # ranks diverged, so it exits 2 naming the frame and writes no results
    mat = tmp_path / "a.bin"
    _write_test_matrix(mat)
    port = free_port()
    frame = FRAME_HEADER.pack(GATHER_TAG, 1, 0) + encode_matrix(np.ones((1, 1)))
    peer = []

    def rank_one():
        limit = time.monotonic() + 10.0
        while True:
            try:
                sock = socket.create_connection(("127.0.0.1", port), 1.0)
                break
            except OSError:
                assert time.monotonic() < limit, "root never listened"
                time.sleep(0.02)
        peer.append(sock)
        sock.sendall(struct.pack("<I", 1) + frame)

    def work_without_receiving(ctx, cfg):
        sock = ctx.transport._conns[1]
        assert select.select([sock], [], [], 5.0)[0] == [sock]

    monkeypatch.setattr(parsvd.cli, "_rank_work", work_without_receiving)
    monkeypatch.setenv("PARSVD_WORLD_SIZE", "2")
    monkeypatch.setenv("PARSVD_RANK", "0")
    monkeypatch.setenv("PARSVD_ROOT_ADDR", f"127.0.0.1:{port}")
    thread = threading.Thread(target=rank_one)
    thread.start()
    out = tmp_path / "out"
    try:
        code = main(["rank", "--input", str(mat), "--outdir", str(out),
                     "--mode", "parallel-batch", "--k", "2"])
    finally:
        thread.join(timeout=10.0)
        for sock in peer:
            sock.close()
    assert code == 2
    assert ("rank 1 sent rank 0 a gather frame (tag 0xffff0001) that no "
            "receive took") in capsys.readouterr().err
    assert not out.exists()


def test_rank_peer_refuses_an_unread_frame(monkeypatch, capsys, tmp_path):
    # a raw-socket root sends rank 1 a broadcast frame that rank 1's work
    # never receives: the ranks diverged, so rank 1 exits 2 naming it
    mat = tmp_path / "a.bin"
    _write_test_matrix(mat)
    frame = FRAME_HEADER.pack(BCAST_TAG, 0, 1) + encode_matrix(np.ones((1, 1)))
    server = socket.create_server(("127.0.0.1", 0))
    conns = []

    def root():
        conn, _ = server.accept()
        conns.append(conn)
        assert conn.recv(4) == struct.pack("<I", 1)
        conn.sendall(frame)

    def work_without_receiving(ctx, cfg):
        sock = ctx.transport._conns[0]
        assert select.select([sock], [], [], 5.0)[0] == [sock]

    monkeypatch.setattr(parsvd.cli, "_rank_work", work_without_receiving)
    monkeypatch.setenv("PARSVD_WORLD_SIZE", "2")
    monkeypatch.setenv("PARSVD_RANK", "1")
    monkeypatch.setenv("PARSVD_ROOT_ADDR",
                       f"127.0.0.1:{server.getsockname()[1]}")
    thread = threading.Thread(target=root)
    thread.start()
    try:
        code = main(["rank", "--input", str(mat),
                     "--outdir", str(tmp_path / "out"),
                     "--mode", "parallel-batch", "--k", "2"])
    finally:
        thread.join(timeout=10.0)
        for conn in conns:
            conn.close()
        server.close()
    assert code == 2
    assert ("root sent rank 1 a broadcast frame (tag 0xffff0002) that no "
            "receive took") in capsys.readouterr().err


def test_two_rank_tcp_run_matches_simulated(tmp_path, subprocess_env):
    mat = tmp_path / "a.bin"
    _write_test_matrix(mat, rows=16, cols=8)
    args = ["--input", str(mat), "--mode", "parallel-stream",
            "--k", "2", "--batch", "4", "--ff", "0.95"]
    sim = tmp_path / "sim"
    assert main(["decompose", "--outdir", str(sim), "--world-size", "2"] + args) == 0

    tcp = tmp_path / "tcp"
    port = free_port()
    procs = []
    for rank in range(2):
        env = dict(subprocess_env)
        env.update(PARSVD_WORLD_SIZE="2", PARSVD_RANK=str(rank),
                   PARSVD_ROOT_ADDR=f"127.0.0.1:{port}")
        procs.append(subprocess.Popen(
            [sys.executable, "-m", "parsvd", "rank", "--outdir", str(tcp)] + args,
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE))
    for proc in procs:
        out, err = proc.communicate(timeout=60)
        assert proc.returncode == 0, err.decode()

    for name in RESULT_FILES + ("singular_value_history.csv",):
        assert (sim / name).read_bytes() == (tcp / name).read_bytes(), name


def test_rank_root_refuses_a_peer_started_with_another_batch(tmp_path,
                                                              subprocess_env):
    # rank 1's first batch is twice as wide as the root's, so its triangular
    # factor does not stack under the root's; before the root checked
    # shapes, numpy's concatenate failed there and the root exited 1
    mat = tmp_path / "a.bin"
    _write_test_matrix(mat, rows=16, cols=40)
    port = free_port()
    procs = []
    for rank, batch in enumerate(("10", "20")):
        env = dict(subprocess_env, PARSVD_WORLD_SIZE="2", PARSVD_RANK=str(rank),
                   PARSVD_ROOT_ADDR=f"127.0.0.1:{port}", PARSVD_DEADLINE="30")
        procs.append(subprocess.Popen(
            [sys.executable, "-m", "parsvd", "rank", "--input", str(mat),
             "--outdir", str(tmp_path / "out"), "--mode", "parallel-stream",
             "--k", "2", "--batch", batch],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE))
    try:
        errs = [proc.communicate(timeout=60)[1].decode() for proc in procs]
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
    assert procs[0].returncode == 2, errs[0]
    assert "rank 1 sent a (8, 20)" in errs[0], errs[0]


def test_help_exits_zero(subprocess_env):
    proc = subprocess.run([sys.executable, "-m", "parsvd", "--help"],
                          env=subprocess_env, capture_output=True, timeout=30)
    assert proc.returncode == 0
    assert b"decompose" in proc.stdout


# ---------- package import ----------

# Records OPENBLAS_THREAD_TIMEOUT at the moment numpy is first imported,
# which is when OpenBLAS reads it, then imports the modules named on the
# command line and prints [that value, the value at the end].
_TIMEOUT_PROBE = """
import json, os, sys

class NumpyImport:
    def __init__(self):
        self.seen = []

    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not self.seen:
            self.seen.append(os.environ.get("OPENBLAS_THREAD_TIMEOUT"))
        return None

probe = NumpyImport()
sys.meta_path.insert(0, probe)
for module in sys.argv[1:]:
    __import__(module)
print(json.dumps([probe.seen[0], os.environ.get("OPENBLAS_THREAD_TIMEOUT")]))
"""


@pytest.mark.parametrize("preset, modules, expected", [
    (None, ["parsvd"], ["24", "24"]),
    ("28", ["parsvd"], ["28", "28"]),
    (None, ["numpy", "parsvd"], [None, None]),
], ids=["unset", "preset", "numpy-first"])
def test_import_caps_openblas_idle_spin_before_numpy_loads(subprocess_env,
                                                           preset, modules,
                                                           expected):
    # importing parsvd sets OPENBLAS_THREAD_TIMEOUT=24 before numpy loads
    # OpenBLAS; a value the user set is kept, and once numpy is loaded the
    # environment is left as it is
    env = dict(subprocess_env)
    env.pop("OPENBLAS_THREAD_TIMEOUT", None)
    if preset is not None:
        env["OPENBLAS_THREAD_TIMEOUT"] = preset
    proc = subprocess.run([sys.executable, "-c", _TIMEOUT_PROBE, *modules],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == expected
