"""Frame layout, collective semantics, and the one rank class: the TCP star,
wired through in-process socket pairs in simulated worlds and through TCP
sockets between rank threads or processes."""

import math
import os
import select
import socket
import struct
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

import oracles
from conftest import free_port
from parsvd import comm
from parsvd.comm import (BCAST_TAG, FRAME_HEADER, GATHER_TAG,
                         MATRIX_HEADER, MAX_PAYLOAD_BYTES, SEND_TAG,
                         RankContext, _frame, _read_frame, _recv_into,
                         broadcast, gather, recv, run_simulated, send,
                         tcp_context_from_env)
from parsvd.errors import CollectiveTimeout, ConfigError, ProtocolError
from parsvd.linalg import _openblas_threads, blas_thread_budget


# ---------- frame layout ----------

def _read_sent(data, peer="peer"):
    """_read_frame over a socket pair whose other end sent `data` and hung
    up."""
    reader, writer = socket.socketpair()
    with reader:
        with writer:
            writer.sendall(data)
        return _read_frame(reader, time.monotonic() + 10.0, peer)


def test_codec_round_trip_and_exact_bytes():
    rng = np.random.Generator(np.random.Philox(50))
    for shape in [(3, 5), (1, 1), (7, 2)]:
        a = rng.standard_normal(shape)
        frame = _frame(GATHER_TAG, a)
        assert frame == oracles.frame_reference(GATHER_TAG, a)
        tag, back = _read_sent(frame)
        assert tag == GATHER_TAG
        assert np.array_equal(back, a)
        assert back.flags.writeable and back.flags.f_contiguous


def test_codec_empty_matrix():
    for shape in [(0, 0), (4, 0), (0, 3)]:
        empty = np.zeros(shape)
        frame = _frame(BCAST_TAG, empty)
        assert len(frame) == 20
        assert frame == oracles.frame_reference(BCAST_TAG, empty)
        tag, back = _read_sent(frame)
        assert tag == BCAST_TAG and back.shape == shape


def test_codec_rejects_malformed():
    # 1-D input is refused before any frame is written
    with pytest.raises(ValueError, match="2-D"):
        send(RankContext(1, 2), np.ones(3), 0)
    with pytest.raises(ValueError, match="2-D"):
        gather(RankContext(1, 2), np.ones(3))
    with pytest.raises(ValueError, match="2-D"):
        broadcast(RankContext(0, 2), np.ones(3))
    # a truncated header or payload, and a header announcing more than the
    # limit, are refused
    good = oracles.frame_reference(SEND_TAG, np.ones((2, 2)))
    with pytest.raises(ProtocolError, match="closed after 10 of 20 bytes"):
        _read_sent(good[:10])
    with pytest.raises(ProtocolError, match="closed after 31 of 32 bytes"):
        _read_sent(good[:-1])
    with pytest.raises(ProtocolError, match="limit"):
        _read_sent(FRAME_HEADER.pack(SEND_TAG)
                   + MATRIX_HEADER.pack(1, MAX_PAYLOAD_BYTES // 8 + 1))
    # bytes past a frame's announced size begin the next frame
    reader, writer = socket.socketpair()
    with reader:
        with writer:
            writer.sendall(good + b"\x00")
        tag, back = _read_frame(reader, time.monotonic() + 10.0)
        assert tag == SEND_TAG and np.array_equal(back, np.ones((2, 2)))
        with pytest.raises(ProtocolError, match="closed after 1 of 20 bytes"):
            _read_frame(reader, time.monotonic() + 10.0)


def test_codec_column_major_layout():
    a = np.array([[1.0, 3.0], [2.0, 4.0]])
    payload = _frame(SEND_TAG, a)[20:]
    assert np.array_equal(np.frombuffer(payload, dtype="<f8"),
                          [1.0, 2.0, 3.0, 4.0])
    # C-ordered and strided inputs write the bytes of their column-major copy
    b = np.arange(30.0).reshape(5, 6)
    for view in (b, b[1::2, ::3], b.T[::-1]):
        assert _frame(SEND_TAG, view) == oracles.frame_reference(SEND_TAG,
                                                                 view)


# ---------- copies per frame ----------

def _big_frame(tag, seed):
    """A 32 MiB column-major matrix and its frame bytes, built with numpy
    (the entry-by-entry oracle is too slow at this size)."""
    a = np.asfortranarray(np.random.Generator(np.random.Philox(seed))
                          .standard_normal((1 << 16, 64)))
    return a, (FRAME_HEADER.pack(tag) + MATRIX_HEADER.pack(*a.shape)
               + a.tobytes(order="F"))


def _traced_peak(fn):
    """Peak bytes allocated in any thread, as tracemalloc sees them, while
    fn() runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_received_frame_is_read_into_its_matrix():
    # a raw peer sends bytes built before tracing starts, so the peak is the
    # receiver's: the matrix, and no byte copy of it
    a, frame = _big_frame(SEND_TAG, 51)
    ctx = RankContext(0, 2)
    ctx._conns[1], peer = socket.socketpair()
    writer = threading.Thread(target=peer.sendall, args=(frame,))
    got = []

    def receive():
        writer.start()
        got.append(recv(ctx, 1))

    try:
        peak = _traced_peak(receive)
    finally:
        writer.join(timeout=30.0)
        peer.close()
        ctx.close()
    assert np.array_equal(got[0], a)
    assert peak <= 1.1 * a.nbytes, f"{peak / a.nbytes:.2f}x the payload"


def test_a_sent_frame_is_one_copy_of_its_matrix():
    # the root drains into a buffer allocated before tracing starts, so the
    # peak is the sender's: one frame buffer, and no further copy
    a, frame = _big_frame(GATHER_TAG, 52)
    ctx = RankContext(1, 2)
    ctx._conns[0], root = socket.socketpair()
    sink = bytearray(len(frame))
    drained = []
    reader = threading.Thread(target=lambda: drained.append(
        _recv_into(root, sink, time.monotonic() + 30.0)))
    reader.start()
    try:
        peak = _traced_peak(lambda: gather(ctx, a))
    finally:
        reader.join(timeout=30.0)
        root.close()
        ctx.close()
    assert drained == [True] and sink == frame
    assert peak <= 1.25 * a.nbytes, f"{peak / a.nbytes:.2f}x the payload"


# ---------- collectives on simulated worlds (socket pairs) ----------

def test_world_size_one_collectives_are_local():
    def program(ctx):
        local = np.arange(6.0).reshape(3, 2)
        parts = gather(ctx, local)
        assert len(parts) == 1 and np.array_equal(parts[0], local)
        parts[0][0, 0] = 99.0  # a copy, never an alias
        assert local[0, 0] == 0.0
        out = broadcast(ctx, local)
        assert np.array_equal(out, local)
        assert ctx.stats.frames_sent == 0 and ctx.stats.frames_received == 0
        return True

    assert run_simulated(1, program) == [True]


def test_gather_rank_order_with_mixed_shapes():
    shapes = [(2, 2), (3, 2), (1, 2), (4, 2)]

    def program(ctx):
        local = np.full(shapes[ctx.rank], float(ctx.rank))
        return gather(ctx, local)

    results = run_simulated(4, program)
    parts = results[0]
    assert results[1] is None and results[2] is None and results[3] is None
    for rank, part in enumerate(parts):
        assert part.shape == shapes[rank]
        assert np.all(part == float(rank))


def test_gather_order_independent_of_arrival_time():
    def program(ctx):
        if ctx.rank != 0:
            time.sleep(0.03 * (4 - ctx.rank))  # later ranks send first
        return gather(ctx, np.array([[float(ctx.rank)]]))

    parts = run_simulated(4, program)[0]
    assert [p[0, 0] for p in parts] == [0.0, 1.0, 2.0, 3.0]


def test_broadcast_matrix_vector_and_empty():
    # broadcast moves matrices only: the root refuses a vector before it
    # sends anything, so the other ranks never wait on it
    payload = np.arange(12.0).reshape(3, 4)

    def program(ctx):
        mat = broadcast(ctx, payload if ctx.rank == 0 else None)
        if ctx.rank == 0:
            with pytest.raises(ValueError, match="must be 2-D"):
                broadcast(ctx, np.array([1.5, 2.5]))
        nil = broadcast(ctx, np.zeros((0, 0)) if ctx.rank == 0 else None)
        return mat, nil.shape

    for mat, nil_shape in run_simulated(3, program):
        assert np.array_equal(mat, payload)
        assert nil_shape == (0, 0)


def test_recv_refuses_a_frame_of_another_operation():
    # frames between two ranks arrive in program order: the receives take
    # rank 1's sends first in first out, and the third finds its gather
    def program(ctx):
        if ctx.rank == 1:
            send(ctx, np.array([[1.0]]), 0)
            send(ctx, np.array([[2.0]]), 0)
            gather(ctx, np.array([[3.0]]))
            return None
        first, second = recv(ctx, 1), recv(ctx, 1)
        with pytest.raises(ProtocolError) as info:
            recv(ctx, 1)
        return first[0, 0], second[0, 0], str(info.value)

    first, second, message = run_simulated(2, program)[0]
    assert (first, second) == (1.0, 2.0)
    assert message == ("rank 1 sent rank 0 a gather frame (tag 0xffff0001) "
                       "where a send frame (tag 0xffff0000) was due")


def test_send_recv_validation():
    def program(ctx):
        with pytest.raises(ValueError):
            send(ctx, np.ones((1, 1)), ctx.rank)  # self
        with pytest.raises(ValueError):
            send(ctx, np.ones((1, 1)), 5)          # out of range
        with pytest.raises(ValueError):
            recv(ctx, ctx.rank)
        with pytest.raises(ValueError):
            gather(ctx, np.ones((1, 1)), root=5)
        with pytest.raises(ValueError):
            broadcast(ctx, np.ones((1, 1)), root=5)
        return True

    assert run_simulated(2, program) == [True, True]


def test_recv_timeout():
    def program(ctx):
        if ctx.rank == 0:
            with pytest.raises(CollectiveTimeout):
                recv(ctx, 1)
        return True

    start = time.monotonic()
    assert run_simulated(2, program, deadline=0.3) == [True, True]
    assert time.monotonic() - start < 5.0


def test_failure_aborts_world_quickly():
    def program(ctx):
        if ctx.rank == 1:
            raise RuntimeError("rank 1 exploded")
        recv(ctx, 1)  # would wait the full deadline otherwise

    start = time.monotonic()
    with pytest.raises(RuntimeError, match="rank 1 exploded"):
        run_simulated(2, program, deadline=20.0)
    assert time.monotonic() - start < 5.0


def test_failure_in_rank_zero_aborts_world_quickly():
    def program(ctx):
        if ctx.rank == 0:
            raise RuntimeError("rank 0 exploded")
        recv(ctx, 0)  # would wait the full deadline otherwise

    start = time.monotonic()
    with pytest.raises(RuntimeError, match="rank 0 exploded"):
        run_simulated(3, program, deadline=20.0)
    assert time.monotonic() - start < 5.0


def test_failure_reaches_a_root_waiting_on_another_rank():
    # rank 2 dies while the root waits on rank 1; the root marks rank 2's
    # end of stream and raises once it reaches rank 2 in the gather
    def program(ctx):
        if ctx.rank == 2:
            time.sleep(0.2)
            raise RuntimeError("rank 2 exploded")
        if ctx.rank == 1:
            time.sleep(0.4)
        return gather(ctx, np.ones((1, 1)))

    start = time.monotonic()
    with pytest.raises(RuntimeError, match="rank 2 exploded"):
        run_simulated(3, program, deadline=20.0)
    assert time.monotonic() - start < 5.0


def _record_socketpairs(monkeypatch):
    """Return a list that collects every socket comm.socket.socketpair
    hands out while the test runs."""
    made = []
    real = comm.socket.socketpair

    def record(*args, **kwargs):
        pair = real(*args, **kwargs)
        made.extend(pair)
        return pair

    monkeypatch.setattr(comm.socket, "socketpair", record)
    return made


def test_run_simulated_closes_every_socket_pair(monkeypatch):
    made = _record_socketpairs(monkeypatch)
    parts = run_simulated(3, lambda ctx: gather(ctx, np.ones((1, 1))))[0]
    assert len(parts) == 3
    assert len(made) == 4 and all(sock.fileno() == -1 for sock in made)

    def program(ctx):
        if ctx.rank == 1:
            raise RuntimeError("rank 1 exploded")
        return gather(ctx, np.ones((1, 1)))

    made.clear()
    with pytest.raises(RuntimeError, match="rank 1 exploded"):
        run_simulated(3, program)
    assert len(made) == 4 and all(sock.fileno() == -1 for sock in made)


def test_world_of_one_has_no_transport(monkeypatch):
    made = _record_socketpairs(monkeypatch)
    assert run_simulated(1, lambda ctx: ctx._conns) == [{}]
    assert made == []


def test_rank_zero_runs_on_the_calling_thread():
    caller = threading.get_ident()
    idents = run_simulated(3, lambda ctx: threading.get_ident())
    assert idents[0] == caller and caller not in idents[1:]


def _blas_threads_or_skip():
    api = _openblas_threads()
    if api is None:
        pytest.skip("numpy's BLAS has no OpenBLAS thread entry point")
    return api[1]


def test_run_simulated_budgets_blas_threads():
    get_threads = _blas_threads_or_skip()
    prev = get_threads()
    budget = max(1, min(prev, len(os.sched_getaffinity(0)) // 2))
    assert run_simulated(2, lambda ctx: get_threads()) == [budget, budget]
    assert get_threads() == prev

    def program(ctx):
        if ctx.rank == 1:
            raise RuntimeError("rank 1 exploded")
        return get_threads()

    with pytest.raises(RuntimeError, match="rank 1 exploded"):
        run_simulated(2, program)
    assert get_threads() == prev
    # a TCP rank raises through the budget itself
    with pytest.raises(RuntimeError, match="rank body failed"):
        with blas_thread_budget(2):
            raise RuntimeError("rank body failed")
    assert get_threads() == prev


def test_overlapping_budgets_restore_the_first_count():
    # worlds launched from several threads at once share the one OpenBLAS
    # setting: none may see more than its budget, and the count from
    # before the first world is back after the last
    get_threads = _blas_threads_or_skip()
    prev = get_threads()
    budget = max(1, min(prev, len(os.sched_getaffinity(0)) // 2))
    seen = []

    def launcher():
        for _ in range(20):
            seen.extend(run_simulated(2, lambda ctx: get_threads()))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        launchers = [threading.Thread(target=launcher) for _ in range(4)]
        for thread in launchers:
            thread.start()
        for thread in launchers:
            thread.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in launchers)
    assert len(seen) == 4 * 20 * 2 and max(seen) <= budget
    assert get_threads() == prev


def test_stats_count_framed_bytes():
    a = np.ones((4, 3))
    frame_bytes = len(oracles.frame_reference(GATHER_TAG, a))
    assert frame_bytes == 4 + 16 + 8 * 12

    def program(ctx):
        gather(ctx, a)
        return ctx.stats.frames_sent, ctx.stats.bytes_sent, \
            ctx.stats.frames_received, ctx.stats.bytes_received

    results = run_simulated(3, program)
    assert results[0] == (0, 0, 2, 2 * frame_bytes)
    assert results[1] == (1, frame_bytes, 0, 0)
    assert results[2] == (1, frame_bytes, 0, 0)


def test_rank_context_validation():
    with pytest.raises(ValueError):
        RankContext(2, 2)
    with pytest.raises(ValueError):
        RankContext(-1, 2)
    for deadline in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="finite and positive"):
            RankContext(0, 2, deadline=deadline)


# ---------- TCP ----------

def run_tcp(world_size, fn, deadline=15.0):
    """Drive a TCP world with one thread per rank on localhost, under the
    BLAS thread budget that `parsvd rank` processes and run_simulated use."""
    address = f"127.0.0.1:{free_port()}"
    results = [None] * world_size
    errors = [None] * world_size

    def runner(rank):
        ctx = None
        try:
            if rank == 0:
                ctx = RankContext.listen(world_size, address, deadline)
            else:
                ctx = RankContext.connect(rank, world_size, address, deadline)
            results[rank] = fn(ctx)
        except BaseException as exc:  # re-raised below
            errors[rank] = exc
        finally:
            if ctx is not None:
                ctx.close()

    threads = [threading.Thread(target=runner, args=(rank,))
               for rank in range(world_size)]
    with blas_thread_budget(world_size):
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
    for exc in errors:
        if exc is not None:
            raise exc
    return results


def _exchange_program(ctx):
    """A fixed conversation touching gather, broadcast, and a
    point-to-point transfer each way between rank 2 and rank 0; returns
    everything observable."""
    local = np.full((ctx.rank + 2, 3), float(ctx.rank + 1))
    parts = gather(ctx, local)
    stacked = np.concatenate(parts, axis=0) if ctx.rank == 0 else None
    mat = broadcast(ctx, stacked)
    p2p = None
    if ctx.rank == 2:
        send(ctx, np.array([[3.25], [1.5]]), 0)
        p2p = recv(ctx, 0)
    elif ctx.rank == 0:
        p2p = recv(ctx, 2)
        send(ctx, -2.0 * p2p, 2)
    return (mat, p2p, ctx.stats.frames_sent, ctx.stats.bytes_sent,
            ctx.stats.frames_received, ctx.stats.bytes_received)


def test_tcp_matches_simulator_bitwise():
    sim = run_simulated(3, _exchange_program)
    tcp = run_tcp(3, _exchange_program)
    for rank in range(3):
        s_mat, s_p2p, *s_stats = sim[rank]
        t_mat, t_p2p, *t_stats = tcp[rank]
        assert np.array_equal(s_mat, t_mat)
        if s_p2p is None:
            assert t_p2p is None
        else:
            assert np.array_equal(s_p2p, t_p2p)
        assert s_stats == t_stats, f"stats differ at rank {rank}"


def _off_root_program(ctx):
    """Each transfer between ranks 1 and 2 raises ValueError naming both
    at the rank that asks for it; rank 0's part of gather(root=1) still
    lands at rank 1."""
    if ctx.rank == 1:
        with pytest.raises(ValueError, match="rank 1 cannot send to rank 2"):
            send(ctx, np.ones((1, 1)), 2)
    elif ctx.rank == 2:
        with pytest.raises(ValueError,
                           match="rank 2 cannot receive from rank 1"):
            recv(ctx, 1)
    if ctx.rank == 0:
        return gather(ctx, np.ones((1, 1)), root=1)
    with pytest.raises(ValueError, match="rank 1 .* rank 2|rank 2 .* rank 1"):
        gather(ctx, np.ones((1, 1)), root=1)
    return ctx.stats.frames_received


@pytest.mark.parametrize("run", [run_simulated, run_tcp], ids=["sim", "tcp"])
def test_tcp_and_simulator_refuse_transfers_between_two_other_ranks(run):
    assert run(3, _off_root_program) == [None, 1, 0]


def _diverged_program(ctx):
    """Rank 0 broadcasts while rank 1 waits in recv, as two ranks whose
    programs took different branches would."""
    if ctx.rank == 0:
        return broadcast(ctx, np.ones((2, 2)))
    return recv(ctx, 0)


@pytest.mark.parametrize("run", [run_simulated, run_tcp], ids=["sim", "tcp"])
def test_diverged_rank_raises_at_once(run):
    # the receive checks the tag of the frame it takes, so the divergence
    # raises with the first frame instead of at the deadline
    start = time.monotonic()
    with pytest.raises(ProtocolError,
                       match=r"root sent rank 1 a broadcast frame \(tag "
                             r"0xffff0002\) where a send frame \(tag 0xffff0000"):
        run(2, _diverged_program, deadline=20.0)
    assert time.monotonic() - start < 1.0


def test_root_refuses_a_frame_it_never_received():
    # rank 1 sends, rank 0 returns at once: the frame would sit unread and
    # the world would end clean, so the root refuses it, naming the sender
    # and the frame's operation
    def program(ctx):
        if ctx.rank == 1:
            send(ctx, np.ones((2, 2)), 0)
        return ctx.rank

    with pytest.raises(ProtocolError,
                       match=r"^rank 1 sent rank 0 a send frame \(tag "
                             r"0xffff0000\) that no receive took$"):
        run_simulated(2, program)


def test_peer_refuses_a_frame_it_never_received():
    # rank 0 sends, rank 1 returns at once: every rank, not only the root,
    # refuses a frame that no receive took
    def program(ctx):
        if ctx.rank == 0:
            send(ctx, np.ones((2, 2)), 1)
        return ctx.rank

    with pytest.raises(ProtocolError,
                       match=r"^root sent rank 1 a send frame \(tag "
                             r"0xffff0000\) that no receive took$"):
        run_simulated(2, program)


def test_root_refusal_of_unread_frames_waits_for_a_clean_finish():
    # a rank that raises is the cause; its peer's unread frame is not
    def program(ctx):
        if ctx.rank == 2:
            raise RuntimeError("rank 2 exploded")
        if ctx.rank == 1:
            send(ctx, np.ones((1, 1)), 0)

    with pytest.raises(RuntimeError, match="rank 2 exploded"):
        run_simulated(3, program)


def test_tcp_world_size_two_collectives():
    def program(ctx):
        parts = gather(ctx, np.array([[float(ctx.rank)]]))
        out = broadcast(ctx, np.concatenate(parts, axis=1)
                        if ctx.rank == 0 else None)
        return out

    for out in run_tcp(2, program):
        assert np.array_equal(out, [[0.0, 1.0]])


def test_tcp_connect_refused_raises_connection_error():
    port = free_port()  # nothing listens here
    start = time.monotonic()
    with pytest.raises(ConnectionError):
        RankContext.connect(1, 2, f"127.0.0.1:{port}", deadline=0.5)
    assert time.monotonic() - start < 10.0


def test_tcp_listen_times_out_without_peers():
    with pytest.raises(CollectiveTimeout):
        RankContext.listen(2, f"127.0.0.1:{free_port()}", deadline=0.3)


def test_tcp_late_client_is_fine():
    address = f"127.0.0.1:{free_port()}"
    got = {}

    def late_client():
        time.sleep(0.4)  # root is already listening; retry loop covers this
        ctx = RankContext.connect(1, 2, address, deadline=5.0)
        got["client"] = broadcast(ctx, None)
        ctx.close()

    thread = threading.Thread(target=late_client)
    thread.start()
    ctx = RankContext.listen(2, address, deadline=5.0)
    broadcast(ctx, np.array([[8.0]]))
    thread.join(timeout=20.0)
    ctx.close()
    assert np.array_equal(got["client"], [[8.0]])


def test_tcp_connect_retries_after_short_growing_pauses(monkeypatch):
    # rank processes start together, so a rank often dials before its root
    # listens; it retries after 1 ms, doubling up to 50 ms
    pauses = []
    real_sleep = time.sleep

    def record(seconds):
        pauses.append(seconds)
        real_sleep(seconds)

    monkeypatch.setattr(time, "sleep", record)
    start = time.monotonic()
    with pytest.raises(ConnectionError):
        RankContext.connect(1, 2, f"127.0.0.1:{free_port()}", deadline=0.3)
    assert pauses[:6] == [0.001, 0.002, 0.004, 0.008, 0.016, 0.032]
    assert all(0.0 < p <= 0.05 for p in pauses)
    assert time.monotonic() - start < 2.0


_BIG = (8 << 20, 1)  # 64 MB: more than localhost socket buffers hold


def _serve_one_rank(server, pause, got):
    """A fake root: take one rank's hello, wait `pause` seconds, then read
    until the rank hangs up and record the byte count in `got`."""
    conn, _ = server.accept()
    with conn:
        _recv_into(conn, bytearray(4), time.monotonic() + 10.0)
        time.sleep(pause)
        total = 0
        while chunk := conn.recv(1 << 20):
            total += len(chunk)
        got.append(total)


def test_tcp_send_longer_than_a_second_keeps_the_deadline():
    # the connect timeout of 1 s once stayed on the socket and cut every
    # later send short at 1 s, whatever the collective deadline
    got = []
    value = np.ones(_BIG)
    with socket.create_server(("127.0.0.1", 0)) as server:
        root = threading.Thread(target=_serve_one_rank,
                                args=(server, 2.5, got))
        root.start()
        host, port = server.getsockname()
        ctx = RankContext.connect(1, 2, f"{host}:{port}", deadline=30.0)
        try:
            send(ctx, value, 0)
        finally:
            ctx.close()
            root.join(timeout=30.0)
    assert got == [FRAME_HEADER.size + MATRIX_HEADER.size + value.nbytes]


def test_tcp_rank_send_to_a_root_that_never_reads_times_out():
    with socket.create_server(("127.0.0.1", 0)) as server:
        host, port = server.getsockname()
        ctx = RankContext.connect(1, 2, f"{host}:{port}", deadline=5.0)
        conn, _ = server.accept()
        try:
            ctx.deadline = 0.5
            start = time.monotonic()
            with pytest.raises(CollectiveTimeout, match="to root"):
                send(ctx, np.ones(_BIG), 0)
            assert time.monotonic() - start < 5.0
        finally:
            ctx.close()
            conn.close()


def test_tcp_rank_send_to_a_root_that_hangs_up_names_the_root():
    # the root takes the hello, then closes with the frame unread: the send
    # fails at once, naming the root, as a read from a dead peer does
    with socket.create_server(("127.0.0.1", 0)) as server:
        def root():
            conn, _ = server.accept()
            with conn:
                _recv_into(conn, bytearray(4), time.monotonic() + 10.0)
                time.sleep(0.3)

        thread = threading.Thread(target=root)
        thread.start()
        host, port = server.getsockname()
        ctx = RankContext.connect(1, 2, f"{host}:{port}", deadline=5.0)
        try:
            ctx.deadline = 30.0
            start = time.monotonic()
            with pytest.raises(ProtocolError,
                               match="connection to root failed mid-send"):
                send(ctx, np.ones(_BIG), 0)
            assert time.monotonic() - start < 5.0
        finally:
            ctx.close()
            thread.join(timeout=10.0)


def _fake_rank(address, rank):
    """A raw socket standing in for `rank`: dial the root, retrying while
    it is not listening yet, and send the rank's 4-byte hello."""
    host, port = address.split(":")
    limit = time.monotonic() + 5.0
    while True:
        try:
            sock = socket.create_connection((host, int(port)), timeout=5.0)
            break
        except OSError:
            if time.monotonic() > limit:
                raise
            time.sleep(0.02)
    sock.sendall(struct.pack("<I", rank))
    return sock


def test_tcp_root_send_to_a_rank_that_never_reads_times_out():
    address = f"127.0.0.1:{free_port()}"
    release = threading.Event()

    def silent_rank():
        with _fake_rank(address, 1):  # hello, then never read
            release.wait(timeout=30.0)

    thread = threading.Thread(target=silent_rank)
    thread.start()
    ctx = RankContext.listen(2, address, deadline=5.0)
    try:
        ctx.deadline = 0.5
        start = time.monotonic()
        with pytest.raises(CollectiveTimeout, match="to rank 1"):
            send(ctx, np.ones(_BIG), 1)
        assert time.monotonic() - start < 5.0
    finally:
        release.set()
        ctx.close()
        thread.join(timeout=10.0)


def _root_refuses(sender, frame, refusal):
    """Listen as rank 0 of 3 while raw sockets dial in as ranks 1 and 2;
    rank `sender` sends `frame` while the root waits on rank 1, and that
    receive must raise ProtocolError matching `refusal` within 2 s."""
    address = f"127.0.0.1:{free_port()}"
    fakes = {}

    def dial():
        for rank in (1, 2):
            fakes[rank] = _fake_rank(address, rank)

    thread = threading.Thread(target=dial)
    thread.start()
    ctx = RankContext.listen(3, address, deadline=5.0)
    thread.join(timeout=10.0)
    try:
        fakes[sender].sendall(frame)
        ctx.deadline = 20.0
        start = time.monotonic()
        with pytest.raises(ProtocolError, match=refusal):
            recv(ctx, 1)
        assert time.monotonic() - start < 2.0
    finally:
        ctx.close()
        for sock in fakes.values():
            sock.close()


def test_tcp_root_refuses_unread_frames_but_not_a_hang_up():
    # a frame that no receive took is refused, whether it is still on the
    # peer's socket or already in its queue; a peer that only hangs up
    # leaves nothing to refuse
    address = f"127.0.0.1:{free_port()}"
    fakes = {}

    def dial():
        for rank in (1, 2):
            fakes[rank] = _fake_rank(address, rank)

    def readable(rank):
        sock = ctx._conns[rank]
        assert select.select([sock], [], [], 5.0)[0] == [sock]

    thread = threading.Thread(target=dial)
    thread.start()
    ctx = RankContext.listen(3, address, deadline=5.0)
    thread.join(timeout=10.0)
    refusal = (r"rank 1 sent rank 0 a gather frame \(tag 0xffff0001\) that "
               r"no receive took")
    try:
        ctx.refuse_unread()
        fakes[1].sendall(oracles.frame_reference(GATHER_TAG, np.ones((2, 2))))
        readable(1)
        with pytest.raises(ProtocolError, match=refusal):
            ctx.refuse_unread()
        # the receive from rank 2 reads every readable socket, so rank 1's
        # frame moves to its queue
        fakes[2].sendall(oracles.frame_reference(SEND_TAG, np.ones((2, 2))))
        readable(2)
        recv(ctx, 2)
        with pytest.raises(ProtocolError, match=refusal):
            ctx.refuse_unread()
        ctx._recv_raw(1, GATHER_TAG)
        for rank in (1, 2):
            fakes[rank].close()
            readable(rank)
        ctx.refuse_unread()
    finally:
        ctx.close()
        for sock in fakes.values():
            sock.close()


def test_tcp_root_receive_refuses_a_bad_frame_from_another_rank():
    # the root waits on rank 1, which stays silent; rank 2's oversized
    # header still ends that receive, with no thread reading behind it.
    # An empty matrix passes the byte limit whatever its dimensions; one
    # numpy cannot hold is refused by name, not with numpy's ValueError
    _root_refuses(2, FRAME_HEADER.pack(SEND_TAG)
                  + MATRIX_HEADER.pack(2 ** 32, 2 ** 32), "limit")
    _root_refuses(2, FRAME_HEADER.pack(SEND_TAG)
                  + MATRIX_HEADER.pack(2 ** 63, 0),
                  r"rank 2 announced a 9223372036854775808x0 matrix, a "
                  r"dimension above the 536870912 limit")


def test_tcp_listen_starts_no_thread():
    address = f"127.0.0.1:{free_port()}"
    release = threading.Event()
    before = set(threading.enumerate())

    def peer():
        ctx = RankContext.connect(1, 2, address, deadline=5.0)
        try:
            release.wait(timeout=30.0)
        finally:
            ctx.close()

    thread = threading.Thread(target=peer)
    thread.start()
    ctx = RankContext.listen(2, address, deadline=5.0)
    try:
        assert set(threading.enumerate()) <= before | {thread}
    finally:
        release.set()
        thread.join(timeout=10.0)
        ctx.close()


def test_tcp_rejects_bad_hello():
    import socket as socket_module
    import struct
    address = f"127.0.0.1:{free_port()}"
    host, port = address.split(":")

    def impostor():
        time.sleep(0.1)
        sock = socket_module.create_connection((host, int(port)), timeout=5.0)
        sock.sendall(struct.pack("<I", 7))  # rank outside the world
        time.sleep(0.2)
        sock.close()

    thread = threading.Thread(target=impostor)
    thread.start()
    with pytest.raises(ProtocolError):
        RankContext.listen(2, address, deadline=5.0)
    thread.join(timeout=10.0)


def test_root_recv_fails_fast_after_peer_hangs_up():
    # frames a peer sent before closing are still delivered; the next
    # receive from it fails at once instead of waiting out the deadline
    address = f"127.0.0.1:{free_port()}"
    a = np.arange(6.0).reshape(2, 3)

    def peer():
        with _fake_rank(address, 1) as sock:
            sock.sendall(oracles.frame_reference(SEND_TAG, a))

    thread = threading.Thread(target=peer)
    thread.start()
    ctx = RankContext.listen(2, address, deadline=5.0)
    try:
        ctx.deadline = 20.0
        assert np.array_equal(recv(ctx, 1), a)
        start = time.monotonic()
        with pytest.raises(ProtocolError, match="rank 1 closed"):
            recv(ctx, 1)
        assert time.monotonic() - start < 2.0
    finally:
        thread.join(timeout=10.0)
        ctx.close()


def test_oversized_frame_header_fails_fast():
    # a corrupt header announcing a 2^32 x 2^32 matrix must be refused as a
    # protocol error, without allocating its payload or waiting it out; so
    # must an empty matrix with a dimension numpy cannot hold, whose zero
    # payload bytes pass the byte limit
    for shape in ((2 ** 32, 2 ** 32), (2 ** 63, 0), (0, 2 ** 63)):
        reader, writer = socket.socketpair()
        with reader, writer:
            writer.sendall(FRAME_HEADER.pack(SEND_TAG)
                           + MATRIX_HEADER.pack(*shape))
            tracemalloc.start()
            start = time.monotonic()
            try:
                with pytest.raises(ProtocolError, match="limit"):
                    _read_frame(reader, start + 10.0, peer="rank 1")
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert time.monotonic() - start < 1.0
            assert peak < 1 << 20


def test_frame_larger_than_one_recv_chunk():
    # a payload larger than the socket buffers, read in several receives,
    # arrives whole; a header just over the limit is refused
    a = np.arange(300 * 1000, dtype=np.float64).reshape(300, 1000)
    frame = oracles.frame_reference(SEND_TAG, a)
    reader, writer = socket.socketpair()
    with reader, writer:
        thread = threading.Thread(target=writer.sendall, args=(frame,))
        thread.start()
        tag, back = _read_frame(reader, time.monotonic() + 10.0)
        thread.join(timeout=10.0)
        assert tag == SEND_TAG
        assert np.array_equal(back, a)
        cols = MAX_PAYLOAD_BYTES // 8 + 1
        writer.sendall(FRAME_HEADER.pack(SEND_TAG) + MATRIX_HEADER.pack(1, cols))
        with pytest.raises(ProtocolError):
            _read_frame(reader, time.monotonic() + 10.0)


def test_reset_mid_read_names_the_peer_and_the_error():
    # a peer that closes with SO_LINGER 0 sends a reset instead of an end
    # of stream; the read fails with the peer's name and the OS error
    with socket.create_server(("127.0.0.1", 0)) as server:
        writer = socket.create_connection(server.getsockname())
        reader, _ = server.accept()
        with reader:
            writer.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                              struct.pack("ii", 1, 0))
            writer.close()
            with pytest.raises(ProtocolError) as info:
                _read_frame(reader, time.monotonic() + 10.0, peer="rank 1")
    message = str(info.value)
    assert message.startswith("connection to rank 1 failed mid-read: ")
    assert "reset" in message.lower()


_HEAD = FRAME_HEADER.pack(SEND_TAG) + MATRIX_HEADER.pack(1, 1)


@pytest.mark.parametrize("sent, message", [
    (_HEAD[:5], "connection to rank 2 closed after 5 of 20 bytes"),
    (_HEAD[:4], "connection to rank 2 closed after 4 of 20 bytes"),
    (_HEAD, "connection to rank 2 closed before matrix payload"),
], ids=["mid-block", "after-tag", "before-payload"])
def test_every_hang_up_mid_frame_names_the_peer(sent, message):
    with pytest.raises(ProtocolError, match=message):
        _read_sent(sent, peer="rank 2")


def test_read_timeout_names_the_peer():
    reader, writer = socket.socketpair()
    with reader, writer:
        with pytest.raises(CollectiveTimeout,
                           match="timed out reading 20 bytes from rank 2"):
            _read_frame(reader, time.monotonic() + 0.05, peer="rank 2")


def test_address_parsing_errors():
    with pytest.raises(ConfigError):
        RankContext.connect(1, 2, "no-port-here", deadline=0.1)
    with pytest.raises(ConfigError):
        RankContext.connect(1, 2, "host:notanumber", deadline=0.1)


# ---------- environment wiring ----------

def test_env_context_requires_variables(monkeypatch):
    for name in ("PARSVD_WORLD_SIZE", "PARSVD_RANK", "PARSVD_ROOT_ADDR"):
        monkeypatch.delenv(name, raising=False)
    with pytest.raises(ConfigError, match="PARSVD_WORLD_SIZE"):
        tcp_context_from_env()
    monkeypatch.setenv("PARSVD_WORLD_SIZE", "2")
    with pytest.raises(ConfigError, match="PARSVD_RANK"):
        tcp_context_from_env()
    monkeypatch.setenv("PARSVD_RANK", "1")
    with pytest.raises(ConfigError, match="PARSVD_ROOT_ADDR"):
        tcp_context_from_env()
    monkeypatch.setenv("PARSVD_ROOT_ADDR", "127.0.0.1:1")
    monkeypatch.setenv("PARSVD_RANK", "5")
    with pytest.raises(ConfigError, match="PARSVD_RANK"):
        tcp_context_from_env()


def test_env_context_world_size_one(monkeypatch):
    monkeypatch.setenv("PARSVD_WORLD_SIZE", "1")
    monkeypatch.setenv("PARSVD_RANK", "0")
    monkeypatch.setenv("PARSVD_ROOT_ADDR", f"127.0.0.1:{free_port()}")
    monkeypatch.setenv("PARSVD_DEADLINE", "3")
    ctx = tcp_context_from_env()
    try:
        assert ctx.world_size == 1 and ctx.rank == 0 and ctx.deadline == 3.0
        parts = gather(ctx, np.ones((2, 2)))
        assert len(parts) == 1
    finally:
        ctx.close()
