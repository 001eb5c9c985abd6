"""Rank-addressed matrix exchange over one rank class wired two ways.

RankContext is one rank of a star around rank 0. `parsvd rank` processes
wire it with TCP sockets: rank 0 listens and every other rank connects. A
simulated world (run_simulated) wires it with one in-process socket pair
between rank 0 and each other rank. Both wirings run the same frames,
buffer, deadlines and errors, so a program produces bit-identical results
on either. The star carries only rank-0 traffic: a send or receive
between two other ranks raises ValueError.

Wire layout, little endian throughout:

    matrix = [u64 rows][u64 cols][rows * cols float64, column-major]
    frame  = [u32 tag][matrix]

Each connection joins rank 0 to one known peer, so a frame carries no
address: the link it arrives on names its sender.

The tag names the operation that sent the frame (SEND_TAG, GATHER_TAG or
BCAST_TAG). Every rank runs the same program over FIFO connections, so the
frames between rank 0 and a peer arrive in program order, as MPI promises.
A receive takes its peer's oldest frame; one sent by another operation
means the ranks diverged, and raises ProtocolError naming both tags.

A frame whose matrix header announces more than MAX_PAYLOAD_BYTES, or a
dimension above MAX_PAYLOAD_BYTES // 8, is refused with ProtocolError
before its matrix is allocated. A frame is written from one buffer and
read straight into its matrix. Rank 0 records a peer's hang-up: once the
frames that peer sent before closing are consumed, the next receive from
it raises ProtocolError at once, as a receive at any other rank does when
rank 0 closes. That is also how a failure spreads: a
rank that raises closes its connections, and the ranks waiting on it raise
ProtocolError, over TCP and in a simulated world alike. A rank whose
program has finished cleanly refuses a frame that was sent to it and that
no receive took (RankContext.refuse_unread).

No thread runs behind a rank: every rank reads its own sockets in one
receive loop, so a root and a peer that at the same time send each other a
frame larger than the socket buffers both wait until the deadline. No
collective in the package does that. Any receive at rank 0 reads every
peer, so a bad frame from any peer raises from that receive under its own
message, and a hang-up is recorded for the next receive from that peer.

Collectives are built from point-to-point sends with rank-ordered assembly,
so gather results do not depend on arrival order. Every blocking operation
carries a deadline (default 30 s) and raises CollectiveTimeout when it
lapses.
"""

import math
import os
import select
import socket
import struct
import threading
import time
from collections import defaultdict, deque
from dataclasses import dataclass

import numpy as np

from .errors import CollectiveTimeout, ConfigError, ProtocolError
from .linalg import as_matrix, blas_thread_budget

FRAME_HEADER = struct.Struct("<I")
MATRIX_HEADER = struct.Struct("<QQ")

# The operation that sent a frame, checked by the receive that takes it.
SEND_TAG = 0xFFFF0000
GATHER_TAG = 0xFFFF0001
BCAST_TAG = 0xFFFF0002
_TAG_NAMES = {SEND_TAG: "send", GATHER_TAG: "gather", BCAST_TAG: "broadcast"}

DEFAULT_DEADLINE = 30.0

# Largest matrix payload a TCP frame may announce. The biggest frames the
# package sends are a rank's rows of the modes (gather_modes): 8192 x 5, or
# 320 KB, in the benchmark; 4 GiB leaves room for 10 million rows of 50
# modes. A header above this is corrupt and raises ProtocolError before any
# of its payload is read. A header within it allocates the whole matrix
# before its payload arrives, which recv_into then fills in place: the
# receive reserves the announced size at once, and the OS commits its pages
# only as data lands. A read takes as much as the socket holds: recv_into
# allocates nothing, unlike recv, which allocates the whole size asked of
# it, so no chunk cap is needed.
MAX_PAYLOAD_BYTES = 1 << 32
# A rank that finds the root not yet listening retries after this many
# seconds, doubling the wait up to the second value: rank processes start
# together, and a fixed nap of the longer length cost a fresh world about
# that much wall time.
_CONNECT_RETRY = (0.001, 0.05)


def _frame(tag, a):
    """The wire bytes of one frame carrying the 2-D float64 array `a`: its
    tag, its matrix header and its column-major payload, laid out in one
    buffer with one copy of the matrix."""
    head = FRAME_HEADER.size + MATRIX_HEADER.size
    frame = bytearray(head + a.nbytes)
    FRAME_HEADER.pack_into(frame, 0, tag)
    MATRIX_HEADER.pack_into(frame, FRAME_HEADER.size, *a.shape)
    np.ndarray(a.shape, dtype="<f8", buffer=frame, offset=head,
               order="F")[...] = a
    return frame


@dataclass
class CommStats:
    """Wire traffic counters for one rank. Bytes include the 4-byte frame
    header and the 16-byte matrix header, i.e. what TCP actually writes."""

    frames_sent: int = 0
    bytes_sent: int = 0
    frames_received: int = 0
    bytes_received: int = 0


def _parse_address(address):
    host, sep, port = str(address).rpartition(":")
    if not sep or not host:
        raise ConfigError(f"address must be host:port, got {address!r}")
    try:
        return host, int(port)
    except ValueError:
        raise ConfigError(f"address has a non-numeric port: {address!r}") from None


def _recv_into(sock, buf, deadline, peer="peer"):
    """Fill the writable buffer `buf` from `sock`. Returns True once it is
    full and False on a clean EOF before its first byte; raises
    ProtocolError on EOF mid-read or a failed read (with the OS error), and
    CollectiveTimeout past the deadline, each naming `peer`."""
    view = memoryview(buf).cast("B")
    got = 0
    while got < len(view):
        wait = deadline - time.monotonic()
        if wait <= 0 or not select.select([sock], [], [], wait)[0]:
            raise CollectiveTimeout(
                f"timed out reading {len(view)} bytes from {peer}")
        try:
            n = sock.recv_into(view[got:])
        except OSError as exc:
            raise ProtocolError(
                f"connection to {peer} failed mid-read: {exc}"
            ) from None
        if not n:
            if not got:
                return False
            raise ProtocolError(
                f"connection to {peer} closed after {got} of {len(view)} "
                f"bytes"
            )
        got += n
    return True


def _send_exact(sock, data, deadline, peer="peer"):
    """Write all of data to a blocking socket, raising CollectiveTimeout
    when `peer` has not taken it all by the deadline, and ProtocolError
    naming `peer` and the OS error when the send fails, as when the peer
    has hung up."""
    view = memoryview(data)
    while view:
        try:
            view = view[sock.send(view, socket.MSG_DONTWAIT):]
            continue
        except BlockingIOError:
            pass
        except OSError as exc:
            raise ProtocolError(
                f"connection to {peer} failed mid-send: {exc}"
            ) from None
        wait = deadline - time.monotonic()
        if wait <= 0:
            raise CollectiveTimeout(
                f"timed out sending a {len(data)}-byte block to {peer} "
                f"({len(data) - len(view)} bytes sent)"
            )
        select.select([], [sock], [], wait)


def _read_frame(sock, deadline, peer="peer"):
    """Read one full frame from `peer`; returns (tag, matrix) or None on
    clean EOF between frames. A matrix header announcing more than
    MAX_PAYLOAD_BYTES, or a dimension above MAX_PAYLOAD_BYTES // 8, raises
    ProtocolError before the matrix is allocated or its payload read."""
    head = bytearray(FRAME_HEADER.size + MATRIX_HEADER.size)
    if not _recv_into(sock, head, deadline, peer):
        return None
    (tag,) = FRAME_HEADER.unpack_from(head)
    rows, cols = MATRIX_HEADER.unpack_from(head, FRAME_HEADER.size)
    size = 8 * rows * cols
    if size > MAX_PAYLOAD_BYTES:
        raise ProtocolError(
            f"frame announces a {rows}x{cols} matrix ({size} bytes), above "
            f"the {MAX_PAYLOAD_BYTES}-byte limit"
        )
    # An empty matrix passes the byte limit whatever its dimensions, and
    # numpy raises ValueError on one above 2^63 - 1.
    if max(rows, cols) > MAX_PAYLOAD_BYTES // 8:
        raise ProtocolError(
            f"{peer} announced a {rows}x{cols} matrix, a dimension above the "
            f"{MAX_PAYLOAD_BYTES // 8} limit"
        )
    matrix = np.empty((rows, cols), order="F")
    # the transpose is C-contiguous, the layout a buffer export needs
    if size and not _recv_into(sock, matrix.T, deadline, peer):
        raise ProtocolError(f"connection to {peer} closed before "
                            f"matrix payload")
    return tag, matrix


def _peer_name(rank):
    return "root" if rank == 0 else f"rank {rank}"


class RankContext:
    """One rank of the star: its id, the world size, the collective
    deadline in seconds, traffic counters (`stats`, which count a received
    frame when a receive consumes it) and its connections. Rank 0 holds one
    to every other rank, each other rank one to rank 0, a world of one
    none. Each rank reads its own sockets inside its own receives and
    queues frames that arrive ahead of their receive in one FIFO per peer.

    Connect over TCP through `listen` (rank 0, which owns the listening
    socket) or `connect` (other ranks); run_simulated wires in-process
    socket pairs into contexts built with the bare constructor.
    """

    def __init__(self, rank, world_size, deadline=DEFAULT_DEADLINE):
        if world_size < 1:
            raise ValueError(f"world_size must be >= 1, got {world_size}")
        if not 0 <= rank < world_size:
            raise ValueError(f"rank must be in [0, {world_size}), got {rank}")
        if not (math.isfinite(deadline) and deadline > 0):
            raise ValueError(f"deadline must be finite and positive, got "
                             f"{deadline}")
        self.rank = rank
        self.world_size = world_size
        self.deadline = deadline
        self.stats = CommStats()
        self._conns = {}            # rank -> socket: all peers', or the root's
        self._ended = set()         # ranks whose connection reached its end
        self._queues = defaultdict(deque)   # rank -> deque[(tag, matrix)]
        self._server = None         # root only: the listening socket

    @classmethod
    def listen(cls, world_size, address, deadline=DEFAULT_DEADLINE):
        """Rank 0 entry point: accept world_size - 1 peers, each announcing
        its rank in a 4-byte hello, within the deadline."""
        host, port = _parse_address(address)
        self = cls(0, world_size, deadline)
        server = socket.create_server((host, port))
        self._server = server
        limit = time.monotonic() + deadline
        try:
            while len(self._conns) < world_size - 1:
                wait = limit - time.monotonic()
                if wait <= 0 or not select.select([server], [], [], wait)[0]:
                    raise CollectiveTimeout(
                        f"only {len(self._conns)} of {world_size - 1} ranks "
                        f"connected within {deadline:.1f}s"
                    )
                conn, addr = server.accept()
                conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                who = f"connecting peer {addr[0]}:{addr[1]}"
                hello = bytearray(4)
                if not _recv_into(conn, hello, limit, peer=who):
                    conn.close()
                    continue
                peer = struct.unpack("<I", hello)[0]
                if not 1 <= peer < world_size or peer in self._conns:
                    conn.close()
                    raise ProtocolError(f"bad hello rank {peer}")
                self._conns[peer] = conn
        except BaseException:
            self.close()
            raise
        return self

    @classmethod
    def connect(cls, rank, world_size, address, deadline=DEFAULT_DEADLINE):
        """Non-root entry point. Retries until the root answers or the
        deadline lapses, then raises the underlying ConnectionError."""
        if not 1 <= rank < world_size:
            raise ValueError(f"connect is for ranks 1..{world_size - 1}, got {rank}")
        host, port = _parse_address(address)
        self = cls(rank, world_size, deadline)
        limit = time.monotonic() + deadline
        pause, longest = _CONNECT_RETRY
        while True:
            try:
                sock = socket.create_connection((host, port), timeout=1.0)
                break
            except OSError as exc:
                remaining = limit - time.monotonic()
                if remaining <= 0:
                    raise ConnectionError(
                        f"rank {rank} could not reach root at {host}:{port} "
                        f"within {deadline:.1f}s: {exc}"
                    ) from exc
                time.sleep(min(pause, remaining))
                pause = min(2 * pause, longest)
        # The 1 s bounds each connect attempt only; sends are bounded by
        # the collective deadline instead (_send_exact).
        sock.settimeout(None)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        _send_exact(sock, struct.pack("<I", rank), limit, "root")
        self._conns[0] = sock
        return self

    def _link(self, rank, verb):
        """The connection that carries a transfer between this rank and
        `rank`, the one addressing check of every transfer: ValueError for
        this rank itself, a rank outside the world or a pair without rank
        0, ProtocolError when the connection is missing."""
        if not 0 <= rank < self.world_size:
            raise ValueError(f"rank {self.rank} cannot {verb} rank {rank}: "
                             f"out of range for world {self.world_size}")
        if rank == self.rank:
            raise ValueError(f"rank {rank} cannot {verb} itself; "
                             f"self-transfer is not allowed")
        if self.rank != 0 and rank != 0:
            raise ValueError(f"rank {self.rank} cannot {verb} rank {rank}: "
                             f"rank 0 is one end of every transfer")
        if rank not in self._conns:
            raise ProtocolError(f"rank {self.rank} has no connection to "
                                f"rank {rank}")
        return self._conns[rank]

    def _send_raw(self, dest, frame):
        sock = self._link(dest, "send to")
        _send_exact(sock, frame, time.monotonic() + self.deadline,
                    _peer_name(dest))
        self.stats.frames_sent += 1
        self.stats.bytes_sent += len(frame)

    def _recv_raw(self, source, tag):
        """Return the matrix of the oldest frame from `source`, reading
        this rank's connections until one arrives. A frame whose tag is not
        `tag` was sent by another operation: the two programs have
        diverged, and ProtocolError names the peer and both tags."""
        self._link(source, "receive from")
        limit = time.monotonic() + self.deadline
        queue = self._queues[source]
        while not queue:
            if source in self._ended:
                raise ProtocolError(
                    f"{_peer_name(source)} closed the connection"
                )
            if time.monotonic() > limit:
                raise CollectiveTimeout(
                    f"recv at rank {self.rank} from rank {source} timed out"
                )
            self._pump(limit)
        got, matrix = queue.popleft()
        if got != tag:
            raise ProtocolError(
                f"{_peer_name(source)} sent rank {self.rank} a "
                f"{_TAG_NAMES.get(got, 'foreign')} frame (tag {got:#x}) where "
                f"a {_TAG_NAMES[tag]} frame (tag {tag:#x}) was due"
            )
        self.stats.frames_received += 1
        self.stats.bytes_received += (FRAME_HEADER.size + MATRIX_HEADER.size
                                      + matrix.nbytes)
        return matrix

    def _pump(self, deadline):
        """Wait until one of this rank's live connections is readable or
        the deadline passes, then read one frame, within the deadline, from
        each readable connection: queue it behind the earlier frames of the
        rank at the other end, or mark a connection that reached its end."""
        live = {sock: rank for rank, sock in self._conns.items()
                if rank not in self._ended}
        wait = max(0.0, deadline - time.monotonic())
        ready, _, _ = select.select(list(live), [], [], wait)
        for sock in ready:
            rank = live[sock]
            frame = _read_frame(sock, deadline, _peer_name(rank))
            if frame is None:
                self._ended.add(rank)
                continue
            self._queues[rank].append(frame)

    def refuse_unread(self):
        """Raise ProtocolError, naming the peer and the frame's tag, when a
        peer sent this rank a frame that no receive took: one still queued,
        or bytes still unread on its connection. Every rank calls this once
        its program has finished cleanly, since a rank that is sent more
        than it receives has diverged from its sender. A hang-up alone
        leaves no frame."""
        for rank, sock in sorted(self._conns.items()):
            queue = self._queues.get(rank)
            if queue:
                tag = queue[0][0]
            else:
                try:
                    head = sock.recv(4, socket.MSG_PEEK | socket.MSG_DONTWAIT)
                except OSError:     # nothing to read, or a reset connection
                    continue
                if not head:
                    continue
                if len(head) < 4:
                    raise ProtocolError(f"{_peer_name(rank)} left rank "
                                        f"{self.rank} {len(head)} unread bytes")
                (tag,) = struct.unpack("<I", head)
            raise ProtocolError(
                f"{_peer_name(rank)} sent rank {self.rank} a "
                f"{_TAG_NAMES.get(tag, 'foreign')} frame (tag {tag:#x}) that "
                f"no receive took"
            )

    def close(self):
        for sock in self._conns.values():
            try:
                sock.close()
            except OSError:
                pass
        self._conns.clear()
        if self._server is not None:
            try:
                self._server.close()
            except OSError:
                pass
            self._server = None


def send(ctx, value, dest):
    """Point-to-point send of one matrix."""
    value = as_matrix(value, "value", allow_empty=True)
    ctx._send_raw(dest, _frame(SEND_TAG, value))


def recv(ctx, source):
    """Blocking receive of the next frame from `source`, which must come
    from its matching send: frames between two ranks arrive in program
    order, and one from another operation raises ProtocolError."""
    return ctx._recv_raw(source, SEND_TAG)


def gather(ctx, local, root=0):
    """Collect each rank's matrix at `root`, ordered by rank.

    Returns the list of matrices (the root's own entry is a copy, never an
    alias) at the root and None elsewhere. Entries may differ in shape.
    """
    local = as_matrix(local, "local", allow_empty=True)
    if ctx.rank != root:
        ctx._send_raw(root, _frame(GATHER_TAG, local))
        return None
    parts = []
    for rank in range(ctx.world_size):
        if rank == root:
            parts.append(local.copy())
        else:
            parts.append(ctx._recv_raw(rank, GATHER_TAG))
    return parts


def broadcast(ctx, value, root=0):
    """Send the root's matrix to every rank; returns it on all ranks.

    Other ranks pass None. The root gets back a copy of its own value, and
    builds its frame once, only when another rank exists.
    """
    if ctx.rank != root:
        return ctx._recv_raw(root, BCAST_TAG)
    value = as_matrix(value, "value", allow_empty=True)
    if ctx.world_size > 1:
        frame = _frame(BCAST_TAG, value)
        for rank in range(ctx.world_size):
            if rank != root:
                ctx._send_raw(rank, frame)
    return value.copy()


def run_simulated(world_size, fn, *, deadline=DEFAULT_DEADLINE):
    """Run fn(ctx) on `world_size` simulated ranks: rank 0 on the calling
    thread, as a caller's own RankContext(0, 1) would run, and every other
    rank on a new thread.

    The ranks talk through one in-process socket pair between rank 0 and
    each other rank, read and written by the same RankContext code as the
    TCP sockets of `parsvd rank` processes, so frames, buffering, deadlines
    and errors are theirs. A world of one has no connections.

    Returns the per-rank results in rank order. A rank that raises records
    its exception and closes its connections, so a rank waiting on it reads
    the end of stream and raises ProtocolError at once; the first exception
    recorded, the cause, is re-raised. A rank that returns keeps its
    connections open until every rank has finished, so a receive from it
    still waits out its deadline. When every rank returns, a frame that a
    rank was sent and never received raises ProtocolError
    (RankContext.refuse_unread). Every socket is closed when this returns
    or raises.

    While the ranks run, OpenBLAS gets the per-rank share of the CPUs that
    `linalg.blas_thread_budget` gives, the same count each `parsvd rank`
    process of a world of this size uses, so both wirings run the same
    BLAS code. The previous count is back when this returns or raises.
    """
    if world_size < 1:
        raise ValueError(f"world_size must be >= 1, got {world_size}")
    contexts = [RankContext(rank, world_size, deadline)
                for rank in range(world_size)]
    results = [None] * world_size
    failures = []

    def runner(rank):
        try:
            results[rank] = fn(contexts[rank])
        except BaseException as exc:
            failures.append(exc)
            contexts[rank].close()

    try:
        for rank in range(1, world_size):
            contexts[0]._conns[rank], contexts[rank]._conns[0] = \
                socket.socketpair()
        threads = [
            threading.Thread(target=runner, args=(rank,), daemon=True)
            for rank in range(1, world_size)
        ]
        with blas_thread_budget(world_size):
            for thread in threads:
                thread.start()
            runner(0)
            for thread in threads:
                thread.join()
        if not failures:
            for ctx in contexts:
                ctx.refuse_unread()
    finally:
        for ctx in contexts:
            ctx.close()
    if failures:
        raise failures[0]
    return results


def tcp_context_from_env(environ=None):
    """Build a TCP RankContext from PARSVD_WORLD_SIZE, PARSVD_RANK and
    PARSVD_ROOT_ADDR (plus optional PARSVD_DEADLINE, seconds).

    Rank 0 listens on the address; other ranks connect to it. Missing or
    malformed variables, a deadline that is not a finite number above 0
    among them, raise ConfigError naming the offender before any socket
    opens.
    """
    environ = os.environ if environ is None else environ
    values = {}
    for name in ("PARSVD_WORLD_SIZE", "PARSVD_RANK", "PARSVD_ROOT_ADDR"):
        raw = environ.get(name)
        if raw is None or raw == "":
            raise ConfigError(f"environment variable {name} is not set")
        values[name] = raw
    try:
        world_size = int(values["PARSVD_WORLD_SIZE"])
        rank = int(values["PARSVD_RANK"])
    except ValueError:
        raise ConfigError(
            "PARSVD_WORLD_SIZE and PARSVD_RANK must be integers"
        ) from None
    deadline_raw = environ.get("PARSVD_DEADLINE")
    try:
        deadline = DEFAULT_DEADLINE if not deadline_raw else float(deadline_raw)
        usable = math.isfinite(deadline) and deadline > 0
    except ValueError:
        usable = False
    if not usable:
        raise ConfigError(f"PARSVD_DEADLINE must be a finite number of "
                          f"seconds above 0, got {deadline_raw!r}")
    if world_size < 1:
        raise ConfigError(f"PARSVD_WORLD_SIZE must be >= 1, got {world_size}")
    if not 0 <= rank < world_size:
        raise ConfigError(
            f"PARSVD_RANK must be in [0, {world_size}), got {rank}"
        )
    address = values["PARSVD_ROOT_ADDR"]
    if rank == 0:
        return RankContext.listen(world_size, address, deadline)
    return RankContext.connect(rank, world_size, address, deadline)
