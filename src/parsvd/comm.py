"""Rank-addressed matrix exchange over interchangeable transports.

Two transports move the same wire frames: an in-process simulator (threads
and bounded FIFO channels) for single-machine runs and tests, and a TCP star
where rank 0 listens and routes frames between peers. Because both carry
byte-identical frames through one codec, a program produces bit-identical
results no matter which transport runs underneath it.

Wire layout, little endian throughout:

    matrix = [u64 rows][u64 cols][rows * cols float64, column-major]
    frame  = [u32 tag][u32 source][u32 dest][matrix]

A TCP frame whose matrix header announces more than MAX_PAYLOAD_BYTES is
refused with ProtocolError before its payload is read. Rank 0 records a
peer's hang-up: once the frames that peer sent before closing are consumed,
the next receive from it raises ProtocolError at once, as a receive at any
other rank does when rank 0 closes.

Collectives are built from point-to-point sends with rank-ordered assembly,
so gather results do not depend on arrival order. Every blocking operation
carries a deadline (default 30 s) and raises CollectiveTimeout when it
lapses.
"""

import os
import queue
import select
import socket
import struct
import threading
import time
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .errors import CollectiveTimeout, ConfigError, ProtocolError
from .linalg import as_matrix, blas_thread_budget

FRAME_HEADER = struct.Struct("<III")
MATRIX_HEADER = struct.Struct("<QQ")

# Tags at or above this bound are reserved for the collectives.
MAX_USER_TAG = 0xFFFF0000
GATHER_TAG = 0xFFFF0001
BCAST_TAG = 0xFFFF0002

DEFAULT_DEADLINE = 30.0
_POLL = 0.02

# Largest matrix payload a TCP frame may announce. The biggest frames the
# package sends are a rank's rows of the modes (gather_modes): 8192 x 5, or
# 320 KB, in the benchmark; 4 GiB leaves room for 10 million rows of 50
# modes. A header above this is corrupt and raises ProtocolError before any
# of its payload is read.
MAX_PAYLOAD_BYTES = 1 << 32
# Most bytes asked of one recv call. CPython allocates the whole requested
# size before data arrives, so a wire-supplied length is never passed on
# whole.
_RECV_CHUNK = 1 << 20
# A rank that finds the root not yet listening retries after this many
# seconds, doubling the wait up to the second value: rank processes start
# together, and a fixed nap of the longer length cost a fresh world about
# that much wall time.
_CONNECT_RETRY = (0.001, 0.05)


def encode_matrix(a):
    """Serialize a 2-D float64 array to wire bytes (header + column-major
    payload). Empty matrices are legal and encode to just the header."""
    a = as_matrix(a, "a", allow_empty=True)
    return MATRIX_HEADER.pack(a.shape[0], a.shape[1]) + a.tobytes(order="F")


def decode_matrix(buf):
    """Inverse of encode_matrix. The buffer must be exactly one matrix;
    anything shorter or longer raises ProtocolError."""
    if len(buf) < MATRIX_HEADER.size:
        raise ProtocolError(
            f"matrix buffer is {len(buf)} bytes, header alone needs "
            f"{MATRIX_HEADER.size}"
        )
    rows, cols = MATRIX_HEADER.unpack_from(buf)
    expected = MATRIX_HEADER.size + 8 * rows * cols
    if len(buf) != expected:
        raise ProtocolError(
            f"matrix buffer is {len(buf)} bytes, expected {expected} "
            f"for shape ({rows}, {cols})"
        )
    flat = np.frombuffer(buf, dtype="<f8", offset=MATRIX_HEADER.size,
                         count=rows * cols)
    return flat.reshape((rows, cols), order="F").copy(order="F")


@dataclass
class CommStats:
    """Wire traffic counters for one rank. Bytes include the 12-byte frame
    header and the 16-byte matrix header, i.e. what TCP actually writes."""

    frames_sent: int = 0
    bytes_sent: int = 0
    frames_received: int = 0
    bytes_received: int = 0


class _WorldAborted(ProtocolError):
    """Raised in simulator ranks blocked on a world another rank tore down."""


class SimTransport:
    """In-process transport: one bounded FIFO channel per (source, dest)
    pair, shared by all rank threads of a simulated world.

    Frames are stored as encoded bytes, exactly what TCP would put on the
    wire, so the two transports are interchangeable bit for bit.
    """

    def __init__(self, world_size, channel_capacity=64):
        if world_size < 1:
            raise ValueError(f"world_size must be >= 1, got {world_size}")
        if channel_capacity < 1:
            raise ValueError(
                f"channel_capacity must be >= 1, got {channel_capacity}"
            )
        self.world_size = world_size
        self._channels = {
            (src, dst): queue.Queue(maxsize=channel_capacity)
            for src in range(world_size)
            for dst in range(world_size)
            if src != dst
        }
        self._aborted = threading.Event()

    def abort(self):
        """Wake every blocked rank with _WorldAborted; used when one rank
        dies so the others do not sit out their full deadlines."""
        self._aborted.set()

    def send_frame(self, source, dest, tag, payload, deadline):
        chan = self._channels[(source, dest)]
        while True:
            if self._aborted.is_set():
                raise _WorldAborted("simulated world was aborted")
            try:
                chan.put((tag, payload), timeout=_POLL)
                return
            except queue.Full:
                if time.monotonic() > deadline:
                    raise CollectiveTimeout(
                        f"send from rank {source} to rank {dest} timed out "
                        f"(channel full)"
                    )

    def recv_frame(self, source, dest, deadline):
        chan = self._channels[(source, dest)]
        while True:
            if self._aborted.is_set():
                raise _WorldAborted("simulated world was aborted")
            try:
                return chan.get(timeout=_POLL)
            except queue.Empty:
                if time.monotonic() > deadline:
                    raise CollectiveTimeout(
                        f"recv at rank {dest} from rank {source} timed out"
                    )

    def close(self):
        pass


def _parse_address(address):
    if isinstance(address, tuple):
        host, port = address
        return host, int(port)
    host, sep, port = str(address).rpartition(":")
    if not sep or not host:
        raise ConfigError(f"address must be host:port, got {address!r}")
    try:
        return host, int(port)
    except ValueError:
        raise ConfigError(f"address has a non-numeric port: {address!r}") from None


def _recv_exact(sock, n, deadline, closing=None, peer="peer"):
    """Read exactly n bytes. Returns None on a clean EOF at offset zero;
    raises ProtocolError on EOF mid-read or a failed read, naming `peer`
    (who is on the other end) and the OS error, and CollectiveTimeout past
    the deadline. `closing` (an Event) aborts the wait during shutdown."""
    buf = bytearray()
    while len(buf) < n:
        if closing is not None and closing.is_set():
            raise _WorldAborted("transport closed")
        if deadline is not None and time.monotonic() > deadline:
            raise CollectiveTimeout(f"timed out reading {n}-byte block")
        ready, _, _ = select.select([sock], [], [], _POLL)
        if not ready:
            continue
        try:
            chunk = sock.recv(min(n - len(buf), _RECV_CHUNK))
        except OSError as exc:
            raise ProtocolError(
                f"connection to {peer} failed mid-read: {exc}"
            ) from None
        if not chunk:
            if not buf:
                return None
            raise ProtocolError(
                f"connection closed after {len(buf)} of {n} bytes"
            )
        buf += chunk
    return bytes(buf)


def _send_exact(sock, data, deadline, peer="peer"):
    """Write all of data to a blocking socket, raising CollectiveTimeout
    when `peer` has not taken it all by the deadline. Errors of the socket
    itself propagate."""
    view = memoryview(data)
    while view:
        try:
            view = view[sock.send(view, socket.MSG_DONTWAIT):]
            continue
        except BlockingIOError:
            pass
        wait = deadline - time.monotonic()
        if wait <= 0:
            raise CollectiveTimeout(
                f"timed out sending a {len(data)}-byte block to {peer} "
                f"({len(data) - len(view)} bytes sent)"
            )
        select.select([], [sock], [], wait)


def _read_frame(sock, deadline, closing=None, peer="peer"):
    """Read one full frame from `peer`; returns (tag, source, dest,
    payload) or None on clean EOF between frames. A matrix header
    announcing more than MAX_PAYLOAD_BYTES raises ProtocolError before the
    payload is read."""
    head = _recv_exact(sock, FRAME_HEADER.size, deadline, closing, peer)
    if head is None:
        return None
    tag, source, dest = FRAME_HEADER.unpack(head)
    mhead = _recv_exact(sock, MATRIX_HEADER.size, deadline, closing, peer)
    if mhead is None:
        raise ProtocolError("connection closed between frame and matrix header")
    rows, cols = MATRIX_HEADER.unpack(mhead)
    size = 8 * rows * cols
    if size > MAX_PAYLOAD_BYTES:
        raise ProtocolError(
            f"frame announces a {rows}x{cols} matrix ({size} bytes), above "
            f"the {MAX_PAYLOAD_BYTES}-byte limit"
        )
    body = b""
    if size:
        body = _recv_exact(sock, size, deadline, closing, peer)
        if body is None:
            raise ProtocolError("connection closed before matrix payload")
    return tag, source, dest, mhead + body


class TcpTransport:
    """Star-topology TCP transport. Rank 0 owns the listening socket and a
    router thread that forwards peer-to-peer frames; every other rank holds
    a single connection to rank 0.

    Construct through `listen` (rank 0) or `connect` (other ranks).
    """

    def __init__(self, rank, world_size):
        self.rank = rank
        self.world_size = world_size
        self._peers = {}            # root only: rank -> socket
        self._send_locks = {}       # root only: rank -> Lock
        self._inbox = {}            # root only: source -> deque[(tag, bytes)]
        self._hung_up = set()       # root only: ranks whose connection closed
        self._cond = threading.Condition()
        self._closing = threading.Event()
        self._router = None
        self._router_error = None
        self._sock = None           # client connection, or root server socket
        self._pending = {}          # client only: source -> deque[(tag, bytes)]
        self._deadline = DEFAULT_DEADLINE  # root only: bounds each forward

    @classmethod
    def listen(cls, world_size, address, deadline=DEFAULT_DEADLINE):
        """Rank 0 entry point: accept world_size - 1 peers, each announcing
        its rank in a 4-byte hello, then start routing. The deadline bounds
        the accepting, and each frame the router forwards between peers."""
        host, port = _parse_address(address)
        self = cls(0, world_size)
        self._deadline = deadline
        server = socket.create_server((host, port))
        self._sock = server
        limit = time.monotonic() + deadline
        try:
            while len(self._peers) < world_size - 1:
                if time.monotonic() > limit:
                    raise CollectiveTimeout(
                        f"only {len(self._peers)} of {world_size - 1} ranks "
                        f"connected within {deadline:.1f}s"
                    )
                ready, _, _ = select.select([server], [], [], _POLL)
                if not ready:
                    continue
                conn, addr = server.accept()
                conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                who = f"connecting peer {addr[0]}:{addr[1]}"
                hello = _recv_exact(conn, 4, limit, peer=who)
                if hello is None:
                    conn.close()
                    continue
                peer = struct.unpack("<I", hello)[0]
                if not 1 <= peer < world_size or peer in self._peers:
                    conn.close()
                    raise ProtocolError(f"bad hello rank {peer}")
                self._peers[peer] = conn
                self._send_locks[peer] = threading.Lock()
        except BaseException:
            self.close()
            raise
        self._router = threading.Thread(target=self._route, daemon=True)
        self._router.start()
        return self

    @classmethod
    def connect(cls, rank, world_size, address, deadline=DEFAULT_DEADLINE):
        """Non-root entry point. Retries until the root answers or the
        deadline lapses, then raises the underlying ConnectionError."""
        if not 1 <= rank < world_size:
            raise ValueError(f"connect is for ranks 1..{world_size - 1}, got {rank}")
        host, port = _parse_address(address)
        self = cls(rank, world_size)
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
        self._sock = sock
        self._send_locks[0] = threading.Lock()
        return self

    def _route(self):
        by_sock = {sock: rank for rank, sock in self._peers.items()}
        try:
            while not self._closing.is_set():
                if not by_sock:
                    return
                ready, _, _ = select.select(list(by_sock), [], [], _POLL)
                for sock in ready:
                    frame = _read_frame(sock, None, self._closing,
                                        f"rank {by_sock[sock]}")
                    if frame is None:
                        with self._cond:
                            self._hung_up.add(by_sock.pop(sock))
                            self._cond.notify_all()
                        continue
                    tag, source, dest, payload = frame
                    if dest == 0:
                        with self._cond:
                            self._inbox.setdefault(source, deque()).append(
                                (tag, payload)
                            )
                            self._cond.notify_all()
                    elif dest in self._peers:
                        raw = FRAME_HEADER.pack(tag, source, dest) + payload
                        with self._send_locks[dest]:
                            _send_exact(self._peers[dest], raw,
                                        time.monotonic() + self._deadline,
                                        f"rank {dest}")
                    else:
                        raise ProtocolError(f"frame addressed to unknown rank {dest}")
        except _WorldAborted:
            pass
        except Exception as exc:
            with self._cond:
                self._router_error = exc
                self._cond.notify_all()

    def send_frame(self, source, dest, tag, payload, deadline):
        raw = FRAME_HEADER.pack(tag, source, dest) + payload
        if self.rank == 0:
            if dest not in self._peers:
                raise ProtocolError(f"no connection to rank {dest}")
            with self._send_locks[dest]:
                _send_exact(self._peers[dest], raw, deadline, f"rank {dest}")
        else:
            # Everything leaves through the root, which forwards as needed.
            with self._send_locks[0]:
                _send_exact(self._sock, raw, deadline, "root")

    def recv_frame(self, source, dest, deadline):
        if self.rank == 0:
            with self._cond:
                while True:
                    err = self._router_error
                    if err is not None:
                        kind = (CollectiveTimeout
                                if isinstance(err, CollectiveTimeout)
                                else ProtocolError)
                        raise kind(f"router failed: {err}") from err
                    box = self._inbox.get(source)
                    if box:
                        return box.popleft()
                    if source in self._hung_up:
                        raise ProtocolError(f"rank {source} closed the connection")
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        raise CollectiveTimeout(
                            f"recv at rank 0 from rank {source} timed out"
                        )
                    self._cond.wait(timeout=min(_POLL, remaining))
        else:
            box = self._pending.get(source)
            if box:
                return box.popleft()
            while True:
                frame = _read_frame(self._sock, deadline, self._closing,
                                    "root")
                if frame is None:
                    raise ProtocolError("root closed the connection")
                tag, src, dst, payload = frame
                if dst != self.rank:
                    raise ProtocolError(
                        f"rank {self.rank} received a frame for rank {dst}"
                    )
                if src == source:
                    return tag, payload
                self._pending.setdefault(src, deque()).append((tag, payload))

    def close(self, linger=5.0):
        # Root first: keep routing until every peer hangs up (the router
        # exits on its own once all sockets reach EOF), so frames still in
        # flight between peers are delivered, then cut whatever is left.
        if self._router is not None:
            self._router.join(timeout=linger)
        self._closing.set()
        if self._router is not None:
            self._router.join(timeout=5.0)
            self._router = None
        for sock in self._peers.values():
            try:
                sock.close()
            except OSError:
                pass
        self._peers.clear()
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()


@dataclass
class RankContext:
    """One rank's view of the world: its id, the world size, a transport
    (None in a world of one, whose collectives never touch it), the
    collective deadline in seconds, and traffic counters."""

    rank: int
    world_size: int
    transport: object
    deadline: float = DEFAULT_DEADLINE
    stats: CommStats = field(default_factory=CommStats)

    def __post_init__(self):
        if self.world_size < 1:
            raise ValueError(f"world_size must be >= 1, got {self.world_size}")
        if not 0 <= self.rank < self.world_size:
            raise ValueError(
                f"rank must be in [0, {self.world_size}), got {self.rank}"
            )
        if not self.deadline > 0:
            raise ValueError(f"deadline must be positive, got {self.deadline}")
        if self.transport is None and self.world_size > 1:
            raise ValueError(
                f"a world of {self.world_size} ranks needs a transport"
            )
        # frames stashed because they arrived ahead of the tag being awaited
        self._stash = {}

    def _send_raw(self, dest, tag, payload):
        limit = time.monotonic() + self.deadline
        self.transport.send_frame(self.rank, dest, tag, payload, limit)
        self.stats.frames_sent += 1
        self.stats.bytes_sent += FRAME_HEADER.size + len(payload)

    def _recv_raw(self, source, tag):
        key = (source, tag)
        box = self._stash.get(key)
        if box:
            return box.popleft()
        limit = time.monotonic() + self.deadline
        while True:
            got_tag, payload = self.transport.recv_frame(source, self.rank, limit)
            self.stats.frames_received += 1
            self.stats.bytes_received += FRAME_HEADER.size + len(payload)
            if got_tag == tag:
                return payload
            self._stash.setdefault((source, got_tag), deque()).append(payload)


def _check_peer(ctx, peer, who):
    if not 0 <= peer < ctx.world_size:
        raise ValueError(f"{who} {peer} out of range for world {ctx.world_size}")
    if peer == ctx.rank:
        raise ValueError(f"{who} {peer} is this rank; self-transfer is not allowed")


def _check_tag(tag):
    if not 0 <= tag < MAX_USER_TAG:
        raise ValueError(f"tag must be in [0, {MAX_USER_TAG}), got {tag}")


def send(ctx, value, dest, tag):
    """Point-to-point send of one matrix."""
    _check_peer(ctx, dest, "dest")
    _check_tag(tag)
    value = as_matrix(value, "value", allow_empty=True)
    ctx._send_raw(dest, tag, encode_matrix(value))


def recv(ctx, source, tag):
    """Blocking receive of one matrix with the given tag from `source`.

    Frames from the same source with other tags are held aside and returned
    to later receives, so interleaved tag usage cannot drop data.
    """
    _check_peer(ctx, source, "source")
    _check_tag(tag)
    return decode_matrix(ctx._recv_raw(source, tag))


def gather(ctx, local, root=0):
    """Collect each rank's matrix at `root`, ordered by rank.

    Returns the list of matrices (the root's own entry is a copy, never an
    alias) at the root and None elsewhere. Entries may differ in shape.
    """
    if not 0 <= root < ctx.world_size:
        raise ValueError(f"root {root} out of range for world {ctx.world_size}")
    local = as_matrix(local, "local", allow_empty=True)
    if ctx.rank != root:
        ctx._send_raw(root, GATHER_TAG, encode_matrix(local))
        return None
    parts = []
    for rank in range(ctx.world_size):
        if rank == root:
            parts.append(local.copy())
        else:
            parts.append(decode_matrix(ctx._recv_raw(rank, GATHER_TAG)))
    return parts


def broadcast(ctx, value, root=0):
    """Send the root's array to every rank; returns it on all ranks.

    Vectors ride the wire as n-by-1 matrices. Non-root callers signal which
    shape they expect through the placeholder they pass: a 1-D placeholder
    (any length, e.g. np.empty(0)) yields a 1-D result, anything else yields
    the matrix as sent. The root gets back a copy of its own value, and
    encodes it only when another rank exists.
    """
    if not 0 <= root < ctx.world_size:
        raise ValueError(f"root {root} out of range for world {ctx.world_size}")
    if ctx.rank == root:
        arr = np.asarray(value, dtype=np.float64)
        if arr.ndim not in (1, 2):
            raise ValueError(f"broadcast value must be 1-D or 2-D, got {arr.ndim}-D")
        if ctx.world_size > 1:
            matrix = arr.reshape(-1, 1) if arr.ndim == 1 else arr
            payload = encode_matrix(as_matrix(matrix, "value", allow_empty=True))
            for rank in range(ctx.world_size):
                if rank != root:
                    ctx._send_raw(rank, BCAST_TAG, payload)
        return arr.copy()
    mat = decode_matrix(ctx._recv_raw(root, BCAST_TAG))
    want_vector = value is not None and np.ndim(value) == 1
    if want_vector:
        # (n, 1) column-major bytes are exactly the vector's bytes
        return mat.reshape(-1)
    return mat


def run_simulated(world_size, fn, *, deadline=DEFAULT_DEADLINE, channel_capacity=64):
    """Run fn(ctx) on `world_size` simulated ranks: rank 0 on the calling
    thread, as a caller's own RankContext(0, 1, None) would run, and every
    other rank on a new thread.

    Returns the per-rank results in rank order. If any rank raises, the
    world is aborted so the rest unblock immediately, and the lowest-rank
    original exception is re-raised.

    While the ranks run, OpenBLAS gets the per-rank share of the CPUs that
    `linalg.blas_thread_budget` gives, the same count each `parsvd rank`
    process of a world of this size uses, so both transports run the same
    BLAS code. The previous count is back when this returns or raises.
    """
    transport = SimTransport(world_size, channel_capacity)
    contexts = [
        RankContext(rank, world_size, transport, deadline)
        for rank in range(world_size)
    ]
    results = [None] * world_size
    failures = [None] * world_size

    def runner(rank):
        try:
            results[rank] = fn(contexts[rank])
        except BaseException as exc:
            failures[rank] = exc
            transport.abort()

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
    # Prefer a root-cause exception over _WorldAborted fallout in victims.
    for exc in failures:
        if exc is not None and not isinstance(exc, _WorldAborted):
            raise exc
    for exc in failures:
        if exc is not None:
            raise exc
    return results


def tcp_context_from_env(environ=None):
    """Build a TCP RankContext from PARSVD_WORLD_SIZE, PARSVD_RANK and
    PARSVD_ROOT_ADDR (plus optional PARSVD_DEADLINE, seconds).

    Rank 0 listens on the address; other ranks connect to it. Missing or
    malformed variables raise ConfigError naming the offender.
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
    except ValueError:
        raise ConfigError("PARSVD_DEADLINE must be a number") from None
    if world_size < 1:
        raise ConfigError(f"PARSVD_WORLD_SIZE must be >= 1, got {world_size}")
    if not 0 <= rank < world_size:
        raise ConfigError(
            f"PARSVD_RANK must be in [0, {world_size}), got {rank}"
        )
    address = values["PARSVD_ROOT_ADDR"]
    if rank == 0:
        transport = TcpTransport.listen(world_size, address, deadline)
    else:
        transport = TcpTransport.connect(rank, world_size, address, deadline)
    return RankContext(rank, world_size, transport, deadline)
