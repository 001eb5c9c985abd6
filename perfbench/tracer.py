"""Outside-in span tracer for the parsvd command line.

Usage:

    python perfbench/tracer.py TRACE.json <parsvd arguments...>

runs ``parsvd.cli.main(<parsvd arguments>)`` in this process after swapping
every public function in the namespace of each ``parsvd.*`` module for a
timing wrapper, then writes the spans as Chrome trace-event JSON to
TRACE.json (load it in chrome://tracing or Perfetto). The package itself is
not modified; this is how the benchmark gets per-layer numbers before the
package has spans of its own.

Each span records its name (``<module>.<function>``), its rank, start and
end, its parent span and, for a few calls, counts computed from argument
and result shapes: LAPACK flops for ``qr_factor`` and ``svd_full``, bytes
read by the ``io`` readers, and frames and bytes at the calling rank for
the ``comm`` collectives. Spans are kept in memory and written once, when
the command returns. The exit code is the command's.

A span's rank is that of the ``RankContext`` its thread handles. Threads
that never see one take ``PARSVD_RANK`` (default 0), except when other
threads of the process do: then they are the launcher of a simulated
world, not a rank, and get LAUNCHER_RANK. Timestamps are
``time.perf_counter_ns`` (CLOCK_MONOTONIC on Linux) in microseconds, so
traces of several rank processes on one machine share a time axis.
"""

import dataclasses
import functools
import inspect
import itertools
import json
import os
import sys
import threading
import time

import numpy as np

from parsvd import cli, comm, datagen, dsvd, io, linalg, streaming

MODULES = (linalg, streaming, comm, dsvd, datagen, io, cli)

# 12-byte frame header + 16-byte matrix header, as CommStats counts them.
FRAME_OVERHEAD = comm.FRAME_HEADER.size + comm.MATRIX_HEADER.size
FILE_HEADER_BYTES = io.FILE_HEADER.size
LAUNCHER_RANK = -1


def qr_flops(m, n):
    """Householder QR plus forming the reduced Q (LAPACK geqrf + orgqr)."""
    if m >= n:
        return 4 * m * n * n - 4 * n ** 3 / 3
    return 2 * n * m * m + 2 * m ** 3 / 3


def svd_flops(m, n):
    """Thin SVD with both singular vector sets (Golub & Van Loan R-SVD)."""
    m, n = max(m, n), min(m, n)
    return 4 * m * n * n + 22 * n ** 3


def _frame_bytes(value):
    return FRAME_OVERHEAD + 8 * int(np.size(value))


def _count_qr(bound, result):
    m, n = np.shape(bound["a"])
    return {"flop": qr_flops(m, n)}


def _count_svd(bound, result):
    m, n = np.shape(bound["a"])
    return {"flop": svd_flops(m, n)}


def _count_read(bound, result):
    return {"bytes_read": FILE_HEADER_BYTES + 8 * int(result.size)}


def _count_header(bound, result):
    return {"bytes_read": FILE_HEADER_BYTES}


def _count_send(bound, result):
    return {"frames_sent": 1, "bytes_sent": _frame_bytes(bound["value"])}


def _count_recv(bound, result):
    return {"frames_received": 1, "bytes_received": _frame_bytes(result)}


def _count_gather(bound, result):
    ctx, root = bound["ctx"], bound["root"]
    if ctx.rank != root:
        return {"frames_sent": 1, "bytes_sent": _frame_bytes(bound["local"])}
    parts = [p for rank, p in enumerate(result) if rank != root]
    return {"frames_received": len(parts),
            "bytes_received": sum(_frame_bytes(p) for p in parts)}


def _count_broadcast(bound, result):
    ctx, root = bound["ctx"], bound["root"]
    if ctx.rank == root:
        peers = ctx.world_size - 1
        return {"frames_sent": peers,
                "bytes_sent": peers * _frame_bytes(bound["value"])}
    return {"frames_received": 1, "bytes_received": _frame_bytes(result)}


COUNTERS = {
    "linalg.qr_factor": _count_qr,
    "linalg.svd_full": _count_svd,
    "io.read_matrix": _count_read,
    "io.read_submatrix": _count_read,
    "io.read_matrix_header": _count_header,
    "comm.send": _count_send,
    "comm.recv": _count_recv,
    "comm.gather": _count_gather,
    "comm.broadcast": _count_broadcast,
}


class Tracer:
    """Collects spans from wrapped functions in every thread."""

    def __init__(self, default_rank):
        self.default_rank = default_rank
        self.spans = []
        self.thread_rank = {}
        self.contexts = {}
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _note_context(self, value):
        if isinstance(value, comm.RankContext):
            self.thread_rank[threading.get_ident()] = value.rank
            self.contexts[value.rank] = value

    def wrap(self, fn):
        layer = fn.__module__.rsplit(".", 1)[-1]
        name = f"{layer}.{fn.__name__}"
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._local.__dict__.setdefault("stack", [])
            for value in itertools.chain(args, kwargs.values()):
                tracer._note_context(value)
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            result = None
            error = None
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                tracer._note_context(result)
                extra = {}
                if counter is not None and error is None:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    extra = counter(bound.arguments, result)
                if error is not None:
                    extra["error"] = error
                tracer.spans.append((name, layer, threading.get_ident(),
                                     start, end, span_id, parent, extra))

        return traced

    def install(self):
        """Swap the public functions of every parsvd module, wherever they
        are bound, for one shared wrapper per function."""
        wrappers = {}
        for module in MODULES:
            for attr, value in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(value)
                        or not value.__module__.startswith("parsvd.")
                        or inspect.isgeneratorfunction(value)):
                    continue
                if value not in wrappers:
                    wrappers[value] = self.wrap(value)
                setattr(module, attr, wrappers[value])

    def events(self):
        """The spans as Chrome trace events, one process row per rank."""
        out = []
        ranks = set()
        idle_rank = LAUNCHER_RANK if self.thread_rank else self.default_rank
        for name, layer, tid, start, end, span_id, parent, extra in self.spans:
            rank = self.thread_rank.get(tid, idle_rank)
            ranks.add(rank)
            out.append({
                "name": name, "cat": layer, "ph": "X",
                "ts": start / 1000.0, "dur": (end - start) / 1000.0,
                "pid": rank, "tid": tid,
                "args": {"id": span_id, "parent": parent, "rank": rank, **extra},
            })
        for rank in sorted(ranks):
            label = "launcher" if rank == LAUNCHER_RANK else f"rank {rank}"
            out.append({"name": "process_name", "ph": "M", "pid": rank,
                        "args": {"name": label}})
        return out

    def write(self, path, argv, exit_code):
        doc = {
            "traceEvents": self.events(),
            "displayTimeUnit": "ms",
            "otherData": {
                "argv": argv,
                "exit_code": exit_code,
                "os_pid": os.getpid(),
                "comm_stats": {str(rank): dataclasses.asdict(ctx.stats)
                               for rank, ctx in self.contexts.items()},
            },
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)


def main(argv):
    if len(argv) < 2:
        print("usage: tracer.py TRACE.json <parsvd arguments...>", file=sys.stderr)
        return 1
    path, cli_args = argv[0], argv[1:]
    tracer = Tracer(int(os.environ.get("PARSVD_RANK") or 0))
    tracer.install()
    code = 1
    try:
        code = cli.main(cli_args)
    finally:
        tracer.write(path, cli_args, code)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
