"""Per-layer metrics from the Chrome traces that tracer.py writes.

Usage:

    python perfbench/aggregate.py TRACE.json [TRACE.json ...]

merges the traces (one per rank process for TCP runs) and prints the
per-layer table as JSON. ``run.py`` calls the same functions.

Definitions, all from one decomposition:

* inclusive time is a span's duration; self time is that minus the
  durations of its direct children (children run in the parent's thread,
  one after another, so they never overlap);
* ``*_s`` sums are over every rank, except that ``dsvd.local_factor_s``,
  ``dsvd.apmos_self_s``, ``comm.collective_s`` and ``comm.connect_s`` take
  the slowest rank, because that rank sets the time of the result;
* ``*_ms_p50`` / ``*_ms_p90`` are nearest-rank percentiles of the span
  durations of one call site; the ``dsvd`` ones are taken at rank 0;
* flop, byte and frame counts are computed from argument and result shapes
  (see tracer.py), not measured by hardware counters;
* ``comm.frames`` and ``comm.bytes`` are rank 0's, sent plus received,
  so they can be checked against the CLI's ``summary.txt``.
"""

import json
import sys
from collections import defaultdict

COLLECTIVES = ("comm.send", "comm.recv", "comm.gather", "comm.broadcast")
CODEC = ("comm.encode_matrix", "comm.decode_matrix")
READERS = ("io.read_matrix", "io.read_submatrix", "io.read_matrix_header")
EMITTERS = ("io.write_singular_values_csv", "io.write_modes_csv",
            "io.write_mode_svg", "io.write_history_csv")


def load_traces(paths):
    """Merged complete ('X') events of the traces, and the CommStats each
    rank process held at exit, keyed by rank."""
    events, stats = [], {}
    for path in paths:
        with open(path) as fh:
            doc = json.load(fh)
        events.extend(e for e in doc["traceEvents"] if e["ph"] == "X")
        for rank, value in doc["otherData"]["comm_stats"].items():
            stats[int(rank)] = value
    return events, stats


def percentile(values, q):
    """Nearest-rank percentile; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    index = max(0, min(len(ordered) - 1, -(-q * len(ordered) // 100) - 1))
    return ordered[int(index)]


def _seconds(events):
    return sum(e["dur"] for e in events) / 1e6


def _count(events, key):
    return sum(e["args"].get(key, 0) for e in events)


def _max_over_ranks(events):
    by_rank = defaultdict(float)
    for e in events:
        by_rank[e["pid"]] += e["dur"] / 1e6
    return max(by_rank.values(), default=0.0)


class Trace:
    """Index over merged span events: by name, and children by parent."""

    def __init__(self, events):
        self.events = events
        self.by_name = defaultdict(list)
        self.children = defaultdict(list)
        for e in events:
            self.by_name[e["name"]].append(e)
            if e["args"]["parent"]:
                self.children[(e["pid"], e["args"]["parent"])].append(e)

    def named(self, *names):
        return [e for name in names for e in self.by_name.get(name, ())]

    def kids(self, event):
        return self.children.get((event["pid"], event["args"]["id"]), [])

    def self_seconds(self, event):
        return (event["dur"] - sum(k["dur"] for k in self.kids(event))) / 1e6

    def layer(self, layer):
        return [e for e in self.events if e["cat"] == layer]

    def inside(self, event, names):
        """Seconds spent in `names` spans nested anywhere below `event`."""
        total = 0.0
        for kid in self.kids(event):
            if kid["name"] in names:
                total += kid["dur"] / 1e6
            else:
                total += self.inside(kid, names)
        return total


def setup_metrics(events):
    """datagen and io.write numbers from a traced `parsvd generate`."""
    trace = Trace(events)
    return {
        "datagen.burgers_matrix_s": _seconds(trace.named("datagen.burgers_matrix")),
        "io.write_matrix_s": _seconds(trace.named("io.write_matrix")),
    }


def _rank_imbalance(trace):
    """Slowest over mean per-rank dsvd busy time, comm waits excluded;
    1.0 when the run has a single rank or no dsvd work."""
    spans = trace.layer("dsvd")
    ids = {(e["pid"], e["args"]["id"]) for e in spans}
    busy = defaultdict(float)
    for e in spans:
        if (e["pid"], e["args"]["parent"]) in ids:
            continue  # nested in another dsvd span, already counted
        busy[e["pid"]] += e["dur"] / 1e6 - trace.inside(e, COLLECTIVES)
    if len(busy) < 2:
        return 1.0
    mean = sum(busy.values()) / len(busy)
    return max(busy.values()) / mean if mean > 0 else 1.0


def run_metrics(events):
    """Per-layer numbers of one traced decomposition (all ranks merged)."""
    trace = Trace(events)
    ms = lambda spans: [e["dur"] / 1000.0 for e in spans]
    reads = trace.named(*READERS)
    read_s = _seconds(reads)
    read_mb = _count(reads, "bytes_read") / 1e6
    svd = trace.named("linalg.svd_full")
    qr = trace.named("linalg.qr_factor")
    kernel_s = _seconds(svd) + _seconds(qr)
    gflop = (_count(svd, "flop") + _count(qr, "flop")) / 1e9
    updates = trace.named("streaming.stream_incorporate")
    rescues = sum(max(0, sum(k["name"] == "linalg.qr_factor" for k in trace.kids(u)) - 1)
                  for u in updates)
    root = lambda spans: [e for e in spans if e["pid"] == 0]
    comm_root = root(trace.named(*COLLECTIVES))
    return {
        "io.read_s": read_s,
        "io.read_calls": len(reads),
        "io.read_mb": read_mb,
        "io.read_mb_per_s": read_mb / read_s if read_s > 0 else 0.0,
        "io.emit_s": _seconds(trace.named(*EMITTERS)),
        "linalg.svd_full_s": _seconds(svd),
        "linalg.svd_full_calls": len(svd),
        "linalg.qr_factor_s": _seconds(qr),
        "linalg.qr_factor_calls": len(qr),
        "linalg.gflop": gflop,
        "linalg.gflop_per_s": gflop / kernel_s if kernel_s > 0 else 0.0,
        "streaming.update_ms_p50": percentile(ms(updates), 50),
        "streaming.update_ms_p90": percentile(ms(updates), 90),
        "streaming.self_s": sum(trace.self_seconds(e) for e in trace.layer("streaming")),
        "streaming.rescue_passes": rescues,
        "dsvd.local_factor_s": _max_over_ranks(trace.named("dsvd.generate_right_vectors")),
        "dsvd.apmos_self_s": max(
            [trace.self_seconds(e) for e in trace.named("dsvd.apmos")], default=0.0),
        "dsvd.rank_imbalance": _rank_imbalance(trace),
        "dsvd.update_ms_p50": percentile(
            ms(root(trace.named("dsvd.parallel_stream_incorporate"))), 50),
        "dsvd.update_ms_p90": percentile(
            ms(root(trace.named("dsvd.parallel_stream_incorporate"))), 90),
        "dsvd.tsqr_ms_p50": percentile(ms(root(trace.named("dsvd.parallel_qr"))), 50),
        "comm.frames": _count(comm_root, "frames_sent") + _count(comm_root, "frames_received"),
        "comm.bytes": _count(comm_root, "bytes_sent") + _count(comm_root, "bytes_received"),
        "comm.collective_s": _max_over_ranks(trace.named(*COLLECTIVES)),
        "comm.codec_s": _seconds(trace.named(*CODEC)),
        "comm.connect_s": _max_over_ranks(trace.named("comm.tcp_context_from_env")),
        "comm.errors": sum("error" in e["args"] for e in trace.layer("comm")),
    }


def self_seconds_by_rank(events):
    """{rank: {layer: self seconds}}: where each rank's time went, with no
    span counted twice. Rank -1 is the launcher thread of a simulated world
    (tracer.LAUNCHER_RANK): its comm time is run_simulated waiting for the
    ranks, and its io time is writing the results."""
    trace = Trace(events)
    table = defaultdict(lambda: defaultdict(float))
    for e in events:
        table[e["pid"]][e["cat"]] += trace.self_seconds(e)
    return {rank: dict(layers) for rank, layers in sorted(table.items())}


def rank0_traffic(events):
    """Computed (frames_sent, bytes_sent, frames_received, bytes_received)
    of rank 0, for the cross-check against summary.txt and CommStats."""
    spans = [e for e in Trace(events).named(*COLLECTIVES) if e["pid"] == 0]
    return tuple(_count(spans, key) for key in
                 ("frames_sent", "bytes_sent", "frames_received", "bytes_received"))


if __name__ == "__main__":
    print(json.dumps(run_metrics(load_traces(sys.argv[1:])[0]), indent=2))
