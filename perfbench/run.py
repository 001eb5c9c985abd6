#!/usr/bin/env python3
"""Benchmark of the parsvd command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a parsvd checkout: it runs the package from
``src/`` there and keeps its working files in ``.perfbench/``. The last line
of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. A full record with the
machine, the settings and every repetition goes to
``.perfbench/results/<workload>-seed<N>-trace<T>.json``.

Input. Every workload factors the analytical Burgers snapshot matrix at
16384 x 800, written by ``parsvd generate``. Seed 0 is the paper default,
Reynolds number 1000; any other seed draws it uniformly from [999, 1001].
The range is narrow on purpose: the APMOS truncation error grows about
1.7 % per unit of Reynolds number, and the seed must move the accuracy
metrics by much less than their bound. A dense SVD of the same file, computed
once per run and not timed, is the accuracy reference.

``--trace 0`` times the real CLI in subprocesses, with no tracing, and
prints the end-to-end metrics:

* ``setup_s``: median wall time of three ``parsvd generate`` runs;
* ``wall_s``: median wall time of one decomposition, from launch until
  every rank process has exited, repeated for ``--seconds`` (at least 3)
  after one untimed warm-up;
* ``cpu_s``: median user + sys CPU seconds of the rank processes;
* ``sigma_rel_err``, ``mode_err``: largest relative error of the K
  singular values and largest sign-aligned error of the K modes against
  the dense reference (median over repetitions; they repeat exactly);
* ``success_frac``: repetitions that exited 0 on every rank and passed the
  output check, over repetitions attempted.

``--trace 1`` runs the same decompositions under ``tracer.py`` (in every
rank process), alternating with untraced ones, and prints the per-layer
metrics that ``aggregate.py`` derives from the traces, plus:

* ``cli.startup_s``: median wall time of ``python -m parsvd --help``;
* ``cli.single_thread_wall_s``: the same problem at world size 1 with one
  BLAS thread;
* ``trace.overhead_s``: median traced minus median untraced ``wall_s``;
* ``mem.peak_rss_mb``: the largest peak RSS of any rank process over the
  untraced repetitions, the warm-up included: the memory a user must
  provide. It is a per-layer number, without a bound, because it does not
  repeat on ``apmos-sim``: the two rank threads' big temporaries overlap
  by chance, so one repetition peaks anywhere from 380 to 490 MB, and
  neither the median nor the largest of six repetitions repeats within
  10 % from run to run. On the other workloads it repeats within 0.3 %.

The output check of every repetition requires exit code 0 on every rank;
K finite, positive, non-increasing singular values; modes orthonormal to
1e-8; and both errors within the workload's tolerance. ``stream-tcp`` must
also pass ``parsvd compare`` against a simulated run of the same workload.
Traced runs also require result files byte-identical to the untraced run
before them, rank 0's computed traffic equal to ``summary.txt`` and to the
program's own ``CommStats``, and ``linalg.gflop`` equal on every traced
repetition.
"""

import argparse
import json
import os
import platform
import random
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import aggregate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
TRACER = HERE / "tracer.py"
CHECKER = HERE / "check.py"
SPEC = ROOT / "BENCHMARK.json"

SHAPE = (16384, 800)
REYNOLDS = 1000.0
REYNOLDS_HALF_WIDTH = 1.0
K = 5
SETUP_REPS = 3
STARTUP_REPS = 3
MIN_REPS = 3
MIN_TRACED_PAIRS = 2
COMPARE_THRESHOLD = 1e-8
PROCESS_TIMEOUT = 90.0
# No new repetition starts after REP_CUTOFF seconds, and every process is
# killed RUN_LIMIT seconds after the benchmark started at the latest, so a
# run ends inside three minutes even if the program slows down or hangs.
REP_CUTOFF = 110.0
RUN_LIMIT = 170.0

COMMON = ("--k", str(K), "--ff", "1.0")


@dataclass(frozen=True)
class Workload:
    """command: 'decompose' (one process) or 'rank' (one TCP process per
    rank). blas_threads 0 means one per available CPU. baseline_args is the
    world-size-1 form of the problem, run with one BLAS thread."""

    command: str
    args: tuple
    blas_threads: int
    ranks: int
    baseline_args: tuple
    tolerance: float


WORKLOADS = {
    # APMOS at its exact-enough setting: the gate is 1e-8, measured errors
    # are near 2e-11 at Re 1000.
    "apmos-sim": Workload(
        command="decompose",
        args=("--mode", "parallel-batch", "--world-size", "2",
              "--r1", "50", "--r2", "5") + COMMON,
        blas_threads=0,
        ranks=1,
        baseline_args=("--mode", "parallel-batch", "--world-size", "1",
                       "--r1", "50", "--r2", "5") + COMMON,
        tolerance=1e-8,
    ),
    # Streaming truncates to K after every batch; its error against the
    # one-shot SVD is the known streaming-equivalence gap (2.6e-2 here), so
    # the tolerance is a sanity bound, not an accuracy gate.
    "stream-serial": Workload(
        command="decompose",
        args=("--mode", "serial-stream", "--batch", "100") + COMMON,
        blas_threads=0,
        ranks=1,
        baseline_args=("--mode", "serial-stream", "--batch", "100") + COMMON,
        tolerance=0.2,
    ),
    # One BLAS thread per rank process, as an MPI launcher would set it;
    # with default threads the run time varied by 5x between runs.
    "stream-tcp": Workload(
        command="rank",
        args=("--mode", "parallel-stream", "--batch", "10") + COMMON,
        blas_threads=1,
        ranks=2,
        baseline_args=("--mode", "parallel-stream", "--world-size", "1",
                       "--batch", "10") + COMMON,
        tolerance=0.2,
    ),
}


class BenchError(Exception):
    """The benchmark cannot run here or cannot set up its input."""


def reynolds(seed):
    if seed == 0:
        return REYNOLDS
    return random.Random(seed).uniform(REYNOLDS - REYNOLDS_HALF_WIDTH,
                                       REYNOLDS + REYNOLDS_HALF_WIDTH)


def nproc():
    return len(os.sched_getaffinity(0))


def blas_threads(workload):
    return workload.blas_threads or nproc()


# ---------------------------------------------------------------- processes

@dataclass
class Launch:
    """Wall time from the first launch to the last exit, CPU seconds and
    largest peak RSS of the processes, and their exit codes."""

    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    codes: list
    logs: list


def child_env(threads, extra=None):
    env = {k: v for k, v in os.environ.items() if not k.startswith("PARSVD_")}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["OPENBLAS_NUM_THREADS"] = str(threads)
    env["OMP_NUM_THREADS"] = str(threads)
    env.update(extra or {})
    return env


def process_timeout(limit):
    """Seconds a process may run: PROCESS_TIMEOUT, cut short at the
    perf_counter time `limit` when one is given."""
    if limit is None:
        return PROCESS_TIMEOUT
    return max(1.0, min(PROCESS_TIMEOUT, limit - time.perf_counter()))


def launch(commands, envs, log_dir, limit=None):
    """Start every command at once and reap each with wait4, which gives
    its own resource usage. A timer kills the processes still running after
    process_timeout(limit); they then count as failed. Waiting blocks, so
    the benchmark takes no CPU from the processes it times."""
    logs = [log_dir / f"proc{i}.log" for i in range(len(commands))]
    handles = [open(path, "wb") for path in logs]
    procs, usage = [], []
    lock = threading.Lock()

    def kill_unreaped():
        with lock:
            for proc in procs:
                if proc.returncode is None:
                    proc.kill()

    timer = threading.Timer(process_timeout(limit), kill_unreaped)
    try:
        start = time.perf_counter()
        for cmd, env, fh in zip(commands, envs, handles):
            procs.append(subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=fh,
                                          stderr=subprocess.STDOUT))
        timer.start()
        for proc in procs:
            # Wait without reaping, then reap under the lock, so the timer
            # never signals a process id that was already released.
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            with lock:
                _, status, ru = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
            usage.append(ru)
        wall = time.perf_counter() - start
    finally:
        timer.cancel()
        for proc in procs:
            if proc.returncode is None:
                proc.kill()
                proc.wait()
        for fh in handles:
            fh.close()
    return Launch(
        wall_s=wall,
        cpu_s=sum(ru.ru_utime + ru.ru_stime for ru in usage),
        peak_rss_mb=max(ru.ru_maxrss for ru in usage) * 1024 / 1e6,
        codes=[p.returncode for p in procs],
        logs=logs,
    )


def cli_command(args, trace_path=None):
    if trace_path is None:
        return [sys.executable, "-m", "parsvd", *args]
    return [sys.executable, str(TRACER), str(trace_path), *args]


def free_port():
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def decompose(workload, input_path, outdir, trace_dir=None, limit=None):
    """One decomposition of `workload`; returns (Launch, trace paths)."""
    shutil.rmtree(outdir, ignore_errors=True)
    threads = blas_threads(workload)
    io_args = ("--input", str(input_path), "--outdir", str(outdir))
    if workload.command == "decompose":
        trace = None if trace_dir is None else trace_dir / "rank0.json"
        commands = [cli_command(("decompose",) + io_args + workload.args, trace)]
        envs = [child_env(threads)]
        traces = [trace]
    else:
        address = f"127.0.0.1:{free_port()}"
        traces = [None if trace_dir is None else trace_dir / f"rank{r}.json"
                  for r in range(workload.ranks)]
        commands = [cli_command(("rank",) + io_args + workload.args, t)
                    for t in traces]
        envs = [child_env(threads, {"PARSVD_WORLD_SIZE": str(workload.ranks),
                                    "PARSVD_RANK": str(rank),
                                    "PARSVD_ROOT_ADDR": address})
                for rank in range(workload.ranks)]
    run = launch(commands, envs, outdir.parent, limit)
    return run, [t for t in traces if t is not None]


def run_cli(args, log_dir, threads, trace_path=None, limit=None):
    return launch([cli_command(args, trace_path)], [child_env(threads)], log_dir,
                  limit)


def log_tail(run):
    out = []
    for path in run.logs:
        try:
            lines = path.read_text(errors="replace").splitlines()[-5:]
        except OSError:
            continue
        out.extend(lines)
    return " | ".join(out)


# ------------------------------------------------------------------ checks

def checker(args, threads=1, limit=None):
    """Run check.py; its parsed JSON output, or None for no output."""
    try:
        proc = subprocess.run([sys.executable, str(CHECKER), *map(str, args)],
                              env=child_env(threads), cwd=ROOT, capture_output=True,
                              text=True, timeout=process_timeout(limit))
    except subprocess.TimeoutExpired:
        raise BenchError(f"check.py {args[0]} timed out") from None
    if proc.returncode != 0:
        raise BenchError(f"check.py {args[0]} failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout) if proc.stdout.strip() else None


def read_summary(outdir):
    text = (outdir / "summary.txt").read_text()
    return dict(line.split("=", 1) for line in text.splitlines() if "=" in line)


def check_outputs(run, outdir, reference, tolerance, limit):
    """Problems found in one repetition, and its two errors (None when the
    result files cannot be read)."""
    if any(code != 0 for code in run.codes):
        return [f"exit codes {run.codes}: {log_tail(run)}"], None, None
    out = checker(("result", outdir, reference, repr(tolerance)), limit=limit)
    return out["problems"], out.get("sigma_err"), out.get("mode_err")


def check_transport(outdir, sim_dir, log_dir, limit):
    """stream-tcp against the simulated run: `parsvd compare` must pass."""
    run = run_cli(("compare", str(sim_dir), str(outdir),
                   "--threshold", str(COMPARE_THRESHOLD)), log_dir, 1, limit=limit)
    if run.codes != [0]:
        return [f"parsvd compare against the simulated run failed: {log_tail(run)}"]
    return []


TRAFFIC_KEYS = ("frames_sent", "bytes_sent", "frames_received", "bytes_received")


def check_traffic(traffic):
    """Rank 0's traffic computed from shapes must equal summary.txt and the
    CommStats the rank held at exit (absent when no rank context exists)."""
    computed, summary, stats = (traffic[k] for k in
                                ("computed", "summary_txt", "comm_stats"))
    problems = []
    if (summary["rank0_bytes_sent"], summary["rank0_bytes_received"]) \
            != (computed["bytes_sent"], computed["bytes_received"]):
        problems.append(f"computed rank-0 bytes {computed} differ from "
                        f"summary.txt {summary}")
    if stats is not None and {k: stats[k] for k in TRAFFIC_KEYS} != computed:
        problems.append(f"computed rank-0 traffic {computed} differs from "
                        f"CommStats {stats}")
    return problems


def same_files(dir_a, dir_b):
    names = sorted(p.name for p in dir_a.iterdir())
    if names != sorted(p.name for p in dir_b.iterdir()):
        return False
    return all((dir_a / n).read_bytes() == (dir_b / n).read_bytes() for n in names)


# -------------------------------------------------------------- the run

@dataclass
class Rep:
    run: Launch
    problems: list
    sigma_err: float = None
    mode_err: float = None
    layers: dict = field(default_factory=dict)
    self_s_by_rank: dict = field(default_factory=dict)
    traffic: dict = field(default_factory=dict)


class Bench:
    def __init__(self, name, seed, seconds, shape=SHAPE):
        self.name = name
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.seconds = seconds
        self.shape = shape
        self.reynolds = reynolds(seed)
        self.dir = WORK / f"run-{name}-{seed}-{os.getpid()}"
        self.input = self.dir / "burgers.bin"
        self.reference = None
        self.sim_dir = None
        self.started = time.perf_counter()
        self.limit = self.started + RUN_LIMIT

    def generate(self, trace_path=None):
        args = ("generate", "--out", str(self.input),
                "--grid-points", str(self.shape[0]),
                "--snapshots", str(self.shape[1]),
                "--reynolds", repr(self.reynolds))
        run = run_cli(args, self.dir, nproc(), trace_path, self.limit)
        if run.codes != [0]:
            raise BenchError(f"parsvd generate failed: {log_tail(run)}")
        return run.wall_s

    def prepare(self):
        """Reference, for TCP the simulated run to compare against, and one
        checked but untimed warm-up repetition, which is returned: the first
        decomposition after set-up runs about 5 % slower than the rest."""
        self.reference = self.dir / "reference.npz"
        checker(("reference", self.input, self.reference, K), nproc(), self.limit)
        if self.workload.command == "rank":
            self.sim_dir = self.dir / "simulated"
            args = ("decompose", "--input", str(self.input),
                    "--outdir", str(self.sim_dir), *self.workload.args,
                    "--world-size", str(self.workload.ranks))
            run = run_cli(args, self.dir, blas_threads(self.workload), limit=self.limit)
            if run.codes != [0]:
                raise BenchError(f"simulated reference run failed: {log_tail(run)}")
        return self.rep(self.dir / "warm-up")

    def rep(self, outdir, trace_dir=None):
        run, traces = decompose(self.workload, self.input, outdir, trace_dir, self.limit)
        problems, sigma_err, mode_err = check_outputs(
            run, outdir, self.reference, self.workload.tolerance, self.limit)
        if not problems and self.sim_dir is not None:
            problems += check_transport(outdir, self.sim_dir, self.dir, self.limit)
        rep = Rep(run, problems, sigma_err, mode_err)
        if traces and not problems:
            events, comm_stats = aggregate.load_traces(traces)
            rep.layers = aggregate.run_metrics(events)
            rep.self_s_by_rank = aggregate.self_seconds_by_rank(events)
            rep.traffic = {
                "computed": dict(zip(TRAFFIC_KEYS, aggregate.rank0_traffic(events))),
                "summary_txt": {k: int(v) for k, v in read_summary(outdir).items()
                                if k.startswith("rank0_bytes_")},
                "comm_stats": comm_stats.get(0),
            }
            rep.problems += check_traffic(rep.traffic)
        return rep

    def time_left(self, loop_start, done, minimum):
        elapsed = time.perf_counter() - self.started
        if done < minimum:
            return elapsed < REP_CUTOFF
        return time.perf_counter() - loop_start < self.seconds and elapsed < REP_CUTOFF

    def run_untraced(self):
        setup = [self.generate() for _ in range(SETUP_REPS)]
        warm_up = self.prepare()
        reps = []
        loop_start = time.perf_counter()
        while self.time_left(loop_start, len(reps), MIN_REPS):
            reps.append(self.rep(self.dir / "out"))
        if not reps:
            raise BenchError(f"set-up took more than {REP_CUTOFF:g} s")
        # A run none of whose repetitions left readable results reports
        # the largest error, 1.0; it is then not correct anyway.
        errs = [r for r in reps if r.sigma_err is not None]
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(r.run.wall_s for r in reps),
            "cpu_s": statistics.median(r.run.cpu_s for r in reps),
            "sigma_rel_err": statistics.median([r.sigma_err for r in errs] or [1.0]),
            "mode_err": statistics.median([r.mode_err for r in errs] or [1.0]),
            "success_frac": sum(not r.problems for r in reps) / len(reps),
        }
        detail = {"setup_s": setup, "cpu_s": [r.run.cpu_s for r in reps]}
        return [warm_up] + reps, metrics, detail

    def run_traced(self):
        trace_dir = self.dir / "trace"
        trace_dir.mkdir()
        gen_trace = trace_dir / "generate.json"
        self.generate(gen_trace)
        metrics = aggregate.setup_metrics(aggregate.load_traces([gen_trace])[0])
        warm_up = self.prepare()
        probe = [run_cli(("--help",), self.dir, nproc(), limit=self.limit)
                 for _ in range(STARTUP_REPS)]
        plain, traced = [], []
        loop_start = time.perf_counter()
        while self.time_left(loop_start, len(traced), MIN_TRACED_PAIRS):
            plain.append(self.rep(self.dir / "out-plain"))
            traced.append(self.rep(self.dir / "out-traced", trace_dir))
            if not (plain[-1].problems or traced[-1].problems) and not same_files(
                    self.dir / "out-plain", self.dir / "out-traced"):
                traced[-1].problems.append("traced and untraced result files differ")
        if not traced:
            raise BenchError(f"set-up took more than {REP_CUTOFF:g} s")
        gflops = {r.layers["linalg.gflop"] for r in traced if r.layers}
        if len(gflops) > 1:
            traced[-1].problems.append(f"linalg.gflop differs between runs: {gflops}")
        baseline = run_cli(("decompose", "--input", str(self.input),
                            "--outdir", str(self.dir / "out-baseline"),
                            *self.workload.baseline_args), self.dir, 1,
                           limit=self.limit)
        if baseline.codes != [0]:
            traced[-1].problems.append(f"single-thread baseline failed: {log_tail(baseline)}")
        measured = [r.layers for r in traced if r.layers]
        if not measured:
            raise BenchError("no traced repetition passed its checks: "
                             + "; ".join(p for r in traced for p in r.problems))
        for key in measured[0]:
            metrics[key] = statistics.median(layers[key] for layers in measured)
        plain_wall = statistics.median(r.run.wall_s for r in plain)
        traced_wall = statistics.median(r.run.wall_s for r in traced)
        metrics["cli.startup_s"] = statistics.median(p.wall_s for p in probe)
        metrics["cli.single_thread_wall_s"] = baseline.wall_s
        metrics["trace.overhead_s"] = traced_wall - plain_wall
        metrics["mem.peak_rss_mb"] = max(r.run.peak_rss_mb for r in [warm_up] + plain)
        keep = WORK / "results" / f"{self.name}-seed{self.seed}.trace.json"
        merge_traces(sorted(trace_dir.glob("rank*.json")), keep)
        detail = {"untraced_wall_s": [r.run.wall_s for r in plain],
                  "traced_wall_s": [r.run.wall_s for r in traced],
                  "rank0_traffic": traced[-1].traffic,
                  "self_s_by_rank": traced[-1].self_s_by_rank,
                  "trace_file": str(keep.relative_to(ROOT))}
        return [warm_up] + plain + traced, metrics, detail


def merge_traces(paths, out):
    """One Chrome trace from the per-rank traces of the last repetition,
    readable by aggregate.load_traces like the per-rank ones."""
    events, stats, processes = [], {}, []
    for path in paths:
        with open(path) as fh:
            doc = json.load(fh)
        events.extend(doc["traceEvents"])
        stats.update(doc["otherData"]["comm_stats"])
        processes.append(doc["otherData"])
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms",
                   "otherData": {"comm_stats": stats, "processes": processes}}, fh)


# ------------------------------------------------------------- reporting

def machine():
    info = {
        "nproc": os.cpu_count(),
        "affinity_cpus": nproc(),
        "cpu_model": None,
        "caches": [],
        "python": platform.python_version(),
        "platform": platform.platform(),
        **checker(("versions",)),
    }
    try:
        with open("/proc/cpuinfo") as fh:
            info["cpu_model"] = next(
                (line.split(":", 1)[1].strip() for line in fh
                 if line.startswith("model name")), None)
    except OSError:
        pass
    cache_root = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache_root.glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip()
                                 for f in ("level", "type", "size"))
        except OSError:
            continue
        info["caches"].append(f"L{level} {kind} {size}")
    return info


def run(name, seed, seconds, trace, shape=SHAPE):
    """Run one workload; returns (result line, full record)."""
    if not (SRC / "parsvd" / "cli.py").is_file():
        raise BenchError(f"no parsvd sources under {SRC}; run from the root of a "
                         f"parsvd checkout")
    spec = json.loads(SPEC.read_text())
    wanted = spec["per_layer" if trace else "end_to_end"]
    bench = Bench(name, seed, seconds, shape)
    bench.dir.mkdir(parents=True, exist_ok=True)
    try:
        reps, metrics, detail = bench.run_traced() if trace else bench.run_untraced()
    finally:
        shutil.rmtree(bench.dir, ignore_errors=True)
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise BenchError(f"benchmark computed no value for {missing}")
    failed = sum(bool(r.problems) for r in reps)
    line = {
        "correct": failed == 0,
        "attempted": len(reps),
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    record = {
        "workload": name,
        "why": next((w["why"] for w in spec["workloads"] if w["name"] == name), None),
        "seed": seed,
        "reynolds": bench.reynolds,
        "shape": list(shape),
        "seconds": seconds,
        "trace": trace,
        "cli_args": [bench.workload.command, *bench.workload.args],
        "blas_threads": {w: blas_threads(WORKLOADS[w]) for w in WORKLOADS},
        "machine": machine(),
        "result": line,
        "problems": [p for r in reps for p in r.problems],
        "rep_wall_s": [r.run.wall_s for r in reps],  # warm-up first
        **detail,
    }
    return line, record


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so the finally blocks stop the children.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose one of {', '.join(WORKLOADS)}")
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be non-negative")
    try:
        line, record = run(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    out = WORK / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=2) + "\n")
    for key, metric in line["metrics"].items():
        print(f"{key:28s} {metric['value']:14.6g} {metric['unit']}")
    for problem in record["problems"]:
        print(f"problem: {problem}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
