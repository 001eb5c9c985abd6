"""Command-line front end.

Subcommands:

    generate    write an analytical Burgers snapshot matrix file
    decompose   factor a matrix file (serial or simulated-parallel)
    rank        run one TCP rank of a parallel decomposition
    compare     check two result directories for equivalence

Settings resolve with the precedence flags > environment > config file >
built-in defaults; the config file uses key=value lines with '#' comments
and flag names (dashes or underscores).

Exit codes: 0 success, 1 configuration error, 2 I/O error, 3 collective
timeout, 4 connection failure.
"""

import argparse
import contextlib
import os
import sys
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .comm import run_simulated, tcp_context_from_env
from .datagen import BurgersConfig, burgers_blocks, partition_bounds
from .dsvd import ApmosConfig, apmos, gather_modes
from .errors import CapacityError, CollectiveTimeout, ConfigError, \
    ConvergenceError, DegenerateModeError, MatrixFormatError, ProtocolError
from .io import BatchSource, read_matrix_header, read_modes_csv, \
    read_singular_values_csv, read_submatrix, write_history_csv, \
    write_matrix_blocks, write_mode_svg, write_modes_csv, \
    write_singular_values_csv
from .linalg import RandomSketchConfig, _available_cpus, \
    _openblas_thread_count, aligned_mode_difference, blas_thread_budget, \
    low_rank_svd, svd_full
from .streaming import StreamConfig, stream_all

MODES = ("serial-batch", "serial-stream", "parallel-batch", "parallel-stream")


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved settings for one decomposition run."""

    mode: str
    input: str
    outdir: str
    k: int = 5
    ff: float = 0.95
    batch: int = 100
    r1: int = 50
    r2: int = 5
    randomized: bool = False
    sketch_rank: Optional[int] = None
    oversampling: int = 10
    power_iters: int = 1
    seed: int = 0
    world_size: int = 1

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {', '.join(MODES)}, got {self.mode!r}")
        for name in ("k", "batch", "r1", "r2", "world_size"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not 0.0 < self.ff <= 1.0:
            raise ConfigError(f"ff must be in (0, 1], got {self.ff}")
        if self.sketch_rank is not None and self.sketch_rank < 1:
            raise ConfigError(f"sketch-rank must be >= 1, got {self.sketch_rank}")
        if self.oversampling < 0:
            raise ConfigError(f"oversampling must be >= 0, got {self.oversampling}")
        if self.power_iters < 0:
            raise ConfigError(f"power-iters must be >= 0, got {self.power_iters}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.mode.startswith("serial") and self.world_size != 1:
            raise ConfigError(
                f"{self.mode} picks its own world size, got {self.world_size}"
            )
        if self.randomized and self.mode.endswith("stream"):
            raise ConfigError(
                f"randomized applies to the batch modes, not {self.mode}"
            )
        if self.mode == "parallel-batch" and self.k > self.r2:
            raise ConfigError(f"k {self.k} exceeds r2 {self.r2}")


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; the contract wants 1.
    def error(self, message):
        raise ConfigError(message)


def _build_parser():
    parser = _Parser(prog="parsvd", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a Burgers snapshot matrix file")
    gen.add_argument("--out", required=True, help="output matrix file")
    gen.add_argument("--grid-points", type=int, default=16384)
    gen.add_argument("--snapshots", type=int, default=800)
    gen.add_argument("--reynolds", type=float, default=1000.0)
    gen.add_argument("--length", type=float, default=1.0)
    gen.add_argument("--t-final", type=float, default=2.0)
    gen.set_defaults(func=_cmd_generate)

    for name, func in (("decompose", _cmd_decompose), ("rank", _cmd_rank)):
        cmd = sub.add_parser(name)
        cmd.add_argument("--input", help="matrix file to factor")
        cmd.add_argument("--outdir", help="directory for result files")
        cmd.add_argument("--mode", choices=MODES)
        cmd.add_argument("--k", type=int)
        cmd.add_argument("--ff", type=float)
        cmd.add_argument("--batch", type=int)
        cmd.add_argument("--r1", type=int)
        cmd.add_argument("--r2", type=int)
        cmd.add_argument("--randomized", action="store_const", const=True)
        cmd.add_argument("--sketch-rank", type=int)
        cmd.add_argument("--oversampling", type=int)
        cmd.add_argument("--power-iters", type=int)
        cmd.add_argument("--seed", type=int)
        cmd.add_argument("--world-size", type=int)
        cmd.add_argument("--config", help="key=value settings file")
        cmd.set_defaults(func=func)

    cmp_ = sub.add_parser("compare", help="compare two result directories")
    cmp_.add_argument("dir_a")
    cmp_.add_argument("dir_b")
    cmp_.add_argument("--threshold", type=float, default=1e-8)
    cmp_.set_defaults(func=_cmd_compare)
    return parser


def _parse_config_file(path):
    values = {}
    try:
        with open(path) as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                key, sep, value = line.partition("=")
                if not sep or not key.strip():
                    raise ConfigError(
                        f"{path}:{lineno}: expected key=value, got {raw.rstrip()!r}"
                    )
                values[key.strip().replace("-", "_")] = value.strip()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return values


def _parse_bool(raw, name):
    low = str(raw).strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"{name} must be a boolean, got {raw!r}")


def _resolve_run_config(args):
    """Merge flags, environment and config file into a RunConfig."""
    file_values = _parse_config_file(args.config) if args.config else {}

    def pick(name, env_name, parse, default):
        flag = getattr(args, name, None)
        if flag is not None:
            return flag
        if env_name:
            raw = os.environ.get(env_name)
            if raw not in (None, ""):
                try:
                    return parse(raw)
                except ConfigError:
                    raise
                except ValueError:
                    raise ConfigError(f"{env_name} has invalid value {raw!r}") from None
        if name in file_values:
            raw = file_values[name]
            try:
                return parse(raw)
            except ConfigError:
                raise
            except ValueError:
                raise ConfigError(f"config key {name} has invalid value {raw!r}") from None
        return default

    mode = pick("mode", None, str, None)
    if mode is None:
        raise ConfigError("mode is required (flag --mode or config file)")
    input_path = pick("input", None, str, None)
    if input_path is None:
        raise ConfigError("input is required (flag --input or config file)")
    outdir = pick("outdir", None, str, None)
    if outdir is None:
        raise ConfigError("outdir is required (flag --outdir or config file)")
    return RunConfig(
        mode=mode,
        input=input_path,
        outdir=outdir,
        k=pick("k", None, int, RunConfig.k),
        ff=pick("ff", None, float, RunConfig.ff),
        batch=pick("batch", None, int, RunConfig.batch),
        r1=pick("r1", None, int, RunConfig.r1),
        r2=pick("r2", None, int, RunConfig.r2),
        randomized=pick("randomized", None,
                        lambda raw: _parse_bool(raw, "randomized"),
                        RunConfig.randomized),
        sketch_rank=pick("sketch_rank", None, int, RunConfig.sketch_rank),
        oversampling=pick("oversampling", None, int, RunConfig.oversampling),
        power_iters=pick("power_iters", None, int, RunConfig.power_iters),
        seed=pick("seed", None, int, RunConfig.seed),
        world_size=pick("world_size", "PARSVD_WORLD_SIZE", int, RunConfig.world_size),
    )


def _sketch_config(cfg, target_default):
    target = cfg.sketch_rank if cfg.sketch_rank is not None else target_default
    if target < target_default:
        raise ConfigError(
            f"sketch-rank {target} is below the {target_default} columns the run keeps"
        )
    return RandomSketchConfig(
        target_rank=target,
        oversampling=cfg.oversampling,
        power_iterations=cfg.power_iters,
        seed=cfg.seed,
    )


def _cmd_generate(args):
    config = BurgersConfig(
        length=args.length,
        t_final=args.t_final,
        reynolds=args.reynolds,
        grid_points=args.grid_points,
        n_snapshots=args.snapshots,
    )
    # each block is written as the pool fills it, so the matrix is never
    # whole in memory and no size cap applies; closing stops the pool when
    # the write fails
    with contextlib.closing(burgers_blocks(config)) as blocks:
        write_matrix_blocks(args.out, (config.grid_points, config.n_snapshots),
                            blocks)
    print(f"wrote {args.grid_points}x{args.snapshots} matrix to {args.out}")
    return 0


def _rank_work(ctx, cfg):
    """The per-rank body of every mode. serial-batch is a world of one
    that factors its block, the whole matrix; serial-stream is
    parallel-stream at the world size `_serial_stream_world` picks. A rank
    reads its block of rows, and the APMOS exchange or the streaming
    update's TSQR and rank sum join the blocks. Identical in a simulated
    world and over TCP: the transport beneath ctx is the same TcpTransport,
    wired through in-process socket pairs or TCP sockets."""
    rows, cols = read_matrix_header(cfg.input)
    if rows == 0 or cols == 0:
        raise ConfigError(f"{cfg.input} holds a {rows}x{cols} matrix, "
                          f"nothing to factor")
    lo, hi = partition_bounds(rows, ctx.world_size)[ctx.rank]
    history = None
    if cfg.mode == "serial-batch":
        if cfg.k > min(rows, cols):
            raise ConfigError(
                f"k {cfg.k} exceeds min(rows, cols) = {min(rows, cols)}"
            )
        block = read_submatrix(cfg.input, lo, hi, 0, cols)
        if cfg.randomized:
            res = low_rank_svd(block, _sketch_config(cfg, cfg.k))
        else:
            res = svd_full(block, want_vt=False)
        modes, values = res.u[:, :cfg.k], res.s[:cfg.k]
    elif cfg.mode == "parallel-batch":
        block = read_submatrix(cfg.input, lo, hi, 0, cols)
        sketch = _sketch_config(cfg, cfg.r2) if cfg.randomized else None
        acfg = ApmosConfig(local_rank=cfg.r1, global_rank=cfg.r2,
                           k_modes=cfg.k, sketch=sketch)
        modes, values, _ = apmos(ctx, block, acfg)
    else:
        scfg = StreamConfig(k_modes=cfg.k, forget_factor=cfg.ff)
        source = BatchSource(cfg.input, cfg.batch, rows=(lo, hi))
        state, history = stream_all(ctx, source, scfg)
        modes, values = state.modes, state.singular_values
    stacked = gather_modes(ctx, modes)
    if ctx.rank != 0:
        return None
    return {
        "modes": stacked,
        "values": values,
        "history": history,
        "rows": rows,
        "cols": cols,
        "world_size": ctx.world_size,
        "bytes_sent": ctx.stats.bytes_sent,
        "bytes_received": ctx.stats.bytes_received,
    }


def _write_outputs(cfg, result):
    os.makedirs(cfg.outdir, exist_ok=True)
    modes = result["modes"]
    grid = np.arange(modes.shape[0], dtype=np.float64)
    write_singular_values_csv(
        os.path.join(cfg.outdir, "singular_values.csv"), result["values"]
    )
    write_modes_csv(os.path.join(cfg.outdir, "modes.csv"), grid, modes)
    write_mode_svg(os.path.join(cfg.outdir, "modes.svg"), grid, modes)
    history = result["history"]
    if history is not None:
        write_history_csv(
            os.path.join(cfg.outdir, "singular_value_history.csv"),
            np.vstack(history),
        )
    lines = [
        f"mode={cfg.mode}",
        f"rows={result['rows']}",
        f"cols={result['cols']}",
        f"k={cfg.k}",
        f"world_size={result['world_size']}",
        f"seed={cfg.seed}",
        f"iterations={len(history) if history is not None else 1}",
        f"rank0_bytes_sent={result['bytes_sent']}",
        f"rank0_bytes_received={result['bytes_received']}",
    ]
    with open(os.path.join(cfg.outdir, "summary.txt"), "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _serial_stream_world(rows):
    """Rank count of a serial-stream run: one single-threaded rank for
    each OpenBLAS thread a world of one would have run, so the smaller of
    the current thread count and the CPU count, and no more ranks than
    rows. 1 when numpy's BLAS is not OpenBLAS.

    The streaming update's tall, skinny QR and products gain little from a
    second BLAS thread, while a second rank halves each rank's rows. The
    parallel TSQR gives the same result at any rank count, to rounding."""
    threads = _openblas_thread_count()
    if threads is None:
        return 1
    return max(1, min(threads, _available_cpus(), rows))


def _cmd_decompose(args):
    """Run one decomposition in this process: `_rank_work` on simulated
    ranks, in every mode. serial-batch is a world of one, which keeps all
    BLAS threads; parallel modes run on the world size asked for (APMOS
    results depend on it); serial-stream on `_serial_stream_world` ranks
    of one BLAS thread each. The matrix file is checked before any rank
    starts. summary.txt records the world size that ran."""
    cfg = _resolve_run_config(args)
    rows, _ = read_matrix_header(cfg.input)
    world_size, budget = cfg.world_size, contextlib.nullcontext()
    if cfg.mode == "serial-stream":
        world_size = _serial_stream_world(rows)
        # inside a budget of one rank per CPU, run_simulated's own
        # budget settles at one BLAS thread per rank
        budget = blas_thread_budget(_available_cpus())
    with budget:
        result = run_simulated(world_size, lambda ctx: _rank_work(ctx, cfg))[0]
    _write_outputs(cfg, result)
    print(f"wrote results for {cfg.mode} to {cfg.outdir}")
    return 0


def _cmd_rank(args):
    cfg = _resolve_run_config(args)
    if cfg.mode not in ("parallel-batch", "parallel-stream"):
        raise ConfigError(f"rank runs parallel modes only, got {cfg.mode}")
    ctx = tcp_context_from_env()
    try:
        if cfg.world_size != 1 and cfg.world_size != ctx.world_size:
            raise ConfigError(
                f"world-size {cfg.world_size} contradicts "
                f"PARSVD_WORLD_SIZE {ctx.world_size}"
            )
        cfg = replace(cfg, world_size=ctx.world_size)
        # The ranks are taken to share this host, as simulated ranks do.
        with blas_thread_budget(ctx.world_size):
            result = _rank_work(ctx, cfg)
            ctx.transport.refuse_unread()
            if ctx.rank == 0:
                _write_outputs(cfg, result)
                print(f"wrote results for {cfg.mode} to {cfg.outdir}")
    finally:
        ctx.transport.close()
    return 0


def _cmd_compare(args):
    grid_a, modes_a = read_modes_csv(os.path.join(args.dir_a, "modes.csv"))
    grid_b, modes_b = read_modes_csv(os.path.join(args.dir_b, "modes.csv"))
    values_a = read_singular_values_csv(
        os.path.join(args.dir_a, "singular_values.csv")
    )
    values_b = read_singular_values_csv(
        os.path.join(args.dir_b, "singular_values.csv")
    )
    if modes_a.shape != modes_b.shape or values_a.shape != values_b.shape:
        print(
            f"shape mismatch: modes {modes_a.shape} vs {modes_b.shape}, "
            f"values {values_a.shape} vs {values_b.shape}"
        )
        return 1
    mode_diff = float(np.max(aligned_mode_difference(modes_a, modes_b)))
    denom = np.maximum(np.maximum(np.abs(values_a), np.abs(values_b)), 1e-300)
    value_diff = float(np.max(np.abs(values_a - values_b) / denom))
    print(f"mode max abs diff (sign-aligned): {mode_diff:.6e}")
    print(f"singular value max rel diff: {value_diff:.6e}")
    if mode_diff <= args.threshold and value_diff <= args.threshold:
        print(f"PASS (threshold {args.threshold:g})")
        return 0
    print(f"FAIL (threshold {args.threshold:g})")
    return 1


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MatrixFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CollectiveTimeout as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ConnectionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except ProtocolError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (CapacityError, DegenerateModeError, ConvergenceError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
