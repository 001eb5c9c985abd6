"""Command-line front end.

Subcommands:

    generate    write an analytical Burgers snapshot matrix file
    decompose   factor a matrix file (serial or simulated-parallel)
    rank        run one TCP rank of a parallel decomposition
    compare     check two result directories for equivalence

Each field of `RunConfig` is a setting of `decompose` and `rank`: a flag
and a config-file key of its name (dashes or underscores; a key that names
no field is refused). A bool field's flag comes with a `--no-` form.
Precedence: flag > PARSVD_WORLD_SIZE (the parallel modes' world size only)
> config file > the field's default.

Exit codes: 0 success, 1 configuration error, 2 I/O error, 3 collective
timeout, 4 connection failure, 5 out of memory (one line naming the mode
and the matrix shape).
"""

import argparse
import contextlib
import os
import sys
from dataclasses import MISSING, dataclass, field, fields, replace
from typing import Optional

import numpy as np

from .comm import run_simulated, tcp_context_from_env
from .datagen import BurgersConfig, burgers_blocks, partition_bounds
from .dsvd import ApmosConfig, apmos, gather_modes
from .errors import CollectiveTimeout, ConfigError, ConvergenceError, \
    DegenerateModeError, MatrixFormatError, ProtocolError
from .io import BatchSource, read_matrix_header, read_modes_csv, \
    read_singular_values_csv, read_submatrix, write_history_csv, \
    write_matrix_blocks, write_mode_svg, write_modes_csv, \
    write_singular_values_csv
from .linalg import RandomSketchConfig, _available_cpus, \
    _openblas_thread_count, aligned_mode_difference, blas_thread_budget, \
    low_rank_svd
from .streaming import StreamConfig, stream_all

MODES = ("serial-batch", "serial-stream", "parallel-batch", "parallel-stream")


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved settings for one decomposition run. Each field is a
    flag and a config-file key (`_build_parser`, `_resolve_run_config`)."""

    input: str = field(metadata={"help": "matrix file to factor"})
    outdir: str = field(metadata={"help": "directory for result files"})
    mode: str
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
    # no defaults here: _cmd_generate leaves a flag not given to BurgersConfig
    gen.add_argument("--grid-points", type=int)
    gen.add_argument("--snapshots", type=int, dest="n_snapshots", metavar="SNAPSHOTS")
    gen.add_argument("--reynolds", type=float)
    gen.add_argument("--length", type=float)
    gen.add_argument("--t-final", type=float)
    gen.set_defaults(func=_cmd_generate)

    for name, func in (("decompose", _cmd_decompose), ("rank", _cmd_rank)):
        cmd = sub.add_parser(name)
        for f in fields(RunConfig):
            flag = "--" + f.name.replace("_", "-")
            if f.type is bool:
                cmd.add_argument(flag, action=argparse.BooleanOptionalAction)
            else:
                cmd.add_argument(flag, type=_PARSERS.get(f.type, f.type),
                                 choices=MODES if f.name == "mode" else None,
                                 help=f.metadata.get("help"))
        cmd.add_argument("--config", help="key=value settings file")
        cmd.set_defaults(func=func)

    cmp_ = sub.add_parser("compare", help="compare two result directories")
    cmp_.add_argument("dir_a")
    cmp_.add_argument("dir_b")
    cmp_.add_argument("--threshold", type=float, default=1e-8)
    cmp_.set_defaults(func=_cmd_compare)
    return parser


def _parse_config_file(path):
    names = {f.name for f in fields(RunConfig)}
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
                name = key.strip().replace("-", "_")
                if name not in names:
                    raise ConfigError(f"{path}:{lineno}: {key.strip()!r} names no setting")
                values[name] = value.strip()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return values


def _parse_bool(raw):
    low = raw.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(raw)


# how a field's type parses a flag, variable or config value (others: the type)
_PARSERS = {bool: _parse_bool, Optional[int]: int}


def _resolve_run_config(args):
    """Fill each RunConfig field from its flag, else PARSVD_WORLD_SIZE (the
    world size of a parallel mode only, since the serial modes pick their
    own), else its config-file key, else its default."""
    file_values = _parse_config_file(args.config) if args.config else {}
    env_world = os.environ.get("PARSVD_WORLD_SIZE")
    values = {}
    for f in fields(RunConfig):  # mode before world_size, which reads it
        if getattr(args, f.name) is not None:
            values[f.name] = getattr(args, f.name)
            continue
        if (f.name == "world_size" and env_world
                and values["mode"].startswith("parallel")):
            raw, source = env_world, "PARSVD_WORLD_SIZE"
        elif f.name in file_values:
            raw, source = file_values[f.name], f"config key {f.name}"
        elif f.default is not MISSING:
            values[f.name] = f.default
            continue
        else:
            raise ConfigError(f"{f.name} is required (flag --{f.name} or config file)")
        try:
            values[f.name] = _PARSERS.get(f.type, f.type)(raw)
        except ValueError:
            raise ConfigError(f"{source} has invalid value {raw!r}") from None
    return RunConfig(**values)


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
    config = BurgersConfig(**{f.name: getattr(args, f.name)
                              for f in fields(BurgersConfig)
                              if getattr(args, f.name) is not None})
    # each block is written as it is filled, so the matrix is never whole
    # in memory and no size cap applies
    write_matrix_blocks(args.out, (config.grid_points, config.n_snapshots),
                        burgers_blocks(config))
    print(f"wrote {config.grid_points}x{config.n_snapshots} matrix to {args.out}")
    return 0


def _rank_work(ctx, cfg):
    """The per-rank body of every mode. serial-batch is a world of one
    that streams one batch of all columns (Chan's R-SVD: QR, SVD of R,
    lift), or runs low_rank_svd when randomized. serial-stream is
    parallel-stream at the world size `_serial_stream_world` picks. A rank
    reads its block of rows, and the APMOS exchange or the streaming
    update's TSQR and rank sum join the blocks; a k above min(rows, cols)
    is refused first. Identical in a simulated world and over TCP: ctx is
    the same RankContext, wired through in-process socket pairs or TCP
    sockets."""
    rows, cols = read_matrix_header(cfg.input)
    if rows == 0 or cols == 0:
        raise ConfigError(f"{cfg.input} holds a {rows}x{cols} matrix, "
                          f"nothing to factor")
    if cfg.k > min(rows, cols):
        raise ConfigError(
            f"k {cfg.k} exceeds min(rows, cols) = {min(rows, cols)}"
        )
    try:
        return _factor(ctx, cfg, rows, cols)
    except MemoryError:
        raise MemoryError(f"{cfg.mode} ran out of memory on the {rows}x{cols} "
                          f"matrix in {cfg.input}") from None


def _factor(ctx, cfg, rows, cols):
    lo, hi = partition_bounds(rows, ctx.world_size)[ctx.rank]
    history = None
    if cfg.mode == "serial-batch" and cfg.randomized:
        block = read_submatrix(cfg.input, lo, hi, 0, cols)
        res = low_rank_svd(block, _sketch_config(cfg, cfg.k))
        modes, values = res.u[:, :cfg.k], res.s[:cfg.k]
    elif cfg.mode == "parallel-batch":
        block = read_submatrix(cfg.input, lo, hi, 0, cols)
        sketch = _sketch_config(cfg, cfg.r2) if cfg.randomized else None
        acfg = ApmosConfig(local_rank=cfg.r1, global_rank=cfg.r2,
                           k_modes=cfg.k, sketch=sketch)
        modes, values, _ = apmos(ctx, block, acfg)
    else:
        scfg = StreamConfig(k_modes=cfg.k, forget_factor=cfg.ff)
        batch = cols if cfg.mode == "serial-batch" else cfg.batch
        source = BatchSource(cfg.input, batch, rows=(lo, hi))
        state, history = stream_all(ctx, source, scfg)
        modes, values = state.modes, state.singular_values
        history = None if cfg.mode == "serial-batch" else history
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
    ranks, in every mode. serial-batch streams one batch in a world of
    one, which keeps all BLAS threads; parallel modes run on the world
    size asked for (APMOS results depend on it); serial-stream on
    `_serial_stream_world` ranks of one BLAS thread each. The matrix file
    is checked before any rank starts. summary.txt records the world size
    that ran."""
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
            ctx.refuse_unread()
            if ctx.rank == 0:
                _write_outputs(cfg, result)
                print(f"wrote results for {cfg.mode} to {cfg.outdir}")
    finally:
        ctx.close()
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


# The exit code of each error family, the first that matches
_EXIT_CODES = ((ConfigError, 1), (MatrixFormatError, 2), (CollectiveTimeout, 3),
               (ConnectionError, 4), (ProtocolError, 2), (OSError, 2),
               (DegenerateModeError, 1), (ConvergenceError, 1),
               (ValueError, 1), (MemoryError, 5))


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except tuple(family for family, _ in _EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for family, code in _EXIT_CODES
                    if isinstance(exc, family))


if __name__ == "__main__":
    sys.exit(main())
