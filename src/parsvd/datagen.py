"""Snapshot-matrix generators and row partitioning.

Two data sources are provided: the analytical solution of the viscous
Burgers equation (a standard test problem whose sharpening front gives a
slowly decaying singular spectrum), and synthetic matrices with a prescribed
spectrum for controlled accuracy experiments.

`burgers_matrix` fills a column-major array in place, in blocks of
BURGERS_BLOCK_COLUMNS columns spread over one thread per available CPU
(numpy's float ufuncs release the GIL). It evaluates the same formula, in
the same order of operations, as `burgers_solution`, so the two agree bit
for bit and `io.write_matrix` writes the array without a transposing copy.
"""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError
from .linalg import _available_cpus, qr_factor

# Default allocation cap for generated matrices, in bytes. Large enough for
# a 16384 x 800 float64 snapshot matrix (about 105 MB) with headroom.
DEFAULT_MATRIX_CAP = 1 << 30

# Columns of the Burgers matrix one worker fills per task. On one thread,
# blocks 4, 16, 64 and 800 columns wide of the 16384 x 800 matrix timed
# within 5 % of each other (2 cores); small blocks keep each task's
# temporaries (16384 x 16 doubles, 2 MB) near the cache and split the
# columns evenly over the workers.
BURGERS_BLOCK_COLUMNS = 16


@dataclass(frozen=True)
class BurgersConfig:
    """Domain and discretization of the analytical Burgers dataset.

    The solution lives on x in [0, length] for t in [0, t_final], sampled on
    `grid_points` equispaced points and `n_snapshots` equispaced times.
    `reynolds` is the Reynolds number 1/nu.
    """

    length: float = 1.0
    t_final: float = 2.0
    reynolds: float = 1000.0
    grid_points: int = 16384
    n_snapshots: int = 800

    def __post_init__(self):
        if not self.length > 0.0:
            raise ValueError(f"length must be positive, got {self.length}")
        if not self.t_final > 0.0:
            raise ValueError(f"t_final must be positive, got {self.t_final}")
        if not self.reynolds > 0.0:
            raise ValueError(f"reynolds must be positive, got {self.reynolds}")
        if self.grid_points < 2:
            raise ValueError(f"grid_points must be >= 2, got {self.grid_points}")
        if self.n_snapshots < 1:
            raise ValueError(f"n_snapshots must be >= 1, got {self.n_snapshots}")


def burgers_solution(x, t, config=BurgersConfig()):
    """Analytical solution u(x, t) of viscous Burgers on [0, length].

    Evaluates

        u = (x / (t + 1)) / (1 + sqrt((t + 1) / t0) * exp(Re x^2 / (4t + 4)))

    with t0 = exp(Re / 8). The exponential overflows float64 for Re ~ 1000,
    so the quotient is computed in log space via logaddexp; the two forms are
    algebraically identical. x and t broadcast together; scalars in give a
    scalar out. Points outside the space-time domain raise ValueError.
    """
    x = np.asarray(x, dtype=np.float64)
    t = np.asarray(t, dtype=np.float64)
    if x.size and (np.min(x) < 0.0 or np.max(x) > config.length):
        raise ValueError(f"x outside [0, {config.length}]")
    if t.size and (np.min(t) < 0.0 or np.max(t) > config.t_final):
        raise ValueError(f"t outside [0, {config.t_final}]")
    re = config.reynolds
    u = np.empty(np.broadcast_shapes(x.shape, t.shape))
    _burgers_into(u, x, re * x * x, np.log1p(t), t + 1.0, re)
    if u.ndim == 0:
        return float(u)
    return u


def _burgers_into(out, x, re_x2, log1p_t, t1, re):
    """Write u(x, t) into `out`, given the per-point parts x and Re x^2 and
    the per-time parts log1p(t) and t + 1, all broadcasting to out's shape.

    The one evaluation of the formula: both public generators call it, and
    every step is an elementwise numpy operation in a fixed order, so a
    block of the snapshot matrix is bit-identical to the same points taken
    one call at a time. Calls numpy only, so worker threads may run it.
    """
    # log of sqrt((t+1)/t0) * exp(Re x^2 / (4(t+1))), with log(t0) = Re/8
    np.divide(re_x2, 4.0 * t1, out=out)
    out += 0.5 * (log1p_t - re / 8.0)
    np.logaddexp(0.0, out, out=out)
    np.negative(out, out=out)
    np.exp(out, out=out)
    # x / (t+1) in out's layout: a C-ordered temporary against a
    # column-major block made this product 5x slower
    out *= np.divide(x, t1, out=np.empty_like(out))


def burgers_matrix(config=BurgersConfig(), max_bytes=DEFAULT_MATRIX_CAP):
    """Snapshot matrix of the Burgers solution, one column per time sample.

    Shape is (grid_points, n_snapshots), column-major; entry (i, j) is
    u(x_i, t_j), equal bit for bit to `burgers_solution` on the same grid.
    The float64 size is checked against max_bytes before allocation and a
    CapacityError is raised when it would not fit.
    """
    need = 8 * config.grid_points * config.n_snapshots
    if need > max_bytes:
        raise CapacityError(
            f"snapshot matrix needs {need} bytes, cap is {max_bytes}"
        )
    re = config.reynolds
    x = np.linspace(0.0, config.length, config.grid_points)
    t = np.linspace(0.0, config.t_final, config.n_snapshots)
    x_col = x[:, None]
    re_x2 = (re * x * x)[:, None]
    log1p_t = np.log1p(t)
    t1 = t + 1.0
    out = np.empty((config.grid_points, config.n_snapshots), order="F")

    def fill(lo):
        hi = lo + BURGERS_BLOCK_COLUMNS
        _burgers_into(out[:, lo:hi], x_col, re_x2, log1p_t[lo:hi], t1[lo:hi], re)

    starts = range(0, config.n_snapshots, BURGERS_BLOCK_COLUMNS)
    with ThreadPoolExecutor(min(_available_cpus(), len(starts))) as pool:
        list(pool.map(fill, starts))
    return out


def synthetic_spectrum_matrix(rows, cols, singular_values, seed=0):
    """Dense matrix with exactly the given leading singular values.

    Draws two Gaussian matrices from Philox(seed), orthonormalizes them into
    u (rows x k) and v (cols x k), and returns (u * sigma) @ v.T. The
    remaining min(rows, cols) - k singular values are zero. sigma must be
    1-D, non-negative, non-increasing, and no longer than min(rows, cols).
    """
    sv = np.asarray(singular_values, dtype=np.float64)
    if sv.ndim != 1 or sv.size < 1:
        raise ValueError("singular_values must be a non-empty 1-D sequence")
    if sv.size > min(rows, cols):
        raise ValueError(
            f"{sv.size} singular values do not fit a {rows}x{cols} matrix"
        )
    if np.any(sv < 0.0):
        raise ValueError("singular values must be non-negative")
    if np.any(np.diff(sv) > 0.0):
        raise ValueError("singular values must be non-increasing")
    rng = np.random.Generator(np.random.Philox(seed))
    u = qr_factor(rng.standard_normal((rows, sv.size))).q
    v = qr_factor(rng.standard_normal((cols, sv.size))).q
    return (u * sv) @ v.T


def partition_bounds(rows, world_size):
    """Half-open row ranges [(lo, hi), ...] splitting `rows` across ranks.

    The first rows % world_size ranks get one extra row, so sizes differ by
    at most one and the ranges tile [0, rows) in rank order. world_size must
    not exceed the row count: every rank owns at least one row.
    """
    if world_size < 1:
        raise ValueError(f"world_size must be >= 1, got {world_size}")
    if world_size > rows:
        raise ValueError(f"world_size {world_size} exceeds row count {rows}")
    base, rem = divmod(rows, world_size)
    bounds = []
    offset = 0
    for rank in range(world_size):
        size = base + (1 if rank < rem else 0)
        bounds.append((offset, offset + size))
        offset += size
    return bounds

