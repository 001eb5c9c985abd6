"""Snapshot-matrix generators and row partitioning.

Two data sources are provided: the analytical solution of the viscous
Burgers equation (a standard test problem whose sharpening front gives a
slowly decaying singular spectrum), and synthetic matrices with a prescribed
spectrum for controlled accuracy experiments.

`burgers_blocks` computes the snapshot matrix in column blocks, left to
right on the calling thread, holding one at a time, so `parsvd generate`
writes a matrix of any size through `io.write_matrix_blocks`.
`burgers_matrix` has the same blocks filled in place in one column-major
array. Both evaluate the formula in the order of operations
`burgers_solution` follows, so all three agree bit for bit.
"""

from dataclasses import dataclass

import numpy as np

from .errors import CapacityError
from .linalg import qr_factor

# Default allocation cap for `burgers_matrix`, in bytes. Large enough for a
# 16384 x 800 float64 snapshot matrix (about 105 MB) with headroom.
# `burgers_blocks` holds one block at a time and needs no cap.
DEFAULT_MATRIX_CAP = 1 << 30

# Columns of the Burgers matrix per block. Blocks 4, 16, 64 and 800
# columns wide of the 16384 x 800 matrix timed within 5 % of each other
# (2 cores); small blocks keep each block's temporaries (16384 x 16
# doubles, 2 MB) near the cache.
BURGERS_BLOCK_COLUMNS = 16

# A block holds at most as many entries as 16 columns of the default
# 16384-point grid, 2 MiB: on a taller grid blocks are narrower, down to
# one column, so what `burgers_blocks` holds at once does not grow with
# the grid.
BURGERS_BLOCK_ENTRIES = 16 * 16384


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

    with t0 = exp(Re / 8), as x / (1 + exp(z)) / (t + 1), where z is the
    log of sqrt((t + 1) / t0) times the exponential. exp(z) overflows
    float64 near x = 1 for Re ~ 1000; u, below 1e-308 there, then comes out
    as exactly 0. x and t broadcast together; scalars in give a scalar out.
    Points outside the space-time domain raise ValueError.
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

    The one evaluation of the formula: every generator calls it, and
    every step is an elementwise numpy operation in a fixed order, so a
    block of the snapshot matrix is bit-identical to the same points taken
    one call at a time.
    """
    # z = log of sqrt((t+1)/t0) * exp(Re x^2 / (4(t+1))), with log(t0) = Re/8
    np.divide(re_x2, 4.0 * t1, out=out)
    out += 0.5 * (log1p_t - re / 8.0)
    # exp overflows to inf near x = 1 at Re ~ 1000, and u comes out as 0
    with np.errstate(over="ignore"):
        np.exp(out, out=out)
    out += 1.0
    # x and t + 1 broadcast against out in place: no block-sized temporary
    np.divide(x, out, out=out)
    out /= t1


def burgers_blocks(config=BurgersConfig(), into=None):
    """Column blocks of the Burgers snapshot matrix, left to right.

    Each block is a column-major (grid_points, w) array of consecutive
    columns, w at most BURGERS_BLOCK_COLUMNS and BURGERS_BLOCK_ENTRIES /
    grid_points (at least 1). `into(lo, hi)`, when given, returns the
    column-major array that receives columns [lo, hi), such as a slice of
    the whole matrix; blocks are otherwise new arrays. Each block is
    filled on the calling thread when it is asked for, so the generator
    holds only the block it last handed out, whatever the matrix's size.
    """
    rows, cols = config.grid_points, config.n_snapshots
    re = config.reynolds
    x = np.linspace(0.0, config.length, rows)
    t = np.linspace(0.0, config.t_final, cols)
    x_col = x[:, None]
    re_x2 = (re * x * x)[:, None]
    log1p_t = np.log1p(t)
    t1 = t + 1.0
    width = max(1, min(BURGERS_BLOCK_COLUMNS, BURGERS_BLOCK_ENTRIES // rows))
    for lo in range(0, cols, width):
        hi = min(lo + width, cols)
        out = np.empty((rows, hi - lo), order="F") if into is None else into(lo, hi)
        _burgers_into(out, x_col, re_x2, log1p_t[lo:hi], t1[lo:hi], re)
        yield out


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
    out = np.empty((config.grid_points, config.n_snapshots), order="F")
    for _ in burgers_blocks(config, into=lambda lo, hi: out[:, lo:hi]):
        pass
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

