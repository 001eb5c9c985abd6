"""Distributed truncated SVD over row-partitioned snapshot matrices.

Each rank holds a horizontal slice A^i (some rows, all columns) of the
global matrix. The module provides:

* apmos: approximate partitioned method of snapshots (Wang, McBee &
  Iliescu 2016). Each rank compresses its slice to r1 right singular
  vectors scaled by their singular values, W^i = V~ S~^T (snapshots x r1,
  cheap to ship since it has no row dimension). A tall slice gets them
  from the leading eigenvectors of its n x n Gram matrix, the method of
  snapshots, sharpened by one subspace iteration on the slice: the
  power-iterated range finder of Halko, Martinsson & Tropp (2011) with
  those eigenvectors as its start, finished by Rayleigh-Ritz on the
  triangular factor of the slice times that basis. Its left singular
  vectors are never formed. Rank 0 stacks the W^i, factors the stack
  (exactly or with the randomized kernel) and broadcasts the K leading
  columns X with their values in one matrix [X; lambda^T]; each rank then
  lifts its local mode rows as U^i_j = A^i X_j / lambda_j. The
  stack satisfies W W^T = A^T A, which is what makes the assembly exact
  when nothing is truncated. The result is a linalg.SvdResult of the form
  svd_full(want_vt=False) returns, with this rank's rows in u.

* gather_modes: stacks every rank's mode block, an apmos result's u or a
  streaming state's modes, at rank 0.

* parallel_qr and _rank_sum, the two collectives of the streaming update
  (`streaming`): a tall-skinny QR across ranks (local QR, QR of the stacked
  triangular factors at rank 0, one reply to each rank holding its slice of
  the stacked Q and the shared R) and a sum of small matrices. A rank's
  block of the global Q, its local Q times its slice, is formed only when
  read; the streaming update only applies it to a small rotation.

All collectives run through a RankContext, so the same functions work in
a simulated world and over TCP.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .comm import broadcast, gather, recv, send
from .errors import DegenerateModeError, ProtocolError
from .linalg import (QrResult, RandomSketchConfig, SvdResult,
                     _positive_column_signs, _product, _top_eigenvectors,
                     as_matrix, low_rank_svd, qr_factor, svd_full)


@dataclass(frozen=True)
class ApmosConfig:
    """local_rank  r1, right vectors kept per rank before the exchange
    global_rank r2, singular values the stacked factorization must yield
                (r2 <= P r1); only a bound on the dense route
    k_modes     K,  modes assembled, and columns broadcast (K <= r2)
    sketch      factor the stacked W with the randomized kernel under these
                settings (target_rank >= r2); None factors it densely."""

    local_rank: int
    global_rank: int
    k_modes: int
    sketch: Optional[RandomSketchConfig] = None

    def __post_init__(self):
        if self.local_rank < 1:
            raise ValueError(f"local_rank must be >= 1, got {self.local_rank}")
        if self.global_rank < 1:
            raise ValueError(f"global_rank must be >= 1, got {self.global_rank}")
        if self.k_modes < 1:
            raise ValueError(f"k_modes must be >= 1, got {self.k_modes}")
        if self.k_modes > self.global_rank:
            raise ValueError(
                f"k_modes {self.k_modes} exceeds global_rank {self.global_rank}"
            )
        if self.sketch is not None and self.sketch.target_rank < self.global_rank:
            raise ValueError(
                f"sketch target_rank {self.sketch.target_rank} is below "
                f"global_rank {self.global_rank}"
            )


# Columns the tall-slab route carries beyond r1. On the tests' 1024 x 800
# Burgers slab at r1 = 20, 10, 20 and 30 extra columns matched svd_full's
# vectors equally well (8.3e-15, 7.1e-15 and 6.7e-15), so the narrowest,
# and cheapest, is kept.
SUBSPACE_EXTRA = 10


def generate_right_vectors(a_local, local_rank):
    """Leading right singular vectors and values of a local slice.

    A tall slice `a` (more rows than its n columns) is reduced by the
    method of snapshots: the w = min(n, r1 + SUBSPACE_EXTRA) leading
    eigenvectors V0 of its Gram matrix a^T a, and only those
    (linalg._top_eigenvectors). They alone miss svd_full's vectors at the
    1e-13 level, so one subspace iteration on the slab itself,
    Q = qr(a^T a V0), sharpens them. Rayleigh-Ritz follows from the
    triangular factor of a Q = B R alone: the SVD R = U S Z^T gives
    v = Q Z and s = S. This is the power-iterated range finder of Halko,
    Martinsson & Tropp (2011, §4.5) applied to a^T, with the Gram
    eigenvectors as its start. The slab's m x n left vectors are never
    formed; its leading ones, B U, are taken only for their signs, so
    that, as in svd_full of the slice, the entry of largest magnitude in
    each left vector is positive. Other slices take a thin SVD directly.
    Slab products are taken column-major (linalg._product).

    Accuracy floor: fl(a^T a) errs near eps sigma_1^2, so V0 loses any
    direction below about sqrt(eps) sigma_1 (1.5e-8 sigma_1), which the
    one subspace iteration recovers only below a steep drop. serial-batch's
    R route (QR, then the SVD of R) never squares the matrix: no floor.

    Returns (v, s) with v of shape (n_cols, local_rank) and s of length
    local_rank. When the slice has fewer than local_rank nonzero directions
    (short blocks, min(rows, cols) < r1), both are zero-padded to exactly
    local_rank columns; padded columns carry sigma = 0 and do not disturb
    the W W^T = A^T A identity.
    """
    a = as_matrix(a_local, "a_local")
    n = a.shape[1]
    if local_rank < 1:
        raise ValueError(f"local_rank must be >= 1, got {local_rank}")
    if local_rank > n:
        raise ValueError(
            f"local_rank {local_rank} exceeds the snapshot count {n}"
        )
    if a.shape[0] > n:
        width = min(n, local_rank + SUBSPACE_EXTRA)
        v0 = _top_eigenvectors(a.T @ a, width)
        # (a V0)^T a, transposed, is column-major, so the QR takes it as is.
        q = qr_factor((_product(a, v0).T @ a).T, check_finite=False).q
        b = qr_factor(_product(a, q), check_finite=False)
        res = svd_full(b.r)
        keep = local_rank
        _, vt = _positive_column_signs(b.apply(res.u[:, :keep]),
                                       res.vt[:keep])
        v = q @ vt.T
    else:
        res = svd_full(a)
        keep = min(local_rank, res.s.size)
        v = res.vt[:keep].T.copy()
    s = res.s[:keep].copy()
    if keep < local_rank:
        v = np.hstack([v, np.zeros((n, local_rank - keep))])
        s = np.concatenate([s, np.zeros(local_rank - keep)])
    return v, s


def apmos(ctx, a_local, config):
    """One-shot distributed SVD of the row-partitioned matrix.

    Every rank passes its slice and returns an SvdResult: u is this rank's
    rows of the K leading left singular vectors, s their singular values
    (the same on every rank), vt None. Stacking the u blocks in rank order
    (gather_modes) reassembles the global modes. A zero singular value
    among the first K cannot be normalized against and raises
    DegenerateModeError on all ranks alike.
    """
    # generate_right_vectors scans the slab for non-finite entries.
    a = as_matrix(a_local, "a_local", check_finite=False)
    r1, r2, k = config.local_rank, config.global_rank, config.k_modes
    if r2 > ctx.world_size * r1:
        raise ValueError(
            f"global_rank {r2} exceeds the {ctx.world_size * r1} columns "
            f"the exchange can produce"
        )
    v, s = generate_right_vectors(a, r1)
    w_local = v * s
    parts = gather(ctx, w_local)
    packed = None
    if ctx.rank == 0:
        w = np.concatenate(parts, axis=1)
        if config.sketch is not None:
            res = low_rank_svd(w, config.sketch)
        else:
            res = svd_full(w, want_vt=False)
        if res.s.size < r2:
            raise ValueError(
                f"stacked exchange matrix only has {res.s.size} singular "
                f"values, global_rank is {r2}"
            )
        packed = np.vstack([res.u[:, :k], res.s[None, :k]])
    packed = broadcast(ctx, packed)
    x, lam = packed[:-1], packed[-1]
    for j in range(k):
        if lam[j] == 0.0:
            raise DegenerateModeError(
                f"mode {j} has a zero singular value and cannot be assembled"
            )
    u_local = _product(a, x) / lam
    return SvdResult(u_local, lam.copy(), None)


def parallel_qr(ctx, a_local, overwrite_a=False, check_finite=True):
    """Tall-skinny QR of the row-stacked global matrix.

    Returns a QrResult whose q is this rank's row block of the global
    orthonormal factor and whose r, identical on every rank, is the shared
    triangular factor. That q block is the local factor's q times this
    rank's slice of the stacked factor's q, and is formed only when read:
    `apply(x)` takes the local factor through the slice times x. At world
    size 1 this is exactly qr_factor, the same kernel call with no wire
    traffic. overwrite_a and check_finite go to the local qr_factor.

    Each rank sends rank 0 its triangular factor and gets one reply, [its
    slice of the stacked q; r^T]: both parts are as wide as r has rows, so
    they stack even when r is wider than it is tall.
    """
    local = qr_factor(a_local, overwrite_a, check_finite)
    if ctx.world_size == 1:
        return local
    parts = gather(ctx, local.r)
    height, n = local.r.shape
    if ctx.rank != 0:
        reply = recv(ctx, 0)
        return QrResult(local.basis, reply[height:].T, local.wy,
                        reply[:height])
    _refuse_misfits(parts, "triangular factor", local.r.shape,
                    lambda shape: shape[1] == n and shape[0] <= n)
    q_stack, r_final = qr_factor(np.concatenate(parts, axis=0))
    offset = height
    for rank in range(1, ctx.world_size):
        end = offset + parts[rank].shape[0]
        send(ctx, np.vstack([q_stack[offset:end], r_final.T]), rank)
        offset = end
    return QrResult(local.basis, r_final, local.wy, q_stack[:height])


def _refuse_misfits(parts, what, own, fits):
    """Raise ProtocolError at the root naming the first rank whose gathered
    part's shape fails `fits`; `own` is the root's own shape. Ranks started
    with different settings send such parts, and numpy would fail on them
    with a message that names no rank, or broadcast a 1 x 1 part."""
    for rank, part in enumerate(parts):
        if not fits(part.shape):
            raise ProtocolError(f"rank {rank} sent a {part.shape} {what}; "
                                f"rank 0's is {own}")


def _rank_sum(ctx, x):
    """Sum of a small matrix over all ranks, returned on every rank.

    Rank 0 gathers the parts, adds them in rank order and broadcasts the
    total, so every rank gets the same bits; a part whose shape differs
    from rank 0's raises ProtocolError there. At world size 1 the total is
    x itself.
    """
    if ctx.world_size == 1:
        return x
    parts = gather(ctx, x)
    if ctx.rank != 0:
        return broadcast(ctx, None)
    _refuse_misfits(parts, "part of a sum", x.shape,
                    lambda shape: shape == x.shape)
    total = parts[0]
    for part in parts[1:]:
        total = total + part
    return broadcast(ctx, total)


def gather_modes(ctx, modes):
    """Stack per-rank mode blocks, this rank's rows of the modes, at the
    root, in rank order. Returns the (total_rows, K) matrix at the root and
    None elsewhere; a block whose K differs from the root's raises
    ProtocolError there."""
    parts = gather(ctx, modes)
    if parts is None:
        return None
    own = modes.shape
    _refuse_misfits(parts, "mode block", own,
                    lambda shape: shape[1] == own[1])
    return np.concatenate(parts, axis=0)
