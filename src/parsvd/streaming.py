"""Streaming truncated SVD over column batches.

Maintains the K leading left singular vectors of everything seen so far
without storing past columns. The update carries a block U of up to K + p
orthonormal columns with their singular values s (p = buffer_columns) and
reports the leading K of them. Each new batch A is projected onto U, only
the m x b residual is QR-factored, and the SVD of a small matrix rotates
the widened basis:

    C = U^T A,  A - U C = Q R,  [[ff diag(s), C], [0, R]] = U~ D V~^T,
    U_i = [U Q] U~[:, :K+p],  s_i = D[:K+p]

The first batch is the update of a block with no columns: U, C and
ff diag(s) are empty, A0 = Q R, and the small matrix is R.

This is the buffered incremental SVD of Baker, Gallivan & Van Dooren (2012,
"Low-rank incremental methods for computing dominant singular subspaces");
see also Brand (2006). Truncating to exactly K columns (p = 0) discards
tail energy after every batch, and on slowly decaying spectra the losses
add up: relative errors up to 2.6e-2 in the K = 5 leading singular values
of the 2048 x 800 Burgers matrix. The buffer keeps the directions that
later batches promote into the top K. Directions whose singular value is at rounding
level are never carried; their vectors are noise.

Orthonormality. Where a batch lies in span(U) up to a small residual, one
projection leaves Q slightly non-orthogonal to U, and the next block
inherits that. Each update therefore reads U^T U, which travels in the
same rank sum as U^T A, and re-orthonormalizes U before use when it has
drifted past ORTHO_DRIFT_TOL (the rescue pass): through a Cholesky factor
of U^T U folded into the small matrix when that is well conditioned, and
through a QR of U otherwise. stream_all checks once more after the last
batch.

A forget factor below one exponentially downweights history, which tracks
left singular vectors that drift over time.

Ranks. Every function here runs on one rank of a RankContext, with that
rank's rows of each batch; a serial caller passes RankContext(0, 1).
The update reaches across ranks in two places only: sums of small matrices,
which rank 0 gathers and broadcasts (dsvd._rank_sum), and the tall-skinny
QR of the residual (dsvd.parallel_qr). At world size 1 the sum is its input
and the QR is qr_factor's, with no wire traffic.

Workspace. An update's tall arrays live in a `Workspace`: two
column-major buffers with the stream's rows and K + p + b columns, b the
widest batch so far. The front buffer holds [U | A], the carried block in
its first columns and the batch right after it. The residual A - U C is
formed in the batch's columns, with U C passing through the back buffer,
and qr_factor factors it there (overwrite_a): Q's Householder vectors V
take the residual's place. So [U | V] is one contiguous block, and the
lift [U Q] U~ is one product over it (QrResult.apply), written into the
back buffer. The buffers then swap, and the new block is the first
columns of the next update's front buffer.

Who owns what. stream_all owns one workspace for the whole stream, and a
BatchSource reads each batch straight into the front buffer next to U.
The states it passes from one update to the next are views of the
buffers and are overwritten two updates later; the final state is not
touched again. stream_incorporate runs on a workspace of its own unless
handed one, so the states it returns are never overwritten, and the
batches passed to it are copied, never modified. Either way a batch is
scanned for non-finite entries once, where it enters the workspace, and
nowhere after.
"""

from dataclasses import dataclass

import numpy as np

from .dsvd import _rank_sum, parallel_qr
from .io import BatchSource
from .linalg import _product, as_matrix, svd_full

# When repeated updates erode orthonormality past this, the carried block is
# re-orthonormalized before it is used. The check reads U^T U, which travels
# with U^T A in the update's first rank sum.
ORTHO_DRIFT_TOL = 1e-8
# Up to this condition number of U^T U the rescue pass is a Cholesky factor
# of it, whose one-step re-orthonormalization leaves an error near
# eps * cond^2; worse blocks go through QR.
CHOLESKY_COND_LIMIT = 100.0


@dataclass(frozen=True)
class StreamConfig:
    """k_modes reported per update, forget factor in (0, 1], and
    buffer_columns carried beyond k_modes.

    The update accepts batches of any positive width; callers cut their own
    (io.BatchSource does it for files). It carries up to k_modes +
    buffer_columns columns, never more than the row count and never a
    direction whose singular value is at rounding level.
    The default buffer of 30 brings K = 5 streaming of the 2048 x 800
    Burgers matrix in 100-column batches to 7e-8 of the one-shot singular
    values; a buffer of 0 truncates to exactly k_modes after every batch.
    """

    k_modes: int
    forget_factor: float = 0.95
    buffer_columns: int = 30

    def __post_init__(self):
        if self.k_modes < 1:
            raise ValueError(f"k_modes must be >= 1, got {self.k_modes}")
        if not 0.0 < self.forget_factor <= 1.0:
            raise ValueError(
                f"forget_factor must be in (0, 1], got {self.forget_factor}"
            )
        if self.buffer_columns < 0:
            raise ValueError(
                f"buffer_columns must be >= 0, got {self.buffer_columns}"
            )


@dataclass(frozen=True)
class StreamState:
    """Current estimate: modes (m x K) and their singular values
    (descending, length K).

    carried_modes and carried_values hold the whole block the update
    carries, up to K + buffer_columns columns whose leading K are modes and
    singular_values. total_rows is the row count of the whole matrix, which
    caps the carried width. modes and carried_modes are this rank's rows.

    The columns are orthonormal to ORTHO_DRIFT_TOL in the states that
    stream_all returns. A state straight out of an
    incorporate call may have drifted further when its batch lay in
    span(modes) up to a small residual; the next update repairs that
    before it uses the block.
    """

    modes: np.ndarray
    singular_values: np.ndarray
    carried_modes: np.ndarray
    carried_values: np.ndarray
    total_rows: int


class Workspace:
    """The two column-major buffers of a stream (module docstring).

    `spare` is the number of columns kept beyond each batch: K + p for a
    whole stream, so the buffers stop growing once the carried block is
    full, and 0 for a single update. An update writes its tall arrays into
    the buffers, so a stream needs no change to malloc's settings to reuse
    its memory (README, "Numerical notes").
    """

    def __init__(self, spare=0):
        self.spare = spare
        self.front = self.back = np.empty((0, 0), order="F")
        self._carried = None

    def load(self, u, width):
        """The front buffer's first u.shape[1] + width columns, u in the
        first of them. u is copied in unless it is already there: the
        block the last update left, or the u of the last call. Both buffers
        grow, keeping u, when they are too small or have other rows."""
        rows, held = u.shape
        need = held + width
        if self.front.shape[0] != rows or self.front.shape[1] < need:
            cols = max(need, self.spare + width)
            self.front = np.empty((rows, cols), order="F")
            self.back = np.empty((rows, cols), order="F")
            self._carried = None
        if u is not self._carried:
            self.front[:, :held] = u
            self._carried = u
        return self.front[:, :need]

    def turn(self, basis):
        """Swap the buffers once the update has written its new block,
        `basis`, into the back one."""
        self.front, self.back = self.back, self.front
        self._carried = basis


def _state(basis, values, k, rows):
    return StreamState(basis[:, :k], values[:k], basis, values, rows)


def _drift(gram):
    return np.max(np.abs(gram - np.eye(gram.shape[0])))


def _keep(values, shape, config, rows):
    """Columns to carry out of a small SVD: k_modes + buffer_columns, never
    more than the row count, and never a direction whose singular value is
    at rounding level (the matrix_rank threshold), since such a vector is
    noise that need not be orthogonal to the rest. At least k_modes are
    kept whenever that many exist."""
    tol = np.finfo(np.float64).eps * max(shape) * values[0]
    rank = int(np.count_nonzero(values > tol))
    return min(max(rank, config.k_modes),
               config.k_modes + config.buffer_columns, rows)


def _reorthonormalize(ctx, u, gram):
    """Rescue pass for a block whose Gram matrix drifted from the identity.

    Returns (u, fold, tri): the orthonormal block is u @ fold (u itself when
    fold is None), and the drifted block equals it times the upper
    triangular tri. A well-conditioned Gram matrix is factored by Cholesky,
    gram = tri^T tri and fold = tri^-1, which never touches the tall block;
    any other block goes through QR, whose q is formed (unpacking the
    result forms it): the update multiplies by it more than once.
    """
    if np.linalg.cond(gram) <= CHOLESKY_COND_LIMIT:
        tri = np.linalg.cholesky(gram).T
        return u, np.linalg.inv(tri), tri
    q, tri = parallel_qr(ctx, u, check_finite=False)
    return q, None, tri


def _settle(ctx, state):
    """Check the orthonormality of the carried block once more, after the
    last batch, and re-orthonormalize it if it drifted. The incorporate
    steps only check the block they receive."""
    u, s = state.carried_modes, state.carried_values
    gram = _rank_sum(ctx, u.T @ u)
    if _drift(gram) <= ORTHO_DRIFT_TOL:
        return state
    u, fold, tri = _reorthonormalize(ctx, u, gram)
    res = svd_full(tri * s, want_vt=False)
    rotation = res.u if fold is None else fold @ res.u
    return _state(_product(u, rotation), res.s, state.modes.shape[1],
                  state.total_rows)


def _update(ctx, u, s, rows, a_new, config, workspace):
    """Fold a batch into the carried block u with values s, the first batch
    into a block with no columns; returns the new state. rows is the
    matrix's total row count.

    With no carried block there is nothing to project onto: the head rank
    sum and the drift check are skipped, the batch itself is factored, and
    the small matrix is its R.
    """
    width = u.shape[1]
    workspace = Workspace() if workspace is None else workspace
    front = workspace.load(u, a_new.shape[1])
    u, batch = front[:, :width], front[:, width:]
    np.copyto(batch, a_new)  # no copy when the batch was read in place
    coeff, top, fold = np.empty((0, batch.shape[1])), np.empty((0, 0)), None
    if width:
        # One rank sum carries the drift check U^T U and the projection U^T A.
        head = np.empty((width, width + batch.shape[1]))
        head[:, :width] = u.T @ u
        head[:, width:] = u.T @ batch
        head = _rank_sum(ctx, head)
        coeff = head[:, width:]
        top = np.diag(config.forget_factor * s)
        if _drift(head[:, :width]) > ORTHO_DRIFT_TOL:
            # U diag(s) = (U fold) (T diag(s)): the re-orthonormalized block
            # enters the small matrix through its triangular factor T.
            u, fold, tri = _reorthonormalize(ctx, u, head[:, :width])
            top = tri * (config.forget_factor * s)
            if fold is None:
                coeff = _rank_sum(ctx, u.T @ batch)
            else:
                coeff = fold.T @ coeff
        # The residual A - U C replaces the batch, then its QR factors
        # replace the residual.
        proj = _product(u, coeff if fold is None else fold @ coeff,
                        workspace.back[:, :batch.shape[1]])
        np.subtract(batch, proj, out=batch)
    qr = parallel_qr(ctx, batch, overwrite_a=True, check_finite=False)
    r = qr.r
    small = np.zeros((width + r.shape[0], width + batch.shape[1]))
    small[:width, :width] = top
    small[:width, width:] = coeff
    small[width:, width:] = r
    res = svd_full(small, want_vt=False)
    keep = _keep(res.s, small.shape, config, rows)
    lift = res.u[:, :keep]
    lift_top = lift[:width] if fold is None else fold @ lift[:width]
    # A block re-orthonormalized by QR takes U's place; u is U otherwise.
    np.copyto(front[:, :width], u)
    basis = qr.apply(lift[width:], out=workspace.back[:, :keep],
                     tall=front[:, :width + qr.basis.shape[1]],
                     tall_x=lift_top)
    workspace.turn(basis)
    return _state(basis, res.s[:keep], config.k_modes, rows)


def stream_incorporate(ctx, state, a_new, config, workspace=None):
    """Fold this rank's rows of one new batch into the state, None before
    the first batch; returns the updated state.

    The projections onto the carried block are summed across ranks, the
    residual goes through one tall-skinny QR, and after a shared small SVD
    each rank holds its rows of the updated block; singular values are
    identical across ranks. The first batch is the update of a block with
    no columns: it needs at least k_modes columns, since fewer would leave
    the mode block rank-deficient from the start, and its row counts,
    summed across ranks, are the total_rows of every later state. A later
    batch may have any positive column count but must match the row
    dimension of the existing modes. A state whose carried block has lost
    orthonormality past ORTHO_DRIFT_TOL is re-orthonormalized first. The
    block returned is not checked again: where the batch lay in
    span(modes) up to a small residual it may have drifted, and only the
    next update or stream_all's final check repairs it. `workspace` is for
    stream_all, which passes its own; the states of a workspace are
    overwritten two updates later (module docstring).
    """
    a_new = as_matrix(a_new, "a_new")
    k = config.k_modes
    if state is None:
        if a_new.shape[1] < k:
            raise ValueError(f"initial batch has {a_new.shape[1]} columns, "
                             f"need at least k_modes={k}")
        rows = int(_rank_sum(ctx, np.array([[float(a_new.shape[0])]]))[0, 0])
        return _update(ctx, np.empty((a_new.shape[0], 0)), np.empty(0), rows,
                       a_new, config, workspace)
    if state.modes.shape[1] != k:
        raise ValueError(
            f"state carries {state.modes.shape[1]} modes, config wants {k}"
        )
    if a_new.shape[0] != state.modes.shape[0]:
        raise ValueError(
            f"batch rows {a_new.shape[0]} != mode rows {state.modes.shape[0]}"
        )
    return _update(ctx, state.carried_modes, state.carried_values,
                   state.total_rows, a_new, config, workspace)


def stream_all(ctx, batches, config):
    """Drive a whole pass over this rank's rows of the batches, in one
    workspace: incorporate each batch, the first into no state, and check
    the final block's orthonormality once more. A BatchSource reads
    each batch into the workspace columns next to the carried block.
    Returns (final_state, history) on every rank, where history lists the
    K singular values after every step, the initial one included."""
    workspace = Workspace(config.k_modes + config.buffer_columns)
    state = None

    def slot(width):
        u = np.empty((batches.rows, 0)) if state is None \
            else state.carried_modes
        return workspace.load(u, width)[:, -width:]

    source = batches.batches(slot) if isinstance(batches, BatchSource) \
        else batches
    history = []
    for batch in source:
        state = stream_incorporate(ctx, state, batch, config, workspace)
        history.append(state.singular_values.copy())
    if state is None:
        raise ValueError("batch stream is empty")
    state = _settle(ctx, state)
    history[-1] = state.singular_values.copy()
    return state, history
