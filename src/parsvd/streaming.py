"""Streaming truncated SVD over column batches.

Maintains the K leading left singular vectors of everything seen so far
without storing past columns. The update carries a block U of up to K + p
orthonormal columns with their singular values s (p = buffer_columns) and
reports the leading K of them. Each new batch A is projected onto U, only
the m x b residual is QR-factored, and the SVD of a small matrix rotates
the widened basis:

    initialize:  A0 = Q R,  R = U' D0 V0^T,  U0 = (Q U')[:, :K+p]
    incorporate: C = U^T A,  A - U C = Q R,
                 [[ff diag(s), C], [0, R]] = U~ D V~^T,
                 U_i = [U Q] U~[:, :K+p],  s_i = D[:K+p]

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

The update reaches across ranks in two places only: sums of small matrices
and the QR of the tall residual. `StreamKernels` names both. The serial
functions here pass the identity and qr_factor; dsvd passes a sum that
rank 0 gathers and broadcasts, and its tall-skinny QR, so at world size 1
both paths run the same arithmetic.

The update does not form the residual's Q to rotate it. Both QRs return
a QrResult, which writes Q x as B c(x) plus a correction to its first
rows: B holds the Householder vectors of a residual wider than
QR_PANEL_COLUMNS, and LAPACK's formed Q for a narrower one. So [U Q] U~
is one product of the stacked [U | B] with the rotation's top rows and c
of its bottom rows, the same shape as a product over [U | Q].
"""

from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .linalg import _product, as_matrix, qr_factor, svd_full

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
    """Current estimate: modes (m x K), their singular values (descending,
    length K), and the number of incorporate calls.

    carried_modes and carried_values hold the whole block the update
    carries, up to K + buffer_columns columns whose leading K are modes and
    singular_values. A state built without them carries just its modes.
    total_rows is the row count of the whole matrix, which caps the carried
    width; a state built without it has it summed over ranks by its next
    update. Under dsvd, modes and carried_modes are this rank's rows.

    The columns are orthonormal to ORTHO_DRIFT_TOL in the states that
    stream_all and parallel_stream_all return. A state straight out of an
    incorporate call may have drifted further when its batch lay in
    span(modes) up to a small residual; the next update repairs that
    before it uses the block.
    """

    modes: np.ndarray
    singular_values: np.ndarray
    iteration: int
    carried_modes: Optional[np.ndarray] = None
    carried_values: Optional[np.ndarray] = None
    total_rows: Optional[int] = None


class StreamKernels(NamedTuple):
    """The two operations of an update that span ranks.

    total(x)  sum of a small matrix over all ranks, returned on every rank
    qr(a)     QrResult of the row-stacked matrix whose local rows are a: r,
              and this rank's rows of q, which it can apply to a small
              matrix without forming them
    """

    total: Callable
    qr: Callable


def _serial_kernels():
    # qr_factor is looked up per call, so timing wrappers installed on the
    # module namespace (perfbench/tracer.py) see it.
    return StreamKernels(lambda x: x, qr_factor)


def _state(basis, values, k, iteration, rows):
    return StreamState(basis[:, :k], values[:k], iteration, basis, values,
                       rows)


def _total_rows(local_rows, kernels):
    return int(kernels.total(np.array([[float(local_rows)]]))[0, 0])


def _carried(state):
    if state.carried_modes is None:
        return state.modes, state.singular_values
    return state.carried_modes, state.carried_values


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


def _initialize(a0, config, kernels, name):
    """Shared body of stream_initialize and its distributed counterpart."""
    a0 = as_matrix(a0, name)
    k = config.k_modes
    if a0.shape[1] < k:
        raise ValueError(
            f"initial batch has {a0.shape[1]} columns, need at least k_modes={k}"
        )
    qr = kernels.qr(a0)
    res = svd_full(qr.r, want_vt=False)
    keep = _keep(res.s, qr.r.shape, config, qr.r.shape[0])
    return _state(qr.apply(res.u[:, :keep]), res.s[:keep], k, 0,
                  _total_rows(a0.shape[0], kernels))


def _reorthonormalize(u, gram, kernels):
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
    q, tri = kernels.qr(u)
    return q, None, tri


def _incorporate(state, a_new, config, kernels, name):
    """Shared body of stream_incorporate and its distributed counterpart."""
    a_new = as_matrix(a_new, name)
    k = config.k_modes
    if state.modes.shape[1] != k:
        raise ValueError(
            f"state carries {state.modes.shape[1]} modes, config wants {k}"
        )
    if a_new.shape[0] != state.modes.shape[0]:
        raise ValueError(
            f"batch rows {a_new.shape[0]} != mode rows {state.modes.shape[0]}"
        )
    u, s = _carried(state)
    width = u.shape[1]
    rows = state.total_rows
    if rows is None:
        rows = _total_rows(a_new.shape[0], kernels)
    # One rank sum carries the drift check U^T U and the projection U^T A.
    head = np.empty((width, width + a_new.shape[1]))
    head[:, :width] = u.T @ u
    head[:, width:] = u.T @ a_new
    head = kernels.total(head)
    coeff = head[:, width:]
    top = np.diag(config.forget_factor * s)
    fold = None
    if _drift(head[:, :width]) > ORTHO_DRIFT_TOL:
        # U diag(s) = (U fold) (T diag(s)): the re-orthonormalized block
        # enters the small matrix through its triangular factor T.
        u, fold, tri = _reorthonormalize(u, head[:, :width], kernels)
        top = tri * (config.forget_factor * s)
        if fold is None:
            coeff = kernels.total(u.T @ a_new)
        else:
            coeff = fold.T @ coeff
    resid = _product(u, coeff if fold is None else fold @ coeff)
    np.subtract(a_new, resid, out=resid)
    qr = kernels.qr(resid)
    r = qr.r
    small = np.zeros((width + r.shape[0], width + a_new.shape[1]))
    small[:width, :width] = top
    small[:width, width:] = coeff
    small[width:, width:] = r
    res = svd_full(small, want_vt=False)
    keep = _keep(res.s, small.shape, config, rows)
    lift = res.u[:, :keep]
    lift_top = lift[:width] if fold is None else fold @ lift[:width]
    basis = qr.apply(lift[width:], u, lift_top)
    return _state(basis, res.s[:keep], k, state.iteration + 1, rows)


def _settle(state, kernels):
    """Check the orthonormality of the carried block once more, after the
    last batch, and re-orthonormalize it if it drifted. The incorporate
    steps only check the block they receive."""
    u, s = _carried(state)
    gram = kernels.total(u.T @ u)
    if _drift(gram) <= ORTHO_DRIFT_TOL:
        return state
    u, fold, tri = _reorthonormalize(u, gram, kernels)
    res = svd_full(tri * s, want_vt=False)
    rotation = res.u if fold is None else fold @ res.u
    return _state(_product(u, rotation), res.s, state.modes.shape[1],
                  state.iteration, state.total_rows)


def _drive(batches, start, step, settle):
    """Initialize on the first batch, incorporate the rest, settle the last
    state. Returns (final_state, history) where history lists the K values
    after every step, the initial one included."""
    state = None
    history = []
    for batch in batches:
        state = start(batch) if state is None else step(state, batch)
        history.append(state.singular_values.copy())
    if state is None:
        raise ValueError("batch stream is empty")
    state = settle(state)
    history[-1] = state.singular_values.copy()
    return state, history


def stream_initialize(a0, config):
    """Build the initial state from the first batch.

    a0 needs at least k_modes columns; fewer would leave the mode block
    rank-deficient from the start.
    """
    return _initialize(a0, config, _serial_kernels(), "a0")


def stream_incorporate(state, a_new, config):
    """Fold one new batch into the state; returns the updated state.

    The batch may have any positive column count but must match the row
    dimension of the existing modes. A state whose carried block has lost
    orthonormality past ORTHO_DRIFT_TOL is re-orthonormalized first. The
    block returned is not checked again: where the batch lay in span(modes)
    up to a small residual it may have drifted, and only the next update or
    stream_all's final check repairs it.
    """
    return _incorporate(state, a_new, config, _serial_kernels(), "a_new")


def stream_all(batches, config):
    """Drive a whole pass: initialize on the first batch, incorporate the
    rest, and check the final block's orthonormality once more. Returns
    (final_state, history) where history lists the singular values after
    every step, the initial one included."""
    return _drive(
        batches,
        lambda batch: stream_initialize(batch, config),
        lambda state, batch: stream_incorporate(state, batch, config),
        lambda state: _settle(state, _serial_kernels()),
    )
