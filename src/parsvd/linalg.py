"""Dense factorizations: QR, SVD, and randomized low-rank approximation.

Everything here works on 2-D float64 arrays and follows two sign conventions
so that repeated runs and independently computed factorizations agree:

* QR: the diagonal of R is non-negative.
* SVD: in each column of U the entry of largest magnitude is positive.

Randomness enters only through `RandomSketchConfig.seed`, which drives a
counter-based Philox generator, so sketches are reproducible across runs and
machines.

`qr_factor` is the package's Householder QR: LAPACK's compact-WY QR
`dgeqrt` with one block as wide as the input, which makes it one call of
the recursive `dgeqrt3` (Elmroth & Gustavson, 2000; Schreiber & Van Loan,
1989), from the OpenBLAS numpy loaded. That does most of its work in GEMMs
on wide inputs such as the streaming update's 16384 x 100 residual. It
keeps Q as those reflectors, as the TSQR of Demmel, Grigori, Hoemmen &
Langou (2012) keeps Q implicit, and forms it only when it is read. A numpy
without that symbol gets the same factors, at rounding level and more
slowly on wide inputs, from `np.linalg.qr` and LAPACK's `dlarft`
recurrence (README, "Numerical notes").

The APMOS local step needs only the leading eigenvectors of a Gram
matrix. `_top_eigenvectors` takes just those from LAPACK's `dsyevr`, from
the same library, where `np.linalg.eigh` would compute all of them, and
falls back to `eigh` without that symbol. Both routines are called
through ctypes (`_lapack_call`), which passes integers, doubles, arrays
and one-character options by reference, as Fortran expects, and each
option's length after the other arguments.

`blas_thread_budget` divides the CPUs among the ranks of a world that runs
on one host, by setting the thread count of the OpenBLAS numpy uses.
"""

import contextlib
import ctypes
import functools
import os
import threading
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .errors import ConvergenceError


class SvdResult(NamedTuple):
    u: np.ndarray
    s: np.ndarray
    vt: Optional[np.ndarray]


@dataclass(frozen=True)
class RandomSketchConfig:
    """Parameters of the randomized range finder.

    target_rank      rank of the approximation that is kept
    oversampling     extra sketch columns beyond target_rank
    power_iterations subspace iteration count (0 = plain sketch)
    seed             Philox seed for the Gaussian test matrix
    """

    target_rank: int
    oversampling: int = 10
    power_iterations: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.target_rank < 1:
            raise ValueError(f"target_rank must be >= 1, got {self.target_rank}")
        if self.oversampling < 0:
            raise ValueError(f"oversampling must be >= 0, got {self.oversampling}")
        if self.power_iterations < 0:
            raise ValueError(
                f"power_iterations must be >= 0, got {self.power_iterations}"
            )
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")

    @property
    def sketch_width(self):
        return self.target_rank + self.oversampling


def as_matrix(a, name="a", allow_empty=False, check_finite=True):
    """Coerce to a float64 2-D array, rejecting non-finite entries.

    Zero-sized dimensions are rejected unless allow_empty is set; the comm
    layer is the only caller that legitimately moves empty matrices.
    check_finite=False skips the scan for non-finite entries, for arrays
    built from inputs that were already scanned.
    """
    arr = np.asarray(a, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got {arr.ndim}-D")
    if not allow_empty and min(arr.shape) < 1:
        raise ValueError(f"{name} must have positive dimensions, got {arr.shape}")
    if check_finite and arr.size and not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def _positive_column_signs(u, vt):
    """Flip column signs of u (and matching rows of vt) so the largest-|.|
    entry of every u column is positive. Ties keep the lower row index, which
    argmax already guarantees."""
    idx = np.argmax(np.abs(u), axis=0)
    signs = np.sign(u[idx, np.arange(u.shape[1])])
    signs[signs == 0.0] = 1.0
    return u * signs, vt * signs[:, None]


def _product(u, c, out=None):
    """u @ c laid out column-major, written into `out` when given.

    Tall operands here (matrix-file batches, the streaming workspace, QR
    reflectors) are column-major, so the product is taken as (c^T u^T)^T:
    BLAS then streams whole columns of u, and the result is column-major
    too. A row-major tall result would make the next LAPACK call copy it
    into column order first. `out` must be column-major; the product is
    the same BLAS call either way.
    """
    if out is None:
        return (c.T @ u.T).T
    np.matmul(c.T, u.T, out=out.T)
    return out


def _householder(a, r):
    """Householder QR of a tall block, in compact WY form, in place.

    a (m x n with m >= n, column-major) is overwritten with the reflector
    vectors V, unit lower trapezoidal (ones on the diagonal, zeros above
    it), and r receives the triangular factor. Returns the n x n upper
    triangular T with H_1 ... H_n = I - V T V^T, so that the input equals
    (I - V T V^T) [r; 0].

    LAPACK's dgeqrt with one block of all n columns factors it by one call
    of dgeqrt3, the recursive QR of Elmroth & Gustavson (2000). Without
    dgeqrt, LAPACK's QR factors the block as one panel and T follows from
    LAPACK's dlarft recurrence.
    """
    m, n = a.shape
    t = np.zeros((n, n), order="F")
    if _lapack("dgeqrt") is not None:
        _lapack_call("dgeqrt", m, n, n, a, m, t, n,
                     np.empty((n, n), order="F"))
        np.copyto(r, np.triu(a[:n]))
        a[:n] = np.tril(a[:n], -1) + np.eye(n)
        return t
    h, tau = np.linalg.qr(a, mode="raw")
    h = h.T
    np.copyto(r, np.triu(h[:n]))
    np.copyto(a[n:], h[n:])
    a[:n] = np.tril(h[:n], -1) + np.eye(n)
    # Forward recurrence of LAPACK's dlarft; a zero tau (a zero column)
    # gives a zero column of T, that is H_i = I.
    gram = a.T @ a
    for i in range(n):
        t[:i, i] = -tau[i] * (t[:i, :i] @ gram[:i, i])
        t[i, i] = tau[i]
    return t


def _diagonal_signs(r):
    """Signs that make diag(r) non-negative; a zero entry keeps sign +1."""
    d = np.sign(np.diag(r))
    d[d == 0.0] = 1.0
    return d


class QrResult:
    """Reduced QR factors: the triangular r, and q formed on demand.

    q is held as reflectors, wy = (T, d): `basis` is the unit lower
    trapezoidal V of the compact-WY form, and q = ([I; 0] - V T V[:k]^T)
    diag(d). parallel_qr's result holds that q times a small matrix on the
    `right`: the local factor's q times this rank's slice of the stacked
    factor's q.

    `apply` multiplies by q without forming it. Reading `q`, or unpacking
    the result as `q, r`, forms q once and keeps it.
    """

    def __init__(self, basis, r, wy, right=None):
        self.basis = basis
        self.r = r
        self.wy = wy
        self.right = right
        self._q = None

    def apply(self, x, out=None, tall=None, tall_x=None):
        """q @ x, column-major, without forming q; written into `out` when
        given.

        q @ x is basis @ c with the head d x added to its first rows, c =
        -T V[:k]^T d x. `tall`, when given, is a column-major [L | basis]
        whose last columns are this result's basis in place, as qr_factor's
        overwrite_a leaves it next to the carried block in a streaming
        workspace. The result is then L @ tall_x + q @ x, through one
        product over tall: at a few columns that product is memory-bound,
        and a second tall one would cost more than it saves.
        """
        if self.right is not None:
            x = self.right @ x
        t, d = self.wy
        head = d[:, None] * x
        x = -(t @ (self.basis[:t.shape[0]].T @ head))
        if tall is None:
            tall = self.basis
        else:
            x = np.concatenate([tall_x, x])
        out = _product(tall, x, out)
        out[:head.shape[0]] += head
        return out

    @property
    def q(self):
        if self._q is None:
            t, d = self.wy
            k = t.shape[0]
            q = _product(self.basis, (t @ self.basis[:k].T) * -d)
            diag = np.arange(k)
            q[diag, diag] += d
            self._q = q if self.right is None else q @ self.right
        return self._q

    def __iter__(self):
        return iter((self.q, self.r))


def qr_factor(a, overwrite_a=False, check_finite=True):
    """Reduced QR factorization with diag(r) >= 0.

    Returns a QrResult whose q, of shape (m, min(m, n)), has orthonormal
    columns and whose r is upper triangular, such that q @ r reconstructs
    a. The result is deterministic for a given BLAS thread count.

    LAPACK's dgeqrt factors the leading k = min(m, n) columns as one block
    (`_householder`), and q stays in the reflector form of QrResult
    until it is read, with d the signs that make r's diagonal
    non-negative. A wide input (n > m) sets r[:, k:] = q^T a[:, k:].

    overwrite_a lets a writable column-major float64 `a` hold the work:
    its first k columns are overwritten with the reflectors, which the
    result then reads in place, so it stays valid while those columns do.
    Other inputs are copied as usual. check_finite=False skips the scan for
    non-finite entries, for callers whose input is known to be finite.
    """
    a = as_matrix(a, check_finite=check_finite)
    m, n = a.shape
    k = min(m, n)
    in_place = overwrite_a and a.flags.f_contiguous and a.flags.writeable
    work = a[:, :k] if in_place else np.array(a[:, :k], order="F")
    r = np.zeros((k, n))
    t = _householder(work, r[:, :k])
    d = _diagonal_signs(r)
    r[:, :k] *= d[:, None]
    res = QrResult(work, r, (t, d))
    if n > k:
        r[:, k:] = res.q.T @ a[:, k:]
    return res


def svd_full(a, want_vt=True):
    """Thin SVD of a dense matrix.

    Returns SvdResult(u, s, vt) with s in descending order and the column
    sign convention applied. Pass want_vt=False to drop the right vectors
    (vt is then None); u and s are unchanged by that choice.
    """
    a = as_matrix(a)
    try:
        u, s, vt = np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(
            f"SVD did not converge for {a.shape[0]}x{a.shape[1]} input "
            f"(Frobenius norm {np.linalg.norm(a):.6e})"
        ) from exc
    u, vt = _positive_column_signs(u, vt)
    return SvdResult(u, s, vt if want_vt else None)


def randomized_range(a, config):
    """Orthonormal basis for the approximate range of a, via a Gaussian sketch.

    Draws a (n, target_rank + oversampling) test matrix from Philox(seed),
    forms y = a @ omega, and improves it with `power_iterations` rounds of
    subspace iteration, re-orthonormalizing by QR after every product so the
    basis does not collapse onto the leading mode. Returns the q factor of
    the final sketch, shape (m, sketch_width).
    """
    a = as_matrix(a)
    width = config.sketch_width
    if width > min(a.shape):
        raise ValueError(
            f"sketch width {width} exceeds min(a.shape) = {min(a.shape)}"
        )
    rng = np.random.Generator(np.random.Philox(config.seed))
    omega = rng.standard_normal((a.shape[1], width))
    q = qr_factor(a @ omega).q
    for _ in range(config.power_iterations):
        q = qr_factor(a.T @ q).q
        q = qr_factor(a @ q).q
    return q


def low_rank_svd(a, config):
    """Randomized truncated SVD: project onto the sketched range, factor there.

    b = q^T a is (sketch_width, n); its exact SVD lifts back through q. The
    result is truncated to target_rank columns and carries the usual sign
    convention. Accuracy follows the sketch: exact for matrices of rank
    <= target_rank, near-optimal when the spectrum decays.
    """
    q = randomized_range(a, config)
    small = svd_full(q.T @ a, want_vt=True)
    k = config.target_rank
    u, vt = _positive_column_signs(q @ small.u[:, :k], small.vt[:k])
    return SvdResult(u, small.s[:k].copy(), vt)


def aligned_mode_difference(a, b):
    """Per-column max-abs difference between two mode matrices, after
    flipping each column of `a` to the sign that best matches `b`.

    Singular vectors are only defined up to sign, so raw subtraction would
    report spurious O(1) differences; this is the comparison every
    equivalence check in the package uses.
    """
    a = as_matrix(a, "a")
    b = as_matrix(b, "b")
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    signs = np.sign(np.sum(a * b, axis=0))
    signs[signs == 0.0] = 1.0
    return np.max(np.abs(a * signs - b), axis=0)


# Entry points of the OpenBLAS builds numpy ships with: scipy-openblas
# wheels, 64-bit-integer builds, plain builds. Each row names the (set,
# get) thread-count pair, the prefix and suffix that make a LAPACK routine's
# symbol ("dgeqrt" is "scipy_dgeqrt_64_" in the first row), and the
# integer type that LAPACK takes.
_OPENBLAS_API = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_",
     "scipy_", "_64_", ctypes.c_int64),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_",
     "", "_64_", ctypes.c_int64),
    ("openblas_set_num_threads", "openblas_get_num_threads",
     "", "_", ctypes.c_int32),
)


@functools.cache
def _numpy_lapack():
    """A handle to numpy's LAPACK extension module, or None, through which
    `getattr(handle, name, None)` then finds nothing.

    A handle to a loaded library also searches the libraries it was linked
    against, so symbols looked up through it are those of the BLAS and
    LAPACK numpy calls, and nothing new is loaded.
    """
    from numpy.linalg import _umath_linalg
    try:
        return ctypes.CDLL(_umath_linalg.__file__)
    except OSError:
        return None


@functools.cache
def _openblas_threads():
    """(set, get) thread-count functions of the OpenBLAS numpy loaded, or
    None when numpy uses another BLAS."""
    lib = _numpy_lapack()
    for set_name, get_name, *_ in _OPENBLAS_API:
        set_threads = getattr(lib, set_name, None)
        get_threads = getattr(lib, get_name, None)
        if set_threads is None or get_threads is None:
            continue
        set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
        get_threads.argtypes, get_threads.restype = [], ctypes.c_int
        return set_threads, get_threads
    return None


# The arguments of each LAPACK routine called here, INFO left out: "i" an
# integer, "a" a column-major float64 array, "I" an array of LAPACK's
# integer type, "d" a double and "c" a one-character option.
_LAPACK_ARGS = {"dgeqrt": "iiiaiaia",
                "dsyevr": "ccciaiddiidIaaiIaiIi"}


@functools.cache
def _lapack(routine):
    """(function, its integer type) for the LAPACK `routine`, a key of
    _LAPACK_ARGS, from the library numpy loaded, or None when that library
    does not export it. A ctypes call releases the GIL, so the simulated
    ranks' threads factor concurrently."""
    kinds = _LAPACK_ARGS[routine]
    for _, _, prefix, suffix, integer in _OPENBLAS_API:
        func = getattr(_numpy_lapack(), prefix + routine + suffix, None)
        if func is None:
            continue
        pointer = ctypes.POINTER(integer)
        by_kind = {"i": pointer, "d": ctypes.POINTER(ctypes.c_double),
                   "c": ctypes.c_char_p}
        # Fortran passes each character argument's length after the others.
        func.argtypes = ([by_kind.get(kind, ctypes.c_void_p) for kind in kinds]
                         + [pointer] + [ctypes.c_size_t] * kinds.count("c"))
        func.restype = None
        return func, integer
    return None


def _lapack_call(routine, *args):
    """Call the LAPACK `routine`, which `_lapack` must have found, with
    `args`, then its INFO and the lengths of its character options, and
    return INFO. Each array must be column-major, of float64 or of LAPACK's
    integer type as _LAPACK_ARGS says: LAPACK reads and writes it by
    pointer, one column after another. A negative INFO, an illegal
    argument, raises RuntimeError; a positive one is the routine's own
    failure report, which its caller reads."""
    func, integer = _lapack(routine)
    kinds = _LAPACK_ARGS[routine]

    def argument(kind, x):
        if kind == "i":
            return integer(x)
        if kind == "d":
            return ctypes.c_double(x)
        if kind == "c":
            return x.encode()
        dtype = np.float64 if kind == "a" else np.dtype(integer)
        if not (x.flags.f_contiguous and x.dtype == dtype):
            raise ValueError(f"{routine} needs column-major "
                             f"{np.dtype(dtype)} arrays, "
                             f"got {x.shape} {x.dtype}")
        return x.ctypes.data

    info = integer(0)
    lengths = [1] * kinds.count("c")
    func(*map(argument, kinds, args), ctypes.byref(info), *lengths)
    if info.value < 0:
        raise RuntimeError(f"{func.__name__} returned info {info.value}")
    return info.value


def _top_eigenvectors(g, w):
    """The eigenvectors of the w largest eigenvalues of the symmetric g, in
    ascending order of eigenvalue, as np.linalg.eigh(g)[1][:, -w:] gives
    them, from g's lower triangle as eigh reads it.

    LAPACK's dsyevr reduces g to tridiagonal form, as eigh's dsyevd does,
    but then computes and back-transforms only the w eigenpairs asked for,
    with IL = n - w + 1 and IU = n. Its work arrays are sized by a
    workspace query: at the minimum, 26 n, the reduction runs unblocked. A
    numpy without the symbol takes eigh's full eigensolve. A failed
    eigensolve raises ConvergenceError.
    """
    n = g.shape[0]
    if _lapack("dsyevr") is None:
        return np.linalg.eigh(g)[1][:, -w:]
    ints = np.dtype(_lapack("dsyevr")[1])
    # Column-major, g^T holds a row-major g's memory as it is, and its
    # upper triangle is g's lower one.
    a = np.array(g.T, order="F")
    found = np.zeros(1, ints)
    values = np.empty(n)
    z = np.empty((n, w), order="F")
    support = np.empty(2 * w, ints)

    def dsyevr(work, iwork, lwork, liwork):
        return _lapack_call("dsyevr", "V", "I", "U", n, a, n, 0.0, 0.0,
                            n - w + 1, n, 0.0, found, values, z, n, support,
                            work, lwork, iwork, liwork)

    work, iwork = np.empty(1), np.empty(1, ints)
    dsyevr(work, iwork, -1, -1)
    lwork, liwork = int(work[0]), int(iwork[0])
    info = dsyevr(np.empty(lwork), np.empty(liwork, ints), lwork, liwork)
    if info:
        raise ConvergenceError(
            f"symmetric eigensolve did not converge for {n}x{n} input "
            f"(dsyevr info {info})"
        )
    return z


def _openblas_thread_count():
    """The OpenBLAS thread count in force now, or None when numpy uses
    another BLAS."""
    api = _openblas_threads()
    return None if api is None else api[1]()


def _available_cpus():
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class _BudgetHolders:
    """The budgets open in this process. The OpenBLAS thread count is one
    process-wide setting, so budgets entered by several threads at once
    share it: each may lower it, and the last one out restores the count
    the first one found."""

    def __init__(self):
        self.lock = threading.Lock()
        self.count = 0
        self.restore = None


_BUDGETS = _BudgetHolders()


@contextlib.contextmanager
def blas_thread_budget(world_size):
    """Run the body with at most cpus // world_size OpenBLAS threads.

    `world_size` ranks on one host each get an equal share of the CPUs this
    process may run on (at least one thread), and never more threads than
    OpenBLAS had on entry, so OPENBLAS_NUM_THREADS stays a cap. The
    previous count is restored on exit, also when the body raises; budgets
    that overlap in time restore the count from before the first of them
    when the last one exits. Without an OpenBLAS entry point this does
    nothing.
    """
    api = _openblas_threads()
    if api is None:
        yield
        return
    set_threads, get_threads = api
    with _BUDGETS.lock:
        current = get_threads()
        if _BUDGETS.count == 0:
            _BUDGETS.restore = current
        _BUDGETS.count += 1
        set_threads(max(1, min(current, _available_cpus() // world_size)))
    try:
        yield
    finally:
        with _BUDGETS.lock:
            _BUDGETS.count -= 1
            if _BUDGETS.count == 0:
                set_threads(_BUDGETS.restore)
