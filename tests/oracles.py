"""Independent reference implementations used only by the tests.

Everything here is deliberately written from first principles (explicit
loops, Jacobi rotations, struct-packed bytes, a time-stepping PDE solver) so
that a defect in the package cannot hide inside a shared code path. Slow is
fine; these run on small inputs.
"""

import struct

import numpy as np


def mgs_qr(a):
    """Reduced QR via modified Gram-Schmidt, diag(r) >= 0 by construction.

    Assumes the first min(m, n) columns are linearly independent, which all
    callers arrange.
    """
    a = np.array(a, dtype=np.float64)
    m, n = a.shape
    k = min(m, n)
    q = np.zeros((m, k))
    r = np.zeros((k, n))
    v = a.copy()
    for j in range(k):
        r[j, j] = np.sqrt(np.sum(v[:, j] * v[:, j]))
        q[:, j] = v[:, j] / r[j, j]
        for i in range(j + 1, n):
            r[j, i] = np.sum(q[:, j] * v[:, i])
            v[:, i] = v[:, i] - r[j, i] * q[:, j]
    return q, r


def jacobi_eigh(g, max_sweeps=60, tol=1e-14):
    """Eigendecomposition of a symmetric matrix by cyclic Jacobi rotations.

    Returns (eigenvalues, eigenvectors) sorted descending. Converges when
    the off-diagonal Frobenius mass drops below tol relative to the
    diagonal.
    """
    g = np.array(g, dtype=np.float64)
    n = g.shape[0]
    v = np.eye(n)
    for _ in range(max_sweeps):
        off = np.sqrt(np.sum(np.tril(g, -1) ** 2))
        scale = max(np.sqrt(np.sum(np.diag(g) ** 2)), 1e-300)
        if off <= tol * scale:
            break
        for p in range(n - 1):
            for q_ in range(p + 1, n):
                if g[p, q_] == 0.0:
                    continue
                tau = (g[q_, q_] - g[p, p]) / (2.0 * g[p, q_])
                if tau >= 0.0:
                    t = 1.0 / (tau + np.sqrt(1.0 + tau * tau))
                else:
                    t = -1.0 / (-tau + np.sqrt(1.0 + tau * tau))
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                gp, gq = g[:, p].copy(), g[:, q_].copy()
                g[:, p] = c * gp - s * gq
                g[:, q_] = s * gp + c * gq
                gp, gq = g[p, :].copy(), g[q_, :].copy()
                g[p, :] = c * gp - s * gq
                g[q_, :] = s * gp + c * gq
                vp, vq = v[:, p].copy(), v[:, q_].copy()
                v[:, p] = c * vp - s * vq
                v[:, q_] = s * vp + c * vq
    order = np.argsort(-np.diag(g), kind="stable")
    return np.diag(g)[order].copy(), v[:, order].copy()


def gram_singular_values(a):
    """Singular values of a via Jacobi on the (smaller) Gram matrix."""
    a = np.asarray(a, dtype=np.float64)
    g = a.T @ a if a.shape[0] >= a.shape[1] else a @ a.T
    lam, _ = jacobi_eigh(g)
    return np.sqrt(np.clip(lam, 0.0, None))


def matmul_loops(a, b):
    """Triple-loop matrix product."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for l in range(k):
                acc += a[i, l] * b[l, j]
            out[i, j] = acc
    return out


def subspace_angles(a, b):
    """Principal angles (radians, ascending) between the column spans of two
    matrices with equal row counts, from numpy's QR and singular values.
    Zero angles mean identical subspaces."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape[0] != b.shape[0]:
        raise ValueError(f"row mismatch: {a.shape} vs {b.shape}")
    qa = np.linalg.qr(a)[0]
    qb = np.linalg.qr(b)[0]
    cosines = np.linalg.svd(qa.T @ qb, compute_uv=False)
    return np.sort(np.arccos(np.clip(cosines, -1.0, 1.0)))


def row_partition(a, world_size):
    """Per-rank row blocks (copies, in rank order); the first rows %
    world_size ranks get one extra row, as `partition_bounds` promises."""
    a = np.asarray(a, dtype=np.float64)
    return [block.copy() for block in np.array_split(a, world_size, axis=0)]


def encode_matrix_reference(a):
    """Wire-format matrix bytes built entry by entry with struct."""
    a = np.asarray(a, dtype=np.float64)
    rows, cols = a.shape
    out = bytearray(struct.pack("<QQ", rows, cols))
    for j in range(cols):
        for i in range(rows):
            out += struct.pack("<d", a[i, j])
    return bytes(out)


def decode_matrix_reference(buf):
    rows, cols = struct.unpack_from("<QQ", buf, 0)
    out = np.zeros((rows, cols))
    offset = 16
    for j in range(cols):
        for i in range(rows):
            out[i, j] = struct.unpack_from("<d", buf, offset)[0]
            offset += 8
    return out


def frame_reference(tag, source, dest, a):
    """Full point-to-point frame bytes as TCP would carry them."""
    return struct.pack("<III", tag, source, dest) + encode_matrix_reference(a)


def matrix_file_reference(a):
    """Whole matrix-file image: magic, shape, column-major payload."""
    return b"PARSVD01" + encode_matrix_reference(a)


def burgers_initial_condition(x, re):
    """u(x, 0) = x / (1 + exp(re x^2 / 4 - re / 16)), overflow-safe."""
    x = np.asarray(x, dtype=np.float64)
    return x * np.exp(-np.logaddexp(0.0, re * x * x / 4.0 - re / 16.0))


def burgers_log_space(x, t, re):
    """u(x, t) = (x / (t + 1)) / (1 + sqrt((t + 1) / exp(re / 8))
    * exp(re x^2 / (4t + 4))), evaluated in log space: 1 / (1 + e^z) as
    exp(-logaddexp(0, z)), which never overflows. x and t broadcast."""
    x = np.asarray(x, dtype=np.float64)
    t = np.asarray(t, dtype=np.float64)
    z = 0.5 * (np.log1p(t) - re / 8.0) + re * x * x / (4.0 * (t + 1.0))
    return (x / (t + 1.0)) * np.exp(-np.logaddexp(0.0, z))


def fd_burgers(n_grid, t_end, re, length=1.0, cfl=0.4):
    """Explicit finite-difference solution of u_t + u u_x = (1/re) u_xx.

    Central differences for advection and diffusion, forward Euler in time
    with a CFL-limited step, Dirichlet zero at both ends (the right end is
    below 1e-60 for re = 1000, so pinning it costs nothing). Returns
    (x, u(x, t_end)). Second-order in space; refine until self-converged.
    """
    x = np.linspace(0.0, length, n_grid)
    dx = x[1] - x[0]
    nu = 1.0 / re
    u = burgers_initial_condition(x, re)
    t = 0.0
    while t < t_end:
        umax = max(np.max(np.abs(u)), 1e-12)
        dt = min(cfl * min(dx * dx / (2.0 * nu), dx / umax), t_end - t)
        adv = u[1:-1] * (u[2:] - u[:-2]) / (2.0 * dx)
        dif = nu * (u[2:] - 2.0 * u[1:-1] + u[:-2]) / (dx * dx)
        u[1:-1] = u[1:-1] + dt * (dif - adv)
        t += dt
    return x, u
