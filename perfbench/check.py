"""Output checks of the benchmark, in a process of their own.

    python perfbench/check.py reference MATRIX.bin REF.npz K
    python perfbench/check.py result OUTDIR REF.npz TOLERANCE
    python perfbench/check.py versions

``reference`` stores the K leading singular values and left vectors of a
matrix file from numpy's dense SVD; the file is read with numpy, not with
the package under test. ``result`` checks one result directory against it
and prints ``{"problems": [...], "sigma_err": x, "mode_err": y}``: the
singular values must be finite, positive and non-increasing, the modes
orthonormal to ORTHO_TOL, and both errors within TOLERANCE. ``versions``
prints the numpy and BLAS versions.

run.py keeps numpy out of its own process because a child's peak RSS, as
wait4 reports it, is never below its parent's: a large parent would hide
the peak memory of the runs it measures.
"""

import json
import sys

import numpy as np

ORTHO_TOL = 1e-8


def reference(matrix_path, out_path, k):
    with open(matrix_path, "rb") as fh:
        rows, cols = np.frombuffer(fh.read(24)[8:], dtype="<u8")
        a = np.fromfile(fh, dtype="<f8").reshape((int(cols), int(rows))).T
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    np.savez(out_path, u=u[:, :k], s=s[:k])


def check_result(outdir, ref_path, tolerance):
    ref = np.load(ref_path)
    u_ref, s_ref = ref["u"], ref["s"]
    try:
        values = np.loadtxt(f"{outdir}/singular_values.csv", delimiter=",",
                            skiprows=1, ndmin=2)[:, 1]
        modes = np.loadtxt(f"{outdir}/modes.csv", delimiter=",", skiprows=1,
                           ndmin=2)[:, 1:]
    except (OSError, ValueError) as exc:
        return {"problems": [f"unreadable results: {exc}"]}
    if values.shape != s_ref.shape or modes.shape != u_ref.shape:
        return {"problems": [f"result shapes {values.shape}, {modes.shape}"]}
    problems = []
    if not (np.all(np.isfinite(values)) and np.all(np.isfinite(modes))):
        problems.append("non-finite result")
    if np.any(values <= 0) or np.any(np.diff(values) > 0):
        problems.append(f"singular values not positive and descending: {values}")
    drift = float(np.max(np.abs(modes.T @ modes - np.eye(modes.shape[1]))))
    if not drift <= ORTHO_TOL:
        problems.append(f"modes not orthonormal: {drift:.3e}")
    sigma_err = float(np.max(np.abs(values - s_ref) / s_ref))
    signs = np.sign(np.sum(modes * u_ref, axis=0))
    signs[signs == 0] = 1.0
    mode_err = float(np.max(np.abs(modes * signs - u_ref)))
    if not (sigma_err <= tolerance and mode_err <= tolerance):
        problems.append(
            f"errors {sigma_err:.3e} / {mode_err:.3e} exceed {tolerance:g}")
    return {"problems": problems, "sigma_err": sigma_err, "mode_err": mode_err}


def versions():
    out = {"numpy": np.__version__, "blas": None}
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        out["blas"] = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError):
        pass
    return out


def main(argv):
    if argv[:1] == ["reference"] and len(argv) == 4:
        reference(argv[1], argv[2], int(argv[3]))
    elif argv[:1] == ["result"] and len(argv) == 4:
        print(json.dumps(check_result(argv[1], argv[2], float(argv[3]))))
    elif argv == ["versions"]:
        print(json.dumps(versions()))
    else:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
