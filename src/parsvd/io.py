"""Matrix files, column-batch readers, and CSV/SVG result emitters.

The binary matrix format is fixed and versioned by its magic:

    [8 bytes magic "PARSVD01"][u64 rows][u64 cols][rows*cols float64]

little endian, payload in column-major order so that a column batch is one
contiguous span and streaming readers never touch columns they do not need.
Every reader first checks that the file's size matches its header exactly,
so a truncated or oversized file is refused before any payload is read.
Payloads move between the file and numpy memory directly: the writer hands
the file a view of each column-major block (copying only an input in
another layout), and the readers `readinto` a column-major result (or the
caller's column-major array), one call for a full-height window and one per
column for a row window.

CSV emitters print 17 significant digits, enough for float64 round trips;
re-reading an emitted file reproduces the array bit for bit. The SVG emitter
is deliberately dependency-free and deterministic: equal inputs give
byte-equal files.
"""

import os
import struct

import numpy as np

from .errors import MatrixFormatError
from .linalg import as_matrix

MAGIC = b"PARSVD01"
FILE_HEADER = struct.Struct("<8sQQ")


def write_matrix(path, a):
    """Write one matrix to `path` in the binary format above."""
    a = as_matrix(a, "a", allow_empty=True)
    write_matrix_blocks(path, a.shape, [a])


def write_matrix_blocks(path, shape, blocks):
    """Write the matrix of `shape` to `path` from `blocks`, its column
    blocks left to right, each taken from the iterable as the file needs
    it, so the whole matrix need never be in memory. When the blocks or
    the write fail, the file is removed: a failed write leaves no file."""
    rows, cols = shape
    fh = open(path, "wb")
    try:
        with fh:
            fh.write(FILE_HEADER.pack(MAGIC, rows, cols))
            written = 0
            for block in blocks:
                # a column-major float64 block is not copied
                block = np.asfortranarray(block, dtype=np.float64)
                if block.ndim != 2 or block.shape[0] != rows:
                    raise ValueError(
                        f"block of shape {block.shape} in a matrix of "
                        f"{rows} rows"
                    )
                # its transpose is C-contiguous, the layout a buffer
                # export needs
                fh.write(memoryview(block.T))
                written += block.shape[1]
            if written != cols:
                raise ValueError(f"blocks hold {written} columns, not {cols}")
    except BaseException:
        os.unlink(path)
        raise


def _read_file_header(fh, path):
    """Shape of the open matrix file `fh`. The file's size must match the
    header exactly: a truncated payload, or trailing bytes, raise."""
    head = fh.read(FILE_HEADER.size)
    if len(head) < FILE_HEADER.size:
        raise MatrixFormatError(
            f"{path}: file is {len(head)} bytes, header needs {FILE_HEADER.size}"
        )
    magic, rows, cols = FILE_HEADER.unpack(head)
    if magic != MAGIC:
        raise MatrixFormatError(
            f"{path}: bad magic {magic!r}, expected {MAGIC!r}"
        )
    expected = 8 * rows * cols
    size = os.fstat(fh.fileno()).st_size - FILE_HEADER.size
    if size != expected:
        raise MatrixFormatError(
            f"{path}: payload is {size} bytes, header promises {expected} "
            f"for shape ({rows}, {cols})"
        )
    return rows, cols


def read_matrix_header(path):
    """Shape (rows, cols) recorded in a matrix file, after checking that
    the payload has exactly the size the header promises."""
    with open(path, "rb") as fh:
        return _read_file_header(fh, path)


def read_submatrix(path, row_start, row_stop, col_start, col_stop, out=None):
    """Read the half-open block [row_start:row_stop, col_start:col_stop]
    without loading the rest of the file. `out`, when given, is the
    column-major float64 array of the block's shape that receives it (such
    as columns of a streaming workspace), and is returned. A file that
    shrinks after its header is checked raises MatrixFormatError."""
    with open(path, "rb") as fh:
        rows, cols = _read_file_header(fh, path)
        if not (0 <= row_start <= row_stop <= rows):
            raise ValueError(
                f"row range [{row_start}, {row_stop}) outside [0, {rows})"
            )
        if not (0 <= col_start <= col_stop <= cols):
            raise ValueError(
                f"column range [{col_start}, {col_stop}) outside [0, {cols})"
            )
        n_rows = row_stop - row_start
        n_cols = col_stop - col_start
        if out is None:
            out = np.empty((n_rows, n_cols), dtype="<f8", order="F")
        elif (out.shape != (n_rows, n_cols) or out.dtype != np.float64
              or not out.flags.f_contiguous):
            raise ValueError(
                f"out must be a column-major float64 array of shape "
                f"{(n_rows, n_cols)}, got {out.dtype} {out.shape}"
            )
        if out.size == 0:
            return out
        if n_rows == rows:
            # full-height block: one contiguous span
            spans = [(col_start, out.T)]
        else:
            spans = [(col, out[:, j])
                     for j, col in enumerate(range(col_start, col_stop))]
        for col, dest in spans:
            fh.seek(FILE_HEADER.size + 8 * (rows * col + row_start))
            if fh.readinto(dest) != dest.nbytes:
                raise MatrixFormatError(f"{path}: file ends inside the payload")
    return out


class BatchSource:
    """Iterates a matrix file as column batches of a nominal width.

    Columns are read as needed from the file, opened on demand, so the
    whole matrix never resides in memory. The source may be limited to the
    half-open row window `rows=(lo, hi)`, one rank's slice of the file;
    `rows` is then the window's height. The final batch is narrower when
    the width does not divide the column count. A matrix in memory needs
    no source: stream_all takes a list of its column slices.
    """

    def __init__(self, path, batch_columns, rows=None):
        if batch_columns < 1:
            raise ValueError(f"batch_columns must be >= 1, got {batch_columns}")
        self._path = path
        self.batch_columns = batch_columns
        total, self.cols = read_matrix_header(path)
        self._window = (0, total) if rows is None else rows
        lo, hi = self._window
        if not 0 <= lo <= hi <= total:
            raise ValueError(f"row window [{lo}, {hi}) outside [0, {total})")
        self.rows = hi - lo

    def __iter__(self):
        """The column batches, in order."""
        return self.batches()

    def batches(self, into=None):
        """The column batches, in order. `into(width)`, when given, returns
        the column-major array each batch is read into, such as the columns
        next to the carried block in a streaming workspace; it is called
        just before that batch is needed."""
        width = self.batch_columns
        for start in range(0, self.cols, width):
            stop = min(start + width, self.cols)
            out = None if into is None else into(stop - start)
            yield read_submatrix(self._path, *self._window, start, stop,
                                 out=out)


def _write_csv(path, header, table):
    """Write a header line, then one line per table row with every value
    in 17 significant digits."""
    # one % over the flattened table formats every row in a single call
    line = ",".join(["%.17g"] * table.shape[1]) + "\n"
    with open(path, "w") as fh:
        fh.write(header + "\n"
                 + (line * table.shape[0]) % tuple(table.ravel().tolist()))


def write_singular_values_csv(path, values):
    """Columns: index,sigma. One row per value, 17 significant digits."""
    values = np.asarray(values, dtype=np.float64)
    _write_csv(path, "index,sigma",
               np.column_stack([np.arange(values.size), values]))


def read_singular_values_csv(path):
    with open(path) as fh:
        header = fh.readline()
        if not header.startswith("index,"):
            raise MatrixFormatError(f"{path}: unexpected header {header!r}")
        return np.array([float(line.split(",")[1]) for line in fh if line.strip()])


def write_modes_csv(path, grid, modes):
    """Columns: grid,mode_1..mode_K. One row per grid point."""
    grid = np.asarray(grid, dtype=np.float64)
    modes = as_matrix(modes, "modes")
    if grid.ndim != 1 or grid.size != modes.shape[0]:
        raise ValueError(
            f"grid length {grid.size} does not match {modes.shape[0]} mode rows"
        )
    names = ",".join(f"mode_{j + 1}" for j in range(modes.shape[1]))
    _write_csv(path, f"grid,{names}", np.column_stack([grid, modes]))


def read_modes_csv(path):
    """Inverse of write_modes_csv; returns (grid, modes)."""
    with open(path) as fh:
        header = fh.readline()
        if not header.startswith("grid,"):
            raise MatrixFormatError(f"{path}: unexpected header {header!r}")
        rows = [line.split(",") for line in fh if line.strip()]
    if not rows:
        raise MatrixFormatError(f"{path}: no data rows")
    data = np.array([[float(v) for v in row] for row in rows])
    return data[:, 0], data[:, 1:]


def write_history_csv(path, history):
    """Columns: iteration,sigma_1..sigma_K; one row per streaming step."""
    history = as_matrix(history, "history")
    names = ",".join(f"sigma_{j + 1}" for j in range(history.shape[1]))
    _write_csv(path, f"iteration,{names}",
               np.column_stack([np.arange(history.shape[0]), history]))


_SVG_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def write_mode_svg(path, grid, modes, width=720, height=420):
    """Plot mode columns against the grid as one SVG polyline each.

    No plotting dependency, no timestamps, no randomness: the output bytes
    depend only on the inputs. Axis extents are labelled with %.6g.
    """
    grid = np.asarray(grid, dtype=np.float64)
    modes = as_matrix(modes, "modes")
    if grid.ndim != 1 or grid.size != modes.shape[0]:
        raise ValueError(
            f"grid length {grid.size} does not match {modes.shape[0]} mode rows"
        )
    margin = 56
    x_lo, x_hi = float(np.min(grid)), float(np.max(grid))
    y_lo, y_hi = float(np.min(modes)), float(np.max(modes))
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0
    xs = margin + (grid - x_lo) / x_span * (width - 2 * margin)
    # The x coordinates are shared: format them once, leaving a %.2f slot
    # after each for the y value of every mode.
    x_part = " ".join(["%.2f,%%.2f"] * xs.size) % tuple(xs.tolist())

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<text x="{margin}" y="{height - margin + 18}" font-size="11" '
        f'text-anchor="middle">{x_lo:.6g}</text>',
        f'<text x="{width - margin}" y="{height - margin + 18}" '
        f'font-size="11" text-anchor="middle">{x_hi:.6g}</text>',
        f'<text x="{margin - 6}" y="{height - margin}" font-size="11" '
        f'text-anchor="end">{y_lo:.6g}</text>',
        f'<text x="{margin - 6}" y="{margin + 4}" font-size="11" '
        f'text-anchor="end">{y_hi:.6g}</text>',
    ]
    for j in range(modes.shape[1]):
        color = _SVG_COLORS[j % len(_SVG_COLORS)]
        ys = (height - margin) - (modes[:, j] - y_lo) / y_span * (height - 2 * margin)
        points = x_part % tuple(ys.tolist())
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.2" '
            f'points="{points}"/>'
        )
        parts.append(
            f'<text x="{width - margin + 4}" y="{margin + 14 * j + 4}" '
            f'font-size="11" fill="{color}">mode {j + 1}</text>'
        )
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")
