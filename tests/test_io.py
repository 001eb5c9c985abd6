"""Binary matrix files, batch readers, and CSV/SVG emitters."""

import os
import re

import numpy as np
import pytest

import oracles
import parsvd.io
from parsvd.errors import MatrixFormatError
from parsvd.io import (BatchSource, read_matrix_header, read_modes_csv,
                       read_singular_values_csv, read_submatrix,
                       write_history_csv, write_matrix_blocks, write_mode_svg,
                       write_modes_csv, write_singular_values_csv)

# Every reader checks the file's size against its header before it reads.
READERS = (read_matrix_header,
           lambda path: read_submatrix(path, 0, 1, 0, 1),
           lambda path: BatchSource(path, 1))


def _read_whole(path):
    rows, cols = read_matrix_header(path)
    return read_submatrix(path, 0, rows, 0, cols)


# ---------- binary format ----------

def test_matrix_file_round_trip_and_exact_bytes(tmp_path):
    rng = np.random.Generator(np.random.Philox(70))
    a = rng.standard_normal((7, 5))
    path = tmp_path / "a.bin"
    # C-ordered, F-ordered and strided inputs all write the column-major
    # payload, and read back column-major
    for arr in (a, np.asfortranarray(a), a[1::2, ::3], a.T[::-1]):
        write_matrix_blocks(path, arr.shape, [arr])
        assert path.read_bytes() == oracles.matrix_file_reference(arr)
        back = _read_whole(path)
        assert back.flags.f_contiguous
        assert np.array_equal(back, arr)
    assert read_matrix_header(path) == (5, 7)


def test_matrix_file_from_column_blocks(tmp_path):
    rng = np.random.Generator(np.random.Philox(74))
    a = rng.standard_normal((7, 9))
    path = tmp_path / "a.bin"
    # blocks of any width and layout, taken one at a time, write the bytes
    # of the whole matrix
    write_matrix_blocks(path, a.shape, iter([a[:, :4], a[:, 4:5].copy(),
                                             a[:, 5:]]))
    assert path.read_bytes() == oracles.matrix_file_reference(a)

    def failing_source():
        yield a[:, :4]
        raise RuntimeError("source failed")

    # too few or too many columns, a wrong height, or a failing source
    # leave no file, not a truncated one
    for blocks, error in (([a[:, :4]], ValueError), ([a, a[:, :1]], ValueError),
                          ([a[:6]], ValueError), (failing_source(), RuntimeError)):
        with pytest.raises(error):
            write_matrix_blocks(path, a.shape, blocks)
        assert not path.exists()


def test_matrix_file_empty(tmp_path):
    path = tmp_path / "empty.bin"
    for shape in ((0, 0), (3, 0)):
        write_matrix_blocks(path, shape, [np.zeros(shape)])
        assert path.read_bytes() == oracles.matrix_file_reference(np.zeros(shape))
        assert _read_whole(path).shape == shape


def test_matrix_file_bad_magic(tmp_path):
    path = tmp_path / "bad.bin"
    data = bytearray(oracles.matrix_file_reference(np.ones((2, 2))))
    data[7] = ord("9")
    path.write_bytes(bytes(data))
    for read in READERS:
        with pytest.raises(MatrixFormatError, match="magic"):
            read(path)


def test_matrix_file_truncated_and_oversized(tmp_path):
    good = oracles.matrix_file_reference(np.ones((3, 2)))
    short = tmp_path / "short.bin"
    short.write_bytes(good[:-8])
    long_ = tmp_path / "long.bin"
    long_.write_bytes(good + b"\x00")
    stub = tmp_path / "stub.bin"
    stub.write_bytes(good[:10])
    for read in READERS:
        with pytest.raises(MatrixFormatError, match="40"):
            read(short)
        with pytest.raises(MatrixFormatError, match="payload is 49 bytes"):
            read(long_)
        with pytest.raises(MatrixFormatError, match="header"):
            read(stub)


def test_read_submatrix_file_shrinks_after_its_header(tmp_path, monkeypatch):
    # 64 KB, more than the file object buffers while reading the header
    path = tmp_path / "a.bin"
    write_matrix_blocks(path, (128, 64), [np.ones((128, 64))])
    check = parsvd.io._read_file_header

    def check_then_shrink(fh, name):
        shape = check(fh, name)
        os.truncate(path, os.path.getsize(path) // 2)
        return shape

    monkeypatch.setattr(parsvd.io, "_read_file_header", check_then_shrink)
    with pytest.raises(MatrixFormatError, match="ends inside the payload"):
        read_submatrix(path, 0, 128, 0, 64)


def test_read_submatrix_blocks(tmp_path):
    rng = np.random.Generator(np.random.Philox(71))
    a = rng.standard_normal((10, 8))
    path = tmp_path / "a.bin"
    write_matrix_blocks(path, a.shape, [a])
    # full-height fast path
    assert np.array_equal(read_submatrix(path, 0, 10, 2, 5), a[:, 2:5])
    # strided row window
    assert np.array_equal(read_submatrix(path, 3, 7, 1, 8), a[3:7, 1:8])
    # every window equals the same slice of the whole file
    whole = _read_whole(path)
    assert np.array_equal(whole, a)
    for r0, r1, c0, c1 in [(0, 10, 0, 8), (0, 10, 7, 8),  # full height
                           (0, 5, 0, 8), (5, 10, 0, 8),   # row slabs
                           (3, 9, 2, 7), (9, 10, 0, 1)]:  # interior
        block = read_submatrix(path, r0, r1, c0, c1)
        assert block.flags.f_contiguous
        assert np.array_equal(block, whole[r0:r1, c0:c1])
    # empty selections are fine
    assert read_submatrix(path, 2, 2, 0, 8).shape == (0, 8)
    with pytest.raises(ValueError):
        read_submatrix(path, 0, 11, 0, 1)
    with pytest.raises(ValueError):
        read_submatrix(path, 0, 1, 5, 3)


# ---------- batch sources ----------

def test_batches_tile_the_matrix(tmp_path):
    rng = np.random.Generator(np.random.Philox(72))
    a = rng.standard_normal((6, 10))
    path = tmp_path / "a.bin"
    write_matrix_blocks(path, a.shape, [a])
    for rows in (None, (1, 4)):
        lo, hi = rows or (0, a.shape[0])
        batches = list(BatchSource(path, 4, rows=rows))
        assert [b.shape[1] for b in batches] == [4, 4, 2]
        for batch, start in zip(batches, range(0, 10, 4)):
            assert np.array_equal(batch, a[lo:hi, start:start + 4])


def test_batch_source_validation(tmp_path):
    path = tmp_path / "a.bin"
    write_matrix_blocks(path, (2, 2), [np.ones((2, 2))])
    with pytest.raises(ValueError):
        BatchSource(path, 0)
    with pytest.raises(ValueError):
        BatchSource(path, 2, rows=(1, 3))
    src = BatchSource(path, 1)
    assert (src.rows, src.cols) == (2, 2)
    assert len(list(src)) == 2
    assert BatchSource(path, 1, rows=(1, 2)).rows == 1


# ---------- CSV emitters ----------

def test_singular_values_csv_round_trip(tmp_path):
    values = np.array([3.0, -0.0, 5e-324, 1e300, np.pi, 2.0 ** -40,
                       1.2345678901234567e-10])
    path = tmp_path / "sv.csv"
    write_singular_values_csv(path, values)
    lines = path.read_text().splitlines()
    assert lines[:5] == ["index,sigma", "0,3", "1,-0",
                         "2,4.9406564584124654e-324",
                         "3,1.0000000000000001e+300"]
    assert lines[5] == "4,3.1415926535897931"
    assert len(lines) == 8
    # 17 significant digits make float64 round trips exact, signed zero
    # and subnormals included
    back = read_singular_values_csv(path)
    assert np.array_equal(back, values)
    assert np.signbit(back[1])


def test_modes_csv_round_trip(tmp_path):
    rng = np.random.Generator(np.random.Philox(73))
    grid = np.linspace(0.0, 1.0, 9)
    modes = rng.standard_normal((9, 3))
    modes[1] = [-0.0, 0.1, 5e-324]
    path = tmp_path / "modes.csv"
    write_modes_csv(path, grid, modes)
    lines = path.read_text().splitlines()
    assert lines[0] == "grid,mode_1,mode_2,mode_3"
    assert lines[2] == "0.125,-0,0.10000000000000001,4.9406564584124654e-324"
    grid_back, modes_back = read_modes_csv(path)
    assert np.array_equal(grid_back, grid)
    assert np.array_equal(modes_back, modes)


def test_modes_csv_validates_grid():
    with pytest.raises(ValueError):
        write_modes_csv("/tmp/never-written.csv", np.zeros(3), np.zeros((4, 2)))


def test_history_csv(tmp_path):
    history = np.array([[3.0, 1.0], [3.5, 1.2], [3.6, 1.3]])
    path = tmp_path / "history.csv"
    write_history_csv(path, history)
    lines = path.read_text().splitlines()
    assert lines[0] == "iteration,sigma_1,sigma_2"
    assert lines[1].startswith("0,3,") or lines[1].startswith("0,3.0")
    assert len(lines) == 4


def test_csv_reader_rejects_foreign_files(tmp_path):
    path = tmp_path / "junk.csv"
    path.write_text("time,value\n0,1\n")
    with pytest.raises(MatrixFormatError):
        read_singular_values_csv(path)
    with pytest.raises(MatrixFormatError):
        read_modes_csv(path)
    empty = tmp_path / "empty.csv"
    empty.write_text("grid,mode_1\n")
    with pytest.raises(MatrixFormatError):
        read_modes_csv(empty)


# ---------- SVG emitter ----------

def test_svg_deterministic_and_structured(tmp_path):
    rng = np.random.Generator(np.random.Philox(74))
    grid = np.linspace(0.0, 1.0, 40)
    modes = rng.standard_normal((40, 3))
    first = tmp_path / "one.svg"
    second = tmp_path / "two.svg"
    write_mode_svg(first, grid, modes)
    write_mode_svg(second, grid, modes)
    body = first.read_text()
    assert first.read_bytes() == second.read_bytes()
    assert body.count("<polyline") == 3
    assert body.startswith("<svg ")
    assert body.rstrip().endswith("</svg>")
    assert "mode 3" in body
    assert "NaN" not in body and "nan" not in body


def test_svg_point_text(tmp_path, monkeypatch):
    # height 0 flips the y axis through zero, so the middle point lands at
    # -0.00112 and prints as -0.00; the middle x, 56 + 608 / 3, rounds up
    monkeypatch.setattr(parsvd.io, "_SVG_HEIGHT", 0)
    path = tmp_path / "points.svg"
    write_mode_svg(path, np.array([0.0, 1.0 / 3.0, 1.0]),
                   np.array([[0.0], [0.49999], [1.0]]))
    points = 'points="56.00,-56.00 258.67,-0.00 664.00,56.00"'
    assert points in path.read_text()


def _svg_polylines(path):
    return re.findall(r'points="([^"]*)"', path.read_text())


def _svg_coordinates(grid, modes, margin=56, width=720, height=420):
    xs = margin + (grid - grid.min()) / np.ptp(grid) * (width - 2 * margin)
    ys = (height - margin) - (modes - modes.min()) / np.ptp(modes) * (height - 2 * margin)
    return xs, ys


def test_svg_polylines_hold_the_m4_points(tmp_path):
    # per pixel column of the 608-pixel plot area, the first, last, lowest
    # and highest point of each mode (the first of ties), in x order, each
    # formatted on its own
    rng = np.random.Generator(np.random.Philox(75))
    grid = np.sort(rng.uniform(-1.0, 3.0, 16384))
    modes = np.cumsum(rng.standard_normal((16384, 3)), axis=0)
    path = tmp_path / "many.svg"
    write_mode_svg(path, grid, modes)
    xs, ys = _svg_coordinates(grid, modes)
    pixel = np.minimum(np.floor(xs - 56).astype(int), 607)
    polylines = _svg_polylines(path)
    assert len(polylines) == 3
    for j, points in enumerate(polylines):
        keep = set()
        for column in np.unique(pixel):
            idx = np.flatnonzero(pixel == column)
            keep |= {idx[0], idx[-1], idx[np.argmin(ys[idx, j])],
                     idx[np.argmax(ys[idx, j])]}
        keep = sorted(keep)
        assert points == " ".join("%.2f,%.2f" % (xs[i], ys[i, j]) for i in keep)
        assert keep[0] == 0 and keep[-1] == grid.size - 1
        assert len(keep) <= 4 * 608


def test_svg_keeps_every_point_below_one_per_pixel_column(tmp_path):
    # 600 points over 608 pixel columns fall in a column each, so the
    # reduction drops none of them
    rng = np.random.Generator(np.random.Philox(76))
    grid = np.linspace(0.0, 1.0, 600)
    modes = rng.standard_normal((600, 2))
    path = tmp_path / "sparse.svg"
    write_mode_svg(path, grid, modes)
    xs, ys = _svg_coordinates(grid, modes)
    for j, points in enumerate(_svg_polylines(path)):
        assert points == " ".join("%.2f,%.2f" % (x, y)
                                  for x, y in zip(xs, ys[:, j]))


def test_svg_flat_data(tmp_path):
    # constant modes: the y span is zero; must not divide by zero
    path = tmp_path / "flat.svg"
    write_mode_svg(path, np.arange(5.0), np.ones((5, 2)))
    assert "NaN" not in path.read_text()


def test_svg_validates_shapes(tmp_path):
    with pytest.raises(ValueError):
        write_mode_svg(tmp_path / "x.svg", np.arange(4.0), np.ones((5, 1)))
