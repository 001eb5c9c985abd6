"""Burgers dataset, synthetic spectra, and row partitioning."""

import numpy as np
import pytest

import oracles
import parsvd.datagen
from parsvd.datagen import (BurgersConfig, burgers_blocks, burgers_matrix,
                            burgers_solution, partition_bounds,
                            synthetic_spectrum_matrix)
from parsvd.errors import CapacityError
from parsvd.linalg import svd_full


# ---------- burgers_solution ----------

def test_burgers_zero_at_left_wall():
    t = np.linspace(0.0, 2.0, 7)
    assert np.array_equal(burgers_solution(np.zeros(7), t), np.zeros(7))


def test_burgers_scalar_in_scalar_out():
    u = burgers_solution(0.5, 1.0)
    assert isinstance(u, float)
    assert 0.0 < u < 1.0


def test_burgers_positive_and_finite_at_sharp_reynolds():
    # exp overflows at re=1000 near x=1, t=0; u must stay finite and
    # non-negative everywhere
    x = np.linspace(0.0, 1.0, 2001)
    for t in (0.0, 1e-6, 0.5, 2.0):
        u = burgers_solution(x, t)
        assert np.all(np.isfinite(u))
        assert np.all(u >= 0.0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("reynolds", [1.0, 999.3, 1000.0, 1000.7, 1e4, 1e5])
def test_burgers_matches_the_log_space_reference(reynolds):
    # the quotient against exp(-logaddexp(0, z)), which never overflows:
    # the overflow of exp(z) must neither warn nor leave inf or nan, and
    # every value must agree to a few units in the last place (3.9e-15
    # relative at worst on this grid)
    config = BurgersConfig(reynolds=reynolds, grid_points=4097, n_snapshots=257)
    u = burgers_matrix(config)
    x = np.linspace(0.0, 1.0, 4097)[:, None]
    t = np.linspace(0.0, 2.0, 257)[None, :]
    u_ref = oracles.burgers_log_space(x, t, reynolds)
    assert np.all(np.isfinite(u))
    assert np.all(u >= 0.0)
    assert np.all(np.abs(u - u_ref)
                  <= 1e-14 * np.abs(u_ref) + np.finfo(np.float64).tiny)


def test_burgers_initial_condition_closed_form():
    x = np.linspace(0.0, 1.0, 101)
    assert np.max(np.abs(burgers_solution(x, 0.0)
                         - oracles.burgers_initial_condition(x, 1000.0))) < 1e-15


def test_burgers_against_fd_oracle():
    # independent time integration of the PDE from the same initial
    # condition; grids refined until self-converged in test_oracles
    re = 1000.0
    for t_end, n, tol in [(0.5, 2049, 5e-4), (2.0, 1025, 1e-3)]:
        x, u_fd = oracles.fd_burgers(n, t_end, re)
        u = burgers_solution(x, t_end)
        assert np.max(np.abs(u - u_fd)) < tol


def test_burgers_domain_errors():
    with pytest.raises(ValueError):
        burgers_solution(-0.1, 1.0)
    with pytest.raises(ValueError):
        burgers_solution(1.2, 1.0)
    with pytest.raises(ValueError):
        burgers_solution(0.5, -0.5)
    with pytest.raises(ValueError):
        burgers_solution(0.5, 2.5)


def test_burgers_config_validation():
    with pytest.raises(ValueError):
        BurgersConfig(length=0.0)
    with pytest.raises(ValueError):
        BurgersConfig(reynolds=-1.0)
    with pytest.raises(ValueError):
        BurgersConfig(grid_points=1)
    with pytest.raises(ValueError):
        BurgersConfig(n_snapshots=0)


# ---------- burgers_matrix ----------

def test_burgers_matrix_default_shape():
    a = burgers_matrix()
    assert a.shape == (16384, 800)
    assert np.all(np.isfinite(a))
    assert np.all(a[0] == 0.0)
    del a


def test_burgers_matrix_columns_are_time_samples():
    config = BurgersConfig(grid_points=64, n_snapshots=5)
    a = burgers_matrix(config)
    x = np.linspace(0.0, 1.0, 64)
    t = np.linspace(0.0, 2.0, 5)
    for j in (0, 2, 4):
        assert np.array_equal(a[:, j], burgers_solution(x, t[j], config))


def _burgers_expression(x, t, re):
    """The Burgers formula as one broadcast expression, in the order of
    operations the generators follow."""
    z = re * x * x / (4.0 * (t + 1.0)) + 0.5 * (np.log1p(t) - re / 8.0)
    with np.errstate(over="ignore"):
        return x / (np.exp(z) + 1.0) / (t + 1.0)


@pytest.mark.parametrize("block_columns", [1, 3, 16])
@pytest.mark.parametrize("reynolds", [999.3, 1000.0, 1000.7])
def test_burgers_matrix_equals_the_formula_bit_for_bit(monkeypatch, reynolds,
                                                       block_columns):
    # column blocks of 1, 3 or the default 16: single-block, exact-block
    # and ragged column counts, and an odd row count
    monkeypatch.setattr(parsvd.datagen, "BURGERS_BLOCK_COLUMNS", block_columns)
    for grid_points, n_snapshots in [(2049, 1), (2049, 15), (2049, 16),
                                     (2049, 17), (2049, 33), (64, 800)]:
        config = BurgersConfig(reynolds=reynolds, grid_points=grid_points,
                               n_snapshots=n_snapshots)
        a = burgers_matrix(config)
        assert a.shape == (grid_points, n_snapshots)
        assert a.flags.f_contiguous
        x = np.linspace(0.0, 1.0, grid_points)[:, None]
        t = np.linspace(0.0, 2.0, n_snapshots)[None, :]
        assert np.array_equal(a, _burgers_expression(x, t, reynolds))
        assert np.array_equal(a, burgers_solution(x, t, config))


def test_burgers_blocks_narrow_on_tall_grids():
    # a block holds at most 16 columns of the default 16384-point grid, so
    # 4 columns at four times its height and 1 past sixteen times
    for rows, widths in ((4 * 16384, [4, 4, 1]), (16 * 16384 + 1, [1] * 3)):
        config = BurgersConfig(grid_points=rows, n_snapshots=sum(widths))
        blocks = list(burgers_blocks(config))
        assert [b.shape for b in blocks] == [(rows, w) for w in widths]
        assert all(b.flags.f_contiguous for b in blocks)
        assert np.array_equal(np.hstack(blocks), burgers_matrix(config))


def test_burgers_matrix_capacity_cap():
    config = BurgersConfig(grid_points=64, n_snapshots=64)
    with pytest.raises(CapacityError):
        burgers_matrix(config, max_bytes=1000)
    # default cap admits the full-size dataset: 16384*800*8 < 1 GiB
    assert 8 * 16384 * 800 < (1 << 30)


def test_burgers_matrix_deterministic():
    config = BurgersConfig(grid_points=32, n_snapshots=6)
    assert np.array_equal(burgers_matrix(config), burgers_matrix(config))


# ---------- synthetic_spectrum_matrix ----------

def test_synthetic_spectrum_exact_recovery():
    sv = [3.0, 2.0, 1.0]
    a = synthetic_spectrum_matrix(6, 4, sv, seed=5)
    assert a.shape == (6, 4)
    res = svd_full(a)
    assert np.allclose(res.s[:3], sv, atol=1e-12)
    assert abs(res.s[3]) < 1e-12
    ref = oracles.gram_singular_values(a)
    assert np.allclose(ref[:3], sv, atol=1e-9)


def test_synthetic_spectrum_rank_one_norm():
    a = synthetic_spectrum_matrix(20, 10, [1.0], seed=6)
    assert abs(np.linalg.norm(a, 2) - 1.0) < 1e-12


def test_synthetic_spectrum_zeros_give_zero_matrix():
    a = synthetic_spectrum_matrix(5, 5, [0.0, 0.0], seed=7)
    assert np.array_equal(a, np.zeros((5, 5)))


def test_synthetic_spectrum_seeded_and_validated():
    assert np.array_equal(synthetic_spectrum_matrix(8, 4, [2.0, 1.0], seed=3),
                          synthetic_spectrum_matrix(8, 4, [2.0, 1.0], seed=3))
    assert not np.array_equal(
        synthetic_spectrum_matrix(8, 4, [2.0, 1.0], seed=3),
        synthetic_spectrum_matrix(8, 4, [2.0, 1.0], seed=4))
    with pytest.raises(ValueError):
        synthetic_spectrum_matrix(4, 4, [])
    with pytest.raises(ValueError):
        synthetic_spectrum_matrix(4, 4, [1.0] * 5)
    with pytest.raises(ValueError):
        synthetic_spectrum_matrix(4, 4, [1.0, 2.0])
    with pytest.raises(ValueError):
        synthetic_spectrum_matrix(4, 4, [1.0, -0.5])


# ---------- partitioning ----------

def test_partition_bounds_uneven():
    assert partition_bounds(10, 4) == [(0, 3), (3, 6), (6, 8), (8, 10)]


def test_partition_bounds_single_rank_and_paper_split():
    assert partition_bounds(7, 1) == [(0, 7)]
    # 16384 rows over 16 ranks: equal 1024-row blocks
    bounds = partition_bounds(16384, 16)
    assert all(hi - lo == 1024 for lo, hi in bounds)
    assert bounds[0] == (0, 1024) and bounds[-1] == (15360, 16384)


def test_partition_bounds_errors():
    with pytest.raises(ValueError):
        partition_bounds(3, 4)
    with pytest.raises(ValueError):
        partition_bounds(5, 0)


def test_row_partition_stacks_back():
    rng = np.random.Generator(np.random.Philox(30))
    a = rng.standard_normal((11, 3))
    blocks = oracles.row_partition(a, 3)
    assert [b.shape[0] for b in blocks] == [4, 4, 3]
    assert np.array_equal(np.concatenate(blocks, axis=0), a)
    blocks[0][0, 0] = 99.0  # copies, not views
    assert a[0, 0] != 99.0
