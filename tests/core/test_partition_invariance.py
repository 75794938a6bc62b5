"""Property test: pairwise reduction is bitwise-invariant to partitioning.

The ISSUE-8 acceptance property: with ``reduction="pairwise"`` the grid
engine's matmat/rmatmat are bitwise identical to the single-device
pairwise engine for *any* row/column partition — including width-1
parts — at any ``max_block_k``, on both engines and both directions.
"""

import numpy as np
import pytest

from repro.comm.grid import ProcessGrid
from repro.core.matvec import FFTMatvec
from repro.core.parallel import ParallelFFTMatvec
from repro.core.toeplitz import BlockTriangularToeplitz

NT, ND, NM, K = 10, 9, 17, 4


@pytest.fixture(scope="module")
def problem():
    rng = np.random.default_rng(42)
    blocks = rng.standard_normal((NT, ND, NM)) * np.exp(
        -0.05 * np.arange(NT)[:, None, None]
    )
    mat = BlockTriangularToeplitz(blocks)
    M = rng.standard_normal((NT, NM, K))
    D = rng.standard_normal((NT, ND, K))
    return mat, M, D


@pytest.fixture(scope="module")
def reference(problem):
    mat, M, D = problem
    single = FFTMatvec(mat, reduction="pairwise")
    return {
        cfg: (single.matmat(M, config=cfg), single.rmatmat(D, config=cfg))
        for cfg in ("ddddd", "dssdd")
    }


def _random_partition(rng, n, parts):
    """A random contiguous partition; width-1 parts are likely."""
    cuts = sorted(rng.choice(np.arange(1, n), size=parts - 1, replace=False))
    bounds = [0] + [int(c) for c in cuts] + [n]
    return [(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


@pytest.mark.parametrize("config", ["ddddd", "dssdd"])
def test_random_partitions_bitwise(problem, reference, config):
    mat, M, D = problem
    ref_f, ref_a = reference[config]
    rng = np.random.default_rng(7)
    for trial in range(6):
        rr = _random_partition(rng, ND, 2)
        cc = _random_partition(rng, NM, 2)
        mbk = [None, 2, 3][trial % 3]
        par = ParallelFFTMatvec(
            mat,
            ProcessGrid(2, 2),
            reduction="pairwise",
            row_ranges=rr,
            col_ranges=cc,
            max_block_k=mbk,
        )
        assert np.array_equal(par.matmat(M, config=config), ref_f), (rr, cc, mbk)
        assert np.array_equal(par.rmatmat(D, config=config), ref_a), (rr, cc, mbk)


def test_width_one_parts_bitwise(problem, reference):
    mat, M, D = problem
    ref_f, ref_a = reference["dssdd"]
    par = ParallelFFTMatvec(
        mat,
        ProcessGrid(2, 2),
        reduction="pairwise",
        row_ranges=[(0, 1), (1, ND)],
        col_ranges=[(0, 1), (1, NM)],
    )
    assert np.array_equal(par.matmat(M, config="dssdd"), ref_f)
    assert np.array_equal(par.rmatmat(D, config="dssdd"), ref_a)


def test_degenerate_grids_bitwise(problem, reference):
    mat, M, _ = problem
    ref_f, _ = reference["dssdd"]
    for pr, pc in ((3, 1), (1, 3)):
        par = ParallelFFTMatvec(mat, ProcessGrid(pr, pc), reduction="pairwise")
        assert np.array_equal(par.matmat(M, config="dssdd"), ref_f), (pr, pc)


def test_vector_path_matches_block_columns(problem, reference):
    mat, M, D = problem
    ref_f, ref_a = reference["ddddd"]
    par = ParallelFFTMatvec(
        mat,
        ProcessGrid(2, 2),
        reduction="pairwise",
        col_ranges=[(0, 13), (13, NM)],
    )
    for j in range(K):
        assert np.array_equal(par.matvec(M[:, :, j], config="ddddd"), ref_f[:, :, j])
        assert np.array_equal(par.rmatvec(D[:, :, j], config="ddddd"), ref_a[:, :, j])


def test_single_engine_blocked_equals_looped(problem):
    mat, M, _ = problem
    eng = FFTMatvec(mat, reduction="pairwise")
    blocked = eng.matmat(M, config="dssdd")
    for j in range(K):
        one = eng.matmat(M[:, :, j : j + 1], config="dssdd")
        assert np.array_equal(blocked[:, :, j : j + 1], one)


def test_pairwise_close_to_fast(problem):
    mat, M, _ = problem
    fast = FFTMatvec(mat).matmat(M, config="dssdd")
    pw = FFTMatvec(mat, reduction="pairwise").matmat(M, config="dssdd")
    assert np.linalg.norm(fast - pw) / np.linalg.norm(fast) < 1e-5


def test_single_engine_deterministic_stays_on_the_fixed_tree():
    # Pairwise ignores ``deterministic``: the fixed tree already makes
    # every column bitwise its looped apply and the grid's result.
    rng = np.random.default_rng(3)
    mat = BlockTriangularToeplitz.random(32, 8, 96, rng=rng)
    M = rng.standard_normal((32, 96, 5))
    D = rng.standard_normal((32, 8, 5))
    eng = FFTMatvec(mat, reduction="pairwise")
    fwd = eng.matmat(M, deterministic=True)
    adj = eng.rmatmat(D, deterministic=True)
    for j in range(5):
        assert np.array_equal(fwd[:, :, j], eng.matvec(M[:, :, j]))
        assert np.array_equal(adj[:, :, j], eng.rmatvec(D[:, :, j]))
    par = ParallelFFTMatvec(mat, ProcessGrid(2, 2), reduction="pairwise")
    assert np.array_equal(fwd, par.matmat(M, deterministic=True))
    assert np.array_equal(adj, par.rmatmat(D, deterministic=True))
