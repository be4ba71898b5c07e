"""Banded storage and the LU solve behind every time step."""

import importlib.machinery
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rodfem import (SimConfig, builtin_scenario, linsolve, spun_up_state_2d,
                    uniform_mesh)
from rodfem.assembly3d import StepContext, assemble_step_2d, frozen_geometry
from rodfem.errors import AssemblyError, SingularMatrixError
from rodfem.linsolve import BandedLU, BandedMatrix, factorize, solve

from reference_dense import band_from_dense, dense_from_band


def random_banded_dense(n, kl, ku, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n))
    for i in range(n):
        for j in range(n):
            if j - i > ku or i - j > kl:
                a[i, j] = 0.0
    a += np.eye(n) * (kl + ku + 2)  # diagonally dominant, well conditioned
    return a


def test_hand_two_by_two():
    a = band_from_dense([[2.0, 1.0], [1.0, 3.0]])
    x, _ = solve(factorize(a), np.array([3.0, 4.0]))
    np.testing.assert_allclose(x, [1.0, 1.0], atol=1e-14)


def test_from_dense_round_trip():
    dense = random_banded_dense(9, 2, 3, seed=1)
    m = band_from_dense(dense)
    assert (m.kl, m.ku) == (2, 3)
    np.testing.assert_allclose(dense_from_band(m), dense)


def test_band_is_fortran_ordered_with_column_major_flat_indices():
    dense = random_banded_dense(9, 2, 3, seed=3)
    m = band_from_dense(dense)
    assert m.data.flags.f_contiguous
    i, j = np.nonzero(dense)
    flat = m.flat_indices(i, j)
    np.testing.assert_array_equal(flat, (2 + 3 + i - j) + (2 * 2 + 3 + 1) * j)
    np.testing.assert_array_equal(m.data.reshape(-1, order="F")[flat],
                                  dense[i, j])

def test_matvec_matches_dense():
    dense = random_banded_dense(12, 3, 1, seed=2)
    m = band_from_dense(dense)
    v = np.linspace(-1.0, 1.0, 12)
    np.testing.assert_allclose(m.matvec(v), dense @ v, atol=1e-13)


@pytest.mark.parametrize("n, kl, ku", [(1, 0, 0), (3, 2, 2), (5, 4, 3),
                                       (24, 19, 18), (37, 19, 18)])
def test_matvec_matches_dense_below_band_height(n, kl, ku):
    # n < kl + ku + 1: the BLAS product is taken on padded rows
    dense = random_banded_dense(n, kl, ku, seed=n)
    m = BandedMatrix(n, kl, ku)
    i, j = np.nonzero(dense)
    m.add_entries(i, j, dense[i, j])
    v = np.random.default_rng(n).normal(size=n)
    y = m.matvec(v)
    assert y.shape == (n,)
    np.testing.assert_allclose(y, dense @ v, rtol=1e-13, atol=1e-13)


def test_scatter_assembly_accumulates_duplicates():
    m = BandedMatrix(4, 1, 1)
    m.add_entries([0, 0, 1, 2, 3], [0, 0, 2, 1, 3], [1.0, 2.0, 5.0, -1.0, 4.0])
    expected = np.zeros((4, 4))
    expected[0, 0] = 3.0  # two contributions land on the same entry
    expected[1, 2] = 5.0
    expected[2, 1] = -1.0
    expected[3, 3] = 4.0
    np.testing.assert_allclose(dense_from_band(m), expected)


def test_scatter_outside_band_is_an_error():
    m = BandedMatrix(4, 1, 1)
    with pytest.raises(ValueError):
        m.add_entries([0], [3], [1.0])


@given(
    n=st.integers(3, 20),
    kl=st.integers(0, 4),
    ku=st.integers(0, 4),
    seed=st.integers(0, 10_000),
)
@settings(max_examples=60, deadline=None)
def test_banded_solve_matches_dense_solve(n, kl, ku, seed):
    kl, ku = min(kl, n - 1), min(ku, n - 1)
    dense = random_banded_dense(n, kl, ku, seed)
    b = np.random.default_rng(seed + 1).normal(size=n)
    x, _ = solve(factorize(band_from_dense(dense)), b)
    np.testing.assert_allclose(x, np.linalg.solve(dense, b),
                               rtol=1e-9, atol=1e-11)


def test_solution_residual_is_small():
    dense = random_banded_dense(40, 2, 2, seed=7)
    m = band_from_dense(dense)
    b = np.arange(40, dtype=float)
    x, r = solve(factorize(m), b)
    bnorm = np.linalg.norm(b)
    assert np.linalg.norm(r) / bnorm < 1e-13
    assert np.linalg.norm(b - dense @ x) / bnorm < 1e-13
    np.testing.assert_allclose(r, b - m.matvec(x), rtol=0.0, atol=0.0)


def test_one_refinement_round_is_componentwise_backward_stable(monkeypatch):
    # the first main-phase step of a spun-up planar worm at n = 128, whose
    # refined residual sits just above 1e-12·|c|: one round still suffices
    dt = 1.0 / 16.0
    cfg = SimConfig(builtin_scenario("worm2d"), n_vertices=128, dt=dt,
                    dimension=2)
    st = spun_up_state_2d(cfg)
    mesh = uniform_mesh(cfg.n_vertices)
    ctx = StepContext(mesh, cfg.scenario, 2)
    matrix, b, c = assemble_step_2d(ctx, frozen_geometry(mesh, st.x), dt, dt,
                                    st)
    lu = factorize(matrix)
    calls = {"backsolve": 0, "matvec": 0}
    for cls, name in ((BandedLU, "backsolve"), (BandedMatrix, "matvec")):
        def counted(*args, _name=name, _f=getattr(cls, name)):
            calls[_name] += 1
            return _f(*args)
        monkeypatch.setattr(cls, name, counted)
    x, r = solve(lu, c)
    assert calls == {"backsolve": 2, "matvec": 2}
    assert np.linalg.norm(r) <= 1e-12 * np.linalg.norm(b)
    # Oettli-Prager: max_i |r_i| / (|A| |x| + |c|)_i
    dense = dense_from_band(matrix)
    omega = np.max(np.abs(r) / (np.abs(dense) @ np.abs(x) + np.abs(c)))
    assert omega <= 4.0 * np.finfo(float).eps


def test_singular_matrix_is_reported():
    with pytest.raises(SingularMatrixError):
        factorize(band_from_dense([[1.0, 1.0], [1.0, 1.0]]))


def test_non_finite_entries_are_rejected():
    m = BandedMatrix(3, 1, 1)
    m.add_entries([0, 1, 2], [0, 1, 2], [1.0, np.nan, 1.0])
    with pytest.raises(AssemblyError):
        factorize(m)


def test_rhs_shape_is_checked():
    from rodfem.errors import SolverError
    lu = factorize(band_from_dense(np.eye(3)))
    with pytest.raises(SolverError):
        lu.backsolve(np.ones(4))


# --- where the band routines come from ---------------------------------------


def test_import_rodfem_leaves_scipy_linalg_unimported():
    # a fresh interpreter, so nothing else has imported scipy.linalg yet;
    # importing it afterwards must still hand out the same band routines
    src = Path(linsolve.__file__).resolve().parents[1]
    code = ("import sys, rodfem, rodfem.cli\n"
            "print('scipy.linalg' in sys.modules)\n"
            "import scipy.linalg\n"
            "print(rodfem.linsolve.lapack.dgbtrf is scipy.linalg.lapack.dgbtrf)")
    proc = subprocess.run([sys.executable, "-c", code],
                          env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "True"]


def test_band_routines_are_scipys_own_objects():
    import scipy.linalg
    assert linsolve.lapack.dgbtrf is scipy.linalg.lapack.dgbtrf
    assert linsolve.lapack.dgbtrs is scipy.linalg.lapack.dgbtrs
    assert linsolve.blas.dgbmv is scipy.linalg.blas.dgbmv


def test_missing_extension_file_falls_back_to_the_import(monkeypatch,
                                                         tmp_path):
    spec = importlib.machinery.ModuleSpec("scipy", None, is_package=True)
    spec.submodule_search_locations = [str(tmp_path)]
    monkeypatch.setattr(importlib.util, "find_spec", lambda name: spec)
    module = linsolve._linalg_extension("_flapack")
    import scipy.linalg
    assert module is sys.modules["scipy.linalg._flapack"]
    assert module.dgbtrf is scipy.linalg.lapack.dgbtrf
