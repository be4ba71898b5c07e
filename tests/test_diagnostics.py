"""Scalar functionals, convergence rates, and the CSV exporters."""

import csv
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from rodfem.assembly3d import RodState2D
from rodfem.diagnostics import (
    DIAGNOSTICS_COLUMNS,
    DiagnosticsRecord,
    center_of_mass,
    curvature_components,
    elastic_energy,
    eoc,
    length_error,
    write_diagnostics,
    write_kymograph,
    write_snapshot,
    write_table,
)
from rodfem.engine3d import embed_in_space
from rodfem.geometry import (FrozenGeometry, Mesh, frozen_geometry,
                             uniform_mesh)


def weighted(w=None, hs=None):
    """A FrozenGeometry holding only the vertex weights w and the element
    lengths hs, the fields the energy and F1 read."""
    blank = dict.fromkeys(f.name for f in dataclasses.fields(FrozenGeometry))
    return FrozenGeometry(**{**blank, "w": w, "hs": hs})


def test_eoc_of_a_measured_error_pair():
    # one level of refinement with the step divided by four
    rates = eoc([5.64486e-3, 4.89655e-4], [0.25, 0.0625])
    assert rates[0] == pytest.approx(1.76355, abs=5e-6)


def test_eoc_exact_second_order():
    rates = eoc([1.0, 0.25, 0.0625], [1.0, 0.5, 0.25])
    np.testing.assert_allclose(rates, 2.0, atol=1e-14)


def test_eoc_shape_validation():
    with pytest.raises(ValueError):
        eoc([1.0, 0.5], [1.0])
    with pytest.raises(ValueError):
        eoc([[1.0, 0.5]], [[1.0, 0.5]])


def test_elastic_energy_hand_case():
    w = np.array([0.5, 1.0, 0.5])
    A = np.array([2.0, 2.0, 2.0])
    kappa = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 0.0]])
    pref = np.zeros((3, 3))
    # bending part: w * A * |dev|^2 summed = 1.0 * 2.0 * 2
    assert elastic_energy(weighted(w), A, kappa, pref) == pytest.approx(4.0)
    # adding a twist deviation of 0.5 on one element of measure 0.25
    hs = np.array([0.25, 0.25])
    C = np.array([3.0, 3.0])
    tw = np.array([0.5, 0.0])
    tw0 = np.zeros(2)
    got = elastic_energy(weighted(w, hs), A, kappa, pref, C, tw, tw0)
    assert got == pytest.approx(4.0 + 0.25 * 3.0 * 0.25)


def test_energy_is_never_negative():
    rng = np.random.default_rng(5)
    for _ in range(10):
        w = rng.uniform(0.1, 1.0, 6)
        A = rng.uniform(0.5, 2.0, 6)
        kappa = rng.normal(size=(6, 3))
        pref = rng.normal(size=(6, 3))
        assert elastic_energy(weighted(w), A, kappa, pref) >= 0.0


def test_length_error_is_absolute_deviation():
    hs = np.array([0.5, 0.52])
    assert length_error(weighted(hs=hs), 1.0) == pytest.approx(0.02)
    assert length_error(weighted(hs=hs), 1.04) == pytest.approx(0.02)


def test_center_of_mass_straight_and_corner():
    mesh = uniform_mesh(9)
    x = np.column_stack([mesh.u, np.zeros(9), np.zeros(9)])
    np.testing.assert_allclose(center_of_mass(frozen_geometry(mesh, x), x),
                               [0.5, 0.0, 0.0], atol=1e-15)
    # right-angle corner, equal arms: midpoints average to (0.75, 0.25)
    mesh2 = Mesh(np.array([0.0, 0.5, 1.0]))
    x2 = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]])
    np.testing.assert_allclose(center_of_mass(frozen_geometry(mesh2, x2), x2),
                               [0.75, 0.25])


@given(shift=arrays(np.float64, (3,), elements=st.floats(-5.0, 5.0)))
@settings(max_examples=30, deadline=None)
def test_center_of_mass_translation_equivariance(shift):
    mesh = uniform_mesh(7)
    x = np.column_stack([
        mesh.u, 0.2 * np.sin(6 * mesh.u), 0.1 * np.cos(4 * mesh.u)])
    geom = frozen_geometry(mesh, x)
    base = center_of_mass(geom, x)
    moved = center_of_mass(geom, x + shift)
    np.testing.assert_allclose(moved, base + shift, atol=1e-12)


@given(
    alpha=arrays(np.float64, (5,), elements=st.floats(-3.0, 3.0)),
    beta=arrays(np.float64, (5,), elements=st.floats(-3.0, 3.0)),
)
@settings(max_examples=40, deadline=None)
def test_curvature_components_reconstruct(alpha, beta):
    rng = np.random.default_rng(7)
    t = rng.normal(size=(5, 3))
    t /= np.linalg.norm(t, axis=1)[:, None]
    a = rng.normal(size=(5, 3))
    e1 = a - np.einsum("id,id->i", a, t)[:, None] * t
    e1 /= np.linalg.norm(e1, axis=1)[:, None]
    e2 = np.cross(t, e1)
    kappa = alpha[:, None] * e1 + beta[:, None] * e2
    ga, gb = curvature_components(kappa, e1, e2)
    np.testing.assert_allclose(ga, alpha, atol=1e-10)
    np.testing.assert_allclose(gb, beta, atol=1e-10)


# --- CSV exporters ----------------------------------------------------------


def sample_records():
    return [
        DiagnosticsRecord(step=0, t=0.0, energy=19.0, f1=0.0, f2=0.0,
                          f2_increment=0.0, total_length=1.0,
                          com=np.array([0.5, 0.0, 0.0]), s_min=1.0, s_max=1.0),
        DiagnosticsRecord(step=1, t=1.0 / 3.0, energy=5.25, f1=1.0 / 7.0,
                          f2=1e-15, f2_increment=1e-15, total_length=1.01,
                          com=np.array([0.51, 0.02, -0.01]),
                          s_min=0.99, s_max=1.08),
    ]


def test_diagnostics_csv_layout_and_precision(tmp_path):
    path = tmp_path / "diagnostics.csv"
    write_diagnostics(path, sample_records())
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == DIAGNOSTICS_COLUMNS
    assert len(rows) == 3
    # 17 significant digits reproduce the doubles bit for bit
    assert float(rows[2][1]) == 1.0 / 3.0
    assert float(rows[2][3]) == 1.0 / 7.0
    assert rows[2][0] == "1"


def test_planar_record_padding(tmp_path):
    rec = DiagnosticsRecord(step=0, t=0.0, energy=1.0, f1=0.0, f2=0.0,
                            f2_increment=0.0, total_length=1.0,
                            com=np.array([0.4, 0.1]), s_min=1.0, s_max=1.0)
    path = tmp_path / "d.csv"
    write_diagnostics(path, [rec])
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    icx = DIAGNOSTICS_COLUMNS.index("com_x")
    assert [float(rows[1][icx + k]) for k in range(3)] == [0.4, 0.1, 0.0]


def test_snapshot_files(tmp_path):
    mesh = uniform_mesh(5)
    n = 5
    x = np.column_stack([mesh.u, np.zeros(n), np.zeros(n)])
    e1 = np.tile([0.0, 1.0, 0.0], (n, 1))
    e2 = np.tile([0.0, 0.0, 1.0], (n, 1))
    kappa = np.zeros((n, 3))
    write_snapshot(tmp_path / "v.csv", tmp_path / "e.csv", mesh, x, e1, e2,
                   kappa, np.arange(n, dtype=float), np.ones(n - 1),
                   np.zeros(n - 1), np.full(n - 1, 2.0))
    with open(tmp_path / "v.csv", newline="") as fh:
        vrows = list(csv.reader(fh))
    assert vrows[0] == ["u", "x", "y", "z", "e1x", "e1y", "e1z",
                        "e2x", "e2y", "e2z", "kappa_x", "kappa_y", "kappa_z",
                        "m"]
    assert len(vrows) == 1 + n
    assert float(vrows[3][13]) == 2.0  # spin column
    with open(tmp_path / "e.csv", newline="") as fh:
        erows = list(csv.reader(fh))
    assert erows[0] == ["u_mid", "gamma", "z_moment", "p"]
    assert len(erows) == 1 + (n - 1)
    assert float(erows[1][3]) == 2.0


def test_snapshot_planar_embedding(tmp_path):
    # a planar state is written through its embedding in space
    mesh = uniform_mesh(4)
    x = np.column_stack([mesh.u, 0.1 * mesh.u])
    st = embed_in_space(mesh, RodState2D(
        t=0.0, x=x, kappa=np.zeros((4, 2)), bend_moment=np.zeros((4, 2)),
        tension=np.zeros(3), rest_density=np.ones(3)))
    write_snapshot(tmp_path / "v.csv", tmp_path / "e.csv", mesh, st.x, st.e1,
                   st.e2, st.kappa, st.spin, st.twist, st.twist_moment,
                   st.tension)
    with open(tmp_path / "v.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    # third coordinate zero, second director fixed to the plane normal
    assert float(rows[1][3]) == 0.0
    assert [float(v) for v in rows[1][7:10]] == [0.0, 0.0, 1.0]


def test_table_cells_ints_none_and_floats(tmp_path):
    path = tmp_path / "t.csv"
    write_table(path, ["i", "x"], [np.arange(2), [None, 1.0 / 3.0]])
    assert path.read_bytes() == b"i,x\r\n0,\r\n1,0.33333333333333331\r\n"
    with pytest.raises(ValueError):
        write_table(path, ["i", "x"], [[1, 2], [0.5]])


def test_kymograph_tables(tmp_path):
    mesh = uniform_mesh(4)
    samples = [
        {"t": 0.0, "alpha": np.zeros(4), "beta": np.zeros(4),
         "gamma": np.zeros(3)},
        {"t": 0.5, "alpha": np.ones(4), "beta": np.zeros(4),
         "gamma": np.ones(3)},
    ]
    write_kymograph(tmp_path / "kv.csv", tmp_path / "ke.csv", mesh, samples)
    with open(tmp_path / "kv.csv", newline="") as fh:
        vrows = list(csv.reader(fh))
    assert vrows[0] == ["u", "t", "alpha", "beta"]
    assert len(vrows) == 1 + 2 * 4
    with open(tmp_path / "ke.csv", newline="") as fh:
        erows = list(csv.reader(fh))
    assert len(erows) == 1 + 2 * 3
    # planar samples leave the twist table empty
    for s in samples:
        s["gamma"] = None
    write_kymograph(tmp_path / "kv.csv", tmp_path / "ke.csv", mesh, samples)
    with open(tmp_path / "ke.csv", newline="") as fh:
        assert len(list(csv.reader(fh))) == 1
