"""Discrete differential geometry of the rod polyline."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from rodfem.errors import DegenerateGeometryError, InvalidMeshError
from rodfem.geometry import (
    Mesh,
    cross,
    element_twist,
    frozen_geometry,
    perp,
    uniform_mesh,
    vertex_curvature,
)

from reference_dense import (
    ref_averaged_tangent,
    ref_curvature_interior,
    ref_element_twist,
    ref_tangents,
    ref_weights,
)


def wiggly_polyline(n, amplitude=0.2, seed=0):
    """A smooth non-planar test curve with no degenerate elements."""
    rng = np.random.default_rng(seed)
    u = np.linspace(0.0, 1.0, n)
    x = np.column_stack([
        u,
        amplitude * np.sin(2.0 * np.pi * u + rng.uniform(0, 1)),
        amplitude * np.cos(3.0 * np.pi * u + rng.uniform(0, 1)),
    ])
    return u, x


# --- meshes ----------------------------------------------------------------


def test_uniform_mesh_partitions_unit_interval():
    mesh = uniform_mesh(9)
    assert mesh.n_vertices == 9
    assert mesh.n_elements == 8
    assert mesh.u[0] == 0.0 and mesh.u[-1] == 1.0
    np.testing.assert_allclose(mesh.h, 0.125)
    np.testing.assert_allclose(mesh.midpoints, (mesh.u[:-1] + mesh.u[1:]) / 2)


@pytest.mark.parametrize("bad_u", [
    [0.0, 0.5],                    # too few vertices
    [0.0, 0.5, 0.5, 1.0],          # repeated vertex
    [0.0, 0.6, 0.4, 1.0],          # not increasing
    [0.1, 0.5, 1.0],               # does not start at 0
    [0.0, 0.5, 0.9],               # does not end at 1
])
def test_bad_meshes_are_rejected(bad_u):
    with pytest.raises(InvalidMeshError):
        Mesh(np.asarray(bad_u, dtype=float))


def test_uniform_mesh_needs_three_vertices():
    with pytest.raises(InvalidMeshError):
        uniform_mesh(2)


# --- tangents and length density -------------------------------------------


def test_straight_rod_tangents():
    mesh = uniform_mesh(6)
    x = np.column_stack([mesh.u, np.zeros(6), np.zeros(6)])
    geom = frozen_geometry(mesh, x)
    np.testing.assert_allclose(geom.tau, [[1.0, 0.0, 0.0]] * 5)
    np.testing.assert_allclose(geom.s, 1.0)
    assert geom.hs.sum() == pytest.approx(1.0)


def test_collapsed_element_is_degenerate():
    mesh = uniform_mesh(4)
    x = np.zeros((4, 3))
    x[:, 0] = [0.0, 0.5, 0.5, 1.0]  # middle element has zero length
    with pytest.raises(DegenerateGeometryError):
        frozen_geometry(mesh, x)


def test_right_angle_corner_curvature():
    # two unit segments meeting at a right angle; every quantity by hand:
    # s = 2 on both elements, w = 1 at the corner, curvature (-1, 1, 0)
    mesh = Mesh(np.array([0.0, 0.5, 1.0]))
    x = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 1.0, 0.0]])
    geom = frozen_geometry(mesh, x)
    np.testing.assert_allclose(geom.s, [2.0, 2.0])
    np.testing.assert_allclose(geom.w, [0.5, 1.0, 0.5])
    kappa = vertex_curvature(geom)
    np.testing.assert_allclose(kappa[1], [-1.0, 1.0, 0.0], atol=1e-15)
    assert geom.hs.sum() == pytest.approx(2.0)


def test_curvature_boundary_rows_are_zero():
    u, x = wiggly_polyline(10)
    kappa = vertex_curvature(frozen_geometry(Mesh(u), x))
    assert np.all(kappa[0] == 0.0)
    assert np.all(kappa[-1] == 0.0)


def test_vertices_on_circle_reproduce_curvature_exactly():
    # equal chords on a circle: the discrete curvature magnitude collapses
    # to exactly 1/R because the chord factors cancel
    R, angle, n = 0.7, 2.0, 17
    mesh = uniform_mesh(n)
    theta = angle * mesh.u
    x = np.column_stack([R * np.cos(theta), R * np.sin(theta), np.zeros(n)])
    kappa = vertex_curvature(frozen_geometry(mesh, x))
    mags = np.linalg.norm(kappa[1:-1], axis=1)
    np.testing.assert_allclose(mags, 1.0 / R, rtol=1e-13)


# --- agreement with the loop reference --------------------------------------


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_geometry_matches_loop_reference(seed):
    u, x = wiggly_polyline(11, seed=seed)
    mesh = Mesh(u)
    geom = frozen_geometry(mesh, x)
    rtau, rs = ref_tangents(u, x)
    np.testing.assert_allclose(geom.tau, rtau, atol=1e-14)
    np.testing.assert_allclose(geom.s, rs, atol=1e-14)
    np.testing.assert_allclose(geom.ttau, ref_averaged_tangent(rtau), atol=1e-14)
    np.testing.assert_allclose(geom.w, ref_weights(u, geom.s), atol=1e-14)
    np.testing.assert_allclose(
        vertex_curvature(geom), ref_curvature_interior(u, x), atol=1e-12)


def test_twist_matches_loop_reference():
    u, x = wiggly_polyline(9, seed=3)
    mesh = Mesh(u)
    geom = frozen_geometry(mesh, x)
    ttau = geom.ttau
    # any orthonormal completion of the vertex tangents will do
    probe = np.tile([0.0, 0.0, 1.0], (len(u), 1))
    e1 = probe - np.einsum("id,id->i", probe, ttau)[:, None] * ttau
    e1 /= np.linalg.norm(e1, axis=1)[:, None]
    e2 = np.cross(ttau, e1)
    np.testing.assert_allclose(
        element_twist(geom, e1, e2), ref_element_twist(u, x, e1, e2),
        atol=1e-13)


def test_uniformly_rotating_frame_has_expected_total_twist():
    # frame spinning through one full turn along a straight rod
    for n in (64, 256):
        mesh = uniform_mesh(n)
        x = np.column_stack([mesh.u, np.zeros(n), np.zeros(n)])
        ang = 2.0 * np.pi * mesh.u
        e1 = np.column_stack([np.zeros(n), np.cos(ang), np.sin(ang)])
        e2 = np.column_stack([np.zeros(n), -np.sin(ang), np.cos(ang)])
        geom = frozen_geometry(mesh, x)
        gamma = element_twist(geom, e1, e2)
        total = float(np.sum(mesh.h * geom.s * gamma))
        assert total == pytest.approx(2.0 * np.pi, rel=2.0 / n**2 * 40)
    # and the discretization error shrinks under refinement
    assert abs(total - 2.0 * np.pi) < 1e-3


def test_perp_rotates_by_quarter_turn():
    v = np.array([[1.0, 0.0], [0.3, -0.4]])
    np.testing.assert_allclose(perp(v), [[0.0, 1.0], [0.4, 0.3]])


@pytest.mark.parametrize("n", [0, 1, 1000])
def test_cross_equals_numpy_cross_bit_for_bit(n):
    rng = np.random.default_rng(n)
    a = rng.normal(size=(n, 3)) * 10.0 ** rng.uniform(-8, 8, size=(n, 1))
    b = rng.normal(size=(n, 3))
    got = cross(a, b)
    assert got.shape == (n, 3)
    assert np.array_equal(got, np.cross(a, b))


# --- structural invariants --------------------------------------------------


@given(
    offsets=arrays(np.float64, (8, 3), elements=st.floats(-0.15, 0.15)),
)
@settings(max_examples=50, deadline=None)
def test_curvature_is_orthogonal_to_vertex_tangent(offsets):
    u = np.linspace(0.0, 1.0, 8)
    x = np.column_stack([u, np.zeros(8), np.zeros(8)]) + offsets
    # keep the polyline monotone enough to be nondegenerate
    if np.any(np.diff(x[:, 0]) < 0.02):
        return
    geom = frozen_geometry(Mesh(u), x)
    ttau = geom.ttau
    kappa = vertex_curvature(geom)
    np.testing.assert_allclose(np.linalg.norm(ttau, axis=1), 1.0, atol=1e-13)
    dots = np.einsum("id,id->i", kappa, ttau)
    scale = 1.0 + np.linalg.norm(kappa, axis=1)
    assert np.all(np.abs(dots) <= 1e-12 * scale)


# --- the frozen geometry of a step -------------------------------------------


def same_bits(a, b):
    """a and b agree in shape, dtype and every bit (signed zeros too)."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@st.composite
def rods(draw):
    """A mesh and a 2-D or 3-D polyline on it whose first coordinate
    increases along every element, so no element collapses and no two
    adjacent tangents are antiparallel."""
    n = draw(st.integers(3, 12))
    dim = draw(st.sampled_from([2, 3]))
    gaps = draw(arrays(np.float64, n - 1, elements=st.floats(0.1, 1.0)))
    u = np.concatenate([[0.0], np.cumsum(gaps)])
    u /= u[-1]
    u[-1] = 1.0
    mesh = Mesh(u)
    along = draw(arrays(np.float64, n - 1, elements=st.floats(0.05, 2.0)))
    across = draw(arrays(np.float64, (n, dim - 1),
                         elements=st.floats(-1.0, 1.0)))
    x = np.column_stack([np.concatenate([[0.0], np.cumsum(along)]), across])
    return mesh, x


@given(rods())
@settings(max_examples=60, deadline=None)
def test_frozen_geometry_carries_what_its_readers_formed(rod):
    mesh, x = rod
    geom = frozen_geometry(mesh, x)
    dx = np.diff(x, axis=0)
    chord = np.linalg.norm(dx, axis=1)
    tau = dx / chord[:, None]
    s = chord / mesh.h
    hs = mesh.h * s
    half = 0.5 * hs
    mean = tau[:-1] + tau[1:]
    ttau = np.vstack([tau[:1], mean / np.linalg.norm(mean, axis=1)[:, None],
                      tau[-1:]])
    outer = tau[:, :, None] * tau[:, None, :]
    assert same_bits(geom.tau, tau)
    assert same_bits(geom.s, s)
    assert same_bits(geom.ttau, ttau)
    assert same_bits(geom.w, np.append(half, 0.0) + np.insert(half, 0, 0.0))
    assert same_bits(geom.hs, hs)
    assert same_bits(geom.dx, dx)
    assert same_bits(geom.outer, outer)
    assert same_bits(geom.proj, np.eye(x.shape[1]) - outer)


def test_frozen_geometry_rejects_a_collapsed_element():
    mesh = uniform_mesh(4)
    x = np.zeros((4, 2))
    x[:, 0] = [0.0, 0.5, 0.5, 1.0]
    with pytest.raises(DegenerateGeometryError, match="element 1"):
        frozen_geometry(mesh, x)


def test_curvature_of_a_folded_polyline_is_rejected():
    # the middle vertex turns the rod back on itself: its two tangents are
    # antiparallel, so it has no vertex tangent and no curvature
    mesh = uniform_mesh(3)
    x = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(DegenerateGeometryError, match="antiparallel at vertex 1"):
        vertex_curvature(frozen_geometry(mesh, x))
