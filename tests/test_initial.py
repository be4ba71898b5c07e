"""Initial geometry constructors."""

import numpy as np
import pytest

from rodfem.frame import orthonormality_defects
from rodfem.geometry import frozen_geometry, uniform_mesh
from rodfem.initial import circle_arc, straight_rod


def frame_is_adapted(mesh, data, tol=1e-12):
    ttau = frozen_geometry(mesh, data.x).ttau
    return float(orthonormality_defects(ttau, data.e1, data.e2).max()) < tol


def test_straight_rod_geometry():
    mesh = uniform_mesh(8)
    data = straight_rod(mesh, length=2.0)
    np.testing.assert_allclose(data.x[:, 0], 2.0 * mesh.u)
    np.testing.assert_allclose(data.x[:, 1:], 0.0)
    assert frozen_geometry(mesh, data.x).hs.sum() == pytest.approx(2.0)
    assert frame_is_adapted(mesh, data)


def test_straight_rod_custom_direction():
    mesh = uniform_mesh(5)
    d = np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0)
    data = straight_rod(mesh, length=1.0, direction=d)
    np.testing.assert_allclose(data.x[-1], d, atol=1e-15)
    assert frame_is_adapted(mesh, data)


def test_circle_arc_geometry():
    mesh = uniform_mesh(33)
    R, angle = 0.5, 1.6
    data = circle_arc(mesh, radius=R, angle=angle)
    # starts at the origin, bends towards +y, stays planar
    np.testing.assert_allclose(data.x[0], 0.0, atol=1e-15)
    np.testing.assert_allclose(data.x[:, 2], 0.0, atol=1e-15)
    # every vertex sits at distance R from the center (0, R, 0)
    radii = np.linalg.norm(data.x - np.array([0.0, R, 0.0]), axis=1)
    np.testing.assert_allclose(radii, R, rtol=1e-13)
    # chord between the endpoints
    chord = np.linalg.norm(data.x[-1] - data.x[0])
    assert chord == pytest.approx(2.0 * R * np.sin(angle / 2.0), rel=1e-12)
    # inscribed polyline length: slightly under the smooth arc length
    L = frozen_geometry(mesh, data.x).hs.sum()
    assert L < R * angle
    assert L == pytest.approx(R * angle, rel=1e-3)
    assert frame_is_adapted(mesh, data)


def test_circle_arc_rejects_bad_parameters():
    mesh = uniform_mesh(5)
    from rodfem.errors import InvalidParameterError
    with pytest.raises(InvalidParameterError):
        circle_arc(mesh, radius=0.0, angle=1.0)
    with pytest.raises(InvalidParameterError):
        circle_arc(mesh, radius=1.0, angle=0.0)
