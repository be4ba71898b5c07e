"""Director frame transport: exactness, drift, failure modes."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from rodfem.errors import FrameTransportError
from rodfem.frame import (
    frame_error,
    orthonormality_defects,
    transport_frame,
)
from rodfem.geometry import frozen_geometry, uniform_mesh

from reference_dense import ref_transport


def random_unit_frames(n, seed):
    """n orthonormal triads (t, e1, e2) from random rotations."""
    rng = np.random.default_rng(seed)
    t = rng.normal(size=(n, 3))
    t /= np.linalg.norm(t, axis=1)[:, None]
    a = rng.normal(size=(n, 3))
    e1 = a - np.einsum("id,id->i", a, t)[:, None] * t
    e1 /= np.linalg.norm(e1, axis=1)[:, None]
    return t, e1, np.cross(t, e1)


def test_identity_transport_is_exact():
    t, e1, e2 = random_unit_frames(6, seed=0)
    f1, f2 = transport_frame(e1, e2, t, t, np.zeros(6))
    np.testing.assert_allclose(f1, e1, atol=1e-15)
    np.testing.assert_allclose(f2, e2, atol=1e-15)


def test_pure_spin_rotates_about_the_tangent():
    t = np.array([[0.0, 0.0, 1.0]])
    e1 = np.array([[1.0, 0.0, 0.0]])
    e2 = np.array([[0.0, 1.0, 0.0]])
    phi = np.array([np.pi / 2.0])
    f1, f2 = transport_frame(e1, e2, t, t, phi)
    np.testing.assert_allclose(f1, [[0.0, 1.0, 0.0]], atol=1e-15)
    np.testing.assert_allclose(f2, [[-1.0, 0.0, 0.0]], atol=1e-15)


def test_tilt_carries_the_tangent_along():
    # rotating the tangent by 90 degrees takes e2 = old tangent's partner
    told = np.array([[1.0, 0.0, 0.0]])
    tnew = np.array([[0.0, 1.0, 0.0]])
    e1 = np.array([[0.0, 1.0, 0.0]])
    e2 = np.array([[0.0, 0.0, 1.0]])
    f1, f2 = transport_frame(e1, e2, told, tnew, np.zeros(1))
    np.testing.assert_allclose(f1, [[-1.0, 0.0, 0.0]], atol=1e-15)
    np.testing.assert_allclose(f2, [[0.0, 0.0, 1.0]], atol=1e-15)


def test_transport_matches_loop_reference():
    told, e1, e2 = random_unit_frames(9, seed=1)
    rng = np.random.default_rng(2)
    tnew = told + 0.3 * rng.normal(size=told.shape)
    tnew /= np.linalg.norm(tnew, axis=1)[:, None]
    phi = rng.normal(size=9)
    f1, f2 = transport_frame(e1, e2, told, tnew, phi)
    g1, g2 = ref_transport(e1, e2, told, tnew, phi)
    np.testing.assert_allclose(f1, g1, atol=1e-13)
    np.testing.assert_allclose(f2, g2, atol=1e-13)


@given(
    seed=st.integers(0, 10_000),
    tilt=st.floats(0.0, 0.45),
    phi_scale=st.floats(-3.0, 3.0),
)
@settings(max_examples=60, deadline=None)
def test_transport_preserves_orthonormality(seed, tilt, phi_scale):
    told, e1, e2 = random_unit_frames(7, seed=seed)
    rng = np.random.default_rng(seed + 1)
    tnew = told + tilt * rng.normal(size=told.shape)
    tnew /= np.linalg.norm(tnew, axis=1)[:, None]
    assume(np.all(1.0 + np.einsum("id,id->i", told, tnew) > 1e-3))
    f1, f2 = transport_frame(e1, e2, told, tnew, phi_scale * rng.normal(size=7))
    assert orthonormality_defects(tnew, f1, f2).max() < 1e-13
    # transported directors stay orthogonal to the carried tangent
    assert np.abs(np.einsum("id,id->i", f1, tnew)).max() < 1e-13


def test_antipodal_tangent_flip_fails_loudly():
    t = np.array([[1.0, 0.0, 0.0]])
    e1 = np.array([[0.0, 1.0, 0.0]])
    e2 = np.array([[0.0, 0.0, 1.0]])
    with pytest.raises(FrameTransportError):
        transport_frame(e1, e2, t, -t, np.zeros(1))


def test_frame_error_is_a_weighted_aggregate():
    mesh = uniform_mesh(5)
    x = np.column_stack([mesh.u, np.zeros(5), np.zeros(5)])
    e1 = np.tile([0.0, 1.0, 0.0], (5, 1))
    e2 = np.tile([0.0, 0.0, 1.0], (5, 1))
    geom = frozen_geometry(mesh, x)
    assert frame_error(geom, e1, e2) == 0.0
    # perturb e1 at one interior vertex by delta along the tangent:
    # defects |t.e1| = delta and |e1.e1 - 1| = delta^2, weight w = 1/4
    delta = 1e-3
    e1[2, 0] = delta
    expected = np.sqrt(0.25 * (delta**2 + (delta**2) ** 2))
    assert frame_error(geom, e1, e2) == pytest.approx(expected, rel=1e-12)


@given(arrays(np.float64, (6,), elements=st.floats(-2.0, 2.0)))
@settings(max_examples=40, deadline=None)
def test_frame_error_never_negative(phis):
    t, e1, e2 = random_unit_frames(6, seed=11)
    mesh = uniform_mesh(6)
    x = np.column_stack([mesh.u, np.zeros(6), np.zeros(6)])
    f1, f2 = transport_frame(e1, e2, t, t, phis)
    assert frame_error(frozen_geometry(mesh, x), f1, f2) >= 0.0
