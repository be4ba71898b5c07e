"""Material parameter sampling and drag models."""

import dataclasses

import numpy as np
import pytest

from rodfem.errors import InvalidParameterError
from rodfem.geometry import frozen_geometry, uniform_mesh
from rodfem.materials import (
    IsotropicDrag,
    MaterialParams,
    ResistiveForceDrag,
    taper_profile,
)


def test_taper_profile_hand_values():
    # 8*((eps+u)(eps+1-u))^1.5 / (1+2 eps)^3 at eps = 0.05
    u = np.array([0.0, 0.25, 0.5])
    got = taper_profile(u, eps=0.05)
    np.testing.assert_allclose(
        got, [0.07230209586331526, 0.7066897529892863, 1.0], rtol=1e-12)
    # symmetric about the midpoint
    np.testing.assert_allclose(
        taper_profile(np.array([0.1, 0.9]), 0.05)[0],
        taper_profile(np.array([0.1, 0.9]), 0.05)[1])


def test_taper_profile_is_positive_on_the_closed_interval():
    u = np.linspace(0.0, 1.0, 101)
    assert np.all(taper_profile(u, eps=0.01) > 0.0)


def test_material_sampling_constant_and_callable():
    mat = MaterialParams(bend_stiffness=2.5,
                         bend_viscosity=lambda u: 0.5 * u)
    u = np.linspace(0.0, 1.0, 5)
    np.testing.assert_allclose(mat.bend_stiffness_at(u), 2.5)
    np.testing.assert_allclose(mat.bend_viscosity_at(u), 0.5 * u)


def test_material_admissibility():
    u = np.array([0.0, 0.5, 1.0])
    with pytest.raises(InvalidParameterError):
        MaterialParams(bend_stiffness=0.0).bend_stiffness_at(u)
    with pytest.raises(InvalidParameterError):
        MaterialParams(twist_stiffness=-1.0).twist_stiffness_at(u)
    with pytest.raises(InvalidParameterError):
        MaterialParams(bend_viscosity=-0.1).bend_viscosity_at(u)
    with pytest.raises(InvalidParameterError):
        MaterialParams(rotary_drag=0.0)
    # zero viscosity is a legitimate purely elastic rod
    np.testing.assert_allclose(MaterialParams().bend_viscosity_at(u), 0.0)


def test_isotropic_drag_validation():
    with pytest.raises(InvalidParameterError):
        IsotropicDrag(np.diag([1.0, 1.0, -1.0]))
    with pytest.raises(InvalidParameterError):
        IsotropicDrag(np.array([[1.0, 0.5, 0.0],
                                [0.0, 1.0, 0.0],
                                [0.0, 0.0, 1.0]]))
    with pytest.raises(InvalidParameterError):
        IsotropicDrag(np.full((3, 3), np.nan))


def test_isotropic_drag_tiles_and_truncates():
    drag = IsotropicDrag(np.diag([1.0, 2.0, 3.0]))
    tau3 = np.tile([1.0, 0.0, 0.0], (4, 1))
    mats = drag.element_matrices(tau3)
    assert mats.shape == (4, 3, 3)
    np.testing.assert_allclose(mats[2], np.diag([1.0, 2.0, 3.0]))
    # planar tangents pick out the upper-left block
    tau2 = np.tile([0.0, 1.0], (3, 1))
    np.testing.assert_allclose(
        drag.element_matrices(tau2), np.tile(np.diag([1.0, 2.0]), (3, 1, 1)))


def test_resistive_force_drag_axis_aligned():
    drag = ResistiveForceDrag(40.0)
    tau = np.array([[1.0, 0.0, 0.0]])
    np.testing.assert_allclose(
        drag.element_matrices(tau)[0], np.diag([1.0, 40.0, 40.0]), atol=1e-14)


def test_resistive_force_drag_general_direction():
    drag = ResistiveForceDrag(7.0)
    tau = np.array([[0.6, 0.8, 0.0], [0.0, 0.6, -0.8]])
    mats = drag.element_matrices(tau)
    for t, m in zip(tau, mats):
        outer = np.outer(t, t)
        np.testing.assert_allclose(
            m, outer + 7.0 * (np.eye(3) - outer), atol=1e-14)
        # eigenvalues 1 along the tangent, k across
        np.testing.assert_allclose(m @ t, t, atol=1e-14)


def test_resistive_force_drag_planar():
    drag = ResistiveForceDrag(3.0)
    tau = np.array([[0.8, 0.6]])
    m = drag.element_matrices(tau)[0]
    outer = np.outer(tau[0], tau[0])
    np.testing.assert_allclose(m, outer + 3.0 * (np.eye(2) - outer))


def test_resistive_force_drag_rejects_bad_input():
    with pytest.raises(InvalidParameterError):
        ResistiveForceDrag(0.0)
    with pytest.raises(InvalidParameterError):
        ResistiveForceDrag(5.0).element_matrices(np.array([[2.0, 0.0, 0.0]]))


def nan_tangent_geometry(dim):
    """The frozen geometry of a bent rod, with element 1's tangent NaN."""
    mesh = uniform_mesh(4)
    x = np.zeros((4, dim))
    x[:, 0] = mesh.u
    x[2, 1] = 0.1
    geom = frozen_geometry(mesh, x)
    tau = geom.tau.copy()
    tau[1] = np.nan
    outer = tau[:, :, None] * tau[:, None, :]
    return dataclasses.replace(geom, tau=tau, outer=outer,
                               proj=np.eye(dim) - outer)


@pytest.mark.parametrize("dim", [2, 3])
def test_resistive_force_drag_rejects_a_nan_tangent(dim):
    # |nan - 1| > 1e-12 is False, so a check written that way let it pass
    drag = ResistiveForceDrag(5.0)
    tau = np.zeros((1, dim))
    tau[0, 0] = np.nan
    with pytest.raises(InvalidParameterError, match=r"element 0: \|tau\| = nan"):
        drag.element_matrices(tau)
    with pytest.raises(InvalidParameterError, match=r"element 1: \|tau\| = nan"):
        drag._frozen_matrices(nan_tangent_geometry(dim))
