"""Planar reduction: layout, oracle agreement, no twist, and the spatial embedding."""

import dataclasses

import numpy as np
import pytest

from rodfem.assembly3d import DofLayout
from rodfem.engine3d import (SimConfig, embed_in_space, initial_state_2d, run,
                             spun_up_state_2d)
from rodfem.errors import InvalidParameterError
from rodfem.geometry import uniform_mesh
from rodfem.scenarios import builtin_scenario

from reference_dense import ref_step_2d


def test_planar_layout_sizes():
    # 5n - 5: position, bending moment and tension, no curvature slots
    assert DofLayout(16, 2).ndof == 75
    assert DofLayout(7, 2).ndof == 30


def test_planar_layout_is_a_permutation():
    lay = DofLayout(9, 2)
    n = 9
    slots = []
    for i in range(n):
        slots.extend(lay.x_off[i] + d for d in range(2))
    for i in range(1, n - 1):
        slots.extend(lay.y_off[i] + d for d in range(2))
    for e in range(n - 1):
        slots.append(lay.p_off[e])
    assert sorted(slots) == list(range(lay.ndof))
    assert not hasattr(lay, "k_off") and not hasattr(lay, "k_slots")


def test_initial_planar_state():
    mesh = uniform_mesh(10)
    scn = builtin_scenario("worm2d")
    st = initial_state_2d(mesh, scn)
    np.testing.assert_allclose(st.x[:, 0], mesh.u)
    np.testing.assert_allclose(st.x[:, 1], 0.0)
    np.testing.assert_allclose(st.kappa, 0.0)
    np.testing.assert_allclose(st.rest_density, 1.0)
    assert st.t == 0.0


def test_two_steps_match_dense_reference():
    scn = dataclasses.replace(builtin_scenario("worm2d"), spin_up=0.0)
    n, dt = 8, 0.25
    cfg = SimConfig(scn, n_vertices=n, dt=dt, t_final=2 * dt, dimension=2)
    res = run(cfg)
    mesh = uniform_mesh(n)
    k = scn.drag.k
    drag_of_tau = lambda t: np.outer(t, t) + k * (np.eye(2) - np.outer(t, t))  # noqa: E731
    st0 = initial_state_2d(mesh, scn)
    st = {"x": st0.x, "kappa": st0.kappa, "s0": st0.rest_density}
    A_v = scn.material.bend_stiffness_at(mesh.u)
    B_v = scn.material.bend_viscosity_at(mesh.u)
    for step in (1, 2):
        out, _ = ref_step_2d(mesh.u, st, dt, step * dt, A_v, B_v,
                             drag_of_tau, scn.kappa1_pref)
        st = {"x": out["x"], "kappa": out["kappa"], "s0": st["s0"]}
    fin = res.final_state
    np.testing.assert_allclose(fin.x, out["x"], atol=1e-10)
    np.testing.assert_allclose(fin.kappa, out["kappa"], atol=1e-10)
    np.testing.assert_allclose(fin.bend_moment, out["y"], atol=1e-10)
    np.testing.assert_allclose(fin.tension, out["p"], atol=1e-10)


def test_only_the_spatial_model_samples_the_twist_fields():
    # the planar model has no twist, so a twist stiffness that the spatial
    # model rejects does not stop a planar run
    worm = builtin_scenario("worm2d")
    scn = dataclasses.replace(
        worm, spin_up=0.0,
        material=dataclasses.replace(worm.material, twist_stiffness=0.0))
    pin = dict(n_vertices=8, dt=0.5, t_final=1.0)
    assert run(SimConfig(scn, dimension=2, **pin)).stats.steps == 2
    with pytest.raises(InvalidParameterError, match="twist_stiffness"):
        run(SimConfig(scn, **pin))


def test_spun_up_state_is_developed_with_clock_reset():
    scn = builtin_scenario("worm2d")
    cfg = SimConfig(scn, n_vertices=16, dt=0.5, dimension=2)
    st = spun_up_state_2d(cfg)
    assert st.t == 0.0
    # no longer straight: the drive has bent the rod during spin-up
    assert np.abs(st.x[:, 1]).max() > 1e-2
    assert np.abs(st.kappa).max() > 1e-2


def test_planar_records_have_no_frame_error_column_content():
    scn = dataclasses.replace(builtin_scenario("worm2d"), spin_up=0.0)
    res = run(SimConfig(scn, n_vertices=8, dt=0.5, t_final=1.0, dimension=2))
    assert all(r.f2 == 0.0 and r.f2_increment == 0.0 for r in res.records)
    assert all(r.com.shape == (2,) for r in res.records)


def test_embedding_reproduces_planar_dynamics_exactly():
    # same initial state, one solver planar and one spatial: trajectories
    # must agree to rounding because the drive never leaves the plane
    scn = dataclasses.replace(builtin_scenario("worm2d"), spin_up=0.0)
    n, dt, T = 8, 0.25, 1.0
    mesh = uniform_mesh(n)
    st2 = initial_state_2d(mesh, scn)
    st3 = embed_in_space(mesh, st2)
    res2 = run(SimConfig(scn, n_vertices=n, dt=dt, t_final=T, dimension=2),
                 state=st2)
    res3 = run(SimConfig(scn, n_vertices=n, dt=dt, t_final=T), state=st3)
    f2, f3 = res2.final_state, res3.final_state
    np.testing.assert_allclose(f3.x[:, :2], f2.x, atol=1e-12)
    np.testing.assert_allclose(f3.x[:, 2], 0.0, atol=1e-13)
    np.testing.assert_allclose(f3.kappa[:, :2], f2.kappa, atol=1e-12)
    np.testing.assert_allclose(f3.twist, 0.0, atol=1e-13)
    np.testing.assert_allclose(f3.spin, 0.0, atol=1e-13)
    np.testing.assert_allclose(f3.tension, f2.tension, atol=1e-12)


def test_embedded_state_shape():
    mesh = uniform_mesh(6)
    scn = builtin_scenario("worm2d")
    st3 = embed_in_space(mesh, initial_state_2d(mesh, scn))
    assert st3.x.shape == (6, 3)
    np.testing.assert_allclose(st3.e2, np.tile([0.0, 0.0, 1.0], (6, 1)))
    # first director orthogonal to the tangent, in plane
    np.testing.assert_allclose(st3.e1[:, 2], 0.0)
    np.testing.assert_allclose(
        np.einsum("id,id->i", st3.e1, st3.e2), 0.0, atol=1e-15)


def test_resumed_planar_run_reproduces_one_shot_run():
    scn = builtin_scenario("worm2d")
    pin = dict(n_vertices=16, dt=0.25, dimension=2)
    full = run(SimConfig(scn, t_final=4.0, **pin))
    head = run(SimConfig(scn, t_final=1.5, **pin))
    tail = run(SimConfig(scn, t_final=4.0, **pin), state=head.final_state)
    np.testing.assert_allclose(tail.final_state.x, full.final_state.x,
                               atol=1e-13)
    np.testing.assert_allclose(tail.final_state.kappa,
                               full.final_state.kappa, atol=1e-13)
