"""Spatial time stepping: oracle agreement, invariants, run bookkeeping."""

import dataclasses

import numpy as np
import pytest

from rodfem.engine3d import SimConfig, initial_state, run, step_count
from rodfem.errors import InvalidParameterError
from rodfem.geometry import uniform_mesh
from rodfem.initial import straight_rod
from rodfem.materials import IsotropicDrag, ResistiveForceDrag
from rodfem.scenarios import Scenario, builtin_scenario, compile_expr
from rodfem.solver2d import run2d

from reference_dense import ref_step_3d, ref_transport, ref_tangents, ref_averaged_tangent


def rest_scenario(drag=None):
    zero = compile_expr("0")
    kwargs = {} if drag is None else {"drag": drag}
    return Scenario(name="rest", kappa1_pref=zero, kappa2_pref=zero,
                    twist_pref=zero, **kwargs)


def oracle_chain(u, scn, state0, dt, n_steps):
    """Advance the dense reference solver + frame transport n_steps times."""
    mat = scn.material
    mid = (u[:-1] + u[1:]) / 2.0
    if isinstance(scn.drag, ResistiveForceDrag):
        k = scn.drag.k
        drag_of_tau = lambda t: np.outer(t, t) + k * (np.eye(3) - np.outer(t, t))  # noqa: E731
    else:
        m3 = scn.drag.matrix
        drag_of_tau = lambda t: m3  # noqa: E731
    st = {
        "x": state0.x.copy(), "e1": state0.e1.copy(), "e2": state0.e2.copy(),
        "kappa": state0.kappa.copy(), "gamma": state0.twist.copy(),
        "y": state0.bend_moment.copy(), "m": state0.spin.copy(),
        "s0": state0.rest_density.copy(),
    }
    for step in range(1, n_steps + 1):
        t_new = step * dt
        out, _ = ref_step_3d(
            u, st, dt, t_new,
            mat.bend_stiffness_at(u), mat.bend_viscosity_at(u),
            mat.twist_stiffness_at(mid), mat.twist_viscosity_at(mid),
            mat.rotary_drag, drag_of_tau,
            scn.kappa1_pref, scn.kappa2_pref, scn.twist_pref,
        )
        ttau_old = ref_averaged_tangent(ref_tangents(u, st["x"])[0])
        ttau_new = ref_averaged_tangent(ref_tangents(u, out["x"])[0])
        e1n, e2n = ref_transport(st["e1"], st["e2"], ttau_old, ttau_new,
                                 dt * out["m"])
        st = {
            "x": out["x"], "e1": e1n, "e2": e2n, "kappa": out["kappa"],
            "gamma": out["gamma"], "y": out["y"], "m": out["m"],
            "s0": st["s0"],
        }
    return st, out


def test_two_steps_match_dense_reference():
    scn = builtin_scenario("relaxation")
    cfg = SimConfig(scn, n_vertices=8, dt=0.5, t_final=1.0)
    res = run(cfg)
    mesh = uniform_mesh(8)
    want, out = oracle_chain(mesh.u, scn, initial_state(mesh, scn), 0.5, 2)
    fin = res.final_state
    np.testing.assert_allclose(fin.x, want["x"], atol=1e-10)
    np.testing.assert_allclose(fin.e1, want["e1"], atol=1e-10)
    np.testing.assert_allclose(fin.e2, want["e2"], atol=1e-10)
    np.testing.assert_allclose(fin.kappa, want["kappa"], atol=1e-10)
    np.testing.assert_allclose(fin.twist, want["gamma"], atol=1e-10)
    np.testing.assert_allclose(fin.bend_moment, want["y"], atol=1e-10)
    np.testing.assert_allclose(fin.spin, want["m"], atol=1e-10)
    np.testing.assert_allclose(fin.twist_moment, out["z"], atol=1e-10)
    np.testing.assert_allclose(fin.tension, out["p"], atol=1e-10)


def test_initial_state_has_zero_boundary_curvature_and_rest_auxiliaries():
    mesh = uniform_mesh(12)
    scn = builtin_scenario("relaxation")
    st = initial_state(mesh, scn)
    assert np.all(st.kappa[0] == 0.0) and np.all(st.kappa[-1] == 0.0)
    np.testing.assert_allclose(st.kappa, 0.0, atol=1e-15)  # straight start
    np.testing.assert_allclose(st.twist, 0.0, atol=1e-15)
    np.testing.assert_allclose(st.rest_density, 1.0)
    np.testing.assert_allclose(st.bend_moment, 0.0)
    assert st.t == 0.0


def test_straight_rod_is_a_fixed_point_under_zero_drive():
    scn = rest_scenario()
    cfg = SimConfig(scn, n_vertices=16, dt=0.1, t_final=1.0)
    res = run(cfg)
    x0 = straight_rod(uniform_mesh(16)).x
    assert np.abs(res.final_state.x - x0).max() < 1e-12
    assert res.stats.max_f1 < 1e-12
    assert np.abs(res.final_state.spin).max() < 1e-12


def test_step_count_requires_whole_steps():
    assert step_count(25.0, 1.0) == 25
    assert step_count(5.0, 0.25) == 20
    assert step_count(0.0, 0.5) == 0
    with pytest.raises(InvalidParameterError):
        step_count(1.0, 0.3)


def test_config_validation():
    scn = builtin_scenario("relaxation")
    with pytest.raises(InvalidParameterError):
        SimConfig(scn, n_vertices=2)
    with pytest.raises(InvalidParameterError):
        SimConfig(scn, dt=0.0)
    with pytest.raises(InvalidParameterError):
        SimConfig(scn, dimension=4)
    with pytest.raises(InvalidParameterError):
        SimConfig(scn, snapshot_stride=-1)


@pytest.mark.parametrize("t_final,spin_up,length,dimension,name", [
    *(pytest.param(t_final, spin_up, 1.0, 3, name,
                   id=f"{t_final}-{spin_up}-{name}")
      for t_final, spin_up, name in (
          (np.nan, 0.0, "t_final"), (np.inf, 0.0, "t_final"),
          (0.0, 0.0, "t_final"), (-1.0, 0.0, "t_final"),
          (1.0, np.nan, "spin_up"), (1.0, np.inf, "spin_up"),
          (1.0, -0.5, "spin_up"))),
    *(pytest.param(1.0, 0.0, length, dimension, "length",
                   id=f"length={length}-{dimension}d")
      for length in (np.nan, np.inf, 0.0, -1.0) for dimension in (2, 3)),
])
def test_config_rejects_a_non_finite_or_negative_horizon_or_spin_up(
        t_final, spin_up, length, dimension, name):
    # NaN passes every `<= 0` / `< 0` check, so each bound is tested as
    # "finite and in range"
    scn = dataclasses.replace(builtin_scenario("worm3d"), spin_up=spin_up,
                              length=length)
    with pytest.raises(InvalidParameterError, match=name):
        SimConfig(scn, t_final=t_final, dimension=dimension)


def test_initial_energy_of_the_relaxation_drive():
    # straight start, so the energy is the quadrature of the preferred
    # fields' squared magnitude: 4 sin^2 + 9 cos^2 (three half-turns) plus
    # 25 cos^2 (two full turns) integrates to 19, and the oscillatory parts
    # cancel exactly in vertex/midpoint quadrature on these uniform meshes
    scn = builtin_scenario("relaxation")
    for n in (64, 256):
        res = run(SimConfig(scn, n_vertices=n, dt=1.0, t_final=1.0))
        assert res.records[0].energy == pytest.approx(19.0, abs=1e-12)


def test_coarsest_relaxation_length_error_regression():
    scn = builtin_scenario("relaxation")
    res = run(SimConfig(scn, n_vertices=16, dt=1.0))
    assert res.stats.max_f1 == pytest.approx(0.034678830063451516, abs=1e-13)


def test_snapshot_stride_records_requested_steps():
    scn = builtin_scenario("relaxation")
    res = run(SimConfig(scn, n_vertices=8, dt=1.0, t_final=10.0,
                        snapshot_stride=4))
    assert sorted(res.snapshots) == [0, 4, 8, 10]
    res = run(SimConfig(scn, n_vertices=8, dt=1.0, t_final=10.0))
    assert sorted(res.snapshots) == [0, 10]


def test_resumed_run_reproduces_one_shot_run():
    scn = builtin_scenario("relaxation")
    full = run(SimConfig(scn, n_vertices=16, dt=1.0, t_final=25.0))
    head = run(SimConfig(scn, n_vertices=16, dt=1.0, t_final=12.0))
    tail = run(SimConfig(scn, n_vertices=16, dt=1.0, t_final=25.0),
               state=head.final_state)
    assert tail.final_state.t == full.final_state.t
    np.testing.assert_allclose(tail.final_state.x, full.final_state.x,
                               atol=1e-13)
    np.testing.assert_allclose(tail.final_state.kappa, full.final_state.kappa,
                               atol=1e-13)
    # diagnostics keep absolute step numbering across the resume
    assert tail.records[0].step == 12
    assert tail.records[-1].step == 25


MODELS = {"spatial": (run, 3), "planar": (run2d, 2)}


@pytest.mark.parametrize("model", MODELS)
def test_resume_with_wrong_mesh_is_rejected(model):
    driver, dim = MODELS[model]
    scn = builtin_scenario("relaxation")
    head = driver(SimConfig(scn, n_vertices=8, dt=1.0, t_final=2.0,
                            dimension=dim))
    with pytest.raises(InvalidParameterError):
        driver(SimConfig(scn, n_vertices=16, dt=1.0, dimension=dim),
               state=head.final_state)


@pytest.mark.parametrize("model", MODELS)
def test_resume_past_the_horizon_names_the_state_time_and_horizon(model):
    driver, dim = MODELS[model]
    scn = builtin_scenario("relaxation")
    pin = dict(n_vertices=8, dt=0.25, dimension=dim)
    head = driver(SimConfig(scn, t_final=1.0, **pin))
    with pytest.raises(InvalidParameterError,
                       match=r"t=1\.0, past t_final=0\.5"):
        driver(SimConfig(scn, t_final=0.5, **pin), state=head.final_state)
    # a state at the horizon, or a rounding past it, takes no step
    tail = driver(SimConfig(scn, t_final=1.0, **pin), state=head.final_state)
    assert tail.stats.steps == 0
    head.final_state.t = 1.0 + 1e-12
    tail = driver(SimConfig(scn, t_final=1.0, **pin), state=head.final_state)
    assert tail.stats.steps == 0


@pytest.mark.parametrize("model", MODELS)
def test_driver_rejects_the_other_models_config_and_state(model):
    driver, dim = MODELS[model]
    other_driver, other_dim = MODELS["planar" if dim == 3 else "spatial"]
    scn = builtin_scenario("relaxation")
    pin = dict(n_vertices=8, dt=1.0, t_final=2.0)
    with pytest.raises(InvalidParameterError, match="config.dimension"):
        driver(SimConfig(scn, dimension=other_dim, **pin))
    other = other_driver(SimConfig(scn, dimension=other_dim, **pin))
    with pytest.raises(InvalidParameterError, match="resume state"):
        driver(SimConfig(scn, dimension=dim, **pin), state=other.final_state)


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("model", MODELS)
def test_tiny_rods_solve_below_the_band_height(model, n):
    # n = 3 and 4 give systems with fewer unknowns than band rows
    # (kl + ku + 1), the padded case of the band product
    driver, dim = MODELS[model]
    res = driver(SimConfig(builtin_scenario("relaxation"), n_vertices=n,
                           dt=0.5, t_final=2.0, dimension=dim))
    assert res.stats.steps == 4
    assert 0.0 < res.stats.max_solver_residual < 1e-13
    assert res.stats.max_constraint_residual < 1e-13
    assert np.all(np.isfinite(res.final_state.x))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("model, preset", [("spatial", "relaxation"),
                                           ("planar", "worm2d")])
def test_a_non_finite_preferred_curvature_is_rejected_by_name(model, preset):
    # 1/u is infinite at the first vertex, which only the end curvature and
    # the energy see in the plane: rejected, not run to a NaN energy
    driver, dim = MODELS[model]
    scn = dataclasses.replace(builtin_scenario(preset), spin_up=0.0,
                              kappa1_pref=compile_expr("1/u"))
    with pytest.raises(InvalidParameterError,
                       match=r"scenario\.alpha0 .* at t=0: inf at vertex 0"):
        driver(SimConfig(scn, dt=0.25, t_final=1.0, dimension=dim))


def test_spin_up_phase_develops_the_waveform_and_resets_the_clock():
    scn = builtin_scenario("worm2d")
    cfg = SimConfig(scn, n_vertices=16, dt=0.25, t_final=1.0)
    res = run(cfg)
    assert res.records[0].t == 0.0
    assert res.records[0].step == 0
    # the shape at clock zero is developed, not straight
    assert np.abs(res.snapshots[0].x[:, 1]).max() > 1e-2
    # spin-up steps counted in the invariant sweep but not in the records
    assert res.stats.steps == step_count(5.0, 0.25) + step_count(1.0, 0.25)
    assert len(res.records) == 5


@pytest.mark.parametrize("model, preset", [("spatial", "worm3d"),
                                           ("planar", "worm2d")])
def test_each_drive_field_is_evaluated_once_per_step_time(model, preset):
    # assembly, end curvatures, twist law and energy of one step time share
    # one evaluation of each preferred field; the planar model evaluates
    # neither the second curvature nor the twist
    driver, dim = MODELS[model]
    scn = builtin_scenario(preset)
    calls = {}

    def counted(name):
        f = getattr(scn, name)

        def field(u, t):
            calls.setdefault(name, []).append(t)
            return f(u, t)
        return field

    names = ("kappa1_pref", "kappa2_pref", "twist_pref")
    counted_scn = dataclasses.replace(scn, **{k: counted(k) for k in names})
    res = driver(SimConfig(counted_scn, n_vertices=16, dt=1.0 / 16.0,
                           t_final=1.0, dimension=dim))
    assert res.stats.steps == 96
    times = [k / 16.0 for k in range(17)]   # spin-up at 0, then the steps
    used = names if dim == 3 else names[:1]
    assert sorted(calls) == sorted(used)
    for name in used:
        assert calls[name] == times, name
