"""Spatial time stepping: oracle agreement, invariants, run bookkeeping."""

import dataclasses

import numpy as np
import pytest

import rodfem
from rodfem.diagnostics import center_of_mass, length_error
from rodfem.engine3d import SimConfig, initial_state, run, step_count
from rodfem.errors import InvalidParameterError
from rodfem.geometry import frozen_geometry, uniform_mesh
from rodfem.initial import InitialData, circle_arc, straight_rod
from rodfem.materials import ResistiveForceDrag
from rodfem.scenarios import Scenario, builtin_scenario, compile_expr

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


@pytest.mark.parametrize("name, value", [
    ("n_vertices", 8.0), ("n_vertices", "8"),
    ("snapshot_stride", 1.5), ("snapshot_stride", 2.0)])
def test_config_rejects_a_count_that_is_not_an_integer(name, value):
    with pytest.raises(InvalidParameterError,
                       match=f"^{name} must be an integer, got "):
        SimConfig(builtin_scenario("relaxation"), **{name: value})


def test_config_takes_numpy_integer_counts():
    cfg = SimConfig(builtin_scenario("relaxation"), n_vertices=np.int64(8),
                    dt=1.0, t_final=2.0, snapshot_stride=np.int32(1))
    assert sorted(run(cfg).snapshots) == [0, 1, 2]


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


@pytest.mark.parametrize("t_final,spin_up,named", [
    pytest.param(1.1, 0.0, "t_final 1.1", id="t_final"),
    pytest.param(1.0, 0.3, "scenario.spin_up 0.3", id="spin_up")])
def test_config_rejects_a_horizon_or_spin_up_of_a_fraction_of_a_step(
        t_final, spin_up, named):
    # found when the config is made, not after the spin-up has run
    scn = dataclasses.replace(builtin_scenario("worm2d"), spin_up=spin_up)
    with pytest.raises(InvalidParameterError,
                       match=rf"^{named} is not a whole number of steps of "
                             rf"0\.25$"):
        SimConfig(scn, dt=0.25, t_final=t_final, dimension=2)


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


MODELS = {"spatial": 3, "planar": 2}


@pytest.mark.parametrize("model", MODELS)
def test_resume_with_wrong_mesh_is_rejected(model):
    dim = MODELS[model]
    scn = builtin_scenario("relaxation")
    head = run(SimConfig(scn, n_vertices=8, dt=1.0, t_final=2.0,
                            dimension=dim))
    with pytest.raises(InvalidParameterError):
        run(SimConfig(scn, n_vertices=16, dt=1.0, dimension=dim),
               state=head.final_state)


@pytest.mark.parametrize("model", MODELS)
def test_resume_past_the_horizon_names_the_state_time_and_horizon(model):
    dim = MODELS[model]
    scn = builtin_scenario("relaxation")
    pin = dict(n_vertices=8, dt=0.25, dimension=dim)
    head = run(SimConfig(scn, t_final=1.0, **pin))
    with pytest.raises(InvalidParameterError,
                       match=r"t=1\.0, past t_final=0\.5"):
        run(SimConfig(scn, t_final=0.5, **pin), state=head.final_state)
    # a state at the horizon, or a rounding past it, takes no step
    tail = run(SimConfig(scn, t_final=1.0, **pin), state=head.final_state)
    assert tail.stats.steps == 0
    head.final_state.t = 1.0 + 1e-12
    tail = run(SimConfig(scn, t_final=1.0, **pin), state=head.final_state)
    assert tail.stats.steps == 0


@pytest.mark.parametrize("model", MODELS)
def test_run_rejects_the_other_models_state(model):
    dim = MODELS[model]
    scn = builtin_scenario("relaxation")
    pin = dict(n_vertices=8, dt=1.0, t_final=2.0)
    other = run(SimConfig(scn, dimension=2 if dim == 3 else 3, **pin))
    with pytest.raises(InvalidParameterError, match="resume state"):
        run(SimConfig(scn, dimension=dim, **pin), state=other.final_state)


def test_run_rejects_a_resume_state_together_with_initial_data():
    # a resumed run continues from its state, so the initial data would be
    # dropped without a word
    cfg = SimConfig(builtin_scenario("relaxation"), n_vertices=8, dt=1.0,
                    t_final=2.0)
    head = run(dataclasses.replace(cfg, t_final=1.0))
    with pytest.raises(InvalidParameterError, match="not both"):
        run(cfg, state=head.final_state,
            initial=circle_arc(uniform_mesh(8), 5.0, 0.2))


@pytest.mark.parametrize("model, preset", [("spatial", "worm3d"),
                                           ("planar", "worm2d")])
def test_records_are_the_functionals_of_their_states_geometry(model, preset):
    # every record reads the one geometry of its state
    scn = builtin_scenario(preset)
    mesh = uniform_mesh(8)
    res = run(SimConfig(scn, n_vertices=8, dt=0.25, t_final=2.0,
                        dimension=MODELS[model], snapshot_stride=1))
    assert [r.step for r in res.records] == sorted(res.snapshots)
    for rec in res.records:
        x = res.snapshots[rec.step].x
        geom = frozen_geometry(mesh, x)
        assert rec.f1 == length_error(geom, scn.length)
        assert rec.total_length == float(geom.hs.sum())
        assert rec.com.tobytes() == center_of_mass(geom, x).tobytes()


def test_run2d_is_run():
    assert rodfem.run2d is rodfem.run


ARC = circle_arc(uniform_mesh(16), 5.0, 0.2)


@pytest.mark.parametrize("dim, initial", [
    pytest.param(3, circle_arc(uniform_mesh(8), 5.0, 0.2), id="other-mesh"),
    pytest.param(3, InitialData(ARC.x[:, :2], ARC.e1[:, :2], ARC.e2[:, :2]),
                 id="planar-shape"),
    pytest.param(2, ARC, id="planar-model"),
])
def test_initial_data_of_another_shape_is_rejected(dim, initial):
    cfg = SimConfig(builtin_scenario("relaxation"), n_vertices=16, dt=0.25,
                    t_final=0.5, dimension=dim)
    with pytest.raises(InvalidParameterError,
                       match=r"initial data x, e1, e2 have shapes \[\("):
        run(cfg, initial=initial)


@pytest.mark.parametrize("name", ["x", "e1", "e2"])
def test_initial_data_with_a_non_finite_entry_is_rejected(name):
    # before the check, a NaN position surfaced as a zero-length element
    mesh = uniform_mesh(8)
    data = circle_arc(mesh, 5.0, 0.2)
    bad = getattr(data, name).copy()
    bad[3, 1] = np.nan
    cfg = SimConfig(builtin_scenario("relaxation"), n_vertices=8, dt=0.25,
                    t_final=0.5)
    with pytest.raises(InvalidParameterError,
                       match=rf"initial data {name} is not finite at vertex 3"):
        run(cfg, initial=dataclasses.replace(data, **{name: bad}))


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("model", MODELS)
def test_tiny_rods_solve_below_the_band_height(model, n):
    # n = 3 and 4 give systems with fewer unknowns than band rows
    # (kl + ku + 1), the padded case of the band product
    dim = MODELS[model]
    res = run(SimConfig(builtin_scenario("relaxation"), n_vertices=n,
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
    dim = MODELS[model]
    scn = dataclasses.replace(builtin_scenario(preset), spin_up=0.0,
                              kappa1_pref=compile_expr("1/u"))
    with pytest.raises(InvalidParameterError,
                       match=r"scenario\.alpha0 .* at t=0: inf at vertex 0"):
        run(SimConfig(scn, dt=0.25, t_final=1.0, dimension=dim))


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
    dim = MODELS[model]
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
    res = run(SimConfig(counted_scn, n_vertices=16, dt=1.0 / 16.0,
                           t_final=1.0, dimension=dim))
    assert res.stats.steps == 96
    times = [k / 16.0 for k in range(17)]   # spin-up at 0, then the steps
    used = names if dim == 3 else names[:1]
    assert sorted(calls) == sorted(used)
    for name in used:
        assert calls[name] == times, name
