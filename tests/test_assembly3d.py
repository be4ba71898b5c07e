"""One step of either model: unknown layout, assembly, the solved fields.

The banded assembly is checked against an independent dense loop
implementation with its own unknown ordering; agreement of the decoded
solution fields pins down every coefficient of the step system.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from rodfem.assembly3d import (
    DofLayout,
    RodState2D,
    RodState3D,
    StepContext,
    _Triplets,
    _spin_law,
    _twist_law,
    assemble_step,
    assemble_step_2d,
    frozen_geometry,
    solve_step,
    solve_step_2d,
)
from rodfem.errors import AssemblyError, InvalidParameterError
from rodfem.geometry import element_twist, uniform_mesh, vertex_curvature
from rodfem.initial import straight_rod
from rodfem.materials import IsotropicDrag, MaterialParams, ResistiveForceDrag
from rodfem.scenarios import (Scenario, builtin_scenario, compile_expr,
                              evaluate_field)

from reference_dense import dense_from_band, ref_step_3d


def rest_scenario():
    zero = compile_expr("0")
    return Scenario(name="rest", kappa1_pref=zero, kappa2_pref=zero,
                    twist_pref=zero)


def bent_test_state(n, seed=0, scale=0.15):
    """A fully populated previous-step state on a smooth bent rod."""
    rng = np.random.default_rng(seed)
    mesh = uniform_mesh(n)
    x = np.column_stack([
        mesh.u,
        scale * np.sin(2.0 * np.pi * mesh.u),
        scale * np.cos(3.0 * np.pi * mesh.u) - scale,
    ])
    geom = frozen_geometry(mesh, x)
    ttau = geom.ttau
    probe = np.tile([0.0, 0.0, 1.0], (n, 1))
    e1 = probe - np.einsum("id,id->i", probe, ttau)[:, None] * ttau
    e1 /= np.linalg.norm(e1, axis=1)[:, None]
    e2 = np.cross(ttau, e1)
    state = {
        "x": x,
        "e1": e1,
        "e2": e2,
        "kappa": vertex_curvature(geom)
        + 0.05 * rng.normal(size=(n, 3)),
        "gamma": element_twist(geom, e1, e2) + 0.1 * rng.normal(size=n - 1),
        "y": 0.2 * rng.normal(size=(n, 3)),
        "m": 0.3 * rng.normal(size=n),
        "s0": geom.s * (1.0 + 0.05 * rng.uniform(size=n - 1)),
    }
    state["y"][0] = state["y"][-1] = 0.0  # end moments vanish
    return mesh, state


def as_state(st):
    """The spatial state of a `bent_test_state` dict, at rest otherwise."""
    ne = st["s0"].size
    return RodState3D(
        t=0.0, x=st["x"], e1=st["e1"], e2=st["e2"], kappa=st["kappa"],
        twist=st["gamma"], bend_moment=st["y"], spin=st["m"],
        twist_moment=np.zeros(ne), tension=np.zeros(ne),
        rest_density=st["s0"],
    )


def run_both(mesh, state, scenario, dt, t_new):
    """Solve the same step with the banded and the dense path."""
    ctx = StepContext(mesh, scenario, 3)
    geom = frozen_geometry(mesh, state["x"])
    got, _, _ = solve_step(ctx, geom, dt, t_new, as_state(state))
    mat = scenario.material
    if isinstance(scenario.drag, ResistiveForceDrag):
        k = scenario.drag.k
        drag_of_tau = lambda t: np.outer(t, t) + k * (np.eye(3) - np.outer(t, t))  # noqa: E731
    else:
        m3 = scenario.drag.matrix
        drag_of_tau = lambda t: m3  # noqa: E731
    want, _ = ref_step_3d(
        mesh.u, state, dt, t_new,
        mat.bend_stiffness_at(mesh.u), mat.bend_viscosity_at(mesh.u),
        mat.twist_stiffness_at(mesh.midpoints),
        mat.twist_viscosity_at(mesh.midpoints),
        mat.rotary_drag, drag_of_tau,
        scenario.kappa1_pref, scenario.kappa2_pref, scenario.twist_pref,
    )
    return got, want


def test_unknown_layout_is_a_tight_permutation():
    # 8 unknowns per vertex and element in space, 5 in the plane; the end
    # vertices have no bending-moment slots, and curvature, twist moment
    # and spin have none at all: the step eliminates them
    for dim, stride, missing in ((3, 8, 8), (2, 5, 5)):
        for n in (3, 4, 9, 16):
            lay = DofLayout(n, dim)
            assert lay.ndof == stride * n - missing
            assert list(lay.x_off) == [0] + [stride * i - dim
                                             for i in range(1, n)]
            slots = [lay.x_off[i] + d for i in range(n) for d in range(dim)]
            slots += [lay.y_off[i] + d for i in range(1, n - 1)
                      for d in range(dim)]
            slots += list(lay.p_off)
            if dim == 3:
                slots += list(lay.g_off)
            else:
                assert lay.g_off is None
            assert sorted(slots) == list(range(lay.ndof))
            assert not any(hasattr(lay, name)
                           for name in ("k_off", "k_slots", "z_off", "m_off"))
            # the rows are a permutation too: an interior vertex's
            # momentum rows sit in its bending-moment slots and its
            # bending-law rows in its position slots
            rows = list(lay.mom_rows.ravel()) + list(lay.law_rows.ravel())
            rows += list(lay.p_off)
            if dim == 3:
                rows += list(lay.g_off)
            assert sorted(rows) == list(range(lay.ndof))
            assert np.array_equal(lay.mom_rows[1:-1], lay.y_slots)
            assert np.array_equal(lay.mom_rows[[0, -1]], lay.x_slots[[0, -1]])
            assert np.array_equal(lay.law_rows, lay.x_slots[1:-1])


def test_layout_rejects_tiny_rods():
    for dim in (2, 3):
        with pytest.raises(AssemblyError):
            DofLayout(2, dim)


@pytest.mark.parametrize("seed", [0, 1])
def test_step_matches_dense_reference_isotropic(seed):
    mesh, state = bent_test_state(8, seed=seed)
    scn = builtin_scenario("relaxation")
    got, want = run_both(mesh, state, scn, dt=0.2, t_new=0.6)
    np.testing.assert_allclose(got.x, want["x"], atol=1e-10)
    np.testing.assert_allclose(got.bend_moment, want["y"], atol=1e-10)
    np.testing.assert_allclose(got.kappa, want["kappa"], atol=1e-10)
    np.testing.assert_allclose(got.spin, want["m"], atol=1e-10)
    np.testing.assert_allclose(got.twist_moment, want["z"], atol=1e-10)
    np.testing.assert_allclose(got.twist, want["gamma"], atol=1e-10)
    np.testing.assert_allclose(got.tension, want["p"], atol=1e-10)


def test_step_matches_dense_reference_anisotropic():
    # swimmer-style coefficients: tapered moduli, direction-dependent drag
    mesh, state = bent_test_state(7, seed=2)
    scn = builtin_scenario("worm3d")
    got, want = run_both(mesh, state, scn, dt=1.0 / 16.0, t_new=0.25)
    np.testing.assert_allclose(got.x, want["x"], atol=1e-10)
    np.testing.assert_allclose(got.bend_moment, want["y"], atol=1e-10)
    np.testing.assert_allclose(got.kappa, want["kappa"], atol=1e-10)
    np.testing.assert_allclose(got.spin, want["m"], atol=1e-10)
    np.testing.assert_allclose(got.twist_moment, want["z"], atol=1e-10)
    np.testing.assert_allclose(got.twist, want["gamma"], atol=1e-10)
    np.testing.assert_allclose(got.tension, want["p"], atol=1e-10)


_viscosity = hst.one_of(hst.just(0.0), hst.floats(1e-3, 2.0))
_spd_drag = hst.lists(hst.floats(-1.0, 1.0), min_size=9, max_size=9).map(
    lambda a: IsotropicDrag(np.reshape(a, (3, 3)) @ np.reshape(a, (3, 3)).T
                            + 0.1 * np.eye(3)))


@settings(max_examples=40, deadline=None)
@given(n=hst.integers(4, 16), dt=hst.sampled_from([1.0 / 64.0, 1.0 / 16.0, 0.2]),
       log_drag=hst.floats(-4.0, 4.0), twist_stiffness=hst.floats(0.2, 3.0),
       twist_viscosity=_viscosity, bend_viscosity=_viscosity,
       drag=hst.one_of(_spd_drag,
                       hst.floats(1.0, 60.0).map(ResistiveForceDrag)),
       seed=hst.integers(0, 2**16))
def test_random_step_matches_dense_reference(n, dt, log_drag, twist_stiffness,
                                             twist_viscosity, bend_viscosity,
                                             drag, seed):
    # the dense oracle keeps every eliminated unknown (curvature, twist
    # moment, spin) in its solve, so it checks each elimination over the
    # whole range of rotary drag, down to where the spin dominates the twist
    mesh, state = bent_test_state(n, seed=seed)
    mat = MaterialParams(1.0, bend_viscosity, twist_stiffness,
                         twist_viscosity, rotary_drag=10.0 ** log_drag)
    scn = dataclasses.replace(builtin_scenario("relaxation"), material=mat,
                              drag=drag)
    got, want = run_both(mesh, state, scn, dt=dt, t_new=3.0 * dt)
    for name, key in (("x", "x"), ("bend_moment", "y"), ("kappa", "kappa"),
                      ("spin", "m"), ("twist_moment", "z"), ("twist", "gamma"),
                      ("tension", "p")):
        tol = 1e-10 * max(1.0, np.abs(want[key]).max())
        np.testing.assert_allclose(getattr(got, name), want[key], rtol=0,
                                   atol=tol, err_msg=name)


def test_straight_rest_state_is_stationary():
    mesh = uniform_mesh(9)
    data = straight_rod(mesh)
    scn = rest_scenario()
    ctx = StepContext(mesh, scn, 3)
    geom = frozen_geometry(mesh, data.x)
    n = mesh.n_vertices
    res, _, _ = solve_step(ctx, geom, 0.1, 0.1, as_state({
        "x": data.x, "e1": data.e1, "e2": data.e2, "kappa": np.zeros((n, 3)),
        "gamma": np.zeros(n - 1), "y": np.zeros((n, 3)), "m": np.zeros(n),
        "s0": geom.s,
    }))
    np.testing.assert_allclose(res.x, data.x, atol=1e-12)
    for field in (res.bend_moment, res.kappa, res.spin, res.twist_moment,
                  res.twist, res.tension):
        np.testing.assert_allclose(field, 0.0, atol=1e-12)


def test_step_is_translation_equivariant():
    mesh, state = bent_test_state(8, seed=3)
    scn = builtin_scenario("relaxation")
    got, _ = run_both(mesh, state, scn, dt=0.2, t_new=0.4)
    shift = np.array([0.7, -1.3, 2.1])
    shifted = dict(state)
    shifted["x"] = state["x"] + shift
    got2, _ = run_both(mesh, shifted, scn, dt=0.2, t_new=0.4)
    np.testing.assert_allclose(got2.x, got.x + shift, atol=1e-10)
    np.testing.assert_allclose(got2.tension, got.tension, atol=1e-10)
    np.testing.assert_allclose(got2.kappa, got.kappa, atol=1e-10)


def step_laws(ctx, geom, dt, t_new, st):
    """(zc, z0, rw, sb) of one spatial step: the twist and the spin law."""
    zc, z0 = _twist_law(ctx, dt, t_new, st.twist)
    return (zc, z0, *_spin_law(ctx, geom, st, z0))


def step_case(model, n=8, seed=4, scale=0.15, owner=None):
    """(context, frozen geometry, (dt, t_new, previous state)) of one bent
    step of either model.  owner is the StepContext to use, fresh when
    None."""
    dt, t_new = 1.0 / 16.0, 0.25
    if model == "spatial":
        mesh, st = bent_test_state(n, seed=seed, scale=scale)
        ctx = owner or StepContext(mesh, builtin_scenario("worm3d"), 3)
        return ctx, frozen_geometry(mesh, st["x"]), (dt, t_new, as_state(st))
    rng = np.random.default_rng(seed)
    mesh = uniform_mesh(n)
    x = np.column_stack([
        mesh.u,
        scale * np.sin(2.0 * np.pi * mesh.u) + scale * mesh.u * (1.0 - mesh.u),
    ])
    geom = frozen_geometry(mesh, x)
    kappa = vertex_curvature(geom) + 0.05 * rng.normal(size=(n, 2))
    ctx = owner or StepContext(mesh, builtin_scenario("worm2d"), 2)
    st = RodState2D(0.0, x, kappa, np.zeros((n, 2)), np.zeros(n - 1),
                    geom.s * (1.0 + 0.05 * rng.uniform(size=n - 1)))
    return ctx, geom, (dt, t_new, st)


def assembled_step(model, n=8, seed=4, scale=0.15, owner=None):
    """(matrix, b, c, position slots, previous positions, context) of one
    bent step; see `step_case`."""
    ctx, geom, args = step_case(model, n, seed, scale, owner)
    st = args[2]
    if model == "spatial":
        matrix, b, c = assemble_step(ctx, geom, *args,
                                     *step_laws(ctx, geom, *args))
    else:
        matrix, b, c = assemble_step_2d(ctx, geom, *args)
    return matrix, b, c, ctx.layout.x_slots, st.x, ctx


@pytest.mark.parametrize("model", ["spatial", "planar"])
def test_assembled_increment_rhs_is_b_minus_a_base(model):
    # the hand-derived rows of c must equal the product they replace
    matrix, b, c, x_slots, x, _ = assembled_step(model)
    base = np.zeros(matrix.n, dtype=np.longdouble)
    base[x_slots] = x
    dense = dense_from_band(matrix).astype(np.longdouble)
    want = b.astype(np.longdouble) - dense @ base
    assert np.abs(want).max() > 1e-3 * np.linalg.norm(b)  # c is not all zero
    assert np.linalg.norm(c - want) <= 1e-13 * np.linalg.norm(b)


def test_step_band_is_ten_wide_in_space_and_six_in_the_plane():
    # each row sits where it pivots, so the band is as narrow as the
    # vertex blocks allow; the layout declares it for every n, and from
    # n = 4 on, when an interior vertex has a neighbour with a bending
    # moment, some entry sits on each outermost diagonal
    for model, ns, width in (("spatial", (3, 4, 16, 512), 10),
                             ("planar", (3, 4, 16, 128), 6)):
        for n in ns:
            matrix, *_, ctx = assembled_step(model, n=n)
            lay = ctx.layout
            assert (lay.kl, lay.ku) == (width, width), (model, n)
            assert (matrix.kl, matrix.ku) == (width, width), (model, n)
            ldab = matrix.data.shape[0]
            d = np.concatenate([p.ravel() for p in lay.puts]) % ldab \
                - lay.kl - lay.ku
            if n >= 4:
                assert (d.max(), -d.min()) == (lay.kl, lay.ku), (model, n)
    # the relaxation benchmark's step: 4088 unknowns in 31 band rows
    mesh, st = bent_test_state(512)
    ctx = StepContext(mesh, builtin_scenario("relaxation"), 3)
    geom = frozen_geometry(mesh, st["x"])
    args = (1.0 / 16.0, 0.0625, as_state(st))
    matrix, _, _ = assemble_step(ctx, geom, *args,
                                 *step_laws(ctx, geom, *args))
    assert matrix.data.shape == (31, 4088)


@pytest.mark.parametrize("n", [3, 4, 8])
@pytest.mark.parametrize("model", ["spatial", "planar"])
def test_band_pattern_is_recorded_once_and_reused(model, n):
    # n = 3, 4 have fewer unknowns than the band has rows
    first, *_, owner = assembled_step(model, n=n, seed=5, scale=0.15)
    layout = owner.layout
    puts = layout.puts
    assert len(puts) > 0
    assert (layout.kl, layout.ku) == (first.kl, first.ku)
    second, *_ = assembled_step(model, n=n, seed=6, scale=0.25, owner=owner)
    assert layout.puts is puts
    fresh, *_ = assembled_step(model, n=n, seed=6, scale=0.25)
    assert not np.array_equal(second.data, first.data)
    assert np.array_equal(second.data, fresh.data)
    assert second.data.flags.f_contiguous
    assert (second.kl, second.ku) == (fresh.kl, fresh.ku)


def test_assembly_with_another_runs_pattern_is_rejected():
    _, *_, small = assembled_step("spatial", n=4)
    mesh, st = bent_test_state(5)
    ctx = StepContext(mesh, builtin_scenario("worm3d"), 3)
    ctx.layout.puts = small.layout.puts
    geom = frozen_geometry(mesh, st["x"])
    args = (0.1, 0.1, as_state(st))
    with pytest.raises(AssemblyError, match="band pattern"):
        assemble_step(ctx, geom, *args, *step_laws(ctx, geom, *args))


@pytest.mark.parametrize("dim", [2, 3])
def test_a_band_position_put_twice_is_rejected(dim):
    # every entry of a step has its own band position; a second put at the
    # same position would overwrite the first, so the recording refuses it
    lay = DofLayout(4, dim)
    m = _Triplets(lay)
    m.put(lay.x_off, lay.x_off, np.tile(np.eye(dim), (4, 1, 1)))
    m.put(lay.p_off, lay.p_off, np.ones((3, 1, 1)))
    m.put(lay.x_off[1:2] + 1, lay.x_off[1:2] + 1, np.full((1, 1, 1), 2.0))
    with pytest.raises(AssemblyError, match="more than once"):
        m.banded(np.zeros(lay.ndof), "test")
    assert lay.puts == ()


@pytest.mark.parametrize("dim", [2, 3])
def test_a_put_outside_the_declared_band_is_rejected(dim):
    # an entry one diagonal past the band names the put call and the band,
    # and the layout records no pattern
    lay = DofLayout(6, dim)
    m = _Triplets(lay)
    m.put(lay.x_off, lay.x_off, np.tile(np.eye(dim), (6, 1, 1)))
    with pytest.raises(AssemblyError,
                       match=rf"put call 1 .* kl={lay.kl}, ku={lay.ku}"):
        m.put(np.array([0]), np.array([lay.ku + 1]), np.ones((1, 1, 1)))
    assert lay.puts == ()


@pytest.mark.parametrize("model", ["spatial", "planar"])
def test_decoded_curvature_is_the_curvature_of_the_solved_positions(model):
    # the step eliminates the curvature; its decode must satisfy the
    # curvature identity w_i·k_i = a_r·(x_{i+1} - x_i) - a_l·(x_i - x_{i-1})
    # of the solved positions, with the step's frozen coefficients
    ctx, geom, args = step_case(model)
    solver = solve_step if model == "spatial" else solve_step_2d
    res, _, _ = solver(ctx, geom, *args)
    x_new, kappa = res.x, res.kappa
    hs = ctx.mesh.h * geom.s
    dx = np.diff(x_new, axis=0)
    want = (dx[1:] / hs[1:, None] - dx[:-1] / hs[:-1, None]) / geom.w[1:-1, None]
    assert np.abs(want).max() > 1e-2
    assert np.abs(kappa[1:-1] - want).max() <= 1e-13 * np.abs(want).max()


def test_decoded_twist_moment_satisfies_the_twist_law():
    # the step eliminates the twist moment; its decode must satisfy
    # z = (C + D/dt)·twist - C·gamma0 - (D/dt)·twist_old per element
    ctx, geom, args = step_case("spatial")
    dt, t_new, st = args
    twist_old = st.twist
    res, _, _ = solve_step(ctx, geom, *args)
    C, D = ctx.twist_stiffness, ctx.twist_viscosity
    gamma0 = evaluate_field(ctx.scenario.twist_pref, ctx.mesh.midpoints, t_new)
    terms = [res.twist_moment, (C + D / dt) * res.twist, C * gamma0,
             (D / dt) * twist_old]
    defect = terms[0] - terms[1] + terms[2] + terms[3]
    scale = max(np.abs(t).max() for t in terms)
    assert np.abs(res.twist_moment).max() > 1e-3 * scale
    assert np.abs(defect).max() <= 1e-13 * scale


def test_decoded_spin_satisfies_the_angular_momentum_balance():
    # the step eliminates the spin; its decode must satisfy
    # -r·w_i·m_i + z_i - z_{i-1} = -w_i·y_i·(ttau_i × kappa_i) at every
    # vertex, with the solved twist moment z, zero beyond the ends, and the
    # previous state's bending moment and curvature
    ctx, geom, args = step_case("spatial")
    _, _, st = args
    res, _, _ = solve_step(ctx, geom, *args)
    z = np.zeros(ctx.mesh.n_vertices + 1)
    z[1:-1] = res.twist_moment
    w = geom.w
    terms = [-ctx.scenario.material.rotary_drag * w * res.spin, z[1:], z[:-1],
             w * np.einsum("nd,nd->n", st.bend_moment,
                           np.cross(geom.ttau, st.kappa))]
    defect = terms[0] + terms[1] - terms[2] + terms[3]
    scale = max(np.abs(t).max() for t in terms)
    assert np.abs(res.spin).max() > 1e-3 * np.abs(st.spin).max()
    assert np.abs(terms[0]).max() > 1e-3 * scale
    assert np.abs(defect).max() <= 1e-13 * scale


@pytest.mark.parametrize("model", ["spatial", "planar"])
def test_drive_is_read_only_and_kept_for_its_time(model):
    ctx, *_ = step_case(model)
    alpha, beta, gamma0 = ctx.drive(0.25)
    assert ctx.drive(0.25)[0] is alpha
    fields = [alpha, beta, gamma0] if model == "spatial" else [alpha]
    for f in fields:
        assert not f.flags.writeable
        with pytest.raises(ValueError):
            f[0] = 1.0
    if model == "planar":
        assert beta is None and gamma0 is None
    else:
        np.testing.assert_array_equal(
            gamma0, evaluate_field(ctx.scenario.twist_pref,
                                   ctx.mesh.midpoints, 0.25))
    np.testing.assert_array_equal(
        alpha, evaluate_field(ctx.scenario.kappa1_pref, ctx.mesh.u, 0.25))
    later = ctx.drive(0.5)[0]
    assert later is not alpha
    np.testing.assert_array_equal(
        later, evaluate_field(ctx.scenario.kappa1_pref, ctx.mesh.u, 0.5))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name, key, where", [
    ("kappa1_pref", "alpha0", "vertex 3 (u=0.428571)"),
    ("kappa2_pref", "beta0", "vertex 3 (u=0.428571)"),
    ("twist_pref", "gamma0", "element 3 (u=0.5)"),
])
def test_drive_names_a_non_finite_field_its_time_and_first_bad_place(
        name, key, where):
    # finite on [0, 0.4], infinite past it: vertex 3 of 8 is the first
    # vertex, midpoint 3 the first element midpoint beyond 0.4
    scn = dataclasses.replace(rest_scenario(),
                              **{name: compile_expr("1/step(u, 0, 0.4)")})
    ctx = StepContext(uniform_mesh(8), scn, 3)
    with pytest.raises(InvalidParameterError) as err:
        ctx.drive(0.25)
    assert str(err.value) == (f"scenario.{key} ({name}) is not finite at "
                              f"t=0.25: inf at {where}")
