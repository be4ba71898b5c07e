"""Time-stepping driver for both rod models.

`run` advances the model that `SimConfig.dimension` names (3: spatial,
2: planar) through one step loop: the spin-up phase, the resume check, the
per-step invariant probe, the diagnostics records, the snapshots and the
run result.  Each model hands the loop its fresh state, its step and its
energy/frame-error measure as plain callables.  Each step maps a state to
the next one; both models' states and steps live in `assembly3d`, their
fresh states here, next to the lift of a planar state into space.  `run2d`
is the same function as `run`.
"""

import time
from dataclasses import dataclass, fields

import numpy as np

from .assembly3d import (RodState2D, RodState3D, StepContext, solve_step,
                         solve_step_2d)
from .diagnostics import (DiagnosticsRecord, center_of_mass, elastic_energy,
                          length_error)
from .errors import InvalidParameterError
from .frame import frame_error
from .geometry import (Mesh, element_twist, frozen_geometry, perp,
                       uniform_mesh, vertex_curvature)
from .initial import InitialData, straight_rod
from .scenarios import Scenario


@dataclass
class SimConfig:
    scenario: Scenario
    n_vertices: int = 16
    dt: float = 1.0
    t_final: float = 25.0
    dimension: int = 3
    snapshot_stride: int = 0       # 0 = first and last step only

    def __post_init__(self):
        for name in ("n_vertices", "snapshot_stride"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)):
                raise InvalidParameterError(
                    f"{name} must be an integer, got {value!r}")
        if self.n_vertices < 3:
            raise InvalidParameterError(
                f"n_vertices must be at least 3, got {self.n_vertices}"
            )
        if not (np.isfinite(self.dt) and self.dt > 0.0):
            raise InvalidParameterError(f"dt must be positive, got {self.dt}")
        if self.dimension not in (2, 3):
            raise InvalidParameterError(
                f"dimension must be 2 or 3, got {self.dimension}"
            )
        if not (np.isfinite(self.t_final) and self.t_final > 0.0):
            raise InvalidParameterError(
                f"t_final must be finite and positive, got {self.t_final}"
            )
        spin_up = self.scenario.spin_up
        if not (np.isfinite(spin_up) and spin_up >= 0.0):
            raise InvalidParameterError(
                f"scenario.spin_up must be finite and >= 0, got {spin_up}"
            )
        # a resumed run checks the duration left to it when it starts
        step_count(self.t_final, self.dt, "t_final")
        step_count(spin_up, self.dt, "scenario.spin_up")
        length = self.scenario.length
        if not (np.isfinite(length) and length > 0.0):
            raise InvalidParameterError(
                f"scenario.length must be finite and positive, got {length}"
            )
        if self.snapshot_stride < 0:
            raise InvalidParameterError("snapshot_stride must be nonnegative")


@dataclass
class RunStats:
    """Per-step invariants of a run.  steps and the step probes cover the
    spin-up too; max_f1, max_f2 and max_f2_increment are read from the
    records, which cover the main phase only."""

    steps: int = 0
    max_f1: float = 0.0
    max_f2: float = 0.0
    max_f2_increment: float = 0.0
    max_constraint_residual: float = 0.0
    max_length_identity_error: float = 0.0  # relative to the rest density
    min_stretch: float = np.inf             # min of s / rest density
    max_solver_residual: float = 0.0        # |c - A·increment| / |b| per step
    max_abs_x3: float = 0.0
    max_abs_beta: float = 0.0
    max_abs_twist: float = 0.0


@dataclass
class RunResult:
    config: SimConfig
    final_state: RodState3D
    records: list
    snapshots: dict             # absolute step index -> state copy
    stats: RunStats
    wall_time: float


def step_count(duration: float, dt: float, what: str = "duration") -> int:
    """Steps covering the duration, named what; it must divide evenly."""
    q = duration / dt
    if not np.isfinite(q):
        raise InvalidParameterError(
            f"{what} {duration} takes more steps of {dt} than can be counted"
        )
    k = int(round(q))
    if k < 0 or abs(k * dt - duration) > 1e-6 * dt:
        raise InvalidParameterError(
            f"{what} {duration} is not a whole number of steps of {dt}"
        )
    return k


def initial_state(mesh: Mesh, scenario: Scenario, data: InitialData = None) -> RodState3D:
    """State at t = 0: given (or straight) geometry, auxiliaries at rest."""
    if data is None:
        data = straight_rod(mesh, length=scenario.length)
    x, e1, e2 = data.x, data.e1, data.e2
    n, ne = mesh.n_vertices, mesh.n_elements
    geom = frozen_geometry(mesh, x)
    # Initial curvature carries zero boundary values; prescribed boundary
    # data only enters from the first solve onwards.
    return RodState3D(
        t=0.0, x=x.copy(), e1=e1.copy(), e2=e2.copy(),
        kappa=vertex_curvature(geom), twist=element_twist(geom, e1, e2),
        bend_moment=np.zeros((n, 3)), spin=np.zeros(n),
        twist_moment=np.zeros(ne), tension=np.zeros(ne),
        rest_density=geom.s.copy(),
    )


def initial_state_2d(mesh: Mesh, scenario: Scenario) -> RodState2D:
    """Planar state at t = 0: straight along the first axis, auxiliaries
    at rest."""
    n = mesh.n_vertices
    x = np.zeros((n, 2))
    x[:, 0] = scenario.length * mesh.u
    geom = frozen_geometry(mesh, x)
    return RodState2D(
        t=0.0, x=x, kappa=vertex_curvature(geom),
        bend_moment=np.zeros((n, 2)), tension=np.zeros(n - 1),
        rest_density=geom.s.copy(),
    )


def embed_in_space(mesh: Mesh, state: RodState2D) -> RodState3D:
    """Lift a planar state into the spatial model.

    The first director is the planar normal with a zero third component, the
    second is the plane normal, and every out-of-plane auxiliary starts at
    zero; the spatial step then reproduces the planar dynamics exactly.
    """
    n, ne = mesh.n_vertices, mesh.n_elements

    def lift(a):
        out = np.zeros((a.shape[0], 3))
        out[:, :2] = a
        return out

    nu = perp(frozen_geometry(mesh, state.x).ttau)
    e2 = np.zeros((n, 3))
    e2[:, 2] = 1.0
    return RodState3D(
        t=state.t, x=lift(state.x), e1=lift(nu), e2=e2,
        kappa=lift(state.kappa), twist=np.zeros(ne),
        bend_moment=lift(state.bend_moment), spin=np.zeros(n),
        twist_moment=np.zeros(ne), tension=state.tension.copy(),
        rest_density=state.rest_density.copy(),
    )


def _check_model(config, mesh, state, initial, fresh_state):
    """Reject a resume state together with initial data, a resume state or
    initial data made for another model or mesh, and a resume state or
    initial data with a non-finite time or entry.

    A resume state must have the type and every field's shape of the
    model's fresh state; fresh_state() is called only to check one.
    """
    if state is not None and initial is not None:
        raise InvalidParameterError(
            "give a resume state or initial data, not both: a resumed run "
            "continues from its state")
    model = f"the {config.dimension}-d model on this mesh"
    if state is not None:
        ref = fresh_state()     # straight: no initial data comes with a state
        if type(state) is not type(ref):
            raise InvalidParameterError(
                f"resume state is a {type(state).__name__}, {model} takes "
                f"a {type(ref).__name__}")
        names = [f.name for f in fields(ref) if f.name != "t"]
        for name in names:
            shape, want = (np.shape(getattr(s, name)) for s in (state, ref))
            if shape != want:
                raise InvalidParameterError(
                    f"resume state {name} has shape {shape}, {model} wants "
                    f"{want}")
        if not np.isfinite(state.t):
            raise InvalidParameterError(
                f"resume state t is not finite: {state.t}")
        what, data = "resume state", state
    elif initial is not None:
        shapes = [np.shape(a) for a in (initial.x, initial.e1, initial.e2)]
        want = [(mesh.n_vertices, 3)] * 3
        if config.dimension == 2 or shapes != want:
            raise InvalidParameterError(
                f"initial data x, e1, e2 have shapes {shapes}, {model} takes "
                f"{'none' if config.dimension == 2 else want}"
            )
        what, data, names = "initial data", initial, ("x", "e1", "e2")
    else:
        return
    for name in names:
        a = np.asarray(getattr(data, name))
        bad = np.flatnonzero(~np.isfinite(a.reshape(len(a), -1)).all(axis=1))
        if bad.size:
            where = "vertex" if len(a) == mesh.n_vertices else "element"
            raise InvalidParameterError(
                f"{what} {name} is not finite at {where} {bad[0]}: "
                f"{a[bad[0]]}"
            )


def _advance(mesh, state, geom, t, step, stats):
    """Take one step, then probe the invariants of the step just taken."""
    new, gnew, residual = step(state, geom, t, stats)
    rest = state.rest_density
    cres = np.einsum("ed,ed->e", geom.tau, gnew.dx) - mesh.h * rest
    stats.max_constraint_residual = max(
        stats.max_constraint_residual, float(np.abs(cres).max())
    )
    shrink = 1.0 - 0.5 * np.add.reduce((gnew.tau - geom.tau) ** 2, axis=1)
    if (shrink <= 0.0).any():
        identity_defect = np.inf
    else:
        identity_defect = float(
            np.abs(gnew.s - rest / shrink).max() / rest.min()
        )
    stats.max_length_identity_error = max(
        stats.max_length_identity_error, identity_defect
    )
    stats.min_stretch = min(stats.min_stretch, float((gnew.s / rest).min()))
    stats.max_solver_residual = max(stats.max_solver_residual, residual)
    stats.steps += 1
    return new, gnew


def _spin_up(config, mesh, state, step, stats):
    """The scenario's spin-up phase, from `state` at t = 0.

    The driving fields are clamped at their t = 0 values and every state is
    labelled t = 0, so the clock restarts at zero when the phase ends.
    Returns the developed state and its geometry.
    """
    geom = frozen_geometry(mesh, state.x)
    for _ in range(step_count(config.scenario.spin_up, config.dt)):
        state, geom = _advance(mesh, state, geom, 0.0, step, stats)
    return state, geom


def _spatial_model(config, mesh, initial):
    """The spatial model as `run` calls it: fresh_state() at t = 0,
    step(state, geom, t, stats) -> (state, geometry, solver residual) at
    time t, and measure(state, geom) -> (elastic energy, frame error)."""
    ctx = StepContext(mesh, config.scenario, 3)

    def fresh_state():
        return initial_state(mesh, config.scenario, initial)

    def step(st, gm, t, stats):
        new, gnew, residual = solve_step(ctx, gm, config.dt, t, st)
        stats.max_abs_x3 = max(stats.max_abs_x3, float(np.abs(new.x[:, 2]).max()))
        beta_h = np.einsum("nd,nd->n", new.kappa, new.e2)
        stats.max_abs_beta = max(stats.max_abs_beta, float(np.abs(beta_h).max()))
        stats.max_abs_twist = max(stats.max_abs_twist, float(np.abs(new.twist).max()))
        return new, gnew, residual

    def measure(st, gm):
        alpha, beta, gamma0 = ctx.drive(st.t)
        kpref = alpha[:, None] * st.e1 + beta[:, None] * st.e2
        energy = elastic_energy(
            gm, ctx.bend_stiffness, st.kappa, kpref,
            ctx.twist_stiffness, st.twist, gamma0,
        )
        return energy, frame_error(gm, st.e1, st.e2)

    return fresh_state, step, measure


def _planar_model(config, mesh):
    """The planar model as `run` calls it; see `_spatial_model`."""
    ctx = StepContext(mesh, config.scenario, 2)

    def fresh_state():
        return initial_state_2d(mesh, config.scenario)

    def step(st, gm, t, stats):
        return solve_step_2d(ctx, gm, config.dt, t, st)

    def measure(st, gm):
        alpha = ctx.drive(st.t)[0]
        energy = elastic_energy(gm, ctx.bend_stiffness, st.kappa,
                                alpha[:, None] * perp(gm.ttau))
        return energy, 0.0

    return fresh_state, step, measure


def spun_up_state_2d(config: SimConfig, stats: RunStats = None) -> RodState2D:
    """Initial planar state after the scenario's spin-up phase.

    The driving field is clamped at its t = 0 shape for the whole phase and
    the clock is reset afterwards, so locomotion starts from a developed
    waveform rather than a straight rod.  The phase's invariants go into
    `stats` when given.
    """
    mesh = uniform_mesh(config.n_vertices)
    fresh_state, step, _ = _planar_model(config, mesh)
    return _spin_up(config, mesh, fresh_state(), step,
                    RunStats() if stats is None else stats)[0]


def run(config: SimConfig, state=None,
        initial: InitialData = None) -> RunResult:
    """Advance the rod to the horizon; resumes from `state` when given.

    config.dimension picks the model: 3 is the spatial rod, starting from
    `initial` (straight when None), 2 the planar rod, starting straight.  A
    fresh run starts with the scenario's spin-up phase (driving fields
    clamped at their t = 0 values, clock reset afterwards); a resumed run
    continues the main phase from the state's own time.  Raises
    InvalidParameterError for a state given with initial data, for a state
    or initial data of another shape or with a non-finite entry, and for a
    state whose time is not finite or not a whole number of steps before
    t_final.
    """
    mesh = uniform_mesh(config.n_vertices)
    if config.dimension == 2:
        fresh_state, step, measure = _planar_model(config, mesh)
    else:
        fresh_state, step, measure = _spatial_model(config, mesh, initial)
    wall0 = time.perf_counter()
    _check_model(config, mesh, state, initial, fresh_state)
    stats = RunStats()
    if state is None:
        state, geom = _spin_up(config, mesh, fresh_state(), step, stats)
    else:
        state = state.copy()
        geom = frozen_geometry(mesh, state.x)

    t0 = state.t
    if (config.t_final - t0) / config.dt < -0.5:  # rounds to < 0 steps
        raise InvalidParameterError(
            f"resume state is at t={t0}, past t_final={config.t_final}")
    n_steps = step_count(config.t_final - t0, config.dt,
                         f"t_final={config.t_final} less the resume "
                         f"time t={t0}:")
    step0 = int(round(t0 / config.dt))
    records = []
    snapshots = {}
    prev_f2 = None

    def record(st, gm, step_index):
        nonlocal prev_f2
        energy, f2 = measure(st, gm)
        f1 = length_error(gm, config.scenario.length)
        inc = 0.0 if prev_f2 is None else f2 - prev_f2
        prev_f2 = f2
        records.append(DiagnosticsRecord(
            step=step_index, t=st.t, energy=energy, f1=f1, f2=f2,
            f2_increment=inc, total_length=float(gm.hs.sum()),
            com=center_of_mass(gm, st.x),
            s_min=float(gm.s.min()), s_max=float(gm.s.max()),
        ))
        stats.max_f1 = max(stats.max_f1, f1)
        stats.max_f2 = max(stats.max_f2, f2)
        stats.max_f2_increment = max(stats.max_f2_increment, inc)

    record(state, geom, step0)
    snapshots[step0] = state.copy()
    for k in range(n_steps):
        t_new = t0 + (k + 1) * config.dt
        idx = step0 + k + 1
        state, geom = _advance(mesh, state, geom, t_new, step, stats)
        record(state, geom, idx)
        if config.snapshot_stride > 0 and idx % config.snapshot_stride == 0:
            snapshots[idx] = state.copy()
    snapshots[step0 + n_steps] = state.copy()

    return RunResult(
        config=config, final_state=state, records=records,
        snapshots=snapshots, stats=stats,
        wall_time=time.perf_counter() - wall0,
    )


run2d = run  # a second name, for callers of the planar model's entry point
