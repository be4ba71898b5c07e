"""Planar reduction of the rod model.

The planar scheme carries no director pair: the unit normal is the rotated
averaged tangent, recomputed from geometry each step, so frame bookkeeping
(and its error) vanishes identically.  Unknowns per step are position,
bending moment and tension, 5 per vertex; the curvature is eliminated as in
space, and twist and spin do not exist.

This module holds the preferred curvature the planar step bends toward and
the decode of its solution.  The unknown layout and the per-run constants
are a dim = 2 `assembly3d.StepContext`, the rows of the step system are the
ones `assembly3d._rod_rows` puts for both models, and the step loop that
`run2d` and `spun_up_state_2d` go through is owned by `engine3d`.
"""

from dataclasses import dataclass

import numpy as np

from .assembly3d import (StepContext, _decode_rod, _rod_rows,
                         _solve_increment, _Triplets)
from .diagnostics import elastic_energy
from .engine3d import (RodState3D, RunResult, RunStats, SimConfig, _run_model,
                       _spin_up)
from .geometry import (Mesh, element_tangents, frozen_geometry, perp,
                       uniform_mesh, vertex_curvature)


@dataclass
class RodState2D:
    t: float
    x: np.ndarray             # (n, 2)
    kappa: np.ndarray         # (n, 2)
    bend_moment: np.ndarray   # (n, 2)
    tension: np.ndarray       # (ne,)
    rest_density: np.ndarray  # (ne,)

    def copy(self) -> "RodState2D":
        return RodState2D(self.t, self.x.copy(), self.kappa.copy(),
                          self.bend_moment.copy(), self.tension.copy(),
                          self.rest_density.copy())


def initial_state_2d(mesh: Mesh, scenario) -> RodState2D:
    """Straight rod along the first axis, auxiliaries at rest."""
    n = mesh.n_vertices
    x = np.zeros((n, 2))
    x[:, 0] = scenario.length * mesh.u
    tau, s = element_tangents(mesh, x)
    kappa = vertex_curvature(mesh, x)
    return RodState2D(
        t=0.0, x=x, kappa=kappa, bend_moment=np.zeros((n, 2)),
        tension=np.zeros(n - 1), rest_density=s.copy(),
    )


def assemble_step_2d(ctx, geom, dt, t_new, x, kappa, rest_density):
    """Step matrix A, right-hand side b, and c = b - A·base for one planar
    step: the rows the spatial model shares, without spin and twist, bent
    toward alpha times the planar normal; see `assembly3d.assemble_step`."""
    mesh = ctx.mesh
    ii = slice(1, mesh.n_vertices - 1)      # interior vertices
    A_i = ctx.bend_stiffness[ii]
    alpha = ctx.drive(t_new)[0]
    b = np.zeros(ctx.layout.ndof)
    m = _Triplets(ctx.layout)
    c = _rod_rows(m, b, ctx, geom, dt, x, kappa, rest_density,
                  A_i[:, None] * alpha[ii, None] * perp(geom.ttau[ii]), 0.0)
    return m.banded(b, "planar step"), b, c


def solve_step_2d(ctx, geom, dt, t_new, x, kappa, rest_density,
                  residual_tol=1e-10):
    """One implicit planar step; `geom` is the frozen geometry of x."""
    matrix, b, c = assemble_step_2d(ctx, geom, dt, t_new, x, kappa,
                                    rest_density)
    sol, res = _solve_increment(matrix, b, c, "planar step", t_new,
                                residual_tol)
    x_new, y_new, k_new = _decode_rod(ctx, geom, x, sol)
    ends = [0, -1]
    k_new[ends] = ctx.drive(t_new)[0][ends, None] * perp(geom.ttau[ends])
    return x_new, y_new, k_new, sol[ctx.layout.p_off], res


def _planar_model(config, mesh):
    """The planar step and measure that the shared driver calls."""
    ctx = StepContext(mesh, config.scenario, 2)

    def step(st, gm, t, stats):
        x, y, k, p, res = solve_step_2d(
            ctx, gm, config.dt, t, st.x, st.kappa, st.rest_density,
            config.residual_tol,
        )
        new = RodState2D(t, x, k, y, p, st.rest_density)
        return new, frozen_geometry(mesh, x), res

    def measure(st, gm):
        alpha = ctx.drive(st.t)[0]
        energy = elastic_energy(gm.w, ctx.bend_stiffness, st.kappa,
                                alpha[:, None] * perp(gm.ttau))
        return energy, 0.0

    return step, measure


def spun_up_state_2d(config: SimConfig, stats: RunStats = None) -> RodState2D:
    """Initial planar state after the scenario's spin-up phase.

    The driving field is clamped at its t = 0 shape for the whole phase and
    the clock is reset afterwards, so locomotion starts from a developed
    waveform rather than a straight rod.  The phase's invariants go into
    `stats` when given.
    """
    mesh = uniform_mesh(config.n_vertices)
    step, _ = _planar_model(config, mesh)
    state, _ = _spin_up(config, mesh, initial_state_2d(mesh, config.scenario),
                        step, RunStats() if stats is None else stats)
    return state


def run2d(config: SimConfig, state: RodState2D = None) -> RunResult:
    """Advance the planar rod to the horizon; resumes from `state` if given.

    Raises InvalidParameterError for a spatial config or resume state.
    """
    mesh = uniform_mesh(config.n_vertices)
    step, measure = _planar_model(config, mesh)
    return _run_model(config, 2, mesh, state,
                      lambda: initial_state_2d(mesh, config.scenario),
                      step, measure)


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
