"""Planar reduction of the rod model.

The planar scheme carries no director pair: the unit normal is the rotated
averaged tangent, recomputed from geometry each step, so frame bookkeeping
(and its error) vanishes identically.  Unknowns per step are position,
bending moment and tension, 5 per vertex; the curvature is eliminated as in
space, and twist and spin do not exist.

This module holds the planar state and the step that maps it to the next
one: the preferred curvature the step bends toward and the decode of its
solution, and the lift of a planar state into space.  The unknown layout
and the per-run constants are a dim = 2 `assembly3d.StepContext`, the rows
of the step system are the ones `assembly3d._rod_rows` puts for both
models, and the residual check is the spatial step's.  `engine3d.run` runs
this step when the config's dimension is 2.
"""

from dataclasses import dataclass

import numpy as np

from .assembly3d import (RodState3D, _decode_rod, _rod_rows,
                         _solve_increment, _Triplets)
from .geometry import (Mesh, element_tangents, frozen_geometry, perp,
                       vertex_curvature)


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


def assemble_step_2d(ctx, geom, dt, t_new, st):
    """Step matrix A, right-hand side b, and c = b - A·base for one planar
    step from st: the rows the spatial model shares, without spin and
    twist, bent toward alpha times the planar normal; see
    `assembly3d.assemble_step`."""
    mesh = ctx.mesh
    ii = slice(1, mesh.n_vertices - 1)      # interior vertices
    A_i = ctx.bend_stiffness[ii]
    alpha = ctx.drive(t_new)[0]
    b = np.zeros(ctx.layout.ndof)
    m = _Triplets(ctx.layout)
    c = _rod_rows(m, b, ctx, geom, dt, st.x, st.kappa, st.rest_density,
                  A_i[:, None] * alpha[ii, None] * perp(geom.ttau[ii]), 0.0)
    return m.banded(b, "planar step"), b, c


def solve_step_2d(ctx, geom, dt, t_new, st):
    """One implicit planar step from st, whose frozen geometry is geom, to
    the time t_new; returns the new state, its frozen geometry and the
    step's relative residual."""
    matrix, b, c = assemble_step_2d(ctx, geom, dt, t_new, st)
    sol, res = _solve_increment(matrix, b, c, "planar step", t_new)
    x, y, kappa = _decode_rod(ctx, geom, st.x, sol)
    ends = [0, -1]
    kappa[ends] = ctx.drive(t_new)[0][ends, None] * perp(geom.ttau[ends])
    new = RodState2D(t_new, x, kappa, y, sol[ctx.layout.p_off],
                     st.rest_density)
    return new, frozen_geometry(ctx.mesh, x), res


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
