"""One implicit time step of the spatial rod model, and the rows of the
step system that the spatial and the planar model share.

The spatial step solves simultaneously for position, bending moment, twist
density, and line tension: 8 unknowns per vertex, 5 in the plane.  All
geometric coefficients (tangents, length elements, quadrature weights,
tangent projectors, drag matrices) are frozen at the previous step, which
makes the system linear.  They live in the previous state's
`geometry.FrozenGeometry`, computed once per state by `frozen_geometry`;
the assembly and the decode read them from there, and the drag model builds
its matrices from it.  The curvature, the twist moment and the tangential
spin rate are not unknowns of the solve: with the lumped weights the
curvature identity is diagonal in the curvature, the twist law in the twist
moment and the angular-momentum balance in the spin, so each is substituted
into the other rows and recovered from the solution afterwards.  Unknowns
are interleaved along the rod so the matrix is banded with a
resolution-independent bandwidth; each row is put in the slot of the
unknown it pivots on, which keeps the band that `DofLayout` declares 10
wide on either side in space and 6 in the plane; the first assembly through
a layout only records where each put lands.  The momentum balance, the
bending law with the curvature substituted, and inextensibility are put
once, by `_rod_rows`, for either dimension; the planar step (`solver2d`) is
those rows alone, and the spatial step adds the twist to them.  Both models
number their unknowns with one `DofLayout` and hold their per-run constants
in one `StepContext`, each parameterised by the dimension.

Each step maps a rod state to the next one.  A spatial step solves the
implicit banded system with geometry frozen at the previous state, then
carries the director pair forward by two exact rotations: one taking the
old averaged tangent to the new one, one about the new tangent by the
decoded spin rate times the step size.  A step whose solve leaves a relative
residual above `RESIDUAL_TOL` raises `SolverError`.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import AssemblyError, InvalidParameterError, SolverError
from .frame import transport_frame
from .geometry import Mesh, cross, frozen_geometry, identity
from .linsolve import BandedMatrix, factorize, solve
from .scenarios import Scenario, evaluate_field

#: largest relative residual |c - A·increment| / |b| a step may leave
RESIDUAL_TOL = 1e-10


@dataclass
class RodState3D:
    """Complete state of one step: geometry, directors, and auxiliaries."""

    t: float
    x: np.ndarray             # (n, 3)
    e1: np.ndarray            # (n, 3)
    e2: np.ndarray            # (n, 3)
    kappa: np.ndarray         # (n, 3)
    twist: np.ndarray         # (ne,)
    bend_moment: np.ndarray   # (n, 3)
    spin: np.ndarray          # (n,)
    twist_moment: np.ndarray  # (ne,)
    tension: np.ndarray       # (ne,)
    rest_density: np.ndarray  # (ne,) length density the constraint pins

    def copy(self) -> "RodState3D":
        return RodState3D(
            self.t, self.x.copy(), self.e1.copy(), self.e2.copy(),
            self.kappa.copy(), self.twist.copy(), self.bend_moment.copy(),
            self.spin.copy(), self.twist_moment.copy(), self.tension.copy(),
            self.rest_density.copy(),
        )


class _Triplets:
    """Values of one step matrix, put in blocks of the layout's dim slots.

    Shared by the spatial and the planar assembler.  Each put writes its
    values into a band of the layout's kl and ku with one indexed
    assignment.  The first assembly through a layout records each put's
    flat band positions in `layout.puts`, rejecting an entry outside the
    band and a position put twice; later ones repeat the puts and reuse them.
    """

    def __init__(self, layout):
        self.d = np.arange(layout.dim)
        self.layout = layout
        self.calls = 0
        self.recording = not layout.puts
        self.puts = [] if self.recording else layout.puts
        self.matrix = BandedMatrix(layout.ndof, layout.kl, layout.ku)
        self.flat = self.matrix.data.reshape(-1, order="F")

    def _put(self, v, shape, index):
        """Entries v, broadcast to shape, at the rows and columns index()
        returns; only a first assembly needs them."""
        k = self.calls
        self.calls += 1
        puts = self.puts
        if self.recording:
            rows, cols = (np.broadcast_to(a, shape) for a in index())
            try:
                puts.append(self.matrix.flat_indices(rows, cols))
            except ValueError:
                raise AssemblyError(
                    f"put call {k} has an entry outside the band kl="
                    f"{self.matrix.kl}, ku={self.matrix.ku} of its layout"
                ) from None
        elif k >= len(puts) or puts[k].shape != shape:
            raise AssemblyError(
                f"put call {k} of shape {shape} does not match the band "
                f"pattern recorded for this layout"
            )
        self.flat[puts[k]] = v

    def put(self, r, c, v):
        """Entries v at rows r and columns c."""
        v = np.asarray(v, dtype=float)
        self._put(v, v.shape, lambda: (r, c))

    def put_blocks(self, r0, c0, mats):
        """A (dim, dim) block at each (r0, c0)."""
        d = self.d
        self._put(mats, mats.shape, lambda: (r0[:, None, None] + d[:, None],
                                             c0[:, None, None] + d))

    def put_diag(self, r0, c0, coef):
        """coef times the (dim, dim) identity at each (r0, c0)."""
        d = self.d
        self._put(coef[:, None], (coef.size, d.size),
                  lambda: (r0[:, None] + d, c0[:, None] + d))

    def put_vec_rows(self, r0, c0, vecs):
        """A vector down dim rows from r0, in the single column c0."""
        self._put(vecs, vecs.shape, lambda: (r0[:, None] + self.d,
                                             c0[:, None]))

    def put_vec_cols(self, r0, c0, vecs):
        """A vector along dim columns from c0, in the single row r0."""
        self._put(vecs, vecs.shape, lambda: (r0[:, None],
                                             c0[:, None] + self.d))

    def banded(self, b, what) -> BandedMatrix:
        """The band matrix holding every entry; rejects a non-finite b.

        Non-finite matrix entries are left to `factorize`, which rejects
        them for every matrix it is given.
        """
        if not np.isfinite(b).all():
            raise AssemblyError(
                f"non-finite entries in the {what} right-hand side")
        if self.recording:
            ordered = np.sort(np.concatenate([p.ravel() for p in self.puts]))
            if np.any(ordered[1:] == ordered[:-1]):
                raise AssemblyError("a band position is put more than once")
            self.layout.puts = tuple(self.puts)
        elif self.calls != len(self.puts):
            raise AssemblyError(
                f"{what} system made {self.calls} put calls, its band "
                f"pattern records {len(self.puts)}"
            )
        return self.matrix


def _solve_increment(matrix, b, c, what, t_new):
    """Solve one step system; returns the increment and its relative residual.

    c = b - A·base is the right-hand side of the increment over base, which
    holds the previous positions in their slots and zero elsewhere, so the
    increment holds the position update and every other unknown itself.
    b only scales the residual |c - A·increment| / |b|.
    """
    # solve for the position update, not the position: keeping O(1)
    # coordinates out of the unknowns keeps the length constraint satisfied
    # to the rounding floor of the increment rather than of the coordinates.
    # c is assembled from position differences because b - A·base in
    # float64 would round at the size of the coordinates.
    sol, r = solve(factorize(matrix), c)
    # the cores of np.linalg.norm(b) and norm(r), without its dispatch
    bnorm = np.sqrt(b.dot(b))
    res = float(np.sqrt(r.dot(r)) / (bnorm if bnorm > 0.0 else 1.0))
    if not res <= RESIDUAL_TOL:
        raise SolverError(
            f"{what} at t={t_new} left relative residual {res:.3e} "
            f"(tolerance {RESIDUAL_TOL:.1e})"
        )
    return sol, res


def _decode_rod(ctx, geom, x, sol):
    """New positions, bending moment and curvature (n, dim) of a solved step.

    sol is the increment from `_solve_increment` of a step from positions x
    with frozen geometry geom.  The curvature is the one the step
    eliminated, the discrete curvature of the new positions under the
    frozen coefficients, k_i = (a_r·(x_{i+1} - x_i) - a_l·(x_i - x_{i-1}))
    / w_i; it is formed from the old differences plus the increment's, so
    it rounds at the size of the differences, not of the coordinates.  The
    end rows of both are zero; the caller prescribes the end curvatures.
    """
    lay = ctx.layout
    inc = sol[lay.x_slots]
    dx = geom.dx + (inc[1:] - inc[:-1])
    a = 1.0 / geom.hs
    y = np.zeros(x.shape)
    kappa = np.zeros(x.shape)
    y[1:-1] = sol[lay.y_slots]
    kappa[1:-1] = (a[1:, None] * dx[1:]
                   - a[:-1, None] * dx[:-1]) / geom.w[1:-1, None]
    return x + inc, y, kappa


@dataclass
class DofLayout:
    """Interleaved unknown numbering of one step, for dim = 2 or 3.

    Each vertex block holds position (dim slots), then — at interior
    vertices only — bending moment (dim).  Boundary bending moments
    vanish, so they do not enter the system.  Element blocks sit between
    consecutive vertex blocks: twist and tension in space, the tension
    alone in the plane.  That is a stride of 8 slots in space and 5 in
    the plane, and 8n - 8 or 5n - 5 unknowns for n vertices;
    curvature, twist moment and spin are eliminated from the step (see
    `_rod_rows`, `_twist_law`, `_spin_law`).  x_slots and y_slots list the
    dim slots of each vertex's position and of each interior vertex's
    bending moment; g_off (twist) exists in space only.

    Rows are put where they pivot, which gives the narrowest band: at an
    interior vertex the bending law, whose largest coefficients sit on the
    vertex's position, takes the position slots, and the momentum balance
    takes the bending-moment slots.  The end vertices have no bending
    moment, so their momentum rows keep the position slots.  The twist
    and tension rows keep their unknown's slot.  mom_off and law_off are
    the first rows of each vertex's momentum balance and each interior
    vertex's bending law, mom_rows and law_rows all dim of them.

    The layout declares the step matrix's band, kl = ku = 10 in space and
    6 in the plane for every n >= 3; the first assembly through it only
    records in puts one array of flat band positions per put call.
    """

    n_vertices: int
    dim: int
    x_off: np.ndarray = field(init=False, repr=False)
    y_off: np.ndarray = field(init=False, repr=False)
    p_off: np.ndarray = field(init=False, repr=False)
    g_off: np.ndarray = field(init=False, default=None, repr=False)
    x_slots: np.ndarray = field(init=False, repr=False)   # (n, dim)
    y_slots: np.ndarray = field(init=False, repr=False)   # (n - 2, dim)
    mom_off: np.ndarray = field(init=False, repr=False)
    law_off: np.ndarray = field(init=False, repr=False)
    mom_rows: np.ndarray = field(init=False, repr=False)  # (n, dim)
    law_rows: np.ndarray = field(init=False, repr=False)  # (n - 2, dim)
    ndof: int = field(init=False)
    kl: int = field(init=False)
    ku: int = field(init=False)
    puts: tuple = field(init=False, default=(), repr=False)

    def __post_init__(self):
        n, dim = self.n_vertices, self.dim
        if n < 3:
            raise AssemblyError(f"need at least 3 vertices, got {n}")
        per_element = 2 if dim == 3 else 1
        stride = 2 * dim + per_element
        # the boundary vertex 0 has no bending-moment slots
        x_off = stride * np.arange(n, dtype=np.int64) - dim
        x_off[0] = 0
        y_off = np.full(n, -1, dtype=np.int64)
        y_off[1:-1] = x_off[1:-1] + dim
        element = stride * np.arange(n - 1, dtype=np.int64) + dim
        if dim == 3:
            self.g_off = element
        self.x_off = x_off
        self.y_off = y_off
        self.p_off = element + per_element - 1  # last slot: tension
        d = np.arange(dim)
        self.x_slots = x_off[:, None] + d
        self.y_slots = y_off[1:-1, None] + d
        # an interior vertex's bending law pivots on its position and its
        # momentum balance on its bending moment, so their rows swap slots
        self.mom_off = y_off.copy()
        self.mom_off[[0, -1]] = x_off[[0, -1]]
        self.law_off = x_off[1:-1]
        self.mom_rows = self.mom_off[:, None] + d
        self.law_rows = self.law_off[:, None] + d
        self.ndof = stride * (n - 1)
        # an interior vertex's momentum rows, in its bending-moment slots,
        # reach its neighbours' bending moments: one stride plus dim - 1 away
        self.kl = self.ku = stride + dim - 1


def _read_only(a):
    # a view, so an array the field function still owns stays writeable
    v = a.view()
    v.flags.writeable = False
    return v


@dataclass
class StepContext:
    """Per-run constants of one rod model: mesh, layout and sampled
    material fields, plus the scenario's drive at the latest step time.
    Only a spatial (dim = 3) context samples the twist fields; the planar
    model has no twist, so it accepts any twist profile.

    `drive(t)` is the one place the preferred fields are evaluated: the
    assembly, the prescribed end curvatures and the energy of a step all
    happen at one time, so the context keeps the fields of the last time
    asked for and evaluates each once per step time.
    """

    mesh: Mesh
    scenario: Scenario
    dim: int
    layout: DofLayout = field(init=False, repr=False)
    eye: np.ndarray = field(init=False, repr=False)               # (dim, dim)
    bend_stiffness: np.ndarray = field(init=False, repr=False)    # vertices
    bend_viscosity: np.ndarray = field(init=False, repr=False)    # vertices
    twist_stiffness: np.ndarray = field(init=False, default=None,
                                        repr=False)               # midpoints
    twist_viscosity: np.ndarray = field(init=False, default=None,
                                        repr=False)               # midpoints
    _drive_t: float = field(init=False, default=None, repr=False)
    _drive: tuple = field(init=False, default=None, repr=False)

    def __post_init__(self):
        mat = self.scenario.material
        self.layout = DofLayout(self.mesh.n_vertices, self.dim)
        self.eye = identity(self.dim)
        self.bend_stiffness = mat.bend_stiffness_at(self.mesh.u)
        self.bend_viscosity = mat.bend_viscosity_at(self.mesh.u)
        if self.dim == 3:
            self.twist_stiffness = mat.twist_stiffness_at(self.mesh.midpoints)
            self.twist_viscosity = mat.twist_viscosity_at(self.mesh.midpoints)

    def drive(self, t):
        """(alpha, beta, gamma0) at time t, as read-only arrays.

        alpha and beta are the preferred curvature components at the
        vertices, gamma0 the preferred twist at the element midpoints.  A
        planar context evaluates alpha only and returns None for the other
        two.  The fields of the last t are kept and returned again.  A
        field with a non-finite value raises InvalidParameterError naming
        the field, t and the first vertex or element where it is not finite;
        numpy's floating-point warnings, which name none of these, are
        silenced while the fields are evaluated.
        """
        t = float(t)
        if t != self._drive_t:
            beta = gamma0 = None
            with np.errstate(all="ignore"):
                alpha = self._field("kappa1_pref", "alpha0", t)
                if self.dim == 3:
                    beta = self._field("kappa2_pref", "beta0", t)
                    gamma0 = self._field("twist_pref", "gamma0", t)
            self._drive_t, self._drive = t, (alpha, beta, gamma0)
        return self._drive

    def _field(self, name, key, t):
        """The scenario's preferred field `name` (config key scenario.key)
        at time t, on the vertices, or on the element midpoints for the
        twist; read-only."""
        twist = name == "twist_pref"
        u = self.mesh.midpoints if twist else self.mesh.u
        values = evaluate_field(getattr(self.scenario, name), u, t)
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            i = bad[0]
            raise InvalidParameterError(
                f"scenario.{key} ({name}) is not finite at t={t:g}: "
                f"{values[i]} at {'element' if twist else 'vertex'} {i} "
                f"(u={u[i]:g})"
            )
        return _read_only(values)


def _cross_matrices(v: np.ndarray) -> np.ndarray:
    out = np.zeros((v.shape[0], 3, 3))
    out[:, 0, 1] = -v[:, 2]
    out[:, 0, 2] = v[:, 1]
    out[:, 1, 0] = v[:, 2]
    out[:, 1, 2] = -v[:, 0]
    out[:, 2, 0] = -v[:, 1]
    out[:, 2, 1] = v[:, 0]
    return out


def _rod_rows(m, b, ctx, geom, dt, x, kappa, rest_density, A_pref, gyro):
    """Put the rows both models share; fills b and returns c = b - A·base.

    These are the momentum balance with the tension and the bending force,
    the bending law and inextensibility, in the ctx.dim components of x.
    The bending law w_i·y_i + w_i·kmat_i·k_i = b_i holds the new curvature
    k_i, which the curvature identity fixes as
    w_i·k_i = a_r·(x_{i+1} - x_i) - a_l·(x_i - x_{i-1}), with
    a = 1 / (h·s) of the adjacent elements; that identity is diagonal in
    k_i, so the bending law is put with kmat_i times the three position
    coefficients in place of the curvature, and `_decode_rod` recovers it.
    A_pref is the bending stiffness times the preferred curvature at the
    interior vertices, and gyro the spin term of kmat (0.0 without spin).
    Rows put by the caller keep b in c.
    """
    mesh, layout = ctx.mesh, ctx.layout
    n = mesh.n_vertices
    tau, ttau, w, hs, dx = geom.tau, geom.ttau, geom.w, geom.hs, geom.dx
    eye = ctx.eye

    K = ctx.scenario.drag.element_matrices(geom)                # (ne,d,d)

    xo, yo, po = layout.x_off, layout.y_off, layout.p_off
    fo, lo = layout.mom_off, layout.law_off       # momentum, bending law
    ii = slice(1, n - 1)        # interior vertices
    yi = yo[ii]
    A_i = ctx.bend_stiffness[ii]
    B_dt = ctx.bend_viscosity[ii] / dt

    # -- momentum balance at every vertex; each element's drag is split
    # evenly between its two end vertices
    half = 0.5 * hs[:, None, None] * K
    drag_lumped = np.zeros((n,) + K.shape[1:])
    drag_lumped[:-1] += half
    drag_lumped[1:] += half
    m.put_blocks(fo, xo, drag_lumped / dt)
    b[layout.mom_rows] = np.einsum("nij,nj->ni", drag_lumped, x) / dt

    # tension forces of element e on its two end vertices
    ntau = -tau
    m.put_vec_rows(fo[:-1], po, tau)
    m.put_vec_rows(fo[1:], po, ntau)

    # transverse bending force, projected difference of the bending moment
    coefP = geom.proj / hs[:, None, None]
    # from the elements left (coefP[:-1]) and right (coefP[1:]) of each
    # interior vertex; the diagonal block is put once, as one sum
    m.put_blocks(fo[:-2], yi, coefP[:-1])
    m.put_blocks(fo[ii], yi, -(coefP[:-1] + coefP[1:]))
    m.put_blocks(fo[2:], yi, coefP[1:])

    # -- bending law at interior vertices, with the curvature given by the
    # positions
    ti = ttau[ii]
    Pt = eye[None] - ti[:, :, None] * ti[:, None, :]
    kmat = (
        -A_i[:, None, None] * eye[None]
        - B_dt[:, None, None] * Pt
        + gyro
    )
    a = 1.0 / hs
    a_l, a_r = a[:-1], a[1:]
    m.put_diag(lo, yi, w[ii])
    m.put_blocks(lo, xo[:-2], a_l[:, None, None] * kmat)
    m.put_blocks(lo, xo[ii], -(a_l + a_r)[:, None, None] * kmat)
    m.put_blocks(lo, xo[2:], a_r[:, None, None] * kmat)
    b[layout.law_rows] = w[ii][:, None] * (
        -A_pref
        - B_dt[:, None] * np.einsum("nij,nj->ni", Pt, kappa[ii])
    )

    # -- inextensibility per element (tension rows)
    m.put_vec_cols(po, xo[1:], tau)
    m.put_vec_cols(po, xo[:-1], ntau)
    pinned = mesh.h * rest_density
    b[po] = pinned

    # -- c row by row: rows without a position column keep b
    c = b.copy()
    c[layout.mom_rows] = 0.0
    c[layout.law_rows] -= np.einsum(
        "nij,nj->ni", kmat, a_r[:, None] * dx[1:] - a_l[:, None] * dx[:-1])
    c[po] = pinned - np.einsum("ed,ed->e", tau, dx)
    return c


def _twist_law(ctx, dt, t_new, twist):
    """(zc, z0) of the twist law, whose twist moment is zc·g + z0 per element.

    The twist law hs·z = hs·((C + D/dt)·g - C·gamma0 - (D/dt)·twist) is
    diagonal in the twist moment z, so the step substitutes it into the
    rows that hold z and the decode recovers z from the solved twist g.
    """
    C_e = ctx.twist_stiffness
    D_e = ctx.twist_viscosity
    gamma0 = ctx.drive(t_new)[2]
    return C_e + D_e / dt, -C_e * gamma0 - (D_e / dt) * twist


def _spin_law(ctx, geom, st, z0):
    """(rw, sb) of the tangential angular-momentum balance at each vertex.

    With the twist moment z = zc·g + z0 of `_twist_law`, the balance
    -rw_i·m_i + zc_i·g_i - zc_{i-1}·g_{i-1} = sb_i, where rw = r·w is the
    rotary drag times the vertex weight and
    sb_i = -w_i·y_i·(ttau_i × kappa_i) - z0_i + z0_{i-1} is formed from the
    previous state, is diagonal in the spin m.  So the step substitutes
    m_i = (zc_i·g_i - zc_{i-1}·g_{i-1} - sb_i) / rw_i into the twist rows
    and the decode recovers m from the solved twist g; an end vertex has
    only its one element's terms.
    """
    rw = ctx.scenario.material.rotary_drag * geom.w
    sb = -geom.w * np.einsum("nd,nd->n", st.bend_moment,
                             cross(geom.ttau, st.kappa))
    sb[:-1] -= z0
    sb[1:] += z0
    return rw, sb


def assemble_step(ctx, geom, dt, t_new, st, zc, z0, rw, sb):
    """Step matrix A, right-hand side b, and c = b - A·base for one step.

    st is the previous step's state, whose rest density the constraint rows
    pin the new positions to.  base holds st.x in the position slots and
    zero elsewhere.  The twist moment z = zc·g + z0 of the step's
    `_twist_law` is substituted into the momentum rows: its columns become
    zc times the twist's, and z0 moves into b and c.  The spin of the
    step's `_spin_law` (rw, sb) is substituted into the twist rows.
    """
    mesh = ctx.mesh
    lay = ctx.layout
    n = mesh.n_vertices
    tau, ttau, hs = geom.tau, geom.ttau, geom.hs

    x, kappa = st.x, st.kappa
    kbar = 0.5 * (kappa[:-1] + kappa[1:])
    tk = cross(tau, kbar)                                       # (ne,3)

    xo, go = lay.x_off, lay.g_off
    ii = slice(1, n - 1)        # interior vertices
    b = np.zeros(lay.ndof)

    m = _Triplets(lay)

    # -- twist-moment forces of element e on its two end vertices; the
    # force of z0 is tz0 on the left vertex and -tz0 on the right
    tzc = tk * zc[:, None]
    tz0 = tk * z0[:, None]
    m.put_vec_rows(lay.mom_off[:-1], go, tzc)
    m.put_vec_rows(lay.mom_off[1:], go, -tzc)

    # -- twist transport per element (twist rows), hs·g/dt + m_e - m_{e+1},
    # with the spin of the element's two vertices given by the twist
    # through the step's `_spin_law`
    inv = 1.0 / rw
    m.put(go, go, hs / dt + zc * (inv[:-1] + inv[1:]))
    m.put(go[1:], go[:-1], -zc[:-1] * inv[1:-1])
    m.put(go[:-1], go[1:], -zc[1:] * inv[1:-1])
    m.put_vec_cols(go, xo[1:], tk / dt)
    m.put_vec_cols(go, xo[:-1], -tk / dt)
    c_twist = hs * st.twist / dt + sb[:-1] * inv[:-1] - sb[1:] * inv[1:]
    b[go] = c_twist + np.einsum("ed,ed->e", tk, geom.dx) / dt

    # -- the rows the planar model shares, bent toward alpha e1 + beta e2
    A_i = ctx.bend_stiffness[ii]
    B_i = ctx.bend_viscosity[ii]
    alpha, beta, _ = ctx.drive(t_new)
    pref = alpha[ii, None] * st.e1[ii] + beta[ii, None] * st.e2[ii]
    gyro = (B_i * st.spin[ii])[:, None, None] * _cross_matrices(ttau[ii])
    c = _rod_rows(m, b, ctx, geom, dt, x, kappa, st.rest_density,
                  A_i[:, None] * pref, gyro)
    c[go] = c_twist
    # the forces of z0 are all there is of c in the momentum rows
    f0 = np.zeros((n, 3))
    f0[:-1] -= tz0
    f0[1:] += tz0
    b[lay.mom_rows] += f0
    c[lay.mom_rows] = f0
    return m.banded(b, "step"), b, c


def solve_step(ctx, geom, dt, t_new, st):
    """One step from st, whose frozen geometry is geom, to the time t_new.

    Returns the new `RodState3D`, with its directors transported, the new
    state's `FrozenGeometry` and the step's relative residual.
    """
    zc, z0 = _twist_law(ctx, dt, t_new, st.twist)
    rw, sb = _spin_law(ctx, geom, st, z0)
    matrix, b, c = assemble_step(ctx, geom, dt, t_new, st, zc, z0, rw, sb)
    lay = ctx.layout
    sol, res = _solve_increment(matrix, b, c, "step", t_new)

    x, y, kappa = _decode_rod(ctx, geom, st.x, sol)
    # prescribed end curvature, in the directors the step was built with
    alpha, beta, _ = ctx.drive(t_new)
    ends = [0, -1]
    kappa[ends] = (alpha[ends, None] * st.e1[ends]
                   + beta[ends, None] * st.e2[ends])
    twist = sol[lay.g_off]
    zg = zc * twist
    spin = -sb
    spin[:-1] += zg
    spin[1:] -= zg
    spin /= rw
    gnew = frozen_geometry(ctx.mesh, x)
    e1, e2 = transport_frame(st.e1, st.e2, geom.ttau, gnew.ttau, dt * spin)
    new = RodState3D(
        t=t_new, x=x, e1=e1, e2=e2, kappa=kappa, twist=twist, bend_moment=y,
        spin=spin, twist_moment=zc * twist + z0, tension=sol[lay.p_off],
        rest_density=st.rest_density,
    )
    return new, gnew, res
