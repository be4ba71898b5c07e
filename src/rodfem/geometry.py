"""Discrete geometry of open polygonal curves over the unit interval.

Fields live either on vertices (continuous, piecewise affine in u) or on
elements (piecewise constant).  Vertices are u_0 < ... < u_{N-1} with
u_0 = 0, u_{N-1} = 1; element e spans (u_e, u_{e+1}).  All routines are
dimension-agnostic where the formula permits: positions may be (N, 2) or
(N, 3) arrays.

`frozen_geometry` is the one function that turns positions into tangents,
length elements, vertex tangents, quadrature weights and tangent projectors.
Every function of one state's geometry, here and in `diagnostics`,
`frame` and `materials`, takes its `FrozenGeometry`.
"""

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateGeometryError, InvalidMeshError

#: adjacent averaged tangents closer than this to antiparallel are an error
ANTIPARALLEL_TOL = 1e-8


@dataclass(frozen=True)
class Mesh:
    """A partition of [0, 1] into n_elements intervals."""

    u: np.ndarray
    h: np.ndarray = field(init=False)

    def __post_init__(self):
        u = np.ascontiguousarray(np.asarray(self.u, dtype=float))
        if u.ndim != 1 or u.size < 3:
            raise InvalidMeshError(
                f"mesh needs at least 3 vertices on a 1-d axis, got shape {u.shape}"
            )
        if not np.all(np.isfinite(u)):
            raise InvalidMeshError("mesh vertices must be finite")
        if u[0] != 0.0 or u[-1] != 1.0:
            raise InvalidMeshError(
                f"mesh must span [0, 1] exactly, got [{u[0]}, {u[-1]}]"
            )
        h = np.diff(u)
        if np.any(h <= 0.0):
            raise InvalidMeshError("mesh vertices must be strictly increasing")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "h", h)

    @property
    def n_vertices(self) -> int:
        return self.u.size

    @property
    def n_elements(self) -> int:
        return self.u.size - 1

    @property
    def midpoints(self) -> np.ndarray:
        """Element midpoints in parameter space."""
        return 0.5 * (self.u[:-1] + self.u[1:])


def uniform_mesh(n_vertices: int) -> Mesh:
    """Equispaced mesh with the given number of vertices."""
    if n_vertices < 3:
        raise InvalidMeshError(f"need at least 3 vertices, got {n_vertices}")
    return Mesh(np.linspace(0.0, 1.0, n_vertices))


def _row_norms(v):
    # the core of np.linalg.norm(v, axis=1), without its dispatch
    return np.sqrt(np.add.reduce(v * v, axis=1))


def averaged_tangent(tau: np.ndarray) -> np.ndarray:
    """Vertex tangent: normalized mean of the two adjacent element tangents.

    Boundary vertices copy the single adjacent element value.  Adjacent
    tangents that are (numerically) antiparallel make the average vanish and
    are rejected.
    """
    n_el = tau.shape[0]
    ttau = np.empty((n_el + 1, tau.shape[1]))
    ttau[0] = tau[0]
    ttau[-1] = tau[-1]
    if n_el > 1:
        mean = tau[:-1] + tau[1:]
        norm = _row_norms(mean)
        if (norm <= ANTIPARALLEL_TOL).any():
            bad = int(np.argmin(norm)) + 1
            raise DegenerateGeometryError(
                f"adjacent tangents antiparallel at vertex {bad}"
            )
        ttau[1:-1] = mean / norm[:, None]
    return ttau


@functools.cache
def identity(dim: int) -> np.ndarray:
    """The read-only (dim, dim) identity, made once per dimension."""
    eye = np.eye(dim)
    eye.flags.writeable = False
    return eye


@dataclass(frozen=True)
class FrozenGeometry:
    """Discrete geometry of one rod state, computed once per state by
    `frozen_geometry`.

    The step from the state freezes it as its coefficients; the invariant
    probe, the diagnostics record and every per-state function read it
    too.  outer and proj are the tangent projectors tau tau^T and
    I - tau tau^T of each element, which the bending force and the
    resistive-force drag share.
    """

    tau: np.ndarray    # unit element tangents (ne, dim)
    s: np.ndarray      # length elements |x_u| per element (ne,)
    ttau: np.ndarray   # averaged vertex tangents (n, dim)
    w: np.ndarray      # lumped vertex weights (n,)
    hs: np.ndarray     # element arc lengths h * s (ne,)
    dx: np.ndarray     # element differences x[1:] - x[:-1] (ne, dim)
    outer: np.ndarray  # tau tau^T per element (ne, dim, dim)
    proj: np.ndarray   # I - tau tau^T per element (ne, dim, dim)


def frozen_geometry(mesh: Mesh, x: np.ndarray) -> FrozenGeometry:
    """The `FrozenGeometry` of positions x, shape (n, dim), on mesh.

    The weights w_i = (1/2) * sum of the adjacent h * s are the vertex
    (trapezoidal) quadrature used for all products of vertex fields; they
    sum to the total arc length.  Raises DegenerateGeometryError when an
    element has zero length or two adjacent tangents are antiparallel.
    """
    x = np.asarray(x, dtype=float)
    dx = x[1:] - x[:-1]
    chord = _row_norms(dx)
    if not (chord > 0.0).all():
        bad = int(np.argmin(chord))
        raise DegenerateGeometryError(
            f"element {bad} has zero length (coincident vertices)"
        )
    tau = dx / chord[:, None]
    s = chord / mesh.h
    hs = mesh.h * s
    half = 0.5 * hs
    w = np.zeros(hs.size + 1)
    w[:-1] += half
    w[1:] += half
    outer = tau[:, :, None] * tau[:, None, :]
    return FrozenGeometry(tau, s, averaged_tangent(tau), w, hs, dx, outer,
                          identity(tau.shape[1]) - outer)


def vertex_curvature(geom: FrozenGeometry) -> np.ndarray:
    """Discrete curvature vector at interior vertices.

    kappa_i = (tau_i^+ - tau_i^-) / ((1/2)(h_- s_- + h_+ s_+)), the exact
    solution of the vertex-quadrature weak identity relating curvature to the
    second parameter derivative of x.  Boundary rows are zero; callers supply
    prescribed end values themselves.
    """
    tau = geom.tau
    kappa = np.zeros(geom.ttau.shape)
    kappa[1:-1] = (tau[1:] - tau[:-1]) / geom.w[1:-1, None]
    return kappa


def element_twist(geom: FrozenGeometry, e1: np.ndarray, e2: np.ndarray) -> np.ndarray:
    """Twist density per element from the director pair (e1, e2).

    Exact integral of (e1_u . e2) over the element divided by the element arc
    length; with affine directors this is the midpoint value, i.e. the
    difference of e1 against the endpoint average of e2.
    """
    de1 = np.diff(e1, axis=0)
    e2_mid = 0.5 * (e2[:-1] + e2[1:])
    return np.einsum("ed,ed->e", de1, e2_mid) / geom.hs


def perp(v: np.ndarray) -> np.ndarray:
    """Rotate planar vectors by +pi/2: (a, b) -> (-b, a)."""
    out = np.empty_like(v)
    out[..., 0] = -v[..., 1]
    out[..., 1] = v[..., 0]
    return out


def cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise cross product of (n, 3) arrays, written out by component.

    Each component is the same difference of two products that np.cross
    forms, so the result is equal bit for bit, without its axis handling.
    """
    out = np.empty(a.shape)
    out[:, 0] = a[:, 1] * b[:, 2] - a[:, 2] * b[:, 1]
    out[:, 1] = a[:, 2] * b[:, 0] - a[:, 0] * b[:, 2]
    out[:, 2] = a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]
    return out

