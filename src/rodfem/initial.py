"""Initial curves with adapted director frames.

Both constructors return vertex positions plus a director pair that is
orthonormal against the *discrete* averaged tangent of the polyline, so a
fresh simulation starts with frame error at rounding level.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError
from .geometry import Mesh, frozen_geometry


@dataclass
class InitialData:
    x: np.ndarray   # (N, 3) vertex positions
    e1: np.ndarray  # (N, 3) first director
    e2: np.ndarray  # (N, 3) second director


def straight_rod(mesh: Mesh, length: float = 1.0) -> InitialData:
    """Straight segment of the given length along the first axis, with e1
    on the second axis and e2 on the third."""
    if not (np.isfinite(length) and length > 0.0):
        raise InvalidParameterError(f"length must be > 0, got {length}")
    n = mesh.n_vertices
    x = np.zeros((n, 3))
    x[:, 0] = length * mesh.u
    e1 = np.tile([0.0, 1.0, 0.0], (n, 1))
    e2 = np.tile([0.0, 0.0, 1.0], (n, 1))
    return InitialData(x=x, e1=e1, e2=e2)


def circle_arc(mesh: Mesh, radius: float, angle: float) -> InitialData:
    """Planar arc of the given radius spanning the given central angle.

    The curve starts at the origin with tangent +x and bends towards +y; the
    first director points at the arc's center (then re-orthogonalized against
    the discrete vertex tangents), the second out of the plane.
    """
    if not (np.isfinite(radius) and radius > 0.0):
        raise InvalidParameterError(f"radius must be > 0, got {radius}")
    if not (np.isfinite(angle) and 0.0 < angle < 2.0 * np.pi):
        raise InvalidParameterError(
            f"angle must lie in (0, 2*pi) for an open arc, got {angle}"
        )
    th = angle * mesh.u
    x = radius * np.column_stack([np.sin(th), 1.0 - np.cos(th), np.zeros_like(th)])
    ttau = frozen_geometry(mesh, x).ttau
    seed = np.column_stack([-np.sin(th), np.cos(th), np.zeros_like(th)])
    e1 = seed - np.einsum("id,id->i", seed, ttau)[:, None] * ttau
    e1 /= np.linalg.norm(e1, axis=1)[:, None]
    e2 = np.cross(ttau, e1)
    return InitialData(x=x, e1=e1, e2=e2)
