"""Director frame propagation and orthonormality bookkeeping.

The frame is carried from step to step by two exact rotations per vertex:
first the minimal rotation taking the old vertex tangent onto the new one,
then a rotation about the new tangent by the angle the rod spun during the
step.  Both are applied in closed form, so orthonormality decays only at
rounding level, without any reprojection.
"""

import numpy as np

from .errors import FrameTransportError
from .geometry import FrozenGeometry, cross

#: 1 + cos(angle between old/new tangent) below this is treated as antipodal
ANTIPODAL_GUARD = 1e-8


def _rotate_min(v, c, k):
    """Minimal rotation with cos = c and axis*sin = k applied to rows of v."""
    vk = np.einsum("id,id->i", v, k)
    return v * c[:, None] + cross(k, v) + vk[:, None] * k / (1.0 + c)[:, None]


def _rotate_axis(v, axis, phi):
    """Rotation of rows of v about unit axis rows by angles phi."""
    cphi = np.cos(phi)[:, None]
    sphi = np.sin(phi)[:, None]
    va = np.einsum("id,id->i", v, axis)[:, None]
    return v * cphi + cross(axis, v) * sphi + va * axis * (1.0 - cphi)


def transport_frame(e1, e2, ttau_old, ttau_new, phi):
    """Advance the director pair across one step.

    ttau_old/ttau_new are the vertex tangents before and after the step, phi
    the per-vertex spin angle (step size times tangential angular velocity).
    Raises FrameTransportError when some vertex tangent flips by ~pi, which
    no minimal rotation can resolve.
    """
    c = np.einsum("id,id->i", ttau_old, ttau_new)
    if np.any(1.0 + c <= ANTIPODAL_GUARD):
        bad = int(np.argmin(c))
        raise FrameTransportError(
            f"tangent reversal at vertex {bad}: old and new vertex tangents "
            f"are antiparallel (cos = {c[bad]!r}); the step is too violent"
        )
    k = cross(ttau_old, ttau_new)
    e1_mid = _rotate_min(e1, c, k)
    e2_mid = _rotate_min(e2, c, k)
    e1_new = _rotate_axis(e1_mid, ttau_new, phi)
    e2_new = _rotate_axis(e2_mid, ttau_new, phi)
    return e1_new, e2_new


def orthonormality_defects(ttau, e1, e2) -> np.ndarray:
    """Per-vertex deviations of the six frame products from 0/1.

    Rows are |t.t-1|, |t.e1|, |t.e2|, |e1.e1-1|, |e1.e2|, |e2.e2-1|.
    """
    dot = lambda a, b: np.einsum("id,id->i", a, b)  # noqa: E731
    return np.abs(
        np.stack(
            [
                dot(ttau, ttau) - 1.0,
                dot(ttau, e1),
                dot(ttau, e2),
                dot(e1, e1) - 1.0,
                dot(e1, e2),
                dot(e2, e2) - 1.0,
            ]
        )
    )


def frame_error(geom: FrozenGeometry, e1, e2) -> float:
    """Aggregate orthonormality error, weighted by the current arc measure.

    Square root of the vertex-quadrature integral of the summed squared
    deviations of all six products among (vertex tangent, e1, e2); geom is
    the geometry of the positions the frame belongs to.
    """
    defects = orthonormality_defects(geom.ttau, e1, e2)
    # np.add.reduce is the core of np.sum, without its dispatch
    return float(np.sqrt(np.add.reduce(
        geom.w * np.add.reduce(defects * defects, axis=0))))

