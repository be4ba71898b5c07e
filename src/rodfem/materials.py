"""Material parameters and drag models.

Stiffness/viscosity profiles are numbers or functions of the parameter u
(`scenarios.compile_profile` builds one from an expression).  Elastic moduli
must be strictly positive where sampled, viscous ones nonnegative (the
scheme's stability argument needs exactly that).

A drag model turns the `geometry.FrozenGeometry` of a state into one drag
matrix per element, `element_matrices(geom)`.
"""

from dataclasses import dataclass, field
from typing import Callable, Union

import numpy as np

from .errors import InvalidParameterError

Profile = Union[float, Callable[[np.ndarray], np.ndarray]]


def _sample(profile, u, name, strict_positive):
    # numpy's warnings (1/0, overflow) name no field; the checks below do
    with np.errstate(all="ignore"):
        vals = np.asarray(profile(u) if callable(profile) else profile,
                          dtype=float)
    if vals.shape != np.asarray(u).shape:
        vals = np.broadcast_to(vals, np.asarray(u).shape).copy()
    if not np.all(np.isfinite(vals)):
        raise InvalidParameterError(f"{name} is not finite on the mesh")
    if strict_positive:
        if np.any(vals <= 0.0):
            raise InvalidParameterError(f"{name} must be > 0 everywhere")
    elif np.any(vals < 0.0):
        raise InvalidParameterError(f"{name} must be >= 0 everywhere")
    return vals


@dataclass
class MaterialParams:
    """Bending/twisting moduli and the rotational drag coefficient.

    bend_stiffness and bend_viscosity are sampled at vertices, twist_stiffness
    and twist_viscosity at element midpoints (where the twist lives).
    """

    bend_stiffness: Profile = 1.0   # elastic, > 0
    bend_viscosity: Profile = 0.0   # Voigt-type, >= 0
    twist_stiffness: Profile = 1.0  # elastic, > 0
    twist_viscosity: Profile = 0.0  # Voigt-type, >= 0
    rotary_drag: float = 1.0        # resistance against spinning, > 0

    def __post_init__(self):
        if not (np.isfinite(self.rotary_drag) and self.rotary_drag > 0.0):
            raise InvalidParameterError(
                f"rotary_drag must be a positive number, got {self.rotary_drag}"
            )

    def bend_stiffness_at(self, u):
        return _sample(self.bend_stiffness, u, "bend_stiffness", True)

    def bend_viscosity_at(self, u):
        return _sample(self.bend_viscosity, u, "bend_viscosity", False)

    def twist_stiffness_at(self, u):
        return _sample(self.twist_stiffness, u, "twist_stiffness", True)

    def twist_viscosity_at(self, u):
        return _sample(self.twist_viscosity, u, "twist_viscosity", False)


@dataclass
class IsotropicDrag:
    """Constant symmetric positive definite drag matrix (default: identity)."""

    matrix: np.ndarray = field(default_factory=lambda: np.eye(3))

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.shape != (3, 3):
            raise InvalidParameterError(f"drag matrix must be 3x3, got {m.shape}")
        if not np.all(np.isfinite(m)):
            raise InvalidParameterError("drag matrix must be finite")
        if np.max(np.abs(m - m.T)) > 1e-12:
            raise InvalidParameterError("drag matrix must be symmetric")
        if np.min(np.linalg.eigvalsh(m)) <= 0.0:
            raise InvalidParameterError("drag matrix must be positive definite")
        self.matrix = m

    def element_matrices(self, geom) -> np.ndarray:
        """Per-element drag matrix of a `geometry.FrozenGeometry`; the
        dimension follows its tangents."""
        ne, dim = geom.tau.shape
        return np.broadcast_to(self.matrix[:dim, :dim], (ne, dim, dim)).copy()


@dataclass
class ResistiveForceDrag:
    """Anisotropic drag: unit resistance along the tangent, k transverse.

    K(tau) = tau tau^T + k (I - tau tau^T); eigenvalues are {1, k, ..., k},
    so k > 0 keeps it positive definite.
    """

    k: float = 40.0

    def __post_init__(self):
        if not (np.isfinite(self.k) and self.k > 0.0):
            raise InvalidParameterError(
                f"transverse drag factor must be > 0, got {self.k}"
            )

    def element_matrices(self, geom) -> np.ndarray:
        """Per-element K(tau), built from the tangent projectors of a
        `geometry.FrozenGeometry`; raises InvalidParameterError unless every
        tangent is a unit vector to within 1e-12."""
        outer = geom.outer
        # the diagonal of tau tau^T sums to |tau|^2 in the order norm() takes
        norms = np.sqrt(outer.trace(axis1=1, axis2=2))
        err = np.abs(norms - 1.0)
        if not (err <= 1e-12).all():    # a NaN tangent fails too
            bad = int(np.argmax(err))
            raise InvalidParameterError(
                f"tangents must be unit vectors (element {bad}: "
                f"|tau| = {float(norms[bad])!r})"
            )
        return outer + self.k * geom.proj
