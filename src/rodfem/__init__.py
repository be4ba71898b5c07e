"""Mixed finite-element simulation of inextensible viscoelastic rods.

The package advances an open rod with prescribed intrinsic curvature and
twist through a viscous medium.  One linear solve per time step yields the
vertex positions together with the internal moments and the tension that
enforces local inextensibility; an orthonormal director frame is transported
along afterwards.  A planar reduction of the same scheme is available for
two-dimensional studies and cross-validation.

Entry points:

* :func:`run` drives a full simulation of either model from a
  :class:`SimConfig`; :func:`run2d` is the same function.
* :func:`builtin_scenario` returns the bundled actuation presets;
  :func:`compile_expr` builds preferred-field functions from short
  expression strings.
* ``rodfem`` (console script, :mod:`rodfem.cli`) exposes the same runs plus
  refinement and planar-comparison studies as subcommands.
"""

__version__ = "0.1.0"

from .errors import (
    RodfemError,
    InvalidMeshError,
    DegenerateGeometryError,
    InvalidParameterError,
    AssemblyError,
    SingularMatrixError,
    SolverError,
    FrameTransportError,
    ConfigError,
)
from .geometry import (
    Mesh,
    uniform_mesh,
    FrozenGeometry,
    frozen_geometry,
    vertex_curvature,
    element_twist,
    perp,
)
from .materials import (
    MaterialParams,
    IsotropicDrag,
    ResistiveForceDrag,
)
from .scenarios import Scenario, builtin_scenario, compile_expr, evaluate_field
from .initial import InitialData, straight_rod, circle_arc
from .frame import (
    transport_frame,
    orthonormality_defects,
    frame_error,
)
from .diagnostics import (
    DiagnosticsRecord,
    elastic_energy,
    length_error,
    center_of_mass,
    curvature_components,
    eoc,
)
from .assembly3d import RodState2D, RodState3D
from .engine3d import (
    SimConfig,
    RunStats,
    RunResult,
    initial_state,
    initial_state_2d,
    embed_in_space,
    step_count,
    run,
    run2d,
    spun_up_state_2d,
)

__all__ = [
    "__version__",
    # errors
    "RodfemError",
    "InvalidMeshError",
    "DegenerateGeometryError",
    "InvalidParameterError",
    "AssemblyError",
    "SingularMatrixError",
    "SolverError",
    "FrameTransportError",
    "ConfigError",
    # discretization
    "Mesh",
    "uniform_mesh",
    "FrozenGeometry",
    "frozen_geometry",
    "vertex_curvature",
    "element_twist",
    "perp",
    # physics inputs
    "MaterialParams",
    "IsotropicDrag",
    "ResistiveForceDrag",
    "Scenario",
    "builtin_scenario",
    "compile_expr",
    "evaluate_field",
    "InitialData",
    "straight_rod",
    "circle_arc",
    # frame transport
    "transport_frame",
    "orthonormality_defects",
    "frame_error",
    # diagnostics
    "DiagnosticsRecord",
    "elastic_energy",
    "length_error",
    "center_of_mass",
    "curvature_components",
    "eoc",
    # drivers
    "RodState3D",
    "SimConfig",
    "RunStats",
    "RunResult",
    "initial_state",
    "step_count",
    "run",
    "RodState2D",
    "initial_state_2d",
    "spun_up_state_2d",
    "run2d",
    "embed_in_space",
]
