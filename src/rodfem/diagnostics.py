"""Scalar functionals and CSV export.

Every CSV table rodfem writes goes through `write_table`, the one place
that knows the CSV dialect and the cell format.  The other writers only
say which columns a table has.

All functionals are evaluated on the *current* state: each takes the
state's own `geometry.FrozenGeometry`, so quadrature weights use the current
length elements, and the preferred-field comparison uses the current
directors, not the coefficients the step into the state was built with.
"""

import csv
from dataclasses import dataclass

import numpy as np


@dataclass
class DiagnosticsRecord:
    step: int
    t: float
    energy: float
    f1: float
    f2: float
    f2_increment: float
    total_length: float
    com: np.ndarray  # length = model dimension; write_diagnostics pads to 3
    s_min: float
    s_max: float


def elastic_energy(geom, bend_stiffness, kappa, kappa_pref,
                   twist_stiffness=None, twist=None, twist_pref=None):
    """Deviation energy from the preferred curvature (and twist, if given).

    geom is the `geometry.FrozenGeometry` of the state.  The bending term
    uses its vertex quadrature with the stiffness sampled at vertices; the
    twist term is exact per element with midpoint samples.  kappa_pref is
    the preferred curvature vector already expanded in the current
    directors.
    """
    dev = kappa - kappa_pref
    total = float(np.sum(geom.w * bend_stiffness * np.sum(dev * dev, axis=1)))
    if twist is not None:
        d = twist - twist_pref
        total += float(np.sum(geom.hs * twist_stiffness * d * d))
    return total


def length_error(geom, length: float) -> float:
    """F1: deviation of the total arc length of geom from the target."""
    return abs(float(geom.hs.sum()) - length)


def center_of_mass(geom, x) -> np.ndarray:
    """Arc-length-weighted average of the element midpoints of positions x,
    whose geometry is geom."""
    hs = geom.hs
    mid = 0.5 * (x[:-1] + x[1:])
    return (hs[:, None] * mid).sum(axis=0) / hs.sum()


def curvature_components(kappa, e1, e2):
    """Split the curvature vector into its director components.

    Valid because the discrete curvature is orthogonal to the averaged
    tangent at every vertex, so the pair (e1, e2) spans it.
    """
    alpha = np.einsum("nd,nd->n", kappa, e1)
    beta = np.einsum("nd,nd->n", kappa, e2)
    return alpha, beta


def eoc(errors, dts) -> np.ndarray:
    """Experimental order of convergence of successive error/step pairs."""
    errors = np.asarray(errors, dtype=float)
    dts = np.asarray(dts, dtype=float)
    if errors.shape != dts.shape or errors.ndim != 1:
        raise ValueError("errors and dts must be 1-d arrays of equal length")
    return np.log(errors[1:] / errors[:-1]) / np.log(dts[1:] / dts[:-1])


# --- CSV export -------------------------------------------------------------

DIAGNOSTICS_COLUMNS = [
    "step", "t", "energy", "f1", "f2", "f2_increment", "total_length",
    "com_x", "com_y", "com_z", "s_min", "s_max",
]


def write_table(path, header, columns) -> None:
    """Write a CSV table: the header row, then row k of every column.

    Columns are sequences of equal length.  A cell that is a Python int is
    written with str, None as an empty cell and any other number with 17
    significant digits, which reproduces a double bit for bit.  Cells are
    formatted row by row as the file is written.
    """
    cells = [("" if v is None else str(v) if isinstance(v, int) else "%.17g" % v
              for v in column)
             for column in columns]
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(header)
        out.writerows(zip(*cells, strict=True))


def write_diagnostics(path, records) -> None:
    """Per-step table of the records; a planar center of mass gets com_z = 0."""
    com = np.zeros((len(records), 3))
    for row, r in zip(com, records):
        row[: len(r.com)] = r.com
    fields = [[getattr(r, name) for r in records]
              for name in DIAGNOSTICS_COLUMNS if not name.startswith("com_")]
    i = DIAGNOSTICS_COLUMNS.index("com_x")
    write_table(path, DIAGNOSTICS_COLUMNS, [*fields[:i], *com.T, *fields[i:]])


def write_snapshot(vertex_path, element_path, mesh, x, e1, e2, kappa, spin,
                   twist, twist_moment, tension) -> None:
    """Write the vertex and element state tables of one spatial state.

    A planar state is written through its embedding in space,
    `solver2d.embed_in_space`.
    """
    write_table(
        vertex_path,
        ["u", "x", "y", "z", "e1x", "e1y", "e1z", "e2x", "e2y", "e2z",
         "kappa_x", "kappa_y", "kappa_z", "m"],
        [mesh.u, *x.T, *e1.T, *e2.T, *kappa.T, spin],
    )
    write_table(element_path, ["u_mid", "gamma", "z_moment", "p"],
                [mesh.midpoints, twist, twist_moment, tension])


def write_kymograph(vertex_path, element_path, mesh, samples) -> None:
    """Space-time tables of the actuation response.

    samples is a time-ordered list of dicts with keys t, alpha (per vertex),
    beta (per vertex), and gamma (per element, or None for planar runs).
    The vertex table holds (u, t, alpha, beta); the element table holds
    (u_mid, t, gamma) and is left empty apart from its header when no run
    supplies a twist.
    """
    write_table(vertex_path, ["u", "t", "alpha", "beta"], [
        np.tile(mesh.u, len(samples)),
        np.repeat([s["t"] for s in samples], mesh.n_vertices),
        np.ravel([s["alpha"] for s in samples]),
        np.ravel([s["beta"] for s in samples]),
    ])
    twisted = [s for s in samples if s["gamma"] is not None]
    write_table(element_path, ["u_mid", "t", "gamma"], [
        np.tile(mesh.midpoints, len(twisted)),
        np.repeat([s["t"] for s in twisted], mesh.n_elements),
        np.ravel([s["gamma"] for s in twisted]),
    ])

