"""Scalar functionals, convergence tables, and CSV export.

All functionals are evaluated on the *current* state: quadrature weights use
the current length elements and the preferred-field comparison uses the
current directors, not the frozen coefficients the step was built with.
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


def elastic_energy(w, bend_stiffness, kappa, kappa_pref,
                   hs=None, twist_stiffness=None, twist=None, twist_pref=None):
    """Deviation energy from the preferred curvature (and twist, if given).

    The bending term uses vertex quadrature with the stiffness sampled at
    vertices; the twist term is exact per element with midpoint samples.
    kappa_pref is the preferred curvature vector already expanded in the
    current directors.
    """
    dev = kappa - kappa_pref
    total = float(np.sum(w * bend_stiffness * np.sum(dev * dev, axis=1)))
    if twist is not None:
        d = twist - twist_pref
        total += float(np.sum(hs * twist_stiffness * d * d))
    return total


def length_error(hs, length: float) -> float:
    """F1: deviation of the total arc length from the target."""
    return abs(float(np.sum(hs)) - length)


def center_of_mass(mesh, x, s) -> np.ndarray:
    """Arc-length-weighted average of element midpoints."""
    hs = mesh.h * s
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


def _g17(x) -> str:
    return "%.17g" % float(x)


def write_diagnostics(path, records) -> None:
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(DIAGNOSTICS_COLUMNS)
        for r in records:
            com = np.zeros(3)
            com[: len(r.com)] = r.com
            out.writerow(
                [str(r.step)]
                + [_g17(v) for v in (r.t, r.energy, r.f1, r.f2, r.f2_increment,
                                     r.total_length, com[0], com[1], com[2],
                                     r.s_min, r.s_max)]
            )


def write_snapshot(vertex_path, element_path, mesh, x, e1, e2, kappa, spin,
                   twist, twist_moment, tension) -> None:
    """Write the vertex and element state tables of one spatial state.

    A planar state is written through its embedding in space,
    `solver2d.embed_in_space`.
    """
    n = mesh.n_vertices
    with open(vertex_path, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(
            ["u", "x", "y", "z", "e1x", "e1y", "e1z", "e2x", "e2y", "e2z",
             "kappa_x", "kappa_y", "kappa_z", "m"]
        )
        for i in range(n):
            row = [mesh.u[i], *x[i], *e1[i], *e2[i], *kappa[i], spin[i]]
            out.writerow([_g17(v) for v in row])

    ne = mesh.n_elements
    with open(element_path, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(["u_mid", "gamma", "z_moment", "p"])
        mids = mesh.midpoints
        for e in range(ne):
            out.writerow(
                [_g17(v) for v in (mids[e], twist[e], twist_moment[e],
                                   tension[e])]
            )


def write_kymograph(vertex_path, element_path, mesh, samples) -> None:
    """Space-time tables of the actuation response.

    samples is a time-ordered list of dicts with keys t, alpha (per vertex),
    beta (per vertex), and gamma (per element, or None for planar runs).
    The vertex table holds (u, t, alpha, beta); the element table holds
    (u_mid, t, gamma) and is left empty apart from its header when no run
    supplies a twist.
    """
    with open(vertex_path, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(["u", "t", "alpha", "beta"])
        for sample in samples:
            for i in range(mesh.n_vertices):
                out.writerow([_g17(v) for v in (
                    mesh.u[i], sample["t"], sample["alpha"][i],
                    sample["beta"][i],
                )])
    with open(element_path, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(["u_mid", "t", "gamma"])
        mids = mesh.midpoints
        for sample in samples:
            if sample["gamma"] is None:
                continue
            for e in range(mesh.n_elements):
                out.writerow([_g17(v) for v in (
                    mids[e], sample["t"], sample["gamma"][e],
                )])


def write_convergence_table(path, rows) -> None:
    """Refinement table: one row per level.

    rows are dicts with keys dt, n_vertices, max_f1, eoc (None on the first
    level), max_f2, max_f2_increment.
    """
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(["dt", "n_vertices", "max_f1", "eoc", "max_f2",
                      "max_f2_increment"])
        for r in rows:
            out.writerow([
                _g17(r["dt"]),
                str(r["n_vertices"]),
                _g17(r["max_f1"]),
                "" if r["eoc"] is None else _g17(r["eoc"]),
                _g17(r["max_f2"]),
                _g17(r["max_f2_increment"]),
            ])
