"""Direct solution of banded linear systems.

The step systems produced by the assemblers have O(1) bandwidth when unknowns
are interleaved along the rod, so an LU factorization with partial pivoting in
LAPACK band storage solves them in O(n) time.  Every solve gets exactly one
round of iterative refinement in working precision, which makes it
componentwise backward stable (Skeel, "Iterative refinement implies
numerical stability for Gaussian elimination", Math. Comp. 35, 1980), and
returns its residual vector too; band products are float64 BLAS calls
(dgbmv).

dgbtrf, dgbtrs and dgbmv are scipy's compiled wrappers.  Their extension
modules (_flapack, _fblas) are loaded straight from their files, so that
`import rodfem` skips scipy.linalg's package import, which pulls in some 300
more modules and dominated the package's import time.  They are the very
modules scipy.linalg.lapack and scipy.linalg.blas re-export, so the routines
are the same objects and the numbers are the same.

Bands are stored Fortran-ordered, the layout LAPACK and BLAS read, so the
factorization copies a contiguous block and a product copies nothing; entry
(i, j) sits at flat position (kl + ku + i - j) + ldab * j of the column-major
data, with ldab = 2 kl + ku + 1.
"""

import importlib.machinery
import importlib.util
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import AssemblyError, SingularMatrixError, SolverError


def _linalg_extension(name: str):
    """scipy.linalg's compiled module `name`, without importing scipy.linalg.

    find_spec("scipy") locates the package without importing it.  A module
    loaded here is not put in sys.modules; importing scipy.linalg later
    loads the same file under the same name, and gets the same routines.
    Without the file, the module is imported the usual way.
    """
    spec = importlib.util.find_spec("scipy")
    for directory in getattr(spec, "submodule_search_locations", None) or ():
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = Path(directory, "linalg", name + suffix)
            if path.is_file():
                ext = importlib.util.spec_from_file_location(
                    "scipy.linalg." + name, path)
                module = importlib.util.module_from_spec(ext)
                ext.loader.exec_module(module)
                return module
    return importlib.import_module("scipy.linalg." + name)


lapack = _linalg_extension("_flapack")
blas = _linalg_extension("_fblas")


class BandedMatrix:
    """Square banded matrix in LAPACK band storage.

    Entry (i, j) with -ku <= i - j <= kl lives at data[kl + ku + i - j, j];
    the top kl rows are workspace for factorization fill-in and stay zero
    here.  data is Fortran-ordered, so the flat scatter index of (i, j) into
    data.reshape(-1, order="F") is (kl + ku + i - j) + ldab * j, with
    ldab = 2 kl + ku + 1 rows.
    """

    def __init__(self, n: int, kl: int, ku: int):
        if n < 1 or kl < 0 or ku < 0:
            raise ValueError(f"bad banded shape n={n}, kl={kl}, ku={ku}")
        self.n = n
        self.kl = kl
        self.ku = ku
        self.data = np.zeros((2 * kl + ku + 1, n), order="F")

    def flat_indices(self, rows, cols) -> np.ndarray:
        """Scatter positions into data.reshape(-1, order="F") for (row, col)."""
        rows = np.asarray(rows)
        cols = np.asarray(cols)
        d = rows - cols
        if d.size and (d.max(initial=0) > self.kl or -d.min(initial=0) > self.ku):
            raise ValueError("entry outside the declared band")
        return (self.kl + self.ku + d) + self.data.shape[0] * cols

    def add_entries(self, rows, cols, vals) -> None:
        np.add.at(self.data.reshape(-1, order="F"),
                  self.flat_indices(rows, cols), vals)

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """y = A @ x in float64, one BLAS band product (dgbmv).

        The whole Fortran-ordered band goes to dgbmv without a copy: its top
        kl fill-in rows, which are zero, are read as kl more superdiagonals,
        so the product is taken with kl + ku of them.  dgbmv wants at least
        as many rows as the band has, so a smaller matrix is multiplied as
        that many rows; the padded rows only add entries past n, which are
        cut off.
        """
        kl, ku, n = self.kl, self.ku, self.n
        y = blas.dgbmv(max(n, 2 * kl + ku + 1), n, kl, kl + ku, 1.0, self.data,
                       np.asarray(x, dtype=float))
        return y[:n]


@dataclass
class BandedLU:
    """Factorization handle; keeps the unfactored matrix for residuals."""

    matrix: BandedMatrix
    lu: np.ndarray = field(repr=False)
    ipiv: np.ndarray = field(repr=False)

    def backsolve(self, b: np.ndarray) -> np.ndarray:
        b = np.asarray(b, dtype=float)
        if b.shape != (self.matrix.n,):
            raise SolverError(
                f"right-hand side has shape {b.shape}, expected ({self.matrix.n},)"
            )
        x, info = lapack.dgbtrs(
            self.lu, self.matrix.kl, self.matrix.ku, b.reshape(-1, 1), self.ipiv
        )
        if info != 0:
            raise SolverError(f"banded back-substitution failed (info={info})")
        return x[:, 0]


def factorize(m: BandedMatrix) -> BandedLU:
    """LU-factorize a banded square matrix.

    Partial pivoting is always on; an exact zero pivot surviving the pivot
    search means the matrix is singular.
    """
    if not np.isfinite(m.data).all():
        raise AssemblyError("matrix contains non-finite entries")
    lu, ipiv, info = lapack.dgbtrf(m.data, m.kl, m.ku)
    if info < 0:
        raise ValueError(f"illegal argument {-info} to banded factorization")
    if info > 0:
        raise SingularMatrixError(
            f"matrix is singular: zero pivot at column {info - 1}"
        )
    return BandedLU(matrix=m, lu=lu, ipiv=ipiv)


def solve(lu: BandedLU, b):
    """Back-solve with one round of iterative refinement; returns (x, b - A x).

    Partial pivoting bounds the norm-wise residual but not the residual of
    an individual row.  One refinement round in working precision restores
    componentwise backward stability (Skeel 1980), at the cost of one
    product and one extra back-solve; a second product gives the residual
    that is returned.  Further rounds cannot lower that residual below its
    rounding floor, so none are taken.
    """
    b = np.asarray(b, dtype=float)
    x = lu.backsolve(b)
    x = x + lu.backsolve(b - lu.matrix.matvec(x))
    return x, b - lu.matrix.matvec(x)
