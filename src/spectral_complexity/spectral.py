"""Graph Laplacian, its spectrum, and the complexity scores.

The affinity W becomes L = D - W with D the diagonal degree matrix.
Three scores summarize the sorted eigenvalues: a cumulative-maximum sum
of scaled squared-eigenvalue increments (the headline score), the same
construction on plain gradients (baseline), and the trapezoidal area
under the spectrum (baseline).
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import DataError, NumericError
from .ingest import _checked_matrix, _store
from .similarity import SymmetricAffinity


@dataclass(frozen=True)
class Laplacian:
    """L = D - W. Symmetric, zero row sums, nonpositive off-diagonal.

    A float64 `values` array is kept without a copy and made read-only,
    the caller's own array included; copy it first to keep writing to
    it. Other input is converted into a new array.
    """

    values: np.ndarray

    def __post_init__(self) -> None:
        vals = _checked_matrix(self.values, "Laplacian", symmetric=True)
        tol = 1e-9 * max(1.0, float(np.abs(vals).max()))
        if np.abs(vals.sum(axis=1)).max() > tol:
            raise DataError("Laplacian rows must sum to 0")
        off = vals - np.diag(np.diag(vals))
        if np.any(off > 0):
            raise DataError("Laplacian off-diagonal entries must be <= 0")
        _store(self, values=vals)

    @property
    def n_classes(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class Spectrum:
    """Nondecreasing nonnegative eigenvalues with a zero smallest value.

    A 1-D float64 `eigenvalues` array is kept without a copy and made
    read-only, the caller's own array included; copy it first to keep
    writing to it. Other input is converted into a new array.
    """

    eigenvalues: np.ndarray

    def __post_init__(self) -> None:
        vals = np.asarray(self.eigenvalues, dtype=np.float64)
        if vals.ndim != 1:
            raise DataError(f"spectrum must be 1-D, got shape {vals.shape}")
        if vals.size == 0 or not np.isfinite(vals).all():
            raise DataError("spectrum must be non-empty and finite")
        if np.any(np.diff(vals) < 0):
            raise DataError("eigenvalues must be nondecreasing")
        if np.any(vals < 0):
            raise DataError("eigenvalues must be nonnegative")
        tol = 1e-8 * max(1.0, float(vals[-1]))
        if vals[0] > tol:
            raise DataError("smallest eigenvalue must be 0 for a Laplacian spectrum")
        _store(self, eigenvalues=vals)

    @property
    def n(self) -> int:
        return self.eigenvalues.size


@dataclass(frozen=True)
class ComplexityScores:
    """The headline score plus the two spectral baselines."""

    cmsauls: float
    csg: float
    auls: float


METRICS = tuple(f.name for f in fields(ComplexityScores))

# Emitted under report diagnostics so every score can be recomputed from
# the stored spectrum without consulting the source code.
DEFINITIONS = {
    "cmsauls": "sum of cummax of (lam[i+1]^2 - lam[i]^2) / (2 (n - i))",
    "csg": "sum of cummax of (lam[i+1] - lam[i]) / (n - i)",
    "auls": "sum of (lam[i] + lam[i+1]) / 2",
}


def build_laplacian(W: SymmetricAffinity) -> Laplacian:
    """L = D - W with D_ii the i-th row sum of W.

    W's diagonal cancels: L_ii ends up as the sum of off-diagonal
    affinities in row i.
    """
    vals = W.values
    degree = np.diag(vals.sum(axis=1))
    return Laplacian(values=degree - vals)


def spectrum(L: Laplacian) -> Spectrum:
    """Eigenvalues of L, ascending, with float noise clamped at zero.

    Values inside [-tau, 0) with tau = 1e-8 * max(1, largest eigenvalue)
    are rounding artifacts and clamp to 0; anything below -tau means the
    affinity upstream was broken and raises NumericError.
    """
    try:
        vals = np.linalg.eigvalsh(L.values)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigensolver failed: {exc}") from None
    tau = 1e-8 * max(1.0, float(vals[-1]))
    if vals[0] < -tau:
        raise NumericError(
            f"eigenvalue {vals[0]:.3e} below -{tau:.3e}; affinity is not PSD"
        )
    return Spectrum(eigenvalues=np.clip(vals, 0.0, None))


def _eigenvalues(s: Spectrum) -> np.ndarray:
    """s's eigenvalues; every score needs at least two."""
    if s.n < 2:
        raise DataError(f"need at least 2 eigenvalues, got {s.n}")
    return s.eigenvalues


def scaled_area_increments(s: Spectrum) -> np.ndarray:
    """Increments (lam[i+1]^2 - lam[i]^2) / (2 (n - i)) for i = 0..n-2."""
    lam = _eigenvalues(s)
    n = lam.size
    denom = 2.0 * (n - np.arange(n - 1))
    return (lam[1:] ** 2 - lam[:-1] ** 2) / denom


def cmsauls(s: Spectrum) -> float:
    """Sum of the cumulative maximum of the scaled area increments."""
    return float(np.maximum.accumulate(scaled_area_increments(s)).sum())


def csg(s: Spectrum) -> float:
    """Cumulative-maximum sum of plain eigenvalue gradients (baseline)."""
    lam = _eigenvalues(s)
    n = lam.size
    grad = (lam[1:] - lam[:-1]) / (n - np.arange(n - 1))
    return float(np.maximum.accumulate(grad).sum())


def auls(s: Spectrum) -> float:
    """Trapezoidal area under the sorted eigenvalue curve (baseline)."""
    lam = _eigenvalues(s)
    return float(((lam[:-1] + lam[1:]) / 2.0).sum())


def compute_scores(s: Spectrum) -> ComplexityScores:
    return ComplexityScores(cmsauls=cmsauls(s), csg=csg(s), auls=auls(s))
