"""Dimensionality reduction: PCA via a streamed QR and SVD, or passthrough.

The PCA basis comes from the singular-value decomposition of the
centered data matrix, which matches covariance eigendecomposition but
conditions better. The matrix is never formed whole: the fit streams
the rows in blocks through a sequential TSQR (Demmel, Grigori, Hoemmen
& Langou, SIAM J. Sci. Comput. 2012), stacking the running R factor on
each centered block and keeping only the R of its QR, and then takes
the SVD of the final small R, whose singular values and right singular
vectors are those of the centered data. The projection is written
block by block into the output. A block holds max(D, 2**19 // D) rows,
4 MiB of float64 (8192 rows at D = 64). Component signs follow a fixed
convention (first coordinate with magnitude above 1e-9 is positive) so
results do not depend on the eigensolver's arbitrary sign choices.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import DataError, NumericError
from .ingest import HyperParams, LabeledDataset, ReductionMeta, ReductionSpec

# Entries at or below this magnitude are treated as zero when picking
# the sign-defining coordinate of a component.
_SIGN_EPS = 1e-9

# float64 entries per block of centered rows (4 MiB) in the fit and the
# projection; a block never holds fewer than D rows.
_BLOCK = 2 ** 19


def _blocks(n: int, dim: int):
    """Row slices of at most max(dim, _BLOCK // dim) rows covering n rows."""
    rows = max(dim, _BLOCK // dim)
    return (slice(start, start + rows) for start in range(0, n, rows))


@dataclass(frozen=True)
class PCAModel:
    """Fitted PCA basis: mean vector, component rows, variance ratios."""

    mean: np.ndarray
    components: np.ndarray
    explained_variance_ratio: np.ndarray

    def transform(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        out = np.empty((len(X), len(self.components)))
        for rows in _blocks(*X.shape):
            np.matmul(X[rows] - self.mean, self.components.T, out=out[rows])
        return out


def _enforce_sign(components: np.ndarray) -> np.ndarray:
    """Flip rows so each component's first non-negligible entry is positive."""
    big = np.abs(components) > _SIGN_EPS
    lead = components[np.arange(len(components)), big.argmax(axis=1)]
    flip = big.any(axis=1) & (lead < 0)
    return np.where(flip[:, None], -components, components)


def fit_pca(ds: LabeledDataset, spec: ReductionSpec) -> PCAModel:
    """Fit a PCA basis sized by spec (fixed dimension or contribution rate).

    Components are orthonormal rows ordered by decreasing explained
    variance. In rate mode the retained count is the smallest d whose
    cumulative explained-variance ratio reaches the rate. All samples
    identical, or a variance that overflows, is a numeric failure; a
    fixed dimension above min(N-1, D) is an input error.
    """
    if spec.mode == "passthrough":
        raise DataError("fit_pca requires a pca reduction mode")
    X = ds.features
    n, dim = X.shape
    limit = min(n - 1, dim)
    # Features near the float64 limit overflow the mean, the R factor or
    # the squared singular values; the checks below turn that into a
    # clean failure.
    with np.errstate(over="ignore", invalid="ignore"):
        mean = X.mean(axis=0)
        r = np.empty((0, dim))
        for rows in _blocks(n, dim):
            r = np.linalg.qr(np.vstack([r, X[rows] - mean]), mode="r")
        if not np.isfinite(r).all():
            raise NumericError(
                "non-finite PCA variance: feature values too large")
        _, svals, vt = np.linalg.svd(r, full_matrices=False)
        variance = svals ** 2 / (n - 1)
        total = variance.sum()
    if not np.isfinite(total):
        raise NumericError("non-finite PCA variance: feature values too large")
    if total <= 0.0:
        raise NumericError("zero total variance: all samples are identical")
    ratios = variance / total
    if spec.mode == "fixed":
        d = int(spec.n_components)
        if d > limit:
            raise DataError(
                f"requested dimension {d} exceeds min(N-1, D) = {limit}"
            )
    else:
        cumulative = np.cumsum(ratios)
        # Tiny slack keeps rates like 0.90 from missing an exact hit to
        # floating-point rounding.
        d = int(np.searchsorted(cumulative, spec.rate - 1e-12, side="left")) + 1
        d = min(d, limit)
    components = _enforce_sign(vt[:d])
    return PCAModel(mean=mean, components=components,
                    explained_variance_ratio=ratios[:d].copy())


def apply_reduction(ds: LabeledDataset, params: HyperParams) -> LabeledDataset:
    """Produce the embedding the similarity stage consumes.

    The result is ds with its meta set. Passthrough keeps the feature
    matrix bit-identical with d = D; PCA modes center the data and
    project it onto the retained components.
    """
    spec = params.reduction
    if spec.mode == "passthrough":
        return replace(ds, meta=ReductionMeta("passthrough", ds.n_features))
    model = fit_pca(ds, spec)
    projected = model.transform(ds.features)
    if not np.all(np.isfinite(projected)):
        raise NumericError("reduction produced non-finite values")
    meta = ReductionMeta(
        method="pca",
        d=projected.shape[1],
        explained_variance_ratio=tuple(model.explained_variance_ratio.tolist()),
    )
    return replace(ds, features=projected, meta=meta)
