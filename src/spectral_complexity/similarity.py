"""Inter-class similarity estimation and symmetrization.

Entry (i, j) of the similarity matrix estimates the expected density of
class j at points drawn from class i, using a k-nearest-neighbour
density estimate inside a Chebyshev hypercube. Bray-Curtis similarity
over the matrix columns then produces the symmetric affinity W that the
spectral stage consumes.

Every class pair gets its own RNG stream derived from (seed, i, j), so
results are independent of evaluation order and thread schedule.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError
from .ingest import (HyperParams, LabeledDataset, _checked_matrix, _store,
                     class_partition)

# Duplicate-point floor: radii below 1e-12 of the target spread count as
# coincident and are clamped so the hypercube volume stays positive.
_DEGENERACY_SCALE = 1e-12


@dataclass
class SimilarityDiagnostics:
    """Counters surfaced in the JSON report."""

    degenerate_densities: int = 0
    replacement_pairs: list[tuple[int, int]] = field(default_factory=list)
    zero_mass_rows: list[int] = field(default_factory=list)
    zero_denominator_pairs: list[tuple[int, int]] = field(default_factory=list)


@dataclass(frozen=True)
class ClassSimilarityMatrix:
    """Raw or row-normalized class-to-class density estimates."""

    values: np.ndarray
    params: HyperParams
    row_normalized: bool
    includes_diagonal: bool
    diagnostics: SimilarityDiagnostics

    def __post_init__(self) -> None:
        vals = _checked_matrix(self.values, "similarity matrix")
        if np.any(vals < 0):
            raise DataError("similarity entries must be nonnegative")
        _store(self, values=vals)

    @property
    def n_classes(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class SymmetricAffinity:
    """Symmetric class affinity W with entries in [0, 1] and unit diagonal."""

    values: np.ndarray

    def __post_init__(self) -> None:
        vals = _checked_matrix(self.values, "affinity", symmetric=True)
        if np.any(vals < 0) or np.any(vals > 1):
            raise DataError("affinity entries must lie in [0, 1]")
        if np.any(np.diag(vals) != 1.0):
            raise DataError("affinity diagonal must be exactly 1")
        _store(self, values=vals)

    @property
    def n_classes(self) -> int:
        return self.values.shape[0]


def pair_rng(seed: int, source: int, target: int) -> np.random.Generator:
    """Deterministic RNG stream for one ordered class pair."""
    return np.random.default_rng(np.random.SeedSequence([seed, source, target]))


def _batch_density(queries: np.ndarray, targets: np.ndarray, k: int,
                   exclude_self: bool) -> tuple[np.ndarray, int]:
    """Density of `targets` at each query row; returns (densities, degenerate count).

    Each row matches the pure-Python per-query reference in
    tests/test_similarity.py up to the last bit of pow(): same radii,
    same epsilon floor, same overflow clamps.
    """
    n_targets, dim = targets.shape
    dist = np.max(np.abs(queries[:, None, :] - targets[None, :, :]), axis=2)
    usable = np.full(queries.shape[0], n_targets)
    if exclude_self:
        # Leave-one-out: drop one coincident target per query; genuine
        # duplicates beyond the first still participate.
        zero = dist == 0.0
        hit = np.flatnonzero(zero.any(axis=1))
        dist[hit, zero[hit].argmax(axis=1)] = np.inf
        usable[hit] -= 1
    if np.any(usable < k):
        raise DataError(
            f"k={k} exceeds usable target count {int(usable.min())}"
        )
    radius = np.partition(dist, k - 1, axis=1)[:, k - 1]
    span = float(np.ptp(targets, axis=0).max()) if n_targets > 1 else 0.0
    eps = _DEGENERACY_SCALE * max(1.0, span)
    degenerate = radius < eps
    radius = np.where(degenerate, eps, radius)
    # Huge radii overflow the volume to inf, and k / inf is exactly 0; a
    # volume that underflows to 0 is clamped to the largest density.
    with np.errstate(over="ignore"):
        denom = n_targets * (2.0 * radius) ** dim
    with np.errstate(divide="ignore"):
        density = k / denom
    overflow = denom == 0.0
    density[overflow] = np.finfo(np.float64).max
    return density, int((degenerate | overflow).sum())


def knn_density(query: np.ndarray, targets: np.ndarray, k: int,
                exclude_self: bool = False,
                diagnostics: SimilarityDiagnostics | None = None) -> float:
    """k-nearest density estimate K/(E*V) at one query point.

    V is the hypercube of side 2*r_k where r_k is the Chebyshev distance
    to the k-th nearest usable target; E is the number of targets as
    passed, before any self-exclusion. With exclude_self, one target at
    distance exactly 0 is dropped from the neighbour set.
    """
    query = np.asarray(query, dtype=np.float64).ravel()
    pts = np.atleast_2d(np.asarray(targets, dtype=np.float64))
    if pts.shape[0] == 0:
        raise DataError("empty target set")
    if pts.shape[1] != query.size:
        raise DataError(
            f"query dimension {query.size} != target dimension {pts.shape[1]}"
        )
    if k < 1:
        raise DataError(f"k must be >= 1, got {k}")
    density, degenerate = _batch_density(query[None, :], pts, k, exclude_self)
    if diagnostics is not None:
        diagnostics.degenerate_densities += degenerate
    return float(density[0])


def class_pair_expectation(source: int, target: int, emb: LabeledDataset,
                           params: HyperParams, rng: np.random.Generator,
                           diagnostics: SimilarityDiagnostics | None = None,
                           ) -> float:
    """Mean density of class `target` over M points drawn from class `source`.

    Draws are without replacement; a class smaller than M (or E) is
    used whole and the pair is recorded. Every query drops one
    coincident target (leave-one-out). On the self pair that removes
    the query's own copy; on cross pairs it only fires when classes
    share identical points, and keeps such duplicated classes scoring
    like the self pair.
    """
    if not {source, target} <= set(range(emb.n_classes)):
        raise DataError(f"class pair ({source}, {target}) is out of range")
    rows = class_partition(emb)
    value, degenerate, whole = _pair_expectation(rows[source], rows[target],
                                                 emb, params, rng)
    if diagnostics is not None:
        diagnostics.degenerate_densities += degenerate
        if whole:
            diagnostics.replacement_pairs.append((source, target))
    return value


def _pair_expectation(src_idx: np.ndarray, tgt_idx: np.ndarray,
                      emb: LabeledDataset, params: HyperParams,
                      rng: np.random.Generator) -> tuple[float, int, bool]:
    m = min(params.M, src_idx.size)
    e = min(params.E, tgt_idx.size)
    queries = emb.features[rng.choice(src_idx, size=m, replace=False)]
    targets = emb.features[rng.choice(tgt_idx, size=e, replace=False)]
    density, degenerate = _batch_density(queries, targets, params.k,
                                         exclude_self=True)
    return float(np.sum(density) / m), degenerate, m < params.M or e < params.E


def build_similarity_matrix(emb: LabeledDataset, params: HyperParams, *,
                            row_normalize: bool = True,
                            include_diagonal: bool = True,
                            threads: int = 1) -> ClassSimilarityMatrix:
    """Populate all class pairs of the similarity matrix.

    Per-pair RNG streams make the result identical for any thread count.
    Rows are normalized to sum 1 unless row_normalize is off; all-zero
    rows are left as zero and recorded in diagnostics. Skipping the
    diagonal leaves those cells at 0 before normalization.
    """
    n = emb.n_classes
    pairs = [(i, j) for i in range(n) for j in range(n)
             if include_diagonal or i != j]
    rows = class_partition(emb)

    def job(pair: tuple[int, int]) -> tuple[float, int, bool]:
        i, j = pair
        return _pair_expectation(rows[i], rows[j], emb, params,
                                 pair_rng(params.seed, i, j))

    # The pool starts a thread per submit while none is idle, and map
    # submits every pair at once, so workers are capped at the CPU count.
    workers = min(threads, os.cpu_count() or 1)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(job, pairs))
    else:
        results = [job(p) for p in pairs]

    diagnostics = SimilarityDiagnostics()
    raw = np.zeros((n, n), dtype=np.float64)
    for (i, j), (value, degenerate, replaced) in zip(pairs, results):
        raw[i, j] = value
        diagnostics.degenerate_densities += degenerate
        if replaced:
            diagnostics.replacement_pairs.append((i, j))

    if row_normalize:
        sums = raw.sum(axis=1)
        zero_rows = np.flatnonzero(sums == 0.0)
        diagnostics.zero_mass_rows.extend(int(r) for r in zero_rows)
        safe = np.where(sums == 0.0, 1.0, sums)
        raw = raw / safe[:, None]
    return ClassSimilarityMatrix(values=raw, params=params,
                                 row_normalized=row_normalize,
                                 includes_diagonal=include_diagonal,
                                 diagnostics=diagnostics)


def bray_curtis_symmetrize(X: ClassSimilarityMatrix) -> SymmetricAffinity:
    """Symmetric affinity from column-wise Bray-Curtis similarity.

    W_ij = 1 - sum_q |X_qi - X_qj| / sum_q (X_qi + X_qj), with the
    diagonal pinned to exactly 1. A zero denominator (two all-zero
    columns) yields W_ij = 1 and a diagnostics entry.
    """
    cols = np.ascontiguousarray(X.values.T)
    n = cols.shape[0]
    W = np.ones((n, n), dtype=np.float64)
    zero_pairs: list[tuple[int, int]] = []
    for i in range(n - 1):
        # One sum per contiguous row keeps numpy's pairwise summation
        # order, so W matches a column-by-column loop bit for bit.
        num = np.abs(cols[i + 1:] - cols[i]).sum(axis=1)
        den = (cols[i + 1:] + cols[i]).sum(axis=1)
        zero = den == 0.0
        zero_pairs.extend((i, i + 1 + int(j)) for j in np.flatnonzero(zero))
        # Rounding can push the ratio a hair past [0, 1].
        w = np.clip(1.0 - num / np.where(zero, 1.0, den), 0.0, 1.0)
        w[zero] = 1.0
        W[i, i + 1:] = W[i + 1:, i] = w
    # Assigned, not extended, so a repeated call records the same pairs.
    X.diagnostics.zero_denominator_pairs = zero_pairs
    return SymmetricAffinity(values=W)
