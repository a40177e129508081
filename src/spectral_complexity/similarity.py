"""Inter-class similarity estimation and symmetrization.

Entry (i, j) of the similarity matrix estimates the expected density of
class j at points drawn from class i, using a k-nearest-neighbour
density estimate inside a Chebyshev hypercube. Bray-Curtis similarity
over the matrix columns then produces the symmetric affinity W that the
spectral stage consumes.

Every class pair gets its own RNG stream derived from (seed, i, j), so
results are independent of evaluation order.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from functools import reduce
from itertools import groupby

import numpy as np

from .errors import DataError, NumericError
from .ingest import (HyperParams, LabeledDataset, _checked_matrix, _store,
                     class_partition)

# Duplicate-point floor: radii below 1e-12 of the target spread count as
# coincident and are clamped so the hypercube volume stays positive.
_DEGENERACY_SCALE = 1e-12

# Float64 entries per array of one batched density call: 2**15 is 256 KiB.
_BLOCK = 2 ** 15


@dataclass
class SimilarityDiagnostics:
    """Counters surfaced in the JSON report."""

    degenerate_densities: int = 0
    replacement_pairs: list[tuple[int, int]] = field(default_factory=list)
    zero_mass_rows: list[int] = field(default_factory=list)
    zero_denominator_pairs: list[tuple[int, int]] = field(default_factory=list)


@dataclass(frozen=True)
class ClassSimilarityMatrix:
    """Raw or row-normalized class-to-class density estimates.

    A float64 `values` array is kept without a copy and made read-only,
    the caller's own array included; copy it first to keep writing to
    it. Other input is converted into a new array.
    """

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
    """Symmetric class affinity W with entries in [0, 1] and unit diagonal.

    A float64 `values` array is kept without a copy and made read-only,
    the caller's own array included; copy it first to keep writing to
    it. Other input is converted into a new array.
    """

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
    """Density of each block's targets at its query rows.

    queries is (..., m, d) and targets (..., e, d) with the same leading
    shape; each leading index is one block, scored as if on its own.
    Returns the (..., m) densities and the count of floored or clamped
    ones over all blocks. Each row matches the pure-Python per-query
    reference in tests/test_similarity.py up to the last bit of pow():
    same radii, same epsilon floor, same overflow clamps.
    """
    m, dim = queries.shape[-2:]
    n_targets = targets.shape[-2]
    # Chebyshev distance as a running maximum over the coordinates, so no
    # (..., m, e, d) temporary is made; max and abs are exact.
    q = np.ascontiguousarray(np.moveaxis(queries, -1, 0))[..., None]
    t = np.ascontiguousarray(np.moveaxis(targets, -1, 0))[..., None, :]
    dist = np.abs(q[0] - t[0])
    step = np.empty_like(dist)
    for c in range(1, dim):
        np.abs(np.subtract(q[c], t[c], out=step), out=step)
        np.maximum(dist, step, out=dist)
    rows = dist.reshape(-1, n_targets)
    usable = np.full(rows.shape[0], n_targets)
    if exclude_self:
        # Leave-one-out: drop one coincident target per query; genuine
        # duplicates beyond the first still participate.
        zero = rows == 0.0
        hit = np.flatnonzero(zero.any(axis=1))
        rows[hit, zero[hit].argmax(axis=1)] = np.inf
        usable[hit] -= 1
    short = (usable < k).reshape(-1, m).any(axis=1)
    if short.any():
        # Name the first failing block, as a loop over the blocks would.
        first = usable.reshape(-1, m)[short.argmax()]
        raise DataError(f"k={k} exceeds usable target count {int(first.min())}")
    rows.partition(k - 1, axis=1)
    radius = rows[:, k - 1].reshape(queries.shape[:-1])
    span = np.ptp(targets, axis=-2).max(axis=-1, keepdims=True)
    eps = _DEGENERACY_SCALE * np.maximum(1.0, span)
    degenerate = radius < eps
    radius = np.where(degenerate, eps, radius)
    # Huge radii overflow the volume to inf, and k / inf is exactly 0; a
    # volume that underflows to 0 is clamped to the largest density. A
    # volume that is tiny but nonzero overflows k / denom to inf, which
    # _pair_means refuses.
    with np.errstate(divide="ignore", over="ignore"):
        denom = n_targets * (2.0 * radius) ** dim
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
    if diagnostics is None:
        diagnostics = SimilarityDiagnostics()
    return float(_pair_means(emb, params, [(source, target)], lambda p: rng,
                             diagnostics)[0])


def _pair_means(emb: LabeledDataset, params: HyperParams,
                pairs: list[tuple[int, int]],
                rng_of: Callable[[tuple[int, int]], np.random.Generator],
                diagnostics: SimilarityDiagnostics) -> np.ndarray:
    """Mean density of class j's draw at class i's, for each pair (i, j).

    Pair (i, j) draws M rows of class i, then E of class j, without
    replacement, from the stream rng_of((i, j)); a smaller class is used
    whole and the pair recorded. Runs of one draw shape (m, e) are scored
    in chunks, one _batch_density call each; _BLOCK caps the float64
    entries of its distances, (P, m, e), and of its rows, (P, m + e, d).
    Diagnostics take a chunk once its means are finite; NumericError
    names the first pair whose mean is past the float64 range.
    """
    rows = class_partition(emb)
    m_of, e_of = ([min(cap, r.size) for r in rows]
                  for cap in (params.M, params.E))
    means = []
    for (m, e), run in groupby(pairs, key=lambda p: (m_of[p[0]], e_of[p[1]])):
        run = list(run)
        size = max(1, _BLOCK // max(m * e, (m + e) * emb.n_features))
        for chunk in (run[s:s + size] for s in range(0, len(run), size)):
            draws = [(rng.choice(rows[i], size=m, replace=False),
                      rng.choice(rows[j], size=e, replace=False))
                     for (i, j), rng in zip(chunk, map(rng_of, chunk))]
            queries, targets = (emb.features[np.stack(side)]
                                for side in zip(*draws))
            density, degenerate = _batch_density(queries, targets, params.k,
                                                 exclude_self=True)
            # One sum per contiguous row keeps the per-pair summation order.
            means.append(_row_sums(
                lambda p: f"similarity of class pair {chunk[p]} overflows "
                "float64; try --reduce pca:<d>", density) / m)
            diagnostics.degenerate_densities += degenerate
            if (m, e) != (params.M, params.E):
                diagnostics.replacement_pairs.extend(chunk)
    return np.concatenate(means)


def _row_sums(refusal: Callable[[int], str], *terms) -> np.ndarray:
    """Row sums of the elementwise sum of `terms`; the first one past the
    float64 range raises NumericError(refusal(row))."""
    with np.errstate(over="ignore"):
        sums = reduce(np.add, terms).sum(axis=1)
    bad = np.flatnonzero(np.isinf(sums))
    if bad.size:
        raise NumericError(refusal(int(bad[0])))
    return sums


def build_similarity_matrix(emb: LabeledDataset, params: HyperParams, *,
                            row_normalize: bool = True,
                            include_diagonal: bool = True,
                            threads: int = 1) -> ClassSimilarityMatrix:
    """Populate all class pairs of the similarity matrix, in pair order.

    `threads` is accepted and has no effect. Rows are normalized to sum
    1 unless row_normalize is off; all-zero rows are left as zero and
    recorded in diagnostics. Skipping the diagonal leaves those cells
    at 0 before normalization. A pair mean or row sum past the float64
    range raises NumericError.
    """
    n = emb.n_classes
    pairs = [(i, j) for i in range(n) for j in range(n)
             if include_diagonal or i != j]
    diagnostics = SimilarityDiagnostics()
    raw = np.zeros((n, n), dtype=np.float64)
    raw[tuple(zip(*pairs))] = _pair_means(
        emb, params, pairs, lambda p: pair_rng(params.seed, *p), diagnostics)

    if row_normalize:
        sums = _row_sums(lambda r: f"similarity row of class {r} sums past "
                         "float64; try --reduce pca:<d>", raw)
        zero = sums == 0.0
        diagnostics.zero_mass_rows.extend(np.flatnonzero(zero).tolist())
        raw = raw / np.where(zero, 1.0, sums)[:, None]
    return ClassSimilarityMatrix(values=raw, params=params,
                                 row_normalized=row_normalize,
                                 includes_diagonal=include_diagonal,
                                 diagnostics=diagnostics)


def bray_curtis_symmetrize(X: ClassSimilarityMatrix) -> SymmetricAffinity:
    """Symmetric affinity from column-wise Bray-Curtis similarity.

    W_ij = 1 - sum_q |X_qi - X_qj| / sum_q (X_qi + X_qj), with the
    diagonal pinned to exactly 1. A zero denominator (two all-zero
    columns) yields W_ij = 1 and a diagnostics entry. A column sum past
    the float64 range raises NumericError naming the first such pair.
    """
    cols = np.ascontiguousarray(X.values.T)
    n = cols.shape[0]
    W = np.ones((n, n), dtype=np.float64)
    zero_pairs: list[tuple[int, int]] = []
    for i in range(n - 1):
        # One sum per contiguous row keeps numpy's pairwise summation
        # order, so W matches a column-by-column loop bit for bit.
        den = _row_sums(lambda j: f"Bray-Curtis sums of class pair "
                        f"{(i, i + 1 + j)} overflow float64; "
                        "try --reduce pca:<d>", cols[i + 1:], cols[i])
        # X >= 0, so each partial sum of num is at most den's: it is finite.
        num = np.abs(cols[i + 1:] - cols[i]).sum(axis=1)
        zero = den == 0.0
        zero_pairs.extend((i, i + 1 + int(j)) for j in np.flatnonzero(zero))
        # Rounding can push the ratio a hair past [0, 1].
        w = np.clip(1.0 - num / np.where(zero, 1.0, den), 0.0, 1.0)
        w[zero] = 1.0
        W[i, i + 1:] = W[i + 1:, i] = w
    # Assigned, not extended, so a repeated call records the same pairs.
    X.diagnostics.zero_denominator_pairs = zero_pairs
    return SymmetricAffinity(values=W)
