"""Classical geometry-based complexity baselines.

Feature-based measures (f1, f2, f3) work per feature axis; neighbour
measures (n1, n2, n3) work on Euclidean distances in the embedded
space; t2 is the sample-to-dimension ratio. Pairwise measures are
generalized to n classes by unweighted one-vs-one averaging. Everything
here is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import DataError, NumericError
from .ingest import LabeledDataset, class_partition

# Distance entries per cdist tile of the n2/n3 pass: 1 MiB, so a tile and
# the passes over it stay in a core's L2 cache. 1 << 15 and 1 << 18 were
# slower at N = 20 000 (d = 3 and 16) on a 2 MiB-L2 core.
_BLOCK = 1 << 17


@dataclass(frozen=True)
class DescriptorReport:
    """All seven descriptor values; f1 and n2 may be +inf.

    n2_skipped counts points whose class has a single sample, which
    have no same-class neighbour and are excluded from n2.
    """

    f1: float
    f2: float
    f3: float
    n1: float
    n2: float
    n3: float
    t2: float
    n2_skipped: int = 0

    def __post_init__(self) -> None:
        for name in ("f2", "f3", "n1", "n3"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise DataError(f"{name} must lie in [0, 1], got {v}")
        for name in ("f1", "n2"):  # NaN fails each bound; +inf passes this one
            if not getattr(self, name) >= 0.0:
                raise DataError(f"{name} must be >= 0, got {getattr(self, name)}")
        if not 0.0 < self.t2 < np.inf:
            raise DataError(f"t2 must be finite and > 0, got {self.t2}")


DESCRIPTORS = tuple(f.name for f in fields(DescriptorReport)
                    if f.name != "n2_skipped")


def _too_large() -> NumericError:
    return NumericError("feature values too large for the descriptors")


def _class_blocks(emb: LabeledDataset) -> list[np.ndarray]:
    return [emb.features[idx] for idx in class_partition(emb)]


def f1(emb: LabeledDataset) -> float:
    """Maximum over features of the Fisher discriminant ratio.

    Per feature: between-class variance (class-count weighted squared
    mean offsets) over pooled within-class variance. Zero within-class
    variance with separated means, or a ratio beyond the float64 range,
    gives +inf; fully degenerate features contribute 0. Means or squares
    that overflow raise NumericError.
    """
    X = emb.features
    with np.errstate(over="ignore", invalid="ignore"):
        overall = X.mean(axis=0)
        between = np.zeros(X.shape[1])
        within = np.zeros(X.shape[1])
        for block in _class_blocks(emb):
            mu = block.mean(axis=0)
            between += block.shape[0] * (mu - overall) ** 2
            within += ((block - mu) ** 2).sum(axis=0)
    if not (np.isfinite(between).all() and np.isfinite(within).all()):
        raise _too_large()
    ratios = np.zeros(X.shape[1])
    pos = within > 0
    with np.errstate(over="ignore"):
        ratios[pos] = between[pos] / within[pos]
    ratios[~pos & (between > 0)] = np.inf
    return float(ratios.max())


def _class_ranges(blocks: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Per-class feature minima and maxima, each (n_classes, d)."""
    return (np.array([blk.min(axis=0) for blk in blocks]),
            np.array([blk.max(axis=0) for blk in blocks]))


def f2(emb: LabeledDataset) -> float:
    """Volume of the per-pair feature-range overlap, averaged over pairs.

    A joint feature range that overflows raises NumericError.
    """
    lo, hi = _class_ranges(_class_blocks(emb))
    a, b = np.triu_indices(lo.shape[0], k=1)  # pairs in combinations order
    with np.errstate(over="ignore"):
        width = np.clip(np.minimum(hi[a], hi[b]) - np.maximum(lo[a], lo[b]),
                        0.0, None)
        joint = np.maximum(hi[a], hi[b]) - np.minimum(lo[a], lo[b])
    if not np.isfinite(joint).all():
        raise _too_large()
    # Zero joint width means every value of both classes coincides.
    safe = np.where(joint > 0, joint, 1.0)
    ratio = np.where(joint > 0, width / safe, 1.0)
    return float(np.mean(np.prod(ratio, axis=1)))


def f3(emb: LabeledDataset) -> float:
    """Best single feature's fraction of points outside the overlap interval.

    Per pair: for each feature, count the pair's points strictly outside
    [max of mins, min of maxes]; take the best (largest) feature, then
    average over pairs.
    """
    blocks = _class_blocks(emb)
    lo, hi = _class_ranges(blocks)
    vals = []
    for a, b in zip(*np.triu_indices(len(blocks), k=1)):
        pts = np.vstack([blocks[a], blocks[b]])
        outside = ((pts < np.maximum(lo[a], lo[b]))
                   | (pts > np.minimum(hi[a], hi[b])))
        vals.append(float(outside.mean(axis=0).max()))
    return float(np.mean(vals))


def _mst_edges(X: np.ndarray) -> list[tuple[int, int]]:
    """Euclidean MST edges (i, j) with i < j, sorted, built by Prim.

    Edges compare by (length, i, j). That strict order makes the tree
    unique, so it is the tree Kruskal builds when it breaks length ties
    by the smaller (i, j) index pair. An edge length that overflows raises
    NumericError.
    """
    from scipy.spatial.distance import cdist
    # Slots [0, k) hold the points outside the tree: coordinates, original
    # index, and the length and tree end of each one's best edge. A point
    # that joins the tree swaps places with the last live slot.
    P = np.array(X[1:], dtype=np.float64, order="C")
    index = np.arange(1, X.shape[0])
    length = np.full(index.size, np.inf)
    near = np.zeros(index.size, dtype=np.intp)
    edges: list[tuple[int, int]] = []
    v = 0
    for k in range(index.size, 0, -1):
        row = cdist(X[v:v + 1], P[:k])[0]
        L, T, last = length[:k], near[:k], k - 1
        better = row < L
        tie = row == L
        if tie.any():
            # Both edges end at the outside point, so their order on a tie
            # is the order of their tree ends.
            better |= tie & (v < T)
        np.putmask(T, better, v)
        np.minimum(L, row, out=L)
        j = int(L.argmin())
        if L[j] == np.inf:  # cdist overflowed
            raise _too_large()
        if last - int(L[::-1].argmin()) != j:  # another point ties with j
            tied = np.flatnonzero(L == L[j])
            lo = np.minimum(T[tied], index[tied])
            hi = np.maximum(T[tied], index[tied])
            j = int(tied[np.lexsort((hi, lo))[0]])
        v, end = int(index[j]), int(T[j])
        edges.append((min(v, end), max(v, end)))
        P[j], index[j], L[j], T[j] = P[last], index[last], L[last], T[last]
    return sorted(edges)


def n1(emb: LabeledDataset) -> float:
    """Fraction of points touching a cross-class edge of the Euclidean MST."""
    edges = np.array(_mst_edges(emb.features))
    labels = emb.labels[edges]
    cross = edges[labels[:, 0] != labels[:, 1]]
    return np.unique(cross).size / emb.n_samples


def _neighbours(emb: LabeledDataset) -> tuple[np.ndarray, ...]:
    """Per point: nearest same-class distance (+inf for a singleton class),
    nearest other-class distance and nearest point (lowest index on ties).

    Points are sorted by class, stably, and scored in `cdist` tiles of
    about _BLOCK entries; one minimum.reduceat gives each row's per-class
    minima, its own class's the same-class distance and the least of the
    others the other-class one. argmin picks the lowest index in the first
    class at the row minimum, so a row where two classes tie there takes
    the lowest index among its tied columns instead. A nearest distance
    that overflows raises NumericError.
    """
    from scipy.spatial.distance import cdist
    n = emb.n_samples
    order = np.argsort(emb.labels, kind="stable")
    X, cls = emb.features[order], emb.labels[order]
    counts = np.bincount(emb.labels)
    starts = np.cumsum(counts) - counts
    intra, extra, nearest = np.empty(n), np.empty(n), np.empty(n, np.intp)
    step = max(1, _BLOCK // n)
    for lo in range(0, n, step):
        rows = np.arange(lo, min(lo + step, n))
        D = cdist(X[rows], X)
        D[rows - lo, rows] = np.inf
        M = np.minimum.reduceat(D, starts, axis=1)
        best = M.min(axis=1)
        point = order[rows]
        nearest[point] = order[D.argmin(axis=1)]
        tied = np.flatnonzero((M == best[:, None]).sum(axis=1) > 1)
        if tied.size:
            hit = D[tied] == best[tied, None]
            nearest[point[tied]] = np.where(hit, order, n).min(axis=1)
        own = (rows - lo, cls[rows])
        intra[point] = M[own]
        M[own] = np.inf
        extra[point] = M.min(axis=1)
    paired = counts[emb.labels] > 1
    if np.isinf(extra).any() or np.isinf(intra[paired]).any():
        raise _too_large()
    return intra, extra, nearest


def _n2_value(intra: np.ndarray, extra: np.ndarray) -> tuple[float, int]:
    valid = np.isfinite(intra)
    skipped = int((~valid).sum())
    if not valid.any():
        raise DataError("n2 undefined: every class has a single sample")
    num = float(intra[valid].mean())
    den = float(extra[valid].mean())
    if den == 0.0:
        return (0.0 if num == 0.0 else float(np.inf)), skipped
    return num / den, skipped


def n2(emb: LabeledDataset) -> tuple[float, int]:
    """Mean intra-class over mean extra-class nearest-neighbour distance.

    Returns (value, skipped) where skipped counts singleton-class points
    excluded from both means.
    """
    return _n2_value(*_neighbours(emb)[:2])


def _n3_value(labels: np.ndarray, nearest: np.ndarray) -> float:
    return float(np.mean(labels[nearest] != labels))


def n3(emb: LabeledDataset) -> float:
    """Leave-one-out 1-nearest-neighbour error rate (lowest index wins ties)."""
    return _n3_value(emb.labels, _neighbours(emb)[2])


def t2(emb: LabeledDataset) -> float:
    """Samples per embedded dimension, N/d."""
    return emb.n_samples / emb.n_features


def compute_descriptors(emb: LabeledDataset) -> DescriptorReport:
    """All descriptors; n2 and n3 share one neighbour pass, over
    class-sorted distance tiles (see _neighbours)."""
    intra, extra, nearest = _neighbours(emb)
    n2_value, skipped = _n2_value(intra, extra)
    return DescriptorReport(
        f1=f1(emb), f2=f2(emb), f3=f3(emb),
        n1=n1(emb), n2=n2_value, n3=_n3_value(emb.labels, nearest),
        t2=t2(emb), n2_skipped=skipped,
    )
