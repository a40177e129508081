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
from scipy.spatial.distance import cdist

from .errors import DataError
from .ingest import LabeledDataset, class_partition

_BLOCK = 1 << 20  # distance entries per cdist block of the n2/n3 pass


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


def _class_blocks(emb: LabeledDataset) -> list[np.ndarray]:
    return [emb.features[idx] for idx in class_partition(emb)]


def f1(emb: LabeledDataset) -> float:
    """Maximum over features of the Fisher discriminant ratio.

    Per feature: between-class variance (class-count weighted squared
    mean offsets) over pooled within-class variance. Zero within-class
    variance with separated means gives +inf; fully degenerate features
    contribute 0.
    """
    X = emb.features
    overall = X.mean(axis=0)
    between = np.zeros(X.shape[1])
    within = np.zeros(X.shape[1])
    for block in _class_blocks(emb):
        mu = block.mean(axis=0)
        between += block.shape[0] * (mu - overall) ** 2
        within += ((block - mu) ** 2).sum(axis=0)
    ratios = np.zeros(X.shape[1])
    pos = within > 0
    ratios[pos] = between[pos] / within[pos]
    ratios[~pos & (between > 0)] = np.inf
    return float(ratios.max())


def _class_ranges(blocks: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Per-class feature minima and maxima, each (n_classes, d)."""
    return (np.array([blk.min(axis=0) for blk in blocks]),
            np.array([blk.max(axis=0) for blk in blocks]))


def f2(emb: LabeledDataset) -> float:
    """Volume of the per-pair feature-range overlap, averaged over pairs."""
    lo, hi = _class_ranges(_class_blocks(emb))
    a, b = np.triu_indices(lo.shape[0], k=1)  # pairs in combinations order
    width = np.clip(np.minimum(hi[a], hi[b]) - np.maximum(lo[a], lo[b]),
                    0.0, None)
    joint = np.maximum(hi[a], hi[b]) - np.minimum(lo[a], lo[b])
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
    by the smaller (i, j) index pair.
    """
    v = 0
    rest = np.arange(1, X.shape[0])
    # Per outside point: length of, and tree end of, its best edge.
    length = np.full(rest.size, np.inf)
    near = np.zeros(rest.size, dtype=np.intp)
    edges: list[tuple[int, int]] = []
    while rest.size:
        row = cdist(X[v:v + 1], X[rest])[0]
        # Both edges end at the outside point, so their order on a tie is
        # the order of their tree ends.
        better = (row < length) | ((row == length) & (v < near))
        length[better] = row[better]
        near[better] = v
        tied = np.flatnonzero(length == length.min())
        lo = np.minimum(near[tied], rest[tied])
        hi = np.maximum(near[tied], rest[tied])
        first = np.lexsort((hi, lo))[0]
        edges.append((int(lo[first]), int(hi[first])))
        v = rest[tied[first]]
        keep = rest != v
        rest, length, near = rest[keep], length[keep], near[keep]
    return sorted(edges)


def n1(emb: LabeledDataset) -> float:
    """Fraction of points touching a cross-class edge of the Euclidean MST."""
    edges = np.array(_mst_edges(emb.features))
    labels = emb.labels[edges]
    cross = edges[labels[:, 0] != labels[:, 1]]
    return np.unique(cross).size / emb.n_samples


def _neighbours(emb: LabeledDataset) -> tuple[np.ndarray, ...]:
    """Per point: nearest same-class distance (+inf for a singleton class),
    nearest other-class distance and nearest point (lowest index on ties),
    computed from `cdist` blocks of about _BLOCK entries.
    """
    X, labels, n = emb.features, emb.labels, emb.n_samples
    intra, extra, nearest = np.empty(n), np.empty(n), np.empty(n, np.intp)
    step = max(1, _BLOCK // n)
    for lo in range(0, n, step):
        rows = np.arange(lo, min(lo + step, n))
        D = cdist(X[rows], X)
        D[rows - lo, rows] = np.inf
        same = labels[rows, None] == labels
        intra[rows] = np.where(same, D, np.inf).min(axis=1)
        extra[rows] = np.where(same, np.inf, D).min(axis=1)
        nearest[rows] = D.argmin(axis=1)
    return intra, extra, nearest


def n2(emb: LabeledDataset) -> tuple[float, int]:
    """Mean intra-class over mean extra-class nearest-neighbour distance.

    Returns (value, skipped) where skipped counts singleton-class points
    excluded from both means.
    """
    intra, extra, _ = _neighbours(emb)
    valid = np.isfinite(intra)
    skipped = int((~valid).sum())
    if not valid.any():
        raise DataError("n2 undefined: every class has a single sample")
    num = float(intra[valid].mean())
    den = float(extra[valid].mean())
    if den == 0.0:
        return (0.0 if num == 0.0 else float(np.inf)), skipped
    return num / den, skipped


def n3(emb: LabeledDataset) -> float:
    """Leave-one-out 1-nearest-neighbour error rate (lowest index wins ties)."""
    return float(np.mean(emb.labels[_neighbours(emb)[2]] != emb.labels))


def t2(emb: LabeledDataset) -> float:
    """Samples per embedded dimension, N/d."""
    return emb.n_samples / emb.n_features


def compute_descriptors(emb: LabeledDataset) -> DescriptorReport:
    n2_value, skipped = n2(emb)
    return DescriptorReport(
        f1=f1(emb), f2=f2(emb), f3=f3(emb),
        n1=n1(emb), n2=n2_value, n3=n3(emb),
        t2=t2(emb), n2_skipped=skipped,
    )
