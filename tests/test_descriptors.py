import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from scipy.spatial.distance import cdist, pdist, squareform

from spectral_complexity import (DataError, DescriptorReport, LabeledDataset,
                                 NumericError, compute_descriptors, f1, f2, f3,
                                 gen_gaussian_suite, n1, n2, n3, t2)
from spectral_complexity import descriptors
from spectral_complexity.descriptors import _mst_edges, _neighbours

from conftest import embed, make_blobs


def embed_1d(points, labels):
    feats = np.asarray(points, dtype=float).reshape(-1, 1)
    return embed(LabeledDataset(features=feats, labels=np.asarray(labels)))


def embed_2d(points, labels):
    return embed(LabeledDataset(features=np.asarray(points, dtype=float),
                                labels=np.asarray(labels)))


LINE = embed_1d([0.0, 1.0, 10.0, 11.0], [0, 0, 1, 1])


class TestFisherRatio:
    def test_hand_value(self):
        emb = embed_1d([0.0, 2.0, 4.0, 6.0], [0, 0, 1, 1])
        assert f1(emb) == pytest.approx(4.0, abs=1e-12)

    def test_identical_means(self):
        emb = embed_1d([0.0, 2.0, 0.0, 2.0], [0, 0, 1, 1])
        assert f1(emb) == 0.0

    def test_zero_within_variance(self):
        emb = embed_1d([0.0, 0.0, 2.0, 2.0], [0, 0, 1, 1])
        assert f1(emb) == np.inf

    def test_ratio_past_float64_is_inf(self):
        emb = embed_1d([0.0, 1e-160, 1.0, 1.0], [0, 0, 1, 1])
        assert f1(emb) == np.inf

    def test_picks_best_feature(self):
        # Feature 0 is noise shared by both classes; feature 1 separates.
        pts = [[0.0, 0.0], [1.0, 2.0], [0.0, 4.0], [1.0, 6.0]]
        emb = embed_2d(pts, [0, 0, 1, 1])
        assert f1(emb) == pytest.approx(4.0, abs=1e-12)


class TestRangeOverlap:
    def test_partial_overlap(self):
        emb = embed_1d([0.0, 1.0, 0.5, 1.5], [0, 0, 1, 1])
        assert f2(emb) == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert f3(emb) == pytest.approx(0.5, abs=1e-12)

    def test_disjoint_ranges(self):
        emb = embed_1d([0.0, 1.0, 10.0, 11.0], [0, 0, 1, 1])
        assert f2(emb) == 0.0
        assert f3(emb) == 1.0

    def test_identical_ranges(self):
        emb = embed_1d([0.0, 1.0, 0.0, 1.0], [0, 0, 1, 1])
        assert f2(emb) == 1.0
        assert f3(emb) == 0.0

    def test_volume_is_per_feature_product(self):
        pts = [[0.0, 0.0], [1.0, 2.0], [0.5, 1.0], [1.5, 3.0]]
        emb = embed_2d(pts, [0, 0, 1, 1])
        assert f2(emb) == pytest.approx(1.0 / 9.0, abs=1e-12)

    def test_multiclass_pair_average(self):
        emb = embed_1d([0.0, 1.0, 0.5, 1.5, 10.0, 11.0], [0, 0, 1, 1, 2, 2])
        assert f2(emb) == pytest.approx(1.0 / 9.0, abs=1e-12)
        assert f3(emb) == pytest.approx(5.0 / 6.0, abs=1e-12)

    def test_coincident_classes_count_as_full_overlap(self):
        emb = embed_1d([3.0, 3.0], [0, 1])
        assert f2(emb) == 1.0
        assert f3(emb) == 0.0


def reference_f2_f3(emb):
    """The pair loop that f2 and f3 replaced: both classes' ranges are
    recomputed for every pair, and f2 takes one product per pair."""
    blocks = [emb.features[emb.labels == c] for c in np.unique(emb.labels)]
    vals2, vals3 = [], []
    for a, b in combinations(range(len(blocks)), 2):
        A, B = blocks[a], blocks[b]
        lo = np.maximum(A.min(axis=0), B.min(axis=0))
        hi = np.minimum(A.max(axis=0), B.max(axis=0))
        joint = (np.maximum(A.max(axis=0), B.max(axis=0))
                 - np.minimum(A.min(axis=0), B.min(axis=0)))
        width = np.clip(hi - lo, 0.0, None)
        safe = np.where(joint > 0, joint, 1.0)
        vals2.append(float(np.prod(np.where(joint > 0, width / safe, 1.0))))
        pts = np.vstack([A, B])
        vals3.append(float(((pts < lo) | (pts > hi)).mean(axis=0).max()))
    return float(np.mean(vals2)), float(np.mean(vals3))


def range_fixture(kind, seed):
    rng = np.random.default_rng(seed)
    n_classes = 30 if kind == "many" else int(rng.integers(2, 8))
    n = int(rng.integers(n_classes + 2, 4 * n_classes + 20))
    d = int(rng.integers(1, 20))
    labels = rng.permutation(np.arange(n) % n_classes)
    X = np.round(rng.standard_normal((n, d)), 1)  # rounded, so ties abound
    if kind == "constant":
        X[:, rng.integers(0, d, size=max(1, d // 2))] = 2.5
    if kind == "coincident":
        # Class 1 is a copy of class 0, row for row where it can be.
        copies = int((labels == 1).sum())
        X[labels == 1] = np.resize(X[labels == 0], (copies, d))
    if kind == "singleton":
        labels = np.r_[np.arange(n - 2) % n_classes, n_classes, n_classes + 1]
    if kind == "scaled":
        X *= 1e150
    return embed_2d(X, labels)


@pytest.mark.parametrize("kind", ["ties", "constant", "coincident",
                                  "singleton", "many", "scaled"])
def test_f2_f3_match_pair_loop_reference(kind):
    for seed in range(50):
        emb = range_fixture(kind, seed)
        assert (f2(emb), f3(emb)) == reference_f2_f3(emb)


class TestNeighbourMeasures:
    def test_line_example(self):
        assert n1(LINE) == pytest.approx(0.5, abs=1e-15)
        value, skipped = n2(LINE)
        assert value == pytest.approx(0.10526315789473684, abs=1e-9)
        assert skipped == 0
        assert n3(LINE) == 0.0

    def test_interleaved_points(self):
        emb = embed_1d([0.0, 1.0, 2.0, 3.0], [0, 1, 0, 1])
        assert n3(emb) == 1.0

    def test_coincident_mixed_pair(self):
        emb = embed_1d([0.0, 0.0], [0, 1])
        assert n1(emb) == 1.0
        assert n3(emb) == 1.0

    def test_separated_blobs(self):
        ds = make_blobs([(0.0, 0.0), (50.0, 50.0)], per_class=30, scale=0.5)
        emb = embed(ds)
        assert n3(emb) == 0.0
        assert n1(emb) == pytest.approx(2.0 / 60.0, abs=1e-15)

    def test_mst_tie_break_is_lexicographic(self):
        X = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        assert _mst_edges(X) == [(0, 1), (0, 2), (1, 3)]

    def test_singleton_class_skipped(self):
        emb = embed_1d([0.0, 1.0, 5.0], [0, 0, 1])
        value, skipped = n2(emb)
        assert skipped == 1
        # Only the two class-0 points contribute: intra mean 1,
        # extra mean (5 + 4) / 2.
        assert value == pytest.approx(1.0 / 4.5, abs=1e-12)

    def test_all_singletons_rejected(self):
        emb = embed_1d([0.0, 1.0], [0, 1])
        with pytest.raises(DataError, match="single sample"):
            n2(emb)

    def test_n3_lowest_index_wins_ties(self):
        # Point 0 is equally near to points 1 and 2, which differ in class.
        assert n3(embed_1d([0.0, -1.0, 1.0], [0, 1, 0])) == 2.0 / 3.0
        assert n3(embed_1d([0.0, 1.0, -1.0], [0, 0, 1])) == 1.0 / 3.0

    def test_coincident_classes_n2_zero(self):
        emb = embed_1d([0.0, 0.0, 0.0, 0.0], [0, 0, 1, 1])
        value, skipped = n2(emb)
        assert value == 0.0 and skipped == 0


def kruskal_edges(X):
    """Kruskal MST over all sorted pdist edges; ties by smaller (i, j)."""
    n = X.shape[0]
    dist = pdist(X)
    iu, ju = np.triu_indices(n, k=1)
    order = np.lexsort((ju, iu, dist))
    parent = list(range(n))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    edges: list[tuple[int, int]] = []
    for e in order:
        i, j = int(iu[e]), int(ju[e])
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj
            edges.append((i, j))
            if len(edges) == n - 1:
                break
    return edges


def reference_n1(X, labels):
    border = set()
    for i, j in kruskal_edges(X):
        if labels[i] != labels[j]:
            border.update((i, j))
    return len(border) / X.shape[0]


def mst_fixture(kind, seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 61))
    d = int(rng.integers(1, 6))
    labels = rng.permutation(np.arange(n) % int(rng.integers(2, 4)))
    if kind == "grid":
        X = rng.integers(0, 3, (n, d)).astype(float)
    elif kind == "rounded":
        X = np.round(rng.standard_normal((n, d)), 1)
    else:
        # Every other point copies an earlier point of another class.
        X = rng.standard_normal((n, d))
        for i in range(1, n, 2):
            other = np.flatnonzero(labels[:i] != labels[i])
            if other.size:
                X[i] = X[rng.choice(other)]
    return X, labels


@pytest.mark.parametrize("kind", ["grid", "rounded", "coincident"])
def test_mst_and_n1_match_kruskal_reference(kind):
    for seed in range(70):
        X, labels = mst_fixture(kind, seed)
        assert _mst_edges(X) == sorted(kruskal_edges(X))
        assert n1(embed_2d(X, labels)) == reference_n1(X, labels)


def reference_prim_edges(X):
    """The Prim loop that _mst_edges replaced: every step compacts the
    outside points with boolean masks and gathers their rows of X."""
    v = 0
    rest = np.arange(1, X.shape[0])
    length = np.full(rest.size, np.inf)
    near = np.zeros(rest.size, dtype=np.intp)
    edges = []
    while rest.size:
        row = cdist(X[v:v + 1], X[rest])[0]
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


def prim_fixture(kind, seed):
    if kind in ("grid", "rounded", "coincident"):
        return mst_fixture(kind, seed)[0]
    rng = np.random.default_rng(seed)
    n = 2 if kind == "pair" else int(rng.integers(2, 61))
    X = np.round(rng.standard_normal((n, int(rng.integers(1, 6)))), 1)
    if kind == "same":
        X[:] = X[0]
    if kind == "scaled":
        X *= 1e150
    return X


@pytest.mark.parametrize("kind", ["grid", "rounded", "coincident", "same",
                                  "scaled", "pair"])
def test_mst_matches_compaction_reference(kind):
    for seed in range(70):
        X = prim_fixture(kind, seed)
        assert _mst_edges(X) == reference_prim_edges(X)


def test_mst_matches_compaction_reference_on_default_suite():
    # The six datasets of `benchmark` with its default flags; the trial
    # count only sets the oracle's precision, not the datasets.
    suite = gen_gaussian_suite(n_classes=10, dim=3, per_class=200,
                               separations=(8, 5, 3, 2, 1, 0.5), seed=42,
                               trials=10_000)
    for ds in suite.datasets:
        assert _mst_edges(ds.features) == reference_prim_edges(ds.features)


def test_mst_memory_is_linear():
    n = 4000
    rng = np.random.default_rng(0)
    emb = embed_2d(rng.standard_normal((n, 3)), np.arange(n) % 2)
    tracemalloc.start()
    try:
        n1(emb)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The working copy, per-point state and edge list: about 0.7 MB at
    # this size, against 8 MiB for one cdist block of the n2/n3 pass.
    assert peak < 384 * n


def reference_neighbor_distances(emb):
    """Nearest same-class and other-class distances from one full matrix."""
    D = squareform(pdist(emb.features))
    np.fill_diagonal(D, np.inf)
    same = emb.labels[:, None] == emb.labels[None, :]
    intra = np.where(same, D, np.inf).min(axis=1)
    extra = np.where(~same, D, np.inf).min(axis=1)
    return intra, extra


def reference_nearest(emb):
    """Nearest point per row of the full matrix; first index wins ties."""
    D = squareform(pdist(emb.features))
    np.fill_diagonal(D, np.inf)
    return np.argmin(D, axis=1)


def reference_n2(emb):
    intra, extra = reference_neighbor_distances(emb)
    valid = np.isfinite(intra)
    num = float(intra[valid].mean())
    den = float(extra[valid].mean())
    if den == 0.0:
        return (0.0 if num == 0.0 else float(np.inf)), int((~valid).sum())
    return num / den, int((~valid).sum())


def neighbour_fixture(kind, seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 61))
    d = int(rng.integers(1, 6))
    labels = rng.permutation(np.arange(n) % int(rng.integers(2, 4)))
    if kind == "singleton":
        # Up to three one-point classes beside classes of two or more.
        single = int(rng.integers(1, 4))
        base = int(rng.integers(1, (n - single) // 2 + 1))
        labels = rng.permutation(np.r_[np.arange(n - single) % base,
                                       base + np.arange(single)])
    if kind == "grid":
        X = rng.integers(0, 3, (n, d)).astype(float)
    else:
        X = np.round(rng.standard_normal((n, d)), 1)
    if kind == "coincident":
        # Every other point copies an earlier point of another class.
        for i in range(1, n, 2):
            other = np.flatnonzero(labels[:i] != labels[i])
            if other.size:
                X[i] = X[rng.choice(other)]
    if kind == "scaled":
        X *= 1e150
    return embed_2d(X, labels)


@pytest.mark.parametrize("block", [7, 97, 1 << 20])
@pytest.mark.parametrize("kind", ["grid", "coincident", "singleton", "scaled"])
def test_neighbours_match_full_matrix_reference(kind, block, monkeypatch):
    monkeypatch.setattr(descriptors, "_BLOCK", block)
    for seed in range(60):
        emb = neighbour_fixture(kind, seed)
        intra, extra, nearest = _neighbours(emb)
        ref_intra, ref_extra = reference_neighbor_distances(emb)
        assert np.array_equal(intra, ref_intra)
        assert np.array_equal(extra, ref_extra)
        assert np.array_equal(nearest, reference_nearest(emb))
        assert n2(emb) == reference_n2(emb)
        assert n3(emb) == float(np.mean(
            emb.labels[reference_nearest(emb)] != emb.labels))


@pytest.mark.parametrize("measure", [n2, n3])
def test_neighbour_pass_allocates_no_square_matrix(measure):
    n = 4000
    rng = np.random.default_rng(0)
    emb = embed_2d(rng.standard_normal((n, 3)), np.arange(n) % 2)
    tracemalloc.start()
    try:
        measure(emb)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * n * n


@pytest.mark.parametrize("kind", ["singleton", "coincident", "scaled"])
def test_compute_descriptors_runs_one_neighbour_pass(kind, monkeypatch):
    calls = []

    def counting(emb):
        calls.append(emb)
        return _neighbours(emb)

    monkeypatch.setattr(descriptors, "_neighbours", counting)
    for seed in range(10):
        emb = neighbour_fixture(kind, seed)
        calls.clear()
        rep = compute_descriptors(emb)
        assert len(calls) == 1
        assert (rep.n2, rep.n2_skipped) == n2(emb)
        assert rep.n3 == n3(emb)


class TestHugeFeatures:
    def test_overflowing_f1_refused(self):
        # Finite f1 at unit scale; its squares overflow at this one.
        rng = np.random.default_rng(0)
        X, labels = rng.standard_normal((60, 3)), np.arange(60) % 3
        assert f1(embed_2d(X, labels)) > 0.0
        emb = embed_2d(X * 3e153, labels)
        for measure in (f1, compute_descriptors):
            with pytest.raises(NumericError, match="too large"):
                measure(emb)

    @pytest.mark.parametrize("measure", [f1, f2, n1, n2, n3,
                                         compute_descriptors])
    def test_every_overflowing_measure_refused(self, measure):
        emb = embed_1d([-1e308, -1e308, 1e308, 1e308], [0, 1, 1, 0])
        with pytest.raises(NumericError, match="too large"):
            measure(emb)

    def test_far_groups_keep_n2_n3_but_refuse_n1(self):
        # Only distances between the two groups overflow. Every point has
        # both classes near it, so n2 and n3 stay exact, but the tree must
        # join the groups by an edge that overflows.
        far, ulp = 2.0 ** 531, 2.0 ** 479
        emb = embed_1d([0.0, 1.0, 2.0, 3.0] + [far + k * ulp for k in range(4)],
                       [0, 1, 0, 1, 0, 1, 0, 1])
        assert n2(emb) == reference_n2(emb)
        assert n3(emb) == 1.0
        with pytest.raises(NumericError, match="too large"):
            n1(emb)


class TestSampleRatio:
    def test_values(self):
        ds = make_blobs([(0.0, 0.0), (5.0, 5.0)], per_class=20)
        assert t2(embed(ds)) == 20.0
        emb = embed_1d([0.0, 1.0, 2.0, 3.0], [0, 0, 1, 1])
        assert t2(emb) == 4.0


class TestBundle:
    def test_compute_descriptors_fields(self):
        rep = compute_descriptors(LINE)
        assert rep == DescriptorReport(
            f1=f1(LINE), f2=f2(LINE), f3=f3(LINE), n1=n1(LINE),
            n2=n2(LINE)[0], n3=n3(LINE), t2=t2(LINE), n2_skipped=0,
        )

    @pytest.mark.parametrize("factor", [0.1, 10.0])
    def test_scale_invariance(self, factor):
        ds = make_blobs([(0.0, 0.0), (2.0, 1.0), (4.0, 0.0)], per_class=25,
                        seed=11)
        base = compute_descriptors(embed(ds))
        scaled_ds = LabeledDataset(features=ds.features * factor,
                                   labels=ds.labels,
                                   class_names=ds.class_names)
        scaled = compute_descriptors(embed(scaled_ds))
        for name in ("f1", "f2", "f3", "n1", "n2", "n3", "t2"):
            assert getattr(scaled, name) == pytest.approx(
                getattr(base, name), abs=1e-9)

    def test_validation_bounds(self):
        with pytest.raises(DataError, match="f2"):
            DescriptorReport(f1=1.0, f2=1.5, f3=0.0, n1=0.0, n2=0.0, n3=0.0,
                             t2=1.0)
        with pytest.raises(DataError, match="t2"):
            DescriptorReport(f1=1.0, f2=0.5, f3=0.0, n1=0.0, n2=0.0, n3=0.0,
                             t2=0.0)
        with pytest.raises(DataError, match="n2"):
            DescriptorReport(f1=1.0, f2=0.5, f3=0.0, n1=0.0, n2=-0.1, n3=0.0,
                             t2=1.0)
