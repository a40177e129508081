import numpy as np
import pytest
from scipy.spatial.distance import pdist

from spectral_complexity import (DataError, DescriptorReport, LabeledDataset,
                                 compute_descriptors, f1, f2, f3, n1, n2, n3,
                                 t2)
from spectral_complexity.descriptors import _mst_edges

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
