import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectral_complexity import (ClassSimilarityMatrix, DataError, HyperParams,
                                 SimilarityDiagnostics, bray_curtis_symmetrize,
                                 build_laplacian, build_similarity_matrix,
                                 class_pair_expectation, cmsauls, knn_density,
                                 pair_rng, spectrum)
from spectral_complexity.similarity import _batch_density

from conftest import embed, make_blobs


class TestKnnDensity:
    def test_line_of_ten_targets(self):
        targets = np.arange(10.0).reshape(-1, 1)
        assert knn_density(np.array([4.5]), targets, k=3) == pytest.approx(0.1)

    def test_single_query_three_targets(self):
        val = knn_density(np.array([0.0]), np.array([[1.0], [2.0], [3.0]]), k=3)
        assert val == pytest.approx(1.0 / 6.0, abs=1e-15)

    def test_k_above_target_count(self):
        with pytest.raises(DataError, match="k=11"):
            knn_density(np.zeros(1), np.arange(10.0).reshape(-1, 1), k=11)

    def test_empty_targets(self):
        with pytest.raises(DataError, match="empty"):
            knn_density(np.zeros(1), np.zeros((0, 1)), k=1)

    def test_coincident_duplicates_floor(self):
        diag = SimilarityDiagnostics()
        targets = np.zeros((5, 2))
        val = knn_density(np.zeros(2), targets, k=3, diagnostics=diag)
        assert np.isfinite(val) and val > 0
        assert diag.degenerate_densities == 1

    def test_exclude_self_drops_one_zero_distance(self):
        targets = np.array([[0.0], [1.0], [2.0], [3.0]])
        # With the query's own copy removed, the 3rd neighbour is 3.0
        # and E stays 4: 3 / (4 * 6) = 0.125.
        val = knn_density(np.array([0.0]), targets, k=3, exclude_self=True)
        assert val == pytest.approx(3.0 / 24.0, abs=1e-15)
        # Without exclusion the zero distance counts: r_3 = 2.
        val2 = knn_density(np.array([0.0]), targets, k=3)
        assert val2 == pytest.approx(3.0 / 16.0, abs=1e-15)

    def test_exclusion_leaves_genuine_duplicates(self):
        targets = np.array([[0.0], [0.0], [5.0]])
        diag = SimilarityDiagnostics()
        knn_density(np.array([0.0]), targets, k=2, exclude_self=True,
                    diagnostics=diag)
        # One zero removed, one remains as a genuine neighbour.
        assert diag.degenerate_densities == 0

    def test_collapsed_and_vanished_volumes_are_clamped(self):
        # In d=40 the floored radius 1e-12 gives a volume (2e-12)**40 that
        # underflows to 0, and a radius of 1e10 one that overflows to inf.
        targets = np.zeros((5, 40))
        queries = np.vstack([np.zeros(40), np.full(40, 1e10)])
        density, degenerate = _batch_density(queries, targets, 3, True)
        assert density.tolist() == [np.finfo(np.float64).max, 0.0]
        assert degenerate == 1


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31 - 1),
       st.integers(min_value=1, max_value=4),
       st.integers(min_value=4, max_value=30),
       st.booleans())
def test_batch_matches_single_queries(seed, dim, n_targets, exclude):
    rng = np.random.default_rng(seed)
    queries = rng.standard_normal((6, dim))
    targets = rng.standard_normal((n_targets, dim))
    if exclude:
        queries[0] = targets[0]
    k = min(3, n_targets - 1)
    batch, _ = _batch_density(queries, targets, k, exclude)
    singles = np.array([
        knn_density(q, targets, k, exclude_self=exclude) for q in queries
    ])
    assert np.array_equal(batch, singles)


def reference_density(query, targets, k, exclude_self):
    """One query's k-NN density, written with plain Python floats."""
    dists = [max(abs(q - t) for q, t in zip(query, row)) for row in targets]
    if exclude_self and 0.0 in dists:
        del dists[dists.index(0.0)]
    radius = sorted(dists)[k - 1]
    span = max(max(col) - min(col) for col in zip(*targets))
    eps = 1e-12 * max(1.0, span)
    return k / (len(targets) * (2.0 * max(radius, eps)) ** len(query)), radius < eps


@pytest.mark.parametrize("dim", [1, 3, 8])
@pytest.mark.parametrize("exclude", [False, True])
@pytest.mark.parametrize("k", [1, 3])
def test_batch_density_matches_python_reference(dim, exclude, k):
    rng = np.random.default_rng(dim)
    targets = rng.standard_normal((12, dim))
    targets[[5, 9, 11]] = targets[2]
    # Fresh points, plus queries on a single and on a fourfold target.
    queries = np.vstack([rng.standard_normal((6, dim)), targets[[0, 2, 7]]])
    density, degenerate = _batch_density(queries, targets, k, exclude)
    ref = [reference_density(q, targets.tolist(), k, exclude)
           for q in queries.tolist()]
    # pow() may differ from numpy's power kernel in the last bit.
    np.testing.assert_allclose(density, [d for d, _ in ref], rtol=1e-13, atol=0)
    assert degenerate == sum(flag for _, flag in ref)
    assert degenerate > 0


class TestClassPairExpectation:
    def test_single_source_point(self):
        feats = np.array([[0.0], [1.0], [2.0], [3.0]])
        labels = np.array([0, 1, 1, 1])
        emb = embed_from(feats, labels)
        params = HyperParams(M=5, E=3, k=3, seed=0)
        val = class_pair_expectation(0, 1, emb, params, pair_rng(0, 0, 1))
        assert val == pytest.approx(1.0 / 6.0, abs=1e-15)

    def test_far_target_class_vanishes(self):
        ds = make_blobs([(0.0, 0.0), (1000.0, 1000.0)], per_class=120,
                        scale=0.01)
        emb = embed(ds)
        params = HyperParams(M=50, E=50, k=3, seed=1)
        val = class_pair_expectation(0, 1, emb, params, pair_rng(1, 0, 1))
        assert val < 1e-6

    def test_identical_sample_sets_match_self_pair(self):
        rng = np.random.default_rng(8)
        pts = rng.standard_normal((200, 2))
        from spectral_complexity import LabeledDataset
        dup = LabeledDataset(features=np.vstack([pts, pts]),
                             labels=np.repeat([0, 1], 200))
        emb = embed(dup)
        params = HyperParams(M=200, E=200, k=3, seed=5)
        cross = class_pair_expectation(0, 1, emb, params, pair_rng(5, 0, 1))
        self_pair = class_pair_expectation(0, 0, emb, params, pair_rng(5, 0, 0))
        assert cross == pytest.approx(self_pair, rel=0.2)

    def test_replacement_recorded_for_small_class(self):
        feats = np.array([[0.0], [1.0], [2.0], [3.0]])
        labels = np.array([0, 1, 1, 1])
        emb = embed_from(feats, labels)
        params = HyperParams(M=5, E=3, k=2, seed=0)
        diag = SimilarityDiagnostics()
        class_pair_expectation(0, 1, emb, params, pair_rng(0, 0, 1), diag)
        assert (0, 1) in diag.replacement_pairs

    def test_monte_carlo_convergence(self):
        ds = make_blobs([(0.0, 0.0), (1.5, 0.0)], per_class=500, scale=1.0,
                        seed=3)
        spreads = {}
        for M in (50, 400):
            values = []
            for seed in range(20):
                params = HyperParams(M=M, E=100, k=3, seed=seed)
                emb = embed(ds, params)
                values.append(class_pair_expectation(0, 1, emb, params,
                                                     pair_rng(seed, 0, 1)))
            spreads[M] = np.std(values)
        assert spreads[400] < spreads[50]


def embed_from(feats, labels):
    from spectral_complexity import LabeledDataset
    return embed(LabeledDataset(features=feats, labels=labels))


class TestBuildSimilarityMatrix:
    def test_separated_blobs_rows(self):
        ds = make_blobs([(0.0, 0.0), (1000.0, 1000.0)], per_class=150,
                        scale=0.01, seed=2)
        emb = embed(ds)
        params = HyperParams(M=100, E=100, k=3, seed=9)
        raw = build_similarity_matrix(emb, params, row_normalize=False)
        assert raw.values[0, 1] < 1e-6
        assert raw.values[1, 0] < 1e-6
        X = build_similarity_matrix(emb, params)
        assert np.allclose(X.values, np.eye(2), atol=1e-4)
        assert np.allclose(X.values.sum(axis=1), 1.0, atol=1e-9)

    def test_duplicated_class_rows_uniform(self):
        rng = np.random.default_rng(0)
        pts = rng.standard_normal((200, 2))
        from spectral_complexity import LabeledDataset
        dup = LabeledDataset(features=np.vstack([pts, pts]),
                             labels=np.repeat([0, 1], 200))
        params = HyperParams(M=200, E=200, k=3, seed=11)
        X = build_similarity_matrix(embed(dup), params)
        assert np.abs(X.values - 0.5).max() < 0.1

    def test_same_seed_bit_identical(self):
        ds = make_blobs([(0.0, 0.0), (2.0, 0.0), (0.0, 2.0)], per_class=60)
        params = HyperParams(M=40, E=40, k=3, seed=21)
        emb = embed(ds)
        a = build_similarity_matrix(emb, params)
        b = build_similarity_matrix(emb, params)
        assert np.array_equal(a.values, b.values)

    def test_thread_schedule_independent(self):
        ds = make_blobs([(0.0, 0.0), (2.0, 0.0), (0.0, 2.0)], per_class=60)
        params = HyperParams(M=40, E=40, k=3, seed=21)
        emb = embed(ds)
        a = build_similarity_matrix(emb, params, threads=1)
        b = build_similarity_matrix(emb, params, threads=8)
        assert np.array_equal(a.values, b.values)

    def test_permutation_equivariance_exact(self):
        from spectral_complexity import LabeledDataset
        ds = make_blobs([(0.0, 0.0), (2.0, 0.0), (0.0, 2.0), (2.0, 2.0)],
                        per_class=50, seed=15)
        params = HyperParams(M=30, E=30, k=3, seed=33)
        emb = embed(ds)
        raw = build_similarity_matrix(emb, params, row_normalize=False)

        perm = np.array([2, 0, 3, 1])  # old class c becomes perm[c]
        inverse = np.argsort(perm)
        relabeled = LabeledDataset(
            features=ds.features,
            labels=perm[ds.labels],
            class_names=tuple(ds.class_names[inverse[j]] for j in range(4)),
        )
        emb_p = embed(relabeled)
        n = 4
        permuted = np.zeros((n, n))
        for i in range(n):
            for j in range(n):
                stream = pair_rng(params.seed, int(inverse[i]), int(inverse[j]))
                permuted[i, j] = class_pair_expectation(i, j, emb_p, params,
                                                        stream)
        assert np.array_equal(permuted, raw.values[np.ix_(inverse, inverse)])

        # Downstream spectra agree far inside 1e-9.
        def spectrum_of(values):
            M = ClassSimilarityMatrix(values=values, params=params,
                                      row_normalized=False,
                                      includes_diagonal=True,
                                      diagnostics=SimilarityDiagnostics())
            W = bray_curtis_symmetrize(M)
            return spectrum(build_laplacian(W)).eigenvalues

        assert np.abs(spectrum_of(raw.values)
                      - spectrum_of(permuted)).max() < 1e-9

    def test_density_estimator_consistency(self):
        # 1-D standard Gaussian: expected density under the model is
        # 1/(2 sqrt(pi)).
        rng = np.random.default_rng(77)
        targets = rng.standard_normal((2000, 1))
        queries = rng.standard_normal(100)
        mean = np.mean([knn_density(np.array([q]), targets, k=50)
                        for q in queries])
        truth = 1.0 / (2.0 * np.sqrt(np.pi))
        assert abs(mean - truth) / truth < 0.25

    def test_zero_rows_flagged_and_left_zero(self):
        # Volume overflow drives the cross density to exactly 0; with the
        # diagonal suppressed every row is all-zero.
        ds = make_blobs([(0.0, 0.0), (1e200, 1e200)], per_class=100,
                        scale=0.5, seed=6)
        params = HyperParams(M=50, E=50, k=3, seed=6)
        X = build_similarity_matrix(embed(ds), params,
                                    include_diagonal=False)
        assert np.array_equal(X.values, np.zeros((2, 2)))
        assert X.diagnostics.zero_mass_rows == [0, 1]
        assert not X.includes_diagonal

    def test_no_diagonal_leaves_self_cells_zero(self):
        ds = make_blobs([(0.0, 0.0), (3.0, 0.0), (0.0, 3.0)], per_class=80,
                        seed=13)
        params = HyperParams(M=40, E=40, k=3, seed=13)
        X = build_similarity_matrix(embed(ds), params, row_normalize=False,
                                    include_diagonal=False)
        assert np.array_equal(np.diag(X.values), np.zeros(3))
        assert X.values[0, 1] > 0.0


class TestBrayCurtis:
    def wrap(self, values):
        return ClassSimilarityMatrix(values=np.asarray(values, dtype=float),
                                     params=HyperParams(),
                                     row_normalized=False,
                                     includes_diagonal=True,
                                     diagnostics=SimilarityDiagnostics())

    def test_disjoint_columns(self):
        W = bray_curtis_symmetrize(self.wrap([[1.0, 0.0], [0.0, 1.0]]))
        assert W.values[0, 1] == 0.0

    def test_identical_columns(self):
        W = bray_curtis_symmetrize(self.wrap([[0.3, 0.3], [0.7, 0.7]]))
        assert W.values[0, 1] == 1.0

    def test_hand_ratio(self):
        # Columns (2, 1) and (1, 1): 1 - 1/5.
        W = bray_curtis_symmetrize(self.wrap([[2.0, 1.0], [1.0, 1.0]]))
        assert W.values[0, 1] == pytest.approx(0.8, abs=1e-15)

    def test_zero_denominator_diagnostic(self):
        X = self.wrap([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0], [0.0, 0.0, 1.0]])
        W = bray_curtis_symmetrize(X)
        assert W.values[0, 1] == 1.0
        assert (0, 1) in X.diagnostics.zero_denominator_pairs

    def test_diagonal_exactly_one_and_symmetric(self):
        rng = np.random.default_rng(4)
        X = self.wrap(rng.uniform(size=(6, 6)))
        W = bray_curtis_symmetrize(X)
        assert np.all(np.diag(W.values) == 1.0)
        assert np.array_equal(W.values, W.values.T)
        assert W.values.min() >= 0.0
        assert W.values.max() <= 1.0


    @pytest.mark.parametrize("n", [2, 9, 80])
    def test_matches_double_loop_reference(self, n):
        rng = np.random.default_rng(n)
        values = rng.uniform(size=(n, n)) * rng.exponential(size=(n, 1))
        values[:, sorted({0, n // 2, n - 1})] = 0.0
        X = self.wrap(values)
        W = bray_curtis_symmetrize(X)
        ref = np.ones((n, n))
        zero_pairs = []
        for i in range(n):
            for j in range(i + 1, n):
                num = float(np.abs(values[:, i] - values[:, j]).sum())
                den = float((values[:, i] + values[:, j]).sum())
                if den == 0.0:
                    zero_pairs.append((i, j))
                    w = 1.0
                else:
                    w = min(1.0, max(0.0, 1.0 - num / den))
                ref[i, j] = ref[j, i] = w
        assert np.array_equal(W.values, ref)
        assert X.diagnostics.zero_denominator_pairs == zero_pairs
        assert zero_pairs


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31 - 1),
       st.integers(min_value=2, max_value=7))
def test_affinity_bounds_property(seed, n):
    rng = np.random.default_rng(seed)
    X = ClassSimilarityMatrix(values=rng.uniform(size=(n, n)),
                              params=HyperParams(),
                              row_normalized=False, includes_diagonal=True,
                              diagnostics=SimilarityDiagnostics())
    W = bray_curtis_symmetrize(X)
    assert np.array_equal(W.values, W.values.T)
    assert W.values.min() >= 0.0 and W.values.max() <= 1.0
    assert np.all(np.diag(W.values) == 1.0)
    # cmsauls is defined for every valid affinity this produces
    s = spectrum(build_laplacian(W))
    assert cmsauls(s) >= 0.0
