import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectral_complexity import (ClassSimilarityMatrix, DataError, HyperParams,
                                 NumericError, SimilarityDiagnostics,
                                 SymmetricAffinity, bray_curtis_symmetrize,
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

    def test_infinite_density_is_refused(self):
        # Three targets about 8.9e-9 away at d=40: the volume (1.8e-8)**40
        # is tiny but nonzero, so 3 / (3 * volume) passes float64. The
        # stage refuses this geometry with the same --reduce hint.
        targets = np.zeros((3, 40))
        targets[:, 0] = [8.9e-9, -8.9e-9, 8.9e-9]
        targets[1, 1] = 8.9e-9
        diag = SimilarityDiagnostics()
        with pytest.raises(NumericError, match=r"^kNN density overflows "
                           r"float64; try --reduce pca:<d>$"):
            knn_density(np.zeros(40), targets, k=3, diagnostics=diag)
        assert diag.degenerate_densities == 0


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

    def test_starts_no_thread(self, monkeypatch):
        import threading

        def refuse(thread):
            raise AssertionError("the similarity stage started a thread")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        ds = make_blobs([(0.0, 0.0), (2.0, 0.0), (0.0, 2.0)], per_class=20)
        params = HyperParams(M=10, E=10, k=3, seed=21)
        emb = embed(ds)
        X = build_similarity_matrix(emb, params, threads=10 ** 6)
        assert np.array_equal(
            X.values, build_similarity_matrix(emb, params, threads=1).values)

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


def tight_and_spread(coincident=1):
    """In d=40, `coincident` classes of 10 all-zero rows, then 30 N(0, I)
    rows. A zero-row query floors its radius to 1e-12, the volume
    (2e-12)**40 underflows, and the density is clamped to float64's max."""
    from spectral_complexity import LabeledDataset
    rng = np.random.default_rng(0)
    feats = np.vstack([np.zeros((10 * coincident, 40)),
                       rng.standard_normal((30, 40))])
    labels = np.repeat(np.arange(coincident + 1), [10] * coincident + [30])
    return LabeledDataset(features=feats, labels=labels)


class TestDensityOverflow:
    @pytest.mark.parametrize("row_normalize", [True, False])
    def test_pair_mean_overflow_is_numeric_error(self, row_normalize):
        from spectral_complexity import NumericError
        emb = tight_and_spread()
        params = HyperParams(M=20, E=25, k=3, seed=0)
        message = (r"^similarity of class pair \(0, 0\) overflows float64; "
                   r"try --reduce pca:<d>$")
        with pytest.raises(NumericError, match=message):
            build_similarity_matrix(emb, params, row_normalize=row_normalize)
        with pytest.raises(NumericError, match=message):
            class_pair_expectation(0, 0, emb, params, pair_rng(0, 0, 0))

    def test_row_sum_overflow_is_numeric_error(self):
        # One query per pair: (0, 0) and (0, 1) each average a single
        # clamped density, finite alone, past float64's range together.
        from spectral_complexity import NumericError
        emb = tight_and_spread(coincident=2)
        params = HyperParams(M=1, E=25, k=3, seed=0)
        X = build_similarity_matrix(emb, params, row_normalize=False)
        assert X.values[0, 0] == X.values[0, 1] == np.finfo(np.float64).max
        with pytest.raises(NumericError,
                           match=r"^similarity row of class 0 sums past"):
            build_similarity_matrix(emb, params)

    def test_bray_curtis_column_sum_overflow_is_numeric_error(self):
        # Classes of ten all-zero and ten all-one rows each put one
        # clamped density into their own column; columns 0 and 1 hold
        # one apiece, finite alone, past float64's range summed.
        from spectral_complexity import LabeledDataset, NumericError
        rng = np.random.default_rng(0)
        feats = np.vstack([np.zeros((10, 40)), np.ones((10, 40)),
                           rng.standard_normal((30, 40))])
        emb = LabeledDataset(features=feats,
                             labels=np.repeat([0, 1, 2], [10, 10, 30]))
        params = HyperParams(M=1, E=25, k=3, seed=0)
        X = build_similarity_matrix(emb, params, row_normalize=False)
        assert X.values[0, 0] == X.values[1, 1] == np.finfo(np.float64).max
        with pytest.raises(NumericError,
                           match=r"^Bray-Curtis sums of class pair \(0, 1\) "
                                 r"overflow float64; try --reduce pca:<d>$"):
            bray_curtis_symmetrize(X)


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

    def test_repeated_call_records_pairs_once(self):
        X = self.wrap([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0], [0.0, 0.0, 1.0]])
        first = bray_curtis_symmetrize(X)
        second = bray_curtis_symmetrize(X)
        assert np.array_equal(first.values, second.values)
        assert X.diagnostics.zero_denominator_pairs == [(0, 1)]

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


@pytest.mark.parametrize("dim", [1, 3, 8, 40])
@pytest.mark.parametrize("exclude", [False, True])
def test_stacked_batch_equals_per_block_calls(dim, exclude):
    rng = np.random.default_rng(30 + dim)
    queries = rng.standard_normal((5, 7, dim))
    targets = rng.standard_normal((5, 9, dim))
    queries[1, :3] = targets[1, 4]  # coincident points in one block only
    # A collapsed block: radii floored, and in d=40 volumes clamped.
    queries[3, :2] = targets[3] = 0.0
    density, degenerate = _batch_density(queries, targets, 3, exclude)
    blocks = [_batch_density(q, t, 3, exclude) for q, t in zip(queries, targets)]
    assert density.shape == (5, 7)
    assert np.array_equal(density, np.stack([d for d, _ in blocks]))
    assert degenerate == sum(n for _, n in blocks) > 0


# The per-pair stage that build_similarity_matrix batched: one (m, e, d)
# broadcast and one density call per class pair, in pair order.
def reference_block_density(queries, targets, k, exclude_self):
    n_targets, dim = targets.shape
    dist = np.max(np.abs(queries[:, None, :] - targets[None, :, :]), axis=2)
    usable = np.full(queries.shape[0], n_targets)
    if exclude_self:
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
    eps = 1e-12 * max(1.0, span)
    degenerate = radius < eps
    radius = np.where(degenerate, eps, radius)
    with np.errstate(over="ignore"):
        denom = n_targets * (2.0 * radius) ** dim
    with np.errstate(divide="ignore"):
        density = k / denom
    overflow = denom == 0.0
    density[overflow] = np.finfo(np.float64).max
    return density, int((degenerate | overflow).sum())


def reference_similarity(emb, params, row_normalize=True,
                         include_diagonal=True):
    from spectral_complexity import class_partition
    n = emb.n_classes
    rows = class_partition(emb)
    diagnostics = SimilarityDiagnostics()
    raw = np.zeros((n, n), dtype=np.float64)
    for i in range(n):
        for j in range(n):
            if i == j and not include_diagonal:
                continue
            rng = pair_rng(params.seed, i, j)
            m = min(params.M, rows[i].size)
            e = min(params.E, rows[j].size)
            queries = emb.features[rng.choice(rows[i], size=m, replace=False)]
            targets = emb.features[rng.choice(rows[j], size=e, replace=False)]
            density, degenerate = reference_block_density(queries, targets,
                                                          params.k, True)
            raw[i, j] = float(np.sum(density) / m)
            diagnostics.degenerate_densities += degenerate
            if m < params.M or e < params.E:
                diagnostics.replacement_pairs.append((i, j))
    if row_normalize:
        sums = raw.sum(axis=1)
        diagnostics.zero_mass_rows.extend(
            int(r) for r in np.flatnonzero(sums == 0.0))
        raw = raw / np.where(sums == 0.0, 1.0, sums)[:, None]
    return raw, diagnostics


def mixed_classes(dim, seed=0):
    """Classes of unequal size, some below M=20 or E=25, points shared
    across classes, and a class of coincident points twice over, whose
    radii are floored. In d=40 a wide last class overflows every volume
    that reaches it, so its row of densities is 0."""
    from spectral_complexity import LabeledDataset
    rng = np.random.default_rng([seed, dim])
    sizes = [4, 50, 12, 30, 6, 40]
    blocks = [rng.normal(2.0 * c, 1.0, (s, dim)) for c, s in enumerate(sizes)]
    blocks[3][:5] = blocks[1][:5]
    # One far point widens the span, so the floor keeps volumes above 0.
    collapsed = np.zeros((10, dim))
    collapsed[-1] = 1e5
    blocks += [collapsed, collapsed]
    if dim == 40:
        blocks.append(rng.normal(0.0, 1e9, (30, dim)))
    labels = np.repeat(np.arange(len(blocks)), [b.shape[0] for b in blocks])
    return LabeledDataset(features=np.vstack(blocks), labels=labels)


class TestBatchedAgainstPerPairLoop:
    @pytest.mark.parametrize("dim", [1, 3, 8, 40])
    @pytest.mark.parametrize("block", [1, 7, None])
    @pytest.mark.parametrize("row_normalize, include_diagonal, threads",
                             [(True, True, 1), (False, False, 2)])
    def test_bit_identical(self, monkeypatch, dim, block, row_normalize,
                           include_diagonal, threads):
        from spectral_complexity import similarity
        if block is not None:
            monkeypatch.setattr(similarity, "_BLOCK", block)
        emb = mixed_classes(dim)
        params = HyperParams(M=20, E=25, k=3, seed=dim)
        X = build_similarity_matrix(emb, params, row_normalize=row_normalize,
                                    include_diagonal=include_diagonal,
                                    threads=threads)
        raw, diag = reference_similarity(emb, params, row_normalize,
                                         include_diagonal)
        assert np.array_equal(X.values, raw)
        assert (X.diagnostics.degenerate_densities
                == diag.degenerate_densities > 0)
        assert X.diagnostics.replacement_pairs == diag.replacement_pairs
        assert X.diagnostics.zero_mass_rows == diag.zero_mass_rows
        if dim == 40:
            assert np.array_equal(raw[-1], np.zeros(raw.shape[0]))

    def test_rows_longer_than_one_summation_block(self):
        # m=200 queries exceed numpy's 128-element pairwise-sum block.
        ds = make_blobs([(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0)],
                        per_class=260, seed=4)
        params = HyperParams(M=200, E=200, k=3, seed=4)
        X = build_similarity_matrix(ds, params)
        raw, _ = reference_similarity(ds, params)
        assert np.array_equal(X.values, raw)

    @pytest.mark.parametrize("block", [1, None])
    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("sizes, include_diagonal, shared", [
        # (0, 0) fails with 2 usable targets, then (0, 2) with 1.
        ([5, 2, 1], True, False),
        # (0, 1) and (0, 2) share one chunk; (0, 2) fails with 1 usable
        # target because its class repeats a point of class 0.
        ([3, 2, 2], False, True),
    ])
    def test_error_names_first_failing_pair(self, monkeypatch, block,
                                            threads, sizes,
                                            include_diagonal, shared):
        from spectral_complexity import LabeledDataset, similarity
        if block is not None:
            monkeypatch.setattr(similarity, "_BLOCK", block)
        feats = np.arange(float(sum(sizes)))[:, None]
        if shared:
            feats[-1] = feats[0]
        ds = LabeledDataset(features=feats,
                            labels=np.repeat(np.arange(3), sizes))
        params = HyperParams(M=3, E=3, k=3, seed=0)
        with pytest.raises(DataError) as ref:
            reference_similarity(ds, params,
                                 include_diagonal=include_diagonal)
        with pytest.raises(DataError) as got:
            build_similarity_matrix(ds, params, threads=threads,
                                    include_diagonal=include_diagonal)
        assert str(got.value) == str(ref.value)
        assert str(ref.value) == "k=3 exceeds usable target count 2"


# The similarity stage as it stood before one routine drew and scored
# every pair: a per-pair draw helper, a shape closure that both lists the
# pairs of a class used whole and batches the pairs, one batch-mean
# helper, and a Bray-Curtis loop that checks its own sums. The stage
# must match it with ==.
def _parent_draw(src_idx, tgt_idx, params, rng):
    m = min(params.M, src_idx.size)
    e = min(params.E, tgt_idx.size)
    return (rng.choice(src_idx, size=m, replace=False),
            rng.choice(tgt_idx, size=e, replace=False))


def _parent_pair_means(emb, k, pairs, draws):
    from spectral_complexity import NumericError
    queries = np.stack([q for q, _ in draws])
    targets = np.stack([t for _, t in draws])
    density, degenerate = _batch_density(emb.features[queries],
                                         emb.features[targets], k,
                                         exclude_self=True)
    with np.errstate(over="ignore"):
        means = density.sum(axis=1) / queries.shape[1]
    bad = np.flatnonzero(np.isinf(means))
    if bad.size:
        raise NumericError(f"similarity of class pair {pairs[bad[0]]} "
                           "overflows float64; try --reduce pca:<d>")
    return means, degenerate


def _parent_similarity(emb, params, row_normalize=True,
                       include_diagonal=True):
    from itertools import groupby
    from spectral_complexity import class_partition
    from spectral_complexity.similarity import _BLOCK
    n = emb.n_classes
    pairs = [(i, j) for i in range(n) for j in range(n)
             if include_diagonal or i != j]
    rows = class_partition(emb)

    def shape(pair):
        i, j = pair
        return min(params.M, rows[i].size), min(params.E, rows[j].size)

    diagnostics = SimilarityDiagnostics(replacement_pairs=[
        p for p in pairs if shape(p) != (params.M, params.E)])
    raw = np.zeros((n, n), dtype=np.float64)
    for (m, e), run in groupby(pairs, key=shape):
        run = list(run)
        size = max(1, _BLOCK // max(m * e, (m + e) * emb.n_features))
        for s in range(0, len(run), size):
            chunk = run[s:s + size]
            draws = [_parent_draw(rows[i], rows[j], params,
                                  pair_rng(params.seed, i, j))
                     for i, j in chunk]
            values, degenerate = _parent_pair_means(emb, params.k, chunk,
                                                    draws)
            raw[tuple(zip(*chunk))] = values
            diagnostics.degenerate_densities += degenerate
    if row_normalize:
        sums = raw.sum(axis=1)
        zero_rows = np.flatnonzero(sums == 0.0)
        diagnostics.zero_mass_rows.extend(int(r) for r in zero_rows)
        raw = raw / np.where(sums == 0.0, 1.0, sums)[:, None]
    return raw, diagnostics


def _parent_bray_curtis(values):
    cols = np.ascontiguousarray(values.T)
    n = cols.shape[0]
    W = np.ones((n, n), dtype=np.float64)
    zero_pairs = []
    for i in range(n - 1):
        num = np.abs(cols[i + 1:] - cols[i]).sum(axis=1)
        den = (cols[i + 1:] + cols[i]).sum(axis=1)
        zero = den == 0.0
        zero_pairs.extend((i, i + 1 + int(j)) for j in np.flatnonzero(zero))
        w = np.clip(1.0 - num / np.where(zero, 1.0, den), 0.0, 1.0)
        w[zero] = 1.0
        W[i, i + 1:] = W[i + 1:, i] = w
    return W, zero_pairs


def far_pairs():
    """Mixed class sizes in d=40, with two wide classes: every density at
    or of a wide class is 0, so with the diagonal skipped their rows and
    columns are all zero."""
    from spectral_complexity import LabeledDataset
    ds = mixed_classes(40)
    wide = np.random.default_rng(3).normal(0.0, 1e9, (30, 40))
    return LabeledDataset(features=np.vstack([ds.features, wide]),
                          labels=np.append(ds.labels, [ds.n_classes] * 30))


@pytest.mark.parametrize("make, params, row_normalize, include_diagonal", [
    # Every class at least M and E rows: one run, nothing recorded.
    (lambda: make_blobs([(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 2.0, 1.0),
                         (3.0, 3.0, 3.0)], per_class=50, seed=12),
     HyperParams(M=30, E=40, k=3, seed=12), True, True),
    # Mixed sizes: many runs of different draw shapes.
    (lambda: mixed_classes(8), HyperParams(M=20, E=25, k=3, seed=8),
     True, True),
    (far_pairs, HyperParams(M=20, E=25, k=3, seed=40), True, False),
    (lambda: mixed_classes(3), HyperParams(M=20, E=25, k=3, seed=3),
     False, True),
], ids=["full-classes", "mixed-sizes", "no-diagonal", "raw"])
def test_stage_equals_per_pair_draw_reference(make, params, row_normalize,
                                              include_diagonal):
    from spectral_complexity import class_partition
    emb = make()
    X = build_similarity_matrix(emb, params, row_normalize=row_normalize,
                                include_diagonal=include_diagonal)
    W = bray_curtis_symmetrize(X)
    raw, diag = _parent_similarity(emb, params, row_normalize,
                                   include_diagonal)
    ref_W, zero_pairs = _parent_bray_curtis(raw)
    assert np.array_equal(X.values, raw)
    assert np.array_equal(W.values, ref_W)
    assert X.diagnostics.degenerate_densities == diag.degenerate_densities
    assert X.diagnostics.replacement_pairs == diag.replacement_pairs
    assert X.diagnostics.zero_mass_rows == diag.zero_mass_rows
    assert X.diagnostics.zero_denominator_pairs == zero_pairs
    full = all(r.size >= max(params.M, params.E)
               for r in class_partition(emb))
    assert bool(diag.replacement_pairs) != full


@pytest.mark.parametrize("pair", [(0, 1), (1, 0), (0, 0), (1, 4)])
def test_pair_expectation_equals_per_pair_draw_reference(pair):
    # Each pair draws a class whole: classes 0 and 4 hold 4 and 6 rows.
    from spectral_complexity import class_partition
    emb = mixed_classes(3)
    params = HyperParams(M=20, E=25, k=3, seed=5)
    diag = SimilarityDiagnostics(degenerate_densities=2,
                                 replacement_pairs=[(9, 9)])
    got = class_pair_expectation(*pair, emb, params, pair_rng(5, *pair), diag)
    rows = class_partition(emb)
    draw = _parent_draw(rows[pair[0]], rows[pair[1]], params,
                        pair_rng(5, *pair))
    values, degenerate = _parent_pair_means(emb, params.k, [pair], [draw])
    assert got == float(values[0])
    assert diag.degenerate_densities == 2 + degenerate
    assert diag.replacement_pairs == [(9, 9), pair]


# Zeros of both signs, subnormals and 1e-300 to 1e300; in about half the
# examples also entries near the top of the float64 range, whose column
# sums can overflow.
_BC_ENTRIES = [st.sampled_from([0.0, -0.0]),
               st.floats(5e-324, 2.2250738585072014e-308),
               st.floats(1e-300, 1e300)]
_BC_NEAR_MAX = st.floats(1e307, np.finfo(np.float64).max)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_bray_curtis_equals_parent_loop(data):
    n = data.draw(st.integers(2, 7))
    entries = _BC_ENTRIES + [_BC_NEAR_MAX] * data.draw(st.booleans())
    values = np.reshape(data.draw(st.lists(st.one_of(entries), min_size=n * n,
                                           max_size=n * n)), (n, n))
    values[:, data.draw(st.lists(st.integers(0, n - 1), max_size=n))] = 0.0
    X = TestBrayCurtis().wrap(values)
    cols = np.ascontiguousarray(values.T)
    with np.errstate(over="ignore"):
        overflow = any(np.isinf((cols[i + 1:] + cols[i]).sum(axis=1)).any()
                       for i in range(n - 1))
    if overflow:
        # The parent loop has no refusal: it would return W = 1 there.
        with pytest.raises(NumericError, match=r"overflow float64; "
                           r"try --reduce pca:<d>$"):
            bray_curtis_symmetrize(X)
        return
    W, zero_pairs = _parent_bray_curtis(values)
    assert np.array_equal(bray_curtis_symmetrize(X).values, W)
    assert X.diagnostics.zero_denominator_pairs == zero_pairs


@pytest.mark.parametrize("classes, rows, dim, M, E", [
    # 6400 pairs: one chunk holding them all would need 78 MiB for its
    # distances alone.
    (80, 40, 8, 40, 40),
    # Tiny blocks of 512-column rows: here the gathered rows, not the
    # distances, would fill a chunk sized by distance entries alone.
    (30, 4, 512, 2, 3),
    # Classes far larger than their draws, the embed-bin shape: every
    # lane runs Floyd's loop, with its (t, lanes) comparisons.
    (20, 2500, 12, 100, 100),
])
def test_stage_memory_stays_within_a_few_blocks(classes, rows, dim, M, E):
    import tracemalloc
    from spectral_complexity import LabeledDataset
    from spectral_complexity.similarity import _BLOCK
    rng = np.random.default_rng(1)
    ds = LabeledDataset(features=rng.standard_normal((classes * rows, dim)),
                        labels=np.repeat(np.arange(classes), rows))
    params = HyperParams(M=M, E=E, k=2, seed=1)
    tracemalloc.start()
    try:
        build_similarity_matrix(ds, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * _BLOCK * 8 == 4 * 2 ** 20


def test_oracle_memory_stays_within_a_few_rows():
    # The default benchmark shape: 10 classes, d=3, 100 000 trials. The
    # samples and the solve each take a (3, trials) float64 array, 2.3
    # MiB, and the labels and the running argmax three trial rows, 0.8
    # MiB each: about 7.1 MiB. A (trials, 10) score matrix would add 7.6
    # MiB, and argmax's transposed copy of it as much again (21.4 MiB in
    # all when the oracle held both).
    import tracemalloc
    from spectral_complexity import bayes_error_oracle
    from spectral_complexity.analysis import _simplex_vertices
    means = _simplex_vertices(10, 3)
    covs = np.broadcast_to(np.eye(3), (10, 3, 3))
    tracemalloc.start()
    try:
        bayes_error_oracle(means, covs, np.full(10, 0.1), 100_000, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2 ** 20


# The stage draws many pairs at once, by modelling numpy's SeedSequence,
# PCG64 and Generator.choice(replace=False). Each case checks those draws
# against the installed numpy, so a numpy release that changes its stream
# (NEP 19 allows it) fails here rather than drifting silently.
def _numpy_draws(seed, rows, pairs, m, e):
    draws = [(rng.choice(rows[i], size=m, replace=False),
              rng.choice(rows[j], size=e, replace=False))
             for (i, j), rng in ((p, pair_rng(seed, *p)) for p in pairs)]
    return tuple(np.array(side) for side in zip(*draws))


def _class_rows(sizes, seed=0):
    """Row indices of classes of these sizes, the labels shuffled so
    that no class holds a contiguous block of rows."""
    labels = np.random.default_rng(seed).permutation(
        np.repeat(np.arange(len(sizes)), sizes))
    return [np.flatnonzero(labels == c) for c in range(len(sizes))]


@pytest.mark.parametrize("seed", [0, 2 ** 32, 2 ** 64 - 1])
def test_pcg_words_equal_numpy_stream(seed):
    from spectral_complexity.similarity import _pcg_words
    src, tgt = np.array([0, 3, 79, 1]), np.array([0, 5, 2, 79])
    words = _pcg_words(seed, src, tgt, 101)
    assert np.array_equal(words[:2], np.zeros((2, 4)))
    for lane, pair in enumerate(zip(src.tolist(), tgt.tolist())):
        raw = pair_rng(seed, *pair).bit_generator.random_raw(51)
        want = np.stack([raw & 0xFFFFFFFF, raw >> 32], axis=1).ravel()[:101]
        assert np.array_equal(words[2:, lane], want)


def _vectorized_and_numpy_draws(seed, sizes, M, E, include_diagonal):
    """(_draw with the vectorized path forced, numpy's draws) for each run
    of same-shape pairs, grouped as build_similarity_matrix groups them."""
    from itertools import groupby
    from spectral_complexity import similarity
    rows = _class_rows(sizes)
    n = len(sizes)
    pairs = [(i, j) for i in range(n) for j in range(n)
             if include_diagonal or i != j]
    draws = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(similarity, "_MIN_LANES", -10 ** 6)
        for (m, e), run in groupby(pairs, key=lambda p: (
                min(M, sizes[p[0]]), min(E, sizes[p[1]]))):
            run = list(run)
            draws.append((similarity._draw(seed, rows, run, m, e),
                          _numpy_draws(seed, rows, run, m, e)))
    return draws


@pytest.mark.parametrize("seed", [0, 2 ** 32, 2 ** 64 - 1])
@pytest.mark.parametrize("sizes, M, E, include_diagonal", [
    ([40] * 6, 40, 40, True),
    ([4, 50, 12, 30, 6, 40, 25, 60], 20, 25, True),
    ([4, 50, 12, 30, 6, 40, 25, 60], 20, 25, False),
    # Draws of one or two rows: no shuffle draw, and classes of one row.
    ([5, 1, 3, 8] * 5, 1, 2, True),
    # Floyd's loop at n = 100 on oracle-suite's 200-row classes and on
    # embed-bin's 2500-row ones; the smaller classes, used whole, give
    # each case more than one run.
    ([200] * 8 + [60, 80], 100, 100, True),
    ([2500] * 3 + [70], 100, 100, True),
], ids=["whole-classes", "mixed-sizes", "no-diagonal", "tiny-draws",
        "oracle-suite-classes", "embed-bin-classes"])
def test_vectorized_draws_equal_numpy_choice(seed, sizes, M, E,
                                              include_diagonal):
    runs = _vectorized_and_numpy_draws(seed, sizes, M, E, include_diagonal)
    assert len(runs) > 1 or sizes == [M] * len(sizes)
    for got, want in runs:
        assert all(np.array_equal(g, w) for g, w in zip(got, want))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 64 - 1),
       st.lists(st.integers(1, 40), min_size=2, max_size=6),
       st.integers(1, 40), st.integers(1, 40), st.booleans())
def test_vectorized_draws_equal_numpy_choice_property(seed, sizes, M, E,
                                                       include_diagonal):
    for got, want in _vectorized_and_numpy_draws(seed, sizes, M, E,
                                                 include_diagonal):
        assert all(np.array_equal(g, w) for g, w in zip(got, want))


@pytest.mark.parametrize("seed, sizes, draw, pair", [
    # Lemire's method rejects one word of this pair's target draw.
    (5, [10_000] * 12, 200, (11, 9)),
    # Above 10 000 rows and 1/50 of the class, numpy shuffles the tail
    # of arange(rows) instead of running Floyd's algorithm: here on the
    # target side only.
    (5, [12_000, 400, 12_000, 400], 300, (1, 0)),
], ids=["rejected-word", "tail-shuffle"])
def test_draws_off_the_lockstep_path_equal_numpy(monkeypatch, seed, sizes,
                                                 draw, pair):
    from spectral_complexity import similarity
    monkeypatch.setattr(similarity, "_MIN_LANES", -10 ** 6)
    rows = _class_rows(sizes)
    pairs = [(i, j) for i in range(len(sizes)) for j in range(len(sizes))]
    assert pair in pairs
    got = similarity._draw(seed, rows, pairs, draw, draw)
    want = _numpy_draws(seed, rows, pairs, draw, draw)
    assert all(np.array_equal(g, w) for g, w in zip(got, want))


def test_rejected_word_is_detected():
    from spectral_complexity.similarity import _choice_draws, _pcg_words
    words = _pcg_words(5, np.array([11]), np.array([9]), 798)
    pop = np.array([10_000])
    assert not _choice_draws(words[2:401], pop, 200)[1][0]
    assert _choice_draws(words[401:800], pop, 200)[1][0]


@pytest.mark.parametrize("dim", [1, 8, 40])
def test_vectorized_stage_matches_per_pair_loop(monkeypatch, dim):
    from spectral_complexity import similarity
    monkeypatch.setattr(similarity, "_MIN_LANES", -10 ** 6)
    emb = mixed_classes(dim)
    params = HyperParams(M=20, E=25, k=3, seed=dim)
    X = build_similarity_matrix(emb, params)
    raw, diag = reference_similarity(emb, params)
    assert np.array_equal(X.values, raw)
    assert (X.diagnostics.degenerate_densities
            == diag.degenerate_densities > 0)
    assert X.diagnostics.replacement_pairs == diag.replacement_pairs
    assert X.diagnostics.zero_mass_rows == diag.zero_mass_rows


def test_runs_of_one_pair_are_drawn_by_numpy(monkeypatch):
    # Six classes of distinct sizes below M = E = 12: every (m, e) run of
    # the stage is one pair long, below the crossover to the model.
    from spectral_complexity import LabeledDataset, similarity

    def refuse(*args):
        raise AssertionError("a run of one pair reached the model")

    monkeypatch.setattr(similarity, "_pcg_words", refuse)
    sizes = [5, 6, 7, 8, 9, 10]
    labels = np.random.default_rng(6).permutation(
        np.repeat(np.arange(len(sizes)), sizes))
    features = np.random.default_rng(7).normal(labels[:, None], 1.0,
                                               (labels.size, 3))
    emb = embed(LabeledDataset(features=features, labels=labels))
    params = HyperParams(M=12, E=12, k=2, seed=3)
    raw, _ = reference_similarity(emb, params)
    assert np.array_equal(build_similarity_matrix(emb, params).values, raw)


def _two_blobs():
    return embed(make_blobs([(0.0, 0.0), (5.0, 5.0)], per_class=10))


# Each case: a call that must raise DataError, and its message.
REFUSALS = {
    "negative-similarity": (lambda: ClassSimilarityMatrix(
        values=[[1.0, -1e-300], [0.5, 1.0]], params=HyperParams(),
        row_normalized=False, includes_diagonal=True,
        diagnostics=SimilarityDiagnostics()),
        "similarity entries must be nonnegative"),
    "affinity-above-one": (lambda: SymmetricAffinity(
        values=[[1.0, 1.5], [1.5, 1.0]]), "affinity entries must lie in [0, 1]"),
    "affinity-negative": (lambda: SymmetricAffinity(
        values=[[1.0, -0.5], [-0.5, 1.0]]),
        "affinity entries must lie in [0, 1]"),
    "affinity-diagonal": (lambda: SymmetricAffinity(
        values=[[1.0, 0.5], [0.5, 0.9]]), "affinity diagonal must be exactly 1"),
    "knn-k-zero": (lambda: knn_density(np.zeros(1), np.ones((3, 1)), k=0),
                   "k must be >= 1, got 0"),
    "knn-dimension": (lambda: knn_density(np.zeros(2), np.ones((3, 3)), k=1),
                      "query dimension 2 != target dimension 3"),
    "pair-out-of-range": (lambda: class_pair_expectation(
        0, 2, _two_blobs(), HyperParams(M=5, E=5), pair_rng(0, 0, 2)),
        "class pair (0, 2) is out of range"),
    "pair-negative": (lambda: class_pair_expectation(
        -1, 0, _two_blobs(), HyperParams(M=5, E=5), pair_rng(0, 0, 0)),
        "class pair (-1, 0) is out of range"),
}


@pytest.mark.parametrize("case", list(REFUSALS))
def test_refusals(case):
    call, message = REFUSALS[case]
    with pytest.raises(DataError) as err:
        call()
    assert str(err.value) == message
