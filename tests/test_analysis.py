import subprocess
import sys
import warnings

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import pdist, squareform

from spectral_complexity import (CorrelationResult, DataError, HyperParams,
                                 InterClassMap, LabeledDataset, NumericError,
                                 ReductionSpec, SyntheticSuite,
                                 apply_reduction, bayes_error_oracle,
                                 bray_curtis_symmetrize, build_laplacian,
                                 build_similarity_matrix, classical_mds,
                                 compute_scores, gen_gaussian_suite, pearson,
                                 rank_correlation, run_benchmark,
                                 run_pipeline, spectrum)
from spectral_complexity.analysis import _average_ranks, _simplex_vertices

from conftest import make_blobs

PHI_MINUS_ONE = 0.15865525393145707  # standard normal CDF at -1


class TestPearson:
    def test_perfect_positive(self):
        res = pearson([1.0, 2.0, 3.0, 4.0], [2.0, 4.0, 6.0, 8.0])
        assert res.r == pytest.approx(1.0, abs=1e-15)
        assert res.p_value < 1e-12
        assert res.sample_count == 4

    def test_perfect_negative(self):
        x = [1.0, 2.0, 4.0, 8.0]
        res = pearson(x, [-2.0 * v for v in x])
        assert res.r == -1.0
        assert res.p_value == 0.0

    def test_exact_unit_r_gives_zero_p(self):
        # Doubling is exact in binary floats, so r lands on 1 exactly.
        x = [1.0, 2.0, 4.0, 8.0]
        res = pearson(x, [2.0 * v for v in x])
        assert res.r == 1.0
        assert res.p_value == 0.0

    def test_matches_scipy(self):
        rng = np.random.default_rng(12)
        for m in (3, 5, 20, 100):
            x = rng.standard_normal(m)
            y = rng.standard_normal(m)
            want = scipy.stats.pearsonr(x, y)
            got = pearson(x, y)
            assert got.r == pytest.approx(want.statistic, abs=1e-12)
            assert got.p_value == pytest.approx(want.pvalue, abs=1e-12)

    def test_zero_variance(self):
        with pytest.raises(NumericError, match="zero variance"):
            pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_length_mismatch(self):
        with pytest.raises(DataError, match="length mismatch"):
            pearson([1.0, 2.0], [1.0, 2.0, 3.0])

    def test_too_few_points(self):
        with pytest.raises(DataError, match="at least 3"):
            pearson([1.0, 2.0], [3.0, 4.0])

    def test_symmetry(self):
        x = [0.2, 1.7, -0.4, 2.2, 0.9]
        y = [1.1, 0.3, 0.8, 2.0, -0.5]
        assert pearson(x, y).r == pearson(y, x).r

    def test_result_validation(self):
        with pytest.raises(DataError, match="r must"):
            CorrelationResult(r=1.5, p_value=0.1, sample_count=5)
        with pytest.raises(DataError, match="p-value"):
            CorrelationResult(r=0.5, p_value=1.1, sample_count=5)
        with pytest.raises(DataError, match="sample count"):
            CorrelationResult(r=0.5, p_value=0.1, sample_count=2)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31 - 1),
       st.floats(min_value=0.1, max_value=50.0),
       st.floats(min_value=-100.0, max_value=100.0))
def test_pearson_affine_invariance(seed, a, b):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(12)
    y = rng.standard_normal(12)
    base = pearson(x, y).r
    assert pearson(a * x + b, y).r == pytest.approx(base, abs=1e-9)
    assert pearson(-a * x + b, y).r == pytest.approx(-base, abs=1e-9)


class TestRankCorrelation:
    def test_monotone_transform_is_perfect(self):
        x = np.array([0.5, 3.0, 1.2, 2.4, 0.1])
        assert rank_correlation(x, np.exp(x)) == pytest.approx(1.0, abs=1e-12)

    def test_matches_scipy_with_ties(self):
        x = [1.0, 1.0, 2.0, 3.0, 3.0, 4.0]
        y = [2.0, 1.0, 4.0, 3.0, 6.0, 5.0]
        want = scipy.stats.spearmanr(x, y).statistic
        assert rank_correlation(x, y) == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("seed", range(20))
    def test_ranks_equal_rankdata(self, seed):
        # Ties, signed zeros, infinities, 2-D and integer input, and NaN,
        # which makes every rank NaN.
        rng = np.random.default_rng(seed)
        pool = np.array([-np.inf, -2.0, -0.0, 0.0, 1.5, 3.0, np.inf])
        for n in range(25):
            x = rng.choice(pool, n) if n % 2 else rng.normal(size=n).round(1)
            for v in (x, x.reshape(1, -1), np.trunc(x[np.isfinite(x)])
                      .astype(np.int64)):
                assert np.array_equal(_average_ranks(v),
                                      scipy.stats.rankdata(v))
            if n:
                x[rng.integers(n)] = np.nan
                assert np.isnan(_average_ranks(x)).all()
                assert np.isnan(scipy.stats.rankdata(x)).all()

    def test_nan_refused(self):
        with pytest.raises(NumericError, match="non-finite value"):
            rank_correlation([1.0, np.nan, 2.0], [1.0, 2.0, 3.0])

    def test_loads_no_scipy_stats(self):
        code = ("import sys\n"
                "from spectral_complexity import rank_correlation\n"
                "rank_correlation([1, 2, 2, 4], [3, 1, 2, 5])\n"
                "print(sorted(m for m in sys.modules\n"
                "             if m.startswith('scipy.stats')))\n")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True, timeout=60)
        assert out.stdout.splitlines()[-1] == "[]"


class TestClassicalMds:
    def test_two_points(self):
        out = classical_mds(np.array([[0.0, 2.0], [2.0, 0.0]]))
        assert out.coordinates == pytest.approx(
            np.array([[1.0, 0.0], [-1.0, 0.0]]), abs=1e-9)
        assert out.stress < 1e-18

    def test_equilateral_triangle(self):
        U = np.ones((3, 3)) - np.eye(3)
        out = classical_mds(U)
        d = pdist(out.coordinates)
        assert d == pytest.approx([1.0, 1.0, 1.0], abs=1e-9)
        assert out.stress < 1e-16

    def test_reconstructs_planar_configuration(self):
        rng = np.random.default_rng(5)
        pts = rng.standard_normal((6, 2)) * 3.0
        U = squareform(pdist(pts))
        out = classical_mds(U)
        rebuilt = squareform(pdist(out.coordinates))
        assert np.abs(rebuilt - U).max() < 1e-8
        assert out.stress < 1e-14

    def test_collinear_input_uses_one_axis(self):
        pts = np.array([[0.0], [1.0], [2.5]])
        U = squareform(pdist(pts))
        out = classical_mds(U)
        assert np.abs(out.coordinates[:, 1]).max() < 1e-9
        assert out.stress < 1e-16

    def test_sign_convention(self):
        rng = np.random.default_rng(9)
        pts = rng.standard_normal((5, 2))
        out = classical_mds(squareform(pdist(pts)))
        for axis in range(2):
            col = out.coordinates[:, axis]
            assert col[np.argmax(np.abs(col))] >= 0

    def test_non_euclidean_distances_leave_stress(self):
        U = np.array([[0.0, 1.0, 10.0], [1.0, 0.0, 1.0], [10.0, 1.0, 0.0]])
        out = classical_mds(U)
        assert out.stress > 1.0
        assert np.all(np.isfinite(out.coordinates))

    @pytest.mark.parametrize("seed", range(5))
    def test_stress_matches_pdist(self, seed):
        # The stress sums residuals against numpy row distances of the
        # 2-column map; they equal scipy's pdist bit for bit.
        rng = np.random.default_rng(seed)
        for _ in range(40):
            n = int(rng.integers(2, 12))
            if rng.random() < 0.5:
                pts = rng.standard_normal((n, int(rng.integers(1, 6))))
                U = squareform(pdist(pts * 10.0 ** rng.uniform(-6, 6)))
            else:
                U = squareform(rng.exponential(size=n * (n - 1) // 2))
            out = classical_mds(U)
            iu, ju = np.triu_indices(n, k=1)
            want = float(((U[iu, ju] - pdist(out.coordinates)) ** 2).sum())
            assert out.stress == want

    def test_validation(self):
        with pytest.raises(DataError, match="square"):
            classical_mds(np.zeros((2, 3)))
        with pytest.raises(DataError, match="symmetric"):
            classical_mds(np.array([[0.0, 1.0], [2.0, 0.0]]))
        with pytest.raises(DataError, match="nonnegative"):
            classical_mds(np.array([[0.0, -1.0], [-1.0, 0.0]]))
        with pytest.raises(DataError, match="diagonal"):
            classical_mds(np.array([[1.0, 1.0], [1.0, 1.0]]))

    def test_map_centering_enforced(self):
        with pytest.raises(DataError, match="centered"):
            InterClassMap(coordinates=np.array([[1.0, 0.0], [2.0, 0.0]]),
                          stress=0.0)


class TestSimplexVertices:
    @pytest.mark.parametrize("n,dim", [(2, 1), (3, 2), (4, 3), (5, 7)])
    def test_regular_unit_edge(self, n, dim):
        verts = _simplex_vertices(n, dim)
        assert verts.shape == (n, dim)
        assert np.abs(verts.mean(axis=0)).max() < 1e-12
        assert pdist(verts) == pytest.approx(np.ones(n * (n - 1) // 2),
                                             abs=1e-12)

    def test_folded_when_dim_too_small(self):
        verts = _simplex_vertices(10, 3)
        assert verts.shape == (10, 3)
        assert np.abs(verts.mean(axis=0)).max() < 1e-12
        d = pdist(verts)
        assert d.min() == pytest.approx(1.0, abs=1e-12)
        assert np.all(d > 0.5)


class TestBayesOracle:
    def setup_method(self):
        self.eye1 = np.eye(1)[None, :, :]

    def test_two_unit_gaussians(self):
        err, se = bayes_error_oracle(
            means=[[-1.0], [1.0]],
            covariances=np.repeat(self.eye1, 2, axis=0),
            priors=[0.5, 0.5], trials=100_000, seed=0)
        assert err == pytest.approx(PHI_MINUS_ONE, abs=0.01)
        assert se == pytest.approx(np.sqrt(err * (1 - err) / 100_000),
                                   abs=1e-12)

    @pytest.mark.parametrize("n", [2, 4])
    def test_identical_components(self, n):
        err, _ = bayes_error_oracle(
            means=np.zeros((n, 1)),
            covariances=np.repeat(self.eye1, n, axis=0),
            priors=np.full(n, 1.0 / n), trials=100_000, seed=1)
        assert err == pytest.approx(1.0 - 1.0 / n, abs=0.01)

    def test_degenerate_prior(self):
        err, se = bayes_error_oracle(
            means=[[0.0], [100.0]],
            covariances=np.repeat(self.eye1, 2, axis=0),
            priors=[1.0, 0.0], trials=10_000, seed=2)
        assert err == 0.0 and se == 0.0

    def test_rotation_invariance(self):
        theta = 0.7
        Q = np.array([[np.cos(theta), -np.sin(theta)],
                      [np.sin(theta), np.cos(theta)]])
        means = np.array([[0.0, 0.0], [1.5, 0.5]])
        covs = np.repeat(np.eye(2)[None, :, :], 2, axis=0)
        base, _ = bayes_error_oracle(means, covs, [0.5, 0.5],
                                     trials=200_000, seed=3)
        rot, _ = bayes_error_oracle(means @ Q.T, covs, [0.5, 0.5],
                                    trials=200_000, seed=3)
        assert rot == pytest.approx(base, abs=0.01)

    def test_deterministic_for_seed(self):
        args = ([[-1.0], [1.0]], np.repeat(self.eye1, 2, axis=0), [0.5, 0.5])
        a = bayes_error_oracle(*args, trials=20_000, seed=7)
        b = bayes_error_oracle(*args, trials=20_000, seed=7)
        assert a == b

    def test_validation(self):
        covs = np.repeat(self.eye1, 2, axis=0)
        with pytest.raises(DataError, match="10000"):
            bayes_error_oracle([[0.0], [1.0]], covs, [0.5, 0.5],
                               trials=500, seed=0)
        with pytest.raises(DataError, match="priors"):
            bayes_error_oracle([[0.0], [1.0]], covs, [0.7, 0.7],
                               trials=10_000, seed=0)
        with pytest.raises(DataError, match="covariances"):
            bayes_error_oracle([[0.0], [1.0]], np.eye(1), [0.5, 0.5],
                               trials=10_000, seed=0)
        with pytest.raises(NumericError, match="singular"):
            bayes_error_oracle([[0.0], [1.0]],
                               np.zeros((2, 1, 1)), [0.5, 0.5],
                               trials=10_000, seed=0)


class TestGaussianSuite:
    def test_oracle_tracks_separation(self):
        suite = gen_gaussian_suite(n_classes=2, dim=1, per_class=10,
                                   separations=(20.0, 2.0, 0.0), seed=0,
                                   trials=50_000)
        assert suite.oracle_errors[0] < 1e-4
        assert suite.oracle_errors[1] == pytest.approx(PHI_MINUS_ONE,
                                                       abs=0.01)
        assert suite.oracle_errors[2] == pytest.approx(0.5, abs=0.01)
        assert np.all(np.diff(suite.oracle_errors) >= -1e-12)

    def test_dataset_layout(self):
        suite = gen_gaussian_suite(n_classes=3, dim=2, per_class=50,
                                   separations=(5.0, 1.0, 0.5), seed=4,
                                   trials=10_000)
        for ds in suite.datasets:
            assert ds.features.shape == (150, 2)
            assert ds.n_classes == 3
        # Class means approximate the scaled simplex for the widest case.
        ds = suite.datasets[0]
        verts = _simplex_vertices(3, 2) * 5.0
        for c in range(3):
            got = ds.features[ds.labels == c].mean(axis=0)
            assert np.abs(got - verts[c]).max() < 3.0 / np.sqrt(50)

    def test_reproducible(self):
        kw = dict(n_classes=2, dim=2, per_class=20,
                  separations=(3.0, 1.0, 0.3), seed=9, trials=10_000)
        a = gen_gaussian_suite(**kw)
        b = gen_gaussian_suite(**kw)
        for da, db in zip(a.datasets, b.datasets):
            assert np.array_equal(da.features, db.features)
        assert a.oracle_errors == b.oracle_errors

    def test_validation(self):
        with pytest.raises(DataError, match="at least 2 classes"):
            gen_gaussian_suite(1, 2, 20, (1.0, 2.0, 3.0), seed=0)
        with pytest.raises(DataError, match="dim"):
            gen_gaussian_suite(2, 0, 20, (1.0, 2.0, 3.0), seed=0)
        with pytest.raises(DataError, match="per_class"):
            gen_gaussian_suite(2, 2, 5, (1.0, 2.0, 3.0), seed=0)
        with pytest.raises(DataError, match="3 separations"):
            gen_gaussian_suite(2, 2, 20, (1.0, 2.0), seed=0)
        with pytest.raises(DataError, match="nonnegative"):
            gen_gaussian_suite(2, 2, 20, (1.0, 2.0, -3.0), seed=0)

    def test_suite_length_validation(self):
        suite = gen_gaussian_suite(2, 1, 10, (3.0, 1.0, 0.5), seed=0,
                                   trials=10_000)
        with pytest.raises(DataError, match="one length"):
            SyntheticSuite(datasets=suite.datasets,
                           separations=suite.separations[:2],
                           oracle_errors=suite.oracle_errors,
                           oracle_stderrs=suite.oracle_stderrs)


class TestRunBenchmark:
    def small_suite(self):
        return gen_gaussian_suite(n_classes=3, dim=2, per_class=60,
                                  separations=(8.0, 2.0, 0.5), seed=2,
                                  trials=10_000)

    def test_metric_columns_and_correlations(self):
        suite = self.small_suite()
        params = HyperParams(M=40, E=40, k=3, seed=2)
        result = run_benchmark(suite, params)
        assert set(result.metric_values) == {"cmsauls", "csg", "auls"}
        for values in result.metric_values.values():
            assert len(values) == 3
        assert result.correlations["cmsauls"].sample_count == 3
        assert result.correlations["cmsauls"].r > 0.5

    def test_constant_descriptor_is_skipped(self):
        suite = self.small_suite()
        params = HyperParams(M=40, E=40, k=3, seed=2)
        result = run_benchmark(suite, params, include_descriptors=True)
        # t2 never varies across a fixed-shape suite.
        assert "t2" in result.skipped_metrics
        assert "t2" not in result.correlations
        assert "n3" in result.metric_values

    def test_constant_metric_on_identical_datasets(self):
        rng = np.random.default_rng(5)
        ds = LabeledDataset(features=rng.standard_normal((40, 2)),
                            labels=np.repeat([0, 1], 20))
        suite = SyntheticSuite(datasets=(ds, ds, ds),
                               separations=(1.0, 1.0, 1.0),
                               oracle_errors=(0.1, 0.2, 0.3),
                               oracle_stderrs=(0.01, 0.01, 0.01))
        params = HyperParams(M=10, E=10, k=2, seed=5)
        result = run_benchmark(suite, params)
        assert set(result.skipped_metrics) == {"cmsauls", "csg", "auls"}
        assert result.correlations == {}


def _parent_pearson(x, y):
    """pearson before its inputs were scaled by a power of two: the
    reference that ordinary inputs must match exactly."""
    from scipy.special import betainc
    xv = np.asarray(x, dtype=np.float64).ravel()
    yv = np.asarray(y, dtype=np.float64).ravel()
    m = xv.size
    xm = xv - xv.mean()
    ym = yv - yv.mean()
    sx = float(np.sqrt((xm ** 2).sum()))
    sy = float(np.sqrt((ym ** 2).sum()))
    if sx == 0.0 or sy == 0.0:
        raise NumericError("zero variance: correlation undefined")
    r = float((xm * ym).sum() / (sx * sy))
    r = max(-1.0, min(1.0, r))
    df = m - 2
    if 1.0 - r * r <= 0.0:
        p = 0.0
    else:
        t_sq = r * r * df / (1.0 - r * r)
        p = float(betainc(0.5 * df, 0.5, df / (df + t_sq)))
    return CorrelationResult(r=r, p_value=p, sample_count=m)


class TestPearsonScaling:
    def test_matches_unscaled_formula_exactly(self):
        rng = np.random.default_rng(19)
        for _ in range(2000):
            m = int(rng.integers(3, 40))
            x = rng.standard_normal(m) * 10.0 ** rng.integers(-100, 100)
            y = rng.standard_normal(m) * 10.0 ** rng.integers(-100, 100)
            if rng.random() < 0.2:
                y = np.round(x * rng.normal(), 3) + rng.integers(-2, 3, m)
            try:
                want = _parent_pearson(x, y)
            except NumericError:
                with pytest.raises(NumericError):
                    pearson(x, y)
                continue
            assert pearson(x, y) == want

    @pytest.mark.parametrize("scale", [1e200, 1e-200, 4e307, 1e-310])
    def test_extreme_scales_keep_r(self, scale):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        y = [1.0, 2.0, 3.0, 4.5]
        want = pearson(x, y)
        got = pearson(x * scale, y)
        assert got.r == pytest.approx(want.r, rel=1e-14)
        assert got.p_value == pytest.approx(want.p_value, rel=1e-12)
        assert pearson(y, x * scale).r == got.r

    def test_large_values_no_longer_give_zero(self):
        res = pearson([1e200, 2e200, 3e200, 4e200], [1, 2, 3, 4.5])
        assert res.r == pytest.approx(0.99437671268436889, rel=1e-14)


def test_oracle_with_overflowing_distance_is_exact():
    # Class 1's Mahalanobis distance from class 0's samples overflows.
    err, se = bayes_error_oracle(
        means=[[0.0], [1e200]], covariances=np.ones((2, 1, 1)),
        priors=[0.5, 0.5], trials=10_000, seed=0)
    assert err == 0.0 and se == 0.0


def _parent_bayes_error_oracle(means, covariances, priors, trials, seed):
    """bayes_error_oracle on a (trials, dim) sample matrix, with scipy's
    triangular solve and a (trials, n) score matrix; inputs assumed
    valid. The reference for the coordinate-major version."""
    from scipy.linalg import solve_triangular
    mu = np.atleast_2d(np.asarray(means, dtype=np.float64))
    n, dim = mu.shape
    covs = np.asarray(covariances, dtype=np.float64)
    pri = np.asarray(priors, dtype=np.float64).ravel()
    chol = [np.linalg.cholesky(covs[c]) for c in range(n)]
    rng = np.random.default_rng(seed)
    counts = rng.multinomial(trials, pri)
    blocks = [mu[c] + rng.standard_normal((counts[c], dim)) @ chol[c].T
              for c in range(n)]
    X = np.vstack(blocks)
    truth = np.repeat(np.arange(n), counts)
    scores = np.empty((trials, n))
    with np.errstate(divide="ignore"):
        log_priors = np.log(pri)
    for c in range(n):
        diff = X - mu[c]
        z = solve_triangular(chol[c], diff.T, lower=True)
        log_det = float(np.log(np.diag(chol[c])).sum())
        with np.errstate(over="ignore"):
            mahalanobis = (z ** 2).sum(axis=0)
        scores[:, c] = (log_priors[c] - 0.5 * mahalanobis
                        - log_det - 0.5 * dim * np.log(2.0 * np.pi))
    predicted = np.argmax(scores, axis=1)
    error = float(np.mean(predicted != truth))
    stderr = float(np.sqrt(error * (1.0 - error) / trials))
    return error, stderr


def _oracles_agree(means, covs, priors, trials=10_000, seed=5):
    got = bayes_error_oracle(means, covs, priors, trials, seed)
    assert got == _parent_bayes_error_oracle(means, covs, priors, trials,
                                             seed)
    return got


@pytest.mark.parametrize("n", [2, 10])
@pytest.mark.parametrize("dim", [1, 2, 3, 7, 8, 9, 16, 64, 129])
def test_oracle_matches_parent_on_identity_covariances(n, dim):
    # From dim 8 on, numpy's running sum over coordinate rows and the
    # parent's pairwise sum may round a norm differently in its last
    # bit; dims 8, 9, 16, 64 and 129 check that (error, stderr) holds.
    covs = np.broadcast_to(np.eye(dim), (n, dim, dim))
    for sep in (0.0, 0.5, 8.0, 1e200):
        _oracles_agree(sep * _simplex_vertices(n, dim), covs,
                       np.full(n, 1.0 / n))


def test_oracle_matches_parent_with_a_zero_prior():
    err, _ = _oracles_agree(_simplex_vertices(3, 2), np.stack([np.eye(2)] * 3),
                            [0.5, 0.0, 0.5])
    assert 0.0 < err < 0.5


@pytest.mark.parametrize("seed, dim", [
    *(pytest.param(s, None, id=str(s)) for s in range(5)),
    *(pytest.param(s, d, id=f"{s}-dim{d}") for d in (8, 16) for s in range(5)),
])
def test_oracle_matches_parent_on_anisotropic_covariances(seed, dim):
    # dim None keeps the drawn dim of 1-5; 8 and 16 reach the dims where
    # a norm may round apart from the parent's.
    rng = np.random.default_rng(seed)
    n, drawn = int(rng.integers(2, 6)), int(rng.integers(1, 6))
    dim = dim or drawn
    A = rng.standard_normal((n, dim, dim))
    covs = A @ A.transpose(0, 2, 1) + 0.1 * np.eye(dim)
    _oracles_agree(rng.standard_normal((n, dim)), covs,
                   rng.dirichlet(np.ones(n)), trials=20_000, seed=seed)


def test_oracle_far_apart_correlated_classes_raise_no_warning():
    # Every squared norm from the other class overflows, and no
    # RuntimeWarning may escape the substitution or the norms.
    covs = np.array([[[1.0, 0.8], [0.8, 1.0]]] * 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _oracles_agree([[0.0, 0.0], [1e200, -1e200]], covs, [0.3, 0.7])
    assert got == (0.0, 0.0)


def test_oracle_working_set_is_one_source_class():
    # The default benchmark shape: 10 classes, d=3, 100 000 trials. One
    # source class at a time holds its 10 000 samples, their solve and
    # their running argmax: about 1.1 MiB.
    import tracemalloc
    means = _simplex_vertices(10, 3)
    covs = np.broadcast_to(np.eye(3), (10, 3, 3))
    tracemalloc.start()
    try:
        bayes_error_oracle(means, covs, np.full(10, 0.1), 100_000, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2 ** 20


def test_running_argmax_matches_numpy():
    from spectral_complexity.analysis import _keep_max
    rng = np.random.default_rng(11)
    values = np.array([-np.inf, -1.0, 0.0, 1.0, np.inf, np.nan])
    for n in range(1, 7):
        scores = rng.choice(values, size=(n, 4000))
        best = np.full(4000, -np.inf)
        index = np.zeros(4000, dtype=np.intp)
        for c, row in enumerate(scores):
            _keep_max(best, index, row, c)
        assert np.array_equal(index, np.argmax(scores, axis=0)), n


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"),
                                 -1e-300])
def test_suite_refuses_non_finite_or_negative_separations(bad):
    with pytest.raises(DataError,
                       match="^separations must be finite and nonnegative$"):
        gen_gaussian_suite(2, 1, 10, (1.0, bad, 2.0), seed=0, trials=10_000)


def test_suite_needs_three_datasets():
    suite = gen_gaussian_suite(2, 1, 10, (3.0, 1.0, 0.5), seed=0,
                               trials=10_000)
    with pytest.raises(DataError, match="at least 3 datasets"):
        SyntheticSuite(datasets=suite.datasets[:2],
                       separations=suite.separations[:2],
                       oracle_errors=suite.oracle_errors[:2],
                       oracle_stderrs=suite.oracle_stderrs[:2])


def same_bits(a, b):
    """Equal arrays down to the sign of each zero."""
    return (a.shape == b.shape and np.array_equal(a, b)
            and np.array_equal(np.signbit(a), np.signbit(b)))


def _parent_simplex_vertices(n, dim):
    """_simplex_vertices with its separate zero-pad branch for n-1 <= dim:
    the reference the single fold must match."""
    basis = np.zeros((n - 1, n))
    for k in range(1, n):
        basis[k - 1, :k] = 1.0 / np.sqrt(k * (k + 1))
        basis[k - 1, k] = -k / np.sqrt(k * (k + 1))
    centered = (np.eye(n) - 1.0 / n) / np.sqrt(2.0)
    verts = centered @ basis.T
    if n - 1 <= dim:
        out = np.zeros((n, dim))
        out[:, : n - 1] = verts
        return out
    folded = np.zeros((n, dim))
    for j in range(n - 1):
        folded[:, j % dim] += verts[:, j]
    spacing = pdist(folded).min()
    if spacing <= 0:
        raise NumericError("collapsed")
    return folded / spacing


def test_simplex_vertices_match_two_branch_parent():
    # The rescale sums coordinates in pdist's order, which numpy's own
    # axis sums leave from 8 coordinates on: hence the wide folds too.
    cases = [(n, dim) for n in range(2, 45) for dim in range(1, 50)]
    cases += [(n, dim) for dim in (64, 128) for n in (dim + 2, 3 * dim + 5)]
    for n, dim in cases:
        try:
            want = _parent_simplex_vertices(n, dim)
        except NumericError:
            with pytest.raises(NumericError):
                _simplex_vertices(n, dim)
            continue
        assert same_bits(_simplex_vertices(n, dim), want), (n, dim)


def _parent_classical_mds(U):
    """classical_mds with its per-axis sign loop, inputs assumed valid."""
    n = U.shape[0]
    C = np.eye(n) - 1.0 / n
    B = -0.5 * C @ (U * U) @ C
    evals, evecs = np.linalg.eigh(B)
    top = np.clip(evals[[-1, -2]], 0.0, None)
    top[top < 1e-10 * max(1.0, float(top[0]))] = 0.0
    coords = evecs[:, [-1, -2]] * np.sqrt(top)
    for axis in range(2):
        col = coords[:, axis]
        peak = int(np.argmax(np.abs(col)))
        if col[peak] < 0:
            coords[:, axis] = -col
    iu, ju = np.triu_indices(n, k=1)
    dist = np.sqrt(((coords[iu] - coords[ju]) ** 2).sum(axis=1))
    return coords, float(((U[iu, ju] - dist) ** 2).sum())


def test_classical_mds_matches_per_axis_sign_loop():
    rng = np.random.default_rng(23)
    for trial in range(2000):
        n = int(rng.integers(2, 13))
        kind = trial % 4
        if kind == 0:
            U = np.zeros((n, n))
        elif kind == 3:
            U = rng.uniform(0.0, 2.0, (n, n))
            U = np.triu(U, 1) + np.triu(U, 1).T
        else:
            pts = rng.standard_normal((n, int(rng.integers(1, 4))))
            if kind == 2:
                pts[rng.integers(0, n)] = pts[0]
            U = squareform(pdist(pts * 10.0 ** rng.integers(-3, 4)))
        coords, stress = _parent_classical_mds(U)
        got = classical_mds(U)
        assert same_bits(got.coordinates, coords), trial
        assert got.stress == stress


def _parent_suite(n_classes, dim, per_class, separations, seed, trials):
    """gen_gaussian_suite's draw of one block per class, stacked: the
    reference for the single draw over all classes."""
    verts = _parent_simplex_vertices(n_classes, dim)
    covs = np.broadcast_to(np.eye(dim), (n_classes, dim, dim))
    priors = np.full(n_classes, 1.0 / n_classes)
    feats, errors = [], []
    for idx, s in enumerate(separations):
        means = s * verts
        rng = np.random.default_rng(np.random.SeedSequence([seed, idx, 0]))
        feats.append(np.vstack([
            means[c] + rng.standard_normal((per_class, dim))
            for c in range(n_classes)
        ]))
        errors.append(bayes_error_oracle(
            means, covs, priors, trials,
            np.random.SeedSequence([seed, idx, 1]))[0])
    return feats, tuple(errors)


@pytest.mark.parametrize("shape", [(2, 1, 10), (3, 2, 60), (5, 3, 20),
                                   (12, 4, 15)])
def test_suite_draw_matches_per_class_parent(shape):
    seps = (4.0, 1.0, 0.0, 0.25)
    feats, errors = _parent_suite(*shape, seps, seed=9, trials=10_000)
    suite = gen_gaussian_suite(*shape, seps, seed=9, trials=10_000)
    for ds, want in zip(suite.datasets, feats):
        assert same_bits(ds.features, want)
    assert suite.oracle_errors == errors


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_pearson_refuses_non_finite_values(bad):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x, y in (([1.0, 2.0, bad], [1.0, 2.0, 3.0]),
                     ([1.0, 2.0, 3.0], [bad, 2.0, 3.0])):
            with pytest.raises(NumericError, match="^non-finite value: "
                               "correlation undefined$"):
                pearson(x, y)


def test_infinite_f1_is_skipped_without_warnings():
    # The first feature is constant within each class, so f1 is +inf.
    rng = np.random.default_rng(4)
    labels = np.repeat([0, 1], 20)
    datasets = tuple(
        LabeledDataset(features=np.column_stack(
            [labels * s, rng.standard_normal(40)]), labels=labels)
        for s in (1.0, 2.0, 3.0))
    suite = SyntheticSuite(datasets=datasets, separations=(1.0, 2.0, 3.0),
                           oracle_errors=(0.3, 0.2, 0.1),
                           oracle_stderrs=(0.01, 0.01, 0.01))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = run_benchmark(suite, HyperParams(M=10, E=10, k=2, seed=4),
                               include_descriptors=True)
    assert result.metric_values["f1"] == (np.inf,) * 3
    assert "f1" in result.skipped_metrics
    assert "f1" not in result.correlations


@pytest.mark.parametrize("scale", [1e9, 1e12])
def test_map_centering_tolerance_scales_with_coordinates(scale):
    rng = np.random.default_rng(31)
    for _ in range(200):
        pts = rng.standard_normal((3, 2)) * scale
        InterClassMap(coordinates=pts - pts.mean(axis=0), stress=0.0)
    pts = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 0.0]]) * scale
    with pytest.raises(DataError, match="centered"):
        InterClassMap(coordinates=pts + 1e-3 * scale, stress=0.0)


def test_map_refuses_empty_coordinates_without_warnings():
    # An empty map has no mean to check for centering; it is refused by
    # the shape check before numpy averages zero rows.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataError, match=r"finite \(n, 2\) array, "
                                            r"got shape \(0, 2\)"):
            InterClassMap(coordinates=np.zeros((0, 2)), stress=0.0)


@pytest.mark.parametrize("row_normalize", [True, False])
@pytest.mark.parametrize("include_diagonal", [True, False])
def test_run_pipeline_matches_the_stage_calls(row_normalize, include_diagonal):
    ds = make_blobs([(0.0, 0.0, 0.0), (2.0, 0.0, 1.0), (0.0, 2.0, -1.0),
                     (1.0, 1.0, 0.0)], per_class=30)
    params = HyperParams(M=20, E=20, k=3, seed=5,
                         reduction=ReductionSpec.parse("pca:2"))
    flags = dict(row_normalize=row_normalize,
                 include_diagonal=include_diagonal)
    run = run_pipeline(ds, params, **flags)
    emb = apply_reduction(ds, params)
    X = build_similarity_matrix(emb, params, **flags)
    W = bray_curtis_symmetrize(X)
    L = build_laplacian(W)
    spec = spectrum(L)
    scores = compute_scores(spec)
    assert same_bits(run.emb.features, emb.features)
    assert run.emb.meta == emb.meta
    assert same_bits(run.X.values, X.values)
    assert (run.X.row_normalized, run.X.includes_diagonal) \
        == (row_normalize, include_diagonal)
    assert run.X.diagnostics == X.diagnostics
    assert same_bits(run.W.values, W.values)
    assert same_bits(run.L.values, L.values)
    assert same_bits(run.spec.eigenvalues, spec.eigenvalues)
    assert same_bits(np.array([run.scores.cmsauls, run.scores.csg,
                               run.scores.auls]),
                     np.array([scores.cmsauls, scores.csg, scores.auls]))
