import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectral_complexity import (DataError, HyperParams, LabeledDataset,
                                 NumericError, ReductionSpec, apply_reduction,
                                 fit_pca)
from spectral_complexity.reduce import _BLOCK, _enforce_sign


def two_point_diagonal():
    return LabeledDataset(features=np.array([[-1.0, -1.0], [1.0, 1.0]]),
                          labels=np.array([0, 1]))


def random_dataset(rng, n=30, d=6):
    feats = rng.standard_normal((n, d)) * rng.uniform(0.5, 3.0, size=d)
    return LabeledDataset(features=feats, labels=np.arange(n) % 2)


class TestFitPca:
    def test_diagonal_pair_component(self):
        model = fit_pca(two_point_diagonal(), ReductionSpec.parse("pca:1"))
        expected = np.array([[1.0, 1.0]]) / np.sqrt(2.0)
        assert np.allclose(model.components, expected, atol=1e-12)
        assert np.allclose(model.explained_variance_ratio, [1.0], atol=1e-12)

    def test_isotropic_rate_keeps_both_axes(self):
        # Equal per-axis variance: each component explains 0.5, so a
        # 0.90 target needs both.
        angles = np.linspace(0.0, 2.0 * np.pi, 8, endpoint=False)
        feats = np.column_stack([np.cos(angles), np.sin(angles)])
        ds = LabeledDataset(features=feats, labels=np.arange(8) % 2)
        model = fit_pca(ds, ReductionSpec.parse("pca:rate=0.90"))
        assert model.components.shape[0] == 2
        assert np.allclose(model.explained_variance_ratio, [0.5, 0.5],
                           atol=1e-9)

    def test_rate_threshold_cumulative(self):
        # Variance ratios 0.9 / 0.06 / 0.04: a 0.95 target is met at d=2.
        rng = np.random.default_rng(3)
        q, _ = np.linalg.qr(rng.standard_normal((400, 3)))
        data = q * np.sqrt([0.9, 0.06, 0.04])
        ds = LabeledDataset(features=data, labels=np.arange(400) % 2)
        model = fit_pca(ds, ReductionSpec.parse("pca:rate=0.95"))
        assert model.components.shape[0] == 2

    def test_zero_variance_is_numeric_error(self):
        ds = LabeledDataset(features=np.ones((4, 3)),
                            labels=np.array([0, 1, 0, 1]))
        with pytest.raises(NumericError, match="zero total variance"):
            fit_pca(ds, ReductionSpec.parse("pca:1"))

    def test_dim_above_rank_rejected(self):
        with pytest.raises(DataError, match="min"):
            fit_pca(two_point_diagonal(), ReductionSpec.parse("pca:2"))

    def test_sign_convention_first_entry_positive(self):
        rng = np.random.default_rng(11)
        ds = random_dataset(rng)
        model = fit_pca(ds, ReductionSpec.parse("pca:4"))
        for row in model.components:
            nz = np.flatnonzero(np.abs(row) > 1e-9)
            assert row[nz[0]] > 0

    def test_orthonormal_basis(self):
        rng = np.random.default_rng(5)
        ds = random_dataset(rng)
        model = fit_pca(ds, ReductionSpec.parse("pca:5"))
        gram = model.components @ model.components.T
        assert np.abs(gram - np.eye(5)).max() < 1e-9

    def test_ratios_sum_below_one(self):
        rng = np.random.default_rng(9)
        ds = random_dataset(rng)
        model = fit_pca(ds, ReductionSpec.parse("pca:3"))
        assert model.explained_variance_ratio.sum() <= 1.0 + 1e-12

    def test_reconstruction_error_nonincreasing(self):
        rng = np.random.default_rng(17)
        ds = random_dataset(rng, n=25, d=7)
        centered = ds.features - ds.features.mean(axis=0)
        errors = []
        for d in range(1, 6):
            model = fit_pca(ds, ReductionSpec(mode="fixed", n_components=d))
            proj = model.transform(ds.features)
            errors.append(float(((centered - proj @ model.components) ** 2)
                                .sum()))
        for earlier, later in zip(errors, errors[1:]):
            assert later <= earlier + 1e-12


class TestApplyReduction:
    def test_passthrough_bit_identical(self):
        ds = two_point_diagonal()
        emb = apply_reduction(ds, HyperParams())
        assert emb.features is ds.features
        assert emb.meta.method == "passthrough"
        assert emb.meta.d == 2

    def test_fixed_projection_values(self):
        params = HyperParams(reduction=ReductionSpec.parse("pca:1"))
        emb = apply_reduction(two_point_diagonal(), params)
        assert np.allclose(np.sort(emb.features.ravel()),
                           [-np.sqrt(2.0), np.sqrt(2.0)], atol=1e-12)
        # Sign convention pins the order too: component (1,1)/sqrt(2)
        # sends (-1,-1) to -sqrt(2).
        assert emb.features[0, 0] < 0

    def test_projection_centered(self):
        rng = np.random.default_rng(23)
        ds = random_dataset(rng)
        params = HyperParams(reduction=ReductionSpec.parse("pca:3"))
        emb = apply_reduction(ds, params)
        span = float(np.ptp(ds.features))
        assert np.abs(emb.features.mean(axis=0)).max() <= 1e-9 * max(1.0, span)

    def test_labels_preserved(self):
        rng = np.random.default_rng(2)
        ds = random_dataset(rng)
        params = HyperParams(reduction=ReductionSpec.parse("pca:2"))
        emb = apply_reduction(ds, params)
        assert np.array_equal(emb.labels, ds.labels)
        assert emb.meta.method == "pca"
        assert len(emb.meta.explained_variance_ratio) == 2


    def test_non_finite_projection_is_numeric_error(self):
        # Finite inputs whose centred rows overflow the R factor of the
        # QR fit: the first of fit_pca's two overflow checks refuses them.
        big = 1.5e308
        ds = LabeledDataset(features=[[big, big], [-big, -big]] * 2 + [[1e307, 0.0]],
                            labels=[0, 1, 0, 1, 0])
        params = HyperParams(reduction=ReductionSpec.parse("pca:1"))
        with np.errstate(all="ignore"), pytest.raises(NumericError,
                                                      match="non-finite"):
            apply_reduction(ds, params)

    def test_variance_overflow_past_a_finite_r_is_numeric_error(self):
        # At a feature scale of 1e160 the R factor is finite, but its
        # squared singular values overflow the total variance: the second
        # check refuses it, with no warning.
        feats = np.random.default_rng(4).standard_normal((20, 3)) * 1e160
        ds = LabeledDataset(features=feats, labels=np.arange(20) % 2)
        r = np.linalg.qr(feats - feats.mean(axis=0), mode="r")
        assert np.isfinite(r).all()
        params = HyperParams(reduction=ReductionSpec.parse("pca:1"))
        with pytest.raises(NumericError) as err:
            apply_reduction(ds, params)
        assert str(err.value) == ("non-finite PCA variance: "
                                  "feature values too large")

@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31 - 1),
       st.integers(min_value=5, max_value=24),
       st.integers(min_value=2, max_value=6))
def test_pca_basis_orthonormal_property(seed, n, d):
    rng = np.random.default_rng(seed)
    feats = rng.standard_normal((n, d))
    ds = LabeledDataset(features=feats, labels=np.arange(n) % 2)
    keep = min(n - 1, d)
    model = fit_pca(ds, ReductionSpec(mode="fixed", n_components=keep))
    gram = model.components @ model.components.T
    assert np.abs(gram - np.eye(keep)).max() < 1e-9


def test_fit_pca_refuses_passthrough():
    with pytest.raises(DataError, match="requires a pca reduction mode"):
        fit_pca(two_point_diagonal(), ReductionSpec.parse("passthrough"))


def _parent_enforce_sign(components):
    """_enforce_sign as a per-row loop: the reference for the one mask."""
    out = components.copy()
    for i in range(out.shape[0]):
        nz = np.flatnonzero(np.abs(out[i]) > 1e-9)
        if nz.size and out[i, nz[0]] < 0:
            out[i] = -out[i]
    return out


def test_enforce_sign_matches_per_row_loop():
    # Entries mix signed zeros, values at or under the 1e-9 cut, and
    # ordinary and large values, so rows with no entry above it occur.
    pool = np.array([0.0, -0.0, 1e-9, -1e-9, 3e-10, -3e-10, 1e-300,
                     -1e-300, 2e-9, -2e-9, 1e3, -1e3])
    rng = np.random.default_rng(13)
    for trial in range(3000):
        shape = (int(rng.integers(1, 7)), int(rng.integers(1, 9)))
        C = rng.choice(pool, shape)
        mixed = rng.random(shape) < trial % 3 / 3
        C[mixed] = rng.standard_normal(int(mixed.sum()))
        got, want = _enforce_sign(C), _parent_enforce_sign(C)
        assert np.array_equal(got, want), trial
        assert np.array_equal(np.signbit(got), np.signbit(want)), trial


def _full_svd_fit(X, d):
    """fit_pca in fixed mode as one SVD of the whole centered matrix:
    the reference for the streamed fit. Returns (mean, components,
    explained-variance ratios)."""
    mean = X.mean(axis=0)
    _, svals, vt = np.linalg.svd(X - mean, full_matrices=False)
    variance = svals ** 2 / (len(X) - 1)
    return mean, _enforce_sign(vt[:d]), (variance / variance.sum())[:d]


def graded(rng, n, dim):
    """n rows whose per-axis scales fall from 10 to 0.1, rotated and
    shifted off the origin, so every component is well separated."""
    basis, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    scales = np.geomspace(10.0, 0.1, dim)
    return (rng.standard_normal((n, dim)) * scales) @ basis.T + 5.0


@pytest.mark.parametrize("dim", [8, 32, 64])
def test_streamed_fit_matches_full_svd_across_blocks(dim):
    # Three full blocks and one block of a single row.
    n = 3 * max(dim, _BLOCK // dim) + 1
    rng = np.random.default_rng(dim)
    X = graded(rng, n, dim)
    ds = LabeledDataset(features=X, labels=np.arange(n) % 2)
    model = fit_pca(ds, ReductionSpec(mode="fixed", n_components=dim))
    mean, components, ratios = _full_svd_fit(X, dim)
    assert np.array_equal(model.mean, mean)
    assert np.allclose(model.components, components, rtol=0.0, atol=1e-12)
    assert np.allclose(model.explained_variance_ratio, ratios, rtol=1e-12,
                       atol=0.0)


def test_streamed_fit_with_fewer_rows_than_features():
    rng = np.random.default_rng(8)
    X = graded(rng, 30, 50)
    ds = LabeledDataset(features=X, labels=np.arange(30) % 2)
    model = fit_pca(ds, ReductionSpec(mode="fixed", n_components=29))
    _, components, ratios = _full_svd_fit(X, 29)
    assert model.components.shape == (29, 50)
    assert np.allclose(model.components, components, rtol=0.0, atol=1e-12)
    assert np.allclose(model.explained_variance_ratio, ratios, rtol=1e-12,
                       atol=0.0)


def test_blocked_transform_matches_whole_projection():
    rng = np.random.default_rng(4)
    n = 2 * (_BLOCK // 16) + 5
    X = graded(rng, n, 16)
    ds = LabeledDataset(features=X, labels=np.arange(n) % 2)
    model = fit_pca(ds, ReductionSpec(mode="fixed", n_components=5))
    got = model.transform(X)
    assert got.shape == (n, 5)
    assert np.allclose(got, (X - model.mean) @ model.components.T,
                       rtol=0.0, atol=1e-12)


def test_reduction_memory_stays_below_half_the_input():
    # A full-size centered copy alone would be X.nbytes; the fit and the
    # projection hold one block of rows and the (n, d) output.
    rng = np.random.default_rng(1)
    X = rng.standard_normal((50_000, 64))
    ds = LabeledDataset(features=X, labels=np.arange(50_000) % 2)
    params = HyperParams(reduction=ReductionSpec.parse("pca:10"))
    tracemalloc.start()
    try:
        apply_reduction(ds, params)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < X.nbytes / 2


def degenerate_blocks(scale):
    """Three full blocks of 32 columns and a part block: 30 graded
    columns, a constant one and a copy of the first, times scale."""
    n = 3 * (_BLOCK // 32) + 100
    X = graded(np.random.default_rng(35), n, 30)
    return np.column_stack([X, np.full(n, 7.0), X[:, 0]]) * scale


@pytest.mark.parametrize("scale", [1.0, 1e-150, 1e150])
def test_folded_blocks_match_full_svd_with_degenerate_columns(scale):
    # Each further block is folded into the first block's R. The constant
    # and the copied column leave two zero singular values, whose
    # reflectors see an x of (rounded) zeros. At 1e-150 every reflector's
    # squared norm underflows, and at 1e150 it overflows, so each one
    # takes the rescaled norm.
    X = degenerate_blocks(scale)
    ds = LabeledDataset(features=X, labels=np.arange(len(X)) % 2)
    model = fit_pca(ds, ReductionSpec(mode="fixed", n_components=30))
    mean, components, ratios = _full_svd_fit(X, 30)
    assert np.array_equal(model.mean, mean)
    assert np.allclose(model.components, components, rtol=0.0, atol=1e-12)
    assert np.allclose(model.explained_variance_ratio, ratios, rtol=1e-12,
                       atol=0.0)


@pytest.mark.parametrize("scale, message", [
    (1e-300, "zero total variance: all samples are identical"),
    (1e200, "non-finite PCA variance: feature values too large"),
])
def test_folded_blocks_refuse_out_of_range_scales(scale, message):
    X = degenerate_blocks(scale)
    ds = LabeledDataset(features=X, labels=np.arange(len(X)) % 2)
    with pytest.raises(NumericError) as err:
        fit_pca(ds, ReductionSpec(mode="fixed", n_components=30))
    assert str(err.value) == message
