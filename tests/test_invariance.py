"""Metamorphic checks: transformations of the input that should not move
the scores, run end to end on the golden blobs.csv input."""

from pathlib import Path

import numpy as np
import pytest

from spectral_complexity import (HyperParams, LabeledDataset, apply_reduction,
                                 bray_curtis_symmetrize, build_laplacian,
                                 build_similarity_matrix, compute_scores,
                                 load_csv, spectrum)

BLOBS = Path(__file__).parent / "golden" / "inputs" / "blobs.csv"
# Every class of blobs.csv has 100 rows, so the defaults use all of them.
PARAMS = HyperParams()


def run(features, labels):
    ds = LabeledDataset(features=features, labels=labels)
    X = build_similarity_matrix(apply_reduction(ds, PARAMS), PARAMS)
    W = bray_curtis_symmetrize(X)
    spec = spectrum(build_laplacian(W))
    scores = compute_scores(spec)
    return X.values, W.values, spec.eigenvalues, np.array(
        [scores.cmsauls, scores.csg, scores.auls])


@pytest.fixture(scope="module")
def blobs():
    ds = load_csv(str(BLOBS))
    return ds.features, ds.labels, run(ds.features, ds.labels)


@pytest.mark.parametrize("seed", range(5))
def test_feature_permutation_is_bit_identical(blobs, seed):
    features, labels, base = blobs
    perm = np.random.default_rng(seed).permutation(features.shape[1])
    # Chebyshev distance takes a max over coordinates, which is exact.
    for got, want in zip(run(features[:, perm], labels), base):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("seed", range(3))
def test_class_relabeling_keeps_scores(blobs, seed):
    features, labels, base = blobs
    perm = np.random.default_rng(seed).permutation(labels.max() + 1)
    np.testing.assert_allclose(run(features, perm[labels])[3], base[3],
                               rtol=1e-12, atol=0)


def test_translation_keeps_scores(blobs):
    features, labels, base = blobs
    np.testing.assert_allclose(run(features + 1e3, labels)[3], base[3],
                               rtol=1e-12, atol=0)


@pytest.mark.xfail(strict=True, reason=(
    "the score depends on the feature unit: the radius floor is absolute "
    "below a span of 1, and (2r)^d overflows at large scales (ROADMAP "
    "items 3 and 10)"))
@pytest.mark.parametrize("scale", [1e-13, 1e110])
def test_scaling_keeps_scores(blobs, scale):
    features, labels, base = blobs
    np.testing.assert_allclose(run(features * scale, labels)[3], base[3],
                               rtol=1e-12, atol=0)
