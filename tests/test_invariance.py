"""Metamorphic checks: transformations of the input that should not move
the scores, run end to end on the golden blobs.csv input."""

from pathlib import Path

import numpy as np
import pytest

from spectral_complexity import (HyperParams, LabeledDataset, NumericError,
                                 load_csv, run_pipeline)

BLOBS = Path(__file__).parent / "golden" / "inputs" / "blobs.csv"
# Every class of blobs.csv has 100 rows, so the defaults use all of them.
PARAMS = HyperParams()


def run(features, labels):
    out = run_pipeline(LabeledDataset(features=features, labels=labels),
                       PARAMS)
    return out.X.values, out.W.values, out.spec.eigenvalues, np.array(
        [out.scores.cmsauls, out.scores.csg, out.scores.auls])


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


# The score depends on the feature unit: the radius floor is absolute
# below a span of 1, and (2r)^d overflows at large scales (ROADMAP items 3
# and 10). A scale where every density is floored or 0 is refused; if the
# refusal stops firing, these cases fail instead of passing as xfails.
@pytest.mark.parametrize("scale", [
    pytest.param(1e-13, marks=pytest.mark.xfail(
        strict=True, raises=NumericError, reason="all floored: refused")),
    pytest.param(1e110, marks=pytest.mark.xfail(
        strict=True, raises=NumericError, reason="all 0: refused")),
    # 377 of the densities floored, no warning: cmsauls reads
    # 2.4499972726529142 against 1.1570155701302114 (ROADMAP item 10).
    pytest.param(1e-12, marks=pytest.mark.xfail(
        strict=True, raises=AssertionError, reason="scores silently")),
])
def test_scaling_keeps_scores(blobs, scale):
    features, labels, base = blobs
    np.testing.assert_allclose(run(features * scale, labels)[3], base[3],
                               rtol=1e-12, atol=0)
