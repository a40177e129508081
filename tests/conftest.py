import numpy as np
import pytest
from hypothesis import settings

from spectral_complexity import HyperParams, LabeledDataset, apply_reduction

# Every property test draws the same examples on every run, with no
# example database and no per-example deadline.
settings.register_profile("tier1", derandomize=True, database=None,
                          deadline=None)
settings.load_profile("tier1")


def make_blobs(centers, per_class=40, scale=0.5, seed=7):
    """Gaussian blob dataset with one class per center."""
    rng = np.random.default_rng(seed)
    centers = np.atleast_2d(np.asarray(centers, dtype=np.float64))
    feats = np.vstack([
        c + rng.normal(scale=scale, size=(per_class, centers.shape[1]))
        for c in centers
    ])
    labels = np.repeat(np.arange(centers.shape[0]), per_class)
    return LabeledDataset(features=feats, labels=labels)


def embed(ds, params=None):
    return apply_reduction(ds, params or HyperParams())


@pytest.fixture
def blob_csv(tmp_path):
    """Three well-separated 2-D blobs written as a CSV file."""
    ds = make_blobs([(0.0, 0.0), (30.0, 30.0), (60.0, 0.0)], per_class=40)
    path = tmp_path / "blobs.csv"
    lines = ["x1,x2,label"]
    for row, lab in zip(ds.features, ds.labels):
        lines.append(f"{row[0]:.9f},{row[1]:.9f},c{lab}")
    path.write_text("\n".join(lines) + "\n")
    return path
