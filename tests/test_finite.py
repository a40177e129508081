"""Every result type refuses NaN and infinities with DataError.

Each case poisons one entry of an otherwise valid value. The pytest
configuration turns any RuntimeWarning into an error, so a check that
lets numpy warn on the way to its refusal fails here too.
"""

import numpy as np
import pytest

from spectral_complexity import (ClassSimilarityMatrix, DataError,
                                 DescriptorReport, HyperParams, InterClassMap,
                                 LabeledDataset, Laplacian,
                                 SimilarityDiagnostics, Spectrum,
                                 SymmetricAffinity, build_laplacian,
                                 classical_mds, spectrum)

DESCRIPTOR_BASE = dict(f1=0.5, f2=0.5, f3=0.5, n1=0.5, n2=0.5, n3=0.5, t2=10.0)


def mirrored(base, v):
    """base with entries (0, 1) and (1, 0) set to v."""
    out = np.array(base, dtype=np.float64)
    out[0, 1] = out[1, 0] = v
    return out


CONSTRUCTORS = {
    "LabeledDataset": lambda v: LabeledDataset(
        features=mirrored([[0.0, 0.0], [1.0, 1.0]], v), labels=[0, 1]),
    "ClassSimilarityMatrix": lambda v: ClassSimilarityMatrix(
        values=mirrored([[0.5, 0.5], [0.5, 0.5]], v), params=HyperParams(),
        row_normalized=False, includes_diagonal=True,
        diagnostics=SimilarityDiagnostics()),
    "SymmetricAffinity": lambda v: SymmetricAffinity(
        values=mirrored(np.ones((2, 2)), v)),
    "Laplacian": lambda v: Laplacian(
        values=mirrored([[1.0, -1.0], [-1.0, 1.0]], v)),
    "Spectrum": lambda v: Spectrum(eigenvalues=[0.0, 1.0, v]),
    "InterClassMap.coordinates": lambda v: InterClassMap(
        coordinates=[[1.0, v], [-1.0, -v]], stress=0.0),
    "InterClassMap.stress": lambda v: InterClassMap(
        coordinates=[[1.0, 0.0], [-1.0, 0.0]], stress=v),
    "classical_mds": lambda v: classical_mds(mirrored(np.zeros((2, 2)), v)),
}
for _name in DESCRIPTOR_BASE:
    CONSTRUCTORS[f"DescriptorReport.{_name}"] = (
        lambda v, name=_name: DescriptorReport(**{**DESCRIPTOR_BASE, name: v}))

# f1 (zero within-class variance) and n2 (zero inter-class distance)
# are documented to reach +inf.
ALLOWED = {("DescriptorReport.f1", np.inf), ("DescriptorReport.n2", np.inf)}

CASES = [(name, v) for name in CONSTRUCTORS for v in (np.nan, np.inf, -np.inf)
         if (name, v) not in ALLOWED]


@pytest.mark.parametrize("name,value", CASES,
                         ids=[f"{name}-{v}" for name, v in CASES])
def test_non_finite_entry_is_refused(name, value):
    with pytest.raises(DataError):
        CONSTRUCTORS[name](value)


@pytest.mark.parametrize("name", ["DescriptorReport.f1", "DescriptorReport.n2"])
def test_documented_infinite_descriptors_are_kept(name):
    assert CONSTRUCTORS[name](np.inf) is not None


EMPTY = {
    "ClassSimilarityMatrix": lambda v: ClassSimilarityMatrix(
        values=v, params=HyperParams(), row_normalized=False,
        includes_diagonal=True, diagnostics=SimilarityDiagnostics()),
    "SymmetricAffinity": lambda v: SymmetricAffinity(values=v),
    "Laplacian": lambda v: Laplacian(values=v),
    "classical_mds": classical_mds,
}


@pytest.mark.parametrize("name", list(EMPTY))
def test_empty_matrix_is_refused(name):
    # A 0x0 matrix holds no NaN, and max() has nothing to reduce over it.
    with pytest.raises(DataError, match="non-empty square"):
        EMPTY[name](np.zeros((0, 0)))


def test_nan_affinity_stops_at_its_constructor():
    W = mirrored(np.ones((3, 3)), np.nan)
    with pytest.raises(DataError, match="affinity entries must be finite"):
        spectrum(build_laplacian(SymmetricAffinity(values=W)))
