import xml.dom.minidom

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectral_complexity import (ComplexityScores, DataError, Laplacian,
                                 NumericError, Spectrum, SymmetricAffinity,
                                 auls, build_laplacian, cmsauls, compute_scores,
                                 csg, scaled_area_increments, spectrum,
                                 spectrum_svg)


def random_affinity(rng, n):
    W = rng.uniform(size=(n, n))
    W = (W + W.T) / 2.0
    np.fill_diagonal(W, 1.0)
    return SymmetricAffinity(values=W)


class TestLaplacian:
    def test_identity_affinity_gives_zero_matrix(self):
        L = build_laplacian(SymmetricAffinity(values=np.eye(3)))
        assert np.array_equal(L.values, np.zeros((3, 3)))

    def test_two_node_all_ones(self):
        L = build_laplacian(SymmetricAffinity(values=np.ones((2, 2))))
        assert np.array_equal(L.values, np.array([[1.0, -1.0], [-1.0, 1.0]]))

    def test_row_sums_zero(self):
        rng = np.random.default_rng(0)
        L = build_laplacian(random_affinity(rng, 7))
        assert np.abs(L.values.sum(axis=1)).max() < 1e-12

    def test_rejects_positive_off_diagonal(self):
        vals = np.array([[0.5, 0.5, -1.0],
                         [0.5, 0.5, -1.0],
                         [-1.0, -1.0, 2.0]])
        with pytest.raises(DataError, match="off-diagonal"):
            Laplacian(values=vals)

    def test_rejects_asymmetric(self):
        with pytest.raises(DataError, match="symmetric"):
            Laplacian(values=np.array([[1.0, -1.0], [-0.5, 0.5]]))

    def test_rejects_nonzero_row_sum(self):
        with pytest.raises(DataError, match="sum to 0"):
            Laplacian(values=np.array([[2.0, -1.0], [-1.0, 2.0]]))


class TestSpectrum:
    def test_zero_graph_spectrum(self):
        s = spectrum(build_laplacian(SymmetricAffinity(values=np.eye(10))))
        assert np.array_equal(s.eigenvalues, np.zeros(10))

    def test_two_node_unit_edge(self):
        s = spectrum(build_laplacian(SymmetricAffinity(values=np.ones((2, 2)))))
        assert s.eigenvalues == pytest.approx([0.0, 2.0], abs=1e-12)

    def test_complete_triangle(self):
        s = spectrum(build_laplacian(SymmetricAffinity(values=np.ones((3, 3)))))
        assert s.eigenvalues == pytest.approx([0.0, 3.0, 3.0], abs=1e-12)

    def test_validation_rejects_decreasing(self):
        with pytest.raises(DataError, match="nondecreasing"):
            Spectrum(eigenvalues=np.array([0.0, 2.0, 1.0]))

    def test_validation_rejects_negative(self):
        with pytest.raises(DataError, match="nonnegative"):
            Spectrum(eigenvalues=np.array([-0.5, 1.0]))

    def test_validation_rejects_missing_zero_mode(self):
        with pytest.raises(DataError, match="smallest"):
            Spectrum(eigenvalues=np.array([0.5, 1.0]))

    def test_indefinite_matrix_raises(self):
        # Bypasses construction checks to exercise the PSD guard, which
        # is unreachable through a valid affinity.
        L = object.__new__(Laplacian)
        object.__setattr__(L, "values", np.array([[0.0, 1.0], [1.0, 0.0]]))
        with pytest.raises(NumericError, match="not PSD"):
            spectrum(L)


class TestScores:
    def test_increment_single_gap(self):
        s = Spectrum(eigenvalues=np.array([0.0, 1.0]))
        assert scaled_area_increments(s) == pytest.approx([0.25], abs=1e-15)

    def test_increment_pair(self):
        s = Spectrum(eigenvalues=np.array([0.0, 0.5, 1.0]))
        inc = scaled_area_increments(s)
        assert inc == pytest.approx([1.0 / 24.0, 0.1875], abs=1e-15)

    def test_hand_values(self):
        s = Spectrum(eigenvalues=np.array([0.0, 0.5, 1.0]))
        assert cmsauls(s) == pytest.approx(0.22916666666666666, abs=1e-9)
        assert csg(s) == pytest.approx(0.41666666666666663, abs=1e-9)
        assert auls(s) == pytest.approx(1.0, abs=1e-9)

    def test_cummax_dominates_plain_sum(self):
        s = Spectrum(eigenvalues=np.array([0.0, np.sqrt(1.8), np.sqrt(2.2)]))
        inc = scaled_area_increments(s)
        assert inc.sum() == pytest.approx(0.4, abs=1e-12)
        assert cmsauls(s) == pytest.approx(0.6, abs=1e-12)

    def test_cummax_is_lower_bounded_by_sum(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            lam = np.sort(np.abs(rng.standard_normal(8)))
            lam[0] = 0.0
            s = Spectrum(eigenvalues=lam)
            assert cmsauls(s) >= scaled_area_increments(s).sum() - 1e-12

    def test_equality_when_increments_nondecreasing(self):
        # lam_i = sqrt(i * (i+3)) makes increments rise strictly.
        idx = np.arange(6, dtype=float)
        s = Spectrum(eigenvalues=np.sqrt(idx * (idx + 3.0)))
        inc = scaled_area_increments(s)
        assert np.all(np.diff(inc) >= 0)
        assert cmsauls(s) == pytest.approx(inc.sum(), abs=1e-15)

    def test_single_eigenvalue_rejected(self):
        s = Spectrum(eigenvalues=np.array([0.0]))
        for fn in (scaled_area_increments, cmsauls, csg, auls):
            with pytest.raises(DataError, match="at least 2"):
                fn(s)

    def test_compute_scores_bundle(self):
        s = Spectrum(eigenvalues=np.array([0.0, 0.5, 1.0]))
        scores = compute_scores(s)
        assert scores == ComplexityScores(cmsauls=cmsauls(s), csg=csg(s),
                                          auls=auls(s))

    @pytest.mark.parametrize("alpha", [0.0, 0.25, 0.5, 1.0])
    def test_two_class_closed_form(self, alpha):
        W = SymmetricAffinity(values=np.array([[1.0, alpha], [alpha, 1.0]]))
        scores = compute_scores(spectrum(build_laplacian(W)))
        assert abs(scores.cmsauls - alpha ** 2) <= 1e-12
        assert abs(scores.csg - alpha) <= 1e-12
        assert abs(scores.auls - alpha) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31 - 1),
       st.integers(min_value=3, max_value=12),
       st.floats(min_value=0.001, max_value=1000.0))
def test_scaling_laws(seed, n, scale):
    rng = np.random.default_rng(seed)
    lam = np.sort(np.abs(rng.standard_normal(n)))
    lam[0] = 0.0
    s = Spectrum(eigenvalues=lam)
    scaled = Spectrum(eigenvalues=lam * scale)
    rel = 1e-12
    assert abs(cmsauls(scaled) - scale ** 2 * cmsauls(s)) \
        <= rel * max(1.0, scale ** 2 * cmsauls(s))
    assert abs(csg(scaled) - scale * csg(s)) <= rel * max(1.0, scale * csg(s))
    assert abs(auls(scaled) - scale * auls(s)) \
        <= rel * max(1.0, scale * auls(s))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31 - 1),
       st.integers(min_value=3, max_value=10))
def test_permutation_invariance(seed, n):
    rng = np.random.default_rng(seed)
    W = random_affinity(rng, n)
    perm = rng.permutation(n)
    W_p = SymmetricAffinity(values=W.values[np.ix_(perm, perm)])
    a = spectrum(build_laplacian(W)).eigenvalues
    b = spectrum(build_laplacian(W_p)).eigenvalues
    assert np.abs(a - b).max() < 1e-9


class TestSpectrumSvg:
    def test_well_formed_xml(self):
        s = Spectrum(eigenvalues=np.array([0.0, 0.4, 1.1, 2.0]))
        doc = xml.dom.minidom.parseString(spectrum_svg(s))
        assert doc.documentElement.tagName == "svg"

    def test_marker_per_eigenvalue(self):
        s = Spectrum(eigenvalues=np.linspace(0.0, 3.0, 10))
        svg = spectrum_svg(s)
        assert svg.count("<circle") == 10
        assert svg.count("<polyline") == 1

    def test_zero_spectrum_is_flat_baseline(self):
        s = Spectrum(eigenvalues=np.zeros(5))
        svg = spectrum_svg(s)
        doc = xml.dom.minidom.parseString(svg)
        ys = {c.getAttribute("cy")
              for c in doc.getElementsByTagName("circle")}
        assert len(ys) == 1

    def test_large_n_labels_endpoints_only(self):
        s = Spectrum(eigenvalues=np.linspace(0.0, 1.0, 25))
        svg = spectrum_svg(s)
        doc = xml.dom.minidom.parseString(svg)
        texts = [t.firstChild.data
                 for t in doc.getElementsByTagName("text")]
        assert "24" in texts and "12" not in texts


def test_spectrum_refuses_non_1d_input():
    with pytest.raises(DataError,
                       match=r"^spectrum must be 1-D, got shape \(2, 1\)$"):
        Spectrum(eigenvalues=[[0.0], [1.0]])
