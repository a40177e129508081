"""Dataset classification-complexity scoring from Laplacian spectra.

Pipeline: load a labeled feature dataset, optionally reduce it with
PCA, estimate the inter-class similarity matrix by Monte-Carlo k-NN
density, symmetrize it with Bray-Curtis similarity, and summarize the
Laplacian spectrum of the resulting class graph into scalar complexity
scores. Higher scores mean harder classification problems.
"""

from .analysis import (BenchmarkResult, CorrelationResult, InterClassMap,
                       SyntheticSuite, bayes_error_oracle, classical_mds,
                       gen_gaussian_suite, pearson, rank_correlation,
                       run_benchmark)
from .descriptors import (DescriptorReport, compute_descriptors, f1, f2, f3,
                          n1, n2, n3, t2)
from .errors import DataError, NumericError, SpectralComplexityError
from .ingest import (HyperParams, LabeledDataset, ReductionMeta, ReductionSpec,
                     class_partition, load_csv, load_binary, load_dataset)
from .reduce import PCAModel, apply_reduction, fit_pca
from .report import (benchmark_svg, build_benchmark_report, build_report,
                     emit_report, matrix_from_report, mds_svg, parse_report,
                     serialize, spectrum_svg)
from .similarity import (ClassSimilarityMatrix, SimilarityDiagnostics,
                         SymmetricAffinity, bray_curtis_symmetrize,
                         build_similarity_matrix, class_pair_expectation,
                         knn_density, pair_rng)
from .spectral import (ComplexityScores, Laplacian, Spectrum, auls,
                       build_laplacian, cmsauls, compute_scores, csg,
                       scaled_area_increments, spectrum)

from .report import TOOL_VERSION as __version__

__all__ = [
    "BenchmarkResult", "ClassSimilarityMatrix", "ComplexityScores",
    "CorrelationResult", "DataError", "DescriptorReport",
    "HyperParams", "InterClassMap", "LabeledDataset", "Laplacian",
    "NumericError", "PCAModel", "ReductionMeta", "ReductionSpec",
    "SimilarityDiagnostics", "Spectrum", "SpectralComplexityError",
    "SymmetricAffinity", "SyntheticSuite", "apply_reduction", "auls",
    "bayes_error_oracle", "benchmark_svg", "bray_curtis_symmetrize",
    "build_benchmark_report", "build_laplacian", "build_report",
    "build_similarity_matrix", "class_pair_expectation", "class_partition",
    "classical_mds", "cmsauls", "compute_descriptors", "compute_scores",
    "csg", "emit_report", "f1", "f2", "f3", "fit_pca", "gen_gaussian_suite",
    "knn_density", "load_binary", "load_csv", "load_dataset",
    "matrix_from_report", "mds_svg", "n1", "n2", "n3", "pair_rng",
    "parse_report", "pearson", "rank_correlation", "run_benchmark",
    "scaled_area_increments", "serialize", "spectrum", "spectrum_svg", "t2",
]
