"""Evaluation machinery: correlation, 2-D class maps, synthetic benchmark.

The benchmark generates Gaussian class clouds at controlled separations,
scores them with the spectral metrics, and correlates the scores with a
Monte-Carlo Bayes-error oracle computed from the true densities. The
oracle is the ground truth here: a good complexity metric must track
the error an ideal classifier would attain.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .errors import DataError, NumericError
from .ingest import (HyperParams, LabeledDataset, _checked_matrix, _store,
                     class_partition)
from .reduce import apply_reduction
from .descriptors import DESCRIPTORS, compute_descriptors
from .similarity import (ClassSimilarityMatrix, SymmetricAffinity, _draw_sizes,
                         build_similarity_matrix, bray_curtis_symmetrize)
from .spectral import (METRICS, ComplexityScores, Laplacian, Spectrum,
                       build_laplacian, compute_scores, spectrum)


@dataclass(frozen=True)
class PipelineResult:
    """What each scoring stage returned for one dataset."""

    emb: LabeledDataset
    X: ClassSimilarityMatrix
    W: SymmetricAffinity
    L: Laplacian
    spec: Spectrum
    scores: ComplexityScores


def run_pipeline(ds: LabeledDataset, params: HyperParams, *,
                 row_normalize: bool = True,
                 include_diagonal: bool = True) -> PipelineResult:
    """Score one dataset: reduce, class similarity, Bray-Curtis, spectrum.

    The keywords are build_similarity_matrix's. Each stage is looked up
    as a global of this module at call time, so a wrapper set on
    `analysis.<stage>` (as bench/trace_job.py sets) sees every call.
    NumericError refuses an X that holds no nonzero entry, or whose every
    density was floored or clamped: Bray-Curtis would turn either into
    W = 1, the maximum score, whatever the classes are.
    """
    emb = apply_reduction(ds, params)
    X = build_similarity_matrix(emb, params, row_normalize=row_normalize,
                                include_diagonal=include_diagonal)
    scored = (sum(_draw_sizes(class_partition(emb), params)[0])
              * (emb.n_classes - (not include_diagonal)))
    if not X.values.any() or X.diagnostics.degenerate_densities == scored:
        raise NumericError("every class-pair density is 0, or every one is "
                           "floored, at this feature scale, so the score "
                           "would read its maximum; rescale the features or "
                           "try --reduce pca:<d>")
    W = bray_curtis_symmetrize(X)
    L = build_laplacian(W)
    spec = spectrum(L)
    return PipelineResult(emb=emb, X=X, W=W, L=L, spec=spec,
                          scores=compute_scores(spec))


@dataclass(frozen=True)
class CorrelationResult:
    """Sample Pearson r with its two-tailed p-value and sample count."""

    r: float
    p_value: float
    sample_count: int

    def __post_init__(self) -> None:
        if not -1.0 <= self.r <= 1.0:
            raise DataError(f"r must lie in [-1, 1], got {self.r}")
        if not 0.0 <= self.p_value <= 1.0:
            raise DataError(f"p-value must lie in [0, 1], got {self.p_value}")
        if self.sample_count < 3:
            raise DataError(f"sample count must be >= 3, got {self.sample_count}")


@dataclass(frozen=True)
class InterClassMap:
    """2-D class coordinates from classical MDS, plus the residual stress.

    A float64 `coordinates` array is kept without a copy and made read-only,
    the caller's own array included; copy it first to keep writing to
    it. Other input is converted into a new array.
    """

    coordinates: np.ndarray
    stress: float

    def __post_init__(self) -> None:
        coords = np.asarray(self.coordinates, dtype=np.float64)
        if (coords.ndim != 2 or coords.shape[1] != 2 or not len(coords)
                or not np.isfinite(coords).all()):
            raise DataError("coordinates must be a finite (n, 2) array, "
                            f"got shape {coords.shape}")
        tol = 1e-9 * np.abs(coords).max(initial=1.0)
        if np.abs(coords.mean(axis=0)).max() > tol:
            raise DataError("coordinates must be centered at the origin")
        if not 0.0 <= self.stress < np.inf:
            raise DataError(f"stress must be finite and >= 0, got {self.stress}")
        _store(self, coordinates=coords)


@dataclass(frozen=True)
class SyntheticSuite:
    """Gaussian datasets at decreasing separations with oracle error rates."""

    datasets: tuple[LabeledDataset, ...]
    separations: tuple[float, ...]
    oracle_errors: tuple[float, ...]
    oracle_stderrs: tuple[float, ...]

    def __post_init__(self) -> None:
        lengths = {len(self.datasets), len(self.separations),
                   len(self.oracle_errors), len(self.oracle_stderrs)}
        if len(lengths) != 1:
            raise DataError("suite lists must share one length")
        if len(self.datasets) < 3:
            raise DataError("suite needs at least 3 datasets")


def pearson(x, y) -> CorrelationResult:
    """Sample Pearson correlation with an exact two-tailed t-test p-value.

    p comes from the regularized incomplete beta form of the t
    distribution with m-2 degrees of freedom; |r| = 1 maps to p = 0.
    """
    from scipy.special import betainc
    xv = np.asarray(x, dtype=np.float64).ravel()
    yv = np.asarray(y, dtype=np.float64).ravel()
    if xv.size != yv.size:
        raise DataError(f"length mismatch: {xv.size} vs {yv.size}")
    m = xv.size
    if m < 3:
        raise DataError(f"need at least 3 points, got {m}")
    if not (np.isfinite(xv).all() and np.isfinite(yv).all()):
        raise NumericError("non-finite value: correlation undefined")
    # Scaling each side by the power of two that brings its largest |value|
    # into [0.5, 1) is exact, so r is unchanged, and neither the means nor
    # the sums of squares below can overflow.
    xv = np.ldexp(xv, -np.frexp(np.abs(xv).max())[1])
    yv = np.ldexp(yv, -np.frexp(np.abs(yv).max())[1])
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


def _average_ranks(values) -> np.ndarray:
    """1-based ranks of the raveled values, a tie group sharing its mean
    rank: scipy.stats.rankdata's default. Any NaN makes every rank NaN."""
    x = np.asarray(values).ravel()
    order = np.argsort(x, kind="stable")
    ranked = x[order]
    if (ranked != ranked).any():
        return np.full(x.size, np.nan)
    starts = np.flatnonzero(np.r_[True, ranked[1:] != ranked[:-1]])
    ends = np.r_[starts[1:], x.size]
    ranks = np.empty(x.size)
    ranks[order] = np.repeat(0.5 * (starts + ends + 1), ends - starts)
    return ranks


def rank_correlation(x, y) -> float:
    """Spearman rho: Pearson correlation of the average-rank transforms."""
    return pearson(_average_ranks(x), _average_ranks(y)).r


def classical_mds(U: np.ndarray) -> InterClassMap:
    """Embed a dissimilarity matrix into 2-D by double centering.

    B = -1/2 C (U*U) C with C the centering matrix; coordinates come
    from the top-2 eigenpairs of B with negative eigenvalues clamped.
    Each axis is flipped so its largest-magnitude coordinate is
    positive. Stress is the sum of squared distance residuals over
    unordered pairs.
    """
    U = _checked_matrix(U, "dissimilarity matrix", symmetric=True)
    if U.shape[0] < 2:
        raise DataError(f"need at least 2 classes to embed, got {U.shape[0]}")
    if np.any(U < 0):
        raise DataError("dissimilarities must be nonnegative")
    if np.any(np.diag(U) != 0):
        raise DataError("dissimilarity diagonal must be zero")
    n = U.shape[0]
    C = np.eye(n) - 1.0 / n
    with np.errstate(over="ignore", invalid="ignore"):
        B = -0.5 * C @ (U * U) @ C
    if not np.isfinite(B).all():
        raise DataError("dissimilarities too large to embed")
    evals, evecs = np.linalg.eigh(B)
    top = np.clip(evals[[-1, -2]], 0.0, None)
    # Eigenvalue noise around 0 rides on near-constant eigenvectors and
    # would leak an uncentered axis; rank-deficient inputs get a true 0.
    top[top < 1e-10 * max(1.0, float(top[0]))] = 0.0
    coords = evecs[:, [-1, -2]] * np.sqrt(top)
    peak = np.abs(coords).argmax(axis=0)
    coords *= np.where(coords[peak, [0, 1]] < 0, -1.0, 1.0)
    iu, ju = np.triu_indices(n, k=1)
    dist = np.sqrt(((coords[iu] - coords[ju]) ** 2).sum(axis=1))
    stress = float(((U[iu, ju] - dist) ** 2).sum())
    return InterClassMap(coordinates=coords, stress=stress)


def _simplex_vertices(n: int, dim: int) -> np.ndarray:
    """Regular simplex with unit edge, centered at the origin, in R^dim.

    A regular n-simplex needs n-1 dimensions; when dim is smaller the
    extra simplex axes fold onto existing ones (axis j contributes to
    coordinate j mod dim) and the result is rescaled so the minimum
    pairwise vertex distance is 1 again.
    """
    basis = np.zeros((n - 1, n))
    for k in range(1, n):
        basis[k - 1, :k] = 1.0 / np.sqrt(k * (k + 1))
        basis[k - 1, k] = -k / np.sqrt(k * (k + 1))
    centered = (np.eye(n) - 1.0 / n) / np.sqrt(2.0)
    verts = centered @ basis.T
    folded = np.zeros((n, dim))
    np.add.at(folded.T, np.arange(n - 1) % dim, verts.T)
    if n - 1 <= dim:
        return folded
    # A running sum over coordinates: numpy reorders a sum along an
    # axis of 8 or more, and this order equals scipy's pdist bit for bit.
    iu, ju = np.triu_indices(n, k=1)
    spacing = np.sqrt(sum((folded[iu, c] - folded[ju, c]) ** 2
                          for c in range(dim))).min()
    if spacing <= 0:
        raise NumericError(
            f"mean placement collapsed for {n} classes in {dim} dimensions"
        )
    return folded / spacing


def _keep_max(best: np.ndarray, index: np.ndarray, score: np.ndarray,
              label: int) -> None:
    """One step of a running argmax over rows, with np.argmax's rules.

    Where score beats best, best takes score and index takes label; feed
    it rows 0, 1, ... from best = -inf and index = 0, and index ends as
    np.argmax(axis=0) of the stacked rows: the lowest row wins a tie, and
    the first NaN wins outright.
    """
    better = ~(score <= best)
    better &= best == best
    np.copyto(best, score, where=better)
    np.copyto(index, label, where=better)


def bayes_error_oracle(means, covariances, priors, trials: int,
                       seed) -> tuple[float, float]:
    """Monte-Carlo estimate of the minimum achievable error of a mixture.

    Draws `trials` labeled samples from the mixture and classifies each
    by the true prior-weighted densities: the lowest class index wins a
    tie, and a NaN log density wins outright, as in np.argmax. Returns
    (error rate, standard error). numpy only, one source class at a time:
    its samples are drawn, in class order, and held coordinate-major,
    (dim, count), and each target class's triangular solve, squared norm
    and running argmax work on contiguous rows of them.
    """
    mu = np.atleast_2d(np.asarray(means, dtype=np.float64))
    n, dim = mu.shape
    covs = np.asarray(covariances, dtype=np.float64)
    if covs.shape != (n, dim, dim):
        raise DataError(
            f"covariances must have shape {(n, dim, dim)}, got {covs.shape}"
        )
    pri = np.asarray(priors, dtype=np.float64).ravel()
    if pri.size != n or np.any(pri < 0) or abs(pri.sum() - 1.0) > 1e-9:
        raise DataError("priors must be nonnegative and sum to 1")
    if trials < 10_000:
        raise DataError(f"need at least 10000 trials, got {trials}")
    chol = []
    for c in range(n):
        try:
            chol.append(np.linalg.cholesky(covs[c]))
        except np.linalg.LinAlgError:
            raise NumericError(f"covariance of class {c} is singular") from None
    rng = np.random.default_rng(seed)
    counts = rng.multinomial(trials, pri)
    with np.errstate(divide="ignore"):
        log_priors = np.log(pri)
    log_dets = [float(np.log(np.diag(L)).sum()) for L in chol]
    wrong = 0
    for s in range(n):
        XT = np.ascontiguousarray(
            (mu[s] + rng.standard_normal((counts[s], dim)) @ chol[s].T).T)
        z = np.empty_like(XT)
        best = np.full(counts[s], -np.inf)
        predicted = np.zeros(counts[s], dtype=np.intp)
        for c in range(n):
            L = chol[c]
            # Forward substitution, L z = x - mu[c], one coordinate row at a
            # time; a zero of L adds nothing. A distance past the float64
            # range is an exact -inf log density, and a NaN from inf - inf
            # goes to the argmax without a warning.
            with np.errstate(over="ignore", invalid="ignore"):
                for i in range(dim):
                    np.subtract(XT[i], mu[c, i], out=z[i])
                    for k in np.flatnonzero(L[i, :i]):
                        z[i] -= L[i, k] * z[k]
                    if L[i, i] != 1.0:
                        z[i] /= L[i, i]
                # Bit for bit z.sum(axis=0), in place: a running sum of rows.
                mahalanobis = np.square(z, out=z)[0]
                for row in z[1:]:
                    mahalanobis += row
            mahalanobis *= 0.5
            score = np.subtract(log_priors[c], mahalanobis, out=mahalanobis)
            score -= log_dets[c]
            score -= 0.5 * dim * np.log(2.0 * np.pi)
            _keep_max(best, predicted, score, c)
        wrong += int(np.count_nonzero(predicted != s))
    error = wrong / trials
    stderr = float(np.sqrt(error * (1.0 - error) / trials))
    return error, stderr


def gen_gaussian_suite(n_classes: int, dim: int, per_class: int,
                       separations, seed: int,
                       trials: int = 100_000) -> SyntheticSuite:
    """Isotropic Gaussian classes on a shrinking simplex of means.

    For each separation s, class means sit at s times the unit-edge
    simplex vertices, with identity covariance and per_class samples
    per class. Dataset and oracle RNG streams derive from (seed, index)
    so the suite is reproducible regardless of evaluation order.
    """
    if n_classes < 2:
        raise DataError(f"need at least 2 classes, got {n_classes}")
    if dim < 1:
        raise DataError(f"dim must be >= 1, got {dim}")
    if per_class < 10:
        raise DataError(f"per_class must be >= 10, got {per_class}")
    seps = tuple(float(s) for s in separations)
    if len(seps) < 3:
        raise DataError(f"need at least 3 separations, got {len(seps)}")
    if not all(0 <= s < np.inf for s in seps):
        raise DataError("separations must be finite and nonnegative")
    verts = _simplex_vertices(n_classes, dim)
    covs = np.broadcast_to(np.eye(dim), (n_classes, dim, dim))
    priors = np.full(n_classes, 1.0 / n_classes)
    labels = np.repeat(np.arange(n_classes), per_class)
    datasets, errors, stderrs = [], [], []
    for idx, s in enumerate(seps):
        means = s * verts
        rng = np.random.default_rng(np.random.SeedSequence([seed, idx, 0]))
        feats = (np.repeat(means, per_class, axis=0)
                 + rng.standard_normal((n_classes * per_class, dim)))
        datasets.append(LabeledDataset(features=feats, labels=labels))
        err, se = bayes_error_oracle(
            means, covs, priors, trials, np.random.SeedSequence([seed, idx, 1])
        )
        errors.append(err)
        stderrs.append(se)
    return SyntheticSuite(datasets=tuple(datasets), separations=seps,
                          oracle_errors=tuple(errors),
                          oracle_stderrs=tuple(stderrs))


@dataclass(frozen=True)
class BenchmarkResult:
    """Per-dataset metric values and their correlations with the oracle."""

    separations: tuple[float, ...]
    oracle_errors: tuple[float, ...]
    oracle_stderrs: tuple[float, ...]
    metric_values: dict[str, tuple[float, ...]]
    correlations: dict[str, CorrelationResult]
    skipped_metrics: tuple[str, ...] = ()


def run_benchmark(suite: SyntheticSuite, params: HyperParams,
                  include_descriptors: bool = False) -> BenchmarkResult:
    """Score every suite dataset and correlate each metric with the oracle.

    Metrics that pearson refuses, for a non-finite value (f1 can be
    +inf) or zero variance, are listed in skipped_metrics instead.
    """
    names = METRICS + (DESCRIPTORS if include_descriptors else ())
    columns: dict[str, list[float]] = {name: [] for name in names}
    for ds in suite.datasets:
        run = run_pipeline(ds, params)
        values = asdict(run.scores)
        if include_descriptors:
            values.update(asdict(compute_descriptors(run.emb)))
        del run  # not held while the next dataset is scored
        for name, column in columns.items():
            column.append(values[name])
    correlations: dict[str, CorrelationResult] = {}
    skipped: list[str] = []
    for name, values in columns.items():
        try:
            correlations[name] = pearson(values, suite.oracle_errors)
        except NumericError:
            skipped.append(name)
    return BenchmarkResult(
        separations=suite.separations,
        oracle_errors=suite.oracle_errors,
        oracle_stderrs=suite.oracle_stderrs,
        metric_values={k: tuple(v) for k, v in columns.items()},
        correlations=correlations,
        skipped_metrics=tuple(skipped),
    )
