"""Command-line front end.

Four subcommands: `complexity` scores a dataset file end to end,
`benchmark` runs the synthetic Gaussian suite against the Bayes-error
oracle, `mds` draws the 2-D inter-class map from a stored report, and
`descriptors` computes the classical baselines only.

Exit codes: 0 success, 2 input error, 3 numeric failure or out of
memory.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import asdict

from . import analysis
from .descriptors import DESCRIPTORS, compute_descriptors
from .errors import DataError, NumericError, SpectralComplexityError
from .ingest import HyperParams, ReductionSpec, load_dataset
from .reduce import apply_reduction
from .report import (benchmark_svg, build_benchmark_report, build_report,
                     dataset_block, emit_report, header, matrix_from_report,
                     mds_svg, parse_report, spectrum_svg, write_text)
# Of these, only METRICS is used here: bench/trace_job.py is the one reader
# of the five stage names, which it wraps in this namespace by getattr.
from .similarity import bray_curtis_symmetrize, build_similarity_matrix
from .spectral import METRICS, build_laplacian, compute_scores, spectrum


def _resolve_threads(args) -> int:
    """--threads if given, else $SPECTRAL_COMPLEXITY_THREADS, else 1."""
    value = args.threads
    if value is None:
        raw = os.environ.get("SPECTRAL_COMPLEXITY_THREADS", "1")
        try:
            value = int(raw)
        except ValueError:
            raise DataError(
                f"SPECTRAL_COMPLEXITY_THREADS must be an integer, got {raw!r}"
            ) from None
    if value < 1:
        raise DataError(f"thread count must be >= 1, got {value}")
    return value


def _parse_metrics(text: str) -> tuple[str, ...]:
    names = tuple(part.strip() for part in text.split(",") if part.strip())
    if not names:
        raise DataError("no metrics selected")
    for i, name in enumerate(names):
        if name not in METRICS:
            raise DataError(
                f"unknown metric {name!r}; choose from {', '.join(METRICS)}"
            )
        if name in names[:i]:
            raise DataError(f"metric {name!r} is repeated")
    return names


def _parse_separations(text: str) -> tuple[float, ...]:
    try:
        values = tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise DataError(f"invalid separation list: {text!r}") from None
    if not values:
        raise DataError("empty separation list")
    return values


def _add_input_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", required=True,
                   help="CSV file, or .bin matrix with a JSON sidecar")
    p.add_argument("--label-col", default="label",
                   help="label column name (CSV input)")
    p.add_argument("--reduce", default="passthrough",
                   help="passthrough | pca:<d> | pca:rate=<r>")


def _add_sampling_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--M", type=int, default=HyperParams.M,
                   help="Monte-Carlo queries per source class")
    p.add_argument("--E", type=int, default=HyperParams.E,
                   help="target samples per class pair")
    p.add_argument("--k", type=int, default=HyperParams.k,
                   help="neighbour rank")
    p.add_argument("--seed", type=int, default=HyperParams.seed,
                   help="RNG seed")


def run_complexity(args) -> int:
    params = HyperParams(M=args.M, E=args.E, k=args.k, seed=args.seed,
                         reduction=ReductionSpec.parse(args.reduce))
    threads = _resolve_threads(args)
    metrics = _parse_metrics(args.metric)
    ds = load_dataset(args.input, label_column=args.label_col)
    run = analysis.run_pipeline(ds, params,
                                row_normalize=not args.no_row_normalize,
                                include_diagonal=not args.no_diagonal)
    descriptors = compute_descriptors(run.emb) if args.descriptors else None
    report = build_report(
        dataset_path=args.input, ds=ds, emb=run.emb, params=params, X=run.X,
        W=run.W, L=run.L if args.store_laplacian else None, spec=run.spec,
        scores=run.scores, metrics=metrics, descriptors=descriptors,
        threads=threads,
    )
    if args.out:
        emit_report(report, args.out)
    if args.spectrum_svg:
        write_text(spectrum_svg(run.spec), args.spectrum_svg)
    print(f"seed={params.seed}")
    for name in metrics:
        print(f"{name}={report['scores'][name]:.17g}")
    return 0


def run_benchmark(args) -> int:
    params = HyperParams(M=args.M, E=args.E, k=args.k, seed=args.seed)
    separations = _parse_separations(args.separations)
    shown = METRICS + (DESCRIPTORS if args.descriptors else ())
    if args.svg_metric not in shown:
        raise DataError(f"--svg-metric {args.svg_metric!r} is not computed; "
                        f"choose from {', '.join(shown)}")
    suite = analysis.gen_gaussian_suite(args.classes, args.dim, args.per_class,
                                        separations, args.seed,
                                        trials=args.trials)
    result = analysis.run_benchmark(suite, params,
                                    include_descriptors=args.descriptors)
    payload = build_benchmark_report(result, params, n_classes=args.classes,
                                     dim=args.dim, per_class=args.per_class,
                                     trials=args.trials)
    if args.out:
        emit_report(payload, args.out)
    if args.svg:
        write_text(benchmark_svg(result, args.svg_metric), args.svg)
    print(f"seed={params.seed}")
    for name, corr in result.correlations.items():
        print(f"{name}: r={corr.r:.6f} p={corr.p_value:.6f} "
              f"(m={corr.sample_count})")
    return 0


def run_mds(args) -> int:
    rep = parse_report(args.from_report)
    W = matrix_from_report(rep, "W")
    U = 1.0 - W
    chart = analysis.classical_mds(U)
    n = W.shape[0]
    try:
        labels = rep["dataset"]["class_names"]
    except (KeyError, TypeError):
        labels = None
    if not isinstance(labels, list) or len(labels) != n:
        labels = [str(i) for i in range(n)]
    if args.svg:
        write_text(mds_svg(chart, labels), args.svg)
    if args.out:
        emit_report({
            **header(),
            "source_report": args.from_report,
            "labels": labels,
            "coordinates": chart.coordinates.tolist(),
            "stress": chart.stress,
        }, args.out)
    print(f"stress={chart.stress:.17g}")
    return 0


def run_descriptors(args) -> int:
    params = HyperParams(reduction=ReductionSpec.parse(args.reduce))
    ds = load_dataset(args.input, label_column=args.label_col)
    emb = apply_reduction(ds, params)
    values = asdict(compute_descriptors(emb))
    if args.out:
        emit_report({
            **header(),
            "dataset": dataset_block(args.input, ds, emb),
            "descriptors": values,
        }, args.out)
    for name in DESCRIPTORS:
        print(f"{name}={values[name]:.17g}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spectral-complexity",
        description="Score classification complexity of labeled datasets "
                    "from the Laplacian spectrum of an inter-class "
                    "similarity graph.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    fmt = argparse.ArgumentDefaultsHelpFormatter

    p = sub.add_parser("complexity", formatter_class=fmt,
                       help="score one dataset file")
    _add_input_flags(p)
    _add_sampling_flags(p)
    p.add_argument("--threads", type=int, default=None,
                   help="recorded in the report; changes no result or speed "
                        "(default: $SPECTRAL_COMPLEXITY_THREADS or 1)")
    p.add_argument("--metric", default=",".join(METRICS),
                   help="comma list of scores to emit")
    p.add_argument("--no-row-normalize", action="store_true",
                   help="skip row normalization of the similarity matrix")
    p.add_argument("--no-diagonal", action="store_true",
                   help="leave similarity self-pairs at zero")
    p.add_argument("--descriptors", action="store_true",
                   help="also compute the classical descriptor baselines")
    p.add_argument("--store-laplacian", action="store_true",
                   help="include L in the report matrices")
    p.add_argument("--out", default=None, help="report JSON path")
    p.add_argument("--spectrum-svg", default=None,
                   help="write an eigenvalue line plot here")
    p.set_defaults(func=run_complexity)

    p = sub.add_parser("benchmark", formatter_class=fmt,
                       help="synthetic Gaussian suite vs Bayes-error oracle")
    p.add_argument("--classes", type=int, default=10)
    p.add_argument("--dim", type=int, default=3)
    p.add_argument("--per-class", type=int, default=200)
    p.add_argument("--separations", default="8,5,3,2,1,0.5",
                   help="comma list of mean separations")
    p.add_argument("--trials", type=int, default=100_000,
                   help="oracle Monte-Carlo trials per dataset")
    _add_sampling_flags(p)
    p.add_argument("--descriptors", action="store_true",
                   help="also correlate the descriptor baselines")
    p.add_argument("--out", default=None, help="benchmark report JSON path")
    p.add_argument("--svg", default=None,
                   help="scatter plot of metric vs oracle error")
    p.add_argument("--svg-metric", default="cmsauls",
                   help="metric shown in the scatter plot")
    p.set_defaults(func=run_benchmark)

    p = sub.add_parser("mds", formatter_class=fmt,
                       help="2-D inter-class map from a stored report")
    p.add_argument("--from-report", required=True,
                   help="report JSON produced by the complexity subcommand")
    p.add_argument("--svg", default=None, help="scatter SVG path")
    p.add_argument("--out", default=None, help="coordinates JSON path")
    p.set_defaults(func=run_mds)

    p = sub.add_parser("descriptors", formatter_class=fmt,
                       help="classical complexity baselines only")
    _add_input_flags(p)
    p.add_argument("--out", default=None, help="descriptor JSON path")
    p.set_defaults(func=run_descriptors)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SpectralComplexityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return NumericError.exit_code


if __name__ == "__main__":
    sys.exit(main())
