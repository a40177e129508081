"""Report assembly, JSON serialization, and SVG emission.

The JSON writer is hand-rolled for one reason: determinism. Floats are
written with 17 significant digits (lossless for float64), +/-inf
become the strings "inf"/"-inf" since JSON has no infinity literal, any
exact zero is written as 0, and keys keep insertion order. Under those
rules serialize -> parse -> serialize is byte-identical, which the test
suite relies on.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from datetime import datetime, timezone
from html import escape

import numpy as np

from .analysis import BenchmarkResult, InterClassMap
from .descriptors import DescriptorReport
from .errors import DataError, NumericError
from .ingest import HyperParams, LabeledDataset, read_json
from .similarity import ClassSimilarityMatrix, SymmetricAffinity
from .spectral import (DEFINITIONS, METRICS, ComplexityScores, Laplacian,
                       Spectrum)

TOOL_VERSION = "0.1.0"
SCHEMA_VERSION = 1


def header(created: str | None = None) -> dict:
    """The keys every payload starts with; created defaults to now (UTC)."""
    if created is None:
        created = datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
    return {"schema": SCHEMA_VERSION, "tool_version": TOOL_VERSION,
            "created": created}


def _format_float(v: float) -> str:
    if v != v:
        raise NumericError("NaN cannot be serialized")
    if v == np.inf:
        return '"inf"'
    if v == -np.inf:
        return '"-inf"'
    if v == 0.0:
        # Collapse -0.0: "%.17g" would print "-0", which json parses as
        # int 0 and would re-serialize differently.
        return "0"
    return "%.17g" % v


def _scalar(v) -> str:
    if isinstance(v, (float, np.floating)):
        return _format_float(float(v))
    if isinstance(v, np.integer):
        return str(int(v))
    if v is None or isinstance(v, (str, int)):  # bool is an int
        return json.dumps(v)
    raise DataError(f"cannot serialize value of type {type(v).__name__}")


def _dump(obj, indent: int = 0) -> str:
    """A scalar inline, a list of scalars on one line, any other
    container one item per line."""
    if not isinstance(obj, (dict, list, tuple)):
        return _scalar(obj)
    if not obj:
        return "{}" if isinstance(obj, dict) else "[]"
    pad = "  " * indent
    if isinstance(obj, dict):
        parts = [f"{pad}  {json.dumps(str(k))}: {_dump(v, indent + 1)}"
                 for k, v in obj.items()]
        return "{\n" + ",\n".join(parts) + f"\n{pad}}}"
    if not any(isinstance(v, (dict, list, tuple)) for v in obj):
        return "[" + ", ".join(map(_scalar, obj)) + "]"
    parts = [f"{pad}  {_dump(v, indent + 1)}" for v in obj]
    return "[\n" + ",\n".join(parts) + f"\n{pad}]"


def serialize(payload: dict) -> str:
    return _dump(payload) + "\n"


def write_text(text: str, path: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc}") from None


def emit_report(report: dict, path: str) -> None:
    """Write a report as deterministic pretty-printed JSON."""
    write_text(serialize(report), path)


def parse_report(path: str) -> dict:
    return read_json(path)


def _stored_float(v) -> float:
    """A JSON number (not a bool), or one of the strings "inf" and "-inf"."""
    if (isinstance(v, (int, float)) and not isinstance(v, bool)
            or v in ("inf", "-inf")):
        return float(v)
    raise TypeError(f"not a stored number: {v!r}")


def matrix_from_report(rep: dict, name: str) -> np.ndarray:
    """Recover a stored matrix, mapping "inf"/"-inf" strings back to floats."""
    try:
        rows = rep["matrices"][name]
    except (KeyError, TypeError):
        raise DataError(f"report has no matrix {name!r}") from None
    bad = DataError(f"report matrix {name!r} is not a list of equal-length "
                    "rows of numbers")
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise bad
    try:
        values = np.array([[_stored_float(v) for v in row] for row in rows],
                          dtype=np.float64)
    except (TypeError, ValueError, OverflowError):
        raise bad from None
    if values.ndim != 2 or np.isnan(values).any():
        raise bad
    return values


def dataset_block(path: str, ds: LabeledDataset, emb: LabeledDataset) -> dict:
    """The `dataset` keys shared by the complexity and descriptors reports."""
    return {"path": path, "samples": ds.n_samples, "raw_dim": ds.n_features,
            "embedded_dim": emb.n_features, "classes": ds.n_classes}


def build_report(*, dataset_path: str, ds: LabeledDataset, emb: LabeledDataset,
                 params: HyperParams, X: ClassSimilarityMatrix,
                 W: SymmetricAffinity, L: Laplacian | None,
                 spec: Spectrum, scores: ComplexityScores,
                 metrics: tuple[str, ...] = METRICS,
                 descriptors: DescriptorReport | None = None,
                 threads: int = 1, created: str | None = None,
                 ) -> dict:
    """Assemble the full run report from the pipeline stages.

    emb is the output of apply_reduction, whose meta fills the
    reduction block. A .bin input kept as it is holds features embedded
    by another tool, so both params.reduction and reduction.method
    record it as "external".
    """
    if emb.meta is None:
        raise DataError("emb has no reduction meta; pass apply_reduction's result")
    reduction = asdict(emb.meta)
    label = params.reduction.describe()
    if dataset_path.endswith(".bin") and params.reduction.mode == "passthrough":
        label = reduction["method"] = "external"
    params_dict = {
        "M": params.M,
        "E": params.E,
        "k": params.k,
        "seed": params.seed,
        "reduction": label,
        "row_normalize": X.row_normalized,
        "include_diagonal": X.includes_diagonal,
        "threads": threads,
        "metrics": list(metrics),
    }
    matrices = {"X": X.values.tolist(), "W": W.values.tolist()}
    if L is not None:
        matrices["L"] = L.values.tolist()
    diagnostics = {**asdict(X.diagnostics), "definitions": dict(DEFINITIONS)}
    return {
        **header(created),
        "dataset": {**dataset_block(dataset_path, ds, emb),
                    "class_names": list(ds.class_names)},
        "params": params_dict,
        "reduction": reduction,
        "matrices": matrices,
        "spectrum": spec.eigenvalues.tolist(),
        "scores": {m: getattr(scores, m) for m in metrics},
        "descriptors": None if descriptors is None else asdict(descriptors),
        "diagnostics": diagnostics,
    }


def build_benchmark_report(result: BenchmarkResult, params: HyperParams, *,
                           n_classes: int, dim: int, per_class: int,
                           trials: int, created: str | None = None) -> dict:
    return {
        **header(created),
        "config": {
            "classes": n_classes,
            "dim": dim,
            "per_class": per_class,
            "separations": list(result.separations),
            "trials": trials,
            "M": params.M,
            "E": params.E,
            "k": params.k,
            "seed": params.seed,
        },
        "oracle": {
            "errors": list(result.oracle_errors),
            "stderrs": list(result.oracle_stderrs),
        },
        "metrics": {k: list(v) for k, v in result.metric_values.items()},
        "correlations": {name: asdict(c)
                         for name, c in result.correlations.items()},
        "skipped_metrics": list(result.skipped_metrics),
    }


def _svg(width: int, height: int, body: str) -> str:
    """A standalone SVG document on a white background."""
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">'
        f'<rect width="{width}" height="{height}" fill="white"/>{body}</svg>'
    )


def _line(x1, y1, x2, y2, stroke: str = "#333") -> str:
    return f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" stroke="{stroke}"/>'


def _axes(x0, y0, x1, y1) -> str:
    """An L: the y axis at x0 from y0 down to y1, the x axis along y1 to x1."""
    return _line(x0, y0, x0, y1) + _line(x0, y1, x1, y1)


def _dot(x: float, y: float, r: int, fill: str) -> str:
    return f'<circle cx="{x:.2f}" cy="{y:.2f}" r="{r}" fill="{fill}"/>'


def _text(x, y, size: int, body, anchor: str = "") -> str:
    """A text element; x and y are written as given, so callers format them."""
    anchor = f' text-anchor="{anchor}"' if anchor else ""
    return f'<text x="{x}" y="{y}"{anchor} font-size="{size}">{body}</text>'


def spectrum_svg(s: Spectrum) -> str:
    """Line plot of eigenvalue index vs value as a standalone SVG string."""
    width, height = 480, 320
    lam = s.eigenvalues
    n = lam.size
    left, right, top, bottom = 50, 15, 15, 35
    plot_w = width - left - right
    plot_h = height - top - bottom
    y_max = float(lam[-1]) if lam[-1] > 0 else 1.0

    def px(i: int) -> float:
        return left + (plot_w * i / max(1, n - 1))

    def py(v: float) -> float:
        return top + plot_h * (1.0 - v / y_max)

    points = " ".join(f"{px(i):.2f},{py(float(v)):.2f}" for i, v in enumerate(lam))
    marks = "".join(_dot(px(i), py(float(v)), 3, "#1f77b4")
                    for i, v in enumerate(lam))
    ticks = "".join(
        _line(left - 4, f"{py(v):.2f}", left, f"{py(v):.2f}")
        + _text(left - 8, f"{py(v) + 4:.2f}", 11, f"{v:.3g}", "end")
        for v in (y_max * frac for frac in (0.0, 0.5, 1.0)))
    x_labels = "".join(
        _text(f"{px(i):.2f}", height - bottom + 16, 11, i, "middle")
        for i in (range(n) if n <= 20 else (0, n - 1))
    )
    return _svg(
        width, height,
        _axes(left, top, width - right, height - bottom)
        + ticks + x_labels
        + f'<polyline points="{points}" fill="none" stroke="#1f77b4" '
        f'stroke-width="1.5"/>'
        + marks
        + _text(f"{left + plot_w / 2:.0f}", height - 6, 12, "eigenvalue index",
                "middle")
    )


def mds_svg(m: InterClassMap, labels) -> str:
    """Labeled scatter of class coordinates, symmetric about the origin."""
    width, height = 480, 420
    coords = m.coordinates
    names = [str(v) for v in labels]
    if len(names) != coords.shape[0]:
        raise DataError(
            f"{len(names)} labels for {coords.shape[0]} points"
        )
    radius = float(np.abs(coords).max())
    if radius == 0.0:
        radius = 1.0
    radius *= 1.2
    margin = 30
    span = min(width, height) - 2 * margin

    def px(v: float) -> float:
        return width / 2 + (v / radius) * (span / 2)

    def py(v: float) -> float:
        return height / 2 - (v / radius) * (span / 2)

    marks = "".join(
        _dot(px(x), py(y), 5, "#d62728")
        + _text(f"{px(x) + 8:.2f}", f"{py(y) - 8:.2f}", 12,
                escape(name, quote=False))
        for (x, y), name in zip(coords, names)
    )
    return _svg(
        width, height,
        _line(width / 2, margin, width / 2, height - margin, "#ccc")
        + _line(margin, height / 2, width - margin, height / 2, "#ccc")
        + marks
    )


def benchmark_svg(result: BenchmarkResult, metric: str = "cmsauls") -> str:
    """Scatter of oracle error (x) against one metric (y)."""
    width, height = 480, 360
    if metric not in result.metric_values:
        raise DataError(f"benchmark has no metric {metric!r}")
    xs = np.asarray(result.oracle_errors)
    ys = np.asarray(result.metric_values[metric])
    left, right, top, bottom = 55, 15, 20, 40
    x_max = float(xs.max()) if xs.max() > 0 else 1.0
    y_max = float(ys.max()) if ys.max() > 0 else 1.0

    def px(v: float) -> float:
        return left + (v / x_max) * (width - left - right)

    def py(v: float) -> float:
        return top + (1.0 - v / y_max) * (height - top - bottom)

    marks = "".join(
        _dot(px(float(x)), py(float(y)), 4, "#1f77b4")
        + _text(f"{px(float(x)) + 6:.2f}", f"{py(float(y)) - 6:.2f}", 10,
                f"s={s:g}")
        for x, y, s in zip(xs, ys, result.separations)
    )
    return _svg(
        width, height,
        _axes(left, top, width - right, height - bottom)
        + _text(f"{(left + width - right) / 2:.0f}", height - 8, 12,
                "oracle error", "middle")
        + f'<text x="14" y="{(top + height - bottom) / 2:.0f}" font-size="12" '
        f'transform="rotate(-90 14 {(top + height - bottom) / 2:.0f})" '
        f'text-anchor="middle">{escape(metric, quote=False)}</text>'
        + marks
    )
