import json
import re
import xml.dom.minidom
from pathlib import Path

import numpy as np
import pytest

import spectral_complexity
from spectral_complexity import (BenchmarkResult, CorrelationResult,
                                 DataError, HyperParams, InterClassMap,
                                 NumericError, ReductionSpec, apply_reduction,
                                 benchmark_svg, bray_curtis_symmetrize,
                                 build_laplacian, build_report,
                                 build_similarity_matrix,
                                 compute_descriptors, compute_scores,
                                 emit_report, load_csv, matrix_from_report,
                                 mds_svg, parse_report, serialize, spectrum)
from spectral_complexity.report import _format_float, header

from conftest import make_blobs


def pipeline_report(blob_csv, **kwargs):
    ds = load_csv(str(blob_csv))
    params = HyperParams(M=20, E=20, k=3, seed=3)
    emb = apply_reduction(ds, params)
    X = build_similarity_matrix(emb, params)
    W = bray_curtis_symmetrize(X)
    L = build_laplacian(W)
    spec = spectrum(L)
    return build_report(
        dataset_path=str(blob_csv), ds=ds, emb=emb, params=params, X=X,
        W=W, L=L, spec=spec, scores=compute_scores(spec),
        created="2026-01-01T00:00:00Z", **kwargs)


class TestFloatFormat:
    def test_plain_value_keeps_all_digits(self):
        assert _format_float(0.144) == "0.14399999999999999"
        assert float(_format_float(0.144)) == 0.144

    def test_zero_collapses_sign(self):
        assert _format_float(0.0) == "0"
        assert _format_float(-0.0) == "0"

    def test_infinities_become_strings(self):
        assert _format_float(np.inf) == '"inf"'
        assert _format_float(-np.inf) == '"-inf"'

    def test_nan_rejected(self):
        with pytest.raises(NumericError, match="NaN"):
            _format_float(float("nan"))


class TestSerialize:
    def test_round_trip_is_byte_identical(self):
        payload = {
            "schema": 1,
            "values": [0.1, 2.5e-300, 1e300, 0.0, -0.0],
            "edge": {"big": np.inf, "small": -np.inf, "flag": True,
                     "none": None, "name": "x y\nz"},
            "empty_list": [],
            "empty_dict": {},
            "nested": [[1.0, 2.0], [3.0, 4.0]],
        }
        text = serialize(payload)
        again = serialize(json.loads(text))
        assert text == again

    def test_scalar_lists_stay_on_one_line(self):
        text = serialize({"xs": [1.0, 2.0, 3.0]})
        assert '"xs": [1, 2, 3]' in text

    def test_matrix_rows_get_their_own_lines(self):
        text = serialize({"m": [[1.0, 2.0], [3.0, 4.0]]})
        assert "[\n" in text

    def test_unserializable_type_rejected(self):
        with pytest.raises(DataError, match="cannot serialize"):
            serialize({"bad": {1, 2}})

    def test_deterministic(self):
        payload = {"a": 0.3333333333333333, "b": [1, 2, 3]}
        assert serialize(payload) == serialize(payload)


class TestReportRoundTrip:
    def test_pipeline_report_round_trips(self, blob_csv, tmp_path):
        rep = pipeline_report(blob_csv)
        path = tmp_path / "report.json"
        emit_report(rep, str(path))
        parsed = parse_report(str(path))
        emit_report(parsed, str(tmp_path / "second.json"))
        assert path.read_bytes() == (tmp_path / "second.json").read_bytes()

    def test_key_order(self, blob_csv, tmp_path):
        rep = pipeline_report(blob_csv)
        path = tmp_path / "report.json"
        emit_report(rep, str(path))
        parsed = parse_report(str(path))
        assert list(parsed) == [
            "schema", "tool_version", "created", "dataset", "params",
            "reduction", "matrices", "spectrum", "scores", "descriptors",
            "diagnostics",
        ]
        assert parsed["schema"] == 1

    def test_scores_recomputable_from_stored_spectrum(self, blob_csv,
                                                      tmp_path):
        from spectral_complexity import Spectrum, auls, cmsauls, csg
        rep = pipeline_report(blob_csv)
        path = tmp_path / "report.json"
        emit_report(rep, str(path))
        parsed = parse_report(str(path))
        s = Spectrum(eigenvalues=np.array(parsed["spectrum"]))
        assert cmsauls(s) == parsed["scores"]["cmsauls"]
        assert csg(s) == parsed["scores"]["csg"]
        assert auls(s) == parsed["scores"]["auls"]

    def test_matrices_recoverable_exactly(self, blob_csv, tmp_path):
        ds = load_csv(str(blob_csv))
        params = HyperParams(M=20, E=20, k=3, seed=3)
        emb = apply_reduction(ds, params)
        X = build_similarity_matrix(emb, params)
        W = bray_curtis_symmetrize(X)
        rep = pipeline_report(blob_csv)
        path = tmp_path / "report.json"
        emit_report(rep, str(path))
        parsed = parse_report(str(path))
        assert np.array_equal(matrix_from_report(parsed, "X"), X.values)
        assert np.array_equal(matrix_from_report(parsed, "W"), W.values)
        assert matrix_from_report(parsed, "L").shape == (3, 3)

    def test_descriptor_block_included_when_passed(self, blob_csv, tmp_path):
        ds = load_csv(str(blob_csv))
        params = HyperParams(M=20, E=20, k=3, seed=3)
        emb = apply_reduction(ds, params)
        rep = pipeline_report(blob_csv,
                              descriptors=compute_descriptors(emb))
        path = tmp_path / "report.json"
        emit_report(rep, str(path))
        parsed = parse_report(str(path))
        assert parsed["descriptors"]["t2"] == 60.0
        assert parsed["descriptors"]["n2_skipped"] == 0

    def test_dataset_without_reduction_meta_rejected(self, blob_csv):
        ds = load_csv(str(blob_csv))
        params = HyperParams(M=5, E=5)
        X = build_similarity_matrix(ds, params)
        W = bray_curtis_symmetrize(X)
        spec = spectrum(build_laplacian(W))
        with pytest.raises(DataError, match="apply_reduction"):
            build_report(dataset_path=str(blob_csv), ds=ds, emb=ds,
                         params=params, X=X, W=W, L=None, spec=spec,
                         scores=compute_scores(spec))

    @pytest.mark.parametrize("path, reduce, recorded", [
        ("data.bin", "passthrough", ("external", "external")),
        ("data.bin", "pca:2", ("pca:2", "pca")),
        ("data.csv", "passthrough", ("passthrough", "passthrough")),
    ])
    def test_reduction_provenance(self, blob_csv, path, reduce, recorded):
        ds = load_csv(str(blob_csv))
        params = HyperParams(M=5, E=5, reduction=ReductionSpec.parse(reduce))
        emb = apply_reduction(ds, params)
        X = build_similarity_matrix(emb, params)
        W = bray_curtis_symmetrize(X)
        spec = spectrum(build_laplacian(W))
        rep = build_report(dataset_path=path, ds=ds, emb=emb, params=params,
                           X=X, W=W, L=None, spec=spec,
                           scores=compute_scores(spec))
        assert (rep["params"]["reduction"], rep["reduction"]["method"]) \
            == recorded

    def test_inf_strings_map_back_to_floats(self):
        rep = {"matrices": {"Z": [[0.0, "inf"], ["-inf", 1.0]]}}
        Z = matrix_from_report(rep, "Z")
        assert Z[0, 1] == np.inf and Z[1, 0] == -np.inf

    def test_missing_matrix_rejected(self):
        with pytest.raises(DataError, match="no matrix"):
            matrix_from_report({"matrices": {}}, "W")

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(DataError, match="cannot read"):
            parse_report(str(tmp_path / "absent.json"))

    def test_unwritable_path_rejected(self, tmp_path):
        with pytest.raises(DataError, match="cannot write"):
            emit_report({"schema": 1}, str(tmp_path / "no/dir/report.json"))


class TestSvgOutputs:
    def test_mds_svg_labels_every_class(self):
        m = InterClassMap(
            coordinates=np.array([[1.0, 0.5], [-1.0, 0.5], [0.0, -1.0]]),
            stress=0.0)
        svg = mds_svg(m, ["ship & boat", "car<truck>", "plane"])
        doc = xml.dom.minidom.parseString(svg)
        texts = ["".join(c.data for c in t.childNodes)
                 for t in doc.getElementsByTagName("text")]
        assert texts == ["ship & boat", "car<truck>", "plane"]
        assert len(doc.getElementsByTagName("circle")) == 3

    def test_mds_svg_label_count_mismatch(self):
        m = InterClassMap(coordinates=np.zeros((2, 2)), stress=0.0)
        with pytest.raises(DataError, match="labels for"):
            mds_svg(m, ["only-one"])

    def test_benchmark_svg_marks_separations(self):
        result = BenchmarkResult(
            separations=(8.0, 2.0, 0.5),
            oracle_errors=(0.01, 0.2, 0.4),
            oracle_stderrs=(0.001, 0.002, 0.003),
            metric_values={"cmsauls": (0.1, 0.9, 2.0)},
            correlations={"cmsauls": CorrelationResult(r=0.99, p_value=0.01,
                                                       sample_count=3)},
        )
        svg = benchmark_svg(result)
        xml.dom.minidom.parseString(svg)
        for tag in ("s=8", "s=2", "s=0.5"):
            assert tag in svg

    def test_benchmark_svg_unknown_metric(self):
        result = BenchmarkResult(
            separations=(1.0, 2.0, 3.0), oracle_errors=(0.1, 0.2, 0.3),
            oracle_stderrs=(0.0, 0.0, 0.0),
            metric_values={"cmsauls": (1.0, 2.0, 3.0)}, correlations={})
        with pytest.raises(DataError, match="no metric"):
            benchmark_svg(result, metric="does-not-exist")

    def test_escaping_matches_xml_sax_saxutils(self, monkeypatch):
        # The SVGs escape with html.escape(quote=False); the bytes must be
        # those xml.sax.saxutils.escape wrote before.
        from xml.sax.saxutils import escape as sax_escape
        from spectral_complexity import SymmetricAffinity, report
        names = ["a & b", "<c>", "\"q\" 'r'", "&amp;", "tab\tbell\x07\x1f",
                 "naïve ✓ 名前"]
        m = InterClassMap(coordinates=np.array(
            [[np.cos(t), np.sin(t)] for t in np.arange(6) * np.pi / 3]),
            stress=0.0)
        result = BenchmarkResult(
            separations=(8.0, 2.0, 0.5), oracle_errors=(0.01, 0.2, 0.4),
            oracle_stderrs=(0.0, 0.0, 0.0),
            metric_values={n: (0.1, 0.9, 2.0) for n in names},
            correlations={})
        W = np.full((6, 6), 0.5) + 0.5 * np.eye(6)
        s = spectrum(build_laplacian(SymmetricAffinity(values=W)))

        def svgs():
            return [report.spectrum_svg(s), mds_svg(m, names),
                    *(benchmark_svg(result, n) for n in names)]

        new = svgs()
        monkeypatch.setattr(report, "escape",
                            lambda text, quote=True: sax_escape(text))
        assert new == svgs()
        assert "&amp;amp;" in new[1] and "&lt;c&gt;" in new[3]


class TestBenchmarkReport:
    def test_structure_and_round_trip(self, tmp_path):
        from spectral_complexity import (build_benchmark_report,
                                         gen_gaussian_suite, run_benchmark)
        suite = gen_gaussian_suite(2, 1, 10, (6.0, 1.0, 0.2), seed=1,
                                   trials=10_000)
        params = HyperParams(M=10, E=10, k=2, seed=1)
        result = run_benchmark(suite, params)
        payload = build_benchmark_report(result, params, n_classes=2, dim=1,
                                         per_class=10, trials=10_000,
                                         created="2026-01-01T00:00:00Z")
        assert list(payload) == ["schema", "tool_version", "created",
                                 "config", "oracle", "metrics",
                                 "correlations", "skipped_metrics"]
        path = tmp_path / "bench.json"
        emit_report(payload, str(path))
        parsed = parse_report(str(path))
        emit_report(parsed, str(tmp_path / "again.json"))
        assert path.read_bytes() == (tmp_path / "again.json").read_bytes()


# The SVG builders and scalar encoder as they were before the shared
# _dot, _text and _axes writers; the current ones must write the same bytes.
def _parent_spectrum_svg(s):
    from spectral_complexity.report import _line, _svg
    width, height = 480, 320
    lam = s.eigenvalues
    n = lam.size
    left, right, top, bottom = 50, 15, 15, 35
    plot_w = width - left - right
    plot_h = height - top - bottom
    y_max = float(lam[-1]) if lam[-1] > 0 else 1.0

    def px(i):
        return left + (plot_w * i / max(1, n - 1))

    def py(v):
        return top + plot_h * (1.0 - v / y_max)

    points = " ".join(f"{px(i):.2f},{py(float(v)):.2f}" for i, v in enumerate(lam))
    marks = "".join(
        f'<circle cx="{px(i):.2f}" cy="{py(float(v)):.2f}" r="3" fill="#1f77b4"/>'
        for i, v in enumerate(lam)
    )
    ticks = []
    for frac in (0.0, 0.5, 1.0):
        v = y_max * frac
        y = py(v)
        ticks.append(
            _line(left - 4, f"{y:.2f}", left, f"{y:.2f}")
            + f'<text x="{left - 8}" y="{y + 4:.2f}" text-anchor="end" '
            f'font-size="11">{v:.3g}</text>'
        )
    x_labels = "".join(
        f'<text x="{px(i):.2f}" y="{height - bottom + 16}" text-anchor="middle" '
        f'font-size="11">{i}</text>'
        for i in range(n)
    ) if n <= 20 else (
        f'<text x="{px(0):.2f}" y="{height - bottom + 16}" text-anchor="middle" '
        f'font-size="11">0</text>'
        f'<text x="{px(n - 1):.2f}" y="{height - bottom + 16}" '
        f'text-anchor="middle" font-size="11">{n - 1}</text>'
    )
    return _svg(
        width, height,
        _line(left, top, left, height - bottom)
        + _line(left, height - bottom, width - right, height - bottom)
        + "".join(ticks) + x_labels
        + f'<polyline points="{points}" fill="none" stroke="#1f77b4" '
        f'stroke-width="1.5"/>'
        + marks
        + f'<text x="{left + plot_w / 2:.0f}" y="{height - 6}" '
        f'text-anchor="middle" font-size="12">eigenvalue index</text>'
    )


def _parent_mds_svg(m, labels):
    from html import escape
    from spectral_complexity.report import _line, _svg
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

    def px(v):
        return width / 2 + (v / radius) * (span / 2)

    def py(v):
        return height / 2 - (v / radius) * (span / 2)

    marks = []
    for (x, y), name in zip(coords, names):
        marks.append(
            f'<circle cx="{px(x):.2f}" cy="{py(y):.2f}" r="5" fill="#d62728"/>'
            f'<text x="{px(x) + 8:.2f}" y="{py(y) - 8:.2f}" font-size="12">'
            f"{escape(name, quote=False)}</text>"
        )
    return _svg(
        width, height,
        _line(width / 2, margin, width / 2, height - margin, "#ccc")
        + _line(margin, height / 2, width - margin, height / 2, "#ccc")
        + "".join(marks)
    )


def _parent_benchmark_svg(result, metric="cmsauls"):
    from html import escape
    from spectral_complexity.report import _line, _svg
    width, height = 480, 360
    if metric not in result.metric_values:
        raise DataError(f"benchmark has no metric {metric!r}")
    xs = np.asarray(result.oracle_errors)
    ys = np.asarray(result.metric_values[metric])
    left, right, top, bottom = 55, 15, 20, 40
    x_max = float(xs.max()) if xs.max() > 0 else 1.0
    y_max = float(ys.max()) if ys.max() > 0 else 1.0

    def px(v):
        return left + (v / x_max) * (width - left - right)

    def py(v):
        return top + (1.0 - v / y_max) * (height - top - bottom)

    marks = "".join(
        f'<circle cx="{px(float(x)):.2f}" cy="{py(float(y)):.2f}" r="4" '
        f'fill="#1f77b4"/>'
        f'<text x="{px(float(x)) + 6:.2f}" y="{py(float(y)) - 6:.2f}" '
        f'font-size="10">s={s:g}</text>'
        for x, y, s in zip(xs, ys, result.separations)
    )
    return _svg(
        width, height,
        _line(left, top, left, height - bottom)
        + _line(left, height - bottom, width - right, height - bottom)
        + f'<text x="{(left + width - right) / 2:.0f}" y="{height - 8}" '
        f'text-anchor="middle" font-size="12">oracle error</text>'
        f'<text x="14" y="{(top + height - bottom) / 2:.0f}" font-size="12" '
        f'transform="rotate(-90 14 {(top + height - bottom) / 2:.0f})" '
        f'text-anchor="middle">{escape(metric, quote=False)}</text>'
        + marks
    )


def _parent_scalar(obj):
    """The scalar branches of the parent's _dump, in their order."""
    from spectral_complexity.report import _format_float
    if isinstance(obj, str):
        return json.dumps(obj)
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _format_float(float(obj))
    raise DataError(f"cannot serialize value of type {type(obj).__name__}")


AWKWARD_NAMES = ["a & b", "<c>", "\"q\" 'r'", "&amp;", "naïve ✓ 名前", ""]


class TestWritersMatchParent:
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 20, 21, 22, 40, 80])
    @pytest.mark.parametrize("kind", ["random", "zero", "ties"])
    def test_spectrum_svg(self, n, kind):
        from spectral_complexity import Spectrum, spectrum_svg
        rng = np.random.default_rng(n)
        if kind == "random":
            lam = np.concatenate([[0.0], np.sort(rng.exponential(
                10.0 ** rng.integers(-6, 6), n - 1))])
        elif kind == "zero":
            lam = np.zeros(n)
        else:
            lam = np.minimum(np.arange(n, dtype=float), 2.5)
        s = Spectrum(eigenvalues=lam)
        assert spectrum_svg(s) == _parent_spectrum_svg(s)

    @pytest.mark.parametrize("n", [1, 2, 3, 6, 25])
    @pytest.mark.parametrize("scale", [0.0, 1e-12, 1.0, 1e3])
    def test_mds_svg(self, n, scale):
        rng = np.random.default_rng(n)
        xy = rng.standard_normal((n, 2)) * scale
        m = InterClassMap(coordinates=xy - xy.mean(axis=0), stress=0.0)
        names = [AWKWARD_NAMES[i % len(AWKWARD_NAMES)] + str(i)
                 for i in range(n)]
        assert mds_svg(m, names) == _parent_mds_svg(m, names)

    @pytest.mark.parametrize("m", [3, 6, 25])
    @pytest.mark.parametrize("errors", ["random", "zero"])
    def test_benchmark_svg(self, m, errors):
        rng = np.random.default_rng(m)
        seps = tuple(float(v) for v in rng.exponential(3.0, m))
        errs = (tuple(float(v) for v in rng.uniform(0, 0.5, m))
                if errors == "random" else (0.0,) * m)
        result = BenchmarkResult(
            separations=seps, oracle_errors=errs, oracle_stderrs=(0.0,) * m,
            metric_values={**{name: tuple(rng.exponential(1.0, m))
                              for name in AWKWARD_NAMES},
                           "zero": (0.0,) * m},
            correlations={})
        for name in result.metric_values:
            assert (benchmark_svg(result, name)
                    == _parent_benchmark_svg(result, name))

    @pytest.mark.parametrize("value", [
        "", "x y\nz", "naïve ✓ \"q\" \\", True, False, None, 0, -7,
        10 ** 40, np.int8(-3), np.uint64(2 ** 64 - 1), np.int64(5),
        0.1, -0.0, np.float32(0.5), np.inf,
    ], ids=repr)
    def test_serialize_scalars(self, value):
        import enum

        class Level(enum.IntEnum):
            HIGH = 3

        for v in (value, Level.HIGH):
            assert serialize({"v": v}) == f'{{\n  "v": {_parent_scalar(v)}\n}}\n'

    @pytest.mark.parametrize("value", [{1, 2}, b"x", np.bool_(True), 1j,
                                       object()], ids=repr)
    def test_serialize_refuses_what_the_parent_refused(self, value):
        with pytest.raises(DataError) as new:
            serialize({"v": value})
        with pytest.raises(DataError) as old:
            _parent_scalar(value)
        assert str(new.value) == str(old.value)


def test_package_version_matches_pyproject_and_report():
    # A regex, not tomllib: Python 3.10 has no TOML reader.
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    (version,) = re.findall(r'^version = "([^"]+)"$', text, re.M)
    assert version == spectral_complexity.__version__
    assert header("report")["tool_version"] == version
