import csv
import json
import subprocess
import sys
import warnings
import xml.dom.minidom
from pathlib import Path

import numpy as np
import pytest

CLI = [sys.executable, "-m", "spectral_complexity.cli"]


def run_cli(*args, env_extra=None):
    import os
    env = dict(os.environ)
    env.pop("SPECTRAL_COMPLEXITY_THREADS", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(CLI + list(args), capture_output=True, text=True,
                          env=env)


def parse_stdout(text):
    out = {}
    for line in text.splitlines():
        if "=" in line:
            key, _, value = line.partition("=")
            out[key] = value
    return out


def write_binary_dataset(tmp_path, features, labels):
    data = tmp_path / "embedded.bin"
    np.asarray(features, dtype="<f4").tofile(data)
    (tmp_path / "embedded.labels").write_text("\n".join(labels) + "\n")
    (tmp_path / "embedded.bin.json").write_text(json.dumps({
        "rows": len(labels), "cols": int(np.asarray(features).shape[1]),
        "labels": "embedded.labels",
    }))
    return data


class TestComplexityCommand:
    def test_separated_blobs_score_low(self, blob_csv, tmp_path):
        out = tmp_path / "report.json"
        res = run_cli("complexity", "--input", str(blob_csv),
                      "--out", str(out))
        assert res.returncode == 0
        values = parse_stdout(res.stdout)
        assert values["seed"] == "42"
        assert float(values["cmsauls"]) < 0.05
        report = json.loads(out.read_text())
        assert report["schema"] == 1
        assert report["params"]["row_normalize"] is True
        assert "L" not in report["matrices"]

    def test_missing_input_exits_2(self, tmp_path):
        path = tmp_path / "absent.csv"
        res = run_cli("complexity", "--input", str(path))
        assert res.returncode == 2
        assert str(path) in res.stderr

    def test_bad_sampling_params_exit_2(self, blob_csv):
        res = run_cli("complexity", "--input", str(blob_csv),
                      "--k", "50", "--E", "10")
        assert res.returncode == 2
        assert "k" in res.stderr

    def test_unknown_flag_exits_2(self, blob_csv):
        res = run_cli("complexity", "--input", str(blob_csv), "--bogus")
        assert res.returncode == 2

    def test_metric_subset(self, blob_csv):
        res = run_cli("complexity", "--input", str(blob_csv),
                      "--metric", "cmsauls")
        assert res.returncode == 0
        values = parse_stdout(res.stdout)
        assert "cmsauls" in values and "csg" not in values

    def test_unknown_metric_exits_2(self, blob_csv):
        res = run_cli("complexity", "--input", str(blob_csv),
                      "--metric", "bogus")
        assert res.returncode == 2

    def test_repeated_metric_exits_2(self, blob_csv):
        res = run_cli("complexity", "--input", str(blob_csv),
                      "--metric", "cmsauls,csg,cmsauls")
        assert res.returncode == 2
        assert "'cmsauls' is repeated" in res.stderr
        assert res.stdout == ""

    def test_store_laplacian_and_svg(self, blob_csv, tmp_path):
        out = tmp_path / "report.json"
        svg = tmp_path / "spectrum.svg"
        res = run_cli("complexity", "--input", str(blob_csv),
                      "--out", str(out), "--store-laplacian",
                      "--spectrum-svg", str(svg))
        assert res.returncode == 0
        report = json.loads(out.read_text())
        assert "L" in report["matrices"]
        L = np.array(report["matrices"]["L"])
        assert np.abs(L.sum(axis=1)).max() < 1e-9
        xml.dom.minidom.parse(str(svg))

    def test_no_row_normalize_recorded(self, blob_csv, tmp_path):
        out = tmp_path / "report.json"
        res = run_cli("complexity", "--input", str(blob_csv),
                      "--out", str(out), "--no-row-normalize")
        assert res.returncode == 0
        report = json.loads(out.read_text())
        assert report["params"]["row_normalize"] is False

    def test_descriptor_block_opt_in(self, blob_csv, tmp_path):
        out = tmp_path / "report.json"
        res = run_cli("complexity", "--input", str(blob_csv),
                      "--out", str(out), "--descriptors")
        assert res.returncode == 0
        report = json.loads(out.read_text())
        assert report["descriptors"]["n3"] == 0

    def test_zero_variance_reduction_exits_3(self, tmp_path):
        path = tmp_path / "flat.csv"
        rows = ["a,b,label"] + ["1.0,2.0,x"] * 10 + ["1.0,2.0,y"] * 10
        path.write_text("\n".join(rows) + "\n")
        res = run_cli("complexity", "--input", str(path),
                      "--reduce", "pca:rate=0.95", "--M", "5", "--E", "5",
                      "--k", "2")
        assert res.returncode == 3
        assert "variance" in res.stderr

    def test_binary_input_marked_external(self, tmp_path):
        rng = np.random.default_rng(0)
        feats = np.vstack([rng.normal(0.0, 1.0, (30, 4)),
                           rng.normal(8.0, 1.0, (30, 4))])
        labels = ["neg"] * 30 + ["pos"] * 30
        data = write_binary_dataset(tmp_path, feats, labels)
        out = tmp_path / "report.json"
        res = run_cli("complexity", "--input", str(data), "--out", str(out),
                      "--M", "20", "--E", "20")
        assert res.returncode == 0
        report = json.loads(out.read_text())
        assert report["reduction"]["method"] == "external"
        assert report["params"]["reduction"] == "external"
        assert report["dataset"]["class_names"] == ["neg", "pos"]

    def test_same_invocation_is_deterministic(self, blob_csv, tmp_path):
        args = ("complexity", "--input", str(blob_csv))
        a = run_cli(*args)
        b = run_cli(*args)
        assert a.stdout == b.stdout

    def test_env_var_threads_matches_serial(self, blob_csv):
        serial = run_cli("complexity", "--input", str(blob_csv))
        threaded = run_cli("complexity", "--input", str(blob_csv),
                           env_extra={"SPECTRAL_COMPLEXITY_THREADS": "4"})
        assert threaded.returncode == 0
        assert threaded.stdout == serial.stdout

    def test_env_var_garbage_exits_2(self, blob_csv):
        res = run_cli("complexity", "--input", str(blob_csv),
                      env_extra={"SPECTRAL_COMPLEXITY_THREADS": "lots"})
        assert res.returncode == 2

    @pytest.mark.parametrize("flag, env, code", [
        (["--threads", "0"], None, 2),
        ([], "0", 2),
        (["--threads", "1"], "lots", 0),
    ])
    def test_threads_flag_wins_and_must_be_positive(self, blob_csv, flag, env,
                                                    code):
        res = run_cli("complexity", "--input", str(blob_csv), "--M", "5",
                      "--E", "5", *flag,
                      env_extra=env and {"SPECTRAL_COMPLEXITY_THREADS": env})
        assert res.returncode == code
        if code:
            assert "thread count must be >= 1, got 0" in res.stderr


class TestHelp:
    @pytest.mark.parametrize("args", [
        ("--help",),
        ("complexity", "--help"),
        ("benchmark", "--help"),
        ("mds", "--help"),
        ("descriptors", "--help"),
    ])
    def test_help_exits_0(self, args):
        res = run_cli(*args)
        assert res.returncode == 0
        assert "usage" in res.stdout.lower()

    def test_descriptors_input_flags_have_help(self):
        res = run_cli("descriptors", "--help")
        assert res.returncode == 0
        for text in ("CSV file, or .bin matrix", "label column name",
                     "passthrough | pca:<d>"):
            assert text in res.stdout

    def test_no_subcommand_exits_2(self):
        res = run_cli()
        assert res.returncode == 2


class TestMdsCommand:
    def test_consumes_stored_affinity(self, blob_csv, tmp_path):
        report = tmp_path / "report.json"
        run_cli("complexity", "--input", str(blob_csv),
                "--out", str(report))
        svg = tmp_path / "map.svg"
        coords = tmp_path / "coords.json"
        res = run_cli("mds", "--from-report", str(report),
                      "--svg", str(svg), "--out", str(coords))
        assert res.returncode == 0
        assert res.stdout.startswith("stress=")
        doc = xml.dom.minidom.parse(str(svg))
        texts = ["".join(c.data for c in t.childNodes)
                 for t in doc.getElementsByTagName("text")]
        assert texts == ["c0", "c1", "c2"]
        payload = json.loads(coords.read_text())
        assert len(payload["coordinates"]) == 3
        assert payload["labels"] == ["c0", "c1", "c2"]

    @pytest.mark.parametrize("names", ["ab", {"x": "a", "y": "b"},
                                       ["a", "b", "c"]])
    def test_labels_fall_back_to_indices(self, tmp_path, names):
        report = tmp_path / "report.json"
        report.write_text(json.dumps({
            "dataset": {"class_names": names},
            "matrices": {"W": [[1.0, 0.5], [0.5, 1.0]]},
        }))
        coords = tmp_path / "coords.json"
        res = run_cli("mds", "--from-report", str(report),
                      "--out", str(coords))
        assert res.returncode == 0, res.stderr
        assert json.loads(coords.read_text())["labels"] == ["0", "1"]

    def test_svg_written_as_utf8_under_c_locale(self, tmp_path):
        data = tmp_path / "cafe.csv"
        data.write_text("x,label\n0.0,café\n0.5,café\n1.0,café\n"
                        "5.0,tea\n5.5,tea\n6.0,tea\n", encoding="utf-8")
        report = tmp_path / "report.json"
        svg = tmp_path / "map.svg"
        env = {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}
        res = run_cli("complexity", "--input", str(data), "--M", "3",
                      "--E", "3", "--k", "1", "--out", str(report),
                      env_extra=env)
        assert res.returncode == 0, res.stderr
        res = run_cli("mds", "--from-report", str(report), "--svg", str(svg),
                      env_extra=env)
        assert res.returncode == 0, res.stderr
        assert "café" in svg.read_bytes().decode("utf-8")

    def test_missing_report_exits_2(self, tmp_path):
        res = run_cli("mds", "--from-report", str(tmp_path / "nope.json"))
        assert res.returncode == 2


class TestDescriptorsCommand:
    def test_values_printed(self, blob_csv, tmp_path):
        out = tmp_path / "desc.json"
        res = run_cli("descriptors", "--input", str(blob_csv),
                      "--out", str(out))
        assert res.returncode == 0
        values = parse_stdout(res.stdout)
        assert set(values) == {"f1", "f2", "f3", "n1", "n2", "n3", "t2"}
        assert float(values["n3"]) == 0.0
        assert float(values["t2"]) == 60.0
        payload = json.loads(out.read_text())
        assert payload["descriptors"]["n2_skipped"] == 0


class TestBenchmarkCommand:
    def test_small_run(self, tmp_path):
        out = tmp_path / "bench.json"
        svg = tmp_path / "bench.svg"
        res = run_cli("benchmark", "--classes", "2", "--dim", "1",
                      "--per-class", "30", "--separations", "6,2,0.5",
                      "--trials", "10000", "--M", "20", "--E", "20",
                      "--k", "2", "--out", str(out), "--svg", str(svg))
        assert res.returncode == 0
        assert "cmsauls: r=" in res.stdout
        payload = json.loads(out.read_text())
        assert payload["config"]["separations"] == [6, 2, 0.5]
        assert len(payload["oracle"]["errors"]) == 3
        xml.dom.minidom.parse(str(svg))

    def test_bad_separations_exit_2(self):
        res = run_cli("benchmark", "--separations", "6,oops,1")
        assert res.returncode == 2

    @pytest.mark.parametrize("extra", [
        ("--svg-metric", "n1"),
        ("--svg-metric", "bogus", "--descriptors"),
        ("--svg-metric", "bogus"),
    ])
    @pytest.mark.parametrize("with_svg", [True, False])
    def test_svg_metric_checked_before_work(self, tmp_path, monkeypatch,
                                            capsys, extra, with_svg):
        from spectral_complexity import analysis

        def no_work(*args, **kwargs):
            raise AssertionError("the suite was generated")

        monkeypatch.setattr(analysis, "gen_gaussian_suite", no_work)
        out, svg = tmp_path / "y.json", tmp_path / "y.svg"
        args = ["benchmark", "--out", str(out), *extra]
        if with_svg:
            args += ["--svg", str(svg)]
        code, stdout, err = main_in_process(capsys, *args)
        assert code == 2
        assert "--svg-metric" in err and stdout == ""
        assert not out.exists() and not svg.exists()

    def test_svg_metric_may_name_a_descriptor(self, tmp_path):
        svg = tmp_path / "bench.svg"
        res = run_cli("benchmark", "--classes", "2", "--dim", "1",
                      "--per-class", "30", "--separations", "6,2,0.5",
                      "--trials", "10000", "--M", "20", "--E", "20",
                      "--k", "2", "--descriptors", "--svg", str(svg),
                      "--svg-metric", "n3")
        assert res.returncode == 0, res.stderr
        xml.dom.minidom.parse(str(svg))


def main_in_process(capsys, *args):
    """Run cli.main in this process; return (exit code, stdout, stderr)."""
    from spectral_complexity import cli
    code = cli.main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_csv(path, features, labels, fmt="{:.9f}".format):
    lines = [",".join(f"x{i}" for i in range(features.shape[1])) + ",label"]
    for row, lab in zip(features, labels):
        lines.append(",".join(map(fmt, row.tolist())) + f",c{lab}")
    path.write_text("\n".join(lines) + "\n")
    return path


def gaussian_classes(n_classes, per_class, dim, spread, seed):
    rng = np.random.default_rng(seed)
    means = spread * rng.standard_normal((n_classes, dim))
    feats = np.vstack([m + rng.standard_normal((per_class, dim))
                       for m in means])
    return feats, np.repeat(np.arange(n_classes), per_class)


class TestSmallClasses:
    """Classes smaller than M or E are used whole, not resampled."""

    def test_sixty_row_classes_score_like_explicit_sizes(self, tmp_path,
                                                          capsys):
        data = write_csv(tmp_path / "small.csv",
                         *gaussian_classes(4, 60, 5, 1.0, seed=3))
        out = tmp_path / "report.json"
        code, stdout, _ = main_in_process(capsys, "complexity", "--input",
                                          str(data), "--out", str(out))
        assert code == 0
        explicit = main_in_process(capsys, "complexity", "--input",
                                   str(data), "--M", "60", "--E", "60")
        assert explicit[0] == 0
        assert stdout == explicit[1]
        report = json.loads(out.read_text())
        assert report["scores"]["cmsauls"] > 0
        assert report["diagnostics"]["degenerate_densities"] == 0
        assert len(report["diagnostics"]["replacement_pairs"]) == 16

    def test_many_features_give_a_finite_score(self, tmp_path, capsys):
        data = write_csv(tmp_path / "wide.csv",
                         *gaussian_classes(8, 93, 29, 1.0, seed=14))
        code, stdout, _ = main_in_process(capsys, "complexity", "--input",
                                          str(data))
        assert code == 0
        assert np.isfinite(float(parse_stdout(stdout)["cmsauls"]))

    def test_class_too_small_for_k_exits_2(self, tmp_path, capsys):
        feats, labels = gaussian_classes(2, 30, 3, 1.0, seed=1)
        data = write_csv(tmp_path / "tiny.csv", feats[:33], labels[:33])
        code, _, stderr = main_in_process(capsys, "complexity", "--input",
                                          str(data))
        assert code == 2
        assert "k=3 exceeds usable target count" in stderr


class TestMalformedReport:
    @pytest.mark.parametrize("matrix", [
        [[1.0, 0.5], [0.5]],
        [[1.0, "half"], [0.5, 1.0]],
        [[1.0, None], [0.5, 1.0]],
        [[1.0, "nan"], [0.5, 1.0]],
        {"rows": [[1.0]]},
        "W",
        7,
        [],
        [1.0, 0.5],
        [[1.0, "0.5"], ["1e0", 1.0]],
        [[True, 0.5], [0.5, 1.0]],
        [[1.0, 10 ** 400], [0.5, 1.0]],
    ])
    def test_bad_matrix_exits_2(self, tmp_path, capsys, matrix):
        path = tmp_path / "report.json"
        path.write_text(json.dumps({"matrices": {"W": matrix}}))
        code, _, stderr = main_in_process(capsys, "mds", "--from-report",
                                          str(path))
        assert code == 2
        assert stderr.startswith("error: ") and "'W'" in stderr

    @pytest.mark.parametrize("matrix", [[[1.0]],
                                        [[1.0, "-inf"], ["-inf", 1.0]],
                                        [[1.0, -1e200], [-1e200, 1.0]]])
    def test_matrix_mds_cannot_embed_exits_2(self, tmp_path, capsys, matrix):
        path = tmp_path / "report.json"
        path.write_text(json.dumps({"matrices": {"W": matrix}}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, stdout, stderr = main_in_process(
                capsys, "mds", "--from-report", str(path), "--out",
                str(tmp_path / "coords.json"))
        assert code == 2 and stdout == ""
        assert stderr.startswith("error: ") and stderr.count("\n") == 1
        assert not (tmp_path / "coords.json").exists()


def unreadable_input(tmp_path, case):
    """Write one input that cannot be read; return (argv, path named)."""
    feats = np.arange(8, dtype="<f4").reshape(4, 2)
    data = write_binary_dataset(tmp_path, feats, ["a", "b", "a", "b"])
    if case == "csv":
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"x1,x2,label\n0.1,0.2,a\xff\n0.3,0.1,b\n")
        return ["complexity", "--input", str(path)], path
    if case == "sidecar":
        path = tmp_path / "embedded.bin.json"
        path.write_bytes(b'{"rows": 4, "cols": 2, "labels": "\xff"}')
        return ["complexity", "--input", str(data)], path
    if case == "labels":
        path = tmp_path / "embedded.labels"
        path.write_bytes(b"a\xff\nb\na\nb\n")
        return ["complexity", "--input", str(data)], path
    if case == "report":
        path = tmp_path / "report.json"
        path.write_bytes(b'{"matrices": {"W": [[1, 0.5], [0.5, 1]]}, '
                         b'"dataset": {"class_names": ["\xff", "b"]}}')
        return ["mds", "--from-report", str(path)], path
    # A directory where the payload should be, sized like a 32x32 matrix
    # on filesystems that give directories 4096 bytes.
    path = tmp_path / "dir.bin"
    path.mkdir()
    (tmp_path / "dir.labels").write_text("a\nb\n" * 16)
    (tmp_path / "dir.bin.json").write_text(json.dumps(
        {"rows": 32, "cols": 32, "labels": "dir.labels"}))
    return ["complexity", "--input", str(path)], path


@pytest.mark.parametrize("case", ["csv", "sidecar", "labels", "report",
                                  "payload"])
def test_unreadable_input_exits_2(tmp_path, capsys, case):
    argv, path = unreadable_input(tmp_path, case)
    code, stdout, stderr = main_in_process(capsys, *argv)
    assert code == 2 and stdout == ""
    assert stderr.startswith("error: cannot read")
    assert stderr.count("\n") == 1 and "Traceback" not in stderr
    assert path.name in stderr


def test_memory_error_exits_3(blob_csv, capsys, monkeypatch):
    from spectral_complexity import analysis

    def exhausted(*args, **kwargs):
        raise MemoryError()

    monkeypatch.setattr(analysis, "build_similarity_matrix", exhausted)
    code, _, stderr = main_in_process(capsys, "complexity", "--input",
                                      str(blob_csv))
    assert code == 3
    assert stderr == "error: out of memory\n"


def test_pca_variance_overflow_exits_3_without_warnings(tmp_path, capsys):
    # Finite features whose centred rows overflow the R factor of the
    # QR fit; test_pca_total_variance_overflow_exits_3 reaches the check
    # after it.
    big = 1.5e308
    feats = np.array([[big, big], [-big, -big]] * 2 + [[1e307, 0.0]])
    data = write_csv(tmp_path / "huge.csv", feats, [0, 1, 0, 1, 0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, stderr = main_in_process(capsys, "complexity", "--input",
                                          str(data), "--reduce", "pca:1")
    assert code == 3
    assert stderr.count("\n") == 1
    assert stderr.startswith("error: ") and "non-finite" in stderr


def test_pca_total_variance_overflow_exits_3(tmp_path, capsys):
    # At a feature scale of 1e160 the R factor is finite and only the
    # total variance, a sum of squared singular values, overflows.
    feats = np.random.default_rng(4).standard_normal((20, 3)) * 1e160
    data = write_csv(tmp_path / "wide.csv", feats, np.arange(20) % 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, stdout, stderr = main_in_process(
            capsys, "complexity", "--input", str(data), "--reduce", "pca:1")
    assert (code, stdout) == (3, "")
    assert stderr == ("error: non-finite PCA variance: "
                      "feature values too large\n")


def test_similarity_overflow_exits_3_without_warnings(tmp_path, capsys):
    # Ten coincident rows in d=40 clamp every self-pair density to
    # float64's max, and the mean of twenty of them overflows.
    rng = np.random.default_rng(0)
    feats = np.vstack([np.zeros((10, 40)), rng.standard_normal((30, 40))])
    data = write_csv(tmp_path / "tight.csv", feats, [0] * 10 + [1] * 30)
    for flags in ((), ("--no-row-normalize",)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, stdout, stderr = main_in_process(
                capsys, "complexity", "--input", str(data), "--M", "20",
                "--E", "25", *flags)
        assert code == 3 and stdout == ""
        assert stderr == ("error: similarity of class pair (0, 0) overflows "
                          "float64; try --reduce pca:<d>\n")


def test_density_divide_overflow_exits_3_without_warnings(tmp_path, capsys):
    # Row 1 sits 1e-11 from row 0 on each of 30 axes, so with k=1 the
    # leave-one-out volume of row 0 is tiny but nonzero and k / volume
    # passes float64; the pair mean is then refused as an overflow. The
    # rows are written in full precision: write_csv's 9 decimals would
    # make rows 0 and 1 coincide.
    rng = np.random.default_rng(0)
    feats = rng.standard_normal((40, 30))
    feats[1] = feats[0] + 1e-11
    lines = [",".join(f"x{i}" for i in range(30)) + ",label"]
    lines += [",".join(map(repr, row.tolist())) + f",{'ab'[i // 20]}"
              for i, row in enumerate(feats)]
    data = tmp_path / "near.csv"
    data.write_text("\n".join(lines) + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, stdout, stderr = main_in_process(
            capsys, "complexity", "--input", str(data), "--M", "20", "--E",
            "20", "--k", "1")
    assert code == 3 and stdout == ""
    assert stderr.count("\n") == 1 and stderr.startswith("error: ")
    assert "overflows float64" in stderr


def test_bray_curtis_overflow_exits_3_without_warnings(tmp_path, capsys):
    # With one query per pair and raw densities, the all-zero and the
    # all-one class each add one clamped float64 max to their column,
    # and the Bray-Curtis sums over columns 0 and 1 overflow.
    rng = np.random.default_rng(0)
    feats = np.vstack([np.zeros((10, 40)), np.ones((10, 40)),
                       rng.standard_normal((30, 40))])
    data = write_csv(tmp_path / "tight.csv", feats, [0] * 10 + [1] * 10
                     + [2] * 30)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, stdout, stderr = main_in_process(
            capsys, "complexity", "--input", str(data), "--M", "1", "--E",
            "25", "--no-row-normalize")
    assert code == 3 and stdout == ""
    assert stderr == ("error: Bray-Curtis sums of class pair (0, 1) overflow "
                      "float64; try --reduce pca:<d>\n")


def test_f1_ratio_overflow_prints_inf_without_warnings(tmp_path, capsys):
    data = tmp_path / "tiny.csv"
    data.write_text("x,label\n0,a\n1e-160,a\n1,b\n1,b\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, stdout, stderr = main_in_process(capsys, "descriptors",
                                               "--input", str(data))
    assert code == 0 and stderr == ""
    assert "f1=inf\n" in stdout


def golden_blobs():
    """Features and labels of the golden blobs.csv."""
    golden = Path(__file__).parent / "golden" / "inputs" / "blobs.csv"
    rows = list(csv.reader(golden.open()))[1:]  # f1,f2,label,f3,f4,f5
    return (np.array([r[:2] + r[3:] for r in rows], dtype=float),
            [r[2] for r in rows])


def huge_features_csv(tmp_path, source, scale):
    """The golden blobs, or 60 N(0, I) rows in 3 classes, times scale."""
    if source == "blobs":
        feats, labels = golden_blobs()
    else:
        rng = np.random.default_rng(0)
        feats, labels = rng.standard_normal((60, 3)), np.arange(60) % 3
    return write_csv(tmp_path / "huge.csv", feats * scale, labels)


@pytest.mark.parametrize("source,scale", [("blobs", 3e153), ("blobs", 1e154),
                                          ("blobs", 1e160),
                                          ("gaussian", 3e153)])
def test_descriptors_on_huge_features_exit_3(tmp_path, capsys, source, scale):
    data = huge_features_csv(tmp_path, source, scale)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, stdout, stderr = main_in_process(capsys, "descriptors",
                                               "--input", str(data))
    assert code == 3 and stdout == ""
    assert stderr == "error: feature values too large for the descriptors\n"


def scaled_blobs(scale):
    feats, labels = golden_blobs()
    return feats * scale, labels


def far_apart_classes():
    """Two 2-D classes of 50 N(0, I) rows, 1e200 apart (the second one's
    rows all round to one point): every cross-pair volume overflows, so
    every cross density is 0."""
    feats = np.random.default_rng(0).standard_normal((100, 2))
    feats[50:] += 1e200
    return feats, np.repeat([0, 1], 50)


def complexity_on(tmp_path, capsys, data, *flags):
    """complexity on data() written in full precision, warnings as errors."""
    path = write_csv(tmp_path / "data.csv", *data(), fmt=repr)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return main_in_process(capsys, "complexity", "--input", str(path),
                               *flags)


# X carries no information, so Bray-Curtis would give W = 1 and the
# maximum score: every density is floored (x 1e-13) or 0 (the others;
# d512 is ROADMAP item 3's five classes of spread 1).
@pytest.mark.parametrize("data, flags", [
    (lambda: scaled_blobs(1e-13), ()),
    (lambda: scaled_blobs(1e110), ()),
    (far_apart_classes, ("--no-diagonal", "--M", "50", "--E", "50")),
    (lambda: gaussian_classes(5, 60, 512, 1.0, seed=0),
     ("--M", "50", "--E", "50")),
], ids=["blobs-x1e-13", "blobs-x1e110", "far-apart-no-diagonal", "d512"])
def test_uninformative_similarity_exits_3(tmp_path, capsys, data, flags):
    code, stdout, stderr = complexity_on(tmp_path, capsys, data, *flags)
    assert code == 3 and stdout == ""
    assert stderr.count("\n") == 1 and stderr.startswith("error: ")
    assert "feature scale" in stderr and "--reduce pca:<d>" in stderr


def test_far_apart_classes_with_diagonal_score_0(tmp_path, capsys):
    # Each class's own density is finite, so X is I.
    code, stdout, _ = complexity_on(tmp_path, capsys, far_apart_classes,
                                    "--M", "50", "--E", "50")
    assert code == 0 and parse_stdout(stdout)["cmsauls"] == "0"


def test_partly_floored_densities_still_score(tmp_path, capsys):
    # ROADMAP item 10's x1e-12: about a fifth of the densities are
    # floored, not all of them, so the run scores.
    def data():
        rng = np.random.default_rng(0)
        feats = np.vstack([2 * c + rng.standard_normal((100, 3))
                           for c in range(5)])
        return feats * 1e-12, np.repeat(np.arange(5), 100)
    out = tmp_path / "report.json"
    code, stdout, _ = complexity_on(tmp_path, capsys, data, "--out", str(out))
    assert code == 0 and np.isfinite(float(parse_stdout(stdout)["cmsauls"]))
    diagnostics = json.loads(out.read_text())["diagnostics"]
    assert 0 < diagnostics["degenerate_densities"] < 2500


@pytest.mark.parametrize("text,line,message", [
    # A quoted two-line label puts the bad cell on physical line 5 of
    # what is the fourth record.
    ('a,b,label\n1,2,"two\nlines"\n3,4,y\n5,oops,y\n', 5,
     "non-numeric feature value 'oops'"),
    ("a,b,label\n1,2," + "x" * 200_000 + "\n3,4,y\n", 2,
     "field larger than field limit"),
], ids=["multi-line-record", "over-long-cell"])
def test_csv_error_names_physical_line(tmp_path, capsys, text, line, message):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    code, stdout, stderr = main_in_process(capsys, "descriptors", "--input",
                                           str(path))
    assert code == 2 and stdout == ""
    assert stderr.startswith(f"error: {path}: line {line}: {message}")
    assert stderr.count("\n") == 1 and "Traceback" not in stderr


def test_complexity_loads_no_scipy_or_network_modules(tmp_path):
    # `complexity` needs numpy and the standard library only, with or
    # without PCA: scipy is imported by the descriptor and benchmark code
    # that calls it, and xml.sax.saxutils would pull in urllib.request,
    # http and ssl.
    blobs = Path(__file__).parent / "golden" / "inputs" / "blobs.csv"
    code = (
        "import sys\n"
        "from spectral_complexity import cli\n"
        f"argv = ['complexity', '--input', {str(blobs)!r}, "
        f"'--out', {str(tmp_path / 'report.json')!r}]\n"
        "code = cli.main(argv) or cli.main(argv + ['--reduce', 'pca:3'])\n"
        "banned = ('scipy', 'xml.sax', 'urllib.request', 'http.client', "
        "'ssl', 'numpy.ma')\n"
        "print(code, sorted(m for m in sys.modules\n"
        "                   if any(m == b or m.startswith(b + '.')\n"
        "                          for b in banned)))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.splitlines()[-1] == "0 []"


def test_mds_loads_no_scipy(tmp_path, capsys):
    # The mds stress needs only numpy row distances of the 2-D map.
    blobs = Path(__file__).parent / "golden" / "inputs" / "blobs.csv"
    report = tmp_path / "report.json"
    assert main_in_process(capsys, "complexity", "--input", str(blobs),
                           "--out", str(report))[0] == 0
    code = (
        "import sys\n"
        "from spectral_complexity import cli\n"
        f"code = cli.main(['mds', '--from-report', {str(report)!r}, "
        f"'--svg', {str(tmp_path / 'mds.svg')!r}])\n"
        "print(code, sorted(m for m in sys.modules\n"
        "                   if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.splitlines()[-1] == "0 []"


def test_benchmark_loads_no_scipy_spatial():
    # Three classes in one dimension fold the suite's simplex, which is
    # then rescaled by its closest vertices. pearson's betainc loads
    # scipy.special, but nothing here needs scipy.spatial.
    code = (
        "import sys\n"
        "from spectral_complexity import cli\n"
        f"code = cli.main({[*SMALL_BENCHMARK, '--classes', '3']!r})\n"
        "print(code, sorted(m for m in sys.modules\n"
        "                   if m.startswith('scipy.spatial')))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.splitlines()[-1] == "0 []"


BLOBS = Path(__file__).parent / "golden" / "inputs" / "blobs.csv"
SMALL_BENCHMARK = ("benchmark", "--classes", "2", "--dim", "1",
                   "--per-class", "10", "--separations", "6,2,0.5",
                   "--trials", "10000", "--M", "10", "--E", "10", "--k", "2")


# Each case: argv ({tmp} is the test's directory, which holds a valid
# embedded.bin dataset), files written over it, and a message in stderr.
CSV_INPUT = ["descriptors", "--input", "{tmp}/data.csv"]
BIN_INPUT = ["complexity", "--input", "{tmp}/embedded.bin"]
REFUSED = {
    "metric-comma": (["complexity", "--input", str(BLOBS), "--metric", ","],
                     {}, "no metrics selected"),
    "separations-comma": (["benchmark", "--separations", ","], {},
                          "empty separation list"),
    "csv-label-only": (CSV_INPUT, {"data.csv": "label\na\nb\n"},
                       "need at least one feature column besides 'label'"),
    "csv-empty": (CSV_INPUT, {"data.csv": ""},
                  "empty file, header row required"),
    "csv-header-only": (CSV_INPUT, {"data.csv": "x,label\n"},
                        "no data rows"),
    "sidecar-no-labels": (BIN_INPUT,
                          {"embedded.bin.json": {"rows": 4, "cols": 2}},
                          "missing key 'labels'"),
    "sidecar-labels-not-a-string": (
        BIN_INPUT, {"embedded.bin.json": {"rows": 4, "cols": 2,
                                          "labels": ["embedded.labels"]}},
        "labels must name a text file"),
    "label-count": (BIN_INPUT, {"embedded.labels": "a\nb\na\n"},
                    "3 labels but matrix declares 4 rows"),
    "report-not-json": (["mds", "--from-report", "{tmp}/report.json"],
                        {"report.json": "W = [[1, 0.5], [0.5, 1]]\n"},
                        "invalid JSON"),
}


@pytest.mark.parametrize("case", list(REFUSED))
def test_refused_input_exits_2(tmp_path, capsys, case):
    argv, files, message = REFUSED[case]
    write_binary_dataset(tmp_path, np.ones((4, 2)), ["a", "b", "a", "b"])
    for name, content in files.items():
        (tmp_path / name).write_text(
            content if isinstance(content, str) else json.dumps(content))
    code, stdout, stderr = main_in_process(
        capsys, *(arg.format(tmp=tmp_path) for arg in argv))
    assert code == 2 and stdout == ""
    assert stderr.startswith("error: ") and message in stderr
    assert stderr.count("\n") == 1



@pytest.mark.parametrize("delta", [-4, 4])
def test_bin_payload_size_mismatch_exits_2(tmp_path, capsys, delta):
    data = write_binary_dataset(tmp_path, np.ones((4, 2)),
                                ["a", "b", "a", "b"])
    payload = data.read_bytes()
    data.write_bytes(payload[:delta] if delta < 0 else payload + b"\0" * delta)
    code, stdout, stderr = main_in_process(capsys, "complexity", "--input",
                                           str(data))
    assert code == 2 and stdout == ""
    assert stderr == (f"error: {data}: size {32 + delta} bytes does not "
                      "match rows*cols*4 = 32\n")

def test_mds_without_dataset_block_labels_by_index(tmp_path, capsys):
    report = tmp_path / "report.json"
    report.write_text(json.dumps({"matrices": {"W": [[1.0, 0.5],
                                                     [0.5, 1.0]]}}))
    coords = tmp_path / "coords.json"
    code, _, stderr = main_in_process(capsys, "mds", "--from-report",
                                      str(report), "--out", str(coords))
    assert code == 0, stderr
    assert json.loads(coords.read_text())["labels"] == ["0", "1"]


@pytest.mark.parametrize("separations, code", [
    ("1,nan,2", 2), ("1,inf,2", 2), ("1,1e200,2", 0)])
def test_benchmark_separations_raise_no_warnings(separations, code):
    # -W turns any numpy RuntimeWarning into a traceback with exit 1.
    res = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", *CLI[1:], "benchmark",
         "--separations", separations, "--trials", "10000", "--classes", "2",
         "--per-class", "10"], capture_output=True, text=True, timeout=120)
    assert res.returncode == code, res.stderr
    if code:
        assert res.stderr == ("error: separations must be finite and "
                              "nonnegative\n")
    else:
        assert res.stderr == "" and "cmsauls: r=" in res.stdout


def test_benchmark_has_no_threads_flag():
    res = run_cli(*SMALL_BENCHMARK, "--threads", "2")
    assert res.returncode == 2
    assert "unrecognized arguments: --threads 2" in res.stderr


def test_benchmark_ignores_threads_variable(capsys, monkeypatch):
    monkeypatch.setenv("SPECTRAL_COMPLEXITY_THREADS", "lots")
    code, stdout, stderr = main_in_process(capsys, *SMALL_BENCHMARK)
    assert code == 0 and stderr == ""
    assert "cmsauls: r=" in stdout


@pytest.mark.parametrize("unbuffered", [True, False])
@pytest.mark.parametrize("command", ["complexity", "benchmark", "mds"])
def test_closed_stdout_exits_2_with_one_error_line(blob_csv, command,
                                                   unbuffered):
    # `spectral-complexity ... | true`: stdout is a pipe whose reader is
    # gone. Unbuffered, the first print fails; buffered, the final flush.
    argv = {"complexity": ("complexity", "--input", str(blob_csv)),
            "benchmark": SMALL_BENCHMARK,
            "mds": ("mds", "--from-report", str(
                Path(__file__).parent / "golden" / "expected"
                / "complexity-csv.json"))}[command]
    import os
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        res = subprocess.run(CLI + list(argv), stdout=write_end,
                             stderr=subprocess.PIPE, text=True, env=env,
                             timeout=120)
    finally:
        os.close(write_end)
    assert res.returncode == 2, res.stderr
    assert res.stderr == ("error: cannot write standard output: "
                          "[Errno 32] Broken pipe\n")


def test_traced_names_exist_where_the_tracer_looks():
    # bench/trace_job.py wraps each name of its CLI, ANALYSIS and
    # DESCRIPTORS tables by getattr on that module; a name that moved away
    # would otherwise show up only as a traced job with no spans.
    import importlib.util

    from spectral_complexity import analysis, cli, descriptors
    path = Path(__file__).resolve().parents[1] / "bench" / "trace_job.py"
    spec = importlib.util.spec_from_file_location("trace_job", path)
    trace_job = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(trace_job)
    missing = [f"{module.__name__}.{name}"
               for module, table in [(cli, trace_job.CLI),
                                     (analysis, trace_job.ANALYSIS),
                                     (descriptors, trace_job.DESCRIPTORS)]
               for name in table if not hasattr(module, name)]
    assert not missing, f"bench/trace_job.py wraps missing names: {missing}"
