import csv
import json

import numpy as np
import pytest

from spectral_complexity import (DataError, HyperParams, LabeledDataset,
                                 ReductionSpec, class_partition, load_csv,
                                 load_binary, load_dataset)
from spectral_complexity.ingest import open_input


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestLoadCsv:
    def test_minimal_file(self, tmp_path):
        ds = load_csv(write(tmp_path, "x1,x2,label\n0,0,a\n1,1,b\n"))
        assert ds.n_samples == 2
        assert ds.n_features == 2
        assert ds.n_classes == 2
        assert ds.class_names == ("a", "b")

    def test_first_appearance_reindexing(self, tmp_path):
        ds = load_csv(write(tmp_path, "x,label\n0,b\n1,a\n2,b\n"))
        assert list(ds.labels) == [0, 1, 0]
        assert ds.class_names == ("b", "a")

    def test_malformed_row_names_line(self, tmp_path):
        path = write(tmp_path, "x,y,label\n1,2,a\n1,oops,a\n3,4,b\n")
        with pytest.raises(DataError, match="line 3"):
            load_csv(path)

    def test_ragged_row_names_line(self, tmp_path):
        path = write(tmp_path, "x,y,label\n1,2,a\n1,b\n")
        with pytest.raises(DataError, match="line 3"):
            load_csv(path)

    def test_missing_label_column(self, tmp_path):
        path = write(tmp_path, "x,y,z\n1,2,a\n")
        with pytest.raises(DataError, match="label"):
            load_csv(path)

    def test_label_column_by_name(self, tmp_path):
        ds = load_csv(write(tmp_path, "y,x1,x2\na,1,2\nb,3,4\n"),
                      label_column="y")
        assert ds.class_names == ("a", "b")
        assert np.array_equal(ds.features, [[1.0, 2.0], [3.0, 4.0]])

    def test_single_class_rejected(self, tmp_path):
        path = write(tmp_path, "x,label\n1,a\n2,a\n")
        with pytest.raises(DataError, match="2 classes"):
            load_csv(path)

    def test_nan_feature_rejected(self, tmp_path):
        path = write(tmp_path, "x,label\nnan,a\n2,b\n")
        with pytest.raises(DataError, match="non-finite"):
            load_csv(path)

    def test_missing_file(self):
        with pytest.raises(DataError, match="no_such_file"):
            load_csv("no_such_file.csv")

    def test_bom_is_ignored(self, tmp_path):
        text = "label,x1,x2\na,0.1,0.2\nb,0.3,0.1\na,0.5,0.5\n"
        plain = load_csv(write(tmp_path, text))
        (tmp_path / "bom.csv").write_bytes(b"\xef\xbb\xbf" + text.encode())
        bom = load_csv(str(tmp_path / "bom.csv"))
        assert np.array_equal(bom.features, plain.features)
        assert np.array_equal(bom.labels, plain.labels)
        assert bom.class_names == plain.class_names == ("a", "b")

    def test_load_twice_bit_identical(self, blob_csv):
        a = load_csv(str(blob_csv))
        b = load_csv(str(blob_csv))
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)
        assert a.class_names == b.class_names


class TestLoadBinary:
    def write_binary(self, tmp_path, matrix, labels, rows=None, cols=None):
        matrix = np.asarray(matrix, dtype="<f4")
        path = tmp_path / "feat.bin"
        matrix.tofile(path)
        (tmp_path / "feat.labels").write_text(
            "".join(f"{v}\n" for v in labels))
        meta = {"rows": rows if rows is not None else matrix.shape[0],
                "cols": cols if cols is not None else matrix.shape[1],
                "labels": "feat.labels"}
        (tmp_path / "feat.bin.json").write_text(json.dumps(meta))
        return str(path)

    def test_round_trip(self, tmp_path):
        mat = np.arange(12, dtype=np.float32).reshape(4, 3)
        path = self.write_binary(tmp_path, mat, ["a", "b", "a", "b"])
        ds = load_binary(path)
        assert ds.n_samples == 4
        assert ds.n_features == 3
        assert np.array_equal(ds.features, mat.astype(np.float64))
        assert list(ds.labels) == [0, 1, 0, 1]

    def test_dispatch_by_extension(self, tmp_path):
        mat = np.ones((4, 2), dtype=np.float32)
        mat[2:] += 1
        path = self.write_binary(tmp_path, mat, ["x", "x", "y", "y"])
        assert load_dataset(path).n_classes == 2

    def test_size_mismatch(self, tmp_path):
        mat = np.ones((4, 2), dtype=np.float32)
        path = self.write_binary(tmp_path, mat, ["a", "b", "a", "b"], rows=5)
        with pytest.raises(DataError, match="size"):
            load_binary(path)

    def test_label_count_mismatch(self, tmp_path):
        mat = np.ones((4, 2), dtype=np.float32)
        mat[0, 0] = 0
        path = self.write_binary(tmp_path, mat, ["a", "b", "a"])
        with pytest.raises(DataError, match="labels"):
            load_binary(path)

    def test_missing_sidecar(self, tmp_path):
        path = tmp_path / "feat.bin"
        np.ones(4, dtype="<f4").tofile(path)
        with pytest.raises(DataError, match="sidecar"):
            load_binary(str(path))

    @pytest.mark.parametrize("meta", ["7", "null", '["rows", "cols", "labels"]'])
    def test_sidecar_must_be_an_object(self, tmp_path, meta):
        path = self.write_binary(tmp_path, np.ones((2, 2)), ["a", "b"])
        (tmp_path / "feat.bin.json").write_text(meta)
        with pytest.raises(DataError, match="JSON object"):
            load_binary(path)

    @pytest.mark.parametrize("key, value", [("rows", True), ("cols", False),
                                            ("rows", 3.0), ("cols", "3")])
    def test_sizes_must_be_json_integers(self, tmp_path, key, value):
        # A 12-byte payload fits rows=1, cols=3, so true would pass as 1.
        path = self.write_binary(tmp_path, np.ones((1, 3)), ["a"])
        meta = {"rows": 1, "cols": 3, "labels": "feat.labels", key: value}
        (tmp_path / "feat.bin.json").write_text(json.dumps(meta))
        with pytest.raises(DataError, match="rows and cols must be positive "
                                            "integers"):
            load_binary(path)


class TestLabeledDataset:
    def test_empty_class_rejected(self):
        with pytest.raises(DataError, match="densely"):
            LabeledDataset(features=np.zeros((2, 1)),
                           labels=np.array([0, 2]), class_names=("a", "b", "c"))

    @pytest.mark.parametrize("labels,names", [
        ([5, 5, 5], ()),
        ([0, 2], ()),
        ([-1, 0], ()),
        ([1, 2], ()),
        ([0, 10**12], ()),
        ([0, 1, 1], ("a", "b", "c")),
    ], ids=["one-class", "gap", "negative", "from-one", "huge-id",
            "names-length"])
    def test_label_check_matches_unique_rule(self, monkeypatch, labels,
                                             names):
        # The np.unique rule that the min/max/bincount check replaced.
        uniq = np.unique(labels)
        if uniq.size < 2:
            want = f"need at least 2 classes, got {uniq.size}"
        elif uniq[0] != 0 or uniq[-1] != uniq.size - 1:
            want = "labels must cover 0..n-1 densely; found an empty class"
        else:
            want = f"class_names length {len(names)} != class count {uniq.size}"
        bincount = np.bincount

        def bounded_bincount(x, *args, **kwargs):
            assert int(np.max(x)) < len(x), "bincount over an unchecked id"
            return bincount(x, *args, **kwargs)

        monkeypatch.setattr(np, "bincount", bounded_bincount)
        with pytest.raises(DataError) as err:
            LabeledDataset(features=np.zeros((len(labels), 1)),
                           labels=np.array(labels), class_names=names)
        assert str(err.value) == want

    @pytest.mark.parametrize("features, labels, message", [
        (np.zeros(4), [0, 1, 0, 1], "features must be 2-D, got shape (4,)"),
        (np.zeros((4, 1)), [[0, 1], [0, 1]],
         "labels must be 1-D, got shape (2, 2)"),
        (np.zeros((4, 1)), [0, 1, 0],
         "row count mismatch: 4 feature rows, 3 labels"),
        (np.zeros((1, 1)), [0], "need at least 2 samples, got 1"),
        (np.zeros((2, 0)), [0, 1], "dataset has no feature columns"),
    ], ids=["features-1d", "labels-2d", "row-count", "one-sample",
            "no-columns"])
    def test_shape_refusals(self, features, labels, message):
        with pytest.raises(DataError) as err:
            LabeledDataset(features=features, labels=np.array(labels))
        assert str(err.value) == message

    def test_arrays_frozen(self):
        ds = LabeledDataset(features=np.zeros((2, 1)),
                            labels=np.array([0, 1]))
        with pytest.raises(ValueError):
            ds.features[0, 0] = 5.0

    def test_partition_covers_and_is_disjoint(self):
        ds = LabeledDataset(features=np.zeros((5, 1)),
                            labels=np.array([0, 1, 0, 2, 1]),
                            class_names=("a", "b", "c"))
        parts = class_partition(ds)
        assert [list(p) for p in parts] == [[0, 2], [1, 4], [3]]
        merged = np.concatenate(parts)
        assert sorted(merged) == list(range(5))

    def test_singleton_sets_after_reindexing(self):
        ds = LabeledDataset.from_raw_labels(np.zeros((3, 1)), [2, 1, 0])
        parts = class_partition(ds)
        assert [list(p) for p in parts] == [[0], [1], [2]]


class TestArrayOwnership:
    """The array types keep a float64 input without a copy and freeze it;
    any other input is converted, and the caller's stays writable."""

    def test_float64_inputs_are_kept_and_frozen(self):
        from spectral_complexity import Spectrum, SymmetricAffinity
        X, y = np.zeros((4, 2)), np.array([0, 0, 1, 1])
        W, lam = np.eye(2), np.array([0.0, 1.0])
        ds = LabeledDataset(features=X, labels=y)
        aff = SymmetricAffinity(values=W)
        spec = Spectrum(eigenvalues=lam)
        for given, held in [(X, ds.features), (y, ds.labels),
                            (W, aff.values), (lam, spec.eigenvalues)]:
            assert np.shares_memory(given, held)
            with pytest.raises(ValueError, match="read-only"):
                given[0] = 1

    @pytest.mark.parametrize("convert", [
        lambda a: a.tolist(), lambda a: a.astype(np.float32)])
    def test_other_inputs_are_copied(self, convert):
        from spectral_complexity import SymmetricAffinity
        X, W = convert(np.zeros((4, 2))), convert(np.eye(2))
        ds = LabeledDataset(features=X, labels=[0, 0, 1, 1])
        aff = SymmetricAffinity(values=W)
        X[0][0] = W[0][1] = 0.5
        assert ds.features[0, 0] == 0.0 and aff.values[0, 1] == 0.0
        assert not ds.features.flags.writeable
        assert not aff.values.flags.writeable


class TestHyperParams:
    def test_defaults(self):
        p = HyperParams()
        assert (p.M, p.E, p.k, p.seed) == (100, 100, 3, 42)
        assert p.reduction.mode == "passthrough"

    def test_k_above_e_rejected(self):
        with pytest.raises(DataError, match="k must not exceed E"):
            HyperParams(k=200, E=100)

    @pytest.mark.parametrize("kwargs", [
        {"M": 0}, {"E": 0}, {"k": 0}, {"seed": -1}, {"seed": 2 ** 64},
    ])
    def test_invalid_values(self, kwargs):
        with pytest.raises(DataError):
            HyperParams(**kwargs)

    @pytest.mark.parametrize("name, value", [
        ("M", 2.5), ("M", True), ("E", 3.0), ("k", np.float64(2.0)),
        ("seed", 2.0), ("seed", False), ("k", "3"),
    ])
    def test_non_integers_rejected(self, name, value):
        with pytest.raises(DataError) as err:
            HyperParams(**{name: value})
        assert str(err.value) == f"{name} must be an integer, got {value!r}"

    def test_numpy_integers_accepted(self):
        from spectral_complexity import run_pipeline
        from conftest import make_blobs
        params = HyperParams(M=np.int64(5), E=np.int32(6), k=np.uint8(2),
                             seed=np.uint64(9))
        run = run_pipeline(make_blobs([(0.0, 0.0), (3.0, 0.0)]), params)
        assert np.isfinite(run.X.values).all()


class TestReductionSpec:
    def test_parse_passthrough(self):
        assert ReductionSpec.parse("passthrough").mode == "passthrough"

    def test_parse_fixed(self):
        spec = ReductionSpec.parse("pca:3")
        assert spec.mode == "fixed"
        assert spec.n_components == 3

    def test_parse_rate(self):
        spec = ReductionSpec.parse("pca:rate=0.95")
        assert spec.mode == "rate"
        assert spec.rate == 0.95

    @pytest.mark.parametrize("text", [
        "pca:0", "pca:x", "pca:rate=0", "pca:rate=1.5", "tsne", "pca:rate=abc",
    ])
    def test_parse_rejects(self, text):
        with pytest.raises(DataError):
            ReductionSpec.parse(text)

    def test_describe_round_trip(self):
        for text in ("passthrough", "pca:3", "pca:rate=0.9"):
            assert ReductionSpec.parse(text).describe() == text

    @pytest.mark.parametrize("rate", [0.123456789, 1e-3, 1.0])
    def test_describe_keeps_every_digit_of_the_rate(self, rate):
        spec = ReductionSpec(mode="rate", rate=rate)
        assert ReductionSpec.parse(spec.describe()) == spec

    @pytest.mark.parametrize("rate", [0.5, 0.9, np.float32(0.5),
                                      np.float32(0.9), np.float64(0.9)])
    def test_describe_round_trips_numpy_rates(self, rate):
        spec = ReductionSpec(mode="rate", rate=rate)
        parsed = ReductionSpec.parse(spec.describe())
        assert parsed == spec and parsed.describe() == spec.describe()

    @pytest.mark.parametrize("kwargs, message", [
        ({"mode": "fixed", "n_components": -1},
         "reduction dimension must be >= 1, got -1"),
        ({"mode": "fixed", "n_components": 0},
         "reduction dimension must be >= 1, got 0"),
        ({"mode": "fixed", "n_components": 2.0},
         "reduction dimension must be an integer, got 2.0"),
        ({"mode": "fixed", "n_components": True},
         "reduction dimension must be an integer, got True"),
        ({"mode": "fixed"}, "reduction mode 'fixed' needs n_components"),
        ({"mode": "rate", "rate": 2.0},
         "reduction rate must be in (0, 1], got 2.0"),
        ({"mode": "rate", "rate": -1.0},
         "reduction rate must be in (0, 1], got -1.0"),
        ({"mode": "rate"}, "reduction mode 'rate' needs rate"),
        ({"mode": "rate", "rate": "0.5"},
         "reduction rate must be a number, got '0.5'"),
        ({"mode": "rate", "rate": True},
         "reduction rate must be a number, got True"),
        ({"mode": "bogus"}, "unknown reduction mode 'bogus'; "
                            "expected passthrough, fixed or rate"),
        ({"rate": 0.5}, "reduction mode 'passthrough' takes no rate"),
        ({"n_components": 2},
         "reduction mode 'passthrough' takes no n_components"),
        ({"mode": "fixed", "n_components": 2, "rate": 0.5},
         "reduction mode 'fixed' takes no rate"),
        ({"mode": "rate", "rate": 0.5, "n_components": 2},
         "reduction mode 'rate' takes no n_components"),
    ])
    def test_constructor_refuses(self, kwargs, message):
        with pytest.raises(DataError) as err:
            ReductionSpec(**kwargs)
        assert str(err.value) == message

    @pytest.mark.parametrize("text, message", [
        ("pca:0", "reduction dimension must be >= 1, got 0"),
        ("pca:-3", "reduction dimension must be >= 1, got -3"),
        ("pca:rate=1.5", "reduction rate must be in (0, 1], got 1.5"),
        ("pca:rate=0", "reduction rate must be in (0, 1], got 0.0"),
        ("pca:rate=nan", "reduction rate must be in (0, 1], got nan"),
    ])
    def test_parse_range_messages(self, text, message):
        with pytest.raises(DataError) as err:
            ReductionSpec.parse(text)
        assert str(err.value) == message

    def test_numpy_integer_dimension_accepted(self):
        spec = ReductionSpec(mode="fixed", n_components=np.int64(3))
        assert spec.describe() == "pca:3"


def _parent_load_csv(path, label_column="label"):
    """load_csv as it was with one float() call per cell: the reference."""
    def parse_feature(token, path, line_no):
        try:
            return float(token)
        except ValueError:
            raise DataError(
                f"{path}: line {line_no}: non-numeric feature value {token!r}"
            ) from None

    rows, labels, header, label_idx = [], [], None, -1
    with open_input(path) as fh:
        reader = csv.reader(fh)
        try:
            for record in reader:
                if not record or all(not cell.strip() for cell in record):
                    continue
                if header is None:
                    header = [cell.strip() for cell in record]
                    if label_column not in header:
                        raise DataError(f"{path}: header has no column "
                                        f"named {label_column!r}")
                    label_idx = header.index(label_column)
                    if len(header) < 2:
                        raise DataError(
                            f"{path}: need at least one feature column "
                            f"besides {label_column!r}"
                        )
                    continue
                line_no = reader.line_num
                if len(record) != len(header):
                    raise DataError(f"{path}: line {line_no}: expected "
                                    f"{len(header)} cells, got {len(record)}")
                labels.append(record[label_idx].strip())
                rows.append([
                    parse_feature(cell, path, line_no)
                    for i, cell in enumerate(record) if i != label_idx
                ])
        except csv.Error as exc:
            raise DataError(f"{path}: line {reader.line_num}: {exc}") from None
    if header is None:
        raise DataError(f"{path}: empty file, header row required")
    if not rows:
        raise DataError(f"{path}: no data rows")
    return LabeledDataset.from_raw_labels(np.array(rows, dtype=np.float64),
                                          labels)


CSV_CASES = {
    "plain": "x,y,label\n0.5,1,a\n-2e-3,3,b\n",
    "label-first": "label,x,y\na,1,2\nb,3,4\na,5,6\n",
    "label-middle": "x,label,y\n1, a ,2\n3,b,4\n",
    "spaces-and-forms": "x,y,label\n 1.5 ,\t2\t,a\n1_000,+.5e1,b\nInfinity,-0,a\n",
    "non-ascii-digits": "x,label\n١٢,a\n3,b\n",
    "quoted-multi-line": 'x,y,label\n1,2,"two\nlines"\n3,4,b\n5,oops,b\n',
    "bad-first-cell": "x,y,label\n1,2,a\nnope,also,b\n",
    "bad-last-cell": "label,x,y,z\na,1,2,3\nb,4,5,\n",
    "bad-after-label": "x,label,y\n1,a,2\n3,b, 4 x\n",
    "empty-cell": "x,y,label\n1,,a\n2,3,b\n",
    "huge": "x,label\n1e400,a\n2,b\n",
    "blank-lines": "\n , \nx,label\n\n1,a\n,\n2,b\n",
    "ragged": "x,y,label\n1,2,a\n1,b\n",
    "header-only": "x,label\n",
    "label-only": "label\na\nb\n",
    "empty": "",
}


@pytest.mark.parametrize("name", list(CSV_CASES))
def test_load_csv_matches_per_cell_reference(tmp_path, name):
    path = write(tmp_path, CSV_CASES[name])
    try:
        want = _parent_load_csv(path)
    except DataError as exc:
        with pytest.raises(DataError) as err:
            load_csv(path)
        assert str(err.value) == str(exc)
        return
    got = load_csv(path)
    assert np.array_equal(got.features, want.features)
    assert got.features.dtype == want.features.dtype
    assert np.array_equal(got.labels, want.labels)
    assert got.class_names == want.class_names


def test_load_csv_matches_reference_on_random_rows(tmp_path):
    rng = np.random.default_rng(5)
    values = rng.standard_normal((300, 6)) * 10.0 ** rng.integers(
        -300, 300, (300, 6))
    lines = ["a,b,label,c,d,e,f"] + [
        ",".join([repr(float(v)) for v in row[:2]] + [f"c{i % 7}"]
                 + [repr(float(v)) for v in row[2:]])
        for i, row in enumerate(values)]
    path = write(tmp_path, "\n".join(lines) + "\n")
    got, want = load_csv(path), _parent_load_csv(path)
    assert np.array_equal(got.features, want.features)
    assert np.array_equal(got.features, values)
    assert got.class_names == want.class_names


def _parent_label_order(raw_labels):
    """from_raw_labels' numbering as a first-appearance loop: the
    reference for the dict.fromkeys form."""
    raw = [str(v) for v in raw_labels]
    order = {}
    for v in raw:
        if v not in order:
            order[v] = len(order)
    return [order[v] for v in raw], tuple(order.keys())


def test_from_raw_labels_matches_first_appearance_loop():
    rng = np.random.default_rng(17)
    alphabet = ["a", "b", "B", " a", "", "1", "01", "é", "c,d", "0"]
    for trial in range(500):
        n = int(rng.integers(2, 40))
        pool = alphabet if trial % 2 else [0, 1, 1.0, 2, -3, True, "x"]
        raw = [pool[i] for i in rng.integers(0, len(pool), n)]
        labels, names = _parent_label_order(raw)
        if len(names) < 2:
            continue
        ds = LabeledDataset.from_raw_labels(np.zeros((n, 1)), raw)
        assert ds.labels.tolist() == labels and ds.class_names == names
