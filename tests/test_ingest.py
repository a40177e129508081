import json

import numpy as np
import pytest

from spectral_complexity import (DataError, HyperParams, LabeledDataset,
                                 ReductionSpec, class_partition, load_csv,
                                 load_binary, load_dataset)


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


class TestLabeledDataset:
    def test_empty_class_rejected(self):
        with pytest.raises(DataError, match="densely"):
            LabeledDataset(features=np.zeros((2, 1)),
                           labels=np.array([0, 2]), class_names=("a", "b", "c"))

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
