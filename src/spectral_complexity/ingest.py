"""Dataset loading and run-configuration containers.

Two on-disk formats are supported: delimited text (header row required,
label column selected by name) and raw little-endian float32 matrices
described by a JSON sidecar plus a one-label-per-line text file. Both
land in the same LabeledDataset container with labels re-indexed to
0..n_classes-1 in order of first appearance.
"""

from __future__ import annotations

import csv
import json
import numbers
import os
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError


@dataclass(frozen=True)
class ReductionSpec:
    """Parsed form of the --reduce flag.

    mode is one of "passthrough", "fixed" (keep n_components axes) or
    "rate" (keep the smallest count whose cumulative explained-variance
    ratio reaches rate). A mode takes its own field and no other.
    """

    mode: str = "passthrough"
    n_components: int | None = None
    rate: float | None = None

    def __post_init__(self) -> None:
        own = {"passthrough": None, "fixed": "n_components", "rate": "rate"}
        if self.mode not in own:
            raise DataError(f"unknown reduction mode {self.mode!r}; "
                            "expected passthrough, fixed or rate")
        for name in ("n_components", "rate"):
            used = name == own[self.mode]
            if (getattr(self, name) is None) == used:
                verb = "needs" if used else "takes no"
                raise DataError(f"reduction mode {self.mode!r} {verb} {name}")
        n = self.n_components
        if self.mode == "fixed" and not _is_int(n):
            raise DataError(f"reduction dimension must be an integer, got {n!r}")
        if self.mode == "fixed" and n < 1:
            raise DataError(f"reduction dimension must be >= 1, got {n}")
        r = self.rate
        if self.mode == "rate" and (isinstance(r, bool)
                                    or not isinstance(r, numbers.Real)):
            raise DataError(f"reduction rate must be a number, got {r!r}")
        if self.mode == "rate" and not 0.0 < self.rate <= 1.0:
            raise DataError(f"reduction rate must be in (0, 1], got {self.rate}")

    @staticmethod
    def parse(text: str) -> "ReductionSpec":
        text = text.strip()
        if text == "passthrough":
            return ReductionSpec()
        if text.startswith("pca:"):
            arg = text[len("pca:"):]
            if arg.startswith("rate="):
                try:
                    rate = float(arg[len("rate="):])
                except ValueError:
                    raise DataError(f"invalid reduction rate: {arg!r}") from None
                return ReductionSpec(mode="rate", rate=rate)
            try:
                n = int(arg)
            except ValueError:
                raise DataError(f"invalid reduction dimension: {arg!r}") from None
            return ReductionSpec(mode="fixed", n_components=n)
        raise DataError(
            f"unknown reduction {text!r}; expected passthrough, pca:<d> or pca:rate=<r>"
        )

    def describe(self) -> str:
        if self.mode == "passthrough":
            return "passthrough"
        if self.mode == "fixed":
            return f"pca:{self.n_components}"
        # repr is the shortest text that parses back to the same float;
        # float() first, as numpy scalars repr as np.float32(...).
        return f"pca:rate={float(self.rate)!r}"


@dataclass(frozen=True)
class ReductionMeta:
    """How the embedding was produced, for provenance reporting."""

    method: str
    d: int
    explained_variance_ratio: tuple[float, ...] = ()


@dataclass(frozen=True)
class HyperParams:
    """Run configuration for the similarity estimator.

    M query samples and E target samples are drawn per ordered class
    pair; k is the neighbour rank used by the density estimate. k may
    not exceed E because every query needs k usable targets.
    """

    M: int = 100
    E: int = 100
    k: int = 3
    seed: int = 42
    reduction: ReductionSpec = field(default_factory=ReductionSpec)

    def __post_init__(self) -> None:
        for name in ("M", "E", "k", "seed"):
            value = getattr(self, name)
            if not _is_int(value):
                raise DataError(f"{name} must be an integer, got {value!r}")
        if self.M < 1:
            raise DataError(f"M must be >= 1, got {self.M}")
        if self.E < 1:
            raise DataError(f"E must be >= 1, got {self.E}")
        if self.k < 1:
            raise DataError(f"k must be >= 1, got {self.k}")
        if self.k > self.E:
            raise DataError(f"k must not exceed E, got k={self.k} E={self.E}")
        if not 0 <= self.seed < 2 ** 64:
            raise DataError(f"seed must be a 64-bit unsigned integer, got {self.seed}")


def _is_int(value) -> bool:
    """True for Python and numpy integers; bool is not a count."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _checked_matrix(values, what: str, *, symmetric: bool = False) -> np.ndarray:
    """values as a float64 matrix: square, non-empty, finite, and symmetric
    within 1e-12 when asked.

    Finiteness is checked before symmetry: NaN passes any comparison."""
    vals = np.asarray(values, dtype=np.float64)
    if vals.ndim != 2 or vals.shape[0] != vals.shape[1] or not vals.size:
        raise DataError(f"{what} must be a non-empty square matrix, got {vals.shape}")
    if not np.isfinite(vals).all():
        raise DataError(f"{what} entries must be finite")
    if symmetric and np.any(np.abs(vals - vals.T) > 1e-12):
        raise DataError(f"{what} must be symmetric")
    return vals


def _store(obj, **arrays: np.ndarray) -> None:
    """Mark each array read-only and set it on the frozen dataclass obj."""
    for name, arr in arrays.items():
        arr.setflags(write=False)
        object.__setattr__(obj, name, arr)


@dataclass(frozen=True)
class LabeledDataset:
    """Feature matrix plus dense integer labels.

    features is (N, D) float64; labels is (N,) int64 with values
    0..n_classes-1 assigned in order of first appearance; class_names
    holds the original label strings in that same order. meta is set
    by the reduction stage and records how features were produced.

    A C-contiguous float64 features array and an int64 labels array are
    kept without a copy and made read-only, the caller's own arrays
    included; copy them first to keep writing to them. Other input
    (lists, float32, strided arrays) is converted into new arrays.
    """

    features: np.ndarray
    labels: np.ndarray
    class_names: tuple[str, ...] = field(default=())
    meta: ReductionMeta | None = None

    def __post_init__(self) -> None:
        feats = np.ascontiguousarray(np.asarray(self.features, dtype=np.float64))
        labs = np.asarray(self.labels, dtype=np.int64)
        if feats.ndim != 2:
            raise DataError(f"features must be 2-D, got shape {feats.shape}")
        if labs.ndim != 1:
            raise DataError(f"labels must be 1-D, got shape {labs.shape}")
        if feats.shape[0] != labs.shape[0]:
            raise DataError(
                f"row count mismatch: {feats.shape[0]} feature rows, "
                f"{labs.shape[0]} labels"
            )
        if feats.shape[0] < 2:
            raise DataError(f"need at least 2 samples, got {feats.shape[0]}")
        if feats.shape[1] == 0:
            raise DataError("dataset has no feature columns")
        if not np.all(np.isfinite(feats)):
            bad = int(np.flatnonzero(~np.isfinite(feats).all(axis=1))[0])
            raise DataError(f"non-finite feature value in sample {bad}")
        lo, hi = int(labs.min()), int(labs.max())
        if lo == hi:
            raise DataError("need at least 2 classes, got 1")
        # Every id in [0, n) must appear; gaps mean an empty class. The
        # range check keeps bincount from allocating for a huge id.
        if lo != 0 or hi >= labs.size or not np.bincount(labs).all():
            raise DataError("labels must cover 0..n-1 densely; found an empty class")
        n = hi + 1
        names = tuple(self.class_names) if self.class_names else tuple(
            str(i) for i in range(n)
        )
        if len(names) != n:
            raise DataError(f"class_names length {len(names)} != class count {n}")
        _store(self, features=feats, labels=labs)
        object.__setattr__(self, "class_names", names)

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    @property
    def n_classes(self) -> int:
        return len(self.class_names)

    @staticmethod
    def from_raw_labels(features: np.ndarray, raw_labels) -> "LabeledDataset":
        """Build a dataset re-indexing arbitrary labels by first appearance."""
        raw = [str(v) for v in raw_labels]
        order = {v: i for i, v in enumerate(dict.fromkeys(raw))}
        labels = np.array([order[v] for v in raw], dtype=np.int64)
        return LabeledDataset(features=np.asarray(features), labels=labels,
                              class_names=tuple(order))


def class_partition(ds: LabeledDataset) -> list[np.ndarray]:
    """Row indices of each class, in label order.

    The returned index sets are disjoint and cover all N samples.
    """
    return [np.flatnonzero(ds.labels == c) for c in range(ds.n_classes)]


@contextmanager
def open_input(path: str, what: str = "", binary: bool = False):
    """Open an input file as bytes or as UTF-8 text, a leading BOM dropped.

    An OSError or UnicodeDecodeError raised while opening, or while
    reading inside the with block, becomes a DataError naming the file.
    """
    try:
        with (open(path, "rb") if binary
              else open(path, encoding="utf-8-sig", newline="")) as fh:
            yield fh
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {what}{path}: {exc}") from None


def read_json(path: str, what: str = ""):
    """Parse a JSON input file through open_input."""
    with open_input(path, what) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise DataError(f"{path}: invalid JSON: {exc}") from None


def load_csv(path: str, label_column: str = "label") -> LabeledDataset:
    """Load a comma-separated file: header row, then one sample per row.

    label_column names the header cell holding class labels; every
    other column is parsed as a 64-bit float feature. Blank lines are
    skipped. Malformed rows raise DataError with the 1-based physical
    line on which the record ends, which a quoted multi-line cell moves.
    """
    rows: list[list[float]] = []
    labels: list[str] = []
    header: list[str] | None = None
    label_idx = -1
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
                if len(record) != len(header):
                    raise DataError(f"{path}: line {reader.line_num}: expected "
                                    f"{len(header)} cells, got {len(record)}")
                labels.append(record.pop(label_idx).strip())
                try:
                    rows.append(list(map(float, record)))
                except ValueError:
                    for cell in record:
                        try:
                            float(cell)
                        except ValueError:
                            raise DataError(
                                f"{path}: line {reader.line_num}: non-numeric "
                                f"feature value {cell!r}") from None
        except csv.Error as exc:
            raise DataError(f"{path}: line {reader.line_num}: {exc}") from None
    if header is None:
        raise DataError(f"{path}: empty file, header row required")
    if not rows:
        raise DataError(f"{path}: no data rows")
    return LabeledDataset.from_raw_labels(np.array(rows, dtype=np.float64), labels)


def load_binary(path: str) -> LabeledDataset:
    """Load a flat little-endian float32 row-major matrix.

    The layout comes from a JSON sidecar at <path>.json with keys
    "rows", "cols" and "labels"; "labels" names a one-label-per-line
    text file resolved relative to the sidecar's directory.
    """
    meta_path = path + ".json"
    meta = read_json(meta_path, "sidecar ")
    if not isinstance(meta, dict):
        raise DataError(f"{meta_path}: sidecar must be a JSON object")
    for key in ("rows", "cols", "labels"):
        if key not in meta:
            raise DataError(f"{meta_path}: missing key {key!r}")
    rows, cols = meta["rows"], meta["cols"]
    # bool is an int subclass, and a JSON true would pass isinstance.
    if type(rows) is not int or type(cols) is not int or rows < 1 or cols < 1:
        raise DataError(f"{meta_path}: rows and cols must be positive integers")
    if not isinstance(meta["labels"], str):
        raise DataError(f"{meta_path}: labels must name a text file")
    label_path = os.path.join(os.path.dirname(os.path.abspath(meta_path)),
                              meta["labels"])
    with open_input(label_path, "label file ") as fh:
        labels = [line.strip() for line in fh if line.strip()]
    if len(labels) != rows:
        raise DataError(
            f"{label_path}: {len(labels)} labels but matrix declares {rows} rows"
        )
    expected = rows * cols * 4
    with open_input(path, binary=True) as fh:
        actual = os.fstat(fh.fileno()).st_size
        if actual != expected:
            raise DataError(
                f"{path}: size {actual} bytes does not match rows*cols*4 = {expected}"
            )
        raw = np.fromfile(fh, dtype="<f4").reshape(rows, cols)
    return LabeledDataset.from_raw_labels(raw.astype(np.float64), labels)


def load_dataset(path: str, label_column: str = "label") -> LabeledDataset:
    """Dispatch on extension: .bin loads as raw float32, anything else as CSV."""
    if path.endswith(".bin"):
        return load_binary(path)
    return load_csv(path, label_column=label_column)
