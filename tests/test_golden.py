"""Golden outputs: every CLI subcommand, compared byte for byte.

Each case in CASES runs `cli.main` on the inputs in tests/golden/inputs,
from a temporary directory so every path in a report is relative. The JSON
and SVG files it writes and its stdout are compared with
tests/golden/expected; only the "created" timestamp is blanked. No
input class is smaller than M or E, so `replacement_pairs` stays empty,
but a class of exactly M or E rows is used whole: each 100-row class of
blobs.csv at the default M=E=100, and each 12-row class of sampler.csv.

sampler.csv holds 24 classes of alternately 12 and 20 rows in d=3 (class
means N(0, 2^2 I), rows N(mean, I), numpy default_rng(24), rows
shuffled). At M=E=12 its 576 pairs form one run, long enough for the
vectorized path of similarity._draw, with whole and partial classes
mixed; every other case draws runs short enough for numpy's own path.

After an intentional output change, regenerate the expected files with

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import os
import re
import shutil
import sys
from pathlib import Path

import pytest

from spectral_complexity import cli

GOLDEN = Path(__file__).parent / "golden"
INPUTS = GOLDEN / "inputs"
EXPECTED = GOLDEN / "expected"

# Run in order: the mds case reads the first complexity report.
CASES = {
    "complexity-csv": [
        "complexity", "--input", "blobs.csv", "--descriptors",
        "--store-laplacian", "--spectrum-svg", "complexity-csv.svg",
        "--out", "complexity-csv.json"],
    "complexity-pca": [
        "complexity", "--input", "blobs.csv", "--reduce", "pca:3",
        "--no-diagonal", "--metric", "auls,cmsauls", "--M", "60",
        "--E", "80", "--k", "4", "--seed", "7",
        "--out", "complexity-pca.json"],
    "complexity-bin": [
        "complexity", "--input", "embedded.bin", "--threads", "2",
        "--metric", "csg", "--no-row-normalize",
        "--out", "complexity-bin.json"],
    "complexity-sampler": [
        "complexity", "--input", "sampler.csv", "--M", "12", "--E", "12",
        "--out", "complexity-sampler.json"],
    "benchmark": [
        "benchmark", "--classes", "3", "--dim", "2", "--per-class", "100",
        "--trials", "10000", "--descriptors", "--svg", "benchmark.svg",
        "--out", "benchmark.json"],
    "mds": [
        "mds", "--from-report", "complexity-csv.json", "--svg", "mds.svg",
        "--out", "mds.json"],
    "descriptors": [
        "descriptors", "--input", "embedded.bin", "--reduce", "pca:rate=0.6",
        "--out", "descriptors.json"],
}

EXPECTED_FILES = sorted(p.name for p in EXPECTED.glob("*"))
_CREATED = re.compile(rb'"created": "[^"]*"')


def produce(workdir: Path) -> dict[str, bytes]:
    """Run every case in workdir; return {file name: blanked bytes}."""
    for src in INPUTS.iterdir():
        shutil.copy(src, workdir / src.name)
    outputs: dict[str, bytes] = {}
    old_cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with pytest.MonkeyPatch.context() as mp:
            mp.delenv("SPECTRAL_COMPLEXITY_THREADS", raising=False)
            for name, argv in CASES.items():
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    code = cli.main(argv)
                assert code == 0, f"{name} exited {code}"
                outputs[f"{name}.stdout"] = out.getvalue().encode()
    finally:
        os.chdir(old_cwd)
    for path in sorted(workdir.iterdir()):
        if path.suffix in (".json", ".svg") and not (INPUTS / path.name).exists():
            outputs[path.name] = _CREATED.sub(b'"created": ""',
                                              path.read_bytes())
    return outputs


@pytest.fixture(scope="module")
def produced(tmp_path_factory):
    return produce(tmp_path_factory.mktemp("golden"))


def test_same_file_set(produced):
    assert sorted(produced) == EXPECTED_FILES


@pytest.mark.parametrize("name", EXPECTED_FILES)
def test_output_identical(produced, name):
    assert produced.get(name) == (EXPECTED / name).read_bytes(), name


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        files = produce(Path(tmp))
    shutil.rmtree(EXPECTED, ignore_errors=True)
    EXPECTED.mkdir()
    for fname, data in files.items():
        (EXPECTED / fname).write_bytes(data)
    print(f"wrote {len(files)} files to {EXPECTED}", file=sys.stderr)
