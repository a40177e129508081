#!/usr/bin/env python3
"""End-to-end benchmark of the spectral-complexity CLI.

Run from the root of a checkout:

    python3 bench/run.py --workload uci-csv --seed 1 --seconds 10 --trace 0

Each scoring job is one fresh ``python -m spectral_complexity.cli``
process with ``PYTHONPATH`` pointing at this checkout's ``src``. Jobs run
in a closed loop from a single client, one at a time. Inputs are
generated from ``--seed`` into a temporary directory inside the checkout
before any timer starts, and every job's output is checked.

With ``--trace 0`` the last stdout line reports the end-to-end metrics;
with ``--trace 1`` it reports the per-layer metrics, taken from jobs run
under ``bench/trace_job.py`` interleaved with untraced ones. The line
before it records the environment and the input shapes. See
``bench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import itertools
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE = BENCH / "reference.json"

# Reference values in reference.json were recorded at this seed; it is
# also the CLI's own default seed.
DEFAULT_SEED = 42
# Scores and correlations must match the recorded references, and the
# scores recomputed from the stored spectrum, to this relative tolerance.
# Low-dimensional scores are expected to stay within 1e-12 across
# refactors, so any larger drift fails the job.
REL_TOL = 1e-12
# Fresh interpreters timed per run for setup_s; the median is reported.
SETUP_REPEATS = 3
# A job that runs longer than this is killed and counted as failed.
JOB_TIMEOUT_S = 60.0

# The scoring formulas the report declares under diagnostics.definitions;
# _rescore() below implements them independently of the package.
DEFINITIONS = {
    "cmsauls": "sum of cummax of (lam[i+1]^2 - lam[i]^2) / (2 (n - i))",
    "csg": "sum of cummax of (lam[i+1] - lam[i]) / (n - i)",
    "auls": "sum of (lam[i] + lam[i+1]) / 2",
}
SCORES = tuple(DEFINITIONS)


def metric_units(section: str) -> dict[str, str]:
    """Names and units of the "end_to_end" or "per_layer" metrics.

    BENCHMARK.json is the one list of metrics; a run that does not
    compute one of them fails.
    """
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc[section]}


# --------------------------------------------------------------- inputs


@dataclass(frozen=True)
class Job:
    """One CLI invocation and what its output must look like."""

    key: str                      # reference key, unique per input
    argv: tuple[str, ...]         # CLI arguments, without --out
    report: Path                  # report path; the job index is appended
    shape: dict = field(default_factory=dict)  # expected report fields

    @property
    def kind(self) -> str:
        """The subcommand: "complexity" or "benchmark"."""
        return self.argv[0]


def _stratified(rng, lo: float, hi: float, count: int) -> np.ndarray:
    """One log-uniform draw from each of `count` equal strata of [lo, hi].

    Every seed covers the whole range evenly, so the total work of a
    workload barely changes from one seed to the next.
    """
    edges = np.linspace(math.log(lo), math.log(hi), count + 1)
    return np.exp(rng.uniform(edges[:-1], edges[1:]))


def _gaussian_classes(rng, rows: int, classes: int, dim: int,
                      spread: float) -> tuple[np.ndarray, np.ndarray]:
    """Balanced classes of unit-variance Gaussians around random means."""
    labels = rng.permutation(np.arange(rows) % classes)
    means = rng.normal(0.0, spread, size=(classes, dim))
    return means[labels] + rng.standard_normal((rows, dim)), labels


def _write_csv(path: Path, feats: np.ndarray, labels: np.ndarray) -> None:
    header = ",".join(f"x{j}" for j in range(feats.shape[1])) + ",label"
    lines = [header]
    for row, lab in zip(feats.tolist(), labels.tolist()):
        lines.append(",".join("%.9g" % v for v in row) + f",class{lab}")
    path.write_text("\n".join(lines) + "\n")


def _write_bin(path: Path, feats: np.ndarray, labels: np.ndarray) -> None:
    feats.astype("<f4").tofile(path)
    label_file = path.with_name(path.name + ".labels.txt")
    label_file.write_text("".join(f"class{lab}\n" for lab in labels.tolist()))
    sidecar = {"rows": feats.shape[0], "cols": feats.shape[1],
               "labels": label_file.name}
    Path(str(path) + ".json").write_text(json.dumps(sidecar))


def _complexity_job(key, data: Path, flags, seed, workdir, rows, cols,
                    classes) -> Job:
    argv = ("complexity", "--input", str(data), *flags, "--seed", str(seed))
    return Job(key=key, argv=argv, report=workdir / f"{data.stem}.report",
               shape={"samples": rows, "raw_dim": cols, "classes": classes})


def make_uci_csv(seed: int, workdir: Path, tiny: bool = False) -> list[Job]:
    count = 2 if tiny else 12
    rng = np.random.default_rng([seed, 1])
    rows = _stratified(rng, 60 if tiny else 500, 120 if tiny else 5000, count)
    # Features are stratified too, paired with rows by a fixed scramble so
    # that large files do not all get many columns.
    feats = _stratified(rng, 4, 40, count)[(5 * np.arange(count)) % count]
    classes = rng.integers(2, 9, size=count)
    # Every class keeps at least M=E rows. Smaller classes are sampled with
    # replacement, and above about 26 features the duplicate draws crash
    # the CLI today (see README.md, "Inputs left out").
    min_rows = 20 if tiny else 100
    jobs = []
    for i in range(count):
        n, d = int(rows[i]), int(feats[i])
        c = min(int(classes[i]), n // min_rows)
        # Mean offsets shrink with sqrt(d) so that classes overlap at
        # every width and no score collapses to 0.
        X, y = _gaussian_classes(np.random.default_rng([seed, 1, i]),
                                 n, c, d, spread=2.0 / math.sqrt(d))
        path = workdir / f"uci{i:02d}.csv"
        _write_csv(path, X, y)
        flags = ("--M", "20", "--E", "20") if tiny else ()
        jobs.append(_complexity_job(f"uci-csv/{i:02d}", path,
                                    (*flags, "--threads", "1"),
                                    seed, workdir, n, d, c))
    return jobs


def make_many_classes(seed: int, workdir: Path, tiny: bool = False) -> list[Job]:
    classes, per_class, dim = (8, 20, 8) if tiny else (80, 40, 8)
    M = E = 10 if tiny else 40
    X, y = _gaussian_classes(np.random.default_rng([seed, 2]),
                             classes * per_class, classes, dim, spread=1.5)
    path = workdir / "many.bin"
    _write_bin(path, X, y)
    flags = ("--M", str(M), "--E", str(E), "--threads", "1")
    return [_complexity_job("many-classes", path, flags, seed, workdir,
                            classes * per_class, dim, classes)]


def make_embed_bin(seed: int, workdir: Path, tiny: bool = False) -> list[Job]:
    rows, dim, classes, latent = ((2000, 16, 4, 6) if tiny
                                  else (50_000, 64, 20, 12))
    rng = np.random.default_rng([seed, 3])
    Z, y = _gaussian_classes(rng, rows, classes, latent, spread=1.0)
    # A fixed singular-value profile on a random orthonormal basis keeps the
    # PCA output dimension (rate 0.9) the same for every seed.
    basis, _ = np.linalg.qr(rng.standard_normal((dim, latent)))
    scales = np.linspace(3.0, 1.0, latent)
    X = (Z * scales) @ basis.T + 0.3 * rng.standard_normal((rows, dim))
    path = workdir / "embed.bin"
    _write_bin(path, X, y)
    flags = ("--reduce", "pca:rate=0.9", "--threads", "2")
    return [_complexity_job("embed-bin", path, flags, seed, workdir,
                            rows, dim, classes)]


def _benchmark_job(key: str, seed: int, workdir: Path, tiny: bool,
                   descriptors: bool) -> Job:
    argv = ["benchmark", "--seed", str(seed)]
    # The CLI defaults, which the report's config must echo.
    shape = {"classes": 10, "dim": 3, "per_class": 200,
             "separations": [8, 5, 3, 2, 1, 0.5], "trials": 100_000}
    if tiny:
        shape = {"classes": 3, "dim": 2, "per_class": 20,
                 "separations": [4, 2, 1], "trials": 10_000}
        argv += ["--classes", "3", "--dim", "2", "--per-class", "20",
                 "--separations", "4,2,1", "--trials", "10000",
                 "--M", "10", "--E", "10"]
    if descriptors:
        argv.append("--descriptors")
    return Job(key=key, argv=tuple(argv), report=workdir / f"{key}.report",
               shape=shape)


def make_oracle_suite(seed: int, workdir: Path, tiny: bool = False) -> list[Job]:
    return [_benchmark_job("oracle-suite", seed, workdir, tiny, True)]


def oracle_job(seed: int, workdir: Path) -> Job:
    """`benchmark` with its defaults but without descriptors.

    It gives every workload's oracle_r.cmsauls (descriptors do not change
    the cmsauls correlation) and is each run's untimed warm-up job: it
    imports and byte-compiles every module before any timer starts.
    """
    return _benchmark_job("oracle", seed, workdir, False, False)


# Each workload's reason is in BENCHMARK.json and README.md.
WORKLOADS = {"uci-csv": make_uci_csv, "many-classes": make_many_classes,
             "embed-bin": make_embed_bin, "oracle-suite": make_oracle_suite}


def _bind_out(job: Job, index: int) -> tuple[list[str], Path]:
    """CLI argv for one run of `job`, writing its report to a fresh path."""
    report = job.report.with_name(f"{job.report.name}.{index}.json")
    return [*job.argv, "--out", str(report)], report


# ----------------------------------------------------------------- jobs


@dataclass
class Outcome:
    job: Job
    returncode: int
    stdout: str
    stderr: str
    wall_s: float
    maxrss_kib: int
    report: Path
    traced: bool = False
    spans: list | None = None


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    return env


def spawn(argv: list[str], out: Path, err: Path) -> tuple[int, float, int]:
    """Run one child to completion: (exit code, wall seconds, ru_maxrss KiB)."""
    with open(out, "wb") as fo, open(err, "wb") as fe:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=fo, stderr=fe, cwd=ROOT,
                                env=child_env())
        # Signalling by pid is safe until wait4 reaps the child.
        timer = threading.Timer(JOB_TIMEOUT_S, os.kill,
                                (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            # wait4 reaps the child and returns its own resource usage.
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            os.kill(proc.pid, signal.SIGKILL)
            os.waitpid(proc.pid, 0)
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss


class Runner:
    """Runs jobs in a closed loop, one at a time, numbering their outputs."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.count = 0

    def run(self, job: Job, traced: bool = False) -> Outcome:
        self.count += 1
        argv, report = _bind_out(job, self.count)
        stem = self.workdir / f"job{self.count}"
        spans_path = stem.with_suffix(".spans.json")
        if traced:
            cmd = [sys.executable, str(BENCH / "trace_job.py"),
                   str(spans_path), str(self.count), *argv]
        else:
            cmd = [sys.executable, "-m", "spectral_complexity.cli", *argv]
        out, err = stem.with_suffix(".out"), stem.with_suffix(".err")
        rc, wall, rss = spawn(cmd, out, err)
        spans = None
        if traced and spans_path.exists():
            spans = json.loads(spans_path.read_text())
        return Outcome(job, rc, out.read_text(), err.read_text(), wall, rss,
                       report, traced, spans)


def measure_setup(workdir: Path) -> list[float]:
    """Seconds for fresh interpreters to import spectral_complexity.cli."""
    code = ("import time; t = time.perf_counter(); "
            "import spectral_complexity.cli; "
            "print(time.perf_counter() - t); "
            "print(spectral_complexity.__file__)")
    times = []
    for i in range(SETUP_REPEATS):
        out, err = workdir / f"setup{i}.out", workdir / f"setup{i}.err"
        rc, _, _ = spawn([sys.executable, "-c", code], out, err)
        lines = out.read_text().split()
        if rc != 0 or len(lines) != 2:
            raise RuntimeError(f"import failed: {err.read_text()[-2000:]}")
        if Path(lines[1]).resolve().parent != SRC / "spectral_complexity":
            raise RuntimeError(f"imported {lines[1]}, not this checkout")
        times.append(float(lines[0]))
    return times


# --------------------------------------------------------------- checks


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL)


def _rescore(lam: list[float]) -> dict[str, float]:
    """The scores of DEFINITIONS, computed from a sorted spectrum."""
    n = len(lam)
    out = {}
    for name, term in (
        ("cmsauls", lambda i: (lam[i + 1] ** 2 - lam[i] ** 2) / (2 * (n - i))),
        ("csg", lambda i: (lam[i + 1] - lam[i]) / (n - i)),
    ):
        total, peak = 0.0, -math.inf
        for i in range(n - 1):
            peak = max(peak, term(i))
            total += peak
        out[name] = total
    out["auls"] = sum((lam[i] + lam[i + 1]) / 2 for i in range(n - 1))
    return out


def _pearson(x: list[float], y: list[float]) -> float:
    mx, my = statistics.fmean(x), statistics.fmean(y)
    sxy = sum((a - mx) * (b - my) for a, b in zip(x, y))
    sxx = sum((a - mx) ** 2 for a in x)
    syy = sum((b - my) ** 2 for b in y)
    return sxy / math.sqrt(sxx * syy)


def parse_stdout(kind: str, text: str) -> dict[str, float]:
    """Printed values: scores for `complexity`, r values for `benchmark`."""
    lines = text.splitlines()
    if not lines or not lines[0].startswith("seed="):
        raise ValueError("stdout does not start with seed=")
    values = {"seed": float(lines[0][5:])}
    for line in lines[1:]:
        if kind == "complexity":
            name, _, value = line.partition("=")
        else:
            name, _, rest = line.partition(": r=")
            value = rest.split()[0]
        values[name] = float(value)
    return values


def check_shape(job: Job, rep: dict) -> list[str]:
    """The report describes the input the job was given."""
    section = "dataset" if job.kind == "complexity" else "config"
    return [f"report {section}.{key}={rep[section][key]}, input has {want}"
            for key, want in job.shape.items() if rep[section][key] != want]


def check_complexity(printed: dict, rep: dict) -> list[str]:
    errors = []
    if rep["diagnostics"]["definitions"] != DEFINITIONS:
        errors.append("report score definitions changed")
    if set(rep["scores"]) != set(SCORES) or set(printed) != set(SCORES):
        return errors + [f"scores {sorted(printed)} printed, "
                         f"{sorted(rep['scores'])} in report"]
    lam = [float(v) for v in rep["spectrum"]]
    rescored = _rescore(lam)
    for name in SCORES:
        if printed[name] != rep["scores"][name]:
            errors.append(f"{name}: printed {printed[name]!r} != "
                          f"report {rep['scores'][name]!r}")
        if not _close(rescored[name], printed[name]):
            errors.append(f"{name}: spectrum gives {rescored[name]!r}, "
                          f"printed {printed[name]!r}")
    return errors


def check_benchmark(printed: dict, rep: dict) -> list[str]:
    errors = []
    corr = rep["correlations"]
    if set(printed) != set(corr):
        return [f"correlations {sorted(printed)} printed, "
                f"{sorted(corr)} in report"]
    oracle = rep["oracle"]["errors"]
    for name, c in corr.items():
        if "%.6f" % c["r"] != "%.6f" % printed[name]:
            errors.append(f"{name}: printed r={printed[name]!r} != "
                          f"report {c['r']!r}")
        r = _pearson(rep["metrics"][name], oracle)
        if not _close(r, c["r"]):
            errors.append(f"{name}: stored values give r={r!r}, "
                          f"report {c['r']!r}")
    return errors


def job_values(job: Job, rep: dict) -> dict:
    """The numbers of one report that the reference pins down."""
    if job.kind == "complexity":
        return dict(rep["scores"])
    return {"r": {k: c["r"] for k, c in rep["correlations"].items()},
            "metrics": rep["metrics"]}


def check_reference(values: dict, ref: dict, where: str = "") -> list[str]:
    errors = []
    if set(values) != set(ref):
        return [f"{where}keys {sorted(values)} != reference {sorted(ref)}"]
    for key, want in ref.items():
        got = values[key]
        if isinstance(want, dict):
            errors += check_reference(got, want, f"{where}{key}.")
        elif isinstance(want, list):
            if len(got) != len(want) or not all(
                    _close(float(a), float(b)) for a, b in zip(got, want)):
                errors.append(f"{where}{key}: {got} != reference {want}")
        elif not _close(float(got), float(want)):
            errors.append(f"{where}{key}: {got!r} != reference {want!r}")
    return errors


def check_outcome(o: Outcome, seed: int, reference: dict | None) -> list[str]:
    """Every check one job's output must pass; an empty list means correct."""
    if o.returncode != 0:
        return [f"exit code {o.returncode}: {o.stderr.strip()[-500:]}"]
    try:
        printed = parse_stdout(o.job.kind, o.stdout)
        rep = json.loads(o.report.read_text())
    except (OSError, ValueError) as exc:
        return [f"unreadable output: {exc}"]
    if printed.pop("seed") != seed:
        return [f"printed seed differs from {seed}"]
    try:
        errors = check_shape(o.job, rep)
        if o.job.kind == "complexity":
            errors += check_complexity(printed, rep)
        else:
            errors += check_benchmark(printed, rep)
        if reference is not None:
            errors += check_reference(job_values(o.job, rep),
                                      reference[o.job.key])
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        errors = [f"malformed report: {exc!r}"]
    if o.traced and not o.spans:
        errors.append("traced job wrote no spans")
    return errors


def check_repeats(outcomes: list[Outcome]) -> dict[int, list[str]]:
    """Jobs on the same input must print the same thing every time."""
    first: dict[str, str] = {}
    errors = {}
    for i, o in enumerate(outcomes):
        if o.returncode != 0:
            continue
        seen = first.setdefault(o.job.key, o.stdout)
        if o.stdout != seen:
            errors[i] = [f"{o.job.key}: output differs from an earlier run"]
    return errors


def check_all(outcomes: list[Outcome], seed: int) -> list[list[str]]:
    reference = None
    if seed == DEFAULT_SEED:
        reference = json.loads(REFERENCE.read_text())["values"]
    results = [check_outcome(o, seed, reference) for o in outcomes]
    for i, errs in check_repeats(outcomes).items():
        results[i] += errs
    return results


# ---------------------------------------------------------- environment


def _openblas() -> dict:
    """Runtime configuration and thread count of numpy's bundled OpenBLAS."""
    libdir = Path(np.__file__).parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libdir / "*openblas*"))):
        lib = ctypes.CDLL(path)
        try:
            get_config = lib.scipy_openblas_get_config64_
            get_threads = lib.scipy_openblas_get_num_threads64_
        except AttributeError:
            continue
        get_config.restype = ctypes.c_char_p
        get_threads.restype = ctypes.c_int
        return {"config": get_config().decode(), "threads": get_threads()}
    return {"config": None, "threads": None}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_build": blas.get("openblas configuration", blas.get("name")),
        "openblas": _openblas(),
        "thread_env": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
            "SPECTRAL_COMPLEXITY_THREADS")},
        "commit": _git_commit(),
    }


# -------------------------------------------------------------- metrics


def timed_loop(runner: Runner, jobs: list[Job], seconds: float,
               traced: bool) -> tuple[list[Outcome], float]:
    """Cycle through the inputs, one job at a time, until `seconds` pass.

    When traced, each input runs untraced and then traced, so that the
    two sets of timings come from the same stretch of time.
    """
    outcomes = []
    start = time.perf_counter()
    for i in itertools.count():
        outcomes.append(runner.run(jobs[i % len(jobs)]))
        if traced:
            outcomes.append(runner.run(jobs[i % len(jobs)], traced=True))
        elapsed = time.perf_counter() - start
        if elapsed >= seconds:
            return outcomes, elapsed


def end_to_end(loop: list[Outcome], loop_s: float, setup: list[float],
               oracle: Outcome) -> dict[str, float]:
    try:
        rep = json.loads(oracle.report.read_text())
        r = rep["correlations"]["cmsauls"]["r"]
    except (OSError, ValueError, KeyError):
        r = 0.0                       # the failed job is reported as such
    return {
        "setup_s": statistics.median(setup),
        "job_s_p50": statistics.median(o.wall_s for o in loop),
        "jobs_per_min": 60.0 * len(loop) / loop_s,
        "peak_rss_mib": max(o.maxrss_kib for o in loop) / 1024.0,
        "oracle_r.cmsauls": r,
    }


def job_layers(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced job; a stage that did not run is 0."""
    child_s: dict[int, float] = {}
    for s in spans:
        if s["parent"] is not None:
            child_s[s["parent"]] = (child_s.get(s["parent"], 0.0)
                                    + s["end"] - s["start"])

    def busy(*names: str) -> float:
        return sum(s["end"] - s["start"] for s in spans if s["name"] in names)

    def count(key: str, *names: str) -> float:
        return sum(s.get("counters", {}).get(key, 0) for s in spans
                   if s["name"] in names)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    sim = "similarity.build_similarity_matrix"
    load = busy("ingest.load_dataset")
    build = busy(sim)
    pairs = count("pairs", sim)
    ops = count("dist_ops", sim)
    pdist = ("descriptors.n1", "descriptors.n2", "descriptors.n3")
    return {
        "cli.import_s": busy("cli.import"),
        "cli.self_s": sum(s["end"] - s["start"] - child_s.get(s["id"], 0.0)
                          for s in spans if s["name"] == "cli.main"),
        "ingest.load_s": load,
        "ingest.bytes": count("bytes", "ingest.load_dataset"),
        "ingest.rows_per_s": ratio(count("rows", "ingest.load_dataset"), load),
        "reduce.apply_s": busy("reduce.apply_reduction"),
        "reduce.out_dim": max((s["counters"]["out_dim"] for s in spans
                               if s["name"] == "reduce.apply_reduction"),
                              default=0),
        "similarity.build_s": build,
        "similarity.pairs": pairs,
        "similarity.us_per_pair": 1e6 * ratio(build, pairs),
        "similarity.dist_ops": ops,
        "similarity.temp_bytes": 8 * ops,
        "similarity.degenerate_frac": ratio(count("degenerate", sim),
                                            count("queries", sim)),
        "similarity.symmetrize_s": busy("similarity.bray_curtis_symmetrize"),
        "similarity.bc_pairs": count("bc_pairs",
                                     "similarity.bray_curtis_symmetrize"),
        "spectral.laplacian_s": busy("spectral.build_laplacian"),
        "spectral.eig_s": busy("spectral.spectrum"),
        "spectral.scores_s": busy("spectral.compute_scores"),
        "descriptors.compute_s": busy("descriptors.compute_descriptors"),
        "descriptors.n1_s": busy("descriptors.n1"),
        "descriptors.n2_s": busy("descriptors.n2"),
        "descriptors.n3_s": busy("descriptors.n3"),
        "descriptors.f_s": busy("descriptors.f1", "descriptors.f2",
                                "descriptors.f3"),
        "descriptors.pdist_bytes": count("pdist_bytes", *pdist),
        "analysis.suite_s": busy("analysis.gen_gaussian_suite"),
        "analysis.oracle_s": busy("analysis.bayes_error_oracle"),
        "analysis.oracle_trials": count("trials",
                                        "analysis.bayes_error_oracle"),
        "report.build_s": busy("report.build_report",
                               "report.build_benchmark_report"),
        "report.emit_s": busy("report.emit_report"),
        "report.bytes": count("bytes", "report.emit_report"),
    }


def per_layer(spans: list[list[dict]], traced_s: list[float],
              untraced_s: list[float]) -> dict[str, float]:
    """Median over traced jobs of each per-layer metric."""
    jobs = [job_layers(s) for s in spans] or [job_layers([])]
    metrics = {name: statistics.median(j[name] for j in jobs)
               for name in jobs[0]}
    metrics["trace.overhead_frac"] = (statistics.median(traced_s)
                                      / statistics.median(untraced_s) - 1.0)
    return metrics


def emit(outcomes: list[Outcome], errors: list[list[str]],
         metrics: dict[str, float], units: dict[str, str]) -> None:
    failed = sum(1 for e in errors if e)
    for o, errs in zip(outcomes, errors):
        for e in errs:
            print(f"FAILED {o.job.key}: {e}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))


def run(workload: str, seed: int, seconds: float, trace: bool) -> None:
    env = environment()
    with tempfile.TemporaryDirectory(prefix=".bench-", dir=ROOT) as tmp:
        workdir = Path(tmp)
        jobs = WORKLOADS[workload](seed, workdir)
        runner = Runner(workdir)
        oracle = runner.run(oracle_job(seed, workdir))    # untimed warm-up
        setup = [] if trace else measure_setup(workdir)
        loop, loop_s = timed_loop(runner, jobs, seconds, trace)
        outcomes = [oracle, *loop]
        if trace:
            metrics = per_layer(
                [o.spans for o in loop if o.traced and o.spans],
                [o.wall_s for o in loop if o.traced],
                [o.wall_s for o in loop if not o.traced])
            units = metric_units("per_layer")
        else:
            metrics = end_to_end(loop, loop_s, setup, oracle)
            units = metric_units("end_to_end")
        errors = check_all(outcomes, seed)
        print(json.dumps({
            "workload": workload, "seed": seed, "trace": int(trace),
            "environment": env,
            "inputs": [{"key": j.key, **j.shape} for j in jobs],
            "loop_s": loop_s,
            "job_s": [o.wall_s for o in loop if not o.traced],
            "traced_job_s": [o.wall_s for o in loop if o.traced],
            "setup_s": setup,
        }))
        emit(outcomes, errors, metrics, units)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "spectral_complexity" / "cli.py").is_file():
        print(f"error: no spectral_complexity package under {SRC}",
              file=sys.stderr)
        return 2
    run(args.workload, args.seed, args.seconds, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
