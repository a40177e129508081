"""Self-test of the benchmark in bench/run.py.

Runs a tiny variant of each workload through the real CLI, then shows
that the output checks accept the genuine output and reject a tampered
score, a tampered stored spectrum or metric column, reference drift and a
non-zero exit. Also checks that the traced run reports every per-layer
metric and that BENCHMARK.json names exactly the metrics run.py reports.

    python3 -m pytest -q bench/test_bench.py
"""

import dataclasses
import json
import shutil
import subprocess
import sys

import pytest

import run

SEED = 7
WORKLOADS = sorted(run.WORKLOADS)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("bench")


@pytest.fixture(scope="module")
def jobs(workdir):
    return {name: run.WORKLOADS[name](SEED, workdir, tiny=True)[0]
            for name in WORKLOADS}


@pytest.fixture(scope="module")
def genuine(jobs, workdir):
    runner = run.Runner(workdir)
    return {name: runner.run(job) for name, job in jobs.items()}


def _perturb(value: float) -> float:
    return value * (1 + 1e-9) if value else 1e-9


def _with_report(outcome, rep: dict, path):
    path.write_text(json.dumps(rep))
    return dataclasses.replace(outcome, report=path)


@pytest.mark.parametrize("name", WORKLOADS)
def test_genuine_output_passes(genuine, name):
    assert run.check_outcome(genuine[name], SEED, None) == []


@pytest.mark.parametrize("name", WORKLOADS)
def test_nonzero_exit_rejected(genuine, name):
    o = dataclasses.replace(genuine[name], returncode=1)
    assert any("exit code 1" in e for e in run.check_outcome(o, SEED, None))


@pytest.mark.parametrize("name", ["uci-csv", "oracle-suite"])
def test_failing_job_rejected(jobs, workdir, name):
    job = dataclasses.replace(jobs[name], argv=jobs[name].argv + ("--M", "0"))
    o = run.Runner(workdir).run(job)
    assert o.returncode == 2
    assert any("exit code 2" in e for e in run.check_outcome(o, SEED, None))


@pytest.mark.parametrize("name", WORKLOADS)
def test_tampered_stdout_rejected(genuine, name):
    o = genuine[name]
    lines = o.stdout.splitlines()
    head, sep, rest = lines[1].partition("=")
    value, _, tail = rest.partition(" ")
    tampered = ("%.17g" % _perturb(float(value)) if o.job.kind == "complexity"
                else "%.6f" % (float(value) - 0.001))
    lines[1] = head + sep + tampered + (" " + tail if tail else "")
    bad = dataclasses.replace(o, stdout="\n".join(lines) + "\n")
    assert run.check_outcome(bad, SEED, None)


@pytest.mark.parametrize("name", WORKLOADS)
def test_tampered_report_score_rejected(genuine, name, tmp_path):
    o = genuine[name]
    rep = json.loads(o.report.read_text())
    if o.job.kind == "complexity":
        rep["scores"]["cmsauls"] = _perturb(rep["scores"]["cmsauls"])
    else:
        rep["correlations"]["cmsauls"]["r"] -= 0.001
    bad = _with_report(o, rep, tmp_path / "report.json")
    assert run.check_outcome(bad, SEED, None)


@pytest.mark.parametrize("name", WORKLOADS)
def test_tampered_stored_data_rejected(genuine, name, tmp_path):
    """The printed scores must follow from the stored spectrum or columns."""
    o = genuine[name]
    rep = json.loads(o.report.read_text())
    if o.job.kind == "complexity":
        rep["spectrum"][-1] = _perturb(rep["spectrum"][-1])
    else:
        column = rep["metrics"]["cmsauls"]
        column[0] = _perturb(column[0])
    bad = _with_report(o, rep, tmp_path / "report.json")
    assert run.check_outcome(bad, SEED, None)


@pytest.mark.parametrize("name", WORKLOADS)
def test_reference_drift_rejected(genuine, name):
    o = genuine[name]
    values = run.job_values(o.job, json.loads(o.report.read_text()))
    reference = {o.job.key: values}
    assert run.check_outcome(o, SEED, reference) == []
    drifted = json.loads(json.dumps(values))
    scores = drifted if o.job.kind == "complexity" else drifted["r"]
    assert scores["cmsauls"] != 0
    scores["cmsauls"] *= 1 + 1e-11
    assert run.check_outcome(o, SEED, {o.job.key: drifted})


@pytest.mark.parametrize("name", WORKLOADS)
def test_report_of_other_input_rejected(genuine, name):
    o = genuine[name]
    key = next(iter(o.job.shape))
    job = dataclasses.replace(o.job, shape={**o.job.shape, key: -1})
    assert run.check_outcome(dataclasses.replace(o, job=job), SEED, None)


def test_repeat_with_other_output_rejected(genuine):
    o = genuine["many-classes"]
    other = dataclasses.replace(o, stdout=o.stdout.replace("seed", "seed "))
    assert run.check_repeats([o, o]) == {}
    assert 1 in run.check_repeats([o, other])


@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_job_reports_every_layer(jobs, workdir, name):
    o = run.Runner(workdir).run(jobs[name], traced=True)
    assert run.check_outcome(o, SEED, None) == []
    metrics = run.per_layer([o.spans], [o.wall_s], [o.wall_s])
    assert list(metrics) == list(run.metric_units("per_layer"))
    assert len({s["job"] for s in o.spans}) == 1
    busy = ["cli.import_s", "similarity.build_s", "spectral.eig_s",
            "report.emit_s"]
    if name == "oracle-suite":
        busy += ["descriptors.n1_s", "analysis.oracle_s"]
    else:
        busy += ["ingest.load_s"]
    assert all(metrics[m] > 0 for m in busy)


def test_benchmark_json_matches_run(genuine):
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    o = genuine["many-classes"]
    metrics = run.end_to_end([o], o.wall_s, [1.0], genuine["oracle-suite"])
    assert list(metrics) == list(run.metric_units("end_to_end"))


def test_refuses_checkout_without_program(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "uci-csv", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
