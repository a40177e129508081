#!/usr/bin/env python3
"""Run one spectral-complexity CLI job with a span around each public call.

    python3 bench/trace_job.py SPANS_JSON JOB_ID CLI_ARGS...

The package is imported from ``PYTHONPATH`` as usual. Its public
functions are wrapped where their callers look them up: the ``cli``,
``analysis`` and ``descriptors`` module namespaces. Each span records its
name (``<module>.<function>``), start, end, parent span and the job id,
plus counters read from the call's arguments and result. Spans stay in
memory and are written to SPANS_JSON as one JSON list when the job ends.
The exit code is the CLI's.

Only the main thread is traced: none of the wrapped functions is called
from the similarity stage's worker threads.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time


def _load(ds, path, *args, **kwargs):
    return {"rows": ds.n_samples, "bytes": os.path.getsize(path)}


def _reduce(emb, *args, **kwargs):
    return {"out_dim": emb.n_features}


def _similarity(X, emb, params, *args, include_diagonal=True, **kwargs):
    n = emb.n_classes
    pairs = n * n if include_diagonal else n * (n - 1)
    return {"pairs": pairs, "queries": pairs * params.M,
            "dist_ops": pairs * params.M * params.E * emb.n_features,
            "degenerate": X.diagnostics.degenerate_densities}


def _symmetrize(W, X, *args, **kwargs):
    n = X.n_classes
    return {"bc_pairs": n * (n - 1) // 2}


def _oracle(result, means, covariances, priors, trials, *args, **kwargs):
    return {"trials": trials}


def _pdist(result, emb, *args, **kwargs):
    n = emb.n_samples
    return {"pdist_bytes": 8 * n * (n - 1) // 2}


def _emit(result, report, path, *args, **kwargs):
    return {"bytes": os.path.getsize(path)}


# Function names wrapped in each namespace, with the counters they record.
STAGES = {"apply_reduction": _reduce, "build_similarity_matrix": _similarity,
          "bray_curtis_symmetrize": _symmetrize, "build_laplacian": None,
          "spectrum": None, "compute_scores": None,
          "compute_descriptors": None}
CLI = {"load_dataset": _load, **STAGES, "build_report": None,
       "build_benchmark_report": None, "emit_report": _emit}
ANALYSIS = {**STAGES, "gen_gaussian_suite": None,
            "bayes_error_oracle": _oracle, "run_benchmark": None}
DESCRIPTORS = {"f1": None, "f2": None, "f3": None, "n1": _pdist,
               "n2": _pdist, "n3": _pdist}


class Tracer:
    def __init__(self, job: str):
        self.job = job
        self.spans: list[dict] = []
        self.stack: list[int] = []

    def span(self, name: str, start: float, end: float) -> dict:
        record = {"id": len(self.spans), "job": self.job, "name": name,
                  "parent": self.stack[-1] if self.stack else None,
                  "start": start, "end": end}
        self.spans.append(record)
        return record

    def traced(self, name: str, fn, counters=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = self.span(name, time.perf_counter(), None)
            self.stack.append(record["id"])
            try:
                result = fn(*args, **kwargs)
            finally:
                record["end"] = time.perf_counter()
                self.stack.pop()
            if counters is not None:
                record["counters"] = counters(result, *args, **kwargs)
            return result
        return wrapper

    def wrap(self, module, names: dict) -> None:
        """Replace module.<name> by a traced wrapper, for each name.

        Spans are named after the module that defines the function, so a
        stage reads the same whichever namespace called it.
        """
        for attr, counters in names.items():
            fn = getattr(module, attr)
            name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
            setattr(module, attr, self.traced(name, fn, counters))


def main(argv: list[str]) -> int:
    spans_path, job = argv[0], argv[1]
    tracer = Tracer(job)
    start = time.perf_counter()
    import spectral_complexity.cli as cli
    from spectral_complexity import analysis, descriptors
    tracer.span("cli.import", start, time.perf_counter())
    tracer.wrap(cli, CLI)
    tracer.wrap(analysis, ANALYSIS)
    tracer.wrap(descriptors, DESCRIPTORS)
    try:
        return tracer.traced("cli.main", cli.main)(argv[2:])
    finally:
        with open(spans_path, "w") as fh:
            json.dump(tracer.spans, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
