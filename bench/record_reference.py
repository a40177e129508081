#!/usr/bin/env python3
"""Record bench/reference.json: every job's numbers at the default seed.

    python3 bench/record_reference.py

Run it only at a commit whose outputs are trusted. At the default seed the
benchmark fails any job whose scores or correlations differ from these by
more than run.REL_TOL.
"""

import json
import sys
import tempfile
from pathlib import Path

import run


def main() -> int:
    seed = run.DEFAULT_SEED
    values = {}
    with tempfile.TemporaryDirectory(prefix=".bench-", dir=run.ROOT) as tmp:
        workdir = Path(tmp)
        runner = run.Runner(workdir)
        jobs = [job for make in run.WORKLOADS.values()
                for job in make(seed, workdir)]
        jobs.append(run.oracle_job(seed, workdir))
        for job in jobs:
            outcome = runner.run(job)
            errors = run.check_outcome(outcome, seed, None)
            if errors:
                print(f"{job.key}: {errors}", file=sys.stderr)
                return 1
            rep = json.loads(outcome.report.read_text())
            values[job.key] = run.job_values(job, rep)
    run.REFERENCE.write_text(json.dumps(
        {"seed": seed, "commit": run._git_commit(), "values": values},
        indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
