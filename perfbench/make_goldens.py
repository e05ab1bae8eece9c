"""Pin the CLI outputs of every catalogue job into `goldens.json`.

    python3 perfbench/make_goldens.py

Run this only at a commit whose outputs are the reference: the benchmark
counts every later byte difference as a failed job. Each job's exit code,
stdout and output files are stored as SHA-256 digests, together with its
config digest and its work units (evaluated (n, j) candidates, or for
`verify` the sum of `checked` over all checks).
"""

from __future__ import annotations

import contextlib
import io
import json
import platform
import shutil
import sys

import run
from run import HERE, WORK, catalogue


def main() -> int:
    cli = run.import_cli()
    out_dir = WORK / "goldens"
    config = WORK / "goldens-config.json"
    config.parent.mkdir(parents=True, exist_ok=True)
    jobs = {}
    for workload in catalogue.WORKLOADS:
        for job in catalogue.catalogue(workload):
            config.write_bytes(job.config_bytes())
            shutil.rmtree(out_dir, ignore_errors=True)
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = cli.main(job.argv(str(config), str(out_dir)))
            if code != 0:
                raise SystemExit(f"{job.key}: exit code {code}\n{stdout.getvalue()}")
            files = {name: run.sha256((out_dir / name).read_bytes()) for name in job.outputs}
            units = job.units
            if units is None:
                report = json.loads((out_dir / "verify.json").read_text())
                units = sum(check["checked"] for check in report["checks"])
            jobs[job.key] = {
                "config_sha256": job.config_sha256(),
                "exit": code,
                "stdout_sha256": run.sha256(stdout.getvalue().encode()),
                "files": files,
                "units": units,
            }
            print(f"{job.key}: {units} units", file=sys.stderr)
    shutil.rmtree(out_dir, ignore_errors=True)
    config.unlink()
    goldens = {"commit": run.git_commit(), "python": platform.python_version(), "jobs": jobs}
    (HERE / "goldens.json").write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
