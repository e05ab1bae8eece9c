"""End-to-end and per-layer benchmark of the carpetdim CLI.

    python3 perfbench/run.py --workload stages --seed 1 --seconds 20 --trace 0

One fresh interpreter per run. It imports carpetdim from `src/` of the
checkout and calls `carpetdim.cli.main(argv)` in-process, one job after the
other (a closed loop with one client, no threads), for `--seconds` seconds.
Jobs come from the pinned catalogue in `catalogue.py`; the seed picks their
order. Every job's exit code, stdout and output files must match
`goldens.json` byte for byte, or the job counts as failed.

`--trace 0` prints the end-to-end metrics. Job and set-up times are wall
times scaled by the machine-speed probes of `probe.py`, so that shifts in
host CPU speed cancel out; the run record also carries the unscaled figures.
`--trace 1` runs every job twice, untraced and traced, prints the per-layer
metrics of the traced runs (scaled the same way) and writes every span to
`perfbench/_work/`. The last stdout line is the result object; the line
before it is the run record.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"

sys.path.insert(0, str(HERE))
import catalogue  # noqa: E402
import probe  # noqa: E402
import spans  # noqa: E402

SETUP_REPEATS = 5
WARMUP_JOBS = 1
MAX_JOBS = 5000

# Runs in a fresh interpreter: argv = [perfbench dir, src dir, config paths...].
# Prints the set-up time, then the best of three probe runs right after it.
_SETUP_CHILD = """
import sys
from time import perf_counter
t0 = perf_counter()
sys.path.insert(0, sys.argv[2])
import carpetdim
from carpetdim import cli
for path in sys.argv[3:]:
    cli.load_config(path)
t1 = perf_counter()
sys.path.insert(0, sys.argv[1])
import probe
print(t1 - t0, min(probe.seconds("tuples") for _ in range(3)))
"""


class BenchmarkError(Exception):
    """The benchmark itself cannot run or its self-checks failed."""


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def import_cli():
    """carpetdim.cli imported from this checkout's `src/`, and nowhere else."""
    if not (SRC / "carpetdim" / "cli.py").is_file():
        raise BenchmarkError(f"no carpetdim sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import carpetdim
    from carpetdim import cli

    if Path(carpetdim.__file__).resolve().parent != (SRC / "carpetdim").resolve():
        raise BenchmarkError(f"imported carpetdim from {carpetdim.__file__}, not {SRC}")
    return cli


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _setup_runs(config_paths: list[str]) -> list[tuple[float, float]]:
    """(set-up wall time, probe time) of `import carpetdim` plus `load_config`
    of every config, each repeat in a fresh interpreter."""
    out = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", _SETUP_CHILD, str(HERE), str(SRC), *config_paths],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise BenchmarkError(f"set-up child failed: {proc.stderr.strip()}")
        wall, probe_s = proc.stdout.split()
        out.append((float(wall), float(probe_s)))
    return out


class Runner:
    def __init__(self, cli, workload: str, seed: int):
        self.cli = cli
        self.workload = workload
        goldens = json.loads((HERE / "goldens.json").read_text())
        self.goldens = goldens["jobs"]
        self.golden_commit = goldens.get("commit")
        self.jobs = catalogue.job_order(workload, seed, MAX_JOBS)
        self.inputs_sha256 = catalogue.inputs_digest(self.jobs)
        if self.inputs_sha256 != catalogue.inputs_digest(catalogue.job_order(workload, seed, MAX_JOBS)):
            raise BenchmarkError("the same seed produced different inputs")
        self.out_dir = WORK / "out" / workload
        self.config_paths: dict[str, str] = {}
        for job in catalogue.catalogue(workload):
            golden = self.goldens.get(job.key)
            if golden is None or golden["config_sha256"] != job.config_sha256():
                raise BenchmarkError(f"{job.key}: config differs from the pinned catalogue")
            path = WORK / "configs" / (job.key.replace("/", "__") + ".json")
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(job.config_bytes())
            self.config_paths[job.key] = str(path)
        self._order = iter(self.jobs)
        self.attempted = 0
        self.failed = 0

    def next_job(self) -> catalogue.Job:
        job = next(self._order, None)
        if job is None:
            raise BenchmarkError(f"more than {MAX_JOBS} jobs in one run")
        return job

    def run_job(self, job: catalogue.Job) -> tuple[float, int]:
        """Run one job; return its wall time and work units (0 if it failed)."""
        golden = self.goldens[job.key]
        shutil.rmtree(self.out_dir, ignore_errors=True)
        argv = job.argv(self.config_paths[job.key], str(self.out_dir))
        stdout = io.StringIO()
        exc = None
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(stdout):
                code = self.cli.main(argv)
        except (Exception, SystemExit) as err:  # a job that raises is a failed job
            exc, code = err, None
        elapsed = perf_counter() - start
        self.attempted += 1
        problems = []
        if exc is not None:
            problems.append("raised " + "".join(traceback.format_exception_only(exc)).strip())
        elif code != golden["exit"]:
            problems.append(f"exit code {code}, expected {golden['exit']}")
        if sha256(stdout.getvalue().encode()) != golden["stdout_sha256"]:
            problems.append("stdout differs from golden")
        for name, digest in golden["files"].items():
            path = self.out_dir / name
            if not path.is_file() or sha256(path.read_bytes()) != digest:
                problems.append(f"{name} differs from golden")
        if problems:
            self.failed += 1
            print(f"FAILED {job.key}: {'; '.join(problems)}", file=sys.stderr)
            return elapsed, 0
        return elapsed, golden["units"]


def _tail(times: list[float]) -> tuple[float, float]:
    """Value and percentile of the highest percentile with >= 10 jobs beyond it."""
    ordered = sorted(times)
    i = spans.tail_index(len(ordered))
    return ordered[i], 100.0 * (i + 1) / len(ordered)


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "carpetdim").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _untraced(runner: Runner, seconds: float) -> tuple[dict, dict]:
    """Closed loop of jobs; each job's wall time is scaled by the mean of the
    probe runs just before and just after it."""
    expected = spans.snapshot()
    setup = _setup_runs(list(runner.config_paths.values()))
    kind = catalogue.PROBES[runner.workload]
    raw, scaled, probes, units = [], [], [], 0
    before = probe.seconds(kind)
    deadline = perf_counter() + seconds
    while perf_counter() < deadline:
        t, u = runner.run_job(runner.next_job())
        after = probe.seconds(kind)
        raw.append(t)
        scaled.append(probe.scale(t, (before + after) / 2))
        probes.append(after)
        units += u
        before = after
    stray = spans.stray_wrappers(expected)
    if stray:
        raise BenchmarkError(f"untraced run found tracing wrappers: {stray}")
    tail, pct = _tail(scaled)
    metrics = {
        "job_p50_s": (statistics.median(scaled), "s"),
        "job_tail_s": (tail, "s"),
        "work_per_s": (units / sum(scaled), "1/s"),
        "setup_s": (statistics.median(probe.scale(w, p) for w, p in setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ok_frac": (1.0 - runner.failed / runner.attempted, "1"),
    }
    record = {
        "jobs": len(raw),
        "tail_percentile": pct,
        "unscaled_job_p50_s": statistics.median(raw),
        "unscaled_job_tail_s": _tail(raw)[0],
        "unscaled_setup_s": statistics.median(w for w, _ in setup),
        "probe_p50_s": statistics.median(probes),
        "probe": kind,
        "probe_reference_s": probe.REFERENCE_S,
        "setup_runs": setup,
    }
    return metrics, record


def _traced(runner: Runner, seconds: float, seed: int) -> tuple[dict, dict]:
    """Each job runs twice, untraced and traced, in alternating order; the
    tracing overhead is the median over jobs of traced / untraced time - 1.
    Span times are scaled by the probe runs around each pair."""
    expected = spans.snapshot()
    tracer = spans.Tracer()
    kind = catalogue.PROBES[runner.workload]
    ratios, speed = [], {}
    before = probe.seconds(kind)
    deadline = perf_counter() + seconds
    job_id = 0
    while perf_counter() < deadline:
        job = runner.next_job()
        tracer.job = job_id
        times = {}
        for traced_now in ((False, True) if job_id % 2 else (True, False)):
            if traced_now:
                tracer.install()
            try:
                times[traced_now] = runner.run_job(job)[0]
            finally:
                tracer.uninstall()
        after = probe.seconds(kind)
        speed[job_id] = probe.scale(1.0, (before + after) / 2)
        ratios.append(times[True] / times[False])
        before = after
        job_id += 1
    stray = spans.stray_wrappers(expected)
    if stray:
        raise BenchmarkError(f"tracing wrappers left installed: {stray}")
    metrics = spans.layer_metrics(tracer.spans, speed)
    metrics["trace.overhead_frac"] = (statistics.median(ratios) - 1, "1")
    span_file = WORK / f"spans-{runner.workload}-seed{seed}.tsv"
    tracer.dump(span_file)
    record = {"job_pairs": job_id, "spans": len(tracer.spans),
              "span_file": str(span_file.relative_to(ROOT))}
    return metrics, record


def _check_declared(metrics: dict, trace: int) -> None:
    """The printed metrics must be exactly those BENCHMARK.json declares."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}
    printed = {name: unit for name, (_, unit) in metrics.items()}
    if printed != declared:
        diff = sorted(set(printed.items()) ^ set(declared.items()))
        raise BenchmarkError(f"metrics differ from BENCHMARK.json: {diff}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=catalogue.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        runner = Runner(import_cli(), args.workload, args.seed)
        for _ in range(WARMUP_JOBS):
            runner.run_job(runner.next_job())
        if args.trace:
            metrics, record = _traced(runner, args.seconds, args.seed)
        else:
            metrics, record = _untraced(runner, args.seconds)
        _check_declared(metrics, args.trace)
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(WORK / "out", ignore_errors=True)

    record.update({
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(),
        "golden_commit": runner.golden_commit,
        "source_sha256": _source_digest(),
        "inputs_sha256": runner.inputs_sha256,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "attempted": runner.attempted,
        "failed": runner.failed,
    })
    print(json.dumps({"run_record": record}, sort_keys=True))
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
