"""Pinned input catalogue of the carpetdim benchmark.

Every workload is a fixed list of CLI jobs. The run seed only chooses the
order in which a run cycles through its workload's list, so the same seed
gives byte-identical inputs and every run sees nearly the same job mix.
Nothing here depends on the code under test: `goldens.json` pins the
outputs of every job, and any change to a job's config shows up as a config
digest mismatch.

Jobs inside one workload are sized to do about the same amount of work, so
that a run holds many similar jobs instead of a few long ones. A `dimension`
or `sn-table` job covers a band of stages `n = start..N`: the band ends at
the workload's `N` and starts where the job reaches the workload's work
budget, so jobs with a large `N` cover fewer, more expensive stages.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass

WORKLOADS = ("stages", "surface", "ties", "verify")
# Machine-speed probe (see probe.py) matching the work each workload's jobs
# spend their time on.
PROBES = {"stages": "tuples", "surface": "tuples", "ties": "bigints", "verify": "tuples"}

# Fixed seed for the eventually periodic targets; not the run seed, which
# must never change the catalogue itself.
_TARGET_SEED = 2510_04875
_VICSEK_PAIRS = [(0, 0), (2, 0), (0, 2), (1, 1), (2, 2)]
_LINEAR_12 = {"kind": "linear", "lam": "1", "xi": "2"}

# Work budgets. A stage of the linear (1, 2) schedule evaluates n + 1
# candidates j = n..2n; `sn-table` rebuilds an O(n) window for each of them.
_STAGES_BUDGET = sum(n + 1 for n in range(1, 301))
_SURFACE_BUDGET = sum(n * (n + 1) for n in range(1, 71))
# All-tie stage n costs about (n / 200)^3.4 times a stage at n = 200.
_TIES_BUDGET = 1.12
_TIES_EXPONENT = 3.4
_TIES_TABLE_LEN = 200


@dataclass(frozen=True)
class Job:
    """One CLI invocation: `carpetdim <command> --config <file> --out <dir>`."""

    key: str
    command: str
    config: dict
    cli_seed: int | None = None
    units: int | None = None  # evaluated (n, j) candidates; None for verify

    def config_bytes(self) -> bytes:
        return (json.dumps(self.config, sort_keys=True, indent=1) + "\n").encode()

    def config_sha256(self) -> str:
        return hashlib.sha256(self.config_bytes()).hexdigest()

    def argv(self, config_path: str, out_dir: str) -> list[str]:
        argv = [self.command, "--config", config_path, "--out", out_dir]
        if self.cli_seed is not None:
            argv += ["--seed", str(self.cli_seed)]
        return argv

    @property
    def outputs(self) -> tuple[str, ...]:
        return {
            "dimension": ("sn.csv", "summary.json"),
            "sn-table": ("sn_table.csv",),
            "verify": ("verify.json",),
        }[self.command]


def _periodic_vicsek_targets(count: int) -> list[tuple[str, dict]]:
    rng = random.Random(_TARGET_SEED)
    out = []
    for i in range(count):
        pre = [list(rng.choice(_VICSEK_PAIRS)) for _ in range(rng.randint(0, 2))]
        per = [list(rng.choice(_VICSEK_PAIRS)) for _ in range(rng.randint(2, 4))]
        out.append((f"periodic{i}", {"word": {"preperiod": pre, "period": per}}))
    return out


_NAMED_VICSEK = [
    ("vicsek-origin", {"name": "vicsek-origin"}),
    ("vicsek-center", {"name": "vicsek-center"}),
]


def _band_start(top: int, cost, budget: float) -> int:
    """Largest start whose band start..top costs at least `budget`."""
    total = 0.0
    n = top
    while n > 1 and total + cost(n) < budget:
        total += cost(n)
        n -= 1
    return n


def _band_job(key: str, command: str, target: dict, ifs: str, top: int, cost, budget) -> Job:
    start = _band_start(top, cost, budget)
    config = {
        "ifs": {"name": ifs},
        "target": target,
        "schedule": _LINEAR_12,
        "n_range": {"start": start, "stop": top},
    }
    units = sum(n + 1 for n in range(start, top + 1))
    return Job(f"{key}/n{start}-{top}", command, config, units=units)


def _vicsek_bands(workload: str, command: str, targets, tops: list[int], cost, budget) -> list[Job]:
    """Each vicsek target paired with two band tops."""
    return [
        _band_job(f"{workload}/{name}", command, target, "vicsek", top, cost, budget)
        for i, (name, target) in enumerate(targets)
        for top in (tops[i], tops[(i + 3) % len(tops)])
    ]


def _stages() -> list[Job]:
    targets = _NAMED_VICSEK + _periodic_vicsek_targets(5)
    jobs = _vicsek_bands("stages", "dimension", targets, [300, 450, 600, 750, 900, 1050, 1200],
                         lambda n: n + 1, _STAGES_BUDGET)
    jobs.append(_band_job("stages/corner-blocks", "dimension", {"name": "corner-blocks"},
                          "corner", 600, lambda n: n + 1, _STAGES_BUDGET))
    return jobs


def _surface() -> list[Job]:
    targets = _NAMED_VICSEK + _periodic_vicsek_targets(3)
    return _vicsek_bands("surface", "sn-table", targets, [70, 85, 100, 115, 130, 140],
                         lambda n: n * (n + 1), _SURFACE_BUDGET)


def _ties_values(top: int) -> list[int]:
    """`top` plus smaller stages up to the work budget, all on one step-5
    grid so that the same n recurs across jobs and traced runs."""

    def cost(n: int) -> float:
        return (n / 200) ** _TIES_EXPONENT

    values = [top]
    left = _TIES_BUDGET - cost(top)
    for n in range(top - 5, 55, -5):
        if cost(n) <= left:
            values.append(n)
            left -= cost(n)
    return sorted(values)


def _ties() -> list[Job]:
    table = range(1, _TIES_TABLE_LEN + 1)
    schedule = {"kind": "table", "lam": [n + 1 for n in table], "xi": [2 * n for n in table]}
    jobs = []
    for top in range(200, 155, -5):
        values = _ties_values(top)
        config = {
            "ifs": {"base": 4, "pairs": [[0, 0], [1, 0], [0, 1], [1, 1]]},
            "target": {"point": ["0", "0"]},
            "schedule": schedule,
            "n_range": {"values": values},
        }
        key = "ties/uniform-fibre/n" + "-".join(map(str, values))
        jobs.append(Job(key, "dimension", config, units=sum(values)))
    return jobs


_VERIFY_CHECKS = {
    "oracle": {"n": 3},
    "containment": {"n": 8, "samples": 800},
    "set_relation": {"n": 3, "depth": 5, "exhaustive": True},
    "cover": {"n": 4, "j": 6},
    "measure": {"break_points": [2, 13], "delta": "2"},
}


def _verify() -> list[Job]:
    # One target, so that every job checks about the same number of words;
    # the CLI seed varies the sampled containment words and measure points.
    config = {
        "ifs": {"name": "vicsek"},
        "target": {"name": "vicsek-origin"},
        "schedule": _LINEAR_12,
        "verify": {"seed": 0, "checks": _VERIFY_CHECKS},
    }
    return [Job(f"verify/vicsek-origin/seed{seed}", "verify", config, seed) for seed in range(8)]


def catalogue(workload: str) -> list[Job]:
    """Every job a run of `workload` may pick, in pinned order."""
    return {"stages": _stages, "surface": _surface, "ties": _ties, "verify": _verify}[workload]()


def job_order(workload: str, seed: int, count: int) -> list[Job]:
    """The first `count` jobs of a run: seed-shuffled passes over the catalogue."""
    jobs = catalogue(workload)
    rng = random.Random(f"{workload}:{seed}")
    order: list[Job] = []
    while len(order) < count:
        batch = list(jobs)
        rng.shuffle(batch)
        order.extend(batch)
    return order[:count]


def inputs_digest(order: list[Job]) -> str:
    """Digest of the exact config bytes and argv a run feeds to the CLI."""
    h = hashlib.sha256()
    for job in {job.key: job for job in order}.values():
        h.update(job.key.encode() + b"\0" + job.config_bytes())
    for job in order:
        h.update(f"{job.key}:{job.cli_seed}\n".encode())
    return h.hexdigest()
