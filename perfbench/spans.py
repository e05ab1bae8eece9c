"""In-memory span tracing over carpetdim's public functions.

`Tracer.install` replaces each traced function, wherever a carpetdim module
holds it (the defining module and every module that imported the name), with
a wrapper that records one span per call: name, start, end, parent span, job
id, the stage `n` when the function takes one, and a count taken from the
result. `Tracer.uninstall` puts the original objects back. Private names are
never wrapped. Nothing is written until the benchmark ends.
"""

from __future__ import annotations

import functools
import math
import statistics
import sys
from time import perf_counter

_MARK = "__perfbench_original__"

# (defining module, public names) of the traced layers.
FUNCTIONS = {
    "cli": ("load_config", "cmd_dimension", "cmd_sn_table", "cmd_verify"),
    "coding": ("make_target", "target_from_word", "alternating_block_word"),
    "shrinking": ("dimension_report", "stage_exponent", "axis_window_patterns", "max_row_counts"),
    "formulas": ("closed_form_for",),
    "verify": (
        "oracle_window_report",
        "brute_force_window_set",
        "pattern_window_set",
        "check_containment_forward",
        "check_containment_backward",
        "exhaustive_relation_check",
        "build_cover",
        "build_lower_bound_measure",
        "holder_exponent_samples",
        "random_words",
    ),
}
DIGITWORD_METHODS = ("shift", "truncation", "periodic")
CHECK_REPORTS = (
    "oracle_window_report",
    "check_containment_forward",
    "check_containment_backward",
    "exhaustive_relation_check",
)
# Positional index of the stage argument `n`.
_STAGE_ARG = {"shrinking.stage_exponent": 3, "shrinking.max_row_counts": 3}
_STAGE_SPANS = tuple(_STAGE_ARG)
_CMDS = ("cli.cmd_dimension", "cli.cmd_sn_table", "cli.cmd_verify")


def _count(name: str, result):
    if name == "shrinking.axis_window_patterns":
        return len(result)
    if name.startswith("verify.") and name[7:] in CHECK_REPORTS:
        return (result.checked, result.skipped)
    return None


def _carpetdim_modules() -> list:
    return [m for k, m in sorted(sys.modules.items()) if k == "carpetdim" or k.startswith("carpetdim.")]


def _digitword():
    return sys.modules["carpetdim.words"].DigitWord


def _targets() -> list[tuple[str, object]]:
    """(span name, original object) of every traced function."""
    out = []
    for mod, names in FUNCTIONS.items():
        module = sys.modules[f"carpetdim.{mod}"]
        out.extend((f"{mod}.{name}", getattr(module, name)) for name in names)
    return out


def snapshot() -> dict:
    """Every slot that tracing may replace, with the object it holds now."""
    originals = {id(fn) for _, fn in _targets()}
    slots = {}
    for module in _carpetdim_modules():
        for attr, value in vars(module).items():
            if id(value) in originals:
                slots[(module.__name__, attr)] = value
    for name in DIGITWORD_METHODS:
        slots[("carpetdim.words.DigitWord", name)] = _digitword().__dict__[name]
    return slots


def stray_wrappers(expected: dict) -> list[str]:
    """Slots that no longer hold the original object, plus any stray wrapper."""
    now = snapshot()
    bad = [".".join(k) for k, v in expected.items() if now.get(k) is not v]
    for module in _carpetdim_modules():
        bad += [f"{module.__name__}.{a}" for a, v in vars(module).items() if hasattr(v, _MARK)]
    for name, value in _digitword().__dict__.items():
        if hasattr(getattr(value, "__func__", value), _MARK):
            bad.append(f"DigitWord.{name}")
    return sorted(set(bad))


class Tracer:
    """Span store plus the wrappers that fill it."""

    def __init__(self):
        # [name, start, end, parent index, job id, n, count]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []
        self.job: int | None = None

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        stage_arg = _STAGE_ARG.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            n = None
            if stage_arg is not None:
                n = args[stage_arg] if len(args) > stage_arg else kwargs.get("n")
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.job, n, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            rec[6] = _count(name, result)
            return result

        setattr(wrapper, _MARK, fn)
        return wrapper

    def install(self) -> None:
        targets = _targets()
        wrappers = {id(fn): self._wrap(name, fn) for name, fn in targets}
        for module in _carpetdim_modules():
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    self._installed.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)])
        cls = _digitword()
        for name in DIGITWORD_METHODS:
            raw = cls.__dict__[name]
            span = f"words.DigitWord.{name}"
            if isinstance(raw, classmethod):
                new = classmethod(self._wrap(span, raw.__func__))
            else:
                new = self._wrap(span, raw)
            self._installed.append((cls, name, raw))
            setattr(cls, name, new)

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("name\tstart\tend\tparent\tjob\tn\tcount\n")
            for rec in self.spans:
                fh.write("\t".join("" if v is None else str(v) for v in rec) + "\n")


def tail_index(count: int) -> int:
    """Index into `count` sorted samples of the highest percentile that
    leaves at least ten samples beyond it (the maximum when too few)."""
    return max(0, count - 11) if count > 10 else count - 1


def _growth_exp(points: dict[int, list[float]]) -> float:
    """Least-squares slope of log(median time) on log n over the upper half
    of the n range, max(n) / 2 <= n <= max(n)."""
    ns = sorted(points)
    upper = [n for n in ns if 2 * n >= ns[-1]] if ns else []
    if len(upper) < 2:
        return 0.0
    xs = [math.log(n) for n in upper]
    ys = [math.log(statistics.median(points[n])) for n in upper]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx


def layer_metrics(spans: list[list], speed: dict[int, float]) -> dict[str, tuple[float, str]]:
    """Per-layer (value, unit) of the traced jobs; totals are per traced job.

    `speed` maps each traced job id to the factor that scales its wall times
    to the probe's reference speed.
    """
    durations = [(end - start) * speed[job] for _, start, end, _, job, _, _ in spans]
    child = [0.0] * len(spans)
    for rec, d in zip(spans, durations):
        if rec[3] >= 0:
            child[rec[3]] += d
    self_s: dict[str, float] = {}
    durs: dict[str, list[float]] = {}
    by_n: dict[str, dict[int, list[float]]] = {}
    counts: dict[str, list] = {}
    stage_time: dict[tuple, float] = {}
    for i, (name, _, _, _, job, n, count) in enumerate(spans):
        d = durations[i]
        self_s[name] = self_s.get(name, 0.0) + d - child[i]
        durs.setdefault(name, []).append(d)
        if n is not None:
            by_n.setdefault(name, {}).setdefault(n, []).append(d)
        if count is not None:
            counts.setdefault(name, []).append(count)
        if name in _STAGE_SPANS:
            stage_time[(job, n)] = stage_time.get((job, n), 0.0) + d

    per_stage: dict[int, list[float]] = {}
    for (_, n), d in stage_time.items():
        per_stage.setdefault(n, []).append(d)
    calls = {name: len(d) for name, d in durs.items()}
    total = {name: sum(d) for name, d in durs.items()}
    jobs = max(len(speed), 1)
    m: dict[str, float] = {}

    def per_job(value: float) -> float:
        return value / jobs

    m["cli.load_config.s"] = per_job(total.get("cli.load_config", 0.0))
    m["cli.cmd.self_s"] = per_job(sum(self_s.get(c, 0.0) for c in _CMDS))
    for name in ("make_target", "target_from_word", "alternating_block_word"):
        m[f"coding.{name}.s"] = per_job(total.get(f"coding.{name}", 0.0))
    m["shrinking.dimension_report.self_s"] = per_job(self_s.get("shrinking.dimension_report", 0.0))

    se = "shrinking.stage_exponent"
    se_durs = sorted(durs.get(se, []))
    m[f"{se}.calls"] = per_job(calls.get(se, 0))
    m[f"{se}.self_s"] = per_job(self_s.get(se, 0.0))
    m[f"{se}.p50_ms"] = 1e3 * statistics.median(se_durs) if se_durs else 0.0
    m[f"{se}.tail_ms"] = 1e3 * se_durs[tail_index(len(se_durs))] if se_durs else 0.0
    m[f"{se}.growth_exp"] = _growth_exp(by_n.get(se, {}))

    awp = "shrinking.axis_window_patterns"
    awp_calls = calls.get(awp, 0)
    m[f"{awp}.calls"] = per_job(awp_calls)
    m[f"{awp}.s"] = per_job(total.get(awp, 0.0))
    m[f"{awp}.patterns_per_call"] = sum(counts.get(awp, [])) / awp_calls if awp_calls else 0.0
    stages = len(stage_time)
    m["shrinking.window_builds_per_stage"] = awp_calls / (2 * stages) if stages else 0.0

    mrc = "shrinking.max_row_counts"
    m[f"{mrc}.calls"] = per_job(calls.get(mrc, 0))
    m[f"{mrc}.s"] = per_job(total.get(mrc, 0.0))
    m[f"{mrc}.growth_exp"] = _growth_exp(by_n.get(mrc, {}))
    m["shrinking.stage_growth_exp"] = _growth_exp(per_stage)

    m["formulas.closed_form_for.s"] = per_job(total.get("formulas.closed_form_for", 0.0))

    for name in FUNCTIONS["verify"]:
        key = f"verify.{name}"
        m[f"{key}.s"] = per_job(total.get(key, 0.0))
        if name in CHECK_REPORTS:
            pairs = counts.get(key, [])
            m[f"{key}.checked"] = per_job(sum(c for c, _ in pairs))
            m[f"{key}.skipped"] = per_job(sum(s for _, s in pairs))
    fwd = "verify.check_containment_forward"
    seen = m[f"{fwd}.checked"] + m[f"{fwd}.skipped"]
    m[f"{fwd}.skipped_frac"] = m[f"{fwd}.skipped"] / seen if seen else 0.0

    for name in DIGITWORD_METHODS:
        key = f"words.DigitWord.{name}"
        m[f"{key}.calls"] = per_job(calls.get(key, 0))
        m[f"{key}.s"] = per_job(total.get(key, 0.0))
    return {name: (value, unit_of(name)) for name, value in m.items()}


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric, from its last name component."""
    last = metric.rsplit(".", 1)[-1]
    if last in ("s", "self_s"):
        return "s/job"
    if last in ("calls", "checked", "skipped"):
        return "1/job"
    if last.endswith("_ms"):
        return "ms"
    return "1"
