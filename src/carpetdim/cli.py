"""Batch front-end: JSON config in, CSV/JSON reports out.

Subcommands: dimension (stage exponents plus closed form), slice (horizontal
slice through the target), verify (finite-depth check suite, nonzero exit on
any failure), sn-table (the full depth/stage surface for plotting).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from pathlib import Path

from . import verify as verify_mod
from .coding import (
    TargetSpec,
    alternating_block_word,
    make_target,
    slice_dimension,
    target_from_word,
)
from .errors import CarpetError, ConfigError, FrequenciesDoNotExistError, ScheduleError
from .formulas import closed_form_for, ratio_limsup_dimension
from .grid import GridIFS, validate_ifs
from .schedules import RateSchedule
from .shrinking import TAIL_FRACTION, StageKernel, dimension_report
from .words import SIZE_GUARD, DigitWord

NAMED_IFS = {
    "vicsek": (3, [(0, 0), (2, 0), (0, 2), (1, 1), (2, 2)]),
    "corner": (3, [(0, 0), (2, 0), (0, 2)]),
}

# named targets: (builder kind, extras)
NAMED_TARGETS = {
    "vicsek-origin": ("point", ("0", "0")),
    "vicsek-center": ("point", ("1/2", "1/2")),
    "corner-blocks": ("blocks", None),
}


def fmt(x: float) -> str:
    return f"{float(x):.12g}"


# one sn_table.csv row as csv.writer writes it: `fmt` is %.12g, the line ends in
# its \r\n, and no field needs quoting
_SURFACE_ROW = "%d,%d,%.12g,%.12g\r\n"


def _round12(x: float) -> float:
    return float(fmt(x))


@dataclass
class RunConfig:
    ifs: GridIFS
    target: TargetSpec
    schedule: RateSchedule
    n_values: list[int]
    verify: dict

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        if not isinstance(data, dict):
            raise ConfigError("$", "config must be a JSON object")
        ifs = _parse_ifs(data.get("ifs"), "ifs")
        target = _parse_target(ifs, data.get("target"), "target")
        schedule = _parse_schedule(data.get("schedule"), "schedule")
        n_values = _parse_n_range(data.get("n_range"), "n_range")
        verify_cfg = _parse_object(data.get("verify", {}), "verify")
        return cls(ifs, target, schedule, n_values, verify_cfg)


def _parse_object(node, path: str) -> dict:
    if node is None:
        raise ConfigError(path, "missing")
    if not isinstance(node, dict):
        raise ConfigError(path, f"expected an object, got {node!r}")
    return node


def _parse_ifs(node, path: str) -> GridIFS:
    node = _parse_object(node, path)
    if "name" in node:
        name = node["name"]
        if not isinstance(name, str) or name not in NAMED_IFS:
            raise ConfigError(f"{path}.name", f"unknown system {name!r}; have {sorted(NAMED_IFS)}")
        base, pairs = NAMED_IFS[name]
    else:
        if "base" not in node or "pairs" not in node:
            raise ConfigError(path, "need base and pairs")
        base = _parse_int(node["base"], f"{path}.base")
        pairs = _parse_pairs(node["pairs"], f"{path}.pairs")
    try:
        return validate_ifs(base, pairs)
    except CarpetError as exc:
        raise ConfigError(path, str(exc)) from exc


def _parse_word(node, path: str) -> DigitWord:
    node = _parse_object(node, path)
    pre, per = node.get("preperiod", []), node.get("period", [])
    if isinstance(pre, list) and isinstance(per, list) and len(pre) + len(per) > SIZE_GUARD:
        raise ConfigError(path, f"{len(pre)} + {len(per)} pairs (preperiod + period), "
                          f"past the guard {SIZE_GUARD}")
    pre = _parse_pairs(pre, f"{path}.preperiod")
    per = _parse_pairs(per, f"{path}.period")
    if per:
        return DigitWord.periodic(pre, per)
    if not pre:
        raise ConfigError(path, "need a nonempty preperiod or a period")
    return DigitWord.truncation(pre)


def _parse_target(ifs: GridIFS, node, path: str) -> TargetSpec:
    node = _parse_object(node, path)
    try:
        if "name" in node:
            name = node["name"]
            if not isinstance(name, str) or name not in NAMED_TARGETS:
                raise ConfigError(
                    f"{path}.name", f"unknown target {name!r}; have {sorted(NAMED_TARGETS)}"
                )
            kind, extra = NAMED_TARGETS[name]
            if kind == "point":
                return make_target(ifs, Fraction(extra[0]), Fraction(extra[1]))
            block_base = _parse_int(node.get("block_base", 4), f"{path}.block_base")
            depth = _parse_int(node.get("depth", 16384), f"{path}.depth")
            if depth > SIZE_GUARD:
                raise ConfigError(f"{path}.depth", f"need at most {SIZE_GUARD}, got {depth}")
            word = alternating_block_word(block_base=block_base, depth=depth)
            return target_from_word(ifs, word)
        if "point" in node:
            z, w = node["point"]
            if isinstance(z, float) or isinstance(w, float):
                raise ConfigError(f"{path}.point", 'floats are rejected; write "1/3"-style strings')
            return make_target(ifs, Fraction(str(z)), Fraction(str(w)))
        if "word" in node:
            return target_from_word(ifs, _parse_word(node["word"], f"{path}.word"))
    except ConfigError:
        raise
    except (CarpetError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise ConfigError(path, str(exc)) from exc
    raise ConfigError(path, "need one of name/point/word")


def _parse_schedule(node, path: str) -> RateSchedule:
    node = _parse_object(node, path)
    kind = node.get("kind", "linear")
    try:
        if kind == "linear":
            return RateSchedule.linear(
                _parse_fraction(node["lam"], f"{path}.lam"),
                _parse_fraction(node["xi"], f"{path}.xi"),
            )
        if kind == "table":
            return RateSchedule.from_tables(
                _parse_int_list(node["lam"], f"{path}.lam"),
                _parse_int_list(node["xi"], f"{path}.xi"),
            )
        if kind == "alternating":
            ratios = [
                (_parse_fraction(l, f"{path}.ratios[{i}][0]"),
                 _parse_fraction(x, f"{path}.ratios[{i}][1]"))
                for i, (l, x) in enumerate(node["ratios"])
            ]
            block_base = _parse_int(node.get("block_base", 4), f"{path}.block_base")
            return RateSchedule.alternating(ratios, block_base)
    except ConfigError:
        raise
    except (CarpetError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(path, f"bad {kind} schedule: {exc}") from exc
    raise ConfigError(f"{path}.kind", f"unknown kind {kind!r}")


def _parse_int(value, path: str) -> int:
    if isinstance(value, (bool, float)):
        raise ConfigError(path, f"expected an integer, got {value!r}")
    try:
        return int(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(path, f"expected an integer, got {value!r}") from exc


def _parse_int_list(node, path: str) -> list[int]:
    if not isinstance(node, list):
        raise ConfigError(path, "expected a list of integers")
    return [v if type(v) is int else _parse_int(v, f"{path}[{i}]") for i, v in enumerate(node)]


def _parse_pairs(node, path: str) -> list[tuple[int, int]]:
    """A list of digit pairs, each a list of exactly two integers."""
    if not isinstance(node, list):
        raise ConfigError(path, "expected a list of [u, v] pairs")
    pairs = []
    for i, pair in enumerate(node):
        if not isinstance(pair, list) or len(pair) != 2:
            raise ConfigError(f"{path}[{i}]", f"expected a pair [u, v], got {pair!r}")
        pairs.append(tuple(_parse_int_list(pair, f"{path}[{i}]")))
    return pairs


def _parse_fraction(value, path: str) -> Fraction:
    """An exact rational: an integer or a string such as "3/2"; JSON floats
    are rejected."""
    if isinstance(value, (bool, float)):
        raise ConfigError(path, f'expected an integer or a string such as "3/2", got {value!r}')
    try:
        return Fraction(str(value))
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(path, f"expected a rational, got {value!r}") from exc


def _parse_real(value, path: str) -> float:
    """A finite number; bools, NaN and infinities are rejected."""
    if not isinstance(value, bool):
        try:
            x = float(value)
        except (TypeError, ValueError):
            pass
        else:
            if math.isfinite(x):
                return x
    raise ConfigError(path, f"expected a finite number, got {value!r}")


def _parse_n_range(node, path: str) -> list[int]:
    """The sampled stages, at most SIZE_GUARD of them."""
    if node is None:
        return list(range(1, 401))
    if isinstance(node, dict) and "values" in node:
        values = _parse_int_list(node["values"], f"{path}.values")
        if not values or values[0] < 1 or any(b <= a for a, b in zip(values, values[1:])):
            raise ConfigError(path, "values must be nonempty, at least 1 and strictly increasing")
        count = len(values)
    elif isinstance(node, dict):
        start = _parse_int(node.get("start", 1), f"{path}.start")
        stop = _parse_int(node.get("stop", 400), f"{path}.stop")
        if start < 1 or stop < start:
            raise ConfigError(path, f"bad range [{start}, {stop}]")
        values, count = range(start, stop + 1), stop - start + 1
    else:
        raise ConfigError(path, "expected {start, stop} or {values}")
    if count > SIZE_GUARD:
        raise ConfigError(path, f"{count} stages, past the guard {SIZE_GUARD}")
    return list(values)


def _stage_windows(
    schedule: RateSchedule, target: TargetSpec, ns: list[int]
) -> list[tuple[int, int]]:
    """The windows (lam(n), xi(n)) of the stages ns, each evaluated once, after
    the checks every stage a run reads must pass: the schedule gives each
    window, lam grows as `RateSchedule.validate_range` asks, the deepest
    window is at most SIZE_GUARD positions deep, and the target is known to
    its depth xi(n) - 1."""
    windows = schedule.validate_range(ns)
    deepest = max(xi for _, xi in windows)
    if deepest > SIZE_GUARD:
        raise ScheduleError(f"the deepest window xi(n) passes the guard {SIZE_GUARD}")
    target.word.require_depth(deepest - 1)
    return windows


def _check_stages(config: RunConfig, path: str) -> list[tuple[int, int]]:
    """The windows of every stage of the run, checked by `_stage_windows`
    before any output, with errors reported at `path`."""
    try:
        return _stage_windows(config.schedule, config.target, config.n_values)
    except CarpetError as exc:
        raise ConfigError(path, str(exc)) from exc


def load_config(path: str) -> RunConfig:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError("$", f"cannot read {path}: {exc.strerror or exc}") from exc
    except ValueError as exc:  # undecodable bytes, bad JSON, oversized integers
        raise ConfigError("$", f"malformed JSON in {path}: {exc}") from exc
    return RunConfig.from_dict(data)


# commands


def cmd_dimension(config: RunConfig, out_dir: Path, windows: list[tuple[int, int]]) -> int:
    report = dimension_report(config.ifs, config.target, config.schedule, config.n_values, windows)
    # the closed forms a run reports are decided here: `closed_form_for`, and the ratio form below
    cf = closed_form_for(config.ifs, config.target, config.schedule)
    closed_form, branch, source = cf or (None, None, None)
    with open(out_dir / "sn.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "s_n", "argmin_j"])
        for rec in report.records:
            writer.writerow([rec.n, fmt(rec.value), rec.argmin_j])
    summary = {
        "limsup_estimate": _round12(report.limsup_estimate),
        "running_max": _round12(report.running_max),
        "still_rising": report.still_rising,
        "tail_fraction": TAIL_FRACTION,
        "n_count": len(report.records),
        # this and "warnings" stay, always empty (every stage has its exact pattern), to keep the format
        "skipped": [],
        "closed_form": None if closed_form is None else _round12(closed_form),
        "closed_form_branch": branch,
        "formula_source": source,
        "warnings": [],
    }
    if config.schedule.kind == "alternating":
        # left out where the formula does not apply (no frequencies, or an extreme row's is 1)
        with contextlib.suppress(FrequenciesDoNotExistError):
            summary["ratio_limsup"] = _round12(ratio_limsup_dimension(
                config.ifs, config.target, config.schedule, config.n_values))
    with open(out_dir / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=2)
    print(f"limsup estimate {fmt(report.limsup_estimate)}"
          + (f", closed form {fmt(closed_form)}" if closed_form is not None else ""))
    return 0


def cmd_slice(config: RunConfig, out_dir: Path) -> int:
    result = slice_dimension(config.ifs, config.target.word)
    payload = {
        "value": _round12(result.value),
        "liminf_attained": result.liminf_attained,
        "attractor_dimension": _round12(config.ifs.attractor_dimension()),
    }
    with open(out_dir / "slice.json", "w") as fh:
        json.dump(payload, fh, indent=2)
    print(f"slice dimension {fmt(result.value)}")
    return 0


def cmd_sn_table(config: RunConfig, out_dir: Path) -> int:
    with open(out_dir / "sn_table.csv", "w", newline="") as fh:
        fh.write("n,j,weighted_row_count,quotient\r\n")
        for n in config.n_values:
            kernel = StageKernel(config.ifs, config.target, config.schedule, n)
            depths = range(kernel.lam, kernel.xi + 1)
            a = kernel.weighted_row_counts()
            rows = zip(repeat(n), depths, a, kernel.quotients(depths, a))
            fh.writelines(map(_SURFACE_ROW.__mod__, rows))
    print(f"wrote surface for {len(config.n_values)} stages")
    return 0


class _CheckOptions:
    """One `verify.checks` entry, read key by key with its field paths."""

    def __init__(self, config: RunConfig, path: str, node: dict):
        self.path, self.node = path, node
        self.ifs, self.target, self.schedule = config.ifs, config.target, config.schedule

    def opt(self, key, default, parse=_parse_int, least=None, why=""):
        value = parse(self.node.get(key, default), f"{self.path}.{key}")
        if least is not None and value < least:
            raise ConfigError(f"{self.path}.{key}", f"need at least {least}{why}, got {value}")
        return value

    def rule(self, key, check, *args):
        """check(*args), a rule the check applies, with any error at this key (None: the check)."""
        try:
            return check(*args)
        except CarpetError as exc:
            raise ConfigError(self.path if key is None else f"{self.path}.{key}", str(exc)) from exc

    def window(self, n, key="n"):
        """(lam(n), xi(n)), checked as a run's stages are (`_stage_windows`)."""
        return self.rule(key, _stage_windows, self.schedule, self.target, [n])[0]

    def enumerable(self, key, k):
        self.rule(key, verify_mod.require_enumerable, self.ifs, k)


def _sampled(o: _CheckOptions, depth: int) -> dict:
    """`samples` words of `depth` pairs each, at most SIZE_GUARD pairs in all."""
    if depth > SIZE_GUARD:
        raise ConfigError(f"{o.path}.depth", f"need at most {SIZE_GUARD}, got {depth}")
    samples = o.opt("samples", 2000, least=1)
    if samples * depth > SIZE_GUARD:
        raise ConfigError(f"{o.path}.samples",
                          f"{samples} words of depth {depth} pass the guard {SIZE_GUARD} pairs")
    return {"samples": samples, "depth": depth}


def _oracle_options(o: _CheckOptions) -> dict:
    n = o.opt("n", 2)
    o.enumerable("n", o.window(n)[1])
    return {"n": n}


def _containment_options(o: _CheckOptions) -> dict:
    o.rule(None, verify_mod.target_point, o.target)  # a truncation has no exact point
    n = o.opt("n", 3)
    need = n + o.window(n)[1]
    return {"n": n, **_sampled(o, o.opt("depth", need + 5, least=need, why=" = n + xi(n)"))}


def _containment_exhaustive_options(o: _CheckOptions) -> dict:
    o.rule(None, verify_mod.target_point, o.target)  # a truncation has no exact point
    n = o.opt("n", 2)
    need = n + o.window(n)[1]
    depth = o.opt("depth", 10, least=need, why=" = n + xi(n)")
    o.enumerable("depth", depth)
    return {"n": n, "depth": depth}


def _set_relation_options(o: _CheckOptions) -> dict:
    o.rule(None, verify_mod.target_point, o.target)  # a truncation has no exact point
    n = o.opt("n", 3)
    xi = o.window(n)[1]
    o.rule("n", verify_mod._interior_thresholds, o.ifs, o.target, o.schedule, n)
    exhaustive = o.node.get("exhaustive", False)
    if not isinstance(exhaustive, bool):
        raise ConfigError(f"{o.path}.exhaustive", f"expected true or false, got {exhaustive!r}")
    if exhaustive:
        depth = o.opt("depth", 8, least=n, why=" = n")
        o.enumerable("depth", depth)
        return {"n": n, "exhaustive": True, "depth": depth}
    return {"n": n, "exhaustive": False, **_sampled(o, o.opt("depth", n + xi + 4, least=1))}


def _cover_options(o: _CheckOptions) -> dict:
    n = o.opt("n", 2)
    lam, xi = o.window(n)
    o.enumerable("n", n)
    j = o.opt("j", lam, least=lam, why=" = lam(n)")
    if j > xi:
        raise ConfigError(f"{o.path}.j", f"need at most {xi} = xi(n), got {j}")
    return {"n": n, "j": j}


def _measure_options(o: _CheckOptions) -> dict:
    bps = _parse_int_list(o.node.get("break_points", []), f"{o.path}.break_points")
    delta = o.rule("delta", verify_mod.measure_delta, o.opt("delta", 2, _parse_fraction))
    o.rule("break_points", verify_mod.measure_break_points, o.schedule, bps, delta)
    for n in bps:
        _, xi = o.window(n, "break_points")
    # the measure's depth; its Holder samples read one ball per level up to it
    depth = bps[-1] + xi + 2
    levels = depth * (depth + 1) // 2
    if levels > SIZE_GUARD:
        raise ConfigError(f"{o.path}.break_points", f"the Holder samples of a measure of depth "
                          f"{depth} read {levels} cell levels, past the guard {SIZE_GUARD}")
    return {"break_points": bps, "delta": delta,
            "holder_slack": o.opt("holder_slack", 0.05, _parse_real)}


# every verify check, in output order: its option reader and the name of its
# family in verify.py, looked up when it runs so patched functions are seen
_CHECKS = {
    "oracle": (_oracle_options, "oracle_reports"),
    "containment": (_containment_options, "containment_reports"),
    "containment_exhaustive": (_containment_exhaustive_options, "containment_exhaustive_reports"),
    "set_relation": (_set_relation_options, "set_relation_reports"),
    "cover": (_cover_options, "cover_reports"),
    "measure": (_measure_options, "measure_reports"),
}
_DEFAULT_CHECKS = ("oracle", "containment", "set_relation")


def _verify_options(config: RunConfig) -> dict[str, dict]:
    """Every verify check's options, parsed with their paths before any check
    runs, so a bad option exits 2 without running a check."""
    checks = _parse_object(config.verify.get("checks", {}), "verify.checks")
    options = {}
    for name, node in (checks or dict.fromkeys(_DEFAULT_CHECKS, {})).items():
        path = f"verify.checks.{name}"
        node = _parse_object(node, path)
        if name not in _CHECKS:
            raise ConfigError(path, f"unknown check; have {', '.join(_CHECKS)}")
        options[name] = _CHECKS[name][0](_CheckOptions(config, path, node))
    return options


def cmd_verify(config: RunConfig, out_dir: Path) -> int:
    options = _verify_options(config)
    seed = _parse_int(config.verify.get("seed", 0), "verify.seed")
    reports: list[verify_mod.CheckReport] = []
    for name, (_, family) in _CHECKS.items():
        if name in options:
            run = getattr(verify_mod, family)
            reports += run(config.ifs, config.target, config.schedule, seed, **options[name])

    payload = {"passed": all(r.passed for r in reports), "checks": [r.to_dict() for r in reports]}
    with open(out_dir / "verify.json", "w") as fh:
        json.dump(payload, fh, indent=2)
    for r in reports:
        print(f"{'PASS' if r.passed else 'FAIL'} {r.name} (checked {r.checked}, skipped {r.skipped})")
    return 0 if payload["passed"] else 1


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="carpetdim",
        description="dimension of rectangular shrinking targets on grid carpets",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("dimension", "slice", "verify", "sn-table"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--out", required=True, help="output directory")
        if name in ("dimension", "sn-table"):
            p.add_argument("--n-max", type=int, help="override the largest sampled n")
        if name == "verify":
            p.add_argument("--seed", type=int, help="seed for sampled verification")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        config = load_config(args.config)
        if getattr(args, "seed", None) is not None:
            config.verify["seed"] = args.seed
        n_max = getattr(args, "n_max", None)
        if n_max is not None:
            if n_max < 1:
                raise ConfigError("--n-max", f"need at least 1, got {n_max}")
            config.n_values = [n for n in config.n_values if n <= n_max] or [n_max]
        if args.command in ("dimension", "sn-table"):
            windows = _check_stages(config, "n_range" if n_max is None else "--n-max")
        out_dir = Path(args.out)
        # creating --out and writing any output file fail the same way
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
            if args.command == "dimension":
                return cmd_dimension(config, out_dir, windows)
            if args.command == "slice":
                return cmd_slice(config, out_dir)
            if args.command == "verify":
                return cmd_verify(config, out_dir)
            return cmd_sn_table(config, out_dir)
        except OSError as exc:
            where = exc.filename or out_dir
            raise ConfigError("--out", f"cannot create {where}: {exc.strerror or exc}") from exc
    except CarpetError as exc:
        print(f"error: {exc}")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
