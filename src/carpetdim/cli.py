"""Batch front-end: JSON config in, CSV/JSON reports out.

Subcommands: dimension (stage exponents plus closed form), slice (horizontal
slice through the target), verify (finite-depth check suite, nonzero exit on
any failure), sn-table (the full depth/stage surface for plotting).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from . import verify as verify_mod
from .coding import (
    TargetSpec,
    alternating_block_word,
    make_target,
    slice_dimension,
    target_from_word,
)
from .errors import CarpetError, ConfigError
from .formulas import ratio_limsup_dimension
from .grid import GridIFS, validate_ifs
from .schedules import RateSchedule
from .shrinking import RowCounts, StageKernel, _target_rows, dimension_report
from .words import DigitWord

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


def _round12(x: float) -> float:
    return float(fmt(x))


@dataclass
class RunConfig:
    ifs: GridIFS
    target: TargetSpec
    schedule: RateSchedule
    n_values: list[int]
    verify: dict
    raw: dict

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        if not isinstance(data, dict):
            raise ConfigError("$", "config must be a JSON object")
        ifs = _parse_ifs(data.get("ifs"), "ifs")
        target = _parse_target(ifs, data.get("target"), "target")
        schedule = _parse_schedule(data.get("schedule"), "schedule")
        n_values = _parse_n_range(data.get("n_range"), "n_range")
        verify_cfg = _parse_object(data.get("verify", {}), "verify")
        return cls(ifs, target, schedule, n_values, verify_cfg, data)

    def to_dict(self) -> dict:
        return self.raw


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
    pre = _parse_pairs(node.get("preperiod", []), f"{path}.preperiod")
    per = _parse_pairs(node.get("period", []), f"{path}.period")
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
    if node is None:
        return list(range(1, 401))
    if isinstance(node, dict) and "values" in node:
        values = _parse_int_list(node["values"], f"{path}.values")
        if not values or any(b <= a for a, b in zip(values, values[1:])):
            raise ConfigError(path, "values must be strictly increasing and nonempty")
        return values
    if isinstance(node, dict):
        start = _parse_int(node.get("start", 1), f"{path}.start")
        stop = _parse_int(node.get("stop", 400), f"{path}.stop")
        if start < 1 or stop < start:
            raise ConfigError(path, f"bad range [{start}, {stop}]")
        return list(range(start, stop + 1))
    raise ConfigError(path, "expected {start, stop} or {values}")


def load_config(path: str) -> RunConfig:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError("$", f"cannot read {path}: {exc.strerror or exc}") from exc
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError("$", f"malformed JSON in {path}: {exc}") from exc
    return RunConfig.from_dict(data)


# commands


def cmd_dimension(config: RunConfig, out_dir: Path) -> int:
    report = dimension_report(config.ifs, config.target, config.schedule, config.n_values)
    with open(out_dir / "sn.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "s_n", "argmin_j"])
        for rec in report.records:
            writer.writerow([rec.n, fmt(rec.value), rec.argmin_j])
    summary = {
        "limsup_estimate": _round12(report.limsup_estimate),
        "running_max": _round12(report.running_max),
        "still_rising": report.still_rising,
        "tail_fraction": report.tail_fraction,
        "n_count": len(report.records),
        "skipped": report.skipped,
        "closed_form": None if report.closed_form is None else _round12(report.closed_form),
        "closed_form_branch": report.closed_form_branch,
        "formula_source": report.formula_source,
        "warnings": report.warnings,
    }
    if config.schedule.kind == "alternating" and config.target.frequencies_exist:
        summary["ratio_limsup"] = _round12(
            ratio_limsup_dimension(config.ifs, config.target, config.schedule, config.n_values)
        )
    with open(out_dir / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=2)
    print(f"limsup estimate {fmt(report.limsup_estimate)}"
          + (f", closed form {fmt(report.closed_form)}" if report.closed_form is not None else ""))
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
    ifs = config.ifs
    _target_rows(ifs, config.target, max(map(config.schedule.xi, config.n_values)) - 1)
    with open(out_dir / "sn_table.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "j", "weighted_row_count", "quotient"])
        for n in config.n_values:
            kernel = StageKernel(ifs, config.target, config.schedule, n)
            for j in range(kernel.lam, kernel.xi + 1):
                a = RowCounts(kernel.best(j)[1]).log_value(ifs)
                writer.writerow([n, j, fmt(a), fmt(kernel.quotient(j, a))])
    print(f"wrote surface for {len(config.n_values)} stages")
    return 0


_DEFAULT_CHECKS = {
    "oracle": {"n": 2},
    "containment": {"n": 3, "samples": 2000},
    "set_relation": {"n": 3, "samples": 2000},
}


def _verify_options(config: RunConfig) -> dict[str, dict]:
    """Every verify check's options, parsed with their paths before any check
    runs, so a bad option exits 2 without running a check."""
    checks = _parse_object(config.verify.get("checks", {}), "verify.checks") or _DEFAULT_CHECKS
    options = {}
    for name, node in checks.items():
        path = f"verify.checks.{name}"
        node = _parse_object(node, path)

        def opt(key, default, parse=_parse_int, least=None, why=""):
            value = parse(node.get(key, default), f"{path}.{key}")
            if least is not None and value < least:
                raise ConfigError(f"{path}.{key}", f"need at least {least}{why}, got {value}")
            return value

        def window(n):
            try:
                return config.schedule.lam(n), config.schedule.xi(n)
            except CarpetError as exc:
                raise ConfigError(f"{path}.n", str(exc)) from exc

        if name == "oracle":
            n = opt("n", 2)
            window(n)
            options[name] = {"n": n}
        elif name == "containment":
            n = opt("n", 3)
            need = n + window(n)[1]
            options[name] = {"n": n, "samples": opt("samples", 2000, least=1),
                             "depth": opt("depth", need + 5, least=need, why=" = n + xi(n)")}
        elif name == "containment_exhaustive":
            n = opt("n", 2)
            need = n + window(n)[1]
            options[name] = {"n": n, "depth": opt("depth", 10, least=need, why=" = n + xi(n)")}
        elif name == "set_relation":
            n = opt("n", 3)
            xi = window(n)[1]
            exhaustive = node.get("exhaustive", False)
            if not isinstance(exhaustive, bool):
                raise ConfigError(
                    f"{path}.exhaustive", f"expected true or false, got {exhaustive!r}"
                )
            if exhaustive:
                options[name] = {"n": n, "exhaustive": True,
                                 "depth": opt("depth", 8, least=n, why=" = n")}
            else:
                depth = opt("depth", n + xi + 4, least=1)
                options[name] = {"n": n, "exhaustive": False, "depth": depth,
                                 "samples": opt("samples", 2000, least=1)}
        elif name == "cover":
            n = opt("n", 2)
            lam, xi = window(n)
            j = opt("j", lam, least=lam, why=" = lam(n)")
            if j > xi:
                raise ConfigError(f"{path}.j", f"need at most {xi} = xi(n), got {j}")
            options[name] = {"n": n, "j": j}
        elif name == "measure":
            bps = _parse_int_list(node.get("break_points", []), f"{path}.break_points")
            if not bps:
                raise ConfigError(f"{path}.break_points", "missing")
            options[name] = {
                "break_points": bps,
                "delta": opt("delta", 2, _parse_fraction),
                "holder_slack": opt("holder_slack", 0.05, _parse_real),
            }
        else:
            raise ConfigError(path, "unknown check; have oracle, containment, "
                              "containment_exhaustive, set_relation, cover, measure")
    return options


def cmd_verify(config: RunConfig, out_dir: Path, seed_override: int | None = None) -> int:
    options = _verify_options(config)
    if seed_override is None:
        seed = _parse_int(config.verify.get("seed", 0), "verify.seed")
    else:
        seed = seed_override
    ifs, target, schedule = config.ifs, config.target, config.schedule
    reports: list[verify_mod.CheckReport] = []

    if "oracle" in options:
        n = options["oracle"]["n"]
        reports.append(verify_mod.oracle_window_report(ifs, target, schedule, n))
    containment = (verify_mod.check_containment_forward, verify_mod.check_containment_backward)
    if "containment" in options:
        o = options["containment"]
        rng = random.Random(seed)
        words = verify_mod.random_words(
            ifs, target, schedule, o["n"], o["samples"], o["depth"], rng
        )
        reports += [check(ifs, target, schedule, o["n"], words) for check in containment]
    if "containment_exhaustive" in options:
        o = options["containment_exhaustive"]
        reports += [
            check(ifs, target, schedule, o["n"], verify_mod.exhaustive_truncations(ifs, o["depth"]))
            for check in containment
        ]
    if "set_relation" in options:
        o = options["set_relation"]
        if o["exhaustive"]:
            reports.append(
                verify_mod.exhaustive_relation_check(ifs, target, schedule, o["n"], o["depth"])
            )
        else:
            rng = random.Random(seed)
            digits = ifs.sorted_digits()
            words = [
                DigitWord.periodic((), [rng.choice(digits) for _ in range(o["depth"])])
                for _ in range(o["samples"])
            ]
            reports.append(verify_mod.check_set_relation(ifs, target, schedule, o["n"], words))
    if "cover" in options:
        o = options["cover"]
        family = verify_mod.build_cover(ifs, target, schedule, o["n"], o["j"])
        rep = verify_mod.CheckReport(
            "cover-bound",
            len(family.boxes) <= family.cardinality_bound,
            len(family.boxes),
            details={"boxes": len(family.boxes), "bound": family.cardinality_bound},
        )
        reports.append(rep)
    if "measure" in options:
        o = options["measure"]
        bps, delta = o["break_points"], o["delta"]
        builder = verify_mod.build_lower_bound_measure(ifs, target, schedule, bps, delta)
        level_ok = all(builder.level_sum(m) == 1 for m in range(1, builder.depth + 1))
        bound_ok = all(builder.mass_bound_holds(k) for k in range(len(bps)))
        rep = verify_mod.CheckReport(
            "measure-normalization", level_ok and bound_ok, builder.depth,
            details={"depth": builder.depth, "mass_bounds": bound_ok},
        )
        if not level_ok:
            rep.failures.append({"reason": "level sum differs from 1"})
        if not bound_ok:
            rep.failures.append({"reason": "point-phase mass bound violated"})
        reports.append(rep)
        rng = random.Random(seed)
        points = [builder.support_word(builder.depth)] + [
            builder.support_word(builder.depth, rng) for _ in range(2)
        ]
        radii = [Fraction(1, ifs.base ** m) for m in range(bps[0] + 1, builder.depth + 1)]
        samples = verify_mod.holder_exponent_samples(builder, points, radii)
        slack = o["holder_slack"]
        threshold = {}
        for k, n_k in enumerate(bps):
            threshold[n_k] = (1.0 - 1.0 / float(delta)) * builder.stage_values[n_k] - slack
        bad = []
        for s in samples:
            k_idx = max(i for i, n_k in enumerate(bps) if n_k < s.level)
            if s.exponent < threshold[bps[k_idx]]:
                bad.append({"level": s.level, "exponent": s.exponent})
        reports.append(
            verify_mod.CheckReport(
                "measure-holder", not bad, len(samples),
                failures=bad[:10],
                details={"thresholds": {str(k): v for k, v in threshold.items()}},
            )
        )

    payload = {"passed": all(r.passed for r in reports), "checks": [r.to_dict() for r in reports]}
    with open(out_dir / "verify.json", "w") as fh:
        json.dump(payload, fh, indent=2)
    for r in reports:
        print(f"{'PASS' if r.passed else 'FAIL'} {r.name} (checked {r.checked}, skipped {r.skipped})")
    return 0 if payload["passed"] else 1


def main(argv=None) -> int:
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
    args = parser.parse_args(argv)

    try:
        config = load_config(args.config)
        n_max = getattr(args, "n_max", None)
        if n_max is not None:
            config.n_values = [n for n in config.n_values if n <= n_max] or [n_max]
        out_dir = Path(args.out)
        # creating --out and writing any output file fail the same way
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
            if args.command == "dimension":
                return cmd_dimension(config, out_dir)
            if args.command == "slice":
                return cmd_slice(config, out_dir)
            if args.command == "verify":
                return cmd_verify(config, out_dir, seed_override=args.seed)
            return cmd_sn_table(config, out_dir)
        except OSError as exc:
            where = exc.filename or out_dir
            raise ConfigError("--out", f"cannot create {where}: {exc.strerror or exc}") from exc
    except CarpetError as exc:
        print(f"error: {exc}")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
