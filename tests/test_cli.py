import csv
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import carpetdim
from carpetdim import schedules
from carpetdim.cli import RunConfig, _verify_options, main
from carpetdim.errors import ConfigError
from carpetdim.words import SIZE_GUARD


def write_config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


BASE_CONFIG = {
    "ifs": {"name": "vicsek"},
    "target": {"name": "vicsek-origin"},
    "schedule": {"kind": "linear", "lam": "1", "xi": "2"},
    "n_range": {"start": 1, "stop": 40},
}
# a target known to depth 12 only, with no exact point; xi(n) = 2n reads it up to 2n - 1
_TRUNCATED = {**BASE_CONFIG, "ifs": {"name": "corner"},
              "target": {"name": "corner-blocks", "depth": 12}}


class TestConfigParsing:
    def test_explicit_system_and_point(self):
        config = RunConfig.from_dict(
            {
                "ifs": {"base": 3, "pairs": [[0, 0], [2, 0], [0, 2]]},
                "target": {"point": ["0", "0"]},
                "schedule": {"kind": "linear", "lam": "1", "xi": "2"},
                "n_range": {"values": [2, 4]},
            }
        )
        assert len(config.ifs.digits) == 3
        assert config.n_values == [2, 4]

    def test_word_target(self):
        config = RunConfig.from_dict(
            {
                "ifs": {"name": "vicsek"},
                "target": {"word": {"preperiod": [[1, 1]], "period": [[0, 0]]}},
                "schedule": {"kind": "linear", "lam": "1", "xi": "2"},
            }
        )
        assert config.target.word.preperiod == ((1, 1),)

    def test_error_paths_are_annotated(self):
        with pytest.raises(ConfigError) as exc:
            RunConfig.from_dict({**BASE_CONFIG, "ifs": {"name": "nope"}})
        assert exc.value.path == "ifs.name"
        with pytest.raises(ConfigError) as exc:
            RunConfig.from_dict({**BASE_CONFIG, "schedule": {"kind": "weird"}})
        assert exc.value.path == "schedule.kind"
        with pytest.raises(ConfigError):
            RunConfig.from_dict({**BASE_CONFIG, "target": {"point": ["1/2", "1/3"]}})
        with pytest.raises(ConfigError):
            RunConfig.from_dict({**BASE_CONFIG, "n_range": {"values": [4, 2]}})


class TestInputErrors:
    def _run(self, cfg, tmp_path):
        return main(["dimension", "--config", cfg, "--out", str(tmp_path / "out")])

    def test_missing_config_file(self, tmp_path, capsys):
        assert self._run(str(tmp_path / "absent.json"), tmp_path) == 2
        assert capsys.readouterr().out.startswith("error: $: cannot read")

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"ifs": {"name": "vicsek"},')
        assert self._run(str(path), tmp_path) == 2
        assert capsys.readouterr().out.startswith("error: $: malformed JSON")

    def test_oversized_json_integer(self, tmp_path, capsys):
        # past Python's int-string limit (4300 digits) json.load raises a bare ValueError
        path = tmp_path / "huge.json"
        text = json.dumps({**BASE_CONFIG, "n_range": {"start": 1, "stop": 0}})
        path.write_text(text.replace('"stop": 0', '"stop": ' + "9" * 5000))
        assert self._run(str(path), tmp_path) == 2
        assert capsys.readouterr().out.startswith("error: $: malformed JSON")

    @pytest.mark.parametrize(
        "n_range, field",
        [
            ({"start": "x", "stop": 4}, "n_range.start"),
            ({"start": 1, "stop": 4.5}, "n_range.stop"),
            ({"values": [1, "two", 3]}, "n_range.values[1]"),
            ({"values": [0, 5]}, "n_range"),
        ],
    )
    def test_non_integer_n_range(self, tmp_path, n_range, field):
        data = {**BASE_CONFIG, "n_range": n_range}
        with pytest.raises(ConfigError) as exc:
            RunConfig.from_dict(data)
        assert exc.value.path == field
        assert self._run(write_config(tmp_path, data), tmp_path) == 2

    def test_n_max_below_one(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BASE_CONFIG)
        for command in ("dimension", "sn-table"):
            argv = [command, "--config", cfg, "--out", str(tmp_path / "o"), "--n-max", "0"]
            assert main(argv) == 2
            assert capsys.readouterr().out.startswith("error: --n-max: ")

    def test_float_point_rejected(self, tmp_path):
        data = {**BASE_CONFIG, "target": {"point": [0.5, "1/2"]}}
        with pytest.raises(ConfigError) as exc:
            RunConfig.from_dict(data)
        assert exc.value.path == "target.point"
        assert self._run(write_config(tmp_path, data), tmp_path) == 2

    @pytest.mark.parametrize(
        "key, node, field",
        [
            ("schedule", "linear", "schedule"),
            ("ifs", [3, [[0, 0], [2, 0]]], "ifs"),
            ("target", "vicsek-origin", "target"),
            ("target", {"word": "0101"}, "target.word"),
            ("target", {"point": 0}, "target"),
            ("verify", [], "verify"),
            ("ifs", {"base": 3.9, "pairs": [[0, 0], [2, 0], [0, 2]]}, "ifs.base"),
            ("ifs", {"base": 3, "pairs": [[0, 0], [2, 0], [0, 2.7]]}, "ifs.pairs[2][1]"),
            ("ifs", {"base": 3, "pairs": [[0, 0, 1], [2, 0], [0, 2]]}, "ifs.pairs[0]"),
            ("ifs", {"base": 3, "pairs": [[0, 0], [2], [0, 2]]}, "ifs.pairs[1]"),
            ("ifs", {"base": 3, "pairs": "0002"}, "ifs.pairs"),
            ("target", {"word": {"period": [[0.9, 0], [2, 2.5]]}}, "target.word.period[0][0]"),
            ("target", {"word": {"preperiod": [[1, 1, 1]], "period": [[0, 0]]}},
             "target.word.preperiod[0]"),
        ],
    )
    def test_node_types(self, tmp_path, capsys, key, node, field):
        data = {**BASE_CONFIG, key: node}
        with pytest.raises(ConfigError) as exc:
            RunConfig.from_dict(data)
        assert exc.value.path == field
        assert self._run(write_config(tmp_path, data), tmp_path) == 2
        assert capsys.readouterr().out.startswith(f"error: {field}: ")

    @pytest.mark.parametrize(
        "schedule, field",
        [
            ({"kind": "linear", "lam": 1.5, "xi": "2"}, "schedule.lam"),
            ({"kind": "linear", "lam": "1", "xi": 2.0}, "schedule.xi"),
            ({"kind": "table", "lam": [1, 1.5], "xi": [2, 3]}, "schedule.lam[1]"),
            ({"kind": "table", "lam": [1], "xi": "2"}, "schedule.xi"),
            ({"kind": "alternating", "ratios": [["1", "2"], [1.5, "3"]]}, "schedule.ratios[1][0]"),
            ({"kind": "alternating", "ratios": [["1", "2"]], "block_base": 4.0},
             "schedule.block_base"),
        ],
    )
    def test_float_rates_rejected(self, tmp_path, schedule, field):
        data = {**BASE_CONFIG, "schedule": schedule}
        with pytest.raises(ConfigError) as exc:
            RunConfig.from_dict(data)
        assert exc.value.path == field
        assert self._run(write_config(tmp_path, data), tmp_path) == 2

    @pytest.mark.parametrize("command, out", [("dimension", "afile/x"), ("slice", "afile")])
    def test_unwritable_out(self, tmp_path, capsys, monkeypatch, command, out):
        import carpetdim.cli as cli_mod

        def ran(*args):
            raise AssertionError("the command ran before --out was created")

        monkeypatch.setattr(cli_mod, "dimension_report", ran)
        monkeypatch.setattr(cli_mod, "slice_dimension", ran)
        (tmp_path / "afile").write_text("")
        cfg = write_config(tmp_path, BASE_CONFIG)
        assert main([command, "--config", cfg, "--out", str(tmp_path / out)]) == 2
        assert capsys.readouterr().out.startswith("error: --out: cannot create")

    @pytest.mark.parametrize(
        "argv",
        [["dimension", "--seed", "1"], ["slice", "--n-max", "10"], ["slice", "--seed", "1"],
         ["verify", "--n-max", "10"], ["sn-table", "--seed", "1"]],
    )
    def test_flags_only_where_read(self, tmp_path, capsys, argv):
        cfg = write_config(tmp_path, BASE_CONFIG)
        with pytest.raises(SystemExit) as exc:
            main(argv[:1] + ["--config", cfg, "--out", str(tmp_path / "o")] + argv[1:])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("command, blocked", [("dimension", "sn.csv"), ("slice", "slice.json")])
    def test_unwritable_output_file(self, tmp_path, capsys, command, blocked):
        out = tmp_path / "o4"
        (out / blocked).mkdir(parents=True)
        cfg = write_config(tmp_path, BASE_CONFIG)
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().out.startswith(f"error: --out: cannot create {out / blocked}: ")

    def test_exact_rates_accepted(self):
        linear = RunConfig.from_dict(
            {**BASE_CONFIG, "schedule": {"kind": "linear", "lam": "3/2", "xi": 2}}
        )
        assert (linear.schedule.lam(4), linear.schedule.xi(4)) == (6, 8)
        table = RunConfig.from_dict(
            {**BASE_CONFIG, "schedule": {"kind": "table", "lam": [1, 2], "xi": [2, "4"]}}
        )
        assert (table.schedule.lam(2), table.schedule.xi(2)) == (2, 4)

    @pytest.mark.parametrize(
        "verify, field",
        [
            ({"checks": []}, "verify.checks"),
            ({"checks": {"oracle": "n=2"}}, "verify.checks.oracle"),
            ({"seed": "x", "checks": {"oracle": {"n": 2}}}, "verify.seed"),
            ({"checks": {"oracle": {"n": "x"}}}, "verify.checks.oracle.n"),
            ({"checks": {"containment": {"n": 3, "samples": 1.5}}},
             "verify.checks.containment.samples"),
            ({"checks": {"containment": {"n": 3, "depth": True}}},
             "verify.checks.containment.depth"),
            ({"checks": {"containment_exhaustive": {"depth": "deep"}}},
             "verify.checks.containment_exhaustive.depth"),
            ({"checks": {"set_relation": {"n": 2, "depth": "x", "exhaustive": True}}},
             "verify.checks.set_relation.depth"),
            ({"checks": {"set_relation": {"samples": [200]}}},
             "verify.checks.set_relation.samples"),
            ({"checks": {"cover": {"n": 2, "j": "x"}}}, "verify.checks.cover.j"),
            ({"checks": {"measure": {"break_points": [3, "x"]}}},
             "verify.checks.measure.break_points[1]"),
            ({"checks": {"measure": {"break_points": [3, 17], "delta": 2.5}}},
             "verify.checks.measure.delta"),
            ({"checks": {"measure": {"break_points": [3, 17], "delta": "two"}}},
             "verify.checks.measure.delta"),
            ({"checks": {"measure": {"break_points": [3, 17], "holder_slack": True}}},
             "verify.checks.measure.holder_slack"),
            ({"checks": {"measure": {"break_points": [3, 17], "holder_slack": "nan"}}},
             "verify.checks.measure.holder_slack"),
            ({"checks": {"measure": {"break_points": [3, 17], "holder_slack": math.inf}}},
             "verify.checks.measure.holder_slack"),
            ({"checks": {"set_relation": {"n": 2, "depth": 5, "exhaustive": "no"}}},
             "verify.checks.set_relation.exhaustive"),
            ({"checks": {"set_relation": {"n": 2, "exhaustive": 1}}},
             "verify.checks.set_relation.exhaustive"),
            ({"checks": {"orcale": {"n": 2}}}, "verify.checks.orcale"),
            ({"checks": {"oracle": {"n": 2}, "cover_bound": {"n": 2}}},
             "verify.checks.cover_bound"),
            ({"checks": {"oracle": {"n": 2}, "containment_exhaustive": {"n": 4, "depth": 10}}},
             "verify.checks.containment_exhaustive.depth"),
            ({"checks": {"containment": {"n": 3, "depth": 8}}},
             "verify.checks.containment.depth"),
            ({"checks": {"set_relation": {"n": 3, "depth": 2, "exhaustive": True}}},
             "verify.checks.set_relation.depth"),
            ({"checks": {"cover": {"n": 2, "j": 0}}}, "verify.checks.cover.j"),
            ({"checks": {"cover": {"n": 2, "j": 5}}}, "verify.checks.cover.j"),
            ({"checks": {"containment": {"n": 2, "samples": -4}}},
             "verify.checks.containment.samples"),
            ({"checks": {"set_relation": {"n": 2, "samples": 0}}},
             "verify.checks.set_relation.samples"),
            ({"checks": {"set_relation": {"n": 2, "depth": 0}}},
             "verify.checks.set_relation.depth"),
            ({"checks": {"oracle": {"n": 0}}}, "verify.checks.oracle.n"),
            ({"checks": {"oracle": {"n": 2}, "measure": {"break_points": [17, 3]}}},
             "verify.checks.measure.break_points"),
            ({"checks": {"measure": {"break_points": [3, 12]}}},
             "verify.checks.measure.break_points"),
            ({"checks": {"measure": {"break_points": [3, 17], "delta": "1/2"}}},
             "verify.checks.measure.delta"),
            ({"checks": {"measure": {"break_points": [3, 17], "delta": 1}}},
             "verify.checks.measure.delta"),
            ({"checks": {"oracle": {"n": 10 ** 6}}}, "verify.checks.oracle.n"),
            ({"checks": {"containment_exhaustive": {"n": 2, "depth": 10 ** 6}}},
             "verify.checks.containment_exhaustive.depth"),
            ({"checks": {"set_relation": {"n": 3, "depth": 10 ** 6, "exhaustive": True}}},
             "verify.checks.set_relation.depth"),
            ({"checks": {"cover": {"n": 10 ** 6}}}, "verify.checks.cover.n"),
            # cases on a truncated target give the whole config override
            ({**_TRUNCATED, "verify": {"checks": {"oracle": {"n": 7}}}},
             "verify.checks.oracle.n"),
            ({**_TRUNCATED, "verify": {"checks": {"cover": {"n": 7, "j": 7}}}},
             "verify.checks.cover.n"),
            ({**_TRUNCATED, "verify": {"checks": {"measure": {"break_points": [1, 9]}}}},
             "verify.checks.measure.break_points"),
            ({**_TRUNCATED, "verify": {"checks": {"containment": {"n": 1}}}},
             "verify.checks.containment"),
            ({**_TRUNCATED,
              "verify": {"checks": {"containment_exhaustive": {"n": 1, "depth": 3}}}},
             "verify.checks.containment_exhaustive"),
            ({**_TRUNCATED, "verify": {"checks": {"set_relation": {"n": 1}}}},
             "verify.checks.set_relation"),
        ],
    )
    def test_bad_verify_options(self, tmp_path, capsys, verify, field):
        data = {**BASE_CONFIG, **(verify if "verify" in verify else {"verify": verify})}
        cfg = write_config(tmp_path, data)
        assert main(["verify", "--config", cfg, "--out", str(tmp_path / "v")]) == 2
        assert capsys.readouterr().out.startswith(f"error: {field}: ")
        assert not (tmp_path / "v" / "verify.json").exists()

    def test_bad_verify_option_stops_before_any_check(self, tmp_path, monkeypatch, capsys):
        import carpetdim.verify as verify_mod

        def ran(*args):
            raise AssertionError("a check ran before the options were read")

        monkeypatch.setattr(verify_mod, "oracle_window_report", ran)
        checks = {"oracle": {"n": 2}, "measure": {"break_points": [3, 17], "holder_slack": "x"}}
        cfg = write_config(tmp_path, {**BASE_CONFIG, "verify": {"checks": checks}})
        assert main(["verify", "--config", cfg, "--out", str(tmp_path / "v")]) == 2
        # the measure's own rules and the enumeration guard are read up front too
        for bad in ({"measure": {"break_points": [17, 3]}},
                    {"measure": {"break_points": [3, 17], "delta": "1/2"}},
                    {"set_relation": {"n": 3, "depth": 10 ** 9, "exhaustive": True}}):
            checks = {"oracle": {"n": 2}, **bad}
            cfg = write_config(tmp_path, {**BASE_CONFIG, "verify": {"checks": checks}})
            assert main(["verify", "--config", cfg, "--out", str(tmp_path / "v")]) == 2
        # so are the target depth each stage reads and the exact point a check needs
        for bad in ({"cover": {"n": 7, "j": 7}}, {"measure": {"break_points": [1, 9]}},
                    {"containment": {"n": 1}}, {"set_relation": {"n": 1}}):
            checks = {"oracle": {"n": 2}, **bad}
            cfg = write_config(tmp_path, {**_TRUNCATED, "verify": {"checks": checks}})
            assert main(["verify", "--config", cfg, "--out", str(tmp_path / "v")]) == 2
        # and the interior target's stage threshold the set-relation checks apply
        checks = {"oracle": {"n": 2}, "containment": {"n": 3, "samples": 200},
                  "set_relation": {"n": 1, "depth": 4}}
        center = {**BASE_CONFIG, "target": {"point": ["1/2", "1/2"]}}
        cfg = write_config(tmp_path, {**center, "verify": {"checks": checks}})
        capsys.readouterr()
        assert main(["verify", "--config", cfg, "--out", str(tmp_path / "v")]) == 2
        assert capsys.readouterr().out.startswith("error: verify.checks.set_relation.n: ")


class TestDimensionCommand:
    def test_outputs(self, tmp_path):
        cfg = write_config(tmp_path, BASE_CONFIG)
        out = tmp_path / "out"
        assert main(["dimension", "--config", cfg, "--out", str(out)]) == 0
        with open(out / "sn.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 40
        summary = json.loads((out / "summary.json").read_text())
        assert summary["closed_form"] == pytest.approx(0.6986344247631281, abs=1e-9)
        assert summary["formula_source"] == "zero-row-target"
        assert summary["n_count"] == 40
        column_max = max(float(r["s_n"]) for r in rows)
        assert summary["running_max"] == pytest.approx(column_max, rel=1e-9)
        tail = [float(r["s_n"]) for r in rows[32:]]
        assert summary["limsup_estimate"] == pytest.approx(max(tail), rel=1e-9)

    def test_n_max_override(self, tmp_path):
        cfg = write_config(tmp_path, BASE_CONFIG)
        out = tmp_path / "out2"
        assert main(["dimension", "--config", cfg, "--out", str(out), "--n-max", "10"]) == 0
        with open(out / "sn.csv") as fh:
            assert len(list(csv.DictReader(fh))) == 10

    def test_block_target_sparse_stages(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "ifs": {"name": "corner"},
                "target": {"name": "corner-blocks", "depth": 600},
                "schedule": {"kind": "linear", "lam": "1", "xi": "2"},
                "n_range": {"values": [16, 256]},
            },
        )
        out = tmp_path / "blocks"
        assert main(["dimension", "--config", cfg, "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["closed_form"] is None
        with open(out / "sn.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [int(r["n"]) for r in rows] == [16, 256]
        assert float(rows[0]["s_n"]) == pytest.approx(0.5197, abs=1e-3)

    @pytest.mark.parametrize(
        "target, ratio_limsup",
        # the origin's extreme row has frequency 1, where the ratio formula does not apply
        [("vicsek-origin", None), ("vicsek-center", 0.488324506906)],
    )
    def test_alternating_schedule_ratio_limsup(self, tmp_path, target, ratio_limsup):
        schedule = {"kind": "alternating", "ratios": [["1", "2"], ["1", "3"]], "block_base": 4}
        cfg = write_config(tmp_path, {**BASE_CONFIG, "target": {"name": target},
                                      "schedule": schedule})
        out = tmp_path / "alt"
        assert main(["dimension", "--config", cfg, "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary.get("ratio_limsup") == ratio_limsup


class TestSliceCommand:
    def test_origin_slice(self, tmp_path):
        cfg = write_config(tmp_path, BASE_CONFIG)
        out = tmp_path / "slice"
        assert main(["slice", "--config", cfg, "--out", str(out)]) == 0
        payload = json.loads((out / "slice.json").read_text())
        assert payload["value"] == pytest.approx(math.log(2) / math.log(3), abs=1e-9)
        assert payload["liminf_attained"]

    def test_height_with_a_second_expansion_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {**BASE_CONFIG, "target": {"point": ["0", "1/3"]}})
        out = tmp_path / "slice"
        assert main(["slice", "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().out == (
            "error: height 1/3 has a second expansion: the slice meets the cells of both "
            "codings, and the frequency formula reads only one\n")
        assert not (out / "slice.json").exists()


class TestSnTableCommand:
    def test_surface_consistency(self, tmp_path):
        cfg = write_config(tmp_path, {**BASE_CONFIG, "n_range": {"start": 2, "stop": 6}})
        out = tmp_path / "table"
        assert main(["sn-table", "--config", cfg, "--out", str(out)]) == 0
        with open(out / "sn_table.csv") as fh:
            rows = list(csv.DictReader(fh))
        by_n = {}
        for r in rows:
            by_n.setdefault(int(r["n"]), []).append(
                (int(r["j"]), float(r["weighted_row_count"]), float(r["quotient"]))
            )
        from carpetdim import RateSchedule, make_target, stage_exponent, validate_ifs
        from conftest import VICSEK_PAIRS

        ifs = validate_ifs(3, VICSEK_PAIRS)
        target = make_target(ifs, 0, 0)
        sch = RateSchedule.linear(1, 2)
        for n, entries in by_n.items():
            entries.sort()
            counts = [a for _, a, _ in entries]
            assert all(b >= a - 1e-12 for a, b in zip(counts, counts[1:]))
            rec = stage_exponent(ifs, target, sch, n)
            assert min(q for _, _, q in entries) == pytest.approx(rec.value, abs=1e-9)


class TestVerifyCommand:
    def test_default_suite_passes(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                **BASE_CONFIG,
                "verify": {
                    "seed": 1,
                    "checks": {
                        "oracle": {"n": 2},
                        "containment": {"n": 3, "samples": 400},
                        "set_relation": {"n": 3, "samples": 200},
                        "cover": {"n": 2, "j": 3},
                        "measure": {"break_points": [3, 17], "delta": "2"},
                    },
                },
            },
        )
        out = tmp_path / "verify"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
        payload = json.loads((out / "verify.json").read_text())
        assert payload["passed"]
        names = {c["name"] for c in payload["checks"]}
        assert {"window-oracle", "containment-forward", "containment-backward",
                "set-relation", "cover-bound", "measure-normalization",
                "measure-holder"} <= names

    def test_exhaustive_set_relation(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                **BASE_CONFIG,
                "verify": {
                    "checks": {"set_relation": {"n": 2, "depth": 5, "exhaustive": True}}
                },
            },
        )
        out = tmp_path / "verify2"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
        payload = json.loads((out / "verify.json").read_text())
        assert payload["checks"][0]["checked"] == 2 * 5 ** 5

    def test_exhaustive_containment(self, tmp_path):
        checks = {"containment_exhaustive": {"n": 2, "depth": 6}}
        cfg = write_config(tmp_path, {**BASE_CONFIG, "verify": {"checks": checks}})
        out = tmp_path / "verify3"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
        payload = json.loads((out / "verify.json").read_text())
        forward, backward = payload["checks"]
        assert (forward["name"], backward["name"]) == ("containment-forward", "containment-backward")
        assert forward["passed"] and backward["passed"]
        assert forward["checked"] == 5 ** 6
        assert 0 < backward["details"]["window_hits"] == backward["checked"] < 5 ** 6

    def test_config_error_exit_code(self, tmp_path):
        cfg = write_config(tmp_path, {**BASE_CONFIG, "ifs": {"name": "nope"}})
        assert main(["verify", "--config", cfg, "--out", str(tmp_path / "x")]) == 2

    def test_failing_check_exit_code(self, tmp_path, monkeypatch):
        import carpetdim.cli as cli_mod
        from carpetdim.verify import CheckReport

        monkeypatch.setattr(
            cli_mod.verify_mod,
            "oracle_window_report",
            lambda *a, **k: CheckReport("window-oracle", False, 1,
                                        failures=[{"reason": "forced"}]),
        )
        cfg = write_config(
            tmp_path, {**BASE_CONFIG, "verify": {"checks": {"oracle": {"n": 2}}}}
        )
        out = tmp_path / "failing"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 1
        payload = json.loads((out / "verify.json").read_text())
        assert not payload["passed"]


@pytest.mark.parametrize("command", ["dimension", "sn-table"])
def test_truncated_target_bounds_the_stages(tmp_path, capsys, command):
    # xi(n) = 2n, so a depth-100 word covers every window up to n = 50
    config = {
        "ifs": {"name": "corner"},
        "target": {"name": "corner-blocks", "depth": 100},
        "schedule": {"kind": "linear", "lam": "1", "xi": "2"},
        "n_range": {"start": 1, "stop": 50},
    }
    cfg = write_config(tmp_path, config)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "ok")]) == 0
    capsys.readouterr()
    cfg = write_config(tmp_path, {**config, "n_range": {"values": [60]}}, "deep.json")
    assert main([command, "--config", cfg, "--out", str(tmp_path / "deep")]) == 2
    assert capsys.readouterr().out == "error: n_range: word only specified to depth 100, need 119\n"


# stage ranges that reach past what the run can read
_PAST_THE_RANGE = {
    # xi(60) = 120 reads a depth-100 word up to depth 119
    "truncated-target": {"ifs": {"name": "corner"},
                         "target": {"name": "corner-blocks", "depth": 100},
                         "schedule": {"kind": "linear", "lam": "1", "xi": "2"},
                         "n_range": {"start": 1, "stop": 60}},
    "short-table": {**BASE_CONFIG, "schedule": {"kind": "table", "lam": [1, 2, 3], "xi": [2, 3, 4]},
                    "n_range": {"start": 1, "stop": 5}},
    "lam-decreasing": {**BASE_CONFIG, "schedule": {"kind": "table", "lam": [2, 1, 3], "xi": [3, 3, 4]},
                       "n_range": {"start": 1, "stop": 3}},
}
_STAGE_OUTPUT = {"dimension": "sn.csv", "sn-table": "sn_table.csv"}


@pytest.mark.parametrize("command", ["dimension", "sn-table"])
@pytest.mark.parametrize("case, n_max, message", [
    ("truncated-target", None, "n_range: word only specified to depth 100, need 119"),
    ("short-table", None, "n_range: n=4 outside the table range 1..3"),
    # --n-max 55 leaves n = 1..55, so the deepest window reads depth 109
    ("truncated-target", 55, "--n-max: word only specified to depth 100, need 109"),
    ("short-table", 4, "--n-max: n=4 outside the table range 1..3"),
    ("lam-decreasing", None, "n_range: lam must be nondecreasing on the queried range"),
    ("lam-decreasing", 2, "--n-max: lam must be nondecreasing on the queried range"),
], ids=["truncated-target", "short-table", "truncated-target-n-max", "short-table-n-max",
        "lam-decreasing", "lam-decreasing-n-max"])
def test_stage_range_checked_before_any_output(tmp_path, capsys, command, case, n_max, message):
    cfg = write_config(tmp_path, _PAST_THE_RANGE[case])
    out = tmp_path / "out"
    argv = [command, "--config", cfg, "--out", str(out)]
    assert main(argv + ([] if n_max is None else ["--n-max", str(n_max)])) == 2
    assert capsys.readouterr().out == f"error: {message}\n"
    assert not (out / _STAGE_OUTPUT[command]).exists()


_VALID_CONFIGS = [
    {**BASE_CONFIG, "verify": {"checks": {"oracle": {"n": 2}, "cover": {"n": 2, "j": 3},
                                          "containment": {"n": 2, "samples": 5}}}},
    {
        "ifs": {"base": 3, "pairs": [[0, 0], [2, 0], [0, 2]]},
        "target": {"point": ["1/3", "0"]},
        "schedule": {"kind": "table", "lam": [1, 2], "xi": [2, 3]},
        "n_range": {"values": [1, 2]},
        "verify": {"checks": {"set_relation": {"n": 1, "depth": 3, "exhaustive": True},
                              "measure": {"break_points": [3, 17], "delta": "2"}}},
    },
    {
        "ifs": {"name": "corner"},
        "target": {"name": "corner-blocks", "block_base": 2, "depth": 30},
        "schedule": {"kind": "alternating", "ratios": [["1", "2"], ["1", "3"]], "block_base": 2},
        "n_range": {"start": 2, "stop": 5},
        "verify": {"checks": {"containment_exhaustive": {"n": 1, "depth": 4}}},
    },
    {
        "ifs": {"name": "vicsek"},
        "target": {"word": {"preperiod": [[1, 1]], "period": [[0, 0], [2, 2]]}},
        "schedule": {"kind": "linear", "lam": "2/3", "xi": 1},
        "verify": {"seed": 3, "checks": {"set_relation": {"n": 2, "samples": 4, "depth": 6}}},
    },
]

# small scalars only: a large integer in a depth or range field asks for real work
_JSON_SCALARS = (
    st.none() | st.booleans() | st.integers(-3, 40)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from(["", "x", "0", "1", "2", "1/2", "3/2", "-1", "1/0", "nan", "vicsek",
                       "corner-blocks", "linear", "table", "alternating"])
)
_JSON_NODES = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["name", "n", "x", "lam", "xi", "depth", "values"]),
                      inner, max_size=3),
    max_leaves=8,
)


def _paths(node, prefix=()):
    """Every key path of a config tree, with lists indexed."""
    yield prefix
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield from _paths(child, prefix + (key,))


@given(st.sampled_from(range(len(_VALID_CONFIGS))), st.data())
@settings(max_examples=400, deadline=None)
def test_random_config_nodes_raise_only_config_errors(which, data):
    config = json.loads(json.dumps(_VALID_CONFIGS[which]))
    for _ in range(data.draw(st.integers(1, 3))):
        path = data.draw(st.sampled_from(list(_paths(config))))
        node = data.draw(_JSON_NODES)
        if not path:
            config = node
            continue
        parent = config
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = node
    try:
        run = RunConfig.from_dict(config)
        _verify_options(run)
    except ConfigError:
        pass


# inputs past SIZE_GUARD: (command, config override, extra argv, field)
_PAST_THE_GUARD = {
    "n-range-length": ("slice", {"n_range": {"start": 1, "stop": 10 ** 12}}, [], "n_range"),
    "stage-overflow": ("sn-table", {"n_range": {"values": [10 ** 30]}}, [], "n_range"),
    "stage-depth": ("dimension", {"n_range": {"values": [10 ** 9]}}, [], "n_range"),
    "n-max-depth": ("dimension", {"n_range": {"values": [10 ** 12]}}, ["--n-max", str(10 ** 9)],
                    "--n-max"),
    "check-stage": ("verify", {"verify": {"checks": {"containment": {"n": 10 ** 12}}}}, [],
                    "verify.checks.containment.n"),
    "break-point": ("verify", {"verify": {"checks": {"measure": {"break_points": [2, 10 ** 12]}}}},
                    [], "verify.checks.measure.break_points"),
    "measure-levels": ("verify", {"verify": {"checks": {"measure": {"break_points": [2, 2000]}}}},
                       [], "verify.checks.measure.break_points"),
    "sampled-depth": ("verify", {"verify": {"checks": {"set_relation": {"depth": 10 ** 12}}}}, [],
                      "verify.checks.set_relation.depth"),
    "samples": ("verify", {"verify": {"checks": {"containment": {"samples": 10 ** 12}}}}, [],
                "verify.checks.containment.samples"),
    "coding-period": ("dimension", {"target": {"point": ["1/3", "1e-99999"]}}, [], "target"),
    "coding-lcm": ("verify", {"target": {"point": ["1/99991", "1/10007"]}}, [], "target"),
    "block-depth": ("dimension", {"ifs": {"name": "corner"},
                                  "target": {"name": "corner-blocks", "depth": 10 ** 12}}, [],
                    "target.depth"),
}
_OUTPUT = {"dimension": "sn.csv", "sn-table": "sn_table.csv", "slice": "slice.json",
           "verify": "verify.json"}


@pytest.mark.parametrize("case", sorted(_PAST_THE_GUARD))
def test_sizes_past_the_guard_exit_2_at_their_field(tmp_path, capsys, case):
    command, override, extra, field = _PAST_THE_GUARD[case]
    cfg = write_config(tmp_path, {**BASE_CONFIG, **override})
    out = tmp_path / "out"
    start = time.perf_counter()
    assert main([command, "--config", cfg, "--out", str(out)] + extra) == 2
    assert time.perf_counter() - start < 1.0
    printed = capsys.readouterr()
    assert printed.out.startswith(f"error: {field}: ") and printed.out.count("\n") == 1
    assert printed.err == ""
    assert not (out / _OUTPUT[command]).exists()


# the CLI in a child process whose address space is capped at 1.2 GB (`ulimit -v 1200000`)
_CAPPED = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1200000 * 1024, resource.getrlimit(resource.RLIMIT_AS)[1]))
from carpetdim.cli import main
raise SystemExit(main(sys.argv[1:]))
"""
# inputs at or past the guard's edge: (config override, exit code, field of the error)
_AT_THE_EDGE = {
    # a 10^5-digit preperiod with two codings: the big-integer prefix products of
    # the representative choice ran out of memory here
    "long-preperiod-point": ({"ifs": {"base": 10, "pairs": [[0, 0], [1, 0], [0, 1], [0, 9], [1, 9]]},
                              "target": {"point": ["0", "1e-100000"]}}, 0, None),
    "block-depth": ({"ifs": {"name": "corner"},
                     "target": {"name": "corner-blocks", "depth": 10 ** 12}}, 2, "target.depth"),
    "word-length": ({"target": {"word": {"preperiod": [[0, 0]] * SIZE_GUARD, "period": [[0, 0]]}}},
                    2, "target.word"),
}


@pytest.mark.parametrize("case", sorted(_AT_THE_EDGE))
def test_guarded_sizes_exit_0_or_2_under_a_memory_cap(tmp_path, case):
    pytest.importorskip("resource")
    override, code, field = _AT_THE_EDGE[case]
    cfg = write_config(tmp_path, {**BASE_CONFIG, **override})
    src = str(Path(carpetdim.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run(
        [sys.executable, "-c", _CAPPED, "dimension", "--config", cfg, "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert (run.returncode, run.stderr) == (code, "")
    if field:
        assert run.stdout.startswith(f"error: {field}: ") and run.stdout.count("\n") == 1
    else:
        assert (tmp_path / "out" / "sn.csv").exists()


def _verify_under_a_memory_cap(tmp_path, config):
    """Run `verify` on the config in a capped child process: (seconds, result)."""
    pytest.importorskip("resource")
    cfg = write_config(tmp_path, config)
    src = str(Path(carpetdim.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    start = time.perf_counter()
    run = subprocess.run(
        [sys.executable, "-c", _CAPPED, "verify", "--config", cfg, "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=300,
    )
    return time.perf_counter() - start, run


def test_a_cover_at_the_guard_is_counted_under_a_memory_cap(tmp_path):
    # n = 10 passes the guard (5^10 <= 10^7); enumerating its 7.5 * 10^10
    # squares ran for minutes past 3.5 GB
    config = {**BASE_CONFIG, "verify": {"checks": {"cover": {"n": 10, "j": 20}}}}
    seconds, run = _verify_under_a_memory_cap(tmp_path, config)
    assert seconds < 5.0
    assert (run.returncode, run.stderr) == (0, "")
    assert run.stdout == "PASS cover-bound (checked 75000000000, skipped 0)\n"


# checks whose exact comparisons outgrew memory and time: (config override, stdout)
_EXACT_AT_SCALE = {
    # sizes^p at p = 10^6 + 1: still running after 20 s
    "measure-delta-near-1": (
        {"verify": {"checks": {"measure": {"break_points": [2, 40], "delta": "1000001/1000000"}}}},
        "PASS measure-normalization (checked 122, skipped 0)\n"
        "PASS measure-holder (checked 360, skipped 0)\n",
    ),
    # 2^25 window tails, each built as a numeral: still running after 60 s
    "cover-2^25-tails": (
        {"ifs": {"base": 4, "pairs": [[0, 0], [1, 0]]}, "target": {"point": ["0", "0"]},
         "verify": {"checks": {"cover": {"n": 23, "j": 46}}}},
        "PASS cover-bound (checked 281474976710656, skipped 0)\n",
    ),
}


@pytest.mark.parametrize("case", sorted(_EXACT_AT_SCALE))
def test_exact_checks_at_scale_run_at_once_under_a_memory_cap(tmp_path, case):
    override, stdout = _EXACT_AT_SCALE[case]
    seconds, run = _verify_under_a_memory_cap(tmp_path, {**BASE_CONFIG, **override})
    assert seconds < 5.0
    assert (run.returncode, run.stderr, run.stdout) == (0, "", stdout)


def test_sampled_pairs_up_to_the_guard_are_accepted(tmp_path):
    checks = {"set_relation": {"n": 2, "samples": SIZE_GUARD // 50, "depth": 50}}
    run = RunConfig.from_dict({**BASE_CONFIG, "verify": {"checks": checks}})
    assert _verify_options(run)["set_relation"]["samples"] == SIZE_GUARD // 50
    checks["set_relation"]["samples"] += 1
    with pytest.raises(ConfigError) as exc:
        _verify_options(RunConfig.from_dict({**BASE_CONFIG, "verify": {"checks": checks}}))
    assert exc.value.path == "verify.checks.set_relation.samples"


def test_measure_levels_up_to_the_guard_are_accepted():
    # depth 470 + 940 + 2 = 1412 reads 997,578 levels; 471 gives depth 1415 and 1,001,820
    checks = {"measure": {"break_points": [2, 470]}}
    run = RunConfig.from_dict({**BASE_CONFIG, "verify": {"checks": checks}})
    assert _verify_options(run)["measure"]["break_points"] == [2, 470]
    checks["measure"]["break_points"] = [2, 471]
    with pytest.raises(ConfigError) as exc:
        _verify_options(RunConfig.from_dict({**BASE_CONFIG, "verify": {"checks": checks}}))
    assert exc.value.path == "verify.checks.measure.break_points"


def test_seed_flag_is_the_config_seed(tmp_path):
    checks = {"containment": {"n": 3, "samples": 40}, "set_relation": {"n": 3, "samples": 20}}
    outputs = []
    for seed, argv in ((5, []), ("x", ["--seed", "5"])):  # the flag replaces the config's seed
        cfg = write_config(tmp_path, {**BASE_CONFIG, "verify": {"seed": seed, "checks": checks}})
        out = tmp_path / f"v{len(outputs)}"
        assert main(["verify", "--config", cfg, "--out", str(out)] + argv) == 0
        outputs.append((out / "verify.json").read_bytes())
    assert outputs[0] == outputs[1]


def test_a_dimension_stage_reads_its_window_once(tmp_path, monkeypatch):
    # the run's range check reads the windows, and hands them through the
    # report to the stages
    calls = []

    def counted(ratio, n):
        calls.append(n)
        return ceil_mul(ratio, n)

    ceil_mul = schedules._ceil_mul
    monkeypatch.setattr(schedules, "_ceil_mul", counted)
    cfg = write_config(tmp_path, BASE_CONFIG)
    assert main(["dimension", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    assert len(calls) == 1 * 2 * 40


def test_a_tiny_linear_rate_exits_0_at_once(tmp_path):
    # its closed form's branch took `log_sign` hours on weights scaled by 10^300
    cfg = write_config(tmp_path, {**BASE_CONFIG, "target": {"name": "vicsek-center"},
                                  "schedule": {"kind": "linear", "lam": "1e-300", "xi": "2"},
                                  "n_range": {"start": 1, "stop": 10}})
    start = time.perf_counter()
    assert main(["dimension", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    assert time.perf_counter() - start < 5.0
    assert json.loads((tmp_path / "o" / "summary.json").read_text())["closed_form_branch"] == "xi"


def test_a_truncation_stage_ranks_its_run_ends(tmp_path):
    # corner-blocks rows come in runs of one digit, four times longer each
    # block; ranking every depth of every window took about 16 s
    cfg = write_config(tmp_path, {**BASE_CONFIG, "ifs": {"name": "corner"},
                                  "target": {"name": "corner-blocks"},
                                  "n_range": {"start": 1, "stop": 8000}})
    start = time.perf_counter()
    assert main(["dimension", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    assert time.perf_counter() - start < 5.0
