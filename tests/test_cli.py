import csv
import dataclasses
import json
import math
import os
import platform
import random
import re
import subprocess
import sys
import threading
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import loctime.cli as cli_module
import loctime.mc as mc
from loctime import __version__
from loctime.cli import (CSV_HEADER, FAMILIES, GENERATORS, KINDS,
                         ExperimentConfig, ResultRow, build_parser,
                         _config_from_args, main, run)
from loctime.errors import ConfigError
from loctime.fracops import PairingTable
from loctime.mc import resolve_threads
from loctime.stransform import DeltaSpec
from loctime.svg import loglog_plot


def read_rows(out_dir):
    with open(Path(out_dir) / "results.csv", newline="") as fh:
        return list(csv.DictReader(fh))


def row_by_id(rows, row_id):
    matches = [r for r in rows if r["id"] == row_id]
    assert len(matches) == 1, row_id
    return matches[0]


class TestConfig:
    def test_defaults_validate(self):
        ExperimentConfig(kind="selftest")

    def test_generator_choices_are_the_mc_generators(self):
        action = next(a for a in build_parser()._actions
                      if a.dest == "generator")
        assert tuple(action.choices) == mc.GENERATORS
        assert GENERATORS is mc.GENERATORS

    @pytest.mark.parametrize("kwargs", [
        dict(kind="frobnicate"),
        dict(kind="ops", hurst=0.0),
        dict(kind="ops", hurst=1.0),
        dict(kind="ops", hurst=float("nan")),
        dict(kind="ops", d=0),
        dict(kind="ops", n_trunc=-1),
        dict(kind="ops", eps=-0.1),
        dict(kind="ops", eps_schedule=(0.1, 0.0)),
        dict(kind="ops", eps_schedule=(-1e-3,)),
        dict(kind="ops", family="spline"),
        dict(kind="ops", family="hermite", indices=(-1,)),
        dict(kind="ops", family="gauss", indices=(1,)),
        dict(kind="ops", tol=0.0),
        dict(kind="ops", m=1),
        dict(kind="ops", n_paths=0),
        dict(kind="ops", generator="euler"),
        dict(kind="ops", scale=float("inf")),
        dict(kind="ops", seed=-1),
        dict(kind="ops", out=""),
    ])
    def test_validation_rejects(self, kwargs):
        with pytest.raises(ConfigError):
            ExperimentConfig(**kwargs)

    def test_roundtrip_random_configs(self):
        rng = random.Random(20250814)
        for _ in range(50):
            cfg = ExperimentConfig(
                kind=rng.choice(KINDS),
                hurst=rng.choice([0.1, 0.25, 0.5, 0.75, 0.9]),
                d=rng.randint(1, 3),
                n_trunc=rng.randint(0, 4),
                eps=rng.choice([0.0, 1e-3, 0.05]),
                eps_schedule=tuple(
                    rng.choice([1e-1, 1e-2, 1e-3])
                    for _ in range(rng.randint(0, 3))),
                family=rng.choice(FAMILIES),
                scale=rng.choice([0.05, 0.1, 0.8]),
                tol=rng.choice([1e-6, 1e-8]),
                m=rng.randint(2, 64),
                n_paths=rng.randint(1, 999),
                generator=rng.choice(GENERATORS),
                seed=rng.randint(0, 10),
                out=rng.choice(["runs/a", "b"]),
            )
            if cfg.family == "hermite":
                cfg = dataclasses.replace(
                    cfg, indices=tuple(rng.randint(0, 3)
                                       for _ in range(cfg.d)))
            assert ExperimentConfig.parse(cfg.emit()) == cfg

    def test_manifest_is_a_valid_config(self):
        cfg = ExperimentConfig(kind="mc", hurst=0.7, eps=0.05, m=16)
        manifest = {"config": cfg.to_dict(), "rows": [], "run_id": "abc"}
        assert ExperimentConfig.parse(json.dumps(manifest)) == cfg

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError, match="unknown config fields"):
            ExperimentConfig.parse('{"kind": "ops", "bogus": 1}')

    def test_kind_required(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.parse('{"hurst": 0.5}')

    def test_non_object_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.parse("[1, 2]")
        with pytest.raises(ConfigError):
            ExperimentConfig.parse("{not json")

    def test_from_dict_coerces_strings(self):
        cfg = ExperimentConfig.from_dict(
            {"kind": "ops", "hurst": "0.3", "d": "2", "eps": "0.01"})
        assert cfg.hurst == 0.3
        assert cfg.d == 2
        assert cfg.eps == 0.01

    def test_from_dict_fuzz_raises_only_config_errors(self):
        # JSON values for every field: numbers near and beyond each
        # range, the same as strings, and junk scalars and containers.
        numbers = st.one_of(
            st.integers(-1, 4), st.floats(0.0, 1.0),
            st.sampled_from([0.999999, 170, 171, 1e308, 5e-324, 2 ** 64,
                             10 ** 400, math.nan, math.inf]))
        scalars = st.one_of(st.none(), st.booleans(), st.integers(),
                            st.floats(), st.text(max_size=6))
        junk = st.one_of(
            scalars, st.lists(scalars, max_size=3),
            st.dictionaries(st.text(max_size=3), scalars, max_size=2))
        text = {"kind": KINDS, "family": FAMILIES, "generator": GENERATORS,
                "out": ("o",)}
        fields = {}
        for f in dataclasses.fields(ExperimentConfig):
            if f.name in text:
                good = st.sampled_from(text[f.name])
            elif f.name in ("eps_schedule", "indices"):
                good = st.lists(st.one_of(numbers, numbers.map(str)),
                                max_size=2)
            else:
                good = st.one_of(numbers, numbers.map(str))
            # Three draws in four keep to the field's type, so that a
            # fair share of configs build.
            fields[f.name] = st.integers(0, 3).flatmap(
                lambda i, good=good: good if i else junk)
        kind = fields.pop("kind")
        built = []

        @settings(derandomize=True, database=None, deadline=None,
                  max_examples=400)
        @given(st.fixed_dictionaries({"kind": kind}, optional=fields))
        def check(data):
            try:
                cfg = ExperimentConfig.from_dict(data)
            except ConfigError:
                return
            DeltaSpec(cfg.hurst, cfg.d, cfg.n_trunc, cfg.eps)
            built.append(cfg)

        check()
        assert built

    def test_f_labels_have_no_commas(self):
        cases = [
            ExperimentConfig(kind="ops"),
            ExperimentConfig(kind="ops", family="gauss", scale=0.25),
            ExperimentConfig(kind="ops", family="hermite", d=2,
                             indices=(0, 2), scale=0.5),
            ExperimentConfig(kind="ops", family="hermite", d=2),
        ]
        labels = [c.f_label for c in cases]
        assert labels[0] == "zero"
        assert labels[1] == "gauss~0.25"
        assert labels[2] == "hermite[0+2]~0.5"
        assert labels[3] == "hermite[0+1]~0.1"
        assert all("," not in lab for lab in labels)

    def test_result_row_coerces_numpy(self):
        row = ResultRow("x", np.float64(1.5), np.float64(0.25))
        assert isinstance(row.value, float)
        assert isinstance(row.err, float)


class TestArgumentParsing:
    def parse(self, argv):
        return _config_from_args(build_parser().parse_args(argv))

    def test_defaults(self):
        cfg = self.parse(["selftest"])
        assert cfg == ExperimentConfig(kind="selftest")

    def test_unknown_kind_is_a_usage_error(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["interpolate"])

    def test_single_eps(self):
        cfg = self.parse(["stransform", "--eps", "0.05"])
        assert cfg.eps == 0.05
        assert cfg.eps_schedule == ()

    def test_eps_schedule(self):
        cfg = self.parse(["convergence", "--eps", "1e-1,1e-2,1e-3"])
        assert cfg.eps_schedule == (0.1, 0.01, 0.001)

    def test_eps_parse_error(self):
        with pytest.raises(ConfigError):
            self.parse(["stransform", "--eps", "fast"])

    def test_family_with_indices(self):
        cfg = self.parse(["stransform", "--d", "2", "--f", "hermite:1,0"])
        assert cfg.family == "hermite"
        assert cfg.indices == (1, 0)

    def test_family_index_parse_error(self):
        with pytest.raises(ConfigError):
            self.parse(["stransform", "--f", "hermite:a,b"])

    def test_flags_override_config_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(
            {"kind": "ops", "hurst": 0.7, "tol": 1e-6, "seed": 3}))
        cfg = self.parse(["stransform", "--config", str(path),
                          "--H", "0.5"])
        assert cfg.kind == "stransform"
        assert cfg.hurst == 0.5
        assert cfg.tol == 1e-6
        assert cfg.seed == 3

    def test_missing_config_file(self):
        with pytest.raises(ConfigError, match="not found"):
            self.parse(["ops", "--config", "/nonexistent/cfg.json"])


class TestRunArtifacts:
    def test_stransform_run_artifacts(self, tmp_path):
        cfg = ExperimentConfig(kind="stransform", hurst=0.5, eps=0.1,
                               tol=1e-7, out=str(tmp_path / "run"))
        record = run(cfg)
        out = tmp_path / "run"
        assert (out / "results.csv").is_file()
        assert (out / "manifest.json").is_file()
        text = (out / "results.csv").read_text()
        assert text.splitlines()[0] == ",".join(CSV_HEADER)
        rows = read_rows(out)
        assert [r["id"] for r in rows] == ["s_local_time"]
        assert float(rows[0]["value"]) == record.rows[0].value
        assert rows[0]["f"] == "zero"
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["experiment"] == "stransform"
        assert manifest["config"]["hurst"] == 0.5
        assert manifest["version"] == __version__
        assert len(manifest["run_id"]) == 12
        assert int(manifest["run_id"], 16) >= 0

    def test_rerun_from_manifest_reproduces_csv(self, tmp_path):
        first = tmp_path / "a"
        second = tmp_path / "b"
        assert main(["stransform", "--H", "0.6", "--eps", "0.05",
                     "--tol", "1e-7", "--out", str(first)]) == 0
        assert main(["stransform",
                     "--config", str(first / "manifest.json"),
                     "--out", str(second)]) == 0
        assert ((first / "results.csv").read_bytes()
                == (second / "results.csv").read_bytes())

    def test_convergence_artifacts(self, tmp_path):
        out = tmp_path / "conv"
        code = main(["convergence", "--H", "0.5", "--eps", "0.1,0.01",
                     "--tol", "1e-7", "--out", str(out)])
        assert code == 0
        rows = read_rows(out)
        base = row_by_id(rows, "value_eps=0")
        assert base["eps"] == "0.0"
        assert row_by_id(rows, "value_eps=0.1")["eps"] == "0.1"
        assert row_by_id(rows, "gap_eps=0.01")["eps"] == "0.01"
        rel = float(row_by_id(rows, "final_gap_rel")["value"])
        assert 0.0 < rel < 1.0
        svg = (out / "plot.svg").read_text()
        assert svg.startswith("<svg")
        ET.fromstring(svg)

    def test_convergence_builds_one_pairing_table(self, tmp_path,
                                                  monkeypatch):
        argv = ["convergence", "--H", "0.5", "--eps", "0.1,0.01,0.001",
                "--f", "gauss", "--scale", "0.2", "--tol", "1e-7"]
        assert main(argv + ["--out", str(tmp_path / "plain")]) == 0
        builds = []
        init = PairingTable.__init__

        def counted(self, *args, **kwargs):
            builds.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(PairingTable, "__init__", counted)
        assert main(argv + ["--out", str(tmp_path / "counted")]) == 0
        assert len(builds) == 1
        assert ((tmp_path / "plain" / "results.csv").read_bytes()
                == (tmp_path / "counted" / "results.csv").read_bytes())

    def test_convergence_single_eps_has_no_plot(self, tmp_path):
        out = tmp_path / "conv1"
        code = main(["convergence", "--H", "0.5", "--eps", "0.1",
                     "--tol", "1e-7", "--out", str(out)])
        assert code == 0
        assert not (out / "plot.svg").exists()
        rows = read_rows(out)
        assert row_by_id(rows, "value_eps=0.1")

    def test_mc_run_rows(self, tmp_path):
        out = tmp_path / "mc"
        code = main(["mc", "--H", "0.5", "--eps", "0.1", "--m", "8",
                     "--paths", "256", "--tol", "1e-6", "--out", str(out)])
        assert code == 0
        rows = read_rows(out)
        ids = [r["id"] for r in rows]
        assert ids == ["mc_local_time", "analytic_limit", "grid_bias"]
        est = float(row_by_id(rows, "mc_local_time")["value"])
        se = float(row_by_id(rows, "mc_local_time")["err"])
        limit = float(row_by_id(rows, "analytic_limit")["value"])
        bias = float(row_by_id(rows, "grid_bias")["value"])
        assert abs(est - limit) < 5 * se + 2 * bias

    def test_mc_whitenoise_stransform_rows(self, tmp_path):
        out = tmp_path / "mcw"
        code = main(["mc", "--H", "0.5", "--eps", "0.1", "--m", "8",
                     "--paths", "512", "--generator", "whitenoise",
                     "--f", "gauss", "--scale", "0.2", "--tol", "1e-6",
                     "--out", str(out)])
        assert code == 0
        rows = read_rows(out)
        ids = [r["id"] for r in rows]
        for name in ("wick_mean", "mc_s_transform", "s_transform_limit"):
            assert name in ids
        wick = row_by_id(rows, "wick_mean")
        assert abs(float(wick["value"]) - 1.0) < 5 * float(wick["err"])

    def test_ops_rows(self, tmp_path):
        out = tmp_path / "ops"
        code = main(["ops", "--H", "0.5", "--tol", "1e-8",
                     "--out", str(out)])
        assert code == 0
        rows = read_rows(out)
        assert float(row_by_id(rows, "K_H")["value"]) == 1.0
        for t in ("0.25", "0.5", "1", "2"):
            r = row_by_id(rows, f"norm_sq_t={t}")
            assert float(r["err"]) < 1e-6
        assert float(row_by_id(rows, "bound_ratio")["value"]) > 0.0

    def test_selftest_passes(self, tmp_path):
        out = tmp_path / "self"
        assert main(["selftest", "--out", str(out)]) == 0
        rows = read_rows(out)
        for r in rows:
            assert float(r["value"]) <= float(r["err"]) + 1e-300

    def test_selftest_compares_one_thread_with_two(self, tmp_path,
                                                    monkeypatch):
        # with two threads resolved for the run, the determinism check
        # must still sample once on one thread and once on two, and the
        # two-thread run must really start a thread
        seen = []
        started = []
        sample = cli_module.sample_paths_whitenoise
        start = threading.Thread.start

        def counting_start(self):
            started.append(self)
            start(self)

        def spy(*args, n_threads=None, **kwargs):
            before = len(started)
            ens = sample(*args, n_threads=n_threads, **kwargs)
            seen.append((n_threads, len(started) > before))
            return ens

        monkeypatch.setattr(threading.Thread, "start", counting_start)
        monkeypatch.setattr(cli_module, "sample_paths_whitenoise", spy)
        monkeypatch.setenv("LOCTIME_THREADS", "2")
        assert main(["selftest", "--out", str(tmp_path)]) == 0
        assert {(1, False), (2, True)} <= set(seen)

    def test_manifest_keys(self, tmp_path):
        assert main(["stransform", "--out", str(tmp_path)]) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert set(manifest) == {
            "experiment", "run_id", "config", "csv_header", "rows",
            "wall_time_s", "version", "created_utc", "threads",
            "cpu_count", "versions"}
        assert set(manifest["config"]) == {
            f.name for f in dataclasses.fields(ExperimentConfig)}
        assert set(manifest["rows"][0]) == {"id", "value", "err", "units",
                                            "eps"}
        assert manifest["csv_header"] == ",".join(CSV_HEADER)

    def test_csv_rows_are_well_formed(self, tmp_path):
        out = tmp_path / "wf"
        main(["convergence", "--H", "0.5", "--eps", "0.1,0.01",
              "--tol", "1e-7", "--out", str(out)])
        text = (out / "results.csv").read_text()
        assert '"' not in text
        for line in text.strip().splitlines():
            assert len(line.split(",")) == len(CSV_HEADER)

    def test_threads_deterministic_through_cli(self, tmp_path, monkeypatch):
        outs = []
        for n, name in (("1", "t1"), ("4", "t4"), (None, "default")):
            out = tmp_path / name
            if n is None:
                monkeypatch.delenv("LOCTIME_THREADS", raising=False)
            else:
                monkeypatch.setenv("LOCTIME_THREADS", n)
            assert main(["mc", "--H", "0.6", "--eps", "0.1", "--m", "8",
                         "--paths", "1500", "--generator", "whitenoise",
                         "--f", "gauss", "--scale", "0.2", "--tol", "1e-6",
                         "--out", str(out)]) == 0
            outs.append((out / "results.csv").read_bytes())
            manifest_text = (out / "manifest.json").read_text()
            manifest = json.loads(manifest_text)
            assert manifest["threads"] == (resolve_threads() if n is None
                                           else int(n))
            assert manifest["cpu_count"] == os.cpu_count()
            assert manifest["versions"] == {
                "python": platform.python_version(),
                "numpy": np.__version__}
            assert ExperimentConfig.parse(manifest_text).n_paths == 1500
        assert outs[0] == outs[1] == outs[2]


class TestExitCodes:
    def test_invalid_hurst(self, tmp_path, capsys):
        code = main(["stransform", "--H", "1.5", "--out", str(tmp_path)])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_invalid_eps_string(self, tmp_path):
        assert main(["stransform", "--eps", "x", "--out",
                     str(tmp_path)]) == 2

    def test_unknown_config_field(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"kind": "ops", "turbo": true}')
        assert main(["ops", "--config", str(path)]) == 2

    @pytest.mark.parametrize("field", [
        '"d": "abc"', '"hurst": null', '"eps_schedule": 5', '"d": 1.5',
        '"out": 5', '"d": true'])
    def test_malformed_config_field(self, tmp_path, capsys, field):
        # these ended in a ValueError or TypeError traceback, and d = 1.5
        # and d = true ran as d = 1
        path = tmp_path / "cfg.json"
        path.write_text('{"kind": "ops", ' + field + '}')
        assert main(["ops", "--config", str(path), "--out",
                     str(tmp_path / "out")]) == 2
        assert "config error" in capsys.readouterr().err

    def test_truncation_order_above_170(self, tmp_path, capsys):
        # 200! is no double: this ended in an OverflowError traceback
        assert main(["stransform", "--N", "200", "--eps", "0.1", "--out",
                     str(tmp_path)]) == 2
        assert "at most 170" in capsys.readouterr().err

    def test_eps_beyond_the_double_range(self, tmp_path, capsys):
        # float(10**400) raises OverflowError, which the finite-number
        # check must turn into a config error
        path = tmp_path / "cfg.json"
        path.write_text('{"kind": "stransform", "eps": 1' + "0" * 400 + "}")
        assert main(["stransform", "--config", str(path), "--out",
                     str(tmp_path / "out")]) == 2
        assert "config error" in capsys.readouterr().err

    def test_seed_above_the_double_range_runs(self, tmp_path):
        # numpy takes any seed >= 0; this one was refused as "not an
        # integer" because it is no exact double
        assert main(["mc", "--eps", "0.1", "--m", "4", "--paths", "8",
                     "--seed", "99999999999999999999999", "--out",
                     str(tmp_path)]) == 0

    def test_underflowing_pair_kernels(self, tmp_path, capsys):
        # this exited 0 with mc_local_time value=0.0 err=0.0
        assert main(["mc", "--eps", "1e-300", "--m", "4", "--paths", "4",
                     "--out", str(tmp_path)]) == 3
        assert "underflowed" in capsys.readouterr().err

    def test_overflowing_pair_kernel_constant(self, tmp_path, capsys):
        # (2 pi 1e-300)^(-3/2) is no double: this ended in an
        # OverflowError traceback
        assert main(["mc", "--eps", "1e-300", "--d", "3", "--m", "4",
                     "--paths", "4", "--out", str(tmp_path)]) == 3
        assert "double range" in capsys.readouterr().err

    def test_mc_requires_positive_eps(self, tmp_path):
        assert main(["mc", "--out", str(tmp_path)]) == 2

    def test_convergence_requires_schedule(self, tmp_path):
        assert main(["convergence", "--out", str(tmp_path)]) == 2

    def test_inadmissible_kernels(self, tmp_path, capsys):
        code = main(["kernels", "--H", "0.6", "--d", "2", "--N", "0",
                     "--out", str(tmp_path)])
        assert code == 4
        err = capsys.readouterr().err
        assert "admissibility error" in err
        assert "minimal N" in err

    @pytest.mark.parametrize("value", ["abc", "0", "-2"])
    def test_invalid_thread_env(self, tmp_path, monkeypatch, value):
        monkeypatch.setenv("LOCTIME_THREADS", value)
        assert main(["stransform", "--H", "0.5", "--eps", "0.1",
                     "--tol", "1e-6", "--out", str(tmp_path)]) == 2


class TestModuleEntry:
    # -W error: pytest's filterwarnings reaches in-process calls only, so
    # a numpy overflow or NaN warning in a CLI run fails here too.
    def test_golden_local_time(self, tmp_path):
        out = tmp_path / "golden"
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "loctime", "stransform",
             "--H", "0.5",
             "--tol", "1e-9", "--out", str(out)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert "s_local_time" in proc.stdout
        rows = read_rows(out)
        value = float(row_by_id(rows, "s_local_time")["value"])
        want = (2.0 * 3.141592653589793) ** -0.5 * 4.0 / 3.0
        assert abs(value - want) < 1e-8

    def test_inadmissible_exit_code(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "loctime", "kernels",
             "--H", "0.9", "--d", "3", "--N", "0",
             "--out", str(tmp_path / "x")],
            capture_output=True, text=True)
        assert proc.returncode == 4
        assert "admissibility error" in proc.stderr


def _loglog(label="gap", x=(1e-3, 1e-2, 1e-1), y=(3.0, 2.0, 1.0),
            title="t", xlabel="eps", ylabel="gap"):
    return loglog_plot(label, x, y, title=title, xlabel=xlabel,
                       ylabel=ylabel)


class TestSvg:
    def test_series_validation(self):
        with pytest.raises(ConfigError):
            _loglog(x=(1.0, 2.0), y=(1.0,))

    def test_empty_plot_rejected(self):
        with pytest.raises(ConfigError):
            _loglog(x=(), y=())

    def test_log_axis_requires_positive(self):
        with pytest.raises(ConfigError, match="log axis y"):
            _loglog(x=(0.1, 1.0), y=(0.0, 2.0))
        with pytest.raises(ConfigError, match="log axis x"):
            _loglog(x=(-0.1, 1.0), y=(1.0, 2.0))

    def test_polyline_and_markers(self):
        svg = _loglog()
        assert svg.count("<polyline") == 1
        assert svg.count("<circle") == 3
        assert "1e-03" in svg
        assert "1e+00" in svg
        ET.fromstring(svg)

    def test_axis_within_one_decade_is_labelled_at_its_ends(self):
        svg = _loglog(x=(0.11, 0.12, 0.13), y=(0.2, 0.25, 0.3))
        labels = re.findall(r'font-size="11">([^<]*)</text>', svg)
        # the padded axis ends, 4 % of the x range and 6 % of the y
        # range (in log10) beyond the data, to 3 significant digits
        assert labels == ["0.109", "0.131", "0.195", "0.307"]
        ET.fromstring(svg)

    def test_text_is_escaped(self):
        svg = _loglog(label="a<b & c>d", title="x<y>&z", xlabel="<e>",
                      ylabel="g&")
        assert "a&lt;b &amp; c&gt;d" in svg
        assert "x&lt;y&gt;&amp;z" in svg
        assert "&lt;e&gt;" in svg and "g&amp;" in svg
        assert "x<y" not in svg
        ET.fromstring(svg)
