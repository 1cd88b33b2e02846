import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from bergman_heat import cli, config, flat_model
from bergman_heat.bench import check_sweep_cost, rate_fit
from bergman_heat.cli import (EXIT_ACCEPTANCE, EXIT_CONFIG, EXIT_INVALID_RUN,
                              EXIT_OK, run)
from bergman_heat.config import DEFAULTS, default_l_max, load_config
from bergman_heat.errors import ConfigError


def _read_summary(out_dir, name):
    return json.loads((Path(out_dir) / f"{name}_summary.json").read_text())


def _subprocess_env(**extra):
    """The environment plus this checkout's ``src`` on PYTHONPATH."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return dict(os.environ, **extra, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


SMALL_CONVERGE = {
    "p_list": [4, 8, 12, 16],
    "n_theta": 48,
    "n_phi": 96,
    "l_max": 12,
    "volume_forms": [
        {"id": "fs", "coefficients": {}},
        {"id": "zonal-half", "coefficients": {"1,0": -0.15}},
        {"id": "zonal-full", "coefficients": {"1,0": -0.3}},
    ],
    "slope_threshold": -0.5,
}


# one bad value of each kind: wrong type, bool, null, NaN, +-Infinity,
# negative, zero, huge, empty list, nested object
BAD_VALUES = ["x", True, None, math.nan, math.inf, -math.inf, -1, -0.5, 0,
              10 ** 30, 1e300, [], {"a": 1}]

# coefficient keys that do not spell a pair f"{l},{m}", or spell one that
# no harmonic has
BAD_KEYS = ["", "1", "1,0,0", "a,b", "1.0,0", "1,", ",0", "1, 0",
            "\u0661,0", "-1,0", "1,2", "1,-2"]


def _malformed_specs():
    """Volume form specs with one part malformed."""
    for value in BAD_VALUES:
        yield {"id": "fs", "coefficients": value}
        yield {"id": "fs", "coefficients": {"1,0": value}}
        yield {"id": value, "coefficients": {}}
    yield {"id": "", "coefficients": {}}
    for key in BAD_KEYS:
        yield {"id": "fs", "coefficients": {key: 0.1}}
    yield {"id": "fs"}
    yield {"coefficients": {}}


def _malformed_configs():
    """(command, config) pairs: each command's defaults with one key, one
    list entry or one volume form spec replaced by a malformed value, in a
    fixed order."""
    for command, defaults in DEFAULTS.items():
        for key, default in defaults.items():
            for value in BAD_VALUES:
                yield command, {key: value}
            if isinstance(default, list):
                for i in range(len(default)):
                    for value in BAD_VALUES:
                        yield command, {key: default[:i] + [value]
                                        + default[i + 1:]}
            for spec in _malformed_specs():
                if key == "form":
                    yield command, {key: spec}
                elif key == "volume_forms":
                    yield command, {key: [spec] + default[1:]}
                    yield command, {key: default + [spec]}


class _Reached(Exception):
    """Raised where a run would start its numerical work."""


class TestConfig:
    def test_defaults_load(self):
        for command in DEFAULTS:
            cfg = load_config(command, None, {})
            assert isinstance(cfg, dict)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"bogus": 1}')
        with pytest.raises(ConfigError):
            load_config("converge", path, {})

    def test_unsorted_p_list_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"p_list": [16, 8, 32, 64]}')
        with pytest.raises(ConfigError):
            load_config("converge", path, {})

    def test_l_max_default_tracks_p(self):
        assert default_l_max(128) == max(40, 46)
        assert default_l_max(16) == 40

    def test_import_leaves_sympy_unloaded(self):
        # only model-check's symbolic criterion needs sympy
        code = ("import sys, bergman_heat; a = 'sympy' in sys.modules; "
                "import bergman_heat.cli; print(a, 'sympy' in sys.modules)")
        proc = subprocess.run([sys.executable, "-c", code],
                              env=_subprocess_env(), capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False", "False"]


class TestExitCodes:
    def test_insufficient_p_list_is_config_error(self, tmp_path):
        code = run(["converge", "--out", str(tmp_path), "--p", "8"])
        assert code == EXIT_CONFIG

    def test_unknown_flag_is_config_error(self, tmp_path):
        assert run(["converge", "--bogus"]) == EXIT_CONFIG

    def test_forced_tail_violation_is_invalid_run(self, tmp_path):
        cfg = dict(SMALL_CONVERGE)
        cfg["p_list"] = [4, 8, 16, 32]
        cfg["l_max"] = 8
        cfg["tail_bound"] = 1e-9
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code = run(["converge", "--config", str(path),
                    "--out", str(tmp_path)])
        assert code == EXIT_INVALID_RUN
        summary = _read_summary(tmp_path, "converge")
        assert summary["exit_code"] == EXIT_INVALID_RUN
        assert "tail residual" in summary["error"]

    def test_density_floor_is_config_error(self, tmp_path):
        # zonal-full dips to density 0.595, below the floor
        cfg = dict(SMALL_CONVERGE, density_floor=0.9)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code = run(["converge", "--config", str(path),
                    "--out", str(tmp_path)])
        assert code == EXIT_CONFIG
        assert not (tmp_path / "converge.csv").exists()

    @pytest.mark.parametrize("command,cfg", [
        ("converge", {"tail_bound": "x"}),
        ("converge", {"slope_threshold": None}),
        ("heat-check", {"n_u": 1}),
        ("decay", {"max_sample_per_axis": 0}),
        ("decay", {"max_sample_per_axis": -4}),
        ("model-check", {"n_random": 0}),
        ("converge", {"l_max": -3}),
        ("heat-check", {"l_max": -1}),
        ("near-diagonal", {"n_radial": 0}),
        ("near-diagonal", {"n_angular": 0}),
        ("decay", {"p_list": [64]}),
        ("decay", {"p_list": [64, 64, 96]}),
        ("heat-check", {"u_min": 0.0}),
        ("heat-check", {"u_min": 0.02}),
        ("model-check", {"seed": -1}),
        ("decay", {"max_sample_per_axis": 100000}),
        ("near-diagonal", {"window_constant": 0.0}),
        ("near-diagonal", {"window_constant": -1.0}),
        ("model-check", {"window": 0.0}),
        ("model-check", {"window": -1.0}),
        ("converge", {"l_max": 0}),
        ("converge", dict(SMALL_CONVERGE, n_theta=0)),
        ("identities", {"n_theta": 0, "n_phi": 0}),
        ("model-check", {"quad_order": 39}),
        ("model-check", {"quad_order": 400}),
        ("model-check", {"n_random": 20000}),
        ("heat-check", {"n_u": 2000000}),
        # a 1001^2 x 2048 Legendre table would hold 16 GB
        ("heat-check", {"l_max": 1000, "n_theta": 2048, "n_phi": 2048}),
        # past window 5.3 the farthest pair's kernel underflows; at 30 every
        # kernel value does, and every check passed vacuously
        ("model-check", {"window": 30.0}),
        ("model-check", {"window": 6.0}),
        # with the constant coefficient alone five invariants are 0
        ("heat-check", {"l_max": 0}),
    ])
    def test_malformed_numeric_value_is_config_error(self, tmp_path, capsys,
                                                     command, cfg):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code = run([command, "--config", str(path), "--out", str(tmp_path)])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert json.loads(err)["exit_code"] == EXIT_CONFIG
        assert not list(tmp_path.glob("*_summary.json"))

    @pytest.mark.parametrize("argv", [
        ["model-check", "--lmax", "5"],
        ["model-check", "--p", "3"],
        ["decay", "--lmax", "5"],
        ["heat-check", "--p", "8"],
    ])
    def test_override_of_unread_key_is_config_error(self, tmp_path, argv):
        assert run(argv + ["--out", str(tmp_path)]) == EXIT_CONFIG

    @pytest.mark.parametrize("argv", [
        ["converge", "--lmax", "400"],
        ["converge", "--p", "100", "200", "400", "800", "--lmax", "46"],
    ])
    def test_oversized_sweep_is_refused_up_front(self, tmp_path, capsys,
                                                 monkeypatch, argv):
        # the defaults, which include a non-zonal form, still run
        check_sweep_cost(128, default_l_max(128), [{(1, 1): 0.1}])

        # the budget reads the forms' coefficient maps, so no grid is built
        def no_grid(*args):
            raise AssertionError("grid built for a refused sweep")
        monkeypatch.setattr(cli, "grid_for", no_grid)
        start = time.monotonic()
        code = run(argv + ["--out", str(tmp_path)])
        assert time.monotonic() - start < 10.0
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert "over the limit" in json.loads(err)["error"]
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("forms", [["fs", "zonal-full"],
                                       ["fs", "zonal-full", "tilted"]])
    def test_sweep_budget_applies_to_non_zonal_sweeps(self, tmp_path, capsys,
                                                      forms):
        # l_max 71 puts one operator matrix over MAX_MATRIX_ENTRIES; zonal
        # forms build (l_max+1)-square blocks only, so they run
        coefficients = {"fs": {}, "zonal-full": {"1,0": -0.3},
                        "tilted": {"1,1": 0.1, "2,1": 0.05}}
        cfg = {"p_list": [8, 16, 32, 64], "uniformity_family": ["fs"],
               "volume_forms": [{"id": fid, "coefficients": coefficients[fid]}
                                for fid in forms]}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        start = time.monotonic()
        code = run(["converge", "--config", str(path), "--lmax", "71",
                    "--out", str(tmp_path)])
        assert time.monotonic() - start < 10.0
        if "tilted" not in forms:
            assert code in (EXIT_OK, EXIT_ACCEPTANCE)
            assert (tmp_path / "converge.csv").exists()
            return
        assert code == EXIT_CONFIG
        assert "per operator matrix" in json.loads(capsys.readouterr().err)[
            "error"]
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("command,cfg", [
        ("converge", {"n_theta": 20000, "n_phi": 40000}),
        ("decay", {"n_theta": 20000}),
        ("decay", {"p_list": [64, 96, 4000]}),
        ("heat-check", {"n_phi": 10 ** 9}),
        ("near-diagonal", {"n_radial": 101, "n_angular": 100}),
        ("identities", {"n_theta": 120, "n_phi": 240}),
    ])
    def test_oversized_grid_or_pair_pass_is_refused_up_front(
            self, tmp_path, capsys, command, cfg):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        start = time.monotonic()
        code = run([command, "--config", str(path), "--out", str(tmp_path)])
        assert time.monotonic() - start < 10.0
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert "over the limit" in json.loads(err)["error"]
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("command,cfg,message", [
        ("near-diagonal", {"x0": "ab"}, "x0 must be two finite numbers"),
        ("near-diagonal", {"x0": [1.0]}, "x0 must be two finite numbers"),
        ("near-diagonal", {"slope_range": 3},
         "slope_range must be two finite numbers"),
        ("converge", {"volume_forms": "fs"},
         "volume_forms must be a nonempty list"),
        ("identities", {"volume_forms": []},
         "volume_forms must be a nonempty list"),
        ("converge", {"uniformity_family": "fs"},
         "uniformity_family must be a nonempty list"),
        ("converge", {"uniformity_family": []},
         "uniformity_family must be a nonempty list"),
        ("identities", {"volume_forms": [{"coefficients": {"1,0": "x"}}]},
         "bad coefficient value 'x' for '1,0'"),
        # an id is a nonempty string, not any JSON value
        ("identities", {"volume_forms": [{"id": 7, "coefficients": {}}]},
         "form id must be a nonempty string, got 7"),
        ("converge", {"volume_forms": [{"id": None, "coefficients": {}}]},
         "form id must be a nonempty string, got None"),
        ("decay", {"form": {"id": "", "coefficients": {}}},
         "form id must be a nonempty string, got ''"),
        ("near-diagonal", {"form": {"id": ["fs"], "coefficients": {}}},
         "form id must be a nonempty string, got ['fs']"),
        # JSON true is a Python bool, which is an int, but not a p
        ("converge", {"p_list": [True, 8, 16, 32]},
         "p_list must be a nonempty list of positive ints"),
        ("converge", dict(SMALL_CONVERGE, uniformity_family=["fs"],
                          volume_forms=[
                              {"id": "fs", "coefficients": {}},
                              {"id": "fs", "coefficients": {"1,0": -0.3}}]),
         "volume_forms repeat the form id(s) ['fs']"),
        ("identities", {"volume_forms": [{"coefficients": {}},
                                         {"coefficients": {"1,0": -0.3}}]},
         "volume_forms repeat the form id(s) ['custom']"),
        # exp of the density overflows to inf, or underflows to 0
        ("identities", {"volume_forms": [{"coefficients": {"1,0": 800}}]},
         "density is not finite and positive"),
        ("identities", {"volume_forms": [{"coefficients": {"1,0": -800}}]},
         "density is not finite and positive"),
        ("decay", {"form": {"coefficients": {"1,0": 800}}},
         "density is not finite and positive"),
        # refused before the density is evaluated, at O(l) per node
        ("decay", {"form": {"coefficients": {"20000,0": 0.01}}},
         "bad harmonic index (20000,0): needs |m| <= l <= 559"),
        ("converge", {"volume_forms": [{"id": "zonal-full",
                                        "coefficients": {"1,0": -0.3}}],
                      "uniformity_family": ["zonal-full"]},
         "converge requires the 'fs' form"),
        ("converge", {"uniformity_family": ["fs", "flat"]},
         "uniformity family members missing: ['flat']"),
    ])
    def test_malformed_list_value_is_config_error(self, tmp_path, capsys,
                                                  command, cfg, message):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code = run([command, "--config", str(path), "--out", str(tmp_path)])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert message in json.loads(err)["error"]
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("text,key", [
        ('{"p_list": [4, 8], "p_list": [16, 32, 64, 128]}', "p_list"),
        ('{"volume_forms": [{"id": "fs", "coefficients": {}}, {"id": "z", '
         '"coefficients": {"1,0": -0.1, "1,0": -0.3}}]}', "1,0"),
    ])
    def test_repeated_key_is_config_error(self, tmp_path, capsys, text, key):
        # json keeps the last of repeated keys; the config reader refuses
        # them, at the top level and in a coefficient map alike
        path = tmp_path / "cfg.json"
        path.write_text(text)
        code = run(["converge", "--config", str(path), "--out", str(tmp_path)])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert json.loads(err)["error"] == f"config repeats the key {key!r}"
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("key", [" 1,0 ", "+1,0", "01,0", "1_0,0",
                                     "1,-0"])
    def test_noncanonical_coefficient_key_is_config_error(self, tmp_path,
                                                          capsys, key):
        # int() reads each of these as a pair, "1_0" as 10; only the
        # spelling f"{l},{m}" is accepted
        cfg = {"volume_forms": [{"id": "fs", "coefficients": {}},
                                {"id": "z", "coefficients": {key: -0.3}}]}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code = run(["converge", "--config", str(path), "--out", str(tmp_path)])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert f"bad coefficient key {key!r}" in json.loads(err)["error"]
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("key", ["-1,0", "1,2", "1,-2"])
    @pytest.mark.parametrize("command", ["converge", "identities", "decay",
                                         "near-diagonal"])
    def test_bad_harmonic_index_exits_before_the_grid(
            self, tmp_path, capsys, monkeypatch, command, key):
        # l < 0 or |m| > l names no harmonic on any grid, so the spec is
        # refused before the grid is built
        def reached(*args):
            raise _Reached

        monkeypatch.setattr(config, "build_grid", reached)
        spec = {"id": "z", "coefficients": {key: 0.1}}
        cfg = ({"form": spec} if "form" in DEFAULTS[command] else
               {"volume_forms": DEFAULTS[command]["volume_forms"] + [spec]})
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code = run([command, "--config", str(path), "--out", str(tmp_path)])
        assert code == EXIT_CONFIG
        assert "bad harmonic index" in json.loads(
            capsys.readouterr().err)["error"]

    def test_malformed_config_sweep(self, tmp_path, capsys, monkeypatch):
        # every malformed config exits 2 or reaches the numerical work,
        # which the stubs stop: grids for five commands, the flat model's
        # quadrature for model-check
        def reached(*args):
            raise _Reached

        monkeypatch.setattr(config, "build_grid", reached)
        monkeypatch.setattr(flat_model, "reproducing_residual", reached)
        # one parser serves every case: building it is most of a refused
        # run's time
        parser = cli.build_parser()
        monkeypatch.setattr(cli, "build_parser", lambda: parser)
        path = tmp_path / "cfg.json"
        outcomes = {}
        for command, cfg in _malformed_configs():
            path.write_text(json.dumps(cfg))
            try:
                outcome = run([command, "--config", str(path),
                               "--out", str(tmp_path)])
            except _Reached:
                outcome = "reached"
            except Exception as exc:
                pytest.fail(f"{command} {cfg!r} raised {exc!r}")
            assert outcome in (EXIT_CONFIG, "reached"), (command, cfg)
            outcomes[outcome] = outcomes.get(outcome, 0) + 1
        assert "Traceback" not in capsys.readouterr().err
        assert min(outcomes.values()) >= 100, outcomes

    def test_acceptance_failure_exit(self, tmp_path):
        cfg = dict(SMALL_CONVERGE)
        cfg["slope_threshold"] = -5.0  # unattainable on purpose
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code = run(["converge", "--config", str(path),
                    "--out", str(tmp_path)])
        assert code == EXIT_ACCEPTANCE


class TestCommands:
    def test_small_converge_outputs(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(SMALL_CONVERGE))
        code = run(["converge", "--config", str(path),
                    "--out", str(tmp_path)])
        assert code == EXIT_OK
        csv_lines = (tmp_path / "converge.csv").read_text().splitlines()
        assert csv_lines[0] == "p,form_id,norm1,norm2,tail_residual"
        assert len(csv_lines) == 1 + 4 * 3
        summary = _read_summary(tmp_path, "converge")
        assert summary["exit_code"] == EXIT_OK
        assert summary["l_max"] == 12
        assert summary["grid"] == [48, 96]
        for crit in summary["criteria"]:
            assert {"name", "measured", "threshold", "pass"} <= set(crit)
        # the uniformity summary holds each family member's own rate fit
        rows = [line.split(",") for line in csv_lines[1:]]
        uniformity = summary["uniformity"]
        for line, col in (("1", 2), ("2", 3)):
            c_hats = []
            for fid in uniformity["family"]:
                norms = [float(r[col]) for r in rows if r[1] == fid]
                c_hats.append(rate_fit(SMALL_CONVERGE["p_list"], norms)[1])
            assert uniformity["c_hat" + line] == pytest.approx(c_hats,
                                                               rel=1e-15)
            assert uniformity["ratio" + line] == pytest.approx(
                max(c_hats) / min(c_hats), rel=1e-15)

    def test_heat_check(self, tmp_path):
        assert run(["heat-check", "--out", str(tmp_path)]) == EXIT_OK
        summary = _read_summary(tmp_path, "heat_check")
        names = {c["name"] for c in summary["criteria"]}
        assert "heat-trace-linear-coefficient" in names
        assert all(c["pass"] for c in summary["criteria"])

    def test_model_check(self, tmp_path):
        assert run(["model-check", "--out", str(tmp_path)]) == EXIT_OK
        summary = _read_summary(tmp_path, "model_check")
        assert all(c["pass"] for c in summary["criteria"])

    def test_model_check_derives_once(self, tmp_path, monkeypatch):
        calls = []
        derive = flat_model.landau_operator_symbolic
        monkeypatch.setattr(flat_model, "landau_operator_symbolic",
                            lambda *args: calls.append(1) or derive(*args))
        for n_random in (1, 20):
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps({"n_random": n_random}))
            assert run(["model-check", "--config", str(path),
                        "--out", str(tmp_path)]) == EXIT_OK
        assert len(calls) == 2

    def test_broken_landau_operator_fails_model_check(
            self, tmp_path, monkeypatch, landau_without_field_term):
        monkeypatch.setattr(flat_model, "landau_operator_symbolic",
                            landau_without_field_term)
        code = run(["model-check", "--out", str(tmp_path)])
        assert code == EXIT_ACCEPTANCE
        summary = _read_summary(tmp_path, "model_check")
        assert [c["name"] for c in summary["criteria"] if not c["pass"]] \
            == ["annihilation-symbolic"]

    def test_identities_small(self, tmp_path):
        small = {"p_list": [4, 8], "n_theta": 32, "n_phi": 64,
                 "volume_forms": [{"id": "fs", "coefficients": {}},
                                  {"id": "z", "coefficients": {"1,0": -0.3}}]}
        # exact only to degree 9: the probes drop to degree 4
        coarse = {"p_list": [2, 4], "n_theta": 5, "n_phi": 10,
                  "volume_forms": [{"id": "fs", "coefficients": {}}]}
        for name, cfg in (("small", small), ("coarse", coarse)):
            out = tmp_path / name
            out.mkdir()
            path = out / "cfg.json"
            path.write_text(json.dumps(cfg))
            assert run(["identities", "--config", str(path),
                        "--out", str(out)]) == EXIT_OK
            rows = (out / "identities.csv").read_text().splitlines()
            assert rows[0] == "form_id,p,identity,residual"

    def test_decay_small(self, tmp_path):
        # wider separation so the weighted-decrease regime starts early
        cfg = {"p_list": [24, 32, 48, 64], "n_theta": 100, "n_phi": 200,
               "eps": 0.35}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert run(["decay", "--config", str(path),
                    "--out", str(tmp_path)]) == EXIT_OK
        summary = _read_summary(tmp_path, "decay")
        assert summary["criteria"][0]["measured"] < 0

    def test_near_diagonal_small(self, tmp_path):
        cfg = {"p_list": [16, 24, 32, 48], "n_theta": 64, "n_phi": 128}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert run(["near-diagonal", "--config", str(path),
                    "--out", str(tmp_path)]) == EXIT_OK

    def test_odd_longitude_grid_resolves_every_mode(self, tmp_path):
        # n_phi = 2p + 1 is the smallest grid the Gram exactness check
        # accepts for a zonal form; it resolves longitude modes 0..p
        cfg = {"p_list": [4, 6, 8, 10], "n_theta": 24, "l_max": 10,
               "volume_forms": [{"id": "fs", "coefficients": {}}],
               "uniformity_family": ["fs"]}
        norms = {}
        for n_phi in (21, 22):
            out = tmp_path / str(n_phi)
            out.mkdir()
            path = out / "cfg.json"
            path.write_text(json.dumps(dict(cfg, n_phi=n_phi)))
            assert run(["converge", "--config", str(path),
                        "--out", str(out)]) == EXIT_OK
            rows = (out / "converge.csv").read_text().splitlines()[1:]
            norms[n_phi] = [[float(v) for v in row.split(",")[2:4]]
                            for row in rows]
        assert len(norms[21]) == 4
        for odd, even in zip(norms[21], norms[22]):
            assert odd == pytest.approx(even, rel=1e-12)

        path = tmp_path / "identities.json"
        path.write_text(json.dumps({
            "p_list": [4], "n_theta": 16, "n_phi": 9,
            "volume_forms": [{"id": "fs", "coefficients": {}}]}))
        assert run(["identities", "--config", str(path),
                    "--out", str(tmp_path)]) == EXIT_OK
        rows = (tmp_path / "identities.csv").read_text().splitlines()[1:]
        assert len(rows) == 8
        assert max(float(row.split(",")[3]) for row in rows) <= 1e-8

    def test_blas_thread_count_leaves_outputs_byte_identical(self, tmp_path):
        # a command holds OpenBLAS to one thread, so the environment's thread
        # count cannot change the reduction order.  tilted takes the mirror
        # route's two real blocks, tilted-mirror (no mirror plane through
        # the pole, even under the equator flip) the same after its quarter
        # turn, and the generic form (neither symmetry) one complex block
        cfg = dict(SMALL_CONVERGE, volume_forms=SMALL_CONVERGE["volume_forms"]
                   + [{"id": "tilted", "coefficients": {"1,1": 0.1,
                                                        "2,1": 0.05}},
                      {"id": "tilted-mirror",
                       "coefficients": {"1,-1": -0.1, "2,-2": 0.05}},
                      {"id": "generic",
                       "coefficients": {"1,1": 0.1, "2,-1": 0.05}}])
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / threads
            env = _subprocess_env(OPENBLAS_NUM_THREADS=threads,
                                  OMP_NUM_THREADS=threads,
                                  MKL_NUM_THREADS=threads)
            proc = subprocess.run(
                [sys.executable, "-m", "bergman_heat.cli", "converge",
                 "--config", str(path), "--out", str(out)],
                env=env, capture_output=True, text=True, timeout=600)
            assert proc.returncode in (EXIT_OK, EXIT_ACCEPTANCE), proc.stderr
            outputs.append([(out / name).read_bytes() for name in
                            ("converge.csv", "converge_summary.json")])
        assert outputs[0] == outputs[1]

    def test_command_runs_at_one_openblas_thread(self, tmp_path,
                                                 monkeypatch):
        # numpy's 64-bit-integer OpenBLAS (matmul, np.linalg) and scipy's
        # (ARPACK, eigh, cho_factor) are both found and both capped
        controls = cli._openblas_thread_controls()
        assert sorted(get.__name__ for get, _ in controls) == [
            "scipy_openblas_get_num_threads",
            "scipy_openblas_get_num_threads64_"]
        outside = [get() for get, _ in controls]
        seen = []

        def command(cfg, out_dir):
            seen.append([get() for get, _ in controls])
            if len(seen) == 2:
                raise ConfigError("stub")
            return EXIT_OK

        monkeypatch.setitem(cli._COMMANDS, "heat-check", command)
        try:
            # a count other than 1 outside the command
            for _, set_ in controls:
                set_(2)
            for expected in (EXIT_OK, EXIT_CONFIG):
                code = run(["heat-check", "--out", str(tmp_path)])
                assert code == expected
                assert [get() for get, _ in controls] == [2, 2]
        finally:
            for (_, set_), count in zip(controls, outside):
                set_(count)
        assert seen == [[1, 1], [1, 1]]

    def test_byte_identical_reruns(self, tmp_path):
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        path = tmp_path / "cfg.json"
        cfg = {"p_list": [4, 8], "n_theta": 32, "n_phi": 64,
               "volume_forms": [{"id": "z", "coefficients": {"1,0": -0.3}}]}
        path.write_text(json.dumps(cfg))
        for out in (out1, out2):
            assert run(["identities", "--config", str(path),
                        "--out", str(out)]) == EXIT_OK
        for name in ("identities.csv", "identities_summary.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
