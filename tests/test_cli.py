import json
from pathlib import Path

import pytest

from bergman_heat.bench import rate_fit
from bergman_heat.cli import (EXIT_ACCEPTANCE, EXIT_CONFIG, EXIT_INVALID_RUN,
                              EXIT_OK, run)
from bergman_heat.config import DEFAULTS, default_l_max, load_config
from bergman_heat.errors import ConfigError


def _read_summary(out_dir, name):
    return json.loads((Path(out_dir) / f"{name}_summary.json").read_text())


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


class TestConfig:
    def test_defaults_load(self):
        for command in DEFAULTS:
            cfg = load_config(command)
            assert isinstance(cfg, dict)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"bogus": 1}')
        with pytest.raises(ConfigError):
            load_config("converge", path)

    def test_unsorted_p_list_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"p_list": [16, 8, 32, 64]}')
        with pytest.raises(ConfigError):
            load_config("converge", path)

    def test_l_max_default_tracks_p(self):
        assert default_l_max(128) == max(40, 46)
        assert default_l_max(16) == 40


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
    ])
    def test_malformed_numeric_value_is_config_error(self, tmp_path, capsys,
                                                     command, cfg):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code = run([command, "--config", str(path), "--out", str(tmp_path)])
        assert code == EXIT_CONFIG
        assert json.loads(capsys.readouterr().err)["exit_code"] == EXIT_CONFIG

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

    def test_identities_small(self, tmp_path):
        cfg = {"p_list": [4, 8], "n_theta": 32, "n_phi": 64,
               "volume_forms": [{"id": "fs", "coefficients": {}},
                                {"id": "z", "coefficients": {"1,0": -0.3}}]}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert run(["identities", "--config", str(path),
                    "--out", str(tmp_path)]) == EXIT_OK
        rows = (tmp_path / "identities.csv").read_text().splitlines()
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
