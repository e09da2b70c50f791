import json

import numpy as np
import pytest

from orthoglide_balance import (
    ConfigError,
    config_from_dict,
    default_config,
    load_config,
    run_scenario,
    save_config,
    validate_config,
)
from orthoglide_balance.cli import CSV_HEADER, main

from dataclasses import replace

from conftest import UNREACHABLE_P_F, UNREACHABLE_P_I


def small_config(**kw):
    # 101-sample variant of the default scenario keeps CLI tests fast
    cfg = replace(default_config(), dt=0.01)
    return replace(cfg, **kw) if kw else cfg


class TestValidateConfig:
    def test_default_ok(self):
        assert validate_config(default_config()) == []

    def test_bad_configuration_index(self):
        v = validate_config(small_config(s_x=0))
        assert any("s_x must be ±1" in item for item in v)

    def test_dt_equal_to_duration(self):
        v = validate_config(small_config(dt=1.0))
        assert any("dt too large" in item for item in v)

    def test_zero_leg_length(self):
        v = validate_config(small_config(L=0.0))
        assert any("geometry.L" in item for item in v)

    def test_negative_mass(self):
        v = validate_config(small_config(m2=-0.1))
        assert any("masses.m2" in item for item in v)

    def test_zero_total_mass(self):
        v = validate_config(small_config(m1=0.0, m2=0.0, m3=0.0))
        assert any("total moving mass" in item for item in v)

    def test_infeasible_endpoint(self):
        v = validate_config(small_config(p_f=(0.0, 0.4, 0.0)))
        assert any("p_f" in item and "workspace" in item for item in v)

    def test_unknown_mode(self):
        v = validate_config(small_config(modes=("platform_line_quintic", "circle")))
        assert any("unknown mode" in item for item in v)

    def test_empty_modes(self):
        v = validate_config(small_config(modes=()))
        assert any("modes" in item for item in v)

    def test_multiple_violations_reported(self):
        v = validate_config(small_config(L=-1.0, s_y=3, dt=0.9))
        assert len(v) >= 3

    def test_boolean_configuration_index_rejected(self):
        d = small_config().to_dict()
        d["geometry"]["s_x"] = True
        v = validate_config(config_from_dict(d))
        assert v == ["geometry.s_x must be ±1, got True"]

    def test_off_grid_dt(self):
        v = validate_config(small_config(dt=0.0015))
        assert v == ["trajectory.dt = 0.0015 does not split t_f = 1.0 into equal steps"]


class TestConfigIO:
    def test_round_trip(self, tmp_path):
        cfg = small_config()
        path = tmp_path / "scenario.json"
        save_config(cfg, path)
        assert load_config(path) == cfg

    def test_from_dict_defaults(self):
        d = small_config().to_dict()
        del d["modes"]
        del d["output_dir"]
        cfg = config_from_dict(d)
        assert cfg.modes == ("platform_line_quintic", "com_line_bangbang")
        assert cfg.output_dir == "out"


class TestRunScenario:
    def test_artifacts_written(self, tmp_path):
        cfg = small_config()
        summary = run_scenario(cfg, out_dir=tmp_path)
        for name in ("platform_line_quintic.csv", "com_line_bangbang.csv",
                     "summary.json", "summary.txt"):
            assert (tmp_path / name).exists()
        on_disk = json.loads((tmp_path / "summary.json").read_text(encoding="utf-8"))
        assert on_disk == summary
        assert 0.0 < summary["force_reduction_pct"] < 100.0

    def test_csv_header_and_shape(self, tmp_path):
        run_scenario(small_config(), out_dir=tmp_path)
        lines = (tmp_path / "com_line_bangbang.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == CSV_HEADER
        assert CSV_HEADER.startswith("t,p_x,p_y,p_z,ρ_x")
        assert len(lines) == 1 + 101
        assert all(len(row.split(",")) == 18 for row in lines[1:])

    def test_csv_values_parse_back(self, tmp_path):
        run_scenario(small_config(), out_dir=tmp_path)
        data = np.genfromtxt(tmp_path / "platform_line_quintic.csv",
                             delimiter=",", skip_header=1)
        assert data.shape == (101, 18)
        np.testing.assert_allclose(data[0, 1:4], [0.0, 0.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(data[-1, 1:4], [-0.1, 0.07, -0.11], atol=1e-15)
        # |Fsh| column is consistent with its components
        np.testing.assert_allclose(np.linalg.norm(data[:, 10:13], axis=1),
                                   data[:, 13], rtol=1e-12, atol=1e-300)

    def test_zero_motion_zero_columns(self, tmp_path):
        cfg = small_config(p_f=(0.0, 0.0, 0.0))
        summary = run_scenario(cfg, out_dir=tmp_path)
        data = np.genfromtxt(tmp_path / "com_line_bangbang.csv",
                             delimiter=",", skip_header=1)
        assert np.abs(data[:, 10:14]).max() == 0.0
        assert summary["force_reduction_pct"] == 0.0

    def test_validation_failure_raises(self, tmp_path):
        with pytest.raises(ConfigError) as exc:
            run_scenario(small_config(s_z=5), out_dir=tmp_path)
        assert any("s_z" in v for v in exc.value.violations)

    def test_single_mode(self, tmp_path):
        cfg = small_config(modes=("com_line_bangbang",))
        summary = run_scenario(cfg, out_dir=tmp_path)
        assert not (tmp_path / "platform_line_quintic.csv").exists()
        assert "force_reduction_pct" not in summary

    def test_deterministic_output(self, tmp_path):
        cfg = small_config()
        run_scenario(cfg, out_dir=tmp_path / "a")
        run_scenario(cfg, out_dir=tmp_path / "b")
        for name in ("platform_line_quintic.csv", "com_line_bangbang.csv",
                     "summary.json", "summary.txt"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


class TestCliMain:
    def test_validate_ok(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        save_config(small_config(), path)
        assert main(["validate", "--config", str(path)]) == 0
        assert "config ok" in capsys.readouterr().out

    def test_validate_reports_violations(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        save_config(small_config(s_x=0), path)
        assert main(["validate", "--config", str(path)]) == 1
        assert "s_x must be ±1" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "absent.json")]) == 1
        assert "cannot load" in capsys.readouterr().err

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        assert main(["validate", "--config", str(path)]) == 1

    def test_run_both_modes(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        save_config(small_config(), path)
        out = tmp_path / "results"
        code = main(["run", "--config", str(path), "--out", str(out)])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "force reduction" in stdout
        assert (out / "summary.json").exists()

    def test_run_mode_flag(self, tmp_path):
        path = tmp_path / "cfg.json"
        save_config(small_config(), path)
        out = tmp_path / "results"
        assert main(["run", "--config", str(path), "--out", str(out), "--mode", "com"]) == 0
        assert (out / "com_line_bangbang.csv").exists()
        assert not (out / "platform_line_quintic.csv").exists()

    def test_run_validation_error_exit_code(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        save_config(small_config(dt=0.9), path)
        assert main(["run", "--config", str(path)]) == 1
        assert "dt too large" in capsys.readouterr().err

    def test_run_off_grid_dt_exit_code(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        save_config(small_config(dt=0.0015), path)
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
        assert "violation: trajectory.dt = 0.0015 does not split" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_run_planning_error_exit_code(self, tmp_path, capsys):
        # valid endpoints whose straight COM line leaves the reachable set:
        # planning must fail with the solver diagnostics, not a validation
        # message
        path = tmp_path / "cfg.json"
        save_config(small_config(s_z=-1, p_i=UNREACHABLE_P_I, p_f=UNREACHABLE_P_F,
                                 modes=("com_line_bangbang",)), path)
        code = main(["run", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "COM-line plan failed" in capsys.readouterr().err
