"""CLI surface: schemas, determinism, exit codes, negative controls."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import lamopt
from lamopt.cli import main
from lamopt.config import DEFAULTS, SCENARIO_KEYS
from lamopt.validate import CHECKS, run_checks


def read(path):
    return path.read_text().splitlines()


class TestFigures:
    def test_fig6_schema_and_coverage(self, tmp_path):
        out = tmp_path / "fig6.csv"
        assert main(["fig6", "--out", str(out)]) == 0
        lines = read(out)
        assert lines[0] == "k,var_eta_s2,lambda_per_hr,T_galerkin"
        # 19 concentrations x 2 variances x 5 rates
        assert len(lines) - 1 == 19 * 2 * 5

    def test_fig5_regime_columns_gated(self, tmp_path):
        out = tmp_path / "fig5.csv"
        assert main(["fig5", "--out", str(out)]) == 0
        lines = read(out)
        assert lines[0] == "k,T_galerkin,T_weak_asymptotic,T_strong_asymptotic"
        rows = [l.split(",") for l in lines[1:]]
        weak_rows = [r for r in rows if r[2]]
        strong_rows = [r for r in rows if r[3]]
        assert weak_rows and strong_rows
        assert all(float(r[0]) < 0.1 for r in weak_rows)
        assert all(float(r[0]) > 0.05 for r in strong_rows)
        # mid-range concentrations always have the general column
        assert all(r[1] for r in rows)

    def test_rerun_identical_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["fig5", "--out", str(a)])
        main(["fig5", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestOptimizeAndSimulate:
    def test_optimize_row(self, tmp_path):
        out = tmp_path / "opt.csv"
        assert main(["optimize", "--out", str(out),
                     "--provider", "asymptotic"]) == 0
        header, row = read(out)
        assert header.startswith("k,lambda_per_hr,provider,x_opt_km,R_opt_km")
        fields = row.split(",")
        assert fields[2] == "asymptotic"
        assert float(fields[4]) > 0

    def test_simulate_episode(self, tmp_path):
        cfg = tmp_path / "scen.cfg"
        cfg.write_text("k = 20\nlambda_per_hr = 0.2\nstrategy = optimal\n"
                       "duration_hr = 30\nseed = 5\n")
        out = tmp_path / "ep.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        header, row = read(out)
        assert header.split(",")[:4] == ["strategy", "k", "lambda_per_hr",
                                         "duration_hr"]
        assert row.split(",")[0] == "optimal"

    def test_simulate_ctrw_mode(self, tmp_path):
        out = tmp_path / "mc.csv"
        assert main(["simulate", "--out", str(out), "--mode", "ctrw",
                     "--trials", "2000", "--x-km", "0.0"]) == 0
        header, row = read(out)
        assert header == ("k,lambda_per_hr,x_km,R_km,mean_T_hr,ci_half_width,"
                          "n,censored_count")
        assert int(row.split(",")[6]) == 2000

    def test_simulate_seed_changes_bytes(self, tmp_path):
        cfg = tmp_path / "scen.cfg"
        cfg.write_text("k = 20\nlambda_per_hr = 0.2\nduration_hr = 20\n")
        a, b, c = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
        main(["simulate", "--config", str(cfg), "--out", str(a), "--seed", "1"])
        main(["simulate", "--config", str(cfg), "--out", str(b), "--seed", "1"])
        main(["simulate", "--config", str(cfg), "--out", str(c), "--seed", "2"])
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes() != c.read_bytes()

    def test_config_error_exit_code(self, tmp_path):
        out = tmp_path / "x.csv"
        assert main(["optimize", "--config", "/no/such/file",
                     "--out", str(out)]) == 2
        bad = tmp_path / "bad.cfg"
        bad.write_text("nonsense_key = 3\n")
        assert main(["optimize", "--config", str(bad), "--out", str(out)]) == 2

    @pytest.mark.parametrize("line", ["lambda_per_hr = nan", "lambda_per_hr = inf",
                                      "U = inf", "V = nan"])
    def test_non_finite_cost_rejected(self, tmp_path, line):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        out = tmp_path / "x.csv"
        assert main(["optimize", "--config", str(cfg), "--out", str(out)]) == 2
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("rate", ["nan", "inf"])
    def test_non_finite_rate_rejected_by_ctrw_mode(self, tmp_path, rate):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"lambda_per_hr = {rate}\n")
        out = tmp_path / "x.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out),
                     "--mode", "ctrw", "--trials", "100", "--x-km", "0.0"]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("duration", ["-5", "0", "nan", "inf"])
    def test_bad_duration_rejected(self, tmp_path, duration):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"k = 20\nduration_hr = {duration}\n")
        out = tmp_path / "x.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("command", ["optimize", "fig5", "simulate"])
    @pytest.mark.parametrize("line", [
        f"{key} = {value}"
        for key in sorted(set(DEFAULTS) | (SCENARIO_KEYS - {"strategy", "provider"}))
        for value in ("nan", "inf")
    ] + ["R_km = 0", "R_km = -1"])
    def test_bad_config_value_rejected(self, tmp_path, command, line):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        out = tmp_path / "x.csv"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()


class TestSeed:
    @pytest.mark.parametrize("mode", ["episode", "ctrw"])
    def test_negative_config_seed_rejected(self, tmp_path, mode):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("seed = -1\n")
        out = tmp_path / "x.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out),
                     "--mode", mode, "--trials", "10"]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["episode", "ctrw"])
    def test_negative_seed_flag_rejected(self, tmp_path, mode):
        out = tmp_path / "x.csv"
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--out", str(out), "--mode", mode,
                  "--trials", "10", "--seed", "-3"])
        assert exc.value.code == 2
        assert not out.exists()


def test_cli_import_skips_scipy_integrate_and_optimize():
    src = str(Path(lamopt.__file__).resolve().parents[1])
    code = ("import sys, lamopt.cli; "
            "print(sorted({'scipy.integrate', 'scipy.optimize'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, env={**os.environ, "PYTHONPATH": src})
    assert done.stdout.strip() == "[]"


class TestFlags:
    @pytest.mark.parametrize("argv", [
        ["fig5", "--out", "x.csv", "--seed", "3"],
        ["fig6", "--out", "x.csv", "--provider", "pde"],
        ["fig7", "--out", "x.csv", "--paging-mode", "cumulative"],
        ["optimize", "--out", "x.csv", "--seed", "3"],
        ["simulate", "--out", "x.csv", "--provider", "pde"],
        ["simulate", "--out", "x.csv", "--paging-mode", "cumulative"],
        ["validate", "--config", "bad.cfg"],
        ["validate", "--provider", "pde"],
    ])
    def test_unread_flag_rejected(self, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert not (tmp_path / "x.csv").exists()


class TestValidate:
    def test_clean_run_passes(self, capsys):
        assert main(["validate"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert "checks passed" in out

    def test_drift_sign_injection_fails(self, capsys):
        assert main(["validate", "--inject", "flip-drift-sign"]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_sigma_injection_fails_psd(self):
        results = run_checks(inject="sigma-sign-bug",
                             names={"diffusion_psd_and_axis_symmetry"})
        assert len(results) == 1
        assert not results[0].passed
        assert "PSD" in results[0].measured

    def test_raising_check_keeps_its_name(self):
        # under the sigma bug the half-disc check raises and the shape check
        # fails; both report the name they pass under in a clean run
        names = {"mean_interval_half_disc_vs_full_lu",
                 "diffusion_psd_and_axis_symmetry"}
        clean = run_checks(names=names)
        broken = run_checks(inject="sigma-sign-bug", names=names)
        assert all(r.passed for r in clean)
        assert not any(r.passed for r in broken)
        assert broken[0].measured.startswith("raised")
        assert [r.name for r in broken] == [r.name for r in clean]
        assert [r.name for r in clean] == [n for n in CHECKS if n in names]

    def test_report_csv(self, tmp_path, capsys):
        out = tmp_path / "report.csv"
        code = main(["validate", "--out", str(out)])
        assert code == 0
        lines = read(out)
        assert lines[0] == "check,passed,measured,expected,seconds"
        assert [line.split(",")[0] for line in lines[1:]] == list(CHECKS)
