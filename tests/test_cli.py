from dataclasses import fields

import pytest

import crsense.cli as cli_module
import crsense.sweep as sweep_module
from crsense.cli import main
from crsense.scenario_io import bundled_scenario_text


def assert_clean_error(err):
    assert err.startswith("error:")
    assert "Traceback" not in err


@pytest.fixture()
def scenario_file(tmp_path):
    path = tmp_path / "table1.scn"
    path.write_text(bundled_scenario_text())
    return str(path)


class TestSolve:
    def test_optimal_exit_zero(self, scenario_file, capsys):
        code = main(["solve", scenario_file, "--lambda-p", "0.1",
                     "--lambda-pe", "0.4", "--lambda-se", "0.4"])
        out = capsys.readouterr().out
        assert code == 0
        assert "status optimal" in out
        assert "winning_subproblem" in out
        assert "policy " in out

    def test_infeasible_exit_two(self, scenario_file, capsys):
        code = main(["solve", scenario_file, "--lambda-p", "0.5",
                     "--lambda-pe", "0.2"])
        assert code == 2
        assert "status infeasible" in capsys.readouterr().out

    def test_bad_file_exit_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.scn"
        bad.write_text("lambda_p 2.0\n")
        assert main(["solve", str(bad)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_directory_as_scenario_exit_one(self, tmp_path, capsys):
        assert main(["solve", str(tmp_path)]) == 1
        assert_clean_error(capsys.readouterr().err)

    def test_packet_beyond_float_range_solves(self, tmp_path, capsys):
        # 2 ** (b / (W T)) = 2 ** 2000 overflows: every outage is exactly 1
        path = tmp_path / "huge.scn"
        path.write_text("mode physical\nlambda_p 0.0\nlambda_s 0.1\nlambda_pe 0.2\n"
                        "lambda_se 0.4\nbits_per_packet 2000000\nslot_duration 1e-3\n"
                        "bandwidth 1e6\ngain_variance 1.0\nenergy_per_packet 1e-6\n"
                        "noise_power 1e-3\nduration 1 0.00005 0.70 0.05\n")
        assert main(["solve", str(path)]) == 0
        assert "mu_s 0.000000" in capsys.readouterr().out

    @pytest.mark.parametrize("link, mu_s", [
        # gain_variance * snr underflows to 0 against a threshold of 1: outage 1
        ("1000 1e-3 1e6 1e-200 1e-200 1.0", "0.000000"),
        # both underflow, but the mean SNR 1e-937 is ~7e339 times fainter
        # than the threshold: outage 1
        ("1e-300 1e-3 1e300 1e-320 1e-320 1e300", "0.000000")])
    def test_snr_below_float_range_solves(self, tmp_path, capsys, link, mu_s):
        names = ("bits_per_packet", "slot_duration", "bandwidth", "gain_variance",
                 "energy_per_packet", "noise_power")
        path = tmp_path / "faint.scn"
        path.write_text("mode physical\nlambda_p 0.0\nlambda_s 0.1\nlambda_pe 0.2\n"
                        "lambda_se 0.4\n"
                        + "".join(f"{name} {value}\n" for name, value in zip(names, link.split()))
                        + "duration 1 0.00005 0.70 0.05\n")
        assert main(["solve", str(path)]) == 0
        assert f"mu_s {mu_s}" in capsys.readouterr().out

    def test_policy_printed_as_the_csv_row(self, tmp_path, capsys):
        # six-decimal rounding of each entry sums to 0.999999 here; the
        # sweep's row, which sums to exactly 1, is printed instead
        table = [(0.07, 0.99, 0.03), (0.21, 0.94, 0.22), (0.38, 0.92, 0.38),
                 (0.38, 0.89, 0.62), (0.39, 0.66, 0.64), (0.40, 0.64, 0.71),
                 (0.44, 0.52, 0.79), (0.51, 0.23, 0.82), (0.81, 0.16, 0.88)]
        path = tmp_path / "nine.scn"
        path.write_text("lambda_p 0.13\nlambda_s 0.1\nlambda_pe 0.28\nlambda_se 0.67\n"
                        "primary_outage 0.3\n"
                        + "".join(f"duration {k} {det} {fa} {out}\n"
                                  for k, (det, fa, out) in enumerate(table, 1)))
        assert main(["solve", str(path)]) == 0
        policy = capsys.readouterr().out.splitlines()[-1]
        assert policy.endswith(" 0.015320 0.000000 0.000000 0.467667 0.517013")
        assert main(["sweep", str(path), "--param", "lambda_p", "--from", "0.13",
                     "--to", "0.13", "--step", "0.1"]) == 0
        row = capsys.readouterr().out.splitlines()[-1]
        assert policy == "policy " + " ".join(row.split(",")[-9:])

    def test_too_many_durations_exit_one(self, tmp_path, capsys):
        path = tmp_path / "wide.scn"
        rows = "".join(f"duration {k} 0.9 0.1 0.2\n" for k in range(1, 102))
        path.write_text("lambda_p 0.1\nlambda_s 0.1\nlambda_pe 0.4\nlambda_se 0.4\n"
                        "primary_outage 0.3\n" + rows)
        assert main(["solve", str(path)]) == 1
        err = capsys.readouterr().err
        assert_clean_error(err)
        assert "101 durations exceed the bound of 100" in err


class TestSweep:
    def test_csv_to_stdout(self, scenario_file, capsys):
        code = main(["sweep", scenario_file, "--param", "lambda_p",
                     "--from", "0", "--to", "0.1", "--step", "0.05"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.splitlines()[0].startswith("swept_value,status,mu_s")
        assert len(out.strip().splitlines()) == 4

    def test_output_file_deterministic(self, scenario_file, tmp_path, capsys):
        target = tmp_path / "sweep.csv"
        argv = ["sweep", scenario_file, "--param", "lambda_pe",
                "--from", "0.2", "--to", "0.6", "--step", "0.2",
                "--simulate", "--horizon", "20000", "--seed", "9",
                "-o", str(target)]
        assert main(argv) == 0
        first = target.read_bytes()
        assert main(argv) == 0
        assert target.read_bytes() == first

    def test_grid_ending_past_one_by_rounding(self, scenario_file, capsys):
        code = main(["sweep", scenario_file, "--param", "lambda_se",
                     "--from", "0.09", "--to", "1", "--step", "0.07"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.strip().splitlines()[-1].startswith("1.000000,")

    def test_short_simulated_horizon_fails_before_solving(self, scenario_file,
                                                          capsys, monkeypatch):
        monkeypatch.setattr(sweep_module, "solve", None)   # never reached
        code = main(["sweep", scenario_file, "--param", "lambda_p",
                     "--from", "0", "--to", "0.1", "--step", "0.05",
                     "--simulate", "--horizon", "5000"])
        assert code == 1
        err = capsys.readouterr().err
        assert "--horizon 5000" in err and "--warmup 10000" in err

    def test_negative_seed_fails_before_solving(self, scenario_file, capsys, monkeypatch):
        monkeypatch.setattr(sweep_module, "solve", None)   # never reached
        code = main(["sweep", scenario_file, "--param", "lambda_p",
                     "--from", "0", "--to", "0.1", "--step", "0.05",
                     "--simulate", "--seed", "-5"])
        assert code == 1
        err = capsys.readouterr().err
        assert_clean_error(err)
        assert "--seed, got -5" in err

    def test_warmup_passed_through(self, scenario_file, capsys, monkeypatch):
        seen = []
        real = sweep_module.compare_sim_vs_analytic

        def spy(*args, **kwargs):
            record = real(*args, **kwargs)
            seen.append(record.report.warmup)
            return record

        monkeypatch.setattr(sweep_module, "compare_sim_vs_analytic", spy)
        code = main(["sweep", scenario_file, "--lambda-pe", "0.4", "--param", "lambda_p",
                     "--from", "0", "--to", "0.1", "--step", "0.1",
                     "--simulate", "--horizon", "5000", "--warmup", "1000"])
        assert code == 0
        assert seen == [1000, 1000]

    def test_tiny_step_exit_one(self, scenario_file, capsys, monkeypatch):
        monkeypatch.setattr(sweep_module.SweepSpec, "grid", None)   # never reached
        code = main(["sweep", scenario_file, "--param", "lambda_p",
                     "--from", "0", "--to", "1", "--step", "1e-12"])
        assert code == 1
        err = capsys.readouterr().err
        assert_clean_error(err)
        assert "--step 1e-12" in err and "1000000000001 grid points" in err

    def test_infinite_step_exit_one(self, scenario_file, capsys, monkeypatch):
        monkeypatch.setattr(sweep_module, "solve", None)   # never reached
        code = main(["sweep", scenario_file, "--param", "lambda_p",
                     "--from", "0", "--to", "1", "--step", "inf"])
        assert code == 1
        err = capsys.readouterr().err
        assert_clean_error(err)
        assert "step must be positive and finite, got inf" in err

    def test_reversed_grid_exit_one(self, scenario_file, capsys, monkeypatch):
        monkeypatch.setattr(sweep_module, "solve", None)   # never reached
        code = main(["sweep", scenario_file, "--param", "lambda_p",
                     "--from", "0.5", "--to", "0.1", "--step", "0.1"])
        assert code == 1
        err = capsys.readouterr().err
        assert_clean_error(err)
        assert "grid runs backwards: --from 0.5 is above --to 0.1" in err
        assert "inside [0, 1]" not in err

    @pytest.mark.parametrize("start, stop", [("-0.1", "0.5"), ("0.2", "1.5"), ("0.5", "-0.1"),
                                             ("nan", "0.5"), ("0.2", "nan")])
    def test_grid_outside_unit_interval_exit_one(self, scenario_file, capsys, monkeypatch,
                                                 start, stop):
        monkeypatch.setattr(sweep_module, "solve", None)   # never reached
        code = main(["sweep", scenario_file, "--param", "lambda_p",
                     "--from", start, "--to", stop, "--step", "0.1"])
        assert code == 1
        err = capsys.readouterr().err
        assert_clean_error(err)
        assert f"grid [{float(start)}, {float(stop)}] must sit inside [0, 1]" in err
        assert "backwards" not in err

    def test_directory_as_output_exit_one(self, scenario_file, tmp_path, capsys):
        code = main(["sweep", scenario_file, "--param", "lambda_p",
                     "--from", "0", "--to", "0.1", "--step", "0.05", "-o", str(tmp_path)])
        assert code == 1
        assert_clean_error(capsys.readouterr().err)

    def test_all_infeasible_exit_two(self, scenario_file, capsys):
        code = main(["sweep", scenario_file, "--lambda-p", "0.9",
                     "--param", "lambda_pe", "--from", "0", "--to", "0.4",
                     "--step", "0.2"])
        assert code == 2


class TestSimulate:
    def test_with_policy_file(self, scenario_file, tmp_path, capsys):
        policy = tmp_path / "policy.txt"
        policy.write_text(" ".join(["0.1"] * 10))
        code = main(["simulate", scenario_file, "--policy", str(policy),
                     "--mode", "dominant", "--horizon", "20000",
                     "--warmup", "1000", "--seed", "4"])
        out = capsys.readouterr().out
        assert code == 0
        assert "mu_s " in out and "prob_pe_empty" in out and "PCG64" in out

    def test_directory_as_policy_exit_one(self, scenario_file, tmp_path, capsys):
        code = main(["simulate", scenario_file, "--policy", str(tmp_path),
                     "--horizon", "20000"])
        assert code == 1
        assert_clean_error(capsys.readouterr().err)

    def test_non_number_policy_entry_exit_one(self, scenario_file, tmp_path, capsys):
        policy = tmp_path / "policy.txt"
        policy.write_text("0.1 0.1\n0.1 a " + " ".join(["0.1"] * 6))
        code = main(["simulate", scenario_file, "--policy", str(policy),
                     "--horizon", "20000"])
        assert code == 1
        err = capsys.readouterr().err
        assert_clean_error(err)
        assert f"{policy}: policy entry 4 'a' is not a number" in err

    def test_with_optimal_policy(self, scenario_file, capsys):
        code = main(["simulate", scenario_file, "--lambda-pe", "0.4",
                     "--policy", "optimal", "--horizon", "20000",
                     "--warmup", "1000"])
        assert code == 0

    def test_negative_seed_exit_one(self, scenario_file, capsys):
        code = main(["simulate", scenario_file, "--policy", "optimal",
                     "--horizon", "100", "--warmup", "0", "--seed", "-1"])
        assert code == 1
        err = capsys.readouterr().err
        assert_clean_error(err)
        assert "seed must be a non-negative integer, got -1" in err

    def test_optimal_policy_infeasible(self, scenario_file, capsys):
        code = main(["simulate", scenario_file, "--lambda-p", "0.9",
                     "--policy", "optimal", "--horizon", "20000"])
        assert code == 2

    def test_coupled_mode_reports_violations(self, scenario_file, capsys):
        policy_line = "dominance_violations"
        code = main(["simulate", scenario_file, "--policy", "optimal",
                     "--lambda-pe", "0.4",
                     "--mode", "coupled", "--horizon", "20000"])
        out = capsys.readouterr().out
        assert code == 0
        assert policy_line in out

    def test_deterministic_output(self, scenario_file, capsys):
        argv = ["simulate", scenario_file, "--policy", "optimal",
                "--lambda-pe", "0.4", "--horizon", "20000", "--seed", "6"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first


@pytest.mark.parametrize("command, handler, extra", [
    ("sweep", "_cmd_sweep", ["--param", "lambda_p", "--from", "0", "--to", "0.1",
                             "--step", "0.1"]),
    ("simulate", "_cmd_simulate", ["--policy", "optimal"]),
])
def test_run_options_shared_by_sweep_and_simulate(scenario_file, monkeypatch,
                                                  command, handler, extra):
    seen = []
    monkeypatch.setattr(cli_module, handler, lambda args: seen.append(args) or 0)
    assert main([command, scenario_file, *extra]) == 0
    assert main([command, scenario_file, *extra,
                 "--horizon", "5000", "--warmup", "100", "--seed", "7"]) == 0
    assert [(a.horizon, a.warmup, a.seed) for a in seen] == [(200_000, 10_000, 0),
                                                            (5000, 100, 7)]
    # the defaults are SweepSpec's, stated nowhere else
    names = ("horizon", "warmup", "seed")
    defaults = {field.name: field.default for field in fields(sweep_module.SweepSpec)}
    assert [getattr(seen[0], name) for name in names] == [defaults[name] for name in names]
    assert {type(value) for a in seen for value in (a.horizon, a.warmup, a.seed)} == {int}


class TestCheck:
    def test_single_fast_criterion(self, scenario_file, capsys):
        code = main(["check", scenario_file, "--criteria", "9"])
        out = capsys.readouterr().out
        assert code == 0
        assert "criterion 9" in out and "PASS" in out
        assert "1/1 criteria passed" in out

    def test_repeated_criterion_runs_once(self, scenario_file, capsys):
        assert main(["check", scenario_file, "--criteria", "1", "1"]) == 0
        out = capsys.readouterr().out
        assert out.count("criterion 1 [") == 1
        assert out.endswith("1/1 criteria passed\n")

    def test_full_primary_outage_fails_criterion_5(self, scenario_file, capsys):
        code = main(["check", scenario_file, "--primary-outage", "1", "--criteria", "5"])
        out, err = capsys.readouterr()
        assert code == 1 and not err
        assert out.splitlines()[0] == (
            "criterion 5 [infeasibility threshold] FAIL: 101 lambda_pe points at step 0.01; "
            "infeasible at all 101, as primary_outage = 1 puts the threshold out of reach: "
            "True; first feasible grid point None")

    def test_unknown_criterion(self, scenario_file, capsys):
        assert main(["check", scenario_file, "--criteria", "12"]) == 1
