import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings

import crsense.lp
from crsense import optimizer, sweep
from crsense.analytics import PolicyVector
from crsense.optimizer import solve
from crsense.simulator import SimConfig
from crsense.sweep import (
    SWEEPABLE,
    SweepSpec,
    compare_sim_vs_analytic,
    csv_header,
    rows_to_csv,
    run_sweep,
)
from scenario_strategies import SETTINGS, hundredths, scenarios


class TestSpec:
    def test_grid_inclusive(self, table_scenario):
        spec = SweepSpec(table_scenario, "lambda_p", 0.0, 0.1, 0.02)
        assert spec.grid() == pytest.approx([0.0, 0.02, 0.04, 0.06, 0.08, 0.1])

    def test_grid_clamped_to_stop(self, table_scenario):
        # 0.09 + 13 * 0.07 rounds to 1.0000000000000002, outside [0, 1]
        spec = SweepSpec(table_scenario, "lambda_se", 0.09, 1.0, 0.07)
        grid = spec.grid()
        assert len(grid) == 14
        assert grid[-1] == 1.0
        assert grid[:-1] == [0.09 + k * 0.07 for k in range(13)]
        rows = run_sweep(spec)
        assert rows[-1].swept_value == 1.0

    def test_grid_without_overshoot_unchanged(self, table_scenario):
        spec = SweepSpec(table_scenario, "lambda_p", 0.0, 0.5, 0.01)
        assert spec.grid() == [k * 0.01 for k in range(51)]

    def test_simulated_horizon_must_exceed_warmup(self, table_scenario):
        with pytest.raises(ValueError, match="--horizon 5000 and --warmup 10000"):
            SweepSpec(table_scenario, "lambda_p", 0.0, 0.1, 0.05,
                      simulate=True, horizon=5_000)
        # without simulation the horizon is unused
        SweepSpec(table_scenario, "lambda_p", 0.0, 0.1, 0.05, horizon=5_000)
        SweepSpec(table_scenario, "lambda_p", 0.0, 0.1, 0.05,
                  simulate=True, horizon=5_000, warmup=1_000)

    @pytest.mark.parametrize("field, value", [("horizon", True), ("warmup", 10.0),
                                              ("seed", True)])
    def test_non_integer_simulation_setting_fails_before_solving(
            self, table_scenario, monkeypatch, field, value):
        monkeypatch.setattr(sweep, "solve", None)       # never reached
        settings = dict(horizon=20_000, warmup=0, seed=0) | {field: value}
        with pytest.raises(ValueError, match=f"--{field} {value!r}|--{field}, got {value!r}"):
            run_sweep(SweepSpec(table_scenario, "lambda_p", 0.0, 0.1, 0.05,
                                simulate=True, **settings))

    def test_validation(self, table_scenario):
        with pytest.raises(ValueError):
            SweepSpec(table_scenario, "lambda_x", 0.0, 1.0, 0.1)
        with pytest.raises(ValueError):
            SweepSpec(table_scenario, "lambda_p", 0.5, 0.2, 0.1)
        with pytest.raises(ValueError):
            SweepSpec(table_scenario, "lambda_p", 0.0, 1.2, 0.1)
        with pytest.raises(ValueError):
            SweepSpec(table_scenario, "lambda_p", 0.0, 1.0, 0.0)
        with pytest.raises(ValueError, match="step must be positive and finite, got inf"):
            SweepSpec(table_scenario, "lambda_p", 0.0, 1.0, float("inf"))

    def test_grid_size_bounded_before_building(self, table_scenario, monkeypatch):
        monkeypatch.setattr(SweepSpec, "grid", None)     # never reached
        with pytest.raises(ValueError, match=r"--step 1e-12 makes 1000000000001 grid points"):
            SweepSpec(table_scenario, "lambda_p", 0.0, 1.0, 1e-12)
        with pytest.raises(ValueError, match="at most 1000001"):
            SweepSpec(table_scenario, "lambda_p", 0.0, 1.0, 5e-324)
        # 1e-6 across [0, 1] is the largest grid accepted
        SweepSpec(table_scenario, "lambda_p", 0.0, 1.0, 1e-6)


class TestCsv:
    def test_header_schema(self, table_scenario):
        assert csv_header(3, False) == (
            "swept_value,status,mu_s,mu_p,mu_se,x_tilde_se,winning_subproblem,"
            "P_1,P_2,P_3")
        assert csv_header(2, True).endswith("P_1,P_2,sim_mu_s,sim_mu_p,sim_pass")

    def test_one_row_per_grid_point(self, table_scenario):
        spec = SweepSpec(replace(table_scenario, lambda_pe=0.4, lambda_se=0.4),
                         "lambda_p", 0.0, 0.2, 0.05)
        rows = run_sweep(spec)
        text = rows_to_csv(spec, rows)
        lines = text.strip().splitlines()
        assert len(lines) == 1 + len(spec.grid())
        assert all(len(line.split(",")) == 7 + 10 for line in lines[1:])

    def test_formatted_policies_sum_to_one(self, table_scenario):
        spec = SweepSpec(replace(table_scenario, lambda_pe=0.4, lambda_se=0.4),
                         "lambda_p", 0.0, 0.25, 0.01)
        text = rows_to_csv(spec, run_sweep(spec))
        for line in text.strip().splitlines()[1:]:
            cells = line.split(",")
            if cells[1] != "optimal":
                continue
            total = sum(float(c) for c in cells[7:17])
            assert abs(total - 1.0) <= 1e-6

    def test_infeasible_rows_zeroed(self, table_scenario):
        spec = SweepSpec(replace(table_scenario, lambda_p=0.5, lambda_se=0.4),
                         "lambda_pe", 0.0, 0.2, 0.1)
        text = rows_to_csv(spec, run_sweep(spec))
        for line in text.strip().splitlines()[1:]:
            cells = line.split(",")
            assert cells[1] == "infeasible"
            assert cells[2] == "0.000000"
            assert cells[6] == "none"
            assert set(cells[7:17]) == {"0.000000"}

    def test_byte_identical_reruns_with_simulation(self, table_scenario):
        spec = SweepSpec(replace(table_scenario, lambda_se=0.4), "lambda_p",
                         0.0, 0.2, 0.1, simulate=True, horizon=20_000,
                         warmup=2_000, seed=5)
        first = rows_to_csv(spec, run_sweep(spec))
        second = rows_to_csv(spec, run_sweep(spec))
        assert first == second
        assert "sim_pass" in first.splitlines()[0]

    def test_monotone_throughput_in_lambda_p(self, table_scenario):
        # frontier shape: the optimal value can only fall as the licensed
        # load grows, with infeasible points reported as zero
        spec = SweepSpec(replace(table_scenario, lambda_pe=0.4, lambda_se=0.4),
                         "lambda_p", 0.0, 0.5, 0.01)
        values = [float(line.split(",")[2])
                  for line in rows_to_csv(spec, run_sweep(spec)).strip().splitlines()[1:]]
        assert all(b <= a + 1e-9 for a, b in zip(values, values[1:]))


class TestStackedDrainSolves:
    """``run_sweep`` solves its drain-regime programs a block at a time in
    stacked ``solve_lp`` calls, and must give what a lone ``solve`` gives."""

    @pytest.mark.parametrize("param", SWEEPABLE)
    @settings(max_examples=40, **SETTINGS)
    @given(scenario=scenarios(1, 10, prob=hundredths))
    def test_outcomes_equal_single_solves(self, param, scenario):
        # 21 points: more than one scoring pass at M = 10
        spec = SweepSpec(scenario, param, 0.0, 1.0, 0.05)
        rows = run_sweep(spec)
        assert [row.swept_value for row in rows] == spec.grid()
        for row in rows:
            assert row.outcome == solve(replace(scenario, **{param: row.swept_value}))

    def test_drain_programs_reach_solve_lp_in_stacks(self, table_scenario, monkeypatch):
        calls, passes = [], []
        real_solve, real_score = optimizer.solve_lp, crsense.lp._score

        def solving(numerator, *args):
            first = len(passes)
            result = real_solve(numerator, *args)
            calls.append((np.shape(numerator)[:-1], passes[first:]))
            return result

        def scoring(program, support):
            passes.append(program.shape[:-2])
            return real_score(program, support)

        monkeypatch.setattr(optimizer, "solve_lp", solving)
        monkeypatch.setattr(crsense.lp, "_score", scoring)
        rows = run_sweep(SweepSpec(table_scenario, "lambda_p", 0.0, 1.0, 0.01))
        assert len(rows) == 101 and sweep._BLOCK_POINTS == 64
        # one drain call per 64-point block, which lp scores 12 programs a pass
        stacks = [call for call in calls if call[0]]
        assert stacks == [((64,), [(12,)] * 5 + [(4,)]), ((37,), [(12,)] * 3 + [()])]
        # the rest are the saturated-regime programs: one or two per point,
        # each a one-program pass
        singles = [call for call in calls if not call[0]]
        assert 101 <= len(singles) <= 2 * 101
        assert all(scored == [()] for _, scored in singles)
        assert [row.outcome for row in rows] == [
            solve(replace(table_scenario, lambda_p=row.swept_value)) for row in rows]

    def test_peak_memory_within_stack_budget(self, table_scenario):
        spec = SweepSpec(table_scenario, "lambda_pe", 0.0, 1.0, 0.01)
        run_sweep(spec)                 # build the cached support tables first
        tracemalloc.start()
        try:
            run_sweep(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= crsense.lp._STACK_BYTES + 256 * 1024, peak


class TestComparison:
    def test_reference_policy_passes(self, table_scenario):
        scenario = replace(table_scenario, lambda_pe=0.2, lambda_se=0.4)
        record = compare_sim_vs_analytic(
            scenario, PolicyVector.point_mass(10, 0), horizon=200_000, seed=2)
        assert record.passed
        assert record.deltas["mu_s"][0] <= 0.01

    def test_idle_licensed_node_exact_zero(self, table_scenario):
        scenario = replace(table_scenario, lambda_pe=0.0, lambda_se=0.4)
        record = compare_sim_vs_analytic(
            scenario, PolicyVector.uniform(10), horizon=50_000, seed=3)
        assert record.analytic.mu_p == 0.0
        assert record.report.mu_p == 0.0
        assert record.deltas["mu_p"] == (0.0, 0.0)
        assert record.passed

    def test_zero_reference_nonzero_delta_is_infinitely_relative(self, table_scenario,
                                                                 monkeypatch):
        scenario = replace(table_scenario, lambda_pe=0.0, lambda_se=0.4)
        real = sweep.simulate
        monkeypatch.setattr(sweep, "simulate",
                            lambda *a, **k: replace(real(*a, **k), mu_p=0.001))
        record = compare_sim_vs_analytic(
            scenario, PolicyVector.uniform(10), horizon=20_000, seed=3)
        assert record.deltas["mu_p"] == (0.001, math.inf)
        assert record.passed

    def test_cross_check_runs_without_data_queues(self, table_scenario, monkeypatch):
        # the SimConfig stays the first positional argument, as the
        # benchmark's span tags read it from there
        calls = []
        real = sweep.simulate
        monkeypatch.setattr(sweep, "simulate",
                            lambda *a, **k: calls.append((a, k)) or real(*a, **k))
        record = compare_sim_vs_analytic(
            replace(table_scenario, lambda_pe=0.2, lambda_se=0.4),
            PolicyVector.uniform(10), horizon=20_000, seed=3, warmup=1_000)
        [(args, kwargs)] = calls
        assert isinstance(args[0], SimConfig) and args[0].mode == "dominant"
        assert kwargs == {"data_queues": False}
        assert record.report.mean_q_p is record.report.drift_s is None
        assert record.report.mean_q_pe is not None

    def test_uniform_policy_consumption_rate(self, table_scenario):
        scenario = replace(table_scenario, lambda_pe=0.2, lambda_se=0.4)
        record = compare_sim_vs_analytic(
            scenario, PolicyVector.uniform(10), horizon=200_000, seed=4)
        assert record.analytic.mu_se == pytest.approx(0.7586, rel=1e-12)
        assert record.deltas["mu_se"][1] <= 0.01
