import itertools
import math
import os
import re
import subprocess
import sys
import threading
import time
import tracemalloc
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings

import crsense.lp
from crsense import optimizer, simulator, sweep
from crsense.analytics import PolicyVector, Scenario
from crsense.channel import SensingOption
from crsense.optimizer import solve
from crsense.simulator import SimConfig
from crsense.sweep import (
    SWEEPABLE,
    SweepRow,
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

    @pytest.mark.parametrize("horizon, warmup, seed", [
        (1000, 0, 0), (1000, 999, 10 ** 400), (10 ** 400, 999, 0),
        (np.int64(1000), np.int64(10), np.int64(3)), (np.uint8(2), np.int8(1), np.uint64(0)),
        (True, 0, 0), (1000, False, 0), (1000, 0, True), (np.True_, 0, 0), (1000, 0, np.False_),
        (1000, 1000, 0), (np.int64(1000), np.int64(1000), 0), (1000, 1001, 0),
        (-1, -2, 0), (1000, -1, 0), (1000, 0, -1), (1000, 0, np.int64(-3)),
        (1000.0, 0, 0), (1000, 0.0, 0), (1000, 0, 0.0), (np.float64(1000), 0, 0),
        ("1000", 0, 0), (None, 0, 0), (1000, 0, None), (math.inf, 0, 0), (1000, 0, math.nan),
    ], ids=lambda v: "10**400" if repr(v) == repr(10 ** 400) else repr(v))
    def test_run_settings_rule_shared_with_sim_config(self, table_scenario, horizon, warmup,
                                                      seed):
        """A simulated sweep takes exactly the (horizon, warmup, seed) that a
        SimConfig takes; its messages name the CLI options."""
        def outcome(build):
            try:
                build()
            except ValueError as err:
                return str(err)
            return None

        config = outcome(lambda: SimConfig(table_scenario, PolicyVector.uniform(10),
                                           "dominant", horizon, seed, warmup))
        spec = outcome(lambda: SweepSpec(table_scenario, "lambda_p", 0.0, 0.1, 0.05,
                                         simulate=True, horizon=horizon, warmup=warmup,
                                         seed=seed))
        assert (config is None) == (spec is None)
        if spec is not None:
            assert spec.startswith(config.split(", got")[0])         # the same rule
            assert (f"--horizon {horizon!r} and --warmup {warmup!r}" in spec
                    or f"--seed, got {seed!r}" in spec)

    def test_validation(self, table_scenario):
        with pytest.raises(ValueError):
            SweepSpec(table_scenario, "lambda_x", 0.0, 1.0, 0.1)
        with pytest.raises(ValueError, match="runs backwards: --from 0.5 is above --to 0.2"):
            SweepSpec(table_scenario, "lambda_p", 0.5, 0.2, 0.1)
        with pytest.raises(ValueError, match=r"grid \[0.0, 1.2\] must sit inside \[0, 1\]"):
            SweepSpec(table_scenario, "lambda_p", 0.0, 1.2, 0.1)
        with pytest.raises(ValueError):
            SweepSpec(table_scenario, "lambda_p", 0.0, 1.0, 0.0)
        with pytest.raises(ValueError, match="step must be positive and finite, got inf"):
            SweepSpec(table_scenario, "lambda_p", 0.0, 1.0, float("inf"))

    @pytest.mark.parametrize("value", [True, False, "0.5", None, 0.5j, np.True_], ids=repr)
    def test_non_real_grid_rejected(self, table_scenario, value):
        for start, stop in ((value, 0.5), (0.0, value)):
            with pytest.raises(ValueError, match=re.escape(
                    f"grid [{start!r}, {stop!r}] must sit inside [0, 1]")):
                SweepSpec(table_scenario, "lambda_p", start, stop, 0.1)
        with pytest.raises(ValueError, match=re.escape(
                f"step must be positive and finite, got {value!r}")):
            SweepSpec(table_scenario, "lambda_p", 0.0, 0.5, value)

    def test_numpy_numbers_accepted(self, table_scenario):
        plain = SweepSpec(table_scenario, "lambda_p", 0.1, 0.2, 0.1, simulate=True,
                          horizon=3_000, warmup=100, seed=5)
        spec = SweepSpec(table_scenario, "lambda_p", np.float64(0.1), np.float64(0.2),
                         np.float64(0.1), simulate=True, horizon=np.int64(3_000),
                         warmup=np.int64(100), seed=np.int64(5))
        assert rows_to_csv(spec, run_sweep(spec)) == rows_to_csv(plain, run_sweep(plain))

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
        record = compare_sim_vs_analytic(SimConfig(
            scenario, PolicyVector.point_mass(10, 0), "dominant", 200_000, 2, 10_000))
        assert record.passed
        assert record.deltas["mu_s"][0] <= 0.01

    def test_idle_licensed_node_exact_zero(self, table_scenario):
        scenario = replace(table_scenario, lambda_pe=0.0, lambda_se=0.4)
        record = compare_sim_vs_analytic(SimConfig(
            scenario, PolicyVector.uniform(10), "dominant", 50_000, 3, 10_000))
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
        record = compare_sim_vs_analytic(SimConfig(
            scenario, PolicyVector.uniform(10), "dominant", 20_000, 3, 10_000))
        assert record.deltas["mu_p"] == (0.001, math.inf)
        assert record.passed

    def test_cross_check_runs_without_data_queues(self, table_scenario, monkeypatch):
        # the SimConfig stays the first positional argument, as the
        # benchmark's span tags read it from there
        calls = []
        real = sweep.simulate
        monkeypatch.setattr(sweep, "simulate",
                            lambda *a, **k: calls.append((a, k)) or real(*a, **k))
        config = SimConfig(replace(table_scenario, lambda_pe=0.2, lambda_se=0.4),
                           PolicyVector.uniform(10), "dominant", 20_000, 3, 1_000)
        record = compare_sim_vs_analytic(config)
        [(args, kwargs)] = calls
        assert args == (config,) and args[0].mode == "dominant"
        assert kwargs == {"data_queues": False}
        assert record.report.mean_q_p is record.report.drift_s is None
        assert record.report.mean_q_pe is not None

    def test_original_mode_config_refused(self, table_scenario):
        # the closed form describes the saturated system, so the run it is
        # graded against must be dominant
        config = SimConfig(replace(table_scenario, lambda_pe=0.2, lambda_se=0.4),
                           PolicyVector.uniform(10), "original", 20_000, 3, 1_000)
        with pytest.raises(ValueError, match="data_queues=False needs mode 'dominant', "
                                             "got mode 'original'"):
            compare_sim_vs_analytic(config)

    def test_uniform_policy_consumption_rate(self, table_scenario):
        scenario = replace(table_scenario, lambda_pe=0.2, lambda_se=0.4)
        record = compare_sim_vs_analytic(SimConfig(
            scenario, PolicyVector.uniform(10), "dominant", 200_000, 4, 10_000))
        assert record.analytic.mu_se == pytest.approx(0.7586, rel=1e-12)
        assert record.deltas["mu_se"][1] <= 0.01


def monotone_table(rng, m):
    """Detection rising, false alarm falling and outage rising with the index."""
    detect = np.sort(rng.uniform(0.5, 1.0, m))
    false_alarm = np.sort(rng.uniform(0.0, 0.5, m))[::-1]
    outage = np.sort(rng.uniform(0.0, 0.5, m))
    return tuple(SensingOption(k + 1, float(d), float(f), float(o))
                 for k, (d, f, o) in enumerate(zip(detect, false_alarm, outage)))


def plain_sweep(spec):
    """The reference: one lone solve and one cross-check per point, in order."""
    rows = []
    for k, value in enumerate(spec.grid()):
        scenario = replace(spec.scenario, **{spec.param: value})
        outcome = solve(scenario)
        comparison = None
        if outcome.status == "optimal":
            comparison = compare_sim_vs_analytic(SimConfig(
                scenario, outcome.winner.policy, "dominant", spec.horizon, spec.seed + k,
                spec.warmup))
        rows.append(SweepRow(value, outcome, comparison))
    return rows


def usable_cpus(monkeypatch, count):
    monkeypatch.setattr(simulator, "_usable_cpus", lambda: count)


class TestCrossChecksOnCpus:
    """``run_sweep`` runs a block's cross-checks on every usable CPU and must
    give, row for row and byte for byte, what one thread gives."""

    def test_rows_and_bytes_equal_a_plain_loop(self, monkeypatch):
        rng = np.random.default_rng(2024)
        sizes = []
        for _ in range(30):
            points = int(rng.integers(1, 71))
            step = float(rng.choice([0.005, 0.01]))
            start = float(rng.uniform(0.0, 1.0 - (points - 1) * step))
            scenario = Scenario(float(rng.uniform(0.0, 0.3)), float(rng.uniform(0.0, 1.0)),
                                float(rng.uniform(0.05, 0.95)), float(rng.uniform(0.05, 0.95)),
                                float(rng.uniform(0.0, 0.3)),
                                monotone_table(rng, int(rng.integers(2, 11))))
            horizon = int(rng.integers(5_000, 20_001))
            spec = SweepSpec(scenario, str(rng.choice(SWEEPABLE)), start,
                             start + (points - 1) * step, step, simulate=True,
                             horizon=horizon, warmup=horizon // 10,
                             seed=int(rng.integers(0, 2**31)))
            expected = plain_sweep(spec)
            for cpus in (1, 4):
                usable_cpus(monkeypatch, cpus)
                rows = run_sweep(spec)
                assert rows == expected
                assert rows_to_csv(spec, rows) == rows_to_csv(spec, expected)
            sizes.append((len(expected), sum(row.comparison is not None for row in expected)))
        # some sweeps cross a block boundary, and most points are cross-checked
        assert max(points for points, _ in sizes) > sweep._BLOCK_POINTS
        assert sum(checked for _, checked in sizes) > sum(points for points, _ in sizes) / 2

    def test_every_item_mapped_once_in_order(self, monkeypatch):
        # more workers than cores, with thread switches forced often
        usable_cpus(monkeypatch, 8)
        calls = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            results = simulator.map_on_cpus(lambda k: calls.append(k) or -k, list(range(3000)))
        finally:
            sys.setswitchinterval(interval)
        assert results == [-k for k in range(3000)]
        assert sorted(calls) == list(range(3000))

    @pytest.mark.parametrize("failing", ["first", "later"])
    def test_error_reraises_and_no_thread_outlives(self, table_scenario, monkeypatch, failing):
        spec = SweepSpec(replace(table_scenario, lambda_pe=0.4, lambda_se=0.4), "lambda_p",
                         0.0, 0.2, 0.01, simulate=True, horizon=20_000, warmup=1_000)
        optimal = [spec.seed + k for k, row in enumerate(run_sweep(replace(spec, simulate=False)))
                   if row.outcome.status == "optimal"]
        # the fourth point is one of the first four that the four workers take
        failing_seed = optimal[0 if failing == "first" else 3]
        failed = threading.Event()
        calls = []

        def compare(config):
            calls.append(config.seed)
            if config.seed == failing_seed:
                failed.set()
                raise RuntimeError(f"cross-check failed at seed {config.seed}")
            # every other point waits until the failing one has raised
            assert failed.wait(timeout=60)

        usable_cpus(monkeypatch, 4)
        monkeypatch.setattr(sweep, "compare_sim_vs_analytic", compare)
        baseline = threading.active_count()
        with pytest.raises(RuntimeError, match=f"cross-check failed at seed {failing_seed}$"):
            run_sweep(spec)
        assert threading.active_count() == baseline
        # once the failure is seen, no point that has not started starts
        assert len(calls) < len(optimal)

    def test_patched_cross_check_called_once_per_optimal_point(self, table_scenario,
                                                               monkeypatch):
        # the benchmark's tracer wraps sweep.compare_sim_vs_analytic; pool
        # threads must call the wrapper too
        both_in = threading.Barrier(2, timeout=60)
        order = itertools.count()
        seeds = []
        real = sweep.compare_sim_vs_analytic

        def compare(config):
            seeds.append(config.seed)
            if next(order) < 2:
                both_in.wait()      # two threads are inside the wrapper at once
            return real(config)

        usable_cpus(monkeypatch, 4)
        monkeypatch.setattr(sweep, "compare_sim_vs_analytic", compare)
        spec = SweepSpec(replace(table_scenario, lambda_pe=0.4, lambda_se=0.4), "lambda_p",
                         0.0, 0.7, 0.01, simulate=True, horizon=5_000, warmup=500, seed=11)
        rows = run_sweep(spec)
        optimal = [k for k, row in enumerate(rows) if row.outcome.status == "optimal"]
        assert len(rows) == 71 and 0 < len(optimal) < len(rows)
        assert Counter(seeds) == Counter(spec.seed + k for k in optimal)
        assert [row.comparison is not None for row in rows] == [
            row.outcome.status == "optimal" for row in rows]

    def test_base_exception_reraises_and_cancels_pending_items(self, monkeypatch):
        class Interrupt(BaseException):
            pass

        calls = []

        def fn(k):
            calls.append(k)
            if k == 0:
                raise Interrupt
            time.sleep(0.02)    # 200 items would keep four workers busy for 1 s
            return k

        usable_cpus(monkeypatch, 4)
        baseline = threading.active_count()
        with pytest.raises(Interrupt):
            simulator.map_on_cpus(fn, list(range(200)))
        assert threading.active_count() == baseline
        assert len(calls) < 200


def test_thread_pool_module_loaded_only_for_a_pool():
    # concurrent.futures takes 5-7 ms to import: no command loads it, and a
    # sweep on one CPU does not either
    code = """if True:
        import sys
        import crsense.cli
        from crsense import simulator, sweep
        from crsense.scenario_io import load_bundled_scenario
        assert "concurrent.futures" not in sys.modules
        simulator._usable_cpus = lambda: 1
        spec = sweep.SweepSpec(load_bundled_scenario(), "lambda_p", 0.0, 0.02, 0.01,
                               simulate=True, horizon=2_000, warmup=100)
        assert all(row.comparison is not None for row in sweep.run_sweep(spec))
        assert "concurrent.futures" not in sys.modules
        simulator._usable_cpus = lambda: 2
        sweep.run_sweep(spec)
        assert "concurrent.futures" in sys.modules
    """
    env = {**os.environ, "PYTHONPATH": str(Path(sweep.__file__).resolve().parents[1])}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
