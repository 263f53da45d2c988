import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from crsense import simulator
from crsense.acceptance import audit_coupling
from crsense.analytics import PolicyVector, Scenario, analyze
from crsense.channel import SensingOption
from crsense.simulator import (
    MODES,
    SimConfig,
    SimReport,
    coupled_dominance_run,
    simulate,
    simulate_traced,
    stability_diagnostic,
)


def dominant_config(scenario, policy, horizon=300_000, seed=0, warmup=10_000):
    return SimConfig(scenario, policy, "dominant", horizon, seed, warmup)


class TestBasics:
    def test_zero_arrivals_stay_idle(self, table_scenario):
        scenario = replace(table_scenario, lambda_p=0.0, lambda_s=0.0,
                           lambda_pe=0.0, lambda_se=0.0)
        report = simulate(SimConfig(scenario, PolicyVector.uniform(10),
                                    "original", 20_000, 1))
        assert report.mu_p == report.mu_s == 0.0
        assert report.mean_q_p == report.mean_q_se == 0.0
        assert report.prob_pe_empty == 1.0
        assert report.prob_se_nonempty == 0.0
        assert report.collisions == 0

    def test_reproducible_bit_for_bit(self, table_scenario):
        config = dominant_config(table_scenario, PolicyVector.uniform(10),
                                 horizon=50_000, seed=99, warmup=1_000)
        assert simulate(config) == simulate(config)

    def test_different_seeds_differ(self, table_scenario):
        pol = PolicyVector.uniform(10)
        a = simulate(dominant_config(table_scenario, pol, 50_000, seed=1))
        b = simulate(dominant_config(table_scenario, pol, 50_000, seed=2))
        assert a != b

    def test_config_validation(self, table_scenario):
        pol = PolicyVector.uniform(10)
        with pytest.raises(ValueError):
            SimConfig(table_scenario, pol, "nonsense", 1000, 0)
        with pytest.raises(ValueError):
            SimConfig(table_scenario, pol, "original", 1000, 0, warmup=1000)
        with pytest.raises(ValueError):
            SimConfig(table_scenario, PolicyVector.uniform(3), "original", 1000, 0)
        for seed in (-1, 1.0, "3"):
            with pytest.raises(ValueError, match="seed must be a non-negative integer"):
                SimConfig(table_scenario, pol, "original", 1000, seed)

    def test_rng_is_documented(self, table_scenario):
        report = simulate(SimConfig(table_scenario, PolicyVector.uniform(10),
                                    "original", 2_000, 0))
        assert "PCG64" in report.rng


class TestDeterministicSlotLogic:
    def test_saturated_arrivals_with_perfect_sensor(self):
        # every arrival rate is 1 and detection is certain: from slot 1 on the
        # licensed node transmits every slot on a clean channel while the
        # opportunistic node is always blocked, so its data queue grows by
        # one packet per slot (late arrivals: nothing moves in slot 0)
        table = (SensingOption(1, 1.0, 0.0, 0.5),)
        scenario = Scenario(1.0, 1.0, 1.0, 1.0, 0.0, table)
        horizon = 5_000
        report, trace = simulate_traced(
            SimConfig(scenario, PolicyVector.uniform(1), "original", horizon, 3,
                      warmup=1))
        assert report.mu_p == 1.0
        assert report.mu_s == 0.0
        assert np.all(trace.q_p[1:] == 1)                 # served every slot
        assert np.array_equal(trace.q_s, np.arange(horizon))
        assert report.collisions == 0

    def test_energy_starved_licensed_node(self):
        # licensed node has data but zero energy arrivals: it never transmits
        table = (SensingOption(1, 0.9, 0.0, 0.0),)
        scenario = Scenario(1.0, 0.0, 0.0, 1.0, 0.0, table)
        report, trace = simulate_traced(
            SimConfig(scenario, PolicyVector.uniform(1), "original", 5_000, 4))
        assert not trace.pu_tx.any()
        assert report.mu_p == 0.0
        assert report.prob_pe_empty == 1.0

    @pytest.mark.parametrize("mode", MODES)
    def test_occupancy_sum_past_int32(self, mode):
        # the opportunistic channel is always in outage, so q_s never
        # drains and holds exactly t at slot t: its occupancy sum over
        # 150 000 slots is 11 249 925 000, past 2**31
        table = (SensingOption(1, 0.5, 0.5, 1.0),)
        scenario = Scenario(0.0, 1.0, 0.5, 0.5, 0.0, table)
        report = simulate(SimConfig(scenario, PolicyVector.uniform(1), mode, 150_000, 5))
        assert report.mean_q_s == 74999.5


class TestInvariants:
    @pytest.mark.parametrize("mode", ["original", "dominant"])
    def test_trace_invariants(self, table_scenario, mode):
        scenario = replace(table_scenario, lambda_p=0.3, lambda_s=0.3,
                           lambda_pe=0.5, lambda_se=0.5)
        config = SimConfig(scenario, PolicyVector.uniform(10), mode, 30_000, 7)
        report, trace = simulate_traced(config)
        # queues never go negative
        for name in ("q_p", "q_s", "q_pe", "q_se"):
            assert getattr(trace, name).min() >= 0
        # transmissions require energy; original mode also requires data
        assert not np.any(trace.pu_tx & (trace.q_pe == 0))
        assert not np.any(trace.cr_tx & (trace.q_se == 0))
        if mode == "original":
            assert not np.any(trace.pu_tx & (trace.q_p == 0))
            assert not np.any(trace.cr_tx & (trace.q_s == 0))
        # a secondary success never coincides with a licensed transmission
        assert not np.any((trace.r_s == 1) & trace.pu_tx)
        # rates are probabilities
        for value in (report.mu_p, report.mu_s, report.mu_pe, report.mu_se,
                      report.prob_pe_empty, report.prob_se_nonempty):
            assert 0.0 <= value <= 1.0

    @pytest.mark.parametrize("queue,rate,arrivals", [
        ("q_pe", "r_pe", "arr_pe"), ("q_se", "r_se", "arr_se")])
    def test_energy_conservation(self, table_scenario, queue, rate, arrivals):
        # total consumed = initial + arrivals - final level, and consumption
        # in one slot never exceeds min(level, offered service)
        scenario = replace(table_scenario, lambda_pe=0.5, lambda_se=0.5)
        config = SimConfig(scenario, PolicyVector.uniform(10), "original", 20_000, 11)
        _, trace = simulate_traced(config)
        q = getattr(trace, queue).astype(int)
        r = getattr(trace, rate).astype(int)
        a = getattr(trace, arrivals).astype(int)
        consumed = np.minimum(q, r)
        final = q[-1] - consumed[-1] + a[-1]
        assert consumed.sum() == q[0] + a.sum() - final
        assert consumed.sum() <= q[0] + a.sum()


class TestMemory:
    @pytest.mark.parametrize("mode", MODES)
    def test_untraced_run_keeps_per_chunk_memory(self, table_scenario, mode, monkeypatch):
        """Eight times the chunks raise an untraced run's allocation peak by
        at most a quarter: nothing a chunk allocates outlives it, apart from
        the drift samples (at most 2000 per queue)."""
        chunk = 2_048
        monkeypatch.setattr(simulator, "_CHUNK", chunk)
        scenario = replace(table_scenario, lambda_p=0.3, lambda_s=0.3,
                           lambda_pe=0.5, lambda_se=0.5)
        configs = [SimConfig(scenario, PolicyVector.uniform(10), mode, chunks * chunk, 1)
                   for chunks in (8, 64)]
        simulate(configs[0])                # first-call caches outside the measurement
        peaks = []
        for config in configs:
            tracemalloc.start()
            try:
                simulate(config)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.25 * peaks[0], peaks


class TestAgainstClosedForm:
    def test_empty_energy_probability(self, table_scenario):
        scenario = replace(table_scenario, lambda_pe=0.4)
        report = simulate(dominant_config(scenario, PolicyVector.uniform(10),
                                          horizon=200_000, seed=5))
        assert report.prob_pe_empty == pytest.approx(0.6, abs=0.01)

    def test_saturated_rates_converge(self, table_scenario):
        scenario = replace(table_scenario, lambda_pe=0.2, lambda_se=0.4)
        policy = PolicyVector.point_mass(10, 0)
        rates = analyze(scenario, policy)
        report = simulate(dominant_config(scenario, policy, horizon=400_000, seed=6))
        n = report.horizon - report.warmup
        for got, want in ((report.mu_s, rates.mu_s), (report.mu_p, rates.mu_p),
                          (report.mu_se, rates.mu_se)):
            stderr = math.sqrt(want * (1.0 - want) / n)
            assert abs(got - want) <= 3 * stderr

    def test_occupancy_matches_ratio(self, table_scenario):
        scenario = replace(table_scenario, lambda_pe=0.3, lambda_se=0.3)
        policy = PolicyVector.uniform(10)
        rates = analyze(scenario, policy)
        assert rates.x_se < 0.6    # safely inside the stable regime
        report = simulate(dominant_config(scenario, policy, horizon=400_000, seed=9))
        assert report.prob_se_nonempty == pytest.approx(rates.x_se, abs=0.01)


class TestCoupledMode:
    def test_zero_arrivals_no_violations(self, table_scenario):
        scenario = replace(table_scenario, lambda_p=0.0, lambda_s=0.0,
                           lambda_pe=0.0, lambda_se=0.0)
        report = coupled_dominance_run(
            SimConfig(scenario, PolicyVector.uniform(10), "coupled", 20_000, 1))
        assert report.dominance_violations == 0

    def test_mode_guards(self, table_scenario):
        pol = PolicyVector.uniform(10)
        with pytest.raises(ValueError):
            coupled_dominance_run(SimConfig(table_scenario, pol, "original", 1000, 0))
        with pytest.raises(ValueError):
            simulate_traced(SimConfig(table_scenario, pol, "coupled", 1000, 0))

    def test_original_side_matches_standalone_run(self, table_scenario):
        # the coupled run must reproduce the plain original-mode statistics
        # exactly: same seed, same draws, same slot logic
        pol = PolicyVector.uniform(10)
        coupled = simulate(SimConfig(table_scenario, pol, "coupled", 30_000, 21,
                                     warmup=1_000))
        single = simulate(SimConfig(table_scenario, pol, "original", 30_000, 21,
                                    warmup=1_000))
        for name in ("mu_p", "mu_s", "mu_pe", "mu_se", "prob_pe_empty",
                     "prob_se_nonempty", "mean_q_p", "mean_q_s", "collisions"):
            assert getattr(coupled, name) == getattr(single, name)

    def test_violation_counter_reports(self, table_scenario):
        # moderate traffic: the saturated twin's licensed node runs out of
        # energy in slots where the original still transmits, freeing the
        # twin's opportunistic node to serve data the original cannot; the
        # counter must see those slots rather than hide them
        scenario = replace(table_scenario, lambda_p=0.1, lambda_s=0.1,
                           lambda_pe=0.4, lambda_se=0.4)
        pol = PolicyVector.uniform(10)
        report = coupled_dominance_run(
            SimConfig(scenario, pol, "coupled", 100_000, 0))
        assert report.dominance_violations == 1898
        # the two systems of a coupled run are the standalone original and
        # dominant runs on the same seed: they consume identical draws
        _, original = simulate_traced(SimConfig(scenario, pol, "original", 100_000, 0))
        _, twin = simulate_traced(SimConfig(scenario, pol, "dominant", 100_000, 0))
        assert report.dominance_violations == audit_coupling(original, twin).inversions


class TestStabilityDiagnostic:
    def test_requires_long_run(self, table_scenario):
        report = simulate(SimConfig(table_scenario, PolicyVector.uniform(10),
                                    "original", 50_000, 1))
        with pytest.raises(ValueError, match="raise horizon"):
            stability_diagnostic(report, table_scenario)

    def test_stable_primary_queue(self, table_scenario):
        scenario = replace(table_scenario, lambda_p=0.05, lambda_pe=0.4, lambda_se=0.4)
        report = simulate(SimConfig(scenario, PolicyVector.uniform(10),
                                    "original", 1_050_000, 14, warmup=50_000))
        verdicts = {v.queue: v for v in stability_diagnostic(report, scenario)}
        assert verdicts["primary_data"].verdict == "stable"
        assert abs(report.drift_p) < 1e-3

    def test_unstable_primary_queue(self, table_scenario):
        scenario = replace(table_scenario, lambda_p=0.5, lambda_pe=0.2, lambda_se=0.4)
        report = simulate(SimConfig(scenario, PolicyVector.uniform(10),
                                    "original", 1_050_000, 15, warmup=50_000))
        verdicts = {v.queue: v for v in stability_diagnostic(report, scenario)}
        assert verdicts["primary_data"].verdict == "unstable"
        # a saturated queue grows at (arrival - service) packets per slot
        assert report.drift_p == pytest.approx(
            scenario.lambda_p - report.mu_p, abs=0.01)

    def test_borderline_band(self, table_scenario):
        report = SimReport(
            mode="original", horizon=2_000_000, warmup=0, seed=0, rng="x",
            mu_p=table_scenario.lambda_p + 1e-5, mu_s=0.5, mu_pe=1.0, mu_se=0.5,
            prob_pe_empty=0.8, prob_se_nonempty=0.5,
            mean_q_p=1.0, mean_q_s=1.0, mean_q_pe=0.2, mean_q_se=0.5,
            drift_p=0.0, drift_s=0.0, drift_pe=0.0, drift_se=0.0, collisions=0)
        verdicts = {v.queue: v for v in stability_diagnostic(report, table_scenario)}
        assert verdicts["primary_data"].verdict == "borderline"
