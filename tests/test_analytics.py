import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crsense.analytics import PolicyVector, Scenario, analyze, coefficients
from crsense.channel import SensingOption
from scenario_strategies import SETTINGS, policies, scenarios


def make_scenario(table, lam_p=0.1, lam_s=0.1, lam_pe=0.2, lam_se=0.4, p_out=0.3):
    return Scenario(lam_p, lam_s, lam_pe, lam_se, p_out, tuple(table))


def random_policy(rng, m):
    raw = rng.random(m) + 1e-3
    return PolicyVector(tuple(raw / raw.sum()))


class TestEnergyRates:
    def test_licensed_rate_is_one(self, table_scenario):
        assert analyze(table_scenario, PolicyVector.uniform(10)).mu_pe == 1.0

    def test_first_row_point_mass(self, table_scenario):
        # 0.2 * 0.30 + 0.8 * 0.95, hand-evaluated from the first table row
        scenario = replace(table_scenario, lambda_pe=0.2)
        mu_se = analyze(scenario, PolicyVector.point_mass(10, 0)).mu_se
        assert mu_se == pytest.approx(0.82, rel=1e-12)

    def test_uniform_policy(self, table_scenario):
        # 0.2 * mean(miss) + 0.8 * mean(1 - false alarm) = 0.2*0.153 + 0.8*0.91
        scenario = replace(table_scenario, lambda_pe=0.2)
        mu_se = analyze(scenario, PolicyVector.uniform(10)).mu_se
        assert mu_se == pytest.approx(0.7586, rel=1e-12)

    def test_idle_licensed_perfect_sensor(self):
        table = [SensingOption(1, 0.9, 0.0, 0.2), SensingOption(2, 0.95, 0.0, 0.3)]
        scenario = make_scenario(table, lam_pe=0.0)
        assert analyze(scenario, PolicyVector.uniform(2)).mu_se == 1.0

    def test_dimension_mismatch(self, table_scenario):
        with pytest.raises(ValueError):
            analyze(table_scenario, PolicyVector.uniform(3))


class TestOccupancy:
    def test_ratio(self, table_scenario):
        scenario = replace(table_scenario, lambda_pe=0.2, lambda_se=0.4)
        rates = analyze(scenario, PolicyVector.point_mass(10, 0))
        assert rates.x_se == pytest.approx(0.4 / 0.82, rel=1e-12)
        assert rates.x_se_capped == rates.x_se

    def test_cap_at_overflow(self, table_scenario):
        scenario = replace(table_scenario, lambda_pe=0.2, lambda_se=1.0)
        rates = analyze(scenario, PolicyVector.point_mass(10, 0))
        assert rates.x_se == pytest.approx(1.0 / 0.82, rel=1e-12)
        assert rates.x_se_capped == 1.0

    def test_no_harvest(self, table_scenario):
        scenario = replace(table_scenario, lambda_se=0.0)
        rates = analyze(scenario, PolicyVector.uniform(10))
        assert rates.x_se == 0.0 and rates.x_se_capped == 0.0

    def test_degenerate_sentinels(self):
        # consumption rate zero: the sensor never reports idle
        table = [SensingOption(1, 1.0, 1.0, 0.2)]
        scenario = make_scenario(table, lam_pe=1.0, lam_se=0.5)
        rates = analyze(scenario, PolicyVector.uniform(1))
        assert math.isinf(rates.x_se) and rates.x_se_capped == 1.0
        scenario0 = make_scenario(table, lam_pe=1.0, lam_se=0.0)
        rates0 = analyze(scenario0, PolicyVector.uniform(1))
        assert rates0.x_se == 0.0 and rates0.x_se_capped == 0.0


class TestDataRates:
    def test_reference_point(self, table_scenario):
        # chained hand substitution: X = 0.4/0.82, mu_s = X*0.8*0.9*0.95,
        # mu_p = 0.2*0.7*(1 - X*0.3)
        scenario = replace(table_scenario, lambda_pe=0.2, lambda_se=0.4)
        rates = analyze(scenario, PolicyVector.point_mass(10, 0))
        assert rates.mu_s == pytest.approx(13.68 / 41.0, rel=1e-12)   # 0.33366
        assert rates.mu_p == pytest.approx(4.9 / 41.0, rel=1e-12)     # 0.11951

    def test_licensed_without_energy(self, table_scenario):
        scenario = replace(table_scenario, lambda_pe=0.0, lambda_se=0.4)
        rates = analyze(scenario, PolicyVector.uniform(10))
        assert rates.mu_p == 0.0
        assert rates.mu_s > 0.0

    def test_licensed_always_energized(self, table_scenario):
        scenario = replace(table_scenario, lambda_pe=1.0)
        assert analyze(scenario, PolicyVector.uniform(10)).mu_s == 0.0

    def test_degenerate_consumption_flagged(self):
        table = [SensingOption(1, 1.0, 1.0, 0.2)]
        scenario = make_scenario(table, lam_pe=0.5, lam_se=0.5)
        rates = analyze(scenario, PolicyVector.uniform(1))
        assert rates.degenerate_energy_service
        assert rates.mu_s == 0.0

    def test_rate_bounds(self, table_scenario):
        rng = np.random.default_rng(31)
        u = coefficients(table_scenario).u
        for _ in range(300):
            scenario = replace(
                table_scenario,
                lambda_pe=rng.uniform(0.0, 1.0),
                lambda_se=rng.uniform(0.0, 1.0),
            )
            rates = analyze(scenario, random_policy(rng, 10))
            assert 0.0 <= rates.mu_p <= scenario.lambda_pe * 0.7 + 1e-15
            assert 0.0 <= rates.mu_s <= (1.0 - scenario.lambda_pe) * u.max() + 1e-15
            assert 0.0 <= rates.mu_se <= 1.0
            assert rates.mu_pe == 1.0
            assert rates.prob_pe_empty == 1.0 - scenario.lambda_pe

    def test_monotone_in_harvest_rate(self, table_scenario):
        rng = np.random.default_rng(37)
        for _ in range(20):
            policy = random_policy(rng, 10)
            lam_pe = rng.uniform(0.0, 1.0)
            values = []
            for lam_se in np.linspace(0.0, 1.0, 21):
                scenario = replace(table_scenario, lambda_pe=lam_pe, lambda_se=lam_se)
                values.append(analyze(scenario, policy).mu_s)
            assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


class TestStructure:
    def test_consumption_rate_affine_in_policy(self, table_scenario):
        rng = np.random.default_rng(41)
        for _ in range(50):
            p1, p2 = random_policy(rng, 10), random_policy(rng, 10)
            alpha = rng.uniform(0.0, 1.0)
            mix = PolicyVector(tuple(alpha * a + (1 - alpha) * b
                                     for a, b in zip(p1.probs, p2.probs)))
            mu_mix, mu_1, mu_2 = (analyze(table_scenario, p).mu_se for p in (mix, p1, p2))
            assert mu_mix == pytest.approx(alpha * mu_1 + (1 - alpha) * mu_2, abs=1e-12)

    def test_throughput_is_ratio_of_affine_forms_below_cap(self, table_scenario):
        rng = np.random.default_rng(43)
        w, u, _, _ = coefficients(table_scenario)
        lam_se = table_scenario.lambda_se
        for _ in range(100):
            policy = random_policy(rng, 10)
            p = policy.as_array()
            if lam_se > float(w @ p):
                continue
            expected = lam_se * (1.0 - table_scenario.lambda_pe) * float(u @ p) / float(w @ p)
            assert analyze(table_scenario, policy).mu_s == pytest.approx(expected, rel=1e-12)


class TestPolicyVector:
    def test_sum_tolerance(self):
        PolicyVector((0.5, 0.5 + 9e-10))
        with pytest.raises(ValueError):
            PolicyVector((0.5, 0.501))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            PolicyVector((1.1, -0.1))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            PolicyVector(())

    def test_point_mass_bounds(self):
        with pytest.raises(ValueError):
            PolicyVector.point_mass(3, 3)
        assert PolicyVector.point_mass(3, 2).probs == (0.0, 0.0, 1.0)

    def test_uniform(self):
        assert sum(PolicyVector.uniform(7).probs) == pytest.approx(1.0, abs=1e-12)


class TestScenario:
    def test_rates_validated(self, table_scenario):
        with pytest.raises(ValueError):
            replace(table_scenario, lambda_p=1.5)
        with pytest.raises(ValueError):
            replace(table_scenario, lambda_se=-0.1)

    def test_empty_table_rejected(self, table_scenario):
        with pytest.raises(ValueError):
            replace(table_scenario, sensing_table=())

    def test_duplicate_indices_rejected(self, table_scenario):
        table = (table_scenario.sensing_table[0],) * 2
        with pytest.raises(ValueError):
            replace(table_scenario, sensing_table=table)


# mu_p, mu_s and mu_se go through dot products with the policy, whose float
# sum is 1 only up to rounding: at most ten terms, normalized, then summed,
# stay within 16 ulps of 1 (mu_se = 1 + 4.4e-16 and mu_p = -1.1e-16 occur)
_DOT_ROUNDING = 16 * np.finfo(float).eps


class TestRanges:
    @settings(max_examples=150, **SETTINGS)
    @given(st.data())
    def test_rates_in_unit_interval(self, data):
        scenario = data.draw(scenarios(1, 10))
        rates = analyze(scenario, data.draw(policies(scenario.num_durations)))
        for name in ("mu_pe", "x_se_capped", "prob_pe_empty"):
            assert 0.0 <= getattr(rates, name) <= 1.0, name
        for name in ("mu_p", "mu_s", "mu_se"):
            assert -_DOT_ROUNDING <= getattr(rates, name) <= 1.0 + _DOT_ROUNDING, name
        assert rates.mu_p <= scenario.lambda_pe
