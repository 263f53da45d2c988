from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings

import crsense.lp
from crsense import optimizer
from crsense.acceptance import exact_subproblems
from crsense.analytics import PolicyVector, Scenario, analyze
from crsense.channel import SensingOption
from crsense.lp import CONSTRAINT_TOL
from crsense.optimizer import solve, solve_constrained_subproblem, solve_overflow_subproblem
from scenario_strategies import SETTINGS, hundredths, scenarios


def assert_policy_feasible(scenario, outcome):
    policy = outcome.winner.policy
    assert sum(policy.probs) == pytest.approx(1.0, abs=1e-9)
    rates = analyze(scenario, policy)
    assert scenario.lambda_p <= rates.mu_p + CONSTRAINT_TOL
    if outcome.winning_subproblem == "constrained":
        assert scenario.lambda_se <= rates.mu_se + CONSTRAINT_TOL
    else:
        assert scenario.lambda_se >= rates.mu_se - CONSTRAINT_TOL


class TestConstrainedSubproblem:
    def test_zero_harvest_rate_gives_zero_value(self, table_scenario):
        scenario = replace(table_scenario, lambda_p=0.05, lambda_se=0.0)
        result = solve_constrained_subproblem(scenario)
        assert result.status == "optimal"
        assert result.value == pytest.approx(0.0, abs=1e-12)
        assert sum(result.policy.probs) == pytest.approx(1.0, abs=1e-9)

    def test_matches_exact_oracle_on_subtable(self, sub3_scenario):
        scenario = replace(sub3_scenario, lambda_p=0.1, lambda_pe=0.4, lambda_se=0.4)
        result = solve_constrained_subproblem(scenario)
        exact, _ = exact_subproblems(scenario)
        assert result.status == "optimal" and exact is not None
        assert abs(Fraction(result.value) - exact) <= 1e-12

    def test_recovered_policy_satisfies_original_constraints(self, sub3_scenario):
        rng = np.random.default_rng(4)
        for _ in range(50):
            scenario = replace(
                sub3_scenario,
                lambda_p=rng.uniform(0.0, 0.2),
                lambda_pe=rng.uniform(0.1, 0.9),
                lambda_se=rng.uniform(0.05, 0.8),
            )
            result = solve_constrained_subproblem(scenario)
            if result.status != "optimal":
                continue
            rates = analyze(scenario, result.policy)
            assert scenario.lambda_se <= rates.mu_se + CONSTRAINT_TOL
            assert scenario.lambda_p <= rates.mu_p + CONSTRAINT_TOL

    def test_success_factor_scaling(self, sub3_scenario):
        # halving every (1 - outage) factor halves the optimum and keeps the
        # argmax optimal: the factor enters the objective only
        scenario = replace(sub3_scenario, lambda_p=0.05, lambda_pe=0.4, lambda_se=0.3)
        base = solve_constrained_subproblem(scenario)
        k = 0.5
        scaled_table = tuple(
            SensingOption(o.index, o.detection_prob, o.false_alarm_prob,
                          1.0 - k * (1.0 - o.secondary_outage))
            for o in scenario.sensing_table)
        scaled = replace(scenario, sensing_table=scaled_table)
        result = solve_constrained_subproblem(scaled)
        assert result.value == pytest.approx(k * base.value, rel=1e-9)
        assert analyze(scaled, base.policy).mu_s == pytest.approx(result.value, rel=1e-9)


class TestOverflowSubproblem:
    def test_always_energized_licensed_gives_zero(self, table_scenario):
        scenario = replace(table_scenario, lambda_p=0.0, lambda_pe=1.0, lambda_se=0.9)
        result = solve_overflow_subproblem(scenario)
        assert result.status == "optimal"
        assert result.value == pytest.approx(0.0, abs=1e-12)

    def test_harvest_rate_does_not_matter_once_saturated(self, table_scenario):
        base = replace(table_scenario, lambda_p=0.1, lambda_pe=0.6)
        a = solve_overflow_subproblem(replace(base, lambda_se=0.7))
        b = solve_overflow_subproblem(replace(base, lambda_se=0.95))
        assert a.status == b.status == "optimal"
        assert a.value == b.value
        assert a.policy.probs == b.policy.probs

    def test_matches_vertex_enumeration(self, sub3_scenario):
        rng = np.random.default_rng(6)
        compared = 0
        for _ in range(50):
            scenario = replace(
                sub3_scenario,
                lambda_p=rng.uniform(0.0, 0.25),
                lambda_pe=rng.uniform(0.05, 0.95),
                lambda_se=rng.uniform(0.05, 0.9),
            )
            result = solve_overflow_subproblem(scenario)
            _, exact = exact_subproblems(scenario)
            assert result.status == ("infeasible" if exact is None else "optimal")
            if exact is not None:
                assert abs(Fraction(result.value) - exact) <= 1e-12
                compared += 1
        assert compared > 10

    def test_solution_is_sparse_vertex(self, table_scenario):
        # one equality and two inequalities leave at most three basic entries
        scenario = replace(table_scenario, lambda_p=0.15, lambda_pe=0.5, lambda_se=0.6)
        result = solve_overflow_subproblem(scenario)
        assert result.status == "optimal"
        assert sum(p > 1e-7 for p in result.policy.probs) <= 3


class TestMasterSolve:
    def test_single_duration_reduces_to_feasibility(self, table_scenario):
        scenario = replace(
            table_scenario, lambda_p=0.05, lambda_pe=0.4, lambda_se=0.4,
            sensing_table=(table_scenario.sensing_table[0],))
        outcome = solve(scenario)
        assert outcome.status == "optimal"
        assert outcome.winner.policy.probs == (1.0,)
        infeasible = solve(replace(scenario, lambda_p=0.3))
        assert infeasible.status == "infeasible"

    def test_unstable_licensed_queue_infeasible(self, table_scenario):
        # mu_p can never exceed lambda_pe * (1 - primary_outage) = 0.14
        outcome = solve(replace(table_scenario, lambda_p=0.5, lambda_pe=0.2))
        assert outcome.status == "infeasible"
        assert outcome.winner.policy is None
        assert outcome.winner.value == 0.0
        assert outcome.winning_subproblem == "none"

    def test_reference_point_matches_exact(self, sub3_scenario):
        # the two regimes cover the simplex, so the better one is the optimum
        scenario = replace(sub3_scenario, lambda_p=0.1, lambda_pe=0.4, lambda_se=0.4)
        outcome = solve(scenario)
        exact = max(v for v in exact_subproblems(scenario) if v is not None)
        assert outcome.status == "optimal"
        assert abs(Fraction(outcome.winner.value) - exact) <= 1e-12
        assert_policy_feasible(scenario, outcome)

    def test_best_of_both_subproblems(self, table_scenario):
        rng = np.random.default_rng(8)
        for _ in range(30):
            scenario = replace(
                table_scenario,
                lambda_p=rng.uniform(0.0, 0.25),
                lambda_pe=rng.uniform(0.05, 0.95),
                lambda_se=rng.uniform(0.05, 0.95),
            )
            outcome = solve(scenario)
            feasible_values = [r.value for r in (outcome.constrained, outcome.overflow)
                               if r.status == "optimal"]
            if outcome.status == "infeasible":
                assert not feasible_values
                continue
            assert outcome.winner.value == max(feasible_values)
            assert_policy_feasible(scenario, outcome)

    def test_tie_goes_to_overflow(self, table_scenario):
        # at the regime boundary both subproblems attain the same value
        base = replace(table_scenario, lambda_p=0.1, lambda_pe=0.6)
        ref = solve(replace(base, lambda_se=1.0))
        knee = analyze(replace(base, lambda_se=1.0), ref.overflow.policy).mu_se
        outcome = solve(replace(base, lambda_se=knee))
        assert outcome.winning_subproblem == "overflow"
        # both regimes return the same vertex, on the regime boundary; the
        # drain regime's value can lead by round-off only
        outcome = solve(replace(table_scenario, lambda_pe=0.78))
        assert outcome.winning_subproblem == "overflow"
        assert outcome.winner.rates.x_se_capped == 1.0
        assert outcome.winner.policy.probs == pytest.approx(
            [0.742515, 0, 0, 0, 0, 0, 0.257485, 0, 0, 0], abs=1e-6)
        # here the drain regime does lead, by 2.8e-17, with mu_se 1.1e-16
        # below lambda_se: a lead on the boundary goes to the saturated regime
        scenario = replace(table_scenario, lambda_p=0.052, lambda_pe=0.378,
                           lambda_se=0.768, primary_outage=0.518, sensing_table=(
                               SensingOption(1, 0.057, 0.232, 0.472),
                               SensingOption(2, 0.626, 0.918, 0.853),
                               SensingOption(3, 0.515, 0.716, 0.051),
                               SensingOption(4, 0.849, 0.112, 0.73)))
        outcome = solve(scenario)
        assert outcome.constrained.value > outcome.overflow.value
        assert outcome.winning_subproblem == "overflow"

    def test_monotone_feasibility_in_lambda_p(self, table_scenario):
        rng = np.random.default_rng(10)
        for _ in range(15):
            scenario = replace(
                table_scenario,
                lambda_pe=rng.uniform(0.2, 0.9),
                lambda_se=rng.uniform(0.05, 0.9),
            )
            lam_lo, lam_hi = sorted(rng.uniform(0.0, 0.35, size=2))
            lo = solve(replace(scenario, lambda_p=lam_lo))
            hi = solve(replace(scenario, lambda_p=lam_hi))
            if hi.status == "optimal":
                assert lo.status == "optimal"
                assert lo.winner.value >= hi.winner.value - 1e-10

    def test_infeasible_beyond_energy_limit(self, table_scenario):
        rng = np.random.default_rng(12)
        for _ in range(30):
            lam_pe = rng.uniform(0.0, 0.9)
            cap = lam_pe * (1.0 - table_scenario.primary_outage)
            lam_p = cap + rng.uniform(0.01, 0.2)
            if lam_p > 1.0:
                continue
            outcome = solve(replace(table_scenario, lambda_p=lam_p, lambda_pe=lam_pe))
            assert outcome.status == "infeasible"


def random_table(rng, m):
    return tuple(SensingOption(k + 1, *map(float, rng.uniform(0.0, 1.0, 3)))
                 for k in range(m))


def assert_subproblem_feasible(scenario, result, drains):
    rates = analyze(scenario, result.policy)
    assert scenario.lambda_p <= rates.mu_p + CONSTRAINT_TOL
    if drains:
        assert scenario.lambda_se <= rates.mu_se + CONSTRAINT_TOL
    else:
        assert scenario.lambda_se >= rates.mu_se - CONSTRAINT_TOL


def subproblems_and_exact(scenario):
    """(result, exact optimum or None, drains) for both regimes."""
    return zip((solve_constrained_subproblem(scenario), solve_overflow_subproblem(scenario)),
               exact_subproblems(scenario), (True, False))


def assert_matches_exact(scenario):
    """Both subproblems equal the exact oracle's in status and mu_s, and
    return a policy that meets their constraints to CONSTRAINT_TOL."""
    for ours, exact, drains in subproblems_and_exact(scenario):
        assert ours.status == ("infeasible" if exact is None else "optimal")
        if exact is not None:
            assert abs(Fraction(ours.value) - exact) <= 1e-12
            assert_subproblem_feasible(scenario, ours, drains)


# lambda_p > mu_p for every policy. The pair's licensed row is active at
# P = (-3.1e-9, 1 + 3.1e-9), where the denominator mu_se cancels to 4e-25;
# a nonnegativity slack not scaled by the denominator accepted that vertex
_TINY_DENOMINATOR = Scenario(
    0.9991269739076112, 0.5, 0.9999999876497003, 0.0, 0.4571721789904417,
    (SensingOption(5, 0.264265049316983, 0.23834158159649943, 0.9970781789687317),
     SensingOption(8, 1.0, 0.816615459129375, 0.6070731358208212)))


def hundredths_scenario(lam_p, lam_pe, lam_se, p_out, rows):
    return Scenario(lam_p, 0.1, lam_pe, lam_se, p_out,
                    tuple(SensingOption(k + 1, *row) for k, row in enumerate(rows)))


# random draws seldom reach an optimum on three durations with both rows
# active; these two reach one in the overflow and in the drain regime
_THREE_POINT_OVERFLOW = hundredths_scenario(
    0.03, 0.22, 0.8, 0.68, [(0.33, 0.02, 0.09), (0.18, 0.53, 0.06), (0.99, 0.1, 0.62)])
_THREE_POINT_DRAIN = hundredths_scenario(
    0.14, 0.32, 0.51, 0.32, [(0.81, 0.01, 0.61), (0.01, 0.57, 0.08), (0.91, 0.73, 0.43)])


# lambda_p > mu_p = 0 for every policy. At lambda_se = 5e-324 the pair
# vertex with the regime row active has mu_se = 5e-324, and the licensed
# row's value 0.5 * mu_se underflows to zero: only a denominator whose
# slack does not underflow may be trusted
_SUBNORMAL_HARVEST = Scenario(
    0.5, 0.0, 0.0, 5e-324, 0.0,
    (SensingOption(1, 0.0, 0.0, 0.0), SensingOption(2, 0.0, 1.0, 0.0)))


# lambda_pe = 0 and lambda_se = 1: every consumption weight is 1 - 1e-12,
# below lambda_se, so the drain regime is infeasible. Its row is violated by
# 1e-12 only, within CONSTRAINT_TOL, and the solver returns a policy with
# mu_s = 1 - 1e-12; the saturated regime returns the same mu_s
_WITHIN_TOLERANCE = Scenario(0.0, 0.5, 0.0, 1.0, 0.0, (SensingOption(1, 0.5, 1e-12, 0.0),))


class TestExactOracleEquality:
    @settings(max_examples=400, **SETTINGS)
    @given(scenarios(1, 10, hundredths))
    @example(_THREE_POINT_OVERFLOW)
    @example(_THREE_POINT_DRAIN)
    def test_subproblems_match_exact(self, scenario):
        assert_matches_exact(scenario)

    def test_forty_durations(self, table_scenario):
        rng = np.random.default_rng(40)
        scenario = replace(table_scenario, lambda_p=0.05, lambda_pe=0.4, lambda_se=0.3,
                           sensing_table=random_table(rng, 40))
        assert_matches_exact(scenario)

    @settings(max_examples=300, **SETTINGS)
    @given(scenarios(1, 10))
    @example(_TINY_DENOMINATOR)
    @example(_SUBNORMAL_HARVEST)
    @example(_WITHIN_TOLERANCE)
    def test_subproblems_reach_exact_for_any_rates(self, scenario):
        # one-sided: CONSTRAINT_TOL admits points that violate a row by less
        # than it, so a subproblem can be optimal where the exact program is
        # infeasible, or exceed its optimum
        for ours, exact, drains in subproblems_and_exact(scenario):
            if exact is not None:
                assert ours.status == "optimal"
                assert Fraction(ours.value) >= exact - Fraction(1e-12)
            if ours.status == "optimal":
                assert_subproblem_feasible(scenario, ours, drains)


class TestVertexTieRule:
    @pytest.mark.parametrize("field, value", [("lambda_se", 0.0), ("lambda_pe", 1.0)])
    def test_zero_objective_takes_first_point_mass(self, table_scenario, field, value):
        # every feasible policy gives mu_s = 0; the first candidate, e_1, wins
        outcome = solve(replace(table_scenario, **{field: value}))
        assert outcome.winner.value == 0.0
        assert outcome.winner.policy == PolicyVector.point_mass(10, 0)


class TestLargeTables:
    def test_hundred_durations_answer(self, table_scenario):
        rng = np.random.default_rng(100)
        scenario = replace(table_scenario, lambda_p=0.05, lambda_pe=0.4, lambda_se=0.3,
                           sensing_table=random_table(rng, 100))
        outcome = solve(scenario)
        assert outcome.status == "optimal"
        assert_policy_feasible(scenario, outcome)
        assert sum(p > 0.0 for p in outcome.winner.policy.probs) <= 3

    def test_past_the_bound_raises_before_enumerating(self, table_scenario, monkeypatch):
        monkeypatch.setattr(crsense.lp, "_supports", None)      # never reached
        rng = np.random.default_rng(101)
        scenario = replace(table_scenario, lambda_p=0.05, lambda_pe=0.4, lambda_se=0.3,
                           sensing_table=random_table(rng, crsense.lp.MAX_DURATIONS + 1))
        with pytest.raises(ValueError, match="101 durations exceed the bound of 100"):
            solve(scenario)


class TestRatesPassThrough:
    """Each returned policy is evaluated once, by ``analyze``, and its rates
    reach the outcome unchanged: the winner is the very subproblem result
    that ``winning_subproblem`` names."""

    @settings(max_examples=300, **SETTINGS)
    @given(scenarios(1, 10))
    @example(_THREE_POINT_OVERFLOW)
    @example(_THREE_POINT_DRAIN)
    @example(_TINY_DENOMINATOR)
    def test_rates_are_analyze_of_policy(self, scenario):
        outcome = solve(scenario)
        for result in (outcome.constrained, outcome.overflow):
            if result.status == "optimal":
                assert result.rates == analyze(scenario, result.policy)
                assert result.value == result.rates.mu_s
            else:
                assert result.policy is None and result.rates is None
                assert result.value == 0.0
        named = {"constrained": outcome.constrained, "overflow": outcome.overflow,
                 "none": optimizer._INFEASIBLE}
        assert outcome.winner is named[outcome.winning_subproblem]
        assert outcome.status == outcome.winner.status
        feasible = "optimal" in (outcome.constrained.status, outcome.overflow.status)
        assert outcome.status == ("optimal" if feasible else "infeasible")

    @pytest.mark.parametrize("lam_p, lam_pe, lam_se, statuses", [
        (0.0, 0.2, 0.8, ("optimal", "optimal")),      # overflow row added, LP re-solved
        (0.0, 0.4, 0.7, ("infeasible", "optimal")),
        (0.1, 0.4, 0.4, ("optimal", "infeasible")),
        (0.2, 0.2, 0.3, ("infeasible", "infeasible")),
    ])
    def test_one_analyze_per_optimal_subproblem(self, table_scenario, monkeypatch,
                                                lam_p, lam_pe, lam_se, statuses):
        evaluated = []
        real = optimizer.analyze

        def counting(scenario, policy, *args, **kwargs):
            evaluated.append(policy)
            return real(scenario, policy, *args, **kwargs)

        monkeypatch.setattr(optimizer, "analyze", counting)
        outcome = solve(replace(table_scenario, lambda_p=lam_p, lambda_pe=lam_pe,
                                lambda_se=lam_se))
        results = (outcome.constrained, outcome.overflow)
        assert tuple(r.status for r in results) == statuses
        assert evaluated == [r.policy for r in results if r.status == "optimal"]
