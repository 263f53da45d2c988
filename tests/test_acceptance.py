"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line, or use
``crsense check <scenario>`` for the same checks outside pytest.

Two checks state the property the model has rather than an idealized one
that it provably lacks:

* criterion 7, part (b): for a fixed policy, throughput never falls as the
  harvest rate grows, so the optimum at lambda_se = 0.4 must reach the one
  at 0.2 wherever the 0.2 optimum still keeps the licensed queue stable at
  0.4. The same higher occupancy raises the interference the licensed queue
  sees, and the opportunistic node cannot leave harvested energy unused.
  So a licensed load can be stable at 0.2 and unstable at 0.4: on this
  table the band is lambda_p in (0.26972, 0.27486], hit by the 0.01 grid at
  lambda_p = 0.27, where the best reachable mu_p at 0.4 is 0.26972 and the
  optimum drops from 0.112592 to infeasible. Such drops are reported, not
  failed.

* criterion 8: the saturated twin spends licensed energy every slot, so its
  licensed node is sometimes silent in slots where the original's node
  transmits. Under shared draws the twin's opportunistic node can then
  deliver a packet while the original's collides, pushing the twin's data
  queue below the original's; a three-slot construction from the empty
  state is in ``criterion_8_dominance``, and the sampled runs show 96639
  such (slot, queue) inversions. The check asserts what the coupling does
  guarantee, slot by slot: the twin's licensed energy queue never exceeds
  the original's, and wherever both systems agree on which energy buffers
  are empty, neither of the twin's service indicators exceeds the
  original's.
"""

from dataclasses import fields, replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from crsense import acceptance as acc
from crsense import sweep
from crsense.analytics import PolicyVector, Scenario, analyze
from crsense.channel import SensingOption
from crsense.simulator import SlotTrace

GOLDEN = Path(__file__).parent / "golden"


def _check(result):
    print(acc.format_result(result))
    assert result.passed, result.detail


def test_criterion_1_outage_monotonicity():
    _check(acc.criterion_1_outage_monotonicity())


def test_criterion_2_sim_vs_analytics(table_scenario):
    _check(acc.criterion_2_sim_vs_analytics(table_scenario))


def test_criterion_3_occupancy(table_scenario):
    _check(acc.criterion_3_occupancy(table_scenario))


@pytest.mark.parametrize("criterion, calls, horizon, seeds, warmup", [
    (acc.criterion_2_sim_vs_analytics, 1, 1_000_000, [1], 10_000),
    (acc.criterion_3_occupancy, 20, 500_000, list(range(100, 120)), 20_000),
])
def test_saturated_criteria_grade_through_the_sweep_cross_check(
        table_scenario, monkeypatch, criterion, calls, horizon, seeds, warmup):
    # criteria 2 and 3 run and grade their simulations through the one
    # saturated path; the spy runs each config on a short horizon
    seen = []
    real = sweep.compare_sim_vs_analytic

    def spy(config):
        seen.append(config)
        return real(replace(config, horizon=5_000, warmup=500))

    monkeypatch.setattr(sweep, "compare_sim_vs_analytic", spy)
    criterion(table_scenario)
    assert len(seen) == calls
    assert sorted(config.seed for config in seen) == seeds
    assert {(config.mode, config.horizon, config.warmup) for config in seen} == {
        ("dominant", horizon, warmup)}


def test_criterion_4_optimizer_vs_bruteforce(table_scenario):
    _check(acc.criterion_4_optimizer_vs_bruteforce(table_scenario))


def test_criterion_5_infeasibility_threshold(table_scenario):
    _check(acc.criterion_5_infeasibility_threshold(table_scenario))


def test_criterion_6_plateau(table_scenario):
    _check(acc.criterion_6_plateau(table_scenario))


def test_criterion_7_frontier(table_scenario, monkeypatch):
    solved = []
    real = sweep.solve

    def counting(scenario, constrained=None):
        solved.append(scenario)
        return real(scenario, constrained)

    monkeypatch.setattr(sweep, "solve", counting)
    _check(acc.criterion_7_frontier(table_scenario))
    assert len(solved) == 3 * 101           # each of the three sweeps runs once


@pytest.mark.parametrize("numbers,sweeps", [([5], 1), ([7], 3), ([5, 7], 3), ([4, 5, 7, 9], 3)])
def test_criteria_5_and_7_share_the_lambda_pe_sweep(table_scenario, monkeypatch, numbers,
                                                    sweeps):
    # both read the lambda_pe sweep at lambda_p=0.2 and lambda_se=0.4;
    # run together, they solve it once
    expected = {5: acc.criterion_5_infeasibility_threshold(table_scenario),
                7: acc.criterion_7_frontier(table_scenario)}
    for n in (4, 9):
        monkeypatch.setitem(acc._CRITERIA, n, lambda scenario, n=n: n)
    solved = []
    real = sweep.solve

    def counting(scenario, constrained=None):
        solved.append(scenario)
        return real(scenario, constrained)

    monkeypatch.setattr(sweep, "solve", counting)
    results = acc.run_all(table_scenario, numbers)
    assert results == [expected.get(n, n) for n in numbers]
    assert len(solved) == sweeps * 101


@pytest.fixture(scope="module")
def frontier(table_scenario):
    return acc.criterion_7_frontier(table_scenario)


def _frontier_part(result, part, label):
    """The issues criterion 7 reports under ``(part)``, printed as one line."""
    issues = [issue for issue in result.detail.split("; forced drops in (b): ", 1)[0]
              .split("; ") if issue.startswith(f"({part}) ")]
    print(f"criterion 7{part} [{label}] {'FAIL: ' + '; '.join(issues) if issues else 'PASS'}")
    return issues


def test_criterion_7a_mu_s_nonincreasing_in_lambda_p(frontier):
    assert not _frontier_part(frontier, "a", "mu_s vs lambda_p")


def test_criterion_7b_mu_s_nondecreasing_in_lambda_se(frontier):
    assert not _frontier_part(frontier, "b", "mu_s vs lambda_se")


def test_criterion_7c_mu_p_nondecreasing_in_lambda_pe(frontier):
    assert not _frontier_part(frontier, "c", "mu_p vs lambda_pe")


def test_criterion_8_dominance(table_scenario):
    _check(acc.criterion_8_dominance(table_scenario))


def test_criterion_9_determinism(table_scenario):
    _check(acc.criterion_9_determinism(table_scenario))


def test_criterion_7b_reports_the_forced_drop(table_scenario):
    # the line the grid-criteria golden file pins: one drop, at lambda_p=0.27,
    # from 0.112592 to infeasible, forced because no policy reaches
    # mu_p=0.27 at lambda_se=0.4
    pinned = (GOLDEN / "table1_check_5_6_7.txt").read_text().splitlines()[2]
    result = acc.criterion_7_frontier(table_scenario)
    assert acc.format_result(result) == pinned
    forced = result.detail.split("; forced drops in (b): ", 1)[1]
    assert forced == (
        "lambda_p=0.27: mu_s 0.112592 at lambda_se=0.2 -> 0.000000 at 0.4, forced by "
        "licensed stability (the 0.2 optimum gives mu_p=0.260000 at 0.4, best reachable "
        "mu_p=0.269725)")


def _rigged_solve(monkeypatch, lambda_p, rig):
    """Let ``rig`` rewrite the lambda_se=0.4 optimum at one licensed load of
    the sweeps criterion 7 reads."""
    real = sweep.solve

    def solve(scenario, constrained=None):
        outcome = real(scenario, constrained)
        if scenario.lambda_se == 0.4 and abs(scenario.lambda_p - lambda_p) < 1e-9:
            return rig(outcome)
        return outcome

    monkeypatch.setattr(sweep, "solve", solve)


def _scaled_winner(outcome, factor):
    winner = outcome.winner
    rates = replace(winner.rates, mu_s=factor * winner.rates.mu_s)
    return replace(outcome, **{outcome.winning_subproblem: replace(winner, rates=rates)})


def test_criterion_7b_catches_drop_where_low_optimum_stays_feasible(
        table_scenario, monkeypatch):
    # at lambda_p=0.10 the lambda_se=0.2 optimum keeps mu_p=0.2313 at 0.4
    _rigged_solve(monkeypatch, 0.10, lambda o: _scaled_winner(o, 0.25))
    result = acc.criterion_7_frontier(table_scenario)
    assert not result.passed
    assert "(b) lambda_p=0.10: " in result.detail
    assert "optimizer fault" in result.detail


def test_criterion_7b_catches_infeasible_verdict_with_reachable_mu_p(
        table_scenario, monkeypatch):
    # at lambda_p=0.26 the low optimum fails at 0.4, but other policies reach
    # mu_p=0.2697, so declaring the point infeasible is an optimizer fault
    _rigged_solve(monkeypatch, 0.26, lambda o: replace(o, winning_subproblem="none"))
    result = acc.criterion_7_frontier(table_scenario)
    assert not result.passed
    assert "(b) lambda_p=0.26: " in result.detail
    assert "-> 0.000000 at 0.4, optimizer fault" in result.detail


_LOW_CONSUMPTION = Scenario(0.05, 0.1, 0.4, 0.4, 0.1, (
    SensingOption(1, 0.95, 0.95, 0.1), SensingOption(2, 0.96, 0.96, 0.2)))


def test_criterion_3_gives_up_where_no_policy_consumes_enough():
    # every consumption weight is 0.05 for any lambda_pe, below the 0.12
    # the occupancy scenarios need
    result = acc.criterion_3_occupancy(_LOW_CONSUMPTION)
    assert not result.passed
    assert result.detail == (f"scenario 0: no drawn policy reached mu_se >= 0.12 "
                             f"in {acc._OCCUPANCY_DRAWS} draws")


def exact_best_mu_p(scenario) -> Fraction:
    """cap * (1 - min g) with g(P) = min(lambda_se / (w @ P), 1) * (d @ P),
    from one exact program on each side of w @ P = lambda_se: above it g is
    linear-fractional, below it linear."""
    w, _, d, cap = scenario.coefficients
    lam_se = scenario.lambda_se
    draining = acc.exact_ratio_program(-lam_se * d, w, [-w], [-lam_se])
    saturated = acc.exact_ratio_program(-d, np.ones(d.size), [w], [lam_se])
    min_g = min(-v for v in (draining, saturated) if v is not None)
    return Fraction(cap) * (1 - min_g)


def test_best_reachable_mu_p_is_the_maximum(table_scenario, sub3_scenario):
    rng = np.random.default_rng(5)
    for scenario in (replace(table_scenario, lambda_pe=0.4, lambda_se=0.4),
                     replace(table_scenario, lambda_pe=0.7, lambda_se=0.1)):
        best = acc.best_reachable_mu_p(scenario)
        for _ in range(500):
            raw = rng.random(scenario.num_durations) ** 4
            policy = PolicyVector(tuple(raw / raw.sum()))
            assert analyze(scenario, policy).mu_p <= best + 1e-12
        assert abs(Fraction(best) - exact_best_mu_p(scenario)) <= 1e-12
    for lam_se in (0.05, 0.3, 0.6, 0.95):
        scenario = replace(sub3_scenario, lambda_pe=0.5, lambda_se=lam_se)
        assert abs(Fraction(acc.best_reachable_mu_p(scenario))
                   - exact_best_mu_p(scenario)) <= 1e-12


def _trace(n=3, **columns):
    """Hand-made slot trace: all-zero columns unless given."""
    return SlotTrace(**{f.name: np.asarray(columns.get(f.name, [0] * n))
                        for f in fields(SlotTrace)})


def test_coupling_audit_accepts_ordered_pair():
    # the twin's energy runs out in slot 1 (mismatched slot), where its
    # opportunistic node serves and the original's does not: an inversion
    # outside the matched slots breaks neither ordering
    original = _trace(q_pe=[1, 1, 1], q_se=[1, 1, 1], q_s=[1, 1, 0], r_s=[0, 0, 0])
    twin = _trace(q_pe=[1, 0, 0], q_se=[1, 1, 1], q_s=[1, 1, 0], r_s=[0, 1, 0])
    audit = acc.audit_coupling(original, twin)
    assert audit == acc.CouplingAudit(slots=3, energy_violations=0, matched_slots=1,
                                      service_violations=0, inversions=1)


def test_coupling_audit_flags_energy_order():
    original = _trace(q_pe=[0, 1, 0])
    twin = _trace(q_pe=[0, 2, 0])
    assert acc.audit_coupling(original, twin).energy_violations == 1


@pytest.mark.parametrize("rate", ["r_p", "r_s"])
def test_coupling_audit_flags_service_in_matched_slot(rate):
    original = _trace(q_pe=[1, 1, 1], q_se=[1, 0, 1])
    twin = _trace(q_pe=[1, 1, 1], q_se=[1, 0, 1], **{rate: [0, 1, 0]})
    audit = acc.audit_coupling(original, twin)
    assert audit.matched_slots == 3
    assert audit.service_violations == 1


def test_coupling_audit_rejects_unequal_horizons():
    with pytest.raises(ValueError):
        acc.audit_coupling(_trace(3), _trace(4))


def test_criterion_8_fails_on_a_broken_ordering(table_scenario, monkeypatch):
    real = acc.audit_coupling
    monkeypatch.setattr(acc, "audit_coupling",
                        lambda a, b: real(a, b)._replace(service_violations=1))
    monkeypatch.setattr(acc, "_DOMINANCE_COUNT", 2)
    monkeypatch.setattr(acc, "_DOMINANCE_HORIZON", 2_000)
    result = acc.criterion_8_dominance(table_scenario)
    assert not result.passed
    assert "in 2 of" in result.detail
