"""Sensing-duration policy optimization.

The opportunistic node picks a probability distribution over the available
sensing durations to maximize its own data service rate while keeping the
licensed node's queue stable (arrival rate below service rate). The shape of
the objective depends on the state of the energy buffer:

* while harvests are the bottleneck (``lambda_se <= mu_se``) the throughput
  is a ratio of two affine functions of the policy, a linear-fractional
  program;
* once the buffer saturates (``lambda_se >= mu_se``) the cap makes the
  problem an ordinary linear program, independent of the harvest rate.

Both are programs over the probability simplex with at most two side rows,
solved by ``lp.solve_lp``, which enumerates the vertices of the feasible
set. Both regimes are solved and the better feasible answer wins; ties go to
the saturated regime because its policy does not depend on the harvest rate.

Both programs are written in ``analytics.coefficients``, and each subproblem
evaluates the policy it returns once, with ``analytics.analyze``; the
outcome carries the winner's rates as they are.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analytics import AnalyticRates, PolicyVector, Scenario, analyze, coefficients
from .lp import CONSTRAINT_TOL, solve_lp  # noqa: F401  (CONSTRAINT_TOL is re-exported)

_REGIME_TOL = 1e-12


@dataclass(frozen=True)
class SubproblemResult:
    status: str                      # "optimal" | "infeasible"
    policy: PolicyVector | None
    rates: AnalyticRates | None      # closed-form rates at the policy

    @property
    def value(self) -> float:
        """Attained mu_s (0.0 when infeasible)."""
        return self.rates.mu_s if self.rates is not None else 0.0


_INFEASIBLE = SubproblemResult("infeasible", None, None)


@dataclass(frozen=True)
class OptimizationOutcome:
    status: str                      # "optimal" | "infeasible"
    best_policy: PolicyVector | None
    best_mu_s: float
    winning_subproblem: str          # "constrained" | "overflow" | "none"
    constrained: SubproblemResult
    overflow: SubproblemResult
    rates: AnalyticRates | None      # closed-form rates at the best policy


def _policy_from(raw: np.ndarray) -> PolicyVector:
    # vertices are accepted up to CONSTRAINT_TOL; clip and renormalize
    clipped = np.clip(raw, 0.0, None)
    return PolicyVector(tuple(clipped / clipped.sum()))


def solve_constrained_subproblem(scenario: Scenario) -> SubproblemResult:
    """Best policy while the energy buffer drains (lambda_se <= mu_se).

    The throughput is (lambda_se / mu_se(P)) * (1 - lambda_pe) * (u @ P).
    Multiplying the licensed-stability constraint through by the positive
    denominator makes it affine in P, so the whole problem is a
    linear-fractional program over the simplex with two side rows.
    """
    w, u, d, cap = coeffs = coefficients(scenario)
    lam_p, lam_se = scenario.lambda_p, scenario.lambda_se
    numerator = lam_se * (1.0 - scenario.lambda_pe) * u
    rows = np.vstack([
        cap * lam_se * d - (cap - lam_p) * w,   # licensed queue stays stable
        -w,                                      # regime: consumption covers harvest
    ])
    solution = solve_lp(numerator, w, rows, [0.0, -lam_se])
    if solution.status != "optimal":
        return _INFEASIBLE
    policy = _policy_from(solution.x)
    return SubproblemResult("optimal", policy, analyze(scenario, policy, coeffs))


def solve_overflow_subproblem(scenario: Scenario) -> SubproblemResult:
    """Best policy when the energy buffer stays full (lambda_se >= mu_se).

    The cap removes the harvest rate from the objective, leaving a plain
    linear program (a ratio with denominator sum(P) == 1). It is solved
    without the regime row first; if the unconstrained optimum already
    consumes no more than the harvest rate the row is slack and the answer
    (and hence the whole plateau beyond it) is exactly reproducible,
    otherwise the row is added and the LP re-solved.
    """
    w, u, d, cap = coeffs = coefficients(scenario)
    c = (1.0 - scenario.lambda_pe) * u
    ones = np.ones(scenario.num_durations)
    primary_row = (cap * d)[None, :]
    primary_rhs = cap - scenario.lambda_p
    solution = solve_lp(c, ones, primary_row, [primary_rhs])
    if solution.status != "optimal":
        return _INFEASIBLE
    policy = _policy_from(solution.x)
    if float(w @ policy.as_array()) > scenario.lambda_se + _REGIME_TOL:
        solution = solve_lp(c, ones, np.vstack([primary_row, w]),
                            [primary_rhs, scenario.lambda_se])
        if solution.status != "optimal":
            return _INFEASIBLE
        policy = _policy_from(solution.x)
    return SubproblemResult("optimal", policy, analyze(scenario, policy, coeffs))


def solve(scenario: Scenario) -> OptimizationOutcome:
    """Run both regime subproblems and keep the better feasible answer.

    Infeasible overall means no policy keeps the licensed queue stable, which
    happens exactly when lambda_p exceeds the best reachable mu_p. Ties
    between the regimes go to the saturated one, whose policy is independent
    of the harvest rate and therefore more robust to it. The drain regime
    wins only with a policy strictly inside it (mu_se > lambda_se): on the
    boundary the saturated problem's feasible set holds the same policy, so
    a lead there is round-off.
    """
    constrained = solve_constrained_subproblem(scenario)
    overflow = solve_overflow_subproblem(scenario)
    if constrained.status != "optimal" and overflow.status != "optimal":
        return OptimizationOutcome(
            "infeasible", None, 0.0, "none", constrained, overflow, None)
    if constrained.status == "optimal" and (
            overflow.status != "optimal" or (
                constrained.value > overflow.value
                and constrained.rates.mu_se > scenario.lambda_se + _REGIME_TOL)):
        winner, side = constrained, "constrained"
    else:
        winner, side = overflow, "overflow"
    return OptimizationOutcome(
        "optimal", winner.policy, winner.value, side, constrained, overflow, winner.rates)
