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

Both programs are written in ``Scenario.coefficients``, which a scenario
builds once and ``analytics.analyze`` reads too; each subproblem evaluates
the policy it returns once, with ``analyze``. The outcome keeps both
subproblem results and the winner's name; its policy, mu_s and rates are
those of ``outcome.winner``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analytics import AnalyticRates, PolicyVector, Scenario, analyze
from .lp import LPSolution, solve_lp

_REGIME_TOL = 1e-12


@dataclass(frozen=True)
class SubproblemResult:
    policy: PolicyVector | None      # None when the subproblem is infeasible
    rates: AnalyticRates | None      # closed-form rates at the policy

    @property
    def status(self) -> str:
        """The result's status: "optimal", or "infeasible" without a policy."""
        return "infeasible" if self.policy is None else "optimal"

    @property
    def value(self) -> float:
        """Attained mu_s (0.0 when infeasible)."""
        return self.rates.mu_s if self.rates is not None else 0.0


_INFEASIBLE = SubproblemResult(None, None)


@dataclass(frozen=True)
class OptimizationOutcome:
    winning_subproblem: str          # "constrained" | "overflow" | "none"
    constrained: SubproblemResult
    overflow: SubproblemResult

    @property
    def winner(self) -> SubproblemResult:
        """The named subproblem's result; the infeasible result for "none"."""
        if self.winning_subproblem == "constrained":
            return self.constrained
        return self.overflow if self.winning_subproblem == "overflow" else _INFEASIBLE

    @property
    def status(self) -> str:
        """The winner's status: "optimal", or "infeasible" for "none"."""
        return self.winner.status


def _vertex(solution: LPSolution) -> PolicyVector | None:
    """The solution's policy, None when the program is infeasible. Vertices
    are accepted up to CONSTRAINT_TOL, so the point is clipped and
    renormalized."""
    if solution.status != "optimal":
        return None
    clipped = np.maximum(solution.x, 0.0)
    return PolicyVector(tuple((clipped / clipped.sum()).tolist()))


def _result(scenario: Scenario, policy: PolicyVector | None) -> SubproblemResult:
    """The subproblem's answer at its vertex, evaluated once with ``analyze``."""
    if policy is None:
        return _INFEASIBLE
    return SubproblemResult(policy, analyze(scenario, policy))


def solve_constrained_subproblem(scenario: Scenario) -> SubproblemResult:
    """Best policy while the energy buffer drains (lambda_se <= mu_se).

    The throughput is (lambda_se / mu_se(P)) * (1 - lambda_pe) * (u @ P).
    Multiplying the licensed-stability constraint through by the positive
    denominator makes it affine in P, so the whole problem is a
    linear-fractional program over the simplex with two side rows.
    """
    w, u, d, cap = scenario.coefficients
    lam_p, lam_se = scenario.lambda_p, scenario.lambda_se
    numerator = lam_se * (1.0 - scenario.lambda_pe) * u
    rows = np.array([
        cap * lam_se * d - (cap - lam_p) * w,   # licensed queue stays stable
        -w,                                      # regime: consumption covers harvest
    ])
    return _result(scenario, _vertex(solve_lp(numerator, w, rows, [0.0, -lam_se])))


def solve_overflow_subproblem(scenario: Scenario) -> SubproblemResult:
    """Best policy when the energy buffer stays full (lambda_se >= mu_se).

    The cap removes the harvest rate from the objective, leaving a plain
    linear program (a ratio with denominator sum(P) == 1). It is solved
    without the regime row first; if the unconstrained optimum already
    consumes no more than the harvest rate the row is slack and the answer
    (and hence the whole plateau beyond it) is exactly reproducible,
    otherwise the row is added and the LP re-solved.
    """
    w, u, d, cap = scenario.coefficients
    c = (1.0 - scenario.lambda_pe) * u
    ones = np.ones(scenario.num_durations)
    rows = np.array([cap * d, w])               # licensed stability, then the regime
    rhs = [cap - scenario.lambda_p, scenario.lambda_se]
    policy = _vertex(solve_lp(c, ones, rows[:1], rhs[:1]))
    if policy is not None and float(w @ policy.as_array()) > scenario.lambda_se + _REGIME_TOL:
        policy = _vertex(solve_lp(c, ones, rows, rhs))
    return _result(scenario, policy)


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
    if constrained.status == "optimal" and (
            overflow.status != "optimal" or (
                constrained.value > overflow.value
                and constrained.rates.mu_se > scenario.lambda_se + _REGIME_TOL)):
        side = "constrained"
    elif overflow.status == "optimal":
        side = "overflow"
    else:
        side = "none"
    return OptimizationOutcome(side, constrained, overflow)
