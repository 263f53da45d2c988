"""Reference oracle for the vertex enumerator in ``crsense.lp``: a dense
tableau two-phase simplex (Bland's rule, with a perturbation retry) and the
Charnes-Cooper lift of a linear-fractional program to a linear program
(Charnes & Cooper 1962), plus the two regime subproblems solved through them.

This is the route the package took before it enumerated vertices. It shares
no code with the enumerator beyond the ``StandardFormLP``/``LPSolution``
containers and the closed-form rates, so the randomized tests can hold the
two against each other.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from crsense.analytics import (
    PolicyVector,
    Scenario,
    analyze,
    consumption_weights,
    success_weights,
)
from crsense.lp import LPSolution, StandardFormLP
from crsense.optimizer import SubproblemResult

FEASIBILITY_TOL = 1e-8      # constraint slack accepted on returned solutions
_PIVOT_TOL = 1e-10
_REDUCED_COST_TOL = 1e-9
_MAX_ITERATIONS = 50_000
_DEGENERATE_T = 1e-12
_REGIME_TOL = 1e-12


class LPError(RuntimeError):
    """The solver could not produce a trustworthy answer."""


class _NumericalTrouble(RuntimeError):
    pass


def _pivot(tableau: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    tableau[row] /= tableau[row, col]
    factors = tableau[:, col].copy()
    factors[row] = 0.0
    tableau -= np.outer(factors, tableau[row])
    basis[row] = col


def _optimize(tableau: np.ndarray, basis: np.ndarray, cvec: np.ndarray) -> str:
    """Run simplex iterations in place until optimal or unbounded."""
    ncols = tableau.shape[1] - 1
    for _ in range(_MAX_ITERATIONS):
        reduced = cvec[:ncols] - cvec[basis] @ tableau[:, :ncols]
        reduced[basis] = 0.0
        improving = np.nonzero(reduced > _REDUCED_COST_TOL)[0]
        if improving.size == 0:
            return "optimal"
        col = int(improving[0])                       # Bland: lowest index enters
        column = tableau[:, col]
        rows = np.nonzero(column > _PIVOT_TOL)[0]
        if rows.size == 0:
            return "unbounded"
        ratios = tableau[rows, -1] / column[rows]
        tied = rows[ratios <= ratios.min() + 1e-12]
        row = int(tied[np.argmin(basis[tied])])       # Bland: lowest basic index leaves
        _pivot(tableau, basis, row, col)
    raise _NumericalTrouble("simplex iteration limit reached")


def _simplex_core(c, a_eq, b_eq, a_ub, b_ub, tol) -> LPSolution:
    n = c.size
    m_eq, m_ub = a_eq.shape[0], a_ub.shape[0]
    m = m_eq + m_ub
    if m == 0:
        # only nonnegativity: the origin is optimal unless some c_j pays to grow
        if np.any(c > _REDUCED_COST_TOL):
            return LPSolution("unbounded")
        return LPSolution("optimal", np.zeros(n), 0.0)

    body = np.zeros((m, n + m_ub))
    body[:m_eq, :n] = a_eq
    body[m_eq:, :n] = a_ub
    body[m_eq:, n:] = np.eye(m_ub)
    rhs = np.concatenate([b_eq, b_ub])
    negative = rhs < 0
    body[negative] *= -1.0
    rhs = np.abs(rhs)

    basis = np.full(m, -1, dtype=int)
    needs_artificial = []
    for i in range(m):
        if i >= m_eq and not negative[i]:
            basis[i] = n + (i - m_eq)                 # slack starts basic
        else:
            needs_artificial.append(i)

    n_slack = m_ub
    n_art = len(needs_artificial)
    tableau = np.hstack([body, np.zeros((m, n_art)), rhs[:, None]])
    for k, i in enumerate(needs_artificial):
        tableau[i, n + n_slack + k] = 1.0
        basis[i] = n + n_slack + k

    if n_art:
        phase1 = np.zeros(n + n_slack + n_art)
        phase1[n + n_slack:] = -1.0                   # maximize -sum(artificials)
        if _optimize(tableau, basis, phase1) != "optimal":
            raise _NumericalTrouble("phase 1 failed to converge")  # bounded by 0
        if -(phase1[basis] @ tableau[:, -1]) > tol:
            return LPSolution("infeasible")
        # drive leftover artificials (all at level ~0) out of the basis
        drop = []
        for i in range(m):
            if basis[i] >= n + n_slack:
                candidates = np.nonzero(np.abs(tableau[i, : n + n_slack]) > _PIVOT_TOL)[0]
                if candidates.size:
                    _pivot(tableau, basis, i, int(candidates[0]))
                else:
                    drop.append(i)                    # redundant constraint row
        if drop:
            keep = [i for i in range(m) if i not in drop]
            tableau = tableau[keep]
            basis = basis[keep]
        tableau = np.delete(tableau, np.s_[n + n_slack: n + n_slack + n_art], axis=1)

    phase2 = np.concatenate([c, np.zeros(n_slack)])
    status = _optimize(tableau, basis, phase2)
    if status == "unbounded":
        return LPSolution("unbounded")
    x_full = np.zeros(n + n_slack)
    x_full[basis] = tableau[:, -1]
    x = x_full[:n]
    return LPSolution("optimal", x, float(c @ x))


def _validates(lp: StandardFormLP, x: np.ndarray, tol: float) -> bool:
    if x is None or np.any(x < -1e-10):
        return False
    if lp.a_eq.size and np.max(np.abs(lp.a_eq @ x - lp.b_eq)) > tol:
        return False
    if lp.a_ub.size and np.max(lp.a_ub @ x - lp.b_ub) > tol:
        return False
    return True


def simplex_lp(lp: StandardFormLP, tol: float = FEASIBILITY_TOL) -> LPSolution:
    """Deterministic two-phase simplex; returns a vertex when optimal."""
    try:
        sol = _simplex_core(lp.objective, lp.a_eq, lp.b_eq, lp.a_ub, lp.b_ub, tol)
        if sol.status != "optimal" or _validates(lp, sol.x, tol):
            return sol
    except _NumericalTrouble:
        pass
    # Stalled or drifted: nudge the right-hand sides deterministically, then
    # insist the recovered vertex satisfies the *original* data.
    m_eq, m_ub = lp.b_eq.size, lp.b_ub.size
    bump_eq = 1e-9 * (1.0 + np.abs(lp.b_eq)) * np.arange(1, m_eq + 1)
    bump_ub = 1e-9 * (1.0 + np.abs(lp.b_ub)) * np.arange(1, m_ub + 1)
    try:
        sol = _simplex_core(lp.objective, lp.a_eq, lp.b_eq + bump_eq,
                            lp.a_ub, lp.b_ub + bump_ub, tol)
    except _NumericalTrouble as exc:
        raise LPError(f"simplex failed even after perturbation: {exc}") from exc
    if sol.status != "optimal":
        raise LPError(f"perturbed problem reported {sol.status}; original undecided")
    if not _validates(lp, sol.x, tol):
        raise LPError("perturbation fallback produced an invalid vertex")
    return LPSolution("optimal", sol.x, float(lp.objective @ sol.x))


class DegenerateFractionalError(RuntimeError):
    """The lifted program drove the denominator scale to zero."""


@dataclass(frozen=True)
class FractionalProgram:
    """maximize (numerator @ P) / (denominator @ P) over the probability
    simplex, subject to a_ub @ P <= b_ub. The simplex constraint is implicit.
    """

    numerator: np.ndarray
    denominator: np.ndarray
    a_ub: np.ndarray
    b_ub: np.ndarray


@dataclass(frozen=True)
class LiftedLP:
    """Linear program over (y, t) = (P * t, 1 / (denominator @ P))."""

    lp: StandardFormLP
    num_policy_vars: int

    def recover(self, x: np.ndarray) -> np.ndarray:
        """Map a lifted solution back to the simplex; P = y / t."""
        t = float(x[self.num_policy_vars])
        if t <= _DEGENERATE_T:
            raise DegenerateFractionalError(
                f"lifted scale t = {t!r}; the denominator is unbounded on the feasible set"
            )
        return np.asarray(x[: self.num_policy_vars], dtype=float) / t


def fractional_to_lp(problem: FractionalProgram) -> LiftedLP:
    """Lift a ratio objective over the simplex to a linear program.

    The substitution y = t * P with t = 1 / (denominator @ P) pins the
    denominator to one, turns the simplex constraint into sum(y) = t, and
    scales every inequality row by t (a_ub @ y - b_ub * t <= 0). Ratios of
    affine functions become affine in (y, t), so the optimum transfers.
    """
    num = np.atleast_1d(np.asarray(problem.numerator, dtype=float))
    den = np.atleast_1d(np.asarray(problem.denominator, dtype=float))
    if num.shape != den.shape:
        raise ValueError("numerator and denominator must have equal length")
    m = num.size
    c = np.append(num, 0.0)
    a_eq = np.vstack([
        np.append(den, 0.0),             # denominator @ y == 1
        np.append(np.ones(m), -1.0),     # sum(y) == t
    ])
    b_eq = np.array([1.0, 0.0])
    a_ub = np.atleast_2d(np.asarray(problem.a_ub, dtype=float))
    b_ub = np.atleast_1d(np.asarray(problem.b_ub, dtype=float))
    if a_ub.size:
        lifted_ub = np.hstack([a_ub, -b_ub[:, None]])
        lifted_rhs = np.zeros(b_ub.size)
    else:
        lifted_ub, lifted_rhs = None, None
    return LiftedLP(StandardFormLP(c, a_eq, b_eq, lifted_ub, lifted_rhs), m)


def _policy_from(raw: np.ndarray) -> PolicyVector:
    # LP round-off can leave ~1e-16 negatives; clean and renormalize
    clipped = np.clip(raw, 0.0, None)
    total = clipped.sum()
    if total <= 0.0:
        raise LPError("recovered policy has no mass")
    return PolicyVector(tuple(clipped / total))


def _coefficients(scenario: Scenario):
    w = consumption_weights(scenario)
    u = success_weights(scenario)
    d = scenario.misdetect_probs()
    cap = scenario.lambda_pe * (1.0 - scenario.primary_outage)
    return w, u, d, cap


def constrained_reference(scenario: Scenario) -> SubproblemResult:
    """The drain-regime subproblem through the lift and the simplex."""
    w, u, d, cap = _coefficients(scenario)
    lam_se = scenario.lambda_se
    numerator = lam_se * (1.0 - scenario.lambda_pe) * u
    rows = np.vstack([cap * lam_se * d - (cap - scenario.lambda_p) * w, -w])
    lifted = fractional_to_lp(FractionalProgram(numerator, w, rows, np.array([0.0, -lam_se])))
    solution = simplex_lp(lifted.lp)
    if solution.status == "unbounded":
        raise LPError("lifted regime problem reported unbounded; inputs out of range")
    if solution.status != "optimal":
        return SubproblemResult("infeasible", 0.0, None)
    policy = _policy_from(lifted.recover(solution.x))
    return SubproblemResult("optimal", analyze(scenario, policy).mu_s, policy)


def overflow_reference(scenario: Scenario) -> SubproblemResult:
    """The saturated-regime subproblem through the simplex, relaxed first."""
    w, u, d, cap = _coefficients(scenario)
    m = scenario.num_durations
    c = (1.0 - scenario.lambda_pe) * u
    ones = np.ones((1, m))
    primary_row = (cap * d)[None, :]
    primary_rhs = np.array([cap - scenario.lambda_p])
    solution = simplex_lp(StandardFormLP(c, ones, [1.0], primary_row, primary_rhs))
    if solution.status != "optimal":
        return SubproblemResult("infeasible", 0.0, None)
    policy = _policy_from(solution.x)
    if float(w @ policy.as_array()) > scenario.lambda_se + _REGIME_TOL:
        solution = simplex_lp(StandardFormLP(
            c, ones, [1.0], np.vstack([primary_row, w[None, :]]),
            np.append(primary_rhs, scenario.lambda_se)))
        if solution.status != "optimal":
            return SubproblemResult("infeasible", 0.0, None)
        policy = _policy_from(solution.x)
    return SubproblemResult("optimal", analyze(scenario, policy).mu_s, policy)
