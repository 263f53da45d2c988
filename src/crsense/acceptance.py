"""Executable acceptance checks for the whole package.

Each criterion is a function returning a ``CriterionResult``; ``run_all``
evaluates a scenario (expected to be a ten-duration table like the bundled
one) against all of them. The checks deliberately cross different routes
through the code: closed forms against the slot simulator, the optimizer
against an exact oracle in rational arithmetic, monotonicity claims against
parameter sweeps, the original system against its saturated twin on shared
draws.

The oracles below recompute the per-duration weights straight from the
sensing table instead of calling the analytics helpers, so that a bug in the
production path cannot hide inside its own oracle. ``exact_ratio_program``
solves a ratio program over the simplex by enumerating the bases of its
Charnes-Cooper lift in integers; it shares no code with ``lp.solve_lp`` and
does not rely on the few-point supports that solver scores.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from . import sweep
from .analytics import PolicyVector, Scenario, analyze
from .channel import PhysicalLink, verify_outage_monotonicity
from .lp import CONSTRAINT_TOL
from .optimizer import solve_constrained_subproblem, solve_overflow_subproblem
from .simulator import SimConfig, SlotTrace, map_on_cpus, simulate, simulate_traced
from .sweep import SweepRow, SweepSpec, rows_to_csv, run_sweep


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str


def format_result(result: CriterionResult) -> str:
    flag = "PASS" if result.passed else "FAIL"
    return f"criterion {result.number} [{result.name}] {flag}: {result.detail}"


# --------------------------------------------------------------------------
# oracles


def _raw_weights(scenario: Scenario, number=float):
    """Per-duration consumption, success and misdetection weights straight
    from the table (oracle-side copy), in floats or, with ``number=Fraction``,
    exactly."""
    lam_pe = number(scenario.lambda_pe)
    w, u, d = [], [], []
    for option in scenario.sensing_table:
        miss = 1 - number(option.detection_prob)
        no_fa = 1 - number(option.false_alarm_prob)
        w.append(lam_pe * miss + (1 - lam_pe) * no_fa)
        u.append((1 - number(option.secondary_outage)) * no_fa)
        d.append(miss)
    return w, u, d


def _exact(values) -> list[Fraction]:
    """Each entry as a Fraction; floats convert exactly, and a non-finite
    entry raises ValueError."""
    out = []
    for v in values:
        if not isinstance(v, Fraction):
            if not math.isfinite(v := float(v)):
                raise ValueError(f"program entry {v} is not finite")
            v = Fraction(v)
        out.append(v)
    return out


def _integer_row(row: list[Fraction]) -> list[int]:
    """The row times the least common multiple of its denominators."""
    scale = math.lcm(*(f.denominator for f in row))
    return [f.numerator * (scale // f.denominator) for f in row]


def _basic_solutions(rows: list[list[int]], done: int = 0, previous: int = 1, first: int = 0):
    """Every nonsingular square choice of columns of the integer rows
    ``[A | rhs]``, solved by fraction-free Gauss-Jordan elimination (Bareiss
    1968), in which every division is exact. Yields the columns, the
    numerators of the solution and their common denominator.

    Column choices that share their first columns share those elimination
    steps. Each step pivots row ``done`` and keeps only the columns right of
    the pivot, since later pivots lie there; the last step keeps the rhs.
    """
    n = len(rows)
    if done == n:
        yield (), [row[-1] for row in rows], previous
        return
    width = len(rows[0]) - 1
    for j in range(width - (n - done - 1)):
        pivot = next((i for i in range(done, n) if rows[i][j]), None)
        if pivot is None:
            continue
        order = rows[:]
        order[done], order[pivot] = order[pivot], order[done]
        head = order[done]
        top = head[j]
        keep = j + 1 if done < n - 1 else width
        reduced = [row[keep:] if i == done else
                   [(top * x - row[j] * h) // previous for x, h in zip(row[keep:], head[keep:])]
                   for i, row in enumerate(order)]
        for columns, values, scale in _basic_solutions(reduced, done + 1, top, first + keep):
            yield (first + j,) + columns, values, scale


def exact_ratio_program(numerator, denominator, a_ub, b_ub) -> Fraction | None:
    """Exact maximum of ``(numerator @ P) / (denominator @ P)`` over the
    probability simplex subject to ``a_ub @ P <= b_ub``, or None when no
    point is feasible. ``denominator @ P`` must be positive on the feasible
    set. Any number of side rows is accepted.

    Every input converts to a Fraction exactly. The Charnes-Cooper lift
    (Charnes & Cooper 1962), ``y = t * P`` with ``denominator @ y == 1``,
    turns the program into the linear one

        maximize numerator @ y  s.t.  denominator @ y == 1,  sum(y) - t == 0,
                                      a_ub @ y - b_ub * t + s == 0,  y, t, s >= 0,

    whose optimum is a basic feasible solution. Every feasible point has
    ``t = sum(y) > 0``, so ``t`` is basic in every feasible basis: its row
    is pivoted out once, leaving ``(a_ub - b_ub) @ y + s == 0`` row by row.
    Every basis of the remaining rows is enumerated and solved in integers,
    on rows scaled to integers. Nothing here uses how few entries a vertex
    of the original program has. Inputs whose lengths disagree raise
    ValueError.
    """
    num, den = _exact(numerator), _exact(denominator)
    m = len(num)
    b = _exact(b_ub)
    r = len(b)
    if len(den) != m or len(a_ub) != r or any(len(row) != m for row in a_ub):
        raise ValueError(
            f"program shapes disagree: {m} numerator and {len(den)} denominator "
            f"entries, a_ub rows of lengths {[len(row) for row in a_ub]}, {r} b_ub entries")
    # columns: y_1..y_m, s_1..s_r; the last entry of each row is its rhs
    lifted = [den + [Fraction(0)] * r + [Fraction(1)]]
    for k, row in enumerate(a_ub):
        lifted.append([x - b[k] for x in _exact(row)]
                      + [Fraction(int(j == k)) for j in range(r)] + [Fraction(0)])
    rows = [_integer_row(row) for row in lifted]
    best = None
    for basis, values, scale in _basic_solutions(rows):
        if any(v * scale < 0 for v in values):
            continue
        value = Fraction(sum(num[j] * v for j, v in zip(basis, values) if j < m), scale)
        if best is None or value > best:
            best = value
    return best


def exact_subproblems(scenario: Scenario) -> tuple[Fraction | None, Fraction | None]:
    """Exact optima of the drain-regime and the saturated-regime programs
    (mu_s), written in rationals straight from the sensing table; None where
    a program is infeasible.

    Drain regime: maximize (lambda_se / (w @ P)) * (1 - lambda_pe) * (u @ P)
    over w @ P >= lambda_se, with the licensed row lambda_p <= cap * (1 -
    lambda_se * (d @ P) / (w @ P)) multiplied through by w @ P. Saturated
    regime: maximize (1 - lambda_pe) * (u @ P) over w @ P <= lambda_se and
    lambda_p <= cap * (1 - d @ P).
    """
    w, u, d = _raw_weights(scenario, Fraction)
    lam_p, lam_pe, lam_se, outage = (Fraction(getattr(scenario, name)) for name in (
        "lambda_p", "lambda_pe", "lambda_se", "primary_outage"))
    cap = lam_pe * (1 - outage)
    gain = [(1 - lam_pe) * x for x in u]
    drain = exact_ratio_program(
        [lam_se * g for g in gain], w,
        [[cap * lam_se * di - (cap - lam_p) * wi for wi, di in zip(w, d)], [-wi for wi in w]],
        [0, -lam_se])
    overflow = exact_ratio_program(
        gain, [1] * len(w), [[cap * di for di in d], w], [cap - lam_p, lam_se])
    return drain, overflow


def best_reachable_mu_p(scenario: Scenario) -> float:
    """Largest licensed service rate any policy reaches, by exact enumeration.

    mu_p falls with g(P) = (d @ P) * min(lambda_se / (w @ P), 1). Where
    w @ P >= lambda_se, g is linear-fractional in P, elsewhere it is linear,
    so its minimum over the simplex sits at a point mass or where an edge of
    the simplex crosses the hyperplane w @ P = lambda_se. A crossing never
    beats a point mass: on the edge of e_i and e_j with w_i > lambda_se > w_j,
    g at the crossing is d @ P, a convex combination of d_i and d_j, while
    g(e_i) = lambda_se * d_i / w_i <= d_i and g(e_j) = d_j. So the point
    masses suffice.
    """
    w, _, d = (np.array(x) for x in _raw_weights(scenario))
    lam_se = scenario.lambda_se
    with np.errstate(divide="ignore", invalid="ignore"):
        occupancy = np.where(w > 0.0, np.minimum(lam_se / w, 1.0),
                             1.0 if lam_se > 0.0 else 0.0)
    cap = scenario.lambda_pe * (1.0 - scenario.primary_outage)
    return float((cap * (1.0 - occupancy * d)).max())


# --------------------------------------------------------------------------
# criteria

# sample sizes, horizons and seeds of the randomized criteria
_OUTAGE_LINKS, _OUTAGE_SEED = 1000, 7
_SIM_HORIZON, _SIM_SEED = 1_000_000, 1
_OCCUPANCY_COUNT, _OCCUPANCY_HORIZON, _OCCUPANCY_SEED = 20, 500_000, 3
_OCCUPANCY_DRAWS = 1000     # policy draws per scenario before giving up on mu_se >= 0.12
_BRUTEFORCE_COUNT, _BRUTEFORCE_SEED = 50, 42
_DOMINANCE_COUNT, _DOMINANCE_HORIZON, _DOMINANCE_SEED = 100, 10_000, 8
# slack of the grid criteria's comparisons between two optima
_GRID_TOL = 1e-10


def criterion_1_outage_monotonicity() -> CriterionResult:
    """Outage strictly increases with the sensing time on random links.

    Links are sampled so the outage exponent stays inside the range where
    float64 can still distinguish neighbouring values (no saturation at 1.0);
    the property itself is exact for every valid link.
    """
    rng = np.random.default_rng(_OUTAGE_SEED)
    violations = 0
    for _ in range(_OUTAGE_LINKS):
        r = 10.0 ** rng.uniform(math.log10(0.05), math.log10(1.2))   # b / (W T)
        top_exponent = 10.0 ** rng.uniform(-6.0, math.log10(25.0))   # at tau = 0.9 T
        sg = (2.0 ** (10.0 * r) - 1.0) / (10.0 * top_exponent)       # gain_var * snr0
        slot = 10.0 ** rng.uniform(-4.0, -2.0)
        bandwidth = 10.0 ** rng.uniform(5.0, 7.0)
        gain_var = 10.0 ** rng.uniform(-1.0, 1.0)
        noise = 10.0 ** rng.uniform(-9.0, -6.0)
        link = PhysicalLink(
            bits_per_packet=r * bandwidth * slot,
            slot_duration=slot,
            bandwidth=bandwidth,
            gain_variance=gain_var,
            energy_per_packet=sg * slot * noise / gain_var,
            noise_power=noise,
        )
        taus = np.linspace(0.0, 0.9 * slot, 10)
        if not verify_outage_monotonicity(link, taus):
            violations += 1
    return CriterionResult(
        1, "outage monotone in sensing time", violations == 0,
        f"{_OUTAGE_LINKS} random links x 10 durations, {violations} violations")


def criterion_2_sim_vs_analytics(scenario: Scenario) -> CriterionResult:
    """Saturated-mode simulation reproduces the closed-form reference values.

    The run and the closed form come from the sweep's cross-check
    (``sweep.compare_sim_vs_analytic``); the reference values and bounds
    are this criterion's own.
    """
    base = replace(scenario, lambda_pe=0.2, lambda_se=0.4)
    policy = PolicyVector.point_mass(base.num_durations, 0)
    record = sweep.compare_sim_vs_analytic(
        SimConfig(base, policy, "dominant", _SIM_HORIZON, _SIM_SEED, warmup=10_000))
    rates, report = record.analytic, record.report
    mu_s_ref, mu_p_ref, pe_ref = 0.33366, 0.11951, 0.8
    analytic_ok = (abs(rates.mu_s - mu_s_ref) < 1e-4
                   and abs(rates.mu_p - mu_p_ref) < 1e-4
                   and abs(rates.prob_pe_empty - pe_ref) < 1e-12)
    err_s = abs(report.mu_s - mu_s_ref) / mu_s_ref
    err_p = abs(report.mu_p - mu_p_ref) / mu_p_ref
    err_pe = abs(report.prob_pe_empty - pe_ref)
    passed = analytic_ok and err_s < 0.01 and err_p < 0.02 and err_pe < 0.005
    return CriterionResult(
        2, "closed form vs simulation", passed,
        f"mu_s rel err {err_s:.4%} (<1%), mu_p rel err {err_p:.4%} (<2%), "
        f"empty-energy abs err {err_pe:.5f} (<0.005)")


def criterion_3_occupancy(scenario: Scenario) -> CriterionResult:
    """Empirical nonempty probability of the energy buffer matches the ratio.

    Scenarios keep the harvest rate at least 0.05 below the consumption rate
    (and at most 75% of it, so the mixing time stays compatible with the
    horizon and the 0.01 target). Each scenario draws a policy and a
    licensed energy rate until the consumption rate reaches 0.12, at most
    ``_OCCUPANCY_DRAWS`` times: no policy reaches it on a table whose
    consumption weights all stay below 0.12, since mu_se = w @ P. All
    scenarios are drawn before any is simulated, and their cross-checks
    (``sweep.compare_sim_vs_analytic``, whose ``prob_se_nonempty`` reference
    is the ratio lambda_se / mu_se) run on a pool of one thread per usable
    CPU (``simulator.map_on_cpus``).
    """
    rng = np.random.default_rng(_OCCUPANCY_SEED)
    m = scenario.num_durations
    cases = []
    for i in range(_OCCUPANCY_COUNT):
        for _ in range(_OCCUPANCY_DRAWS):
            raw = rng.random(m) + 0.05
            policy = PolicyVector(tuple(raw / raw.sum()))
            lam_pe = rng.uniform(0.0, 1.0)
            probe = replace(scenario, lambda_pe=lam_pe, lambda_se=0.0)
            mu_se = analyze(probe, policy).mu_se
            if mu_se >= 0.12:
                break
        else:
            return CriterionResult(
                3, "energy occupancy formula", False,
                f"scenario {i}: no drawn policy reached mu_se >= 0.12 "
                f"in {_OCCUPANCY_DRAWS} draws")
        lam_se = rng.uniform(0.02, min(mu_se - 0.05, 0.75 * mu_se))
        case = replace(scenario, lambda_pe=lam_pe, lambda_se=lam_se)
        cases.append(SimConfig(case, policy, "dominant", _OCCUPANCY_HORIZON, 100 + i,
                               warmup=20_000))
    records = map_on_cpus(sweep.compare_sim_vs_analytic, cases)
    worst = max(record.deltas["prob_se_nonempty"][0] for record in records)
    return CriterionResult(
        3, "energy occupancy formula", worst <= 0.01,
        f"{_OCCUPANCY_COUNT} scenarios, max |empirical - ratio| = {worst:.5f} (<= 0.01)")


def criterion_4_optimizer_vs_bruteforce(scenario: Scenario) -> CriterionResult:
    """Both subproblems match the exact rational optimum of their program."""
    rng = np.random.default_rng(_BRUTEFORCE_SEED)
    worst = {"drain": 0.0, "saturated": 0.0}
    mismatches = []
    for i in range(_BRUTEFORCE_COUNT):
        case = replace(
            scenario,
            lambda_p=rng.uniform(0.0, 0.25),
            lambda_pe=rng.uniform(0.05, 0.95),
            lambda_se=rng.uniform(0.02, 0.9),
        )
        solved = (solve_constrained_subproblem(case), solve_overflow_subproblem(case))
        for regime, result, exact in zip(worst, solved, exact_subproblems(case)):
            status = "infeasible" if exact is None else "optimal"
            if result.status != status:
                mismatches.append(f"case {i}: {regime} regime {result.status} vs exact {status}")
            elif exact is not None:
                worst[regime] = max(worst[regime], float(abs(Fraction(result.value) - exact)))
    passed = not mismatches and max(worst.values()) <= 1e-12
    detail = (f"{_BRUTEFORCE_COUNT} cases on {scenario.num_durations} durations: "
              f"max |drain - exact| = {worst['drain']:.2e}, "
              f"max |saturated - exact| = {worst['saturated']:.2e} (<=1e-12)")
    if mismatches:
        detail += "; status mismatches: " + "; ".join(mismatches[:3])
    return CriterionResult(4, "optimizer vs brute force", passed, detail)


def _unit_sweep(scenario: Scenario, param: str, step: float = 0.01,
                **rates) -> tuple[SweepSpec, list[SweepRow]]:
    """A sweep of ``param`` over the ``step`` grid of [0, 1], the scenario's
    other rates set to ``rates``, and its spec: every grid of criteria 5-7."""
    spec = SweepSpec(replace(scenario, **rates), param, 0.0, 1.0, step)
    return spec, run_sweep(spec)


def _licensed_sweep(scenario: Scenario) -> tuple[SweepSpec, list[SweepRow]]:
    """The lambda_pe sweep that criteria 5 and 7(c) both read, at lambda_p=0.2
    and lambda_se=0.4. ``run_all`` solves it once for the two."""
    return _unit_sweep(scenario, "lambda_pe", lambda_p=0.2, lambda_se=0.4)


def _first_drop(values: list[float]) -> int | None:
    """Index of the first value more than ``_GRID_TOL`` below the one before
    it, or None: the scan of every monotone grid check, on the negated
    values for a nonincreasing one."""
    return next((k for k in range(1, len(values))
                 if values[k] < values[k - 1] - _GRID_TOL), None)


def criterion_5_infeasibility_threshold(scenario: Scenario, licensed=None) -> CriterionResult:
    """No policy can stabilize the licensed queue until its energy rate
    clears lambda_p / (1 - primary_outage). ``licensed`` is
    ``_licensed_sweep(scenario)`` when the caller has it already."""
    spec, rows = licensed or _licensed_sweep(scenario)
    base = spec.scenario
    reachable = base.primary_outage < 1.0     # else the licensed node never delivers
    threshold = base.lambda_p / (1.0 - base.primary_outage) if reachable else math.inf
    below_ok = True
    below = 0
    first_feasible = None
    for row in rows:
        if row.swept_value < threshold - 1e-9:
            below += 1
            if row.outcome.status != "infeasible":
                below_ok = False
        elif row.outcome.status == "optimal" and first_feasible is None:
            first_feasible = row.swept_value
    passed = below_ok and first_feasible is not None
    where = (f"the {below} below {threshold:.4f}" if reachable else
             f"all {below}, as primary_outage = 1 puts the threshold out of reach")
    return CriterionResult(
        5, "infeasibility threshold", passed,
        f"{len(rows)} lambda_pe points at step {spec.step}; infeasible at {where}: "
        f"{below_ok}; first feasible grid point {first_feasible}")


def criterion_6_plateau(scenario: Scenario) -> CriterionResult:
    """Throughput is nondecreasing in the harvest rate and exactly flat past
    the saturated subproblem's consumption rate."""
    issues = []
    step, points = 0.02, []
    for lam_p in (0.1, 0.2):
        _, rows = _unit_sweep(scenario, "lambda_se", step, lambda_pe=0.6, lambda_p=lam_p)
        points.append(len(rows))
        ref = rows[-1].outcome          # lambda_se = 1
        if ref.status != "optimal":
            issues.append(f"lambda_p={lam_p}: reference solve infeasible")
            continue
        knee = ref.overflow.rates.mu_se
        values = [row.outcome.winner.value for row in rows]
        if (k := _first_drop(values)) is not None:
            issues.append(f"lambda_p={lam_p}: decrease {values[k - 1]!r} -> {values[k]!r}")
        plateau = [v for row, v in zip(rows, values) if row.swept_value >= knee + 1e-9]
        if any(v != ref.winner.value for v in plateau):
            issues.append(f"lambda_p={lam_p}: plateau not exactly constant past {knee:.4f}")
    grid = f"{' + '.join(map(str, points))} lambda_se points at step {step}: "
    return CriterionResult(
        6, "harvest-rate plateau", not issues,
        grid + ("nondecreasing and exactly constant past the saturation knee"
                if not issues else "; ".join(issues)))


def criterion_7_frontier(scenario: Scenario, licensed=None) -> CriterionResult:
    """Monotone frontier shapes: (a) mu_s falls with lambda_p; (b) mu_s at
    lambda_se=0.4 is at least mu_s at 0.2 wherever the 0.2 optimum stays
    feasible at 0.4; (c) mu_p at the optimum rises with lambda_pe.

    Every optimum comes from ``run_sweep`` over the 0.01 grid of [0, 1],
    whose infeasible points carry zero throughput: (a) and (b) read the
    lambda_p sweeps at lambda_pe=0.4 and lambda_se 0.2 and 0.4, (c) the
    lambda_pe sweep at lambda_p=0.2 and lambda_se=0.4, which criterion 5
    reads too (``licensed``, as there).

    For (b): for a fixed policy P, mu_s(P) = min(lambda_se / mu_se(P), 1) *
    (1 - lambda_pe) * (u @ P) is nondecreasing in lambda_se, since mu_se(P)
    does not depend on lambda_se. So wherever the lambda_se=0.2 optimum still
    keeps the licensed queue stable at 0.4, the optimum at 0.4 is at least
    as large, and a drop there is an optimizer fault. The same occupancy
    raises the collisions the licensed node suffers: mu_p(P) falls as
    lambda_se grows, and the opportunistic node cannot leave harvested
    energy unused (it transmits on every idle verdict). A licensed load can
    therefore be stable at 0.2 and unstable at 0.4: on the bundled table, at
    lambda_p=0.27 the best reachable mu_p at lambda_se=0.4 is 0.26972, and the
    optimum drops from 0.112592 to infeasible. Such forced drops are listed
    in the detail, with the best reachable mu_p, and do not fail the
    criterion. A drop is forced when the 0.2 optimum no longer keeps the
    licensed queue stable at 0.4 and, if the 0.4 point was declared
    infeasible, no other policy does either.
    """
    low, high = (_unit_sweep(scenario, "lambda_p", lambda_pe=0.4, lambda_se=lam_se)[1]
                 for lam_se in (0.2, 0.4))
    licensed = (licensed or _licensed_sweep(scenario))[1]
    issues = []
    if (k := _first_drop([-row.outcome.winner.value for row in high])) is not None:
        issues.append(f"(a) mu_s rose with lambda_p at {high[k].swept_value:.2f}")
    forced, faults = [], []
    for lo, hi in zip(low, high):
        lo_win, hi_win, lam_p = lo.outcome.winner, hi.outcome.winner, hi.swept_value
        if hi_win.value < lo_win.value - _GRID_TOL:
            hi_case = replace(scenario, lambda_pe=0.4, lambda_se=0.4, lambda_p=lam_p)
            kept, reach = analyze(hi_case, lo_win.policy).mu_p, best_reachable_mu_p(hi_case)
            is_forced = kept < lam_p - CONSTRAINT_TOL and (
                hi_win.status == "optimal" or reach < lam_p + CONSTRAINT_TOL)
            cause = "forced by licensed stability" if is_forced else "optimizer fault"
            (forced if is_forced else faults).append(
                f"lambda_p={lam_p:.2f}: mu_s {lo_win.value:.6f} at lambda_se=0.2 -> "
                f"{hi_win.value:.6f} at 0.4, {cause} (the 0.2 optimum gives "
                f"mu_p={kept:.6f} at 0.4, best reachable mu_p={reach:.6f})")
    if faults:
        issues.append("(b) " + "; ".join(faults))
    mu_p = [row.outcome.winner.rates.mu_p if row.outcome.status == "optimal" else 0.0
            for row in licensed]
    if (k := _first_drop(mu_p)) is not None:
        issues.append(f"(c) mu_p fell with lambda_pe at {licensed[k].swept_value:.2f}")
    detail = ("; ".join(issues) if issues else
              "mu_s nonincreasing in lambda_p; mu_s at lambda_se=0.4 >= at 0.2 "
              "wherever the 0.2 optimum stays feasible; mu_p nondecreasing in lambda_pe")
    detail += "; forced drops in (b): " + ("; ".join(forced) if forced else "none")
    return CriterionResult(7, "frontier monotonicity", not issues, detail)


class CouplingAudit(NamedTuple):
    """Slot-by-slot comparison of an original run with its saturated twin."""

    slots: int
    energy_violations: int    # slots with q_pe(twin) > q_pe(original)
    matched_slots: int        # slots where both agree on q_pe > 0 and on q_se > 0
    service_violations: int   # matched slots where the twin's r_p or r_s exceeds the original's
    inversions: int           # (slot, data queue) pairs ending with original > twin


def _after_slot(trace: SlotTrace, queue: str) -> np.ndarray:
    """Queue levels at the end of each slot: ``max(q - r, 0) + arrival``."""
    q = getattr(trace, f"q_{queue}")
    return np.maximum(q - getattr(trace, f"r_{queue}"), 0) + getattr(trace, f"arr_{queue}")


def audit_coupling(original: SlotTrace, twin: SlotTrace) -> CouplingAudit:
    """Check the two orderings the shared-draw coupling guarantees.

    ``original`` and ``twin`` are traces of the original and the saturated
    system from the same initial state, consuming the same positional draws
    (same scenario, policy, horizon and seed). By induction over the slot
    rules:

    (i) the twin's licensed node spends an energy packet in every slot, the
        original's only when it holds data; arrivals are shared and the
        energy update is monotone, so q_pe(twin) <= q_pe(original) in every
        slot;
    (ii) in a slot where both systems agree on which energy buffers are
        empty, the twin's always-backlogged nodes only add transmissions: its
        licensed node is on the air at least as often, which can only cost
        the opportunistic node its success, and its opportunistic node
        interferes at least as often, which can only cost the licensed node
        its success. So neither r_p nor r_s of the twin exceeds the
        original's there.

    The data queues themselves are not ordered slot by slot (see
    ``criterion_8_dominance``); ``inversions`` counts the (slot, queue) pairs
    that end with an original data queue above the twin's, as a diagnostic.
    """
    if original.q_pe.shape != twin.q_pe.shape:
        raise ValueError("the two traces cover different horizons")
    matched = (((original.q_pe > 0) == (twin.q_pe > 0))
               & ((original.q_se > 0) == (twin.q_se > 0)))
    more_service = (twin.r_p > original.r_p) | (twin.r_s > original.r_s)
    inversions = sum(int(np.count_nonzero(_after_slot(original, k) > _after_slot(twin, k)))
                     for k in ("p", "s"))
    return CouplingAudit(
        slots=int(matched.size),
        energy_violations=int(np.count_nonzero(twin.q_pe > original.q_pe)),
        matched_slots=int(np.count_nonzero(matched)),
        service_violations=int(np.count_nonzero(matched & more_service)),
        inversions=inversions,
    )


def _dominance_sample(scenario: Scenario):
    """The ``_DOMINANCE_COUNT`` (scenario, policy) pairs of criterion 8, in
    its draw order from ``_DOMINANCE_SEED``: each replication draws its
    policy, then its four arrival rates, uniform on [0.05, 0.95]."""
    rng = np.random.default_rng(_DOMINANCE_SEED)
    for _ in range(_DOMINANCE_COUNT):
        raw = rng.random(scenario.num_durations) + 0.01
        policy = PolicyVector(tuple(raw / raw.sum()))
        yield replace(scenario, **{name: rng.uniform(0.05, 0.95) for name in
                                   ("lambda_p", "lambda_s", "lambda_pe", "lambda_se")}), policy


def criterion_8_dominance(scenario: Scenario) -> CriterionResult:
    """The saturated twin is ordered against the original system where the
    shared-draw coupling guarantees it: (i) and (ii) of ``audit_coupling``,
    with zero tolerance, on traced runs of both systems from one seed.

    The data queues of the original do not stay below the twin's slot by
    slot. The twin spends licensed energy in every slot, so its licensed node
    can be silent where the original's transmits. From the empty state:
    energy reaches both nodes in slot 0; in slot 1 data reaches both nodes
    while the twin's licensed node burns its energy on a dummy packet (its
    sensor detects it, so the twin keeps its opportunistic energy); in slot
    2 the original's licensed node transmits and its opportunistic node
    misdetects it and collides, while the twin's opportunistic node finds
    the channel silent, raises no false alarm and, on a good channel,
    delivers. The twin's q_s is then one below the original's. Every such
    inversion starts in a slot where the two energy states differ, which is
    why (ii) is stated on the matched slots.
    """
    energy = service = matched = slots = inversions = offenders = 0
    for i, (case, policy) in enumerate(_dominance_sample(scenario)):
        config = SimConfig(case, policy, "original", _DOMINANCE_HORIZON, 500 + i)
        _, original = simulate_traced(config)
        _, twin = simulate_traced(replace(config, mode="dominant"))
        audit = audit_coupling(original, twin)
        energy += audit.energy_violations
        service += audit.service_violations
        matched += audit.matched_slots
        slots += audit.slots
        inversions += audit.inversions
        offenders += audit.inversions > 0
    return CriterionResult(
        8, "shared-draw coupling order", energy == 0 and service == 0,
        f"{_DOMINANCE_COUNT} scenarios x {_DOMINANCE_HORIZON} slots: q_pe(twin) > "
        f"q_pe(original) in {energy} slots, twin r_p or r_s above the original's in {service} of "
        f"{matched} energy-matched slots ({matched / slots:.1%}) (require 0 and 0); "
        f"diagnostic, as data queues are not ordered slot by slot: "
        f"{inversions} inversions in {offenders} scenarios")


def criterion_9_determinism(scenario: Scenario) -> CriterionResult:
    """Identical configuration and seed reproduce byte-identical CSV."""
    spec = SweepSpec(replace(scenario, lambda_se=0.4), "lambda_p", 0.0, 0.3, 0.05,
                     simulate=True, horizon=20_000, warmup=2_000, seed=11)
    first = rows_to_csv(spec, run_sweep(spec))
    second = rows_to_csv(spec, run_sweep(spec))
    policy = PolicyVector.uniform(scenario.num_durations)
    rep_a = simulate(SimConfig(scenario, policy, "dominant", 50_000, 13, warmup=1_000))
    rep_b = simulate(SimConfig(scenario, policy, "dominant", 50_000, 13, warmup=1_000))
    passed = first == second and rep_a == rep_b
    return CriterionResult(
        9, "determinism", passed,
        f"CSV bytes identical: {first == second}; reports identical: {rep_a == rep_b}")


_CRITERIA = {
    1: lambda scenario: criterion_1_outage_monotonicity(),
    2: criterion_2_sim_vs_analytics,
    3: criterion_3_occupancy,
    4: criterion_4_optimizer_vs_bruteforce,
    5: criterion_5_infeasibility_threshold,
    6: criterion_6_plateau,
    7: criterion_7_frontier,
    8: criterion_8_dominance,
    9: criterion_9_determinism,
}


def run_all(scenario: Scenario, criteria: list[int] | None = None) -> list[CriterionResult]:
    numbers = sorted(set(criteria or _CRITERIA))
    unknown = [n for n in numbers if n not in _CRITERIA]
    if unknown:
        raise ValueError(f"unknown criterion numbers: {unknown}")
    licensed = _licensed_sweep(scenario) if 5 in numbers and 7 in numbers else None
    return [_CRITERIA[n](scenario, licensed) if n in (5, 7) else _CRITERIA[n](scenario)
            for n in numbers]
