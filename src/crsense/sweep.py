"""Parameter sweeps, analytic-vs-simulated comparison, and CSV output.

A sweep re-solves the policy optimization on a grid of one arrival rate and
emits one CSV row per grid point. Output is schema-stable and deterministic:
fixed header, fixed six-decimal formatting, grid order, and per-point
simulation seeds derived from the base seed, so identical inputs reproduce
identical bytes.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, replace

from .analytics import AnalyticRates, PolicyVector, Scenario, analyze
from .optimizer import OptimizationOutcome, solve
from .simulator import SimConfig, SimReport, simulate

SWEEPABLE = ("lambda_p", "lambda_pe", "lambda_se")
MAX_GRID_POINTS = 1_000_001     # a step of 1e-6 across [0, 1]
_REL_TOL = 0.02     # cross-check tolerance: relative, with an absolute floor
_ABS_FLOOR = 0.005


@dataclass(frozen=True)
class SweepSpec:
    scenario: Scenario
    param: str
    start: float
    stop: float
    step: float
    simulate: bool = False
    horizon: int = 200_000
    warmup: int = 10_000
    seed: int = 0

    def __post_init__(self):
        if self.param not in SWEEPABLE:
            raise ValueError(f"param must be one of {SWEEPABLE}, got {self.param!r}")
        if not 0.0 <= self.start <= self.stop <= 1.0:
            raise ValueError(f"grid [{self.start}, {self.stop}] must sit inside [0, 1]")
        if not self.step > 0.0:
            raise ValueError(f"step must be positive, got {self.step!r}")
        points = self._last_index() + 1
        if points > MAX_GRID_POINTS:
            raise ValueError(
                f"--step {self.step!r} makes {points:.0f} grid points from {self.start} "
                f"to {self.stop}; at most {MAX_GRID_POINTS} are allowed")
        if self.simulate and not self.horizon > self.warmup >= 0:
            raise ValueError(
                f"simulated sweep needs horizon > warmup >= 0, got --horizon "
                f"{self.horizon} and --warmup {self.warmup}")

    def _last_index(self) -> float:
        """Largest k of the grid, as a float: a step too small for the span
        gives inf instead of an integer overflow."""
        steps = (self.stop - self.start) / self.step + 1e-9
        return float(math.floor(steps)) if math.isfinite(steps) else steps

    def grid(self) -> list[float]:
        """Grid points ``start + k*step``, clamped to ``stop``: rounding can put
        the last point a few ulps past it."""
        count = int(self._last_index()) + 1
        return [min(self.start + k * self.step, self.stop) for k in range(count)]


@dataclass(frozen=True)
class ComparisonRecord:
    """Side-by-side closed-form vs simulated values for one policy."""

    analytic: AnalyticRates
    report: SimReport
    deltas: dict[str, tuple[float, float]]   # name -> (absolute, relative)
    passed: bool


@dataclass(frozen=True)
class SweepRow:
    swept_value: float
    outcome: OptimizationOutcome
    comparison: ComparisonRecord | None


def compare_sim_vs_analytic(scenario: Scenario, policy: PolicyVector,
                            horizon: int, seed: int,
                            warmup: int = 10_000) -> ComparisonRecord:
    """Run the saturated-mode simulator and grade it against the closed form.

    Each quantity passes when |simulated - analytic| stays within
    ``max(0.005, 0.02 * |analytic|)``; the record carries per-quantity
    absolute and relative deltas.
    """
    rates = analyze(scenario, policy)
    report = simulate(SimConfig(scenario, policy, "dominant", horizon, seed, warmup))
    pairs = {
        "mu_p": (rates.mu_p, report.mu_p),
        "mu_s": (rates.mu_s, report.mu_s),
        "mu_pe": (rates.mu_pe, report.mu_pe),
        "mu_se": (rates.mu_se, report.mu_se),
        "prob_pe_empty": (rates.prob_pe_empty, report.prob_pe_empty),
        "prob_se_nonempty": (rates.x_se_capped, report.prob_se_nonempty),
    }
    deltas = {}
    passed = True
    for name, (expected, got) in pairs.items():
        delta = abs(got - expected)
        rel = delta / abs(expected) if expected else math.inf
        deltas[name] = (delta, rel)
        if delta > max(_ABS_FLOOR, _REL_TOL * abs(expected)):
            passed = False
    return ComparisonRecord(rates, report, deltas, passed)


def run_sweep(spec: SweepSpec) -> list[SweepRow]:
    rows = []
    for k, value in enumerate(spec.grid()):
        scenario = replace(spec.scenario, **{spec.param: value})
        outcome = solve(scenario)
        comparison = None
        if spec.simulate and outcome.status == "optimal":
            comparison = compare_sim_vs_analytic(
                scenario, outcome.winner.policy, spec.horizon,
                spec.seed + k, spec.warmup)
        rows.append(SweepRow(value, outcome, comparison))
    return rows


def _fmt(x: float) -> str:
    return f"{x + 0.0:.6f}"          # + 0.0 normalizes negative zero


def _format_policy(policy: PolicyVector) -> list[str]:
    """Six-decimal probabilities nudged so the printed row sums to exactly 1.

    Largest-remainder rounding in units of 1e-6; the adjustment never moves
    an entry by more than one unit per remaining residual step.
    """
    scaled = [p * 1e6 for p in policy.probs]
    floors = [math.floor(s) for s in scaled]
    residual = round(1_000_000 - sum(floors))
    order = sorted(range(len(scaled)), key=lambda i: (floors[i] - scaled[i], i))
    for i in range(residual):
        floors[order[i % len(order)]] += 1
    return [f"{int(f) / 1e6:.6f}" for f in floors]


def csv_header(num_durations: int, simulated: bool) -> str:
    cols = ["swept_value", "status", "mu_s", "mu_p", "mu_se", "x_tilde_se",
            "winning_subproblem"]
    cols += [f"P_{m}" for m in range(1, num_durations + 1)]
    if simulated:
        cols += ["sim_mu_s", "sim_mu_p", "sim_pass"]
    return ",".join(cols)


def rows_to_csv(spec: SweepSpec, rows: list[SweepRow]) -> str:
    """Render sweep rows with the fixed schema; byte-stable across reruns."""
    m = spec.scenario.num_durations
    out = io.StringIO()
    out.write(csv_header(m, spec.simulate) + "\n")
    for row in rows:
        cells = [_fmt(row.swept_value)]
        winner = row.outcome.winner
        if winner.status == "optimal":
            rates = winner.rates
            cells += ["optimal", _fmt(rates.mu_s), _fmt(rates.mu_p),
                      _fmt(rates.mu_se), _fmt(rates.x_se_capped),
                      row.outcome.winning_subproblem]
            cells += _format_policy(winner.policy)
        else:
            cells += ["infeasible", _fmt(0.0), _fmt(0.0), _fmt(0.0), _fmt(0.0), "none"]
            cells += [_fmt(0.0)] * m
        if spec.simulate:
            if row.comparison is None:
                cells += [_fmt(0.0), _fmt(0.0), "skip"]
            else:
                cells += [_fmt(row.comparison.report.mu_s),
                          _fmt(row.comparison.report.mu_p),
                          "pass" if row.comparison.passed else "fail"]
        out.write(",".join(cells) + "\n")
    return out.getvalue()
