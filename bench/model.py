"""The benchmark's own statement of the link model, and the sweep checker.

Nothing here imports crsense: the formulas are written out again from the
model description (saturated analysis, Rayleigh block fading), so that the
checker is an oracle independent of the code it grades.

Closed form for a policy P over M sensing durations:

    w_m   = lambda_pe * (1 - det_m) + (1 - lambda_pe) * (1 - fa_m)   energy use
    mu_se = P @ w
    x     = min(lambda_se / mu_se, 1)           energy buffer nonempty
    mu_p  = lambda_pe * (1 - p_out) * (1 - x * (P @ (1 - det)))
    mu_s  = x * (1 - lambda_pe) * (P @ ((1 - out) * (1 - fa)))

A policy is feasible when it keeps the licensed queue stable,
``lambda_p <= mu_p``.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

PRINT_UNIT = 1e-6           # the CSV prints six decimals
MIX_WEIGHTS = np.arange(1, 10) / 10.0
# margin by which a candidate must clear the licensed-stability constraint
# before an "infeasible" verdict counts as wrong; the optimizer itself
# accepts 1e-8 of slack
INFEASIBLE_MARGIN = 1e-7


@dataclass(frozen=True)
class Link:
    bits_per_packet: float
    slot_duration: float
    bandwidth: float
    gain_variance: float
    energy_per_packet: float
    noise_power: float


def outage(link: Link, window: float) -> float:
    """Rayleigh outage of one packet sent in ``window`` seconds with one
    energy packet: P(gain * snr < 2 ** (b / (W * window)) - 1)."""
    snr = link.energy_per_packet / (window * link.noise_power)
    threshold = 2.0 ** (link.bits_per_packet / (link.bandwidth * window)) - 1.0
    return 1.0 - math.exp(-threshold / (link.gain_variance * snr))


@dataclass(frozen=True)
class Table:
    """Arrival rates and per-duration operating probabilities of a scenario."""

    lambda_p: float
    lambda_s: float
    lambda_pe: float
    lambda_se: float
    primary_outage: float
    det: tuple[float, ...]
    fa: tuple[float, ...]
    out: tuple[float, ...]

    @property
    def m(self) -> int:
        return len(self.det)


def candidate_policies(m: int) -> np.ndarray:
    """Every point mass, and every two-duration mix on a 0.1 grid; rows sum to 1."""
    rows = [np.eye(m)]
    for i, j in itertools.combinations(range(m), 2):
        mix = np.zeros((MIX_WEIGHTS.size, m))
        mix[:, i] = MIX_WEIGHTS
        mix[:, j] = 1.0 - MIX_WEIGHTS
        rows.append(mix)
    return np.vstack(rows)


def rates(tables: list[Table], policies: np.ndarray):
    """(mu_p, mu_s, mu_se) of each policy (K x M) under each table (R of them);
    every result has shape (R, K)."""
    lam_pe = np.array([t.lambda_pe for t in tables])[:, None]
    lam_se = np.array([t.lambda_se for t in tables])[:, None]
    p_out = np.array([t.primary_outage for t in tables])[:, None]
    det = np.array([t.det for t in tables])
    fa = np.array([t.fa for t in tables])
    out = np.array([t.out for t in tables])
    w = lam_pe * (1.0 - det) + (1.0 - lam_pe) * (1.0 - fa)
    mu_se = w @ policies.T
    with np.errstate(divide="ignore", invalid="ignore"):
        x = np.where(mu_se > 0.0, np.minimum(lam_se / mu_se, 1.0),
                     np.where(lam_se > 0.0, 1.0, 0.0))
    mu_p = lam_pe * (1.0 - p_out) * (1.0 - x * ((1.0 - det) @ policies.T))
    mu_s = x * (1.0 - lam_pe) * (((1.0 - out) * (1.0 - fa)) @ policies.T)
    mu_s = np.where((mu_se == 0.0) & (lam_se > 0.0), 0.0, mu_s)
    return mu_p, mu_s, mu_se


def check_sweep_csv(text: str, base: Table, param: str, grid: list[float],
                    simulated: bool) -> list[str]:
    """Grade one sweep CSV against the closed form; returns one message per
    bad row (an empty list means every row holds).

    For every ``optimal`` row: the printed policy sums to 1; it keeps the
    licensed queue stable and yields the printed mu_s, up to what six-decimal
    printing of the policy can move them; and no candidate policy (point
    mass or coarse two-duration mix) that is feasible beats the printed mu_s
    by more than print rounding. An ``infeasible`` row is wrong when some
    candidate clears the stability constraint by a margin.
    """
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    m = base.m
    want = ["swept_value", "status", "mu_s", "mu_p", "mu_se", "x_tilde_se",
            "winning_subproblem"] + [f"P_{k}" for k in range(1, m + 1)]
    if simulated:
        want += ["sim_mu_s", "sim_mu_p", "sim_pass"]
    if header != want:
        return [f"header {header!r}"]
    rows = list(reader)
    if len(rows) != len(grid):
        return [f"{len(rows)} rows for a {len(grid)}-point grid"]
    tables = [replace(base, **{param: value}) for value in grid]
    cands = candidate_policies(m)
    cand_p, cand_s, _ = rates(tables, cands)
    problems = []
    for k, (row, table, value) in enumerate(zip(rows, tables, grid)):
        bad = _check_row(row, table, value, cand_p[k], cand_s[k], m, simulated)
        problems += [f"row {k} ({param}={value:.6f}): {msg}" for msg in bad]
    return problems


def _check_row(row, table: Table, value: float, cand_p, cand_s, m: int,
               simulated: bool) -> list[str]:
    if len(row) != 7 + m + (3 if simulated else 0):
        return [f"{len(row)} cells"]
    if abs(float(row[0]) - value) > PRINT_UNIT / 2:
        return [f"swept value {row[0]}"]
    feasible = cand_p >= table.lambda_p
    if simulated and row[-1] not in (("skip",) if row[1] == "infeasible" else ("pass", "fail")):
        return [f"sim_pass {row[-1]!r} for status {row[1]!r}"]
    if row[1] == "infeasible":
        margin = float(np.max(cand_p - table.lambda_p))
        if margin > INFEASIBLE_MARGIN:
            return [f"reported infeasible, but a candidate clears lambda_p by {margin:.3g}"]
        return []
    if row[1] != "optimal":
        return [f"status {row[1]!r}"]
    if row[6] not in ("constrained", "overflow"):
        return [f"winning_subproblem {row[6]!r}"]
    mu_s = float(row[2])
    policy = np.array([float(c) for c in row[7:7 + m]])
    problems = []
    if np.any(policy < 0.0) or abs(policy.sum() - 1.0) > PRINT_UNIT / 2:
        problems.append(f"policy sums to {policy.sum()!r}")
    got_p, got_s, got_se = (a[0, 0] for a in rates([table], policy[None, :]))
    # each printed probability is within one print unit of the true one; x
    # moves by at most |dP|_1 / mu_se, so both rates move by at most:
    slack = m * PRINT_UNIT * (1.0 + 1.0 / max(got_se, table.lambda_se, 1e-3)) + 1e-9
    if got_p < table.lambda_p - table.lambda_pe * slack:
        problems.append(f"mu_p {got_p:.6f} < lambda_p {table.lambda_p:.6f}")
    if abs(got_s - mu_s) > slack + PRINT_UNIT / 2:
        problems.append(f"printed mu_s {mu_s:.6f} but the policy gives {got_s:.6f}")
    best = float(np.max(np.where(feasible, cand_s, -1.0)))
    if best > mu_s + PRINT_UNIT / 2 + 1e-9:
        problems.append(f"a feasible candidate reaches mu_s {best:.6f} > printed {mu_s:.6f}")
    return problems
