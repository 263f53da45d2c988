"""Closed-form mean service rates of the four-queue link under a sensing policy.

The analysis treats both transmitters as saturated (dummy packets keep them
on the air whenever they have energy), which decouples the two energy queues
from the data queues:

* the licensed node spends one energy packet per slot, so its energy queue
  behaves like a discrete-time queue with unit service and is empty with
  probability ``1 - lambda_pe``;
* the opportunistic node spends one energy packet whenever its sensor
  declares the channel idle, so the consumption rate is a policy average of
  per-duration weights, and the buffer is nonempty with probability
  ``lambda_se / mu_se`` capped at one (the overflow regime).

The data-queue rates then follow by averaging the per-slot success
indicators: the licensed node loses the slot to fading or to a misdetection
collision, the opportunistic node needs energy, a silent licensed node, no
false alarm, and a good channel.

``analyze`` is the one evaluator: it turns a scenario and a policy into
every rate in one pass. ``coefficients`` builds the per-duration vectors it
averages, which the optimizer's two programs are written in too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .channel import SensingOption

POLICY_SUM_TOL = 1e-9  # absolute tolerance on sum(probs) == 1


def _check_prob(name: str, value: float) -> None:
    if not (0.0 <= value <= 1.0):
        raise ValueError(f"{name} must lie in [0, 1], got {value!r}")


@dataclass(frozen=True)
class Scenario:
    """Arrival rates, licensed-link outage, and the sensing-duration table."""

    lambda_p: float
    lambda_s: float
    lambda_pe: float
    lambda_se: float
    primary_outage: float
    sensing_table: tuple[SensingOption, ...]

    def __post_init__(self):
        for name in ("lambda_p", "lambda_s", "lambda_pe", "lambda_se", "primary_outage"):
            _check_prob(name, getattr(self, name))
        table = tuple(self.sensing_table)
        if not table:
            raise ValueError("sensing_table must contain at least one duration")
        indices = [opt.index for opt in table]
        if len(set(indices)) != len(indices):
            raise ValueError(f"duplicate duration indices in sensing_table: {indices}")
        object.__setattr__(self, "sensing_table", table)

    @property
    def num_durations(self) -> int:
        return len(self.sensing_table)

    def detection_probs(self) -> np.ndarray:
        return np.array([o.detection_prob for o in self.sensing_table])

    def false_alarm_probs(self) -> np.ndarray:
        return np.array([o.false_alarm_prob for o in self.sensing_table])

    def secondary_outages(self) -> np.ndarray:
        return np.array([o.secondary_outage for o in self.sensing_table])


@dataclass(frozen=True)
class PolicyVector:
    """Probability distribution over the sensing durations (positional)."""

    probs: tuple[float, ...]

    def __post_init__(self):
        probs = tuple(float(p) for p in self.probs)
        if not probs:
            raise ValueError("policy must have at least one entry")
        for p in probs:
            if not (math.isfinite(p) and p >= 0.0):
                raise ValueError(f"policy entries must be nonnegative, got {p!r}")
        total = math.fsum(probs)
        if abs(total - 1.0) > POLICY_SUM_TOL:
            raise ValueError(f"policy probabilities sum to {total!r}, not 1")
        object.__setattr__(self, "probs", probs)

    def __len__(self) -> int:
        return len(self.probs)

    def as_array(self) -> np.ndarray:
        return np.array(self.probs)

    @classmethod
    def uniform(cls, m: int) -> "PolicyVector":
        return cls(tuple([1.0 / m] * m))

    @classmethod
    def point_mass(cls, m: int, position: int) -> "PolicyVector":
        """All mass on one duration, by 0-based position in the table."""
        if not 0 <= position < m:
            raise ValueError(f"position {position} outside table of size {m}")
        probs = [0.0] * m
        probs[position] = 1.0
        return cls(tuple(probs))


@dataclass(frozen=True)
class AnalyticRates:
    """Closed-form rates and occupancies for one (scenario, policy) pair.

    ``x_se`` is the raw harvest/consumption ratio (``inf`` when energy is
    harvested but never consumed); ``x_se_capped`` is the nonempty
    probability of the opportunistic energy buffer, capped at one.
    ``degenerate_energy_service`` flags the pathological mu_se == 0 <
    lambda_se case, where the node accumulates energy it can never spend.
    """

    mu_p: float
    mu_s: float
    mu_pe: float
    mu_se: float
    x_se: float
    x_se_capped: float
    prob_pe_empty: float
    degenerate_energy_service: bool = False


class Coefficients(NamedTuple):
    """The per-duration vectors ``analyze`` and both optimizer programs are
    written in, and the licensed cap."""

    w: np.ndarray   # sensor reads idle, which costs an energy packet
    u: np.ndarray   # no false alarm and no secondary outage
    d: np.ndarray   # misdetection
    cap: float      # licensed rate without collisions: lambda_pe * (1 - outage)


def coefficients(scenario: Scenario) -> Coefficients:
    lam_pe = scenario.lambda_pe
    d = 1.0 - scenario.detection_probs()
    no_fa = 1.0 - scenario.false_alarm_probs()
    return Coefficients(lam_pe * d + (1.0 - lam_pe) * no_fa,
                        (1.0 - scenario.secondary_outages()) * no_fa, d,
                        lam_pe * (1.0 - scenario.primary_outage))


def analyze(scenario: Scenario, policy: PolicyVector,
            coeffs: Coefficients | None = None) -> AnalyticRates:
    """Evaluate every closed-form quantity for one (scenario, policy) pair.

    ``coeffs`` passes in ``coefficients(scenario)`` when the caller already
    holds them.
    """
    if len(policy) != scenario.num_durations:
        raise ValueError(
            f"policy has {len(policy)} entries but the scenario offers "
            f"{scenario.num_durations} durations"
        )
    w, u, d, cap = coefficients(scenario) if coeffs is None else coeffs
    probs = policy.as_array()
    lam_pe, lam_se = scenario.lambda_pe, scenario.lambda_se
    mu_se = float(w @ probs)
    degenerate = mu_se == 0.0 and lam_se > 0.0
    if mu_se == 0.0:
        x_se = math.inf if degenerate else 0.0
    else:
        x_se = lam_se / mu_se
    x_capped = min(x_se, 1.0)
    mu_p = cap * (1.0 - x_capped * float(d @ probs))
    # a degenerate node never spends energy, hence never transmits
    mu_s = 0.0 if degenerate else x_capped * (1.0 - lam_pe) * float(u @ probs)
    return AnalyticRates(
        mu_p=mu_p,
        mu_s=mu_s,
        mu_pe=1.0,
        mu_se=mu_se,
        x_se=x_se,
        x_se_capped=x_capped,
        prob_pe_empty=1.0 - lam_pe,
        degenerate_energy_service=degenerate,
    )
