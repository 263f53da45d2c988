"""Throughput analysis and sensing-policy optimization for an
energy-harvesting opportunistic radio link sharing a slot-synchronous
collision channel with a licensed user, validated by a slot-level
Monte Carlo simulator of the four interacting queues."""

from .analytics import AnalyticRates, PolicyVector, Scenario, analyze
from .channel import (
    PhysicalLink,
    SensingOption,
    primary_outage,
    secondary_outage,
    verify_outage_monotonicity,
)
from .lp import LPSolution, solve_lp
from .optimizer import (
    OptimizationOutcome,
    SubproblemResult,
    solve_constrained_subproblem,
    solve_overflow_subproblem,
)
from .optimizer import solve as optimize_policy
from .scenario_io import ScenarioFormatError, load_bundled_scenario, parse_scenario
from .simulator import (
    SimConfig,
    SimReport,
    SlotTrace,
    StabilityVerdict,
    coupled_dominance_run,
    simulate,
    simulate_traced,
    stability_diagnostic,
)
from .sweep import (
    ComparisonRecord,
    SweepSpec,
    compare_sim_vs_analytic,
    rows_to_csv,
    run_sweep,
)

__version__ = "0.1.0"
