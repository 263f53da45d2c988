"""Command-line interface.

Verbs:
    solve      optimize the sensing policy for one scenario
    sweep      re-solve over a grid of one arrival rate, emit CSV
    simulate   run the slot simulator with a given or optimized policy
    check      run the bundled acceptance suite against a scenario

Exit codes: 0 success; 2 infeasible-only results (no optimal policy from
``solve`` or ``simulate --policy optimal``, no optimal grid point in
``sweep``); 1 on an input error (a bad file, grid or run setting), and from
``check`` also when any criterion fails. A malformed command line exits 2
from ``argparse``.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields, replace
from pathlib import Path

from . import acceptance
from .analytics import PROBABILITIES, PolicyVector, Scenario
from .optimizer import solve
from .scenario_io import parse_scenario
from .simulator import MODES, SimConfig, SimReport, simulate
from .sweep import SWEEPABLE, SweepSpec, format_policy, rows_to_csv, run_sweep


def _add_scenario_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("scenario", type=Path, help="scenario file")
    for name in PROBABILITIES:
        flag = "--" + name.replace("_", "-")
        parser.add_argument(flag, type=float, default=None,
                            help=f"override {name} from the file")


def _add_run_args(parser: argparse.ArgumentParser) -> None:
    defaults = {field.name: field.default for field in fields(SweepSpec)}
    for name in ("horizon", "warmup", "seed"):
        parser.add_argument("--" + name, type=int, default=defaults[name])


def _load_scenario(args) -> Scenario:
    scenario = parse_scenario(args.scenario)
    overrides = {k: getattr(args, k) for k in PROBABILITIES if getattr(args, k) is not None}
    return replace(scenario, **overrides) if overrides else scenario


def _print_outcome(outcome) -> None:
    print(f"status {outcome.status}")
    if outcome.status != "optimal":
        print("mu_s 0.000000")
        return
    rates = outcome.winner.rates
    print(f"winning_subproblem {outcome.winning_subproblem}")
    for name, value in (("mu_s", rates.mu_s), ("mu_p", rates.mu_p),
                        ("mu_se", rates.mu_se), ("x_tilde_se", rates.x_se_capped)):
        print(f"{name} {value:.6f}")
    print("policy " + " ".join(format_policy(outcome.winner.policy)))


def _cmd_solve(args) -> int:
    outcome = solve(_load_scenario(args))
    _print_outcome(outcome)
    return 0 if outcome.status == "optimal" else 2


def _cmd_sweep(args) -> int:
    spec = SweepSpec(_load_scenario(args), args.param, args.start, args.stop, args.step,
                     simulate=args.simulate, horizon=args.horizon, warmup=args.warmup,
                     seed=args.seed)
    rows = run_sweep(spec)
    text = rows_to_csv(spec, rows)
    if args.output:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)
    return 0 if any(row.outcome.status == "optimal" for row in rows) else 2


def _resolve_policy(args, scenario: Scenario) -> PolicyVector | None:
    if args.policy == "optimal":
        outcome = solve(scenario)
        if outcome.status != "optimal":
            print("no feasible policy for this scenario", file=sys.stderr)
            return None
        return outcome.winner.policy
    probs = []
    for k, token in enumerate(Path(args.policy).read_text().split(), 1):
        try:
            probs.append(float(token))
        except ValueError:
            raise ValueError(f"{args.policy}: policy entry {k} {token!r} is not a number") from None
    return PolicyVector(tuple(probs))


def _cmd_simulate(args) -> int:
    scenario = _load_scenario(args)
    policy = _resolve_policy(args, scenario)
    if policy is None:
        return 2
    config = SimConfig(scenario, policy, args.mode, args.horizon, args.seed, args.warmup)
    report = simulate(config)
    for field in fields(SimReport):
        value = getattr(report, field.name)
        if isinstance(value, float):
            print(f"{field.name} {value:.6f}")
        elif value is not None:             # dominance_violations outside coupled mode
            print(f"{field.name} {value}")
    return 0


def _cmd_check(args) -> int:
    scenario = _load_scenario(args)
    results = acceptance.run_all(scenario, criteria=args.criteria)
    for result in results:
        print(acceptance.format_result(result))
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} criteria passed")
    return 0 if not failed else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="crsense",
        description="Throughput optimization and simulation of an "
                    "energy-harvesting opportunistic link.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="optimize the sensing policy")
    _add_scenario_args(p_solve)
    p_solve.set_defaults(func=_cmd_solve)

    p_sweep = sub.add_parser("sweep", help="solve over a grid of one rate, emit CSV")
    _add_scenario_args(p_sweep)
    p_sweep.add_argument("--param", required=True, choices=SWEEPABLE)
    p_sweep.add_argument("--from", dest="start", type=float, required=True)
    p_sweep.add_argument("--to", dest="stop", type=float, required=True)
    p_sweep.add_argument("--step", type=float, required=True)
    p_sweep.add_argument("--simulate", action="store_true",
                         help="cross-check each feasible point with the simulator")
    _add_run_args(p_sweep)
    p_sweep.add_argument("--output", "-o", default=None, help="write CSV here instead of stdout")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_sim = sub.add_parser("simulate", help="run the slot-level simulator")
    _add_scenario_args(p_sim)
    p_sim.add_argument("--policy", required=True,
                       help="path to a whitespace-separated policy file, or 'optimal'")
    p_sim.add_argument("--mode", choices=MODES, default="dominant")
    _add_run_args(p_sim)
    p_sim.set_defaults(func=_cmd_simulate)

    p_check = sub.add_parser("check", help="run the acceptance suite")
    _add_scenario_args(p_check)
    p_check.add_argument("--criteria", type=int, nargs="+", default=None,
                         help="subset of criterion numbers to run (default: all)")
    p_check.set_defaults(func=_cmd_check)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
