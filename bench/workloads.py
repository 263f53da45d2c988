"""Seeded inputs and operations of the three benchmark workloads.

A workload is a sequence of rounds. Round ``r`` of seed ``s`` is generated
from ``numpy.random.default_rng([s, workload index, r])`` alone, so the same
seed always yields the same inputs; a run executes whole rounds until its
time is up, so every run sees the same mix of operations. The program under
test receives only the scenario files written here and its arguments.

* ``optimize-sweep``: 81 ``crsense sweep`` runs per round without
  ``--simulate``, one generated scenario file each. Every combination of
  M = 2..10 durations and swept parameter (``lambda_p``, ``lambda_pe``,
  ``lambda_se``) appears three times, once in physical mode, so the parse
  path covers the channel model. Grids are typed the way users type them
  (two decimals) and are not screened: grids that leave [0, 1] through
  round-off fail and count as failed operations.
* ``validate-sweep``: three ``crsense sweep --simulate`` runs per round on
  the reference table at the default 200 000-slot horizon, four grid points
  each, one per swept parameter. Grids are drawn where every point is
  feasible, so each run simulates all four points.
* ``queue-dynamics``: per round, 100 coupled runs of 10 000 slots on random
  scenarios and policies (the shape of acceptance criterion 8) and two
  ``original``-mode runs of 1 010 000 slots (10 000 warm-up), each followed
  by ``stability_diagnostic``.
"""

from __future__ import annotations

import hashlib
import io
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable

import numpy as np

from model import Link, Table, candidate_policies, check_sweep_csv, outage, rates

WORKLOADS = ("optimize-sweep", "validate-sweep", "queue-dynamics")
SWEPT = ("lambda_p", "lambda_pe", "lambda_se")
MIN_M, MAX_M = 2, 10

# the bundled reference scenario (table1.scn), held here so that the
# workload stays fixed whatever later commits do to the package data
TABLE1 = Table(
    lambda_p=0.1, lambda_s=0.1, lambda_pe=0.2, lambda_se=0.4, primary_outage=0.3,
    det=(0.70, 0.75, 0.78, 0.80, 0.85, 0.88, 0.90, 0.92, 0.94, 0.95),
    fa=(0.050, 0.060, 0.080, 0.082, 0.085, 0.088, 0.100, 0.110, 0.120, 0.125),
    out=(0.10, 0.20, 0.25, 0.30, 0.35, 0.38, 0.40, 0.46, 0.49, 0.60),
)
VALIDATE_POINTS = 4
LONG_HORIZON, LONG_WARMUP = 1_010_000, 10_000
SHORT_HORIZON, SHORTS_PER_ROUND = 10_000, 100


@dataclass
class Result:
    """What one operation returned: an exit code and its output bytes."""

    code: int
    output: bytes
    value: Any = None           # stderr of a CLI op; (SimReport, verdicts) of a simulator op

    @property
    def sha256(self) -> str:
        return hashlib.sha256(self.output).hexdigest()


@dataclass
class Op:
    op_id: str
    run: Callable[[], Result]
    check: Callable[[Result], list[str]]
    points: int = 0             # sweep grid points
    slots: int = 0              # configured simulator horizon
    config: Any = field(default=None, repr=False)


def _round3(x: float) -> float:
    return float(f"{x:.3f}")


def _rates2(rng, lo, hi, k) -> list[float]:
    """Two-decimal draws, as a user would write them in a scenario file."""
    return [round(float(v), 2) for v in rng.uniform(lo, hi, k)]


def _monotone(rng, lo, hi, m) -> tuple[float, ...]:
    return tuple(_round3(v) for v in np.sort(rng.uniform(lo, hi, m)))


def table_text(t: Table) -> str:
    lines = ["mode table"] + [f"{k} {getattr(t, k)!r}" for k in
                              ("lambda_p", "lambda_s", "lambda_pe", "lambda_se",
                               "primary_outage")]
    lines += [f"duration {i + 1} {d!r} {f!r} {o!r}"
              for i, (d, f, o) in enumerate(zip(t.det, t.fa, t.out))]
    return "\n".join(lines) + "\n"


def random_scenario(rng, m: int, physical: bool, lambdas=None) -> tuple[str, Table]:
    """A monotone sensing table like table1.scn: detection, false alarm and
    outage all rise with the sensing duration. Returns (file text, Table)."""
    lam_p, lam_s, lam_pe, lam_se = lambdas or (
        _rates2(rng, 0.02, 0.2, 1) + _rates2(rng, 0.05, 0.5, 1)
        + _rates2(rng, 0.15, 0.8, 1) + _rates2(rng, 0.05, 0.9, 1))
    det = _monotone(rng, 0.6, 0.97, m)
    fa = _monotone(rng, 0.03, 0.15, m)
    if not physical:
        table = Table(lam_p, lam_s, lam_pe, lam_se, round(float(rng.uniform(0.1, 0.4)), 2),
                      det, fa, _monotone(rng, 0.05, 0.6, m))
        return table_text(table), table
    link = Link(1000.0, 1e-3, 1e6, 1.0, 1e-6, float(f"{rng.uniform(5e-5, 2e-4):.3g}"))
    taus = sorted({float(f"{v:.4g}") for v in rng.uniform(0.0, 6e-4, 4 * m)})
    taus = [taus[i] for i in np.sort(rng.choice(len(taus), m, replace=False))]
    lines = ["mode physical", f"lambda_p {lam_p!r}", f"lambda_s {lam_s!r}",
             f"lambda_pe {lam_pe!r}", f"lambda_se {lam_se!r}"]
    lines += [f"{k} {getattr(link, k)!r}" for k in Link.__dataclass_fields__]
    lines += [f"duration {i + 1} {tau!r} {d!r} {f!r}"
              for i, (tau, d, f) in enumerate(zip(taus, det, fa))]
    table = Table(lam_p, lam_s, lam_pe, lam_se, outage(link, link.slot_duration), det, fa,
                  tuple(outage(link, link.slot_duration - tau) for tau in taus))
    return "\n".join(lines) + "\n", table


def _grid(start_h: int, step_h: int, n: int) -> tuple[list[str], list[float]]:
    """CLI flags and intended values of an n-point grid in hundredths."""
    flags = ["--from", f"{start_h / 100:.2f}", "--to", f"{(start_h + (n - 1) * step_h) / 100:.2f}",
             "--step", f"{step_h / 100:.2f}"]
    return flags, [(start_h + k * step_h) / 100 for k in range(n)]


def user_grid(rng) -> tuple[list[str], list[float]]:
    """41 to 61 points, step 0.01 or 0.02, anywhere inside [0, 1]."""
    step_h = int(rng.choice([1, 2]))
    n = int(rng.integers(41, 62 if step_h == 1 else 52))
    start_h = int(rng.integers(0, 100 - (n - 1) * step_h + 1))
    return _grid(start_h, step_h, n)


def _cli(api, argv: list[str]) -> Result:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = api.cli_main(argv)
        except SystemExit as exc:          # argparse rejects the arguments
            code = exc.code if isinstance(exc.code, int) else 1
    return Result(code, out.getvalue().encode(), err.getvalue())


def _sweep_op(api, op_id, argv, table, param, grid, simulated) -> Op:
    def check(res: Result) -> list[str]:
        if res.code == 2 and b",optimal," in res.output:
            return ["exit 2 although some point is optimal"]
        return check_sweep_csv(res.output.decode(), table, param, grid, simulated)
    return Op(op_id, lambda: _cli(api, argv), check, points=len(grid))


def optimize_round(api, rng, workdir: Path, r: int) -> list[Op]:
    combos = [(m, param, physical) for m in range(MIN_M, MAX_M + 1)
              for param in SWEPT for physical in (True, False, False)]
    ops = []
    for k in rng.permutation(len(combos)):
        m, param, physical = combos[k]
        text, table = random_scenario(rng, m, physical)
        path = workdir / f"opt-r{r}-{len(ops)}.scn"
        path.write_text(text)
        flags, grid = user_grid(rng)
        argv = ["sweep", str(path), "--param", param] + flags
        ops.append(_sweep_op(api, f"r{r}.{len(ops)}", argv, table, param, grid, False))
    return ops


_VALIDATE_RANGES = {          # (lowest start, highest stop, steps), hundredths
    "lambda_p": (1, 12, (1, 2)),
    "lambda_pe": (20, 95, (5, 10)),
    "lambda_se": (5, 95, (5, 10)),
}


def _all_feasible(table: Table, param: str, grid: list[float]) -> bool:
    tables = [replace(table, **{param: v}) for v in grid]
    mu_p, _, _ = rates(tables, candidate_policies(table.m))
    return bool(np.all(mu_p.max(axis=1) > np.array([t.lambda_p for t in tables]) + 1e-3))


def validate_round(api, rng, workdir: Path, r: int) -> list[Op]:
    path = workdir / "table1.scn"
    if not path.exists():
        path.write_text(table_text(TABLE1))
    ops = []
    for param in SWEPT:
        lo, hi, steps = _VALIDATE_RANGES[param]
        while True:
            step_h = int(rng.choice(steps))
            start_h = int(rng.integers(lo, hi - (VALIDATE_POINTS - 1) * step_h + 1))
            flags, grid = _grid(start_h, step_h, VALIDATE_POINTS)
            if _all_feasible(TABLE1, param, grid):
                break
        argv = (["sweep", str(path), "--param", param] + flags
                + ["--simulate", "--seed", str(int(rng.integers(0, 2**31)))])
        ops.append(_sweep_op(api, f"r{r}.{len(ops)}", argv, TABLE1, param, grid, True))
    return ops


def _report_bytes(report, verdicts=()) -> bytes:
    """Exact encoding of a SimReport: floats by their hex form."""
    def enc(v):
        return v.hex() if isinstance(v, float) else repr(v)
    fields = [f"{k}={enc(v)}" for k, v in vars(report).items()]
    fields += [f"{v.queue}:{v.verdict}:{v.drift_slope.hex()}" for v in verdicts]
    return ";".join(fields).encode()


def _check_report(report, config, coupled: bool) -> list[str]:
    measured = config.horizon - config.warmup
    problems = []
    if (report.horizon, report.warmup, report.seed, report.mode) != (
            config.horizon, config.warmup, config.seed, config.mode):
        problems.append("report does not echo its configuration")
    for name in ("mu_p", "mu_s", "mu_pe", "mu_se", "prob_pe_empty", "prob_se_nonempty"):
        value = getattr(report, name)
        if not 0.0 <= value <= 1.0:
            problems.append(f"{name} {value!r} outside [0, 1]")
    for name in ("mean_q_p", "mean_q_s", "mean_q_pe", "mean_q_se"):
        if not getattr(report, name) >= 0.0:
            problems.append(f"{name} negative")
    if not 0 <= report.collisions <= measured:
        problems.append(f"collisions {report.collisions} outside [0, {measured}]")
    if coupled != (report.dominance_violations is not None):
        problems.append("dominance_violations must be set in coupled mode only")
    elif coupled and not 0 <= report.dominance_violations <= 2 * config.horizon:
        problems.append(f"dominance_violations {report.dominance_violations}")
    return problems


def _random_policy(api, rng, m: int):
    raw = rng.random(m) + 0.01
    return api.PolicyVector(tuple(raw / raw.sum()))


def _sim_op(api, op_id: str, scenario, policy, mode: str, horizon: int, warmup: int,
            seed: int) -> Op:
    config = api.SimConfig(scenario, policy, mode, horizon, seed, warmup)
    if mode == "coupled":
        def run():
            report = api.coupled_dominance_run(config)
            return Result(0, _report_bytes(report), (report, ()))
    else:
        def run():
            report = api.simulate(config)
            verdicts = api.stability_diagnostic(report, scenario)
            return Result(0, _report_bytes(report, verdicts), (report, verdicts))

    def check(res: Result) -> list[str]:
        report, verdicts = res.value
        problems = _check_report(report, config, mode == "coupled")
        if mode != "coupled":
            if [v.queue for v in verdicts] != ["primary_data", "secondary_data"]:
                problems.append("stability_diagnostic returned the wrong queues")
            problems += [f"verdict {v.verdict!r}" for v in verdicts
                         if v.verdict not in ("stable", "unstable", "borderline")]
        return problems
    return Op(op_id, run, check, slots=horizon, config=config)


def queue_round(api, rng, workdir: Path, r: int) -> list[Op]:
    ops = []
    for k in range(SHORTS_PER_ROUND + 2):
        m = int(rng.integers(MIN_M, MAX_M + 1))
        long_run = k in (SHORTS_PER_ROUND // 2, SHORTS_PER_ROUND + 1)
        lambdas = None if long_run else _rates2(rng, 0.05, 0.95, 4)
        text, _ = random_scenario(rng, m, False, lambdas)
        path = workdir / f"queue-r{r}-{k}.scn"
        path.write_text(text)
        scenario = api.parse_scenario(path)
        policy = _random_policy(api, rng, m)
        seed = int(rng.integers(0, 2**31))
        if long_run:
            ops.append(_sim_op(api, f"r{r}.{k}", scenario, policy, "original",
                               LONG_HORIZON, LONG_WARMUP, seed))
        else:
            ops.append(_sim_op(api, f"r{r}.{k}", scenario, policy, "coupled",
                               SHORT_HORIZON, 0, seed))
    return ops


_ROUNDS = {
    "optimize-sweep": optimize_round,
    "validate-sweep": validate_round,
    "queue-dynamics": queue_round,
}


def make_round(name: str, api, seed: int, r: int, workdir: Path) -> list[Op]:
    rng = np.random.default_rng([seed, WORKLOADS.index(name), r])
    return _ROUNDS[name](api, rng, workdir, r)


def unit_of_work(name: str) -> str:
    return "slots" if name == "queue-dynamics" else "points"


def work(name: str, op: Op) -> int:
    return op.slots if name == "queue-dynamics" else op.points

