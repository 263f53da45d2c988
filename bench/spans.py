"""In-memory spans around the calls each crsense module makes into the layer
below, and the per-module metrics computed from them.

Tracing patches module attributes from outside: ``cli.run_sweep`` is the
name ``crsense.cli`` resolves when it calls into ``sweep``, so replacing it
with a timing wrapper records every such call without touching the package.
Each span is ``[id, parent id, op id, name, start ns, end ns, tag]``; the tag
carries what the per-module ratios need (a solve's status, a simulator
call's mode and horizon). Spans stay in a list and are written out once,
after the run.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

# module attribute -> tag taken from (args, result); None records no tag
WRAPPED = {
    ("cli", "parse_scenario"): None,
    ("cli", "run_sweep"): None,
    ("cli", "rows_to_csv"): lambda args, res: len(args[1]),
    ("sweep", "solve"): lambda args, res: res.status,
    ("sweep", "simulate"): lambda args, res: [args[0].mode, args[0].horizon],
    ("sweep", "analyze"): None,
    ("sweep", "compare_sim_vs_analytic"): lambda args, res: res.passed,
    ("optimizer", "solve_constrained_subproblem"): None,
    ("optimizer", "solve_overflow_subproblem"): None,
    ("optimizer", "solve_lp"): None,
    ("optimizer", "analyze"): None,
    ("scenario_io", "secondary_outage"): None,
}
# entry points the benchmark calls itself, wrapped on its own api namespace
API_WRAPPED = {
    "simulate": ("simulator.simulate", lambda args, res: [args[0].mode, args[0].horizon]),
    "coupled_dominance_run": ("simulator.coupled_dominance_run",
                              lambda args, res: [args[0].mode, args[0].horizon]),
    "stability_diagnostic": ("simulator.stability_diagnostic", None),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op_id = ""

    def wrap(self, name: str, fn, tag=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            rec = [len(spans), stack[-1] if stack else -1, self.op_id, name, 0, 0, None]
            spans.append(rec)
            stack.append(rec[0])
            rec[4] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[5] = clock()
                stack.pop()
            if tag is not None:
                rec[6] = tag(args, result)
            return result
        return traced

    @contextmanager
    def installed(self, crsense_modules: dict, api):
        """Patch every wrapped name for the duration of the block."""
        saved = []
        for (module, attr), tag in WRAPPED.items():
            mod = crsense_modules[module]
            saved.append((mod, attr, getattr(mod, attr)))
            setattr(mod, attr, self.wrap(f"{module}.{attr}", getattr(mod, attr), tag))
        for attr, (name, tag) in API_WRAPPED.items():
            saved.append((api, attr, getattr(api, attr)))
            setattr(api, attr, self.wrap(name, getattr(api, attr), tag))
        try:
            yield self
        finally:
            for obj, attr, original in reversed(saved):
                setattr(obj, attr, original)

    def write(self, path: Path) -> None:
        path.write_text(json.dumps({
            "fields": ["id", "parent", "op", "name", "start_ns", "end_ns", "tag"],
            "spans": self.spans}, separators=(",", ":")))


def _pct(values, q) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def layer_metrics(spans: list[list], draw_floor: float, alloc_per_slot: float,
                  overhead: float) -> dict[str, tuple[float, str, int]]:
    """Per-module metrics as name -> (value, unit, sample count).

    A metric whose module did not run in the traced pass reads 0 with a
    sample count of 0.
    """
    dur: dict[str, list[float]] = {}
    by_name: dict[str, list[list]] = {}
    child_ns = [0] * len(spans)
    lp_children = [0] * len(spans)
    for s in spans:
        dur.setdefault(s[3], []).append((s[5] - s[4]) / 1e3)       # µs
        by_name.setdefault(s[3], []).append(s)
        if s[1] >= 0:
            child_ns[s[1]] += s[5] - s[4]
            if s[3] == "optimizer.solve_lp":
                lp_children[s[1]] += 1

    def us(name):
        return dur.get(name, [])

    def total(name):
        return sum(us(name))

    def ratio(num, den):
        return num / den if den else 0.0

    def self_us(name):
        return [(s[5] - s[4] - child_ns[s[0]]) / 1e3 for s in by_name.get(name, [])]

    solves = by_name.get("sweep.solve", [])
    overflow = by_name.get("optimizer.solve_overflow_subproblem", [])
    compares = by_name.get("sweep.compare_sim_vs_analytic", [])
    csv_rows = sum(s[6] for s in by_name.get("cli.rows_to_csv", []))
    sims = [s for name in ("sweep.simulate", "simulator.simulate",
                           "simulator.coupled_dominance_run") for s in by_name.get(name, [])]

    def rate(mode):
        picked = [s for s in sims if s[6][0] == mode]
        slots = sum(s[6][1] for s in picked)
        return ratio(slots, sum(s[5] - s[4] for s in picked) / 1e9), "1/s", len(picked)

    shorts = [(s[5] - s[4]) / 1e6 for s in sims if s[6][0] == "coupled"]
    n_solve = len(solves)
    op_total = total("op")
    dominant, _, n_dom = rate("dominant")
    metrics = {
        "scenario_io.parse_us.p50": (_pct(us("cli.parse_scenario"), 50), "us",
                                     len(us("cli.parse_scenario"))),
        "channel.secondary_outage_us.p50": (_pct(us("scenario_io.secondary_outage"), 50), "us",
                                            len(us("scenario_io.secondary_outage"))),
        "cli.self_ms.p50": (_pct(self_us("op"), 50) / 1e3 if "cli.run_sweep" in dur else 0.0,
                            "ms", len(us("cli.run_sweep"))),
        "optimizer.solve_us.p50": (_pct(us("sweep.solve"), 50), "us", n_solve),
        "optimizer.solve_us.p99": (_pct(us("sweep.solve"), 99), "us", n_solve),
        "optimizer.constrained_us.p50": (
            _pct(us("optimizer.solve_constrained_subproblem"), 50), "us",
            len(us("optimizer.solve_constrained_subproblem"))),
        "optimizer.overflow_us.p50": (_pct(us("optimizer.solve_overflow_subproblem"), 50), "us",
                                      len(overflow)),
        "optimizer.overflow_resolve_ratio": (
            ratio(sum(lp_children[s[0]] > 1 for s in overflow), len(overflow)), "ratio",
            len(overflow)),
        "optimizer.infeasible_ratio": (ratio(sum(s[6] == "infeasible" for s in solves), n_solve),
                                       "ratio", n_solve),
        "optimizer.share_of_op": (ratio(total("sweep.solve"), op_total), "ratio", n_solve),
        "lp.solve_lp.calls_per_solve": (ratio(len(us("optimizer.solve_lp")), n_solve), "count",
                                        len(us("optimizer.solve_lp"))),
        "lp.solve_lp_us.p50": (_pct(us("optimizer.solve_lp"), 50), "us",
                               len(us("optimizer.solve_lp"))),
        "lp.share_of_solve": (ratio(total("optimizer.solve_lp"), total("sweep.solve")), "ratio",
                              n_solve),
        "analytics.analyze.calls_per_solve": (ratio(len(us("optimizer.analyze")), n_solve),
                                              "count", len(us("optimizer.analyze"))),
        "analytics.analyze_us.p50": (_pct(us("optimizer.analyze"), 50), "us",
                                     len(us("optimizer.analyze"))),
        "analytics.share_of_solve": (ratio(total("optimizer.analyze"), total("sweep.solve")),
                                     "ratio", n_solve),
        "sweep.rows_to_csv_us_per_row": (ratio(total("cli.rows_to_csv"), csv_rows), "us",
                                         csv_rows),
        "sweep.run_sweep.self_share": (ratio(sum(self_us("cli.run_sweep")),
                                             total("cli.run_sweep")), "ratio",
                                       len(us("cli.run_sweep"))),
        "sweep.compare_ms.p50": (_pct(us("sweep.compare_sim_vs_analytic"), 50) / 1e3, "ms",
                                 len(compares)),
        "sweep.xcheck_pass_ratio": (ratio(sum(bool(s[6]) for s in compares), len(compares)),
                                    "ratio", len(compares)),
        "simulator.slots_per_s.dominant": rate("dominant"),
        "simulator.slots_per_s.original": rate("original"),
        "simulator.slots_per_s.coupled": rate("coupled"),
        "simulator.short_run_ms.p50": (_pct(shorts, 50), "ms", len(shorts)),
        "simulator.share_of_op": (ratio(sum(s[5] - s[4] for s in sims) / 1e3, op_total),
                                  "ratio", len(sims)),
        "simulator.alloc_bytes_per_slot": (alloc_per_slot, "B", int(alloc_per_slot > 0)),
        "simulator.draw_floor_slots_per_s": (draw_floor, "1/s", 1),
        "simulator.floor_ratio.dominant": (ratio(dominant, draw_floor), "ratio", n_dom),
        "trace.overhead_ratio": (overhead, "ratio", 1),
    }
    return metrics
