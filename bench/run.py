"""Benchmark of crsense: three seeded workloads run through the public entry
points, end-to-end metrics from an untraced run, per-module metrics from a
traced one.

    python3 bench/run.py --workload optimize-sweep --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25

``--workload all`` runs every workload, each in its own process, and prints
every metric. The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the full record
(environment, sample counts, failures, a SHA-256 of every output) goes to
``bench/out/<workload>-seed<n>-trace<t>.json``.

With ``--trace 0`` the run reports ``setup_s``, ``op_ms.p50``,
``work_per_s`` and ``peak_rss_mb``. Their times are calibrated against the
fixed workload of ``reference.py``; the raw wall times go to the record.
With ``--trace 1`` it runs rounds untraced for half the time, replays the
same rounds traced, and reports the per-module metrics of
``spans.layer_metrics``; the spans go to ``bench/out/spans-<workload>.json``.

The package is imported from ``src/`` next to this directory and nowhere
else; without it the run fails before printing a result.
"""

import os

# one BLAS thread, so that the figures measure the program, not the scheduler
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from dataclasses import replace  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import numpy as np  # noqa: E402

from reference import Reference  # noqa: E402
from spans import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, make_round, unit_of_work, work  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_REPEATS = 9
DRAW_FLOOR_SLOTS, DRAW_FLOOR_REPEATS = 200_000, 5
ALLOC_PROBE_SLOTS = 20_000
P90_MIN_OPS = 100


def load_crsense():
    """Import crsense from this checkout's ``src`` only; exit 1 without it."""
    if not (SRC / "crsense" / "__init__.py").is_file():
        raise SystemExit(f"error: no crsense sources at {SRC}")
    sys.path.insert(0, str(SRC))
    crsense = importlib.import_module("crsense")
    if Path(crsense.__file__).resolve().parent != SRC / "crsense":
        raise SystemExit(f"error: imported crsense from {crsense.__file__}, not {SRC}")
    modules = {name: importlib.import_module(f"crsense.{name}")
               for name in ("cli", "sweep", "optimizer", "scenario_io", "simulator")}
    sim = modules["simulator"]
    api = SimpleNamespace(
        cli_main=modules["cli"].main, parse_scenario=crsense.parse_scenario,
        PolicyVector=crsense.PolicyVector, SimConfig=sim.SimConfig, simulate=sim.simulate,
        coupled_dominance_run=sim.coupled_dominance_run,
        stability_diagnostic=sim.stability_diagnostic)
    return modules, api


def environment(modules) -> dict:
    git = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        git = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "git_revision": git,
        "src_sha256": digest.hexdigest(),
        "rng": modules["simulator"].RNG_DESCRIPTION,
        "platform": platform.platform(),
    }


class Rounds:
    """Rounds of one workload, generated on first use and then replayed."""

    def __init__(self, name: str, api, seed: int, workdir: Path):
        self.name, self.api, self.seed, self.workdir = name, api, seed, workdir
        self._rounds: list = []

    def __getitem__(self, r: int):
        while len(self._rounds) <= r:
            self._rounds.append(make_round(self.name, self.api, self.seed,
                                           len(self._rounds), self.workdir))
        return self._rounds[r]


def execute(name: str, op, tracer: Tracer | None) -> dict:
    """Run one op, time it, and grade its output outside the timed region."""
    run = op.run
    if tracer is not None:
        tracer.op_id = op.op_id
        run = tracer.wrap("op", run)
    error, problems, res = None, [], None
    start = time.perf_counter()
    try:
        res = run()
    except Exception as exc:          # a crash is a failed op, not a dead benchmark
        error = f"{type(exc).__name__}: {exc}"
    end = time.perf_counter()
    if res is not None and res.code not in (0, 2):
        error = f"exit {res.code}: {str(res.value).strip()}"
    elif res is not None:
        problems = op.check(res)
    return {"op": op.op_id, "start": start, "end": end, "work": work(name, op),
            "error": error, "problems": problems,
            "sha256": res.sha256 if res is not None else None}


def run_pass(name: str, rounds: Rounds, ref: Reference, seconds: float | None,
             count: int | None, tracer: Tracer | None = None) -> tuple[list[dict], int]:
    """Whole rounds until ``seconds`` have passed, or exactly ``count`` rounds;
    the reference is timed between ops."""
    records, r, start = [], 0, time.perf_counter()
    while True:
        for op in rounds[r]:
            ref.sample()
            records.append(execute(name, op, tracer))
        r += 1
        if (r >= count) if count is not None else (time.perf_counter() - start >= seconds):
            ref.sample(force=True)
            return records, r


def measure_setup(workdir: Path, ref: Reference) -> list[tuple[float, float]]:
    """(start, end) of fresh interpreters importing crsense and parsing the
    workload's first-round scenario files; the first run, which also
    compiles bytecode, is not counted."""
    cmd = [sys.executable, str(BENCH / "setup_probe.py"), str(SRC), str(workdir)]
    spans = []
    for _ in range(SETUP_REPEATS + 1):
        ref.sample(force=True)
        start = time.perf_counter()
        subprocess.run(cmd, check=True)
        spans.append((start, time.perf_counter()))
    ref.sample(force=True)
    return spans[1:]


def draw_floor(seed: int) -> float:
    """Slots per second of the simulator's raw draw, ``random((n, 9))``."""
    times = []
    for _ in range(DRAW_FLOOR_REPEATS):
        start = time.perf_counter()
        np.random.default_rng(seed).random((DRAW_FLOOR_SLOTS, 9))
        times.append(time.perf_counter() - start)
    return DRAW_FLOOR_SLOTS / statistics.median(times)


def alloc_per_slot(name: str, rounds: Rounds, api, workdir: Path, seed: int) -> float:
    """tracemalloc peak of one simulator call of at most ALLOC_PROBE_SLOTS
    divided by its horizon: the first op of queue-dynamics, a dominant-mode
    run of the reference table under the uniform policy for validate-sweep."""
    if name == "optimize-sweep":
        return 0.0
    if name == "validate-sweep":
        scenario = api.parse_scenario(workdir / "table1.scn")
        config = api.SimConfig(scenario, api.PolicyVector.uniform(scenario.num_durations),
                               "dominant", ALLOC_PROBE_SLOTS, seed, 0)
    else:
        config = rounds[0][0].config
        config = replace(config, horizon=min(config.horizon, ALLOC_PROBE_SLOTS), warmup=0)
    tracemalloc.start()
    try:
        api.simulate(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / config.horizon


def _failures(records: list[dict]) -> list[dict]:
    return [r for r in records if r["error"] or r["problems"]]


def _summary(records: list[dict], ref: Reference | None) -> dict:
    """Op statistics in reference-machine time, or in wall time without ``ref``."""
    secs = [(r["end"] - r["start"]) * (ref.scale(r["start"], r["end"]) if ref else 1.0)
            for r in records]
    work_done = sum(r["work"] for r in records)
    return {"ops": len(records), "op_seconds": sum(secs), "work_per_s": work_done / sum(secs),
            "op_ms.p50": 1e3 * statistics.median(secs),
            "op_ms.p90": 1e3 * float(np.percentile(secs, 90)) if len(secs) >= P90_MIN_OPS else None}


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict:
    modules, api = load_crsense()
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{name}-{os.getpid()}"
    workdir.mkdir()
    try:
        return _run_workload(name, seed, seconds, traced, modules, api, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run_workload(name, seed, seconds, traced, modules, api, workdir) -> dict:
    env = environment(modules)
    env["loadavg_start"] = os.getloadavg()
    ref = Reference()
    rounds = Rounds(name, api, seed, workdir)
    first = rounds[0][0]
    setup = measure_setup(workdir, ref)
    reference = execute(name, first, None)        # warm-up, and the determinism reference
    records, count = run_pass(name, rounds, ref, seconds / 2 if traced else seconds, None)
    deterministic = reference["sha256"] is not None and records[0]["sha256"] == reference["sha256"]
    metrics: dict[str, tuple[float, str, int]] = {}
    traced_records = []
    if traced:
        tracer = Tracer()
        with tracer.installed(modules, api):
            traced_records, _ = run_pass(name, rounds, ref, None, count, tracer)
        # tracing must not change a single output
        deterministic &= [r["sha256"] for r in traced_records] == [r["sha256"] for r in records]
        overhead = (_summary(traced_records, ref)["op_seconds"]
                    / _summary(records, ref)["op_seconds"])
        metrics = layer_metrics(tracer.spans, draw_floor(seed),
                                alloc_per_slot(name, rounds, api, workdir, seed), overhead)
        tracer.write(OUT / f"spans-{name}.json")
    summary, wall = _summary(records, ref), _summary(records, None)
    setup_s = statistics.median((end - start) * ref.scale(start, end) for start, end in setup)
    if not traced:
        metrics = {
            "setup_s": (setup_s, "s", len(setup)),
            "op_ms.p50": (summary["op_ms.p50"], "ms", summary["ops"]),
            "work_per_s": (summary["work_per_s"], "1/s", summary["ops"]),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1),
        }
    all_records = records + traced_records
    failures = _failures(all_records)
    env["loadavg_end"] = os.getloadavg()
    outputs = {r["op"]: r["sha256"] for r in records}
    return {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(traced),
        "environment": env,
        "rounds": count,
        "attempted": len(all_records),
        "failed": len(failures),
        "wrong": sum(bool(r["problems"]) for r in all_records),
        "failed_ratio": len(failures) / len(all_records),
        "deterministic": deterministic,
        f"{unit_of_work(name)}_per_s": summary["work_per_s"],
        "op_ms.p90": summary["op_ms.p90"],
        "metrics": {k: {"value": v, "unit": u, "n": n} for k, (v, u, n) in metrics.items()},
        "wall_clock": {"setup_s": statistics.median(end - start for start, end in setup),
                       "op_ms.p50": wall["op_ms.p50"], "op_ms.p90": wall["op_ms.p90"],
                       "work_per_s": wall["work_per_s"], "reference_ms": ref.median_ms()},
        "failures": [{k: r[k] for k in ("op", "error", "problems")} for r in failures[:20]],
        "outputs_sha256": hashlib.sha256(json.dumps(outputs, sort_keys=True).encode()).hexdigest(),
        "outputs": outputs,
        "op_wall_ms": {r["op"]: 1e3 * (r["end"] - r["start"]) for r in records},
    }


def report(result: dict) -> dict:
    """Print the human-readable lines; return the contract's result object."""
    name = result["workload"]
    correct = result["deterministic"] and result["wrong"] == 0
    print(f"# {name}  seed {result['seed']}  trace {result['trace']}  rounds {result['rounds']}")
    env = result["environment"]
    print(f"# python {env['python']}  numpy {env['numpy']}  nproc {env['nproc']}  "
          f"git {env['git_revision']}  rng {env['rng']}  "
          f"load {env['loadavg_start'][0]:.2f} -> {env['loadavg_end'][0]:.2f}")
    for key, m in result["metrics"].items():
        print(f"{name:16s} {key:36s} {m['value']:14.6g} {m['unit']:6s} n={m['n']}")
    unit = unit_of_work(name)
    print(f"{name:16s} {unit + '_per_s':36s} {result[unit + '_per_s']:14.6g} 1/s")
    if result["op_ms.p90"] is not None:
        print(f"{name:16s} {'op_ms.p90':36s} {result['op_ms.p90']:14.6g} ms")
    print(f"{name:16s} {'failed_ratio':36s} {result['failed_ratio']:14.6g} ratio "
          f"({result['failed']} failed of {result['attempted']} ops, "
          f"{result['wrong']} wrong; deterministic {result['deterministic']})")
    for failure in result["failures"][:5]:
        print(f"# failed {failure['op']}: {failure['error'] or failure['problems'][:3]}")
    return {"correct": correct, "attempted": result["attempted"], "failed": result["failed"],
            "metrics": {k: {"value": m["value"], "unit": m["unit"]}
                        for k, m in result["metrics"].items()}}


def run_all(args) -> dict:
    """Every workload in its own process, one after the other."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        last = json.loads(lines[-1])
        merged["correct"] &= last["correct"]
        merged["attempted"] += last["attempted"]
        merged["failed"] += last["failed"]
        merged["metrics"].update({f"{name}/{k}": v for k, v in last["metrics"].items()})
    return merged


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload == "all":
        final = run_all(args)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(result, indent=1))
        final = report(result)
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
