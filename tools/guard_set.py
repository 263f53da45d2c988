"""Guard set of the original-mode simulator: twenty 1M-slot runs, timed.

    python tools/guard_set.py src --reps 5

Imports ``crsense`` from the given source directory, and from nowhere else,
so that two trees can be timed one after the other. Every case is an
``original`` run of 1 000 000 slots at seed 1 with warmup 0:

* the bundled table at six (lambda_p, lambda_s, lambda_pe, lambda_se)
  tuples, each under the uniform policy (``uniform``) and the point masses
  on durations 1 and 10 (``e1``, ``e10``);
* replication 63 of acceptance criterion 8's sample (seed 8) with lambda_s
  at 0.97 and 0.99 times its closed-form mu_s(P), near the opportunistic
  queue's stability boundary.

Each of ``--reps`` rounds runs every case once. The output is one JSON
object: per case its label, its minimum wall time in seconds and the
SHA-256 of its ``SimReport``'s ``repr`` (floats print exactly), then the
sum of the minima. Two trees that simulate the same trajectories print
the same hashes. A case whose report differs between rounds exits 1.
"""

import argparse
import hashlib
import json
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

RATES = ((0.2, 0.2, 0.4, 0.4), (0.1, 0.1, 0.4, 0.4), (0.188, 0.187, 0.291, 0.21),
         (0.282, 0.1, 0.445, 0.129), (0.1, 0.1, 0.2, 0.4), (0.2, 0.3, 0.3, 0.3))
NAMES = ("lambda_p", "lambda_s", "lambda_pe", "lambda_se")
LOADS = (0.97, 0.99)
HORIZON, SEED = 1_000_000, 1


def cases(crsense):
    """``(label, scenario, policy)`` of every case, in a fixed order."""
    table = crsense.load_bundled_scenario()
    m = table.num_durations
    policies = (("uniform", crsense.PolicyVector.uniform(m)),
                ("e1", crsense.PolicyVector.point_mass(m, 0)),
                ("e10", crsense.PolicyVector.point_mass(m, m - 1)))
    for rates in RATES:
        scenario = replace(table, **dict(zip(NAMES, rates)))
        for name, policy in policies:
            yield f"{rates} {name}", scenario, policy
    rng = np.random.default_rng(8)          # criterion 8's sample, drawn in its order
    for _ in range(64):
        raw = rng.random(m) + 0.01
        policy = crsense.PolicyVector(tuple(raw / raw.sum()))
        case = replace(table, **{name: rng.uniform(0.05, 0.95) for name in NAMES})
    for load in LOADS:
        yield (f"rep63 {load}",
               replace(case, lambda_s=load * crsense.analyze(case, policy).mu_s), policy)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src", type=Path, help="directory holding the crsense package")
    parser.add_argument("--reps", type=int, default=5, help="rounds over all cases (>= 1)")
    args = parser.parse_args()
    if args.reps < 1:
        parser.error(f"--reps must be at least 1, got {args.reps}")
    src = args.src.resolve()
    sys.path.insert(0, str(src))
    import crsense
    from crsense.simulator import SimConfig, simulate
    if Path(crsense.__file__).resolve().parent != src / "crsense":
        raise SystemExit(f"error: imported crsense from {crsense.__file__}, not {src}")
    runs = [(label, SimConfig(scenario, policy, "original", HORIZON, SEED))
            for label, scenario, policy in cases(crsense)]
    best, digest = {}, {}
    for _ in range(args.reps):
        for label, config in runs:
            start = time.perf_counter()
            report = simulate(config)
            seconds = time.perf_counter() - start
            best[label] = min(seconds, best.get(label, seconds))
            sha = hashlib.sha256(repr(report).encode()).hexdigest()
            if digest.setdefault(label, sha) != sha:
                raise SystemExit(f"error: case {label}: report differs between rounds")
    print(json.dumps({
        "reps": args.reps,
        "cases": [{"case": label, "min_s": round(best[label], 4), "sha256": digest[label]}
                  for label, _ in runs],
        "total_s": round(sum(best.values()), 4),
    }, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
