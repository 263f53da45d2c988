"""Tests of the benchmark itself: the result contract, and the sweep checker.

Run from the repository root:  python3 -m pytest bench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from model import check_sweep_csv  # noqa: E402
from workloads import TABLE1, Result  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(tmp_root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=tmp_root,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_emits_every_metric(workload, trace):
    proc = _bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0.1",
                  "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True
    assert last["attempted"] >= 1 and last["failed"] == 0
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        k: v["unit"] for k, v in last["metrics"].items()}
    assert all(isinstance(v["value"], float) for v in last["metrics"].values())


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench(tmp_path, "--workload", "optimize-sweep", "--seed", "1", "--seconds", "1")
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.fixture(scope="module")
def api():
    modules, api = run.load_crsense()
    return api


@pytest.fixture()
def sweep_op(api, tmp_path):
    """A four-point sweep on the reference table, and its genuine CSV."""
    path = tmp_path / "table1.scn"
    path.write_text(workloads.table_text(TABLE1))
    flags, grid = workloads._grid(10, 10, 4)
    argv = ["sweep", str(path), "--param", "lambda_se"] + flags
    op = workloads._sweep_op(api, "t", argv, TABLE1, "lambda_se", grid, False)
    res = op.run()
    assert res.code == 0 and op.check(res) == []
    return op, res


def _corrupt(res: Result, row: int, column: int, value: str) -> Result:
    lines = res.output.decode().splitlines()
    cells = lines[row + 1].split(",")
    cells[column] = value
    lines[row + 1] = ",".join(cells)
    return Result(res.code, ("\n".join(lines) + "\n").encode())


def test_checker_flags_a_lowered_mu_s(sweep_op):
    op, res = sweep_op
    mu_s = float(res.output.decode().splitlines()[2].split(",")[2])
    bad = _corrupt(res, 1, 2, f"{mu_s - 0.001:.6f}")
    assert any("candidate reaches" in p for p in op.check(bad))


def test_checker_flags_a_raised_mu_s(sweep_op):
    op, res = sweep_op
    mu_s = float(res.output.decode().splitlines()[2].split(",")[2])
    assert op.check(_corrupt(res, 1, 2, f"{mu_s + 0.001:.6f}"))


def test_checker_flags_a_policy_that_breaks_stability():
    # all mass on the worst detector at lambda_p close to the threshold
    table = TABLE1
    grid = [0.12]
    m = table.m
    header = ",".join(["swept_value", "status", "mu_s", "mu_p", "mu_se", "x_tilde_se",
                       "winning_subproblem"] + [f"P_{k}" for k in range(1, m + 1)])
    policy = ["1.000000"] + ["0.000000"] * (m - 1)
    row = ",".join(["0.120000", "optimal", "0.500000", "0.1", "0.5", "0.5", "overflow"] + policy)
    problems = check_sweep_csv(f"{header}\n{row}\n", table, "lambda_p", grid, False)
    assert any("< lambda_p" in p for p in problems)


def test_corrupted_row_counts_as_a_failed_op(sweep_op):
    op, res = sweep_op
    bad = _corrupt(res, 0, 7, "0.900000")          # policy no longer sums to 1
    op = workloads.Op(op.op_id, lambda: bad, op.check, points=op.points)
    record = run.execute("optimize-sweep", op, None)
    assert record["problems"] and run._failures([record]) == [record]


def test_cli_exit_1_is_a_failed_op_not_a_wrong_one(sweep_op):
    op, _ = sweep_op
    # what a grid that overshoots [0, 1] through round-off produces
    crashed = Result(1, b"", "error: lambda_se must lie in [0, 1], got 1.0000000000000002")
    op = workloads.Op(op.op_id, lambda: crashed, op.check, points=op.points)
    record = run.execute("optimize-sweep", op, None)
    assert record["error"].startswith("exit 1") and record["problems"] == []
    assert run._failures([record]) == [record]
