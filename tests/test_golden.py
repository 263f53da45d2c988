"""Sweep CSV, simulate and check output bytes pinned against committed
golden files.

Each CSV under ``tests/golden`` is the output of ``crsense sweep`` on the
bundled table with the arguments listed below, each
``table1_simulate_<mode>.txt`` the stdout of ``crsense simulate`` on it (its
``rng`` line names the numpy release that made it, so that one line is held
to ``simulator.RNG_DESCRIPTION`` instead), with
``table1_simulate_original_lambda_s_0.33.txt`` one near the opportunistic
queue's stability boundary, where every window hands its rest to the loop, and
``table1_check_5_6_7.txt`` the stdout of ``crsense check`` on it for the grid
criteria 5, 6 and 7. ``physical_lambda_p.csv`` is the sweep of the
physical-mode scenario ``physical.scn``, whose outage columns are computed
from its link.
A change that moves any byte shows up here as a failing case, and the golden
file's diff shows which rows moved.
"""

from pathlib import Path

import pytest

from crsense import simulator
from crsense.cli import main
from crsense.scenario_io import bundled_scenario_text
from crsense.simulator import RNG_DESCRIPTION

GOLDEN = Path(__file__).parent / "golden"
FULL_GRID = ["--from", "0", "--to", "1", "--step", "0.01"]
CASES = {
    "table1_lambda_p.csv": ["--param", "lambda_p", *FULL_GRID],
    "table1_lambda_pe.csv": ["--param", "lambda_pe", *FULL_GRID],
    "table1_lambda_se.csv": ["--param", "lambda_se", *FULL_GRID],
    "table1_lambda_pe_simulated.csv": [
        "--param", "lambda_pe", "--from", "0.2", "--to", "0.8", "--step", "0.2",
        "--simulate", "--horizon", "50000", "--warmup", "5000"],
    "physical_lambda_p.csv": [
        "--param", "lambda_p", "--from", "0", "--to", "0.3", "--step", "0.01"],
}
SIMULATE = ["--policy", "optimal", "--horizon", "20000", "--warmup", "1000", "--seed", "3"]


@pytest.mark.parametrize("name", sorted(CASES))
def test_sweep_matches_golden_bytes(tmp_path, name):
    scenario_file = tmp_path / "scenario.scn"
    scenario_file.write_text((GOLDEN / "physical.scn").read_text() if name.startswith("physical")
                             else bundled_scenario_text())
    out = tmp_path / name
    assert main(["sweep", str(scenario_file), *CASES[name], "-o", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / name).read_bytes()


def test_grid_criteria_match_golden_bytes(tmp_path, capsys):
    scenario_file = tmp_path / "table1.scn"
    scenario_file.write_text(bundled_scenario_text())
    assert main(["check", str(scenario_file), "--criteria", "5", "6", "7"]) == 0
    out = capsys.readouterr().out.encode()
    assert out == (GOLDEN / "table1_check_5_6_7.txt").read_bytes()


def _assert_simulate_matches(tmp_path, capsys, name, args):
    scenario_file = tmp_path / "table1.scn"
    scenario_file.write_text(bundled_scenario_text())
    assert main(["simulate", str(scenario_file), *SIMULATE, *args]) == 0
    out = capsys.readouterr().out.encode()
    golden = (GOLDEN / name).read_bytes().splitlines(keepends=True)
    rng = f"rng {RNG_DESCRIPTION}\n".encode()
    assert out == b"".join(rng if line.startswith(b"rng ") else line for line in golden)


@pytest.mark.parametrize("mode", ["dominant", "coupled", "original"])
def test_simulate_matches_golden_bytes(tmp_path, capsys, mode):
    _assert_simulate_matches(tmp_path, capsys, f"table1_simulate_{mode}.txt", ["--mode", mode])


def test_near_critical_original_matches_golden_bytes(tmp_path, capsys, monkeypatch):
    loops = []
    loop = simulator._loop

    def counted(d, state):
        loops.append(d.det.size)
        return loop(d, state)

    monkeypatch.setattr(simulator, "_loop", counted)
    _assert_simulate_matches(tmp_path, capsys, "table1_simulate_original_lambda_s_0.33.txt",
                             ["--mode", "original", "--lambda-s", "0.33"])
    assert len(loops) >= 1
