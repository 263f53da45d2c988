"""The README's library quick start runs as written."""

import re
from pathlib import Path

README = Path(__file__).parent.parent / "README.md"


def test_library_quick_start_runs(capsys):
    text = README.read_text()
    block = re.search(r"^## Library quick start\n+```python\n(.*?)^```", text,
                      re.MULTILINE | re.DOTALL)
    assert block, "no python block under 'Library quick start'"
    exec(compile(block.group(1), str(README), "exec"), {})
    solved, compared = capsys.readouterr().out.splitlines()
    status, mu_s, side = solved.split()
    assert status == "optimal" and side in ("constrained", "overflow")
    closed_form, simulated = map(float, compared.split())
    assert closed_form == float(mu_s) > 0.0
    assert abs(simulated - closed_form) < 0.01 * closed_form
