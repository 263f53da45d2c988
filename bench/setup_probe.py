"""Set-up probe: a fresh interpreter imports crsense from the given source
tree and parses every scenario file in the given directory. ``run.py``
times this whole process; it is the start-up every CLI invocation pays.

Usage: python3 bench/setup_probe.py <src dir> <scenario dir>
"""

import sys
from pathlib import Path

sys.path.insert(0, sys.argv[1])

from crsense import parse_scenario  # noqa: E402

for path in sorted(Path(sys.argv[2]).glob("*.scn")):
    parse_scenario(path)
