"""Plain-text scenario files.

One key or record per line; ``#`` starts a comment; blank lines are ignored.
Keys may appear in any order and duration records are ordered by index.

Table mode (operating probabilities given directly)::

    mode table                  # optional, table is the default
    lambda_p 0.1                # arrival rates, packets per slot, in [0, 1]
    lambda_s 0.1
    lambda_pe 0.2
    lambda_se 0.4
    primary_outage 0.3
    duration <index> <detection> <false_alarm> <outage>

Physical mode (outages computed from the link parameters)::

    mode physical
    lambda_p 0.1 ... lambda_se 0.4
    bits_per_packet 1000
    slot_duration 1e-3
    bandwidth 1e6
    gain_variance 1.0
    energy_per_packet 1e-6
    noise_power 1e-3
    duration <index> <tau_seconds> <detection> <false_alarm>

In physical mode the licensed-link outage is derived from the link block, so
an explicit ``primary_outage`` key is rejected there.
"""

from __future__ import annotations

from dataclasses import fields
from importlib import resources
from pathlib import Path

from .analytics import PROBABILITIES, Scenario
from .channel import PhysicalLink, SensingOption, is_probability, primary_outage, secondary_outage

_RATE_KEYS = tuple(k for k in PROBABILITIES if k != "primary_outage")
_LINK_KEYS = tuple(f.name for f in fields(PhysicalLink))


class ScenarioFormatError(ValueError):
    """Malformed scenario file; carries the offending line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def _parse_float(line_no: int, key: str, token: str) -> float:
    try:
        return float(token)
    except ValueError:
        raise ScenarioFormatError(line_no, f"{key}: cannot parse number {token!r}") from None


def _parse_prob(line_no: int, key: str, token: str) -> float:
    value = _parse_float(line_no, key, token)
    if not is_probability(value):
        raise ScenarioFormatError(line_no, f"{key} {value!r} outside [0, 1]")
    return value


def _parse_link(line_no: int, key: str, token: str) -> float:
    value = _parse_float(line_no, key, token)
    try:
        PhysicalLink.check(key, value)
    except ValueError as err:
        raise ScenarioFormatError(line_no, str(err)) from None
    return value


def parse_scenario_text(text: str, source: str = "<string>") -> Scenario:
    scalars: dict[str, float] = {}
    mode: str | None = None
    durations: dict[int, tuple] = {}

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        key, args = tokens[0], tokens[1:]
        if key == "mode":
            if mode is not None:
                raise ScenarioFormatError(line_no, "mode given twice")
            if len(args) != 1 or args[0] not in ("table", "physical"):
                raise ScenarioFormatError(line_no, "mode must be 'table' or 'physical'")
            mode = args[0]
        elif key == "duration":
            if len(args) != 4:
                raise ScenarioFormatError(
                    line_no, f"duration record needs 4 fields, got {len(args)}")
            try:
                index = int(args[0])
            except ValueError:
                raise ScenarioFormatError(
                    line_no, f"duration index {args[0]!r} is not an integer") from None
            if index < 1:
                raise ScenarioFormatError(line_no, f"duration index {index} must be >= 1")
            if index in durations:
                raise ScenarioFormatError(line_no, f"duplicate duration index {index}")
            durations[index] = (line_no, args[1:])
        elif key in PROBABILITIES + _LINK_KEYS:
            if len(args) != 1:
                raise ScenarioFormatError(line_no, f"{key} needs exactly one value")
            if key in scalars:
                raise ScenarioFormatError(line_no, f"{key} given twice")
            parse = _parse_prob if key in PROBABILITIES else _parse_link
            scalars[key] = parse(line_no, key, args[0])
        else:
            raise ScenarioFormatError(line_no, f"unknown key {key!r}")

    mode = mode or "table"
    for key in _RATE_KEYS:
        if key not in scalars:
            raise ScenarioFormatError(0, f"{source}: missing required key {key!r}")
    if not durations:
        raise ScenarioFormatError(0, f"{source}: needs at least one duration record")

    link = None
    if mode == "table":
        for key in _LINK_KEYS:
            if key in scalars:
                raise ScenarioFormatError(0, f"{source}: {key!r} belongs to physical mode")
        if "primary_outage" not in scalars:
            raise ScenarioFormatError(0, f"{source}: table mode requires primary_outage")
        p_out_p = scalars["primary_outage"]
    else:
        if "primary_outage" in scalars:
            raise ScenarioFormatError(
                0, f"{source}: primary_outage is derived from the link in physical mode")
        missing = [k for k in _LINK_KEYS if k not in scalars]
        if missing:
            raise ScenarioFormatError(0, f"{source}: physical mode missing {missing}")
        link = PhysicalLink(**{k: scalars[k] for k in _LINK_KEYS})
        p_out_p = primary_outage(link)

    table = []
    for index in sorted(durations):
        line_no, fields = durations[index]
        tau = None
        if link is not None:
            tau, fields = _parse_float(line_no, f"duration {index} tau", fields[0]), fields[1:]
            try:                # secondary_outage owns the sensing-time rule
                out = secondary_outage(link, tau)
            except ValueError as err:
                raise ScenarioFormatError(line_no, f"duration {index}: {err}") from None
        det = _parse_prob(line_no, f"duration {index} detection", fields[0])
        fal = _parse_prob(line_no, f"duration {index} false_alarm", fields[1])
        if link is None:
            out = _parse_prob(line_no, f"duration {index} outage", fields[2])
        table.append(SensingOption(index, det, fal, out, tau))

    return Scenario(**{k: scalars[k] for k in _RATE_KEYS}, primary_outage=p_out_p,
                    sensing_table=tuple(table))


def parse_scenario(path: str | Path) -> Scenario:
    """Parse a scenario file; errors carry the offending line number."""
    path = Path(path)
    return parse_scenario_text(path.read_text(), source=str(path))


def bundled_scenario_text(name: str = "table1.scn") -> str:
    return resources.files("crsense").joinpath("data", name).read_text()


def load_bundled_scenario(name: str = "table1.scn") -> Scenario:
    """Load a scenario shipped with the package (default: the ten-duration
    reference table used throughout the test suite)."""
    return parse_scenario_text(bundled_scenario_text(name), source=name)
