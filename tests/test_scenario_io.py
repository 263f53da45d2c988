import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crsense.channel import PhysicalLink, primary_outage, secondary_outage
from crsense.scenario_io import (
    ScenarioFormatError,
    load_bundled_scenario,
    parse_scenario,
    parse_scenario_text,
)
from scenario_strategies import SETTINGS, scenarios

TABLE_TEXT = """
# minimal two-duration table
lambda_p 0.1
lambda_s 0.2
lambda_pe 0.3
lambda_se 0.4
primary_outage 0.3
duration 2 0.75 0.06 0.2
duration 1 0.70 0.05 0.1
"""

PHYSICAL_TEXT = """
mode physical
lambda_p 0.1
lambda_s 0.1
lambda_pe 0.2
lambda_se 0.4
bits_per_packet 1000
slot_duration 1e-3
bandwidth 1e6
gain_variance 1.0
energy_per_packet 1e-6
noise_power 1e-3
duration 1 0.00005 0.70 0.05
duration 2 0.00010 0.75 0.06
"""


class TestBundledFixture:
    def test_loads_ten_rows(self, table_scenario):
        assert table_scenario.num_durations == 10
        assert table_scenario.primary_outage == 0.3
        assert [o.index for o in table_scenario.sensing_table] == list(range(1, 11))

    def test_first_and_last_rows(self, table_scenario):
        first, last = table_scenario.sensing_table[0], table_scenario.sensing_table[-1]
        assert (first.detection_prob, first.false_alarm_prob, first.secondary_outage) == \
            (0.70, 0.05, 0.10)
        assert (last.detection_prob, last.false_alarm_prob, last.secondary_outage) == \
            (0.95, 0.125, 0.60)

    def test_outage_column_strictly_increasing(self, table_scenario):
        outages = [o.secondary_outage for o in table_scenario.sensing_table]
        assert all(b > a for a, b in zip(outages, outages[1:]))

    def test_default_arrival_rates(self, table_scenario):
        assert (table_scenario.lambda_p, table_scenario.lambda_s,
                table_scenario.lambda_pe, table_scenario.lambda_se) == (0.1, 0.1, 0.2, 0.4)


class TestTableMode:
    def test_parses_and_sorts_by_index(self):
        scenario = parse_scenario_text(TABLE_TEXT)
        assert [o.index for o in scenario.sensing_table] == [1, 2]
        assert scenario.sensing_table[0].detection_prob == 0.70
        assert scenario.lambda_s == 0.2

    def test_out_of_range_probability_names_line(self):
        bad = TABLE_TEXT.replace("duration 1 0.70 0.05 0.1", "duration 1 1.2 0.05 0.1")
        with pytest.raises(ScenarioFormatError, match=r"line 9.*detection"):
            parse_scenario_text(bad)

    def test_empty_table_rejected(self):
        text = "\n".join(line for line in TABLE_TEXT.splitlines()
                         if not line.startswith("duration"))
        with pytest.raises(ScenarioFormatError, match="at least one duration"):
            parse_scenario_text(text)

    def test_duplicate_index_rejected(self):
        bad = TABLE_TEXT.replace("duration 2", "duration 1", 1)
        with pytest.raises(ScenarioFormatError, match="duplicate duration index 1"):
            parse_scenario_text(bad)

    def test_missing_rate_rejected(self):
        bad = TABLE_TEXT.replace("lambda_pe 0.3\n", "")
        with pytest.raises(ScenarioFormatError, match="lambda_pe"):
            parse_scenario_text(bad)

    def test_unknown_key_rejected(self):
        with pytest.raises(ScenarioFormatError, match="unknown key"):
            parse_scenario_text(TABLE_TEXT + "\nwhatever 3\n")

    def test_duplicate_scalar_rejected(self):
        with pytest.raises(ScenarioFormatError, match="given twice"):
            parse_scenario_text(TABLE_TEXT + "\nlambda_p 0.5\n")

    def test_wrong_field_count_rejected(self):
        with pytest.raises(ScenarioFormatError, match="4 fields"):
            parse_scenario_text(TABLE_TEXT + "\nduration 3 0.8 0.1\n")

    def test_link_keys_rejected_in_table_mode(self):
        with pytest.raises(ScenarioFormatError, match="physical mode"):
            parse_scenario_text(TABLE_TEXT + "\nbandwidth 1e6\n")


class TestPhysicalMode:
    def test_outages_computed_from_link(self):
        scenario = parse_scenario_text(PHYSICAL_TEXT)
        link = PhysicalLink(1000, 1e-3, 1e6, 1.0, 1e-6, 1e-3)
        assert scenario.primary_outage == pytest.approx(primary_outage(link), rel=1e-12)
        assert scenario.sensing_table[0].secondary_outage == pytest.approx(
            secondary_outage(link, 5e-5), rel=1e-12)
        assert scenario.sensing_table[1].duration == pytest.approx(1e-4)
        # outage grows with the sensing time
        assert (scenario.sensing_table[1].secondary_outage
                > scenario.sensing_table[0].secondary_outage)

    def test_primary_outage_key_rejected(self):
        with pytest.raises(ScenarioFormatError, match="derived from the link"):
            parse_scenario_text(PHYSICAL_TEXT + "\nprimary_outage 0.3\n")

    def test_missing_link_key_rejected(self):
        bad = PHYSICAL_TEXT.replace("noise_power 1e-3\n", "")
        with pytest.raises(ScenarioFormatError, match="noise_power"):
            parse_scenario_text(bad)

    @pytest.mark.parametrize("token, value", [("-1e6", "-1000000.0"), ("0", "0.0"),
                                              ("inf", "inf"), ("nan", "nan"), ("1e400", "inf")])
    def test_bad_link_value_names_line(self, token, value):
        bad = PHYSICAL_TEXT.replace("bandwidth 1e6", f"bandwidth {token}")
        message = f"line 9: bandwidth must be a strictly positive finite number, got {value}"
        with pytest.raises(ScenarioFormatError, match=re.escape(message)) as err:
            parse_scenario_text(bad)
        assert err.value.line_no == 9

    def test_sensing_time_beyond_slot_rejected(self):
        bad = PHYSICAL_TEXT + "\nduration 3 0.002 0.8 0.07\n"
        message = ("line 16: duration 3: sensing time 0.002 leaves no transmission window "
                   "in a 0.001 s slot")
        with pytest.raises(ScenarioFormatError, match=f"^{re.escape(message)}$") as err:
            parse_scenario_text(bad)
        assert err.value.line_no == 16

    @pytest.mark.parametrize("token, value", [("0.001", "0.001"), ("-1e-4", "-0.0001"),
                                              ("inf", "inf"), ("nan", "nan")])
    def test_sensing_time_outside_slot_names_line(self, token, value):
        # the parser leaves the rule to secondary_outage and adds the line
        bad = PHYSICAL_TEXT.replace("duration 2 0.00010", f"duration 2 {token}")
        message = (f"line 14: duration 2: sensing time {value} leaves no transmission window "
                   "in a 0.001 s slot")
        with pytest.raises(ScenarioFormatError, match=f"^{re.escape(message)}$"):
            parse_scenario_text(bad)


class TestFiles:
    def test_round_trip_through_file(self, tmp_path):
        path = tmp_path / "case.scn"
        path.write_text(TABLE_TEXT)
        assert parse_scenario(path) == parse_scenario_text(TABLE_TEXT)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            parse_scenario(tmp_path / "nope.scn")

    def test_bundled_equals_direct_parse(self, table_scenario):
        assert load_bundled_scenario() == table_scenario


def scenario_text(scenario, order) -> str:
    """Table-mode text of a scenario, duration records in the given order."""
    lines = [f"{name} {getattr(scenario, name)!r}" for name in
             ("lambda_p", "lambda_s", "lambda_pe", "lambda_se", "primary_outage")]
    table = scenario.sensing_table
    lines += [f"duration {table[k].index} {table[k].detection_prob!r} "
              f"{table[k].false_alarm_prob!r} {table[k].secondary_outage!r}" for k in order]
    return "\n".join(lines) + "\n"


class TestRoundTrip:
    @settings(max_examples=100, **SETTINGS)
    @given(st.data())
    def test_text_round_trip(self, data):
        scenario = data.draw(scenarios(1, 12))
        order = data.draw(st.permutations(range(scenario.num_durations)))
        assert parse_scenario_text(scenario_text(scenario, order)) == scenario
