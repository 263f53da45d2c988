import decimal
import math
import re
import sys
from dataclasses import replace
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from crsense.analytics import PolicyVector
from crsense.channel import (
    PhysicalLink,
    SensingOption,
    primary_outage,
    secondary_outage,
    verify_outage_monotonicity,
)
from crsense.scenario_io import load_bundled_scenario
from crsense.simulator import SimConfig
from crsense.sweep import SweepSpec
from scenario_strategies import SETTINGS

# b/(W T) = 1 and gain_variance * e / (T * noise) = 1, so the outage
# exponents are hand-computable: (2^1 - 1)/1 = 1 at tau = 0 and
# (2^2 - 1)/2 = 1.5 at tau = T/2.
UNIT_LINK = PhysicalLink(
    bits_per_packet=1000.0,
    slot_duration=1e-3,
    bandwidth=1e6,
    gain_variance=1.0,
    energy_per_packet=1e-6,
    noise_power=1e-3,
)


def random_link(rng):
    """Random link whose outage stays numerically away from exactly 1.0.

    The exponent at the largest sensing time (0.9 T) is drawn in
    [1e-6, 25]; beyond ~36 the probability rounds to 1.0 in float64 and
    strict comparisons lose meaning even though the math stays strict.
    """
    r = 10.0 ** rng.uniform(math.log10(0.05), math.log10(1.2))
    top_exponent = 10.0 ** rng.uniform(-6.0, math.log10(25.0))
    sg = (2.0 ** (10.0 * r) - 1.0) / (10.0 * top_exponent)
    slot = 10.0 ** rng.uniform(-4.0, -2.0)
    bandwidth = 10.0 ** rng.uniform(5.0, 7.0)
    gain_var = 10.0 ** rng.uniform(-1.0, 1.0)
    noise = 10.0 ** rng.uniform(-9.0, -6.0)
    return PhysicalLink(
        bits_per_packet=r * bandwidth * slot,
        slot_duration=slot,
        bandwidth=bandwidth,
        gain_variance=gain_var,
        energy_per_packet=sg * slot * noise / gain_var,
        noise_power=noise,
    )


class TestOutage:
    def test_degenerate_duration_rejected(self):
        with pytest.raises(ValueError, match="leaves no transmission window"):
            secondary_outage(UNIT_LINK, UNIT_LINK.slot_duration)
        with pytest.raises(ValueError, match="leaves no transmission window"):
            secondary_outage(UNIT_LINK, -1e-6)

    def test_unit_exponent(self):
        assert secondary_outage(UNIT_LINK, 0.0) == pytest.approx(1.0 - math.exp(-1.0), rel=1e-12)

    def test_half_slot_exponent(self):
        assert secondary_outage(UNIT_LINK, 0.5e-3) == pytest.approx(
            1.0 - math.exp(-1.5), rel=1e-12)

    def test_huge_gain_kills_outage(self):
        link = PhysicalLink(1000.0, 1e-3, 1e6, 1e12, 1e-6, 1e-3)
        assert secondary_outage(link, 0.0) == pytest.approx(0.0, abs=1e-9)
        assert primary_outage(link) == pytest.approx(0.0, abs=1e-9)

    def test_primary_unit_exponent(self):
        assert primary_outage(UNIT_LINK) == pytest.approx(1.0 - math.exp(-1.0), rel=1e-12)

    def test_zero_sensing_time_reduces_to_primary_formula(self):
        # the licensed link is the sensing link with no sensing time
        rng = np.random.default_rng(11)
        for _ in range(200):
            link = random_link(rng)
            assert secondary_outage(link, 0.0) == pytest.approx(primary_outage(link), rel=1e-12)

    def test_probability_range(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            link = random_link(rng)
            tau = rng.uniform(0.0, 0.9) * link.slot_duration
            assert 0.0 <= secondary_outage(link, tau) <= 1.0
            assert 0.0 <= primary_outage(link) <= 1.0

    def test_strictly_increasing_in_sensing_time(self):
        rng = np.random.default_rng(23)
        for _ in range(300):
            link = random_link(rng)
            taus = np.linspace(0.0, 0.9 * link.slot_duration, 10)
            assert verify_outage_monotonicity(link, taus)

    def test_threshold_past_float_range_is_certain_outage(self):
        # b / (W T) = 2000: 2 ** 2000 overflows, and no gain carries the packet
        link = PhysicalLink(2_000_000.0, 1e-3, 1e6, 1.0, 1e-6, 1e-3)
        assert primary_outage(link) == 1.0
        assert secondary_outage(link, 0.5e-3) == 1.0

    def test_snr_below_float_range_is_certain_outage(self):
        # gain_variance * snr = 1e-200 * 1e-197 underflows to 0, threshold 1
        link = PhysicalLink(1000.0, 1e-3, 1e6, 1e-200, 1e-200, 1.0)
        assert primary_outage(link) == 1.0
        assert secondary_outage(link, 0.5e-3) == 1.0

    def test_vanishing_threshold_against_fainter_snr_is_certain_outage(self):
        # b / (W T) = 1e-597 makes the threshold ~6.9e-598, and the mean SNR
        # is 1e-937: the ratio ~7e339 leaves every gain in outage
        link = PhysicalLink(1e-300, 1e-3, 1e300, 1e-320, 1e-320, 1e300)
        assert primary_outage(link) == 1.0
        assert secondary_outage(link, 0.5e-3) == 1.0

    @pytest.mark.parametrize("fields, outage", [
        # 2 ** 1025 - 1 overflows against a mean SNR of 1e308: ratio ~3.6
        ((1025.0, 1.0, 1.0, 1.0, 1e308, 1.0), 0.9725499220),
        # 2 ** 1e-17 - 1 rounds to 0 in floats, but the threshold ~6.9e-18
        # is ~6.9e12 times the mean SNR of 1e-30
        ((1.0, 1.0, 1e17, 1.0, 1e-30, 1.0), 1.0)])
    def test_threshold_past_float_formula_keeps_its_value(self, fields, outage):
        assert primary_outage(PhysicalLink(*fields)) == pytest.approx(outage, rel=1e-9)

    def test_threshold_and_snr_past_float_range_outage_is_certain(self):
        # 2 ** (b / (W T)) = 2 ** 1e13 and gain_variance * snr = 1e603 both
        # overflow; in logs, 1e13 ln 2 ~ 6.9e12 dwarfs ln(1e603) ~ 1389
        link = PhysicalLink(1e10, 1e-3, 1.0, 1.0, 1e300, 1e-300)
        assert primary_outage(link) == 1.0
        assert secondary_outage(link, 0.5e-3) == 1.0

    def test_snr_further_past_float_range_outage_is_none(self):
        # 2 ** 1100 and 1e300 * 1e300 / (1e-3 * 1e-300) both overflow; in
        # logs, 1100 ln 2 ~ 762 sits far below ln(1e903) ~ 2079. Half the
        # window doubles the exponent: e ** (2200 ln 2 - ln(2e903)) ~ 9e-242
        link = PhysicalLink(1.1, 1e-3, 1.0, 1e300, 1e300, 1e-300)
        assert primary_outage(link) == 0.0
        assert secondary_outage(link, 0.5e-3) == pytest.approx(
            math.exp(2200 * math.log(2.0) - math.log(2.0) - 903 * math.log(10.0)), rel=1e-9)

    def test_denominator_below_float_range(self):
        # (T - tau) * noise = 1e-400 and W * (T - tau) = 1e-400 underflow to
        # zero; the exponent b / (W T) = 1e200 leaves every gain in outage
        for link in (PhysicalLink(1.0, 1e-200, 1.0, 1.0, 1.0, 1e-200),
                     PhysicalLink(1.0, 1e-200, 1e-200, 1.0, 1.0, 1.0)):
            assert primary_outage(link) == 1.0

    def test_overflowing_ratio_in_logs_keeps_its_value(self):
        # threshold 2 ** 1024 - 1 and mean SNR 1e610 both overflow; the
        # outage is their ratio, e ** (1024 ln 2 - ln 1e610)
        link = PhysicalLink(1024.0, 1.0, 1.0, 1e300, 1e10, 1e-300)
        expected = math.exp(1024 * math.log(2.0) - 610 * math.log(10.0))
        assert primary_outage(link) == pytest.approx(expected, rel=1e-9)


# 80 digits, over the widest exponent range decimal allows
REFERENCE = decimal.Context(prec=80, Emin=decimal.MIN_EMIN, Emax=decimal.MAX_EMAX)


def _expm1(d):
    """e**d - 1, by its series where the subtraction would cancel."""
    if abs(d) > Decimal("1e-6"):
        return d.exp() - 1
    term = total = d
    k = 1
    while term and abs(term) > abs(total) * Decimal("1e-85"):
        k += 1
        term = term * d / k
        total += term
    return total


def reference_outage(link, tau):
    """``1 - exp(-(2**x - 1) / mean_snr)`` in decimal from the link's exact
    values, with ``ln(2**x - 1) = y + ln(1 - e**-y)`` for ``y = x ln 2``. A
    ratio past e**50 is held there: ``exp(-e**50)`` is 0 to 1e21 digits."""
    with decimal.localcontext(REFERENCE):
        b, T, W, g, E, N = (Decimal(v) for v in (
            link.bits_per_packet, link.slot_duration, link.bandwidth, link.gain_variance,
            link.energy_per_packet, link.noise_power))
        window = T - Decimal(tau)
        y = b / (W * window) * Decimal(2).ln()
        ln_ratio = y + (-_expm1(-y)).ln() - (g * E / (window * N)).ln()
        return -_expm1(-min(ln_ratio, Decimal(50)).exp())


def assert_matches_reference(link, tau):
    outage, reference = secondary_outage(link, tau), reference_outage(link, tau)
    if not (outage < 1e-300 and reference < Decimal("1e-300")):
        assert abs(Decimal(outage) - reference) <= Decimal("1e-9") * reference, (link, tau)


def float_formula(link, tau):
    """The outage formula evaluated in floats as written."""
    window = link.slot_duration - tau
    snr = link.energy_per_packet / (window * link.noise_power)
    exponent = link.bits_per_packet / (link.bandwidth * window)
    return -math.expm1(-(2.0 ** exponent - 1.0) / (link.gain_variance * snr))


def _normal(value):
    return sys.float_info.min <= value <= sys.float_info.max


class TestAgainstReference:
    @pytest.mark.parametrize("fields", [
        (1e-300, 1e-3, 1e300, 1e-320, 1e-320, 1e300),
        (1025.0, 1.0, 1.0, 1.0, 1e308, 1.0),
        (1.0, 1.0, 1e17, 1.0, 1e-30, 1.0),
        (1024.0, 1.0, 1.0, 1e300, 1e10, 1e-300),
        (1000.0, 1e-3, 1e6, 1e-200, 1e-200, 1.0)])
    def test_links_past_float_range(self, fields):
        link = PhysicalLink(*fields)
        for tau in (0.0, 0.5 * link.slot_duration, 0.9 * link.slot_duration):
            assert_matches_reference(link, tau)

    def test_log_uniform_links_across_float_range(self):
        rng = np.random.default_rng(29)
        for fields in 10.0 ** rng.uniform(-300.0, 300.0, (2000, 6)):
            link = PhysicalLink(*map(float, fields))
            for tau in (0.0, 0.5 * link.slot_duration, 0.9 * link.slot_duration):
                assert_matches_reference(link, tau)

    @settings(max_examples=300, **SETTINGS)
    @given(logs=st.lists(st.floats(-300.0, 300.0), min_size=5, max_size=5),
           fraction=st.floats(0.0, 1.0, exclude_max=True),
           exponent=st.floats(1.0, 1024.0, exclude_max=True))
    def test_float_formula_kept_bit_for_bit_where_exact(self, logs, fraction, exponent):
        # x = b / (W (T - tau)) in [1, 1024) and every intermediate normal
        slot, bandwidth, gain, energy, noise = (10.0 ** v for v in logs)
        tau = fraction * slot
        window = slot - tau
        assume(_normal(bandwidth * window) and _normal(window * noise))
        snr = energy / (window * noise)
        assume(_normal(snr) and _normal(gain * snr) and _normal(exponent * bandwidth * window))
        link = PhysicalLink(exponent * bandwidth * window, slot, bandwidth, gain, energy, noise)
        assume(1.0 <= link.bits_per_packet / (bandwidth * window) < 1024.0)
        assert secondary_outage(link, tau).hex() == float_formula(link, tau).hex()


class TestMonotonicityCertificate:
    def test_equispaced_grid(self):
        taus = np.linspace(0.0, 0.9e-3, 10)
        assert verify_outage_monotonicity(UNIT_LINK, taus) is True

    def test_single_duration_vacuous(self):
        assert verify_outage_monotonicity(UNIT_LINK, [0.3e-3]) is True

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            verify_outage_monotonicity(UNIT_LINK, [])

    def test_non_increasing_grid_rejected(self):
        with pytest.raises(ValueError):
            verify_outage_monotonicity(UNIT_LINK, [0.2e-3, 0.2e-3])
        with pytest.raises(ValueError):
            verify_outage_monotonicity(UNIT_LINK, [0.3e-3, 0.1e-3])

    def test_out_of_slot_duration_rejected(self):
        with pytest.raises(ValueError):
            verify_outage_monotonicity(UNIT_LINK, [0.0, 1e-3])


class TestTypes:
    @pytest.mark.parametrize("field", [
        "bits_per_packet", "slot_duration", "bandwidth",
        "gain_variance", "energy_per_packet", "noise_power"])
    def test_positive_fields_enforced(self, field):
        kwargs = dict(bits_per_packet=1000.0, slot_duration=1e-3, bandwidth=1e6,
                      gain_variance=1.0, energy_per_packet=1e-6, noise_power=1e-3)
        kwargs[field] = 0.0
        with pytest.raises(ValueError):
            PhysicalLink(**kwargs)

    @pytest.mark.parametrize("field", [
        "bits_per_packet", "slot_duration", "bandwidth",
        "gain_variance", "energy_per_packet", "noise_power"])
    def test_bool_fields_rejected(self, field):
        kwargs = dict(bits_per_packet=1000, slot_duration=1e-3, bandwidth=1e6,
                      gain_variance=1.0, energy_per_packet=1e-6, noise_power=1e-4)
        PhysicalLink(**kwargs)          # an int field is a number
        kwargs[field] = True
        with pytest.raises(ValueError,
                           match=f"{field} must be a strictly positive finite number, got True"):
            PhysicalLink(**kwargs)

    def test_sensing_option_probability_range(self):
        with pytest.raises(ValueError):
            SensingOption(1, detection_prob=1.2, false_alarm_prob=0.1, secondary_outage=0.1)
        with pytest.raises(ValueError):
            SensingOption(1, detection_prob=0.9, false_alarm_prob=-0.1, secondary_outage=0.1)

    @pytest.mark.parametrize("value", [True, False, "0.5", None, 0.5j, np.True_], ids=repr)
    @pytest.mark.parametrize("field", ["detection_prob", "false_alarm_prob",
                                       "secondary_outage"])
    def test_sensing_option_non_real_probability_rejected(self, field, value):
        kwargs = dict(detection_prob=0.9, false_alarm_prob=0.1, secondary_outage=0.2)
        SensingOption(1, **{**kwargs, field: np.float64(0.5)})   # a numpy float is a number
        kwargs[field] = value
        with pytest.raises(ValueError, match=rf"^duration 1: {field} .* outside \[0, 1\]$"):
            SensingOption(1, **kwargs)

    @pytest.mark.parametrize("index", [True, 1.0, 0, -1])
    def test_sensing_option_index_is_a_positive_int(self, index):
        with pytest.raises(ValueError, match=f"index must be a positive integer, got {index!r}"):
            SensingOption(index, 0.5, 0.1, 0.2)

    @pytest.mark.parametrize("duration", [-1e-6, math.nan, math.inf])
    def test_sensing_time_is_finite_and_non_negative(self, duration):
        with pytest.raises(ValueError, match=f"duration 1: sensing time {duration!r} "
                                             "is not a finite number >= 0"):
            SensingOption(1, 0.5, 0.1, 0.2, duration)

    @pytest.mark.parametrize("duration", [True, False, "0.1", 0.5j, np.True_], ids=repr)
    def test_sensing_time_is_a_real_number(self, duration):
        with pytest.raises(ValueError, match=re.escape(f"duration 1: sensing time {duration!r} "
                                                       "is not a finite number >= 0")):
            SensingOption(1, 0.5, 0.1, 0.2, duration)
        # numpy numbers are numbers, and no sensing time is no sensing time
        for duration in (np.float64(1e-4), np.int64(0), None):
            assert SensingOption(1, 0.5, 0.1, 0.2, duration).duration == duration

    @pytest.mark.parametrize("field", [
        "bits_per_packet", "slot_duration", "bandwidth",
        "gain_variance", "energy_per_packet", "noise_power"])
    def test_physical_link_takes_numpy_numbers(self, field):
        kwargs = dict(bits_per_packet=1000, slot_duration=1, bandwidth=1000,
                      gain_variance=2, energy_per_packet=3, noise_power=1)
        plain = secondary_outage(PhysicalLink(**kwargs), 0.5)
        for number in (np.float64, np.int64):
            link = PhysicalLink(**{**kwargs, field: number(kwargs[field])})
            assert secondary_outage(link, 0.5) == plain
        for bad in (np.True_, np.float64("nan"), np.float64("inf"), np.float64(0.0),
                    np.int64(-1), 10 ** 400):
            with pytest.raises(ValueError, match=re.escape(
                    f"{field} must be a strictly positive finite number, got {bad!r}")):
                PhysicalLink(**{**kwargs, field: bad})


TABLE1 = load_bundled_scenario()


# a count may be any integer, a real only one that a float can hold; a table
# size or position must also fit a tuple, so it refuses 10**400
REALS, COUNTS, SIZES = {"np.float64", "np.int64"}, {"np.int64", "10**400"}, {"np.int64"}


def _owners():
    """Every owner of a numeric input: (name, build from one value, a valid
    real value, a valid integer value, the kinds of value it takes, the
    field its message names)."""
    link = dict(bits_per_packet=1e3, slot_duration=1e-3, bandwidth=1e6,
                gain_variance=1.0, energy_per_packet=1e-6, noise_power=1e-3)
    uniform = PolicyVector.uniform(TABLE1.num_durations)

    def config(**settings):
        return SimConfig(TABLE1, uniform, "dominant", **dict(horizon=1000, seed=0) | settings)

    def spec(start=0.0, stop=0.5, step=0.1, **settings):
        return SweepSpec(TABLE1, "lambda_p", start, stop, step, simulate=bool(settings),
                         **settings)

    return [
        ("PhysicalLink", lambda v: PhysicalLink(**link | {"bandwidth": v}), 1e6, 10 ** 6,
         REALS, "bandwidth"),
        ("SensingOption.prob", lambda v: SensingOption(1, v, 0.1, 0.2), 0.5, 1, REALS,
         "detection_prob"),
        ("SensingOption.duration", lambda v: SensingOption(1, 0.5, 0.1, 0.2, v), 1e-4, 0,
         REALS | {"None"}, "sensing time"),
        ("SensingOption.index", lambda v: SensingOption(v, 0.5, 0.1, 0.2), 1.0, 1, COUNTS,
         "index"),
        ("secondary_outage.tau", lambda v: secondary_outage(PhysicalLink(**link), v), 1e-4, 0,
         REALS, "sensing time"),
        ("Scenario", lambda v: replace(TABLE1, lambda_p=v), 0.1, 0, REALS, "lambda_p"),
        ("PolicyVector", lambda v: PolicyVector((v, 1.0)), 0.0, 0, REALS, "policy entries"),
        ("PolicyVector.uniform", PolicyVector.uniform, 2.0, 2, SIZES, "table size"),
        ("PolicyVector.point_mass.m", lambda v: PolicyVector.point_mass(v, 0), 2.0, 2, SIZES,
         "table of size"),
        ("PolicyVector.point_mass.position", lambda v: PolicyVector.point_mass(2, v), 1.0, 1,
         SIZES, "position"),
        ("SimConfig.horizon", lambda v: config(horizon=v), 1000.0, 1000, COUNTS, "horizon"),
        ("SimConfig.warmup", lambda v: config(horizon=10 ** 401, warmup=v), 0.0, 0, COUNTS,
         "warmup"),
        ("SimConfig.seed", lambda v: config(seed=v), 0.0, 0, COUNTS, "seed"),
        ("SweepSpec.start", lambda v: spec(start=v), 0.1, 0, REALS, "grid"),
        ("SweepSpec.stop", lambda v: spec(stop=v), 0.5, 1, REALS, "grid"),
        ("SweepSpec.step", lambda v: spec(step=v), 0.1, 1, REALS, "step"),
        ("SweepSpec.horizon", lambda v: spec(horizon=v, warmup=0), 1000.0, 1000, COUNTS,
         "--horizon"),
        ("SweepSpec.warmup", lambda v: spec(horizon=10 ** 401, warmup=v), 0.0, 0, COUNTS,
         "--warmup"),
        ("SweepSpec.seed", lambda v: spec(horizon=1000, warmup=0, seed=v), 0.0, 0, COUNTS,
         "--seed"),
    ]


OWNERS = _owners()
# each kind of value, made from an owner's valid real and integer values
KINDS = {
    "True": lambda real, integer: True,
    "'0.5'": lambda real, integer: "0.5",
    "None": lambda real, integer: None,
    "0.5j": lambda real, integer: 0.5j,
    "np.float64": lambda real, integer: np.float64(real),
    "np.int64": lambda real, integer: np.int64(integer),
    "10**400": lambda real, integer: 10 ** 400,
    "inf": lambda real, integer: math.inf,
    "nan": lambda real, integer: math.nan,
}


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("name, build, real, integer, takes, field",
                         OWNERS, ids=[owner[0] for owner in OWNERS])
def test_numeric_input_table(name, build, real, integer, takes, field, kind):
    """One rule for every owner: numpy numbers are numbers (numpy floats
    only where a real is asked for), a count may exceed float range but a
    real may not, and a bool, a string, None (but for an optional sensing
    time), a complex number, inf or nan is refused with a ValueError naming
    the field and the value."""
    value = KINDS[kind](real, integer)
    if kind in takes:
        build(value)
    else:
        with pytest.raises(ValueError) as refused:
            build(value)
        assert field in str(refused.value) and repr(value) in str(refused.value)
