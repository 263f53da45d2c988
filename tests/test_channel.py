import math

import numpy as np
import pytest

from crsense.channel import (
    PhysicalLink,
    SensingOption,
    primary_outage,
    secondary_outage,
    secondary_rate,
    verify_outage_monotonicity,
)

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


class TestSecondaryRate:
    def test_full_slot(self):
        assert secondary_rate(UNIT_LINK, 0.0) == pytest.approx(1.0e6)

    def test_half_slot_doubles_rate(self):
        assert secondary_rate(UNIT_LINK, 0.5e-3) == pytest.approx(2.0e6)

    def test_degenerate_duration_rejected(self):
        with pytest.raises(ValueError):
            secondary_rate(UNIT_LINK, UNIT_LINK.slot_duration)
        with pytest.raises(ValueError):
            secondary_rate(UNIT_LINK, -1e-6)

    def test_rate_times_window_recovers_packet_size(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            link = random_link(rng)
            tau = rng.uniform(0.0, 0.95) * link.slot_duration
            product = secondary_rate(link, tau) * (link.slot_duration - tau)
            assert product == pytest.approx(link.bits_per_packet, rel=1e-12)


class TestOutage:
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

    def test_rate_exponent_positive(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            assert random_link(rng).rate_exponent > 0.0

    def test_sensing_option_probability_range(self):
        with pytest.raises(ValueError):
            SensingOption(1, detection_prob=1.2, false_alarm_prob=0.1, secondary_outage=0.1)
        with pytest.raises(ValueError):
            SensingOption(1, detection_prob=0.9, false_alarm_prob=-0.1, secondary_outage=0.1)

    def test_misdetection_complements_detection(self):
        option = SensingOption(3, 0.85, 0.085, 0.35)
        assert option.misdetection_prob == pytest.approx(0.15)
