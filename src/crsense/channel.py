"""Radio-layer model of a slotted link with front-of-slot spectrum sensing.

Both links see Rayleigh block fading: the channel power gain is exponential
with mean ``gain_variance`` and is redrawn independently every slot. A packet
is lost (outage) when its fixed transmission rate exceeds the instantaneous
channel capacity ``W * log2(1 + gain * snr)``.

The opportunistic transmitter spends the first ``tau`` seconds of each slot
sensing the licensed user, so its packet must fit into the remaining
``T - tau`` seconds. Shrinking the transmission window raises the required
rate *and* the transmit power (one energy packet is spread over less time),
and the net effect on the outage probability is strictly upward in ``tau``.
``verify_outage_monotonicity`` turns that statement into an executable check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

_LINK_FIELDS = (
    "bits_per_packet",
    "slot_duration",
    "bandwidth",
    "gain_variance",
    "energy_per_packet",
    "noise_power",
)


@dataclass(frozen=True)
class PhysicalLink:
    """Physical parameters of one transmitter/receiver pair.

    Attributes
    ----------
    bits_per_packet : bits carried by one packet
    slot_duration : slot length T in seconds
    bandwidth : channel bandwidth in Hz
    gain_variance : mean of the exponential channel power gain (unitless)
    energy_per_packet : joules drawn from the energy buffer per transmission
    noise_power : receiver noise power in watts
    """

    bits_per_packet: float
    slot_duration: float
    bandwidth: float
    gain_variance: float
    energy_per_packet: float
    noise_power: float

    def __post_init__(self):
        for name in _LINK_FIELDS:
            value = getattr(self, name)
            if not (isinstance(value, (int, float)) and math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be a strictly positive finite number, got {value!r}")

    @property
    def rate_exponent(self) -> float:
        """b * ln(2) / (W * T); strictly positive for any valid link."""
        return self.bits_per_packet * math.log(2.0) / (self.bandwidth * self.slot_duration)


@dataclass(frozen=True)
class SensingOption:
    """One admissible sensing duration and its operating probabilities.

    ``duration`` is optional: table-driven scenarios specify the operating
    probabilities directly and never need the duration in seconds.
    """

    index: int
    detection_prob: float
    false_alarm_prob: float
    secondary_outage: float
    duration: float | None = None

    def __post_init__(self):
        if not (isinstance(self.index, int) and self.index >= 1):
            raise ValueError(f"index must be a positive integer, got {self.index!r}")
        for name in ("detection_prob", "false_alarm_prob", "secondary_outage"):
            value = getattr(self, name)
            if not (0.0 <= value <= 1.0):
                raise ValueError(f"duration {self.index}: {name} {value!r} outside [0, 1]")
        if self.duration is not None and not self.duration >= 0.0:
            raise ValueError(f"duration {self.index}: sensing time {self.duration!r} negative")

    @property
    def misdetection_prob(self) -> float:
        return 1.0 - self.detection_prob


def _check_sensing_time(link: PhysicalLink, tau: float) -> None:
    if not 0.0 <= tau < link.slot_duration:
        raise ValueError(
            f"sensing time {tau!r} leaves no transmission window in a "
            f"{link.slot_duration!r} s slot"
        )


def secondary_rate(link: PhysicalLink, tau: float) -> float:
    """Bits per second needed to fit one packet into the residual slot time."""
    _check_sensing_time(link, tau)
    return link.bits_per_packet / (link.slot_duration - tau)


def secondary_outage(link: PhysicalLink, tau: float) -> float:
    """Outage probability of the sensing link when ``tau`` seconds are sensed.

    The transmit power is ``energy_per_packet / (T - tau)``, so the received
    SNR at unit gain is ``energy / ((T - tau) * noise)``. With an exponential
    power gain the outage probability is

        1 - exp(-(2 ** (b / (W (T - tau))) - 1) / (gain_variance * snr))

    computed through ``expm1`` so that near-zero probabilities keep full
    precision. Past float range the SNR threshold is infinite and the outage
    exactly 1: no channel gain carries the packet in that window.
    """
    _check_sensing_time(link, tau)
    window = link.slot_duration - tau
    snr = link.energy_per_packet / (window * link.noise_power)
    try:
        threshold = 2.0 ** (link.bits_per_packet / (link.bandwidth * window)) - 1.0
    except OverflowError:
        threshold = math.inf
    return -math.expm1(-threshold / (link.gain_variance * snr))


def primary_outage(link: PhysicalLink) -> float:
    """Outage probability of the licensed link, which uses the whole slot."""
    return secondary_outage(link, 0.0)


def verify_outage_monotonicity(link: PhysicalLink, taus: Iterable[float]) -> bool:
    """True iff the outage probability strictly rises along ``taus``.

    ``taus`` must be a strictly increasing grid inside [0, T). A single
    duration passes vacuously. This is the executable certificate of the
    sensing-time / outage tradeoff.
    """
    grid = [float(t) for t in taus]
    if not grid:
        raise ValueError("need at least one sensing duration")
    for tau in grid:
        _check_sensing_time(link, tau)
    for a, b in zip(grid, grid[1:]):
        if not b > a:
            raise ValueError("sensing durations must be strictly increasing")
    values = [secondary_outage(link, tau) for tau in grid]
    return all(b > a for a, b in zip(values, values[1:]))
