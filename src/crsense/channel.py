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
The outage is the float formula where that is exact and the same ratio in
logs on every other link, so a link past float range gets its exact outage.
Every numeric input is typed by ``is_real`` or ``is_count``: Python and numpy
numbers, never ``bool``. A real number must also be one that a float can hold:
finite, and rounding to within ±``sys.float_info.max``, so ``nan``, ``inf`` and
``10**400`` are refused; a count may be any integer. Any other value raises its
owner's ``ValueError``, and each owner adds only its sign or range test.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields
from numbers import Integral, Real
from typing import Iterable


def is_real(value) -> bool:
    """A real number that a float can hold, numpy ones too, not a bool: finite,
    and rounding to within ±``sys.float_info.max``, so not nan, inf or an int
    past float range. Floats and ints skip the ABC test."""
    if isinstance(value, bool) or not isinstance(value, (float, int, Real)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:                   # an int or a fraction past float range
        return False


def is_count(value) -> bool:
    """An integer, numpy ones too, not a bool; ints skip the ABC test."""
    if isinstance(value, int):
        return not isinstance(value, bool)
    return isinstance(value, Integral)


def is_probability(value) -> bool:
    """A real number in [0, 1], by ``is_real``."""
    return is_real(value) and 0.0 <= value <= 1.0


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
        for field in fields(self):
            self.check(field.name, getattr(self, field.name))

    @staticmethod
    def check(name: str, value) -> None:
        """The rule of every field: a real number, by ``is_real``, above 0."""
        if not (is_real(value) and value > 0.0):
            raise ValueError(f"{name} must be a strictly positive finite number, got {value!r}")


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
        if not (is_count(self.index) and self.index >= 1):
            raise ValueError(f"index must be a positive integer, got {self.index!r}")
        for name in ("detection_prob", "false_alarm_prob", "secondary_outage"):
            if not is_probability(value := getattr(self, name)):
                raise ValueError(f"duration {self.index}: {name} {value!r} outside [0, 1]")
        if not (self.duration is None or is_real(self.duration) and self.duration >= 0):
            raise ValueError(f"duration {self.index}: sensing time {self.duration!r} "
                             "is not a finite number >= 0")


def secondary_outage(link: PhysicalLink, tau: float) -> float:
    """Outage probability of the sensing link when ``tau`` seconds are sensed.

    The transmit power is ``energy_per_packet / (T - tau)``, so the received
    SNR at unit gain is ``energy / ((T - tau) * noise)``. With an exponential
    power gain the outage probability is

        1 - exp(-(2 ** x - 1) / (gain_variance * snr)),  x = b / (W (T - tau))

    computed through ``expm1`` so that near-zero probabilities keep full
    precision. It is evaluated as written, exact to a few ulps, where ``x``
    lies in [1, 1024), so ``2 ** x - 1`` neither cancels nor overflows, and
    ``W (T - tau)``, ``(T - tau) N``, the SNR and the mean SNR are normal
    floats. Every other link takes the ratio in logs (``_outage_in_logs``).
    """
    if not (is_real(tau) and 0.0 <= tau < link.slot_duration):
        raise ValueError(f"sensing time {tau!r} leaves no transmission window in a "
                         f"{link.slot_duration!r} s slot")
    window = link.slot_duration - tau
    low, high = sys.float_info.min, sys.float_info.max
    rate_window, noise_window = link.bandwidth * window, window * link.noise_power
    if low <= rate_window <= high and low <= noise_window <= high:
        exponent = link.bits_per_packet / rate_window
        snr = link.energy_per_packet / noise_window
        mean_snr = link.gain_variance * snr
        if 1.0 <= exponent < 1024.0 and low <= snr <= high and low <= mean_snr <= high:
            return -math.expm1(-(2.0 ** exponent - 1.0) / mean_snr)
    return _outage_in_logs(link, window)


def _outage_in_logs(link: PhysicalLink, window: float) -> float:
    """The outage ``1 - exp(-threshold / mean_snr)`` with the ratio formed as
    ``exp(ln threshold - ln mean_snr)``, from the logs of the fields, which
    are all finite. With ``y = x ln 2``, ``ln threshold = ln(e**y - 1)`` is
    ``y + ln(1 - e**-y)``, which neither overflows nor cancels; below
    ``y = 1e-300``, where ``y`` may underflow but ``e**y - 1`` is ``y`` to
    the last bit, it is ``ln x + ln ln 2``. An ``x`` or a ratio past
    ``e**709`` is held there, as ``1 - exp(-e**709)`` is 1 in floats.
    """
    log, ln2 = math.log, math.log(2.0)
    ln_exponent = log(link.bits_per_packet) - log(link.bandwidth) - log(window)
    y = math.exp(min(ln_exponent, 709.0)) * ln2
    ln_threshold = y + log(-math.expm1(-y)) if y > 1e-300 else ln_exponent + log(ln2)
    ln_mean_snr = (log(link.gain_variance) + log(link.energy_per_packet) - log(window)
                   - log(link.noise_power))
    return -math.expm1(-math.exp(min(ln_threshold - ln_mean_snr, 709.0)))


def primary_outage(link: PhysicalLink) -> float:
    """Outage probability of the licensed link, which uses the whole slot."""
    return secondary_outage(link, 0.0)


def verify_outage_monotonicity(link: PhysicalLink, taus: Iterable[float]) -> bool:
    """True iff the outage probability strictly rises along ``taus``.

    ``taus`` must be a strictly increasing grid inside [0, T). A single
    duration passes vacuously. This is the executable certificate of the
    sensing-time / outage tradeoff.
    """
    grid = list(taus)
    if not grid:
        raise ValueError("need at least one sensing duration")
    values = [secondary_outage(link, tau) for tau in grid]     # checks every tau first
    for a, b in zip(grid, grid[1:]):
        if not b > a:
            raise ValueError("sensing durations must be strictly increasing")
    return all(b > a for a, b in zip(values, values[1:]))
