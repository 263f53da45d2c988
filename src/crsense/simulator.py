"""Slot-level Monte Carlo of the four interacting queues.

Each slot runs through a fixed sequence: Bernoulli arrivals to the four
queues, a sensing-duration draw from the policy, the sensor verdict (a
detection draw if the licensed node is on the air, a false-alarm draw if it
is silent), and the two channel fading draws. The licensed node transmits
whenever it has data and energy; the opportunistic node transmits when the
sensor says idle and it has data and energy. Concurrent transmissions
destroy both packets. Queue updates follow the late-arrival rule
``q <- max(q - service, 0) + arrival``: a packet arriving in slot t cannot
leave before slot t+1.

In ``dominant`` mode both nodes are saturated: they send dummy packets when
their data buffers are empty, which costs energy and causes collisions but
never serves the real data queues.

All randomness comes from one seeded PCG64 stream, nine uniforms per slot in
a fixed order (arrivals, duration, sensing, channels), drawn in chunks of
``_CHUNK`` slots with the queue levels and counters carried across chunks.
Consecutive chunks reproduce the stream of a single full-horizon draw, so
every run is bit-reproducible and independent of the chunk size, and memory
stays O(chunk) for an untraced run. Each chunk feeds one of two paths:

* the saturated system runs through a closed-form kernel. Its service
  indicators are exogenous or depend only on an energy queue computed
  before: q_pe is served every slot, q_se whenever the sensor reads idle
  (given q_pe), the data queues given q_pe and q_se. So each queue is a
  Lindley recursion with known service, computed exactly by one cumsum and
  one running maximum;
* the original system, whose nodes stay silent on empty data buffers, runs
  through a per-slot loop that records the start-of-slot levels; its
  transmissions and service indicators then follow vectorised from those
  levels and the draws, by the rule the kernel uses.

In ``coupled`` mode the original (loop) and the saturated twin (kernel) take
the same chunk, so the pair sees identical randomness even in slots where
one of them ignores a draw.

Reported service rates are the per-slot means of the service-process
indicators (the service a queue would receive if backlogged), which is the
quantity the closed-form expressions in ``analytics`` describe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .analytics import PolicyVector, Scenario

RNG_DESCRIPTION = f"numpy-{np.__version__}-PCG64"
MODES = ("original", "dominant", "coupled")
_DRIFT_SAMPLES = 2000
_CHUNK = 65_536               # slots per draw; memory is O(chunk)
MIN_DIAGNOSTIC_SLOTS = 1_000_000


class QueueState(NamedTuple):
    """Packet counts of the four queues at one slot boundary."""

    q_p: int = 0
    q_s: int = 0
    q_pe: int = 0
    q_se: int = 0


@dataclass(frozen=True)
class SimConfig:
    scenario: Scenario
    policy: PolicyVector
    mode: str = "dominant"
    horizon: int = 100_000
    seed: int = 0
    warmup: int = 0
    initial: QueueState = QueueState()

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if not (isinstance(self.horizon, int) and isinstance(self.warmup, int)):
            raise ValueError("horizon and warmup must be integers")
        if not self.horizon > self.warmup >= 0:
            raise ValueError(f"need horizon > warmup >= 0, got {self.horizon}, {self.warmup}")
        if len(self.policy) != self.scenario.num_durations:
            raise ValueError("policy length does not match the sensing table")
        if len(self.initial) != 4 or any(q < 0 or q != int(q) for q in self.initial):
            raise ValueError("initial must be four nonnegative integer queue levels")
        object.__setattr__(self, "initial", QueueState(*(int(q) for q in self.initial)))


@dataclass(frozen=True)
class SimReport:
    """Empirical counterpart of ``AnalyticRates`` plus run diagnostics.

    In coupled mode the rate and occupancy fields describe the original
    system; ``dominance_violations`` counts (slot, queue) pairs where an
    original data queue exceeded its saturated twin.
    """

    mode: str
    horizon: int
    warmup: int
    seed: int
    rng: str
    mu_p: float
    mu_s: float
    mu_pe: float
    mu_se: float
    prob_pe_empty: float
    prob_se_nonempty: float
    mean_q_p: float
    mean_q_s: float
    mean_q_pe: float
    mean_q_se: float
    drift_p: float
    drift_s: float
    drift_pe: float
    drift_se: float
    collisions: int
    dominance_violations: int | None = None


@dataclass(frozen=True)
class SlotTrace:
    """Per-slot arrays for invariant checks (start-of-slot states)."""

    q_p: np.ndarray
    q_s: np.ndarray
    q_pe: np.ndarray
    q_se: np.ndarray
    arr_p: np.ndarray
    arr_s: np.ndarray
    arr_pe: np.ndarray
    arr_se: np.ndarray
    pu_tx: np.ndarray
    cr_tx: np.ndarray
    r_p: np.ndarray
    r_s: np.ndarray
    r_pe: np.ndarray
    r_se: np.ndarray


class _Draws(NamedTuple):
    """Per-slot indicator draws of one chunk, as boolean arrays."""

    arr_p: np.ndarray
    arr_s: np.ndarray
    arr_pe: np.ndarray
    arr_se: np.ndarray
    det: np.ndarray         # sensor fires given a licensed transmission
    fa: np.ndarray          # sensor fires given silence
    chan_p: np.ndarray      # licensed channel good
    chan_s: np.ndarray      # opportunistic channel good


class _Service(NamedTuple):
    """Per-slot transmissions and service indicators of one system."""

    pu_tx: np.ndarray
    cr_tx: np.ndarray
    r_p: np.ndarray
    r_s: np.ndarray
    r_pe: np.ndarray
    r_se: np.ndarray


def _draw_chunks(scenario: Scenario, policy: PolicyVector, horizon: int, seed: int):
    """Yield ``(t0, draws)`` for consecutive chunks of at most ``_CHUNK`` slots.

    All chunks come from one PCG64 stream, nine uniforms per slot in the
    column order arrivals (p, s, pe, se), duration, sensing (detection,
    false alarm), channels (licensed, opportunistic); consecutive chunks
    reproduce the stream of a single full-horizon draw.
    """
    rng = np.random.default_rng(seed)
    thresholds = np.cumsum(policy.as_array())[:-1]
    det, fal = scenario.detection_probs(), scenario.false_alarm_probs()
    good_s = 1.0 - scenario.secondary_outages()
    good_p = 1.0 - scenario.primary_outage
    buffer = np.empty((min(_CHUNK, horizon), 9))
    for t0 in range(0, horizon, _CHUNK):
        u = rng.random(out=buffer[:min(_CHUNK, horizon - t0)])
        # duration index: thresholds passed, i.e. the policy's inverse CDF
        # (the cumulative sums never decrease, so this counts a prefix)
        pick = u[:, 4].copy()
        m = np.zeros(len(u), dtype=np.min_scalar_type(len(thresholds)))
        for c in thresholds:
            m += pick >= c
        yield t0, _Draws(
            u[:, 0] < scenario.lambda_p,
            u[:, 1] < scenario.lambda_s,
            u[:, 2] < scenario.lambda_pe,
            u[:, 3] < scenario.lambda_se,
            u[:, 5] < det[m],
            u[:, 6] < fal[m],
            u[:, 7] < good_p,
            u[:, 8] < good_s[m],
        )


def _sensed_busy(d: _Draws, pu_tx: np.ndarray) -> np.ndarray:
    """Sensor verdict: the detection draw under a licensed transmission, the
    false-alarm draw in silence."""
    return (pu_tx & d.det) | (~pu_tx & d.fa)


def _service(d: _Draws, has_p, has_s, q_pe: np.ndarray, q_se: np.ndarray) -> _Service:
    """Transmissions and service indicators from start-of-slot levels.

    ``has_p``/``has_s`` say whether each node has a packet to send (always,
    when saturated). The indicators are the service-process values: own-queue
    emptiness is deliberately excluded, the max() in the update masks it.
    """
    pe_on, se_on = q_pe > 0, q_se > 0
    pu_tx = has_p & pe_on
    busy = _sensed_busy(d, pu_tx)
    return _Service(
        pu_tx=pu_tx,
        cr_tx=~busy & has_s & se_on,
        r_p=~(has_s & se_on & ~d.det) & d.chan_p & pe_on,
        r_s=~pu_tx & se_on & ~d.fa & d.chan_s,
        r_pe=has_p,
        r_se=has_s & ~busy,
    )


def _lindley(q0: int, arrivals: np.ndarray, service) -> np.ndarray:
    """Levels at slots 0..n of ``q' = max(q - r, 0) + a`` from ``q0``, exactly.

    Unrolled, ``q_t = S_t + max(q0, max_{k<t} (a_k - S_{k+1}))`` with ``S``
    the partial sums of ``a - r``: one cumsum and one running maximum.
    """
    n = arrivals.size
    total = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.subtract(arrivals, service, dtype=np.int64), out=total[1:])
    level = np.empty(n + 1, dtype=np.int64)
    level[0] = q0
    np.subtract(arrivals, total[1:], out=level[1:])
    np.maximum.accumulate(level, out=level)
    level += total
    return level


def _kernel(d: _Draws, state: QueueState):
    """One chunk of the saturated system, without a per-slot loop.

    Every service indicator is exogenous or depends only on an energy queue
    computed before it: q_pe is served every slot, q_se whenever the sensor
    reads idle (which depends on q_pe), the data queues as ``_service`` says
    from q_pe and q_se. Returns the four level arrays (slots 0..n) and the
    indicators.
    """
    ones = np.ones(d.det.size, dtype=bool)
    q_pe = _lindley(state.q_pe, d.arr_pe, ones)
    q_se = _lindley(state.q_se, d.arr_se, ~_sensed_busy(d, q_pe[:-1] > 0))
    service = _service(d, ones, ones, q_pe[:-1], q_se[:-1])
    q_p = _lindley(state.q_p, d.arr_p, service.r_p)
    q_s = _lindley(state.q_s, d.arr_s, service.r_s)
    return (q_p, q_s, q_pe, q_se), service


def _loop(d: _Draws, state: QueueState):
    """One chunk of the original system, slot by slot; same return as
    ``_kernel``.

    The slot rules of ``_service``, split on whether the licensed node
    transmits. If it does, the sensor reads the detection draw and the
    opportunistic node cannot succeed. If not, the licensed energy or data
    buffer is empty, so neither licensed queue moves, and the sensor reads
    the false-alarm draw. The loop records only the levels; the indicators
    follow vectorised.
    """
    q_p, q_s, q_pe, q_se = state
    levels: list[int] = []
    record = levels.extend              # flat ints: no per-slot tuple to keep
    for a_p, a_s, a_pe, a_se, det, fa, chan_p, chan_s in zip(*(x.tolist() for x in d)):
        record((q_p, q_s, q_pe, q_se))
        if q_pe and q_p:
            if chan_p and (det or not q_se or not q_s):
                q_p -= 1
            if q_se and not det and q_s:
                q_se -= 1
            q_pe -= 1
        elif q_se and not fa and q_s:
            q_se -= 1
            if chan_s:
                q_s -= 1
        q_p += a_p
        q_s += a_s
        q_pe += a_pe
        q_se += a_se
    record((q_p, q_s, q_pe, q_se))
    columns = tuple(np.array(levels, dtype=np.int64).reshape(-1, 4).T)
    q_p, q_s, q_pe, q_se = (q[:-1] for q in columns)
    return columns, _service(d, q_p > 0, q_s > 0, q_pe, q_se)


def _drift(samples: np.ndarray, stride: int) -> float:
    if len(samples) < 2:
        return 0.0
    x = np.arange(len(samples), dtype=float) * stride
    return float(np.polyfit(x, np.asarray(samples, dtype=float), 1)[0])


def _end(levels) -> QueueState:
    return QueueState(*(int(q[-1]) for q in levels))


def _run(config: SimConfig, trace: bool):
    """One run, chunk by chunk; the statistics describe the original system
    in ``original`` and ``coupled`` mode and the saturated one otherwise."""
    mode, horizon, warmup = config.mode, config.horizon, config.warmup
    measured = horizon - warmup
    stride = max(1, measured // _DRIFT_SAMPLES)
    state = twin = config.initial

    svc = [0, 0, 0, 0]                      # service-indicator sums, order p,s,pe,se
    qsum = [0, 0, 0, 0]
    nonempty = [0, 0, 0, 0]
    collisions = 0
    violations = 0
    drift_samples: list[list[np.ndarray]] = [[], [], [], []]
    parts: list[tuple] = []

    for t0, d in _draw_chunks(config.scenario, config.policy, horizon, config.seed):
        if mode == "dominant":
            levels, service = _kernel(d, state)
        else:
            levels, service = _loop(d, state)
            if mode == "coupled":
                twin_levels, _ = _kernel(d, twin)
                twin = _end(twin_levels)
                violations += sum(int(np.count_nonzero(levels[k][1:] > twin_levels[k][1:]))
                                  for k in (0, 1))
        state = _end(levels)
        n = d.det.size
        lo = min(max(warmup - t0, 0), n)
        first = lo + (warmup - t0 - lo) % stride     # drift samples: t - warmup = 0 mod stride
        for k, (q, r) in enumerate(zip(levels, service[2:])):
            svc[k] += int(np.count_nonzero(r[lo:]))
            qsum[k] += int(q[lo:n].sum())
            nonempty[k] += int(np.count_nonzero(q[lo:n]))
            drift_samples[k].append(q[first:n:stride])
        collisions += int(np.count_nonzero(service.pu_tx[lo:] & service.cr_tx[lo:]))
        if trace:
            parts.append(tuple(q[:-1] for q in levels) + d[:4] + service)

    drift = [_drift(np.concatenate(s), stride) for s in drift_samples]
    report = SimReport(
        mode=mode,
        horizon=horizon,
        warmup=warmup,
        seed=config.seed,
        rng=RNG_DESCRIPTION,
        mu_p=svc[0] / measured,
        mu_s=svc[1] / measured,
        mu_pe=svc[2] / measured,
        mu_se=svc[3] / measured,
        prob_pe_empty=(measured - nonempty[2]) / measured,
        prob_se_nonempty=nonempty[3] / measured,
        mean_q_p=qsum[0] / measured,
        mean_q_s=qsum[1] / measured,
        mean_q_pe=qsum[2] / measured,
        mean_q_se=qsum[3] / measured,
        drift_p=drift[0],
        drift_s=drift[1],
        drift_pe=drift[2],
        drift_se=drift[3],
        collisions=collisions,
        dominance_violations=violations if mode == "coupled" else None,
    )
    if not trace:
        return report
    columns = [np.concatenate(col) for col in zip(*parts)]
    columns[10:] = [col.astype(np.int64) for col in columns[10:]]
    return report, SlotTrace(*columns)


def simulate(config: SimConfig) -> SimReport:
    """Run one replication and return the empirical report."""
    if config.mode == "coupled":
        return coupled_dominance_run(config)
    return _run(config, trace=False)


def simulate_traced(config: SimConfig) -> tuple[SimReport, SlotTrace]:
    """Like ``simulate`` but also returns per-slot arrays; single modes only."""
    if config.mode == "coupled":
        raise ValueError("tracing is only supported for single-system modes")
    return _run(config, trace=True)


def coupled_dominance_run(config: SimConfig) -> SimReport:
    """Run the original system and its saturated twin on one shared stream.

    Both systems start from the same ``initial`` state and consume the same
    positional draws. After every slot the original data queues are compared
    against the twin's; each (slot, queue) pair where the original is longer
    counts as one dominance violation. Rates in the returned report describe
    the original system.
    """
    if config.mode != "coupled":
        raise ValueError("coupled_dominance_run requires mode='coupled'")
    return _run(config, trace=False)


@dataclass(frozen=True)
class StabilityVerdict:
    queue: str
    arrival_rate: float
    service_rate: float
    drift_slope: float
    verdict: str        # "stable" | "unstable" | "borderline"


def stability_diagnostic(report: SimReport, scenario: Scenario) -> list[StabilityVerdict]:
    """Loynes-style verdict per data queue from a long measured run.

    A queue is stable when its arrival rate sits below the measured service
    rate by more than the sampling noise floor, unstable in the opposite
    case, and borderline inside the floor. The drift slope (packets per
    slot) is reported alongside; for an unstable queue it approaches
    ``lambda - mu``.
    """
    measured = report.horizon - report.warmup
    if measured < MIN_DIAGNOSTIC_SLOTS:
        raise ValueError(
            f"run too short for a stability verdict: {measured} measured slots, "
            f"need >= {MIN_DIAGNOSTIC_SLOTS}; raise horizon to at least "
            f"warmup + {MIN_DIAGNOSTIC_SLOTS}"
        )
    floor = 4.0 / math.sqrt(measured)
    verdicts = []
    for name, lam, mu, slope in (
        ("primary_data", scenario.lambda_p, report.mu_p, report.drift_p),
        ("secondary_data", scenario.lambda_s, report.mu_s, report.drift_s),
    ):
        if abs(lam - mu) <= floor:
            verdict = "borderline"
        elif lam < mu:
            verdict = "stable"
        else:
            verdict = "unstable"
        verdicts.append(StabilityVerdict(name, lam, mu, slope, verdict))
    return verdicts
