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
stays O(chunk) for an untraced run. The duration draw is the policy's
inverse CDF; a cumulative threshold at or below 0 is passed by every draw
and one at or above 1 by none, so only the thresholds strictly inside
(0, 1) cost a pass, and a point mass (none inside) needs no per-slot
duration at all. Each chunk takes one of two paths:

* the flagged kernel. Given flags saying in which slots each node holds a
  packet, every service indicator is exogenous or depends only on an energy
  queue computed before: q_pe is served where the licensed node holds one,
  q_se where the opportunistic node does and the sensor reads idle (given
  q_pe), the data queues given q_pe and q_se. So each queue is a Lindley
  recursion with known service, computed exactly by one cumsum and one
  running maximum; a span whose start level keeps the queue from ever being
  served while empty skips the running maximum, and a span served in every
  slot from a level of at most 1 needs neither, since ``max(q - 1, 0) + a
  = a`` once ``q <= 1``: its levels are the start level and then the
  arrivals. That is every chunk of the saturated licensed energy queue. An
  n-slot span's arithmetic is int32 unless its start level is within
  ``n + 1`` of 2**31, and int64 then; occupancy sums and ``SlotTrace``
  columns are int64. Beside the four levels the kernel returns the
  transmissions and all six service indicators it builds on the way, so
  one vectorised statement of the slot rule serves every mode. With
  all-ones flags this is the saturated system;
* kernel passes for the original system, whose nodes stay silent on empty
  data buffers, over windows of ``_WINDOW`` slots. The first pass assumes
  all-ones flags; each pass recomputes them as ``q_p > 0`` and ``q_s > 0``
  from its levels, and the next pass restarts at the first slot whose flag
  changed, under the recomputed flags. This is exact by causality: levels
  at slot t + 1 depend only on flags at slots up to t, and indicators at
  slot t only on the flags and levels at t, so the levels up to the first
  changed flag, that flag, and the indicators before it are already the
  true ones. Every pass settles at least one more flag, and a pass that
  changes no flag has computed the one true trajectory. A window still
  unsettled after ``_PASSES`` passes gets a last pass under the true flags
  of its rest, which a per-slot loop records from the settled state. After
  such a hand-off the next 1, 2, 4 ... ``_BACKOFF`` windows get only that
  last pass, so runs near the stability boundary, whose data queues empty
  every few slots, do not pay for passes that rarely settle; a window that
  settles resets the count.

In ``coupled`` mode the original and the saturated twin (kernel) take the
same chunk, so the pair sees identical randomness even in slots where one
of them ignores a draw.

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
_CHUNK = 16_384               # slots per draw: the 9-column draw (1.2 MB) and the
                              # chunk's level arrays stay within a 2 MB L2 cache
_WINDOW = 4_096               # original-mode slots settled by one set of fixpoint passes
_PASSES = 6                   # kernel passes per window before the loop takes the rest
_BACKOFF = 64                 # most windows a run sends straight to the loop in a row
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
    mode: str
    horizon: int
    seed: int
    warmup: int = 0

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if not (isinstance(self.horizon, int) and isinstance(self.warmup, int)):
            raise ValueError("horizon and warmup must be integers")
        if not self.horizon > self.warmup >= 0:
            raise ValueError(f"need horizon > warmup >= 0, got {self.horizon}, {self.warmup}")
        if not (isinstance(self.seed, int) and self.seed >= 0):
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")
        if len(self.policy) != self.scenario.num_durations:
            raise ValueError("policy length does not match the sensing table")


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


def _duration_levels(policy: PolicyVector) -> tuple[list[float], np.ndarray]:
    """The policy's inverse CDF, reduced to the thresholds a draw can fall on.

    A draw ``u`` in [0, 1) picks the duration whose index counts the
    cumulative thresholds ``cumsum(P)[:-1]`` at or below ``u``. A threshold
    <= 0 is passed by every draw and one >= 1 by none, so only the distinct
    thresholds strictly inside (0, 1) are returned, ascending, as ``levels``.
    The index is constant between consecutive levels: ``index[j]``, the
    count of thresholds at or below 0 (j = 0) or at or below the j-th level,
    is the duration of every draw that passes exactly ``j`` of them.
    """
    cum = np.cumsum(policy.as_array())[:-1]
    levels = sorted({c for c in cum.tolist() if 0.0 < c < 1.0})
    return levels, np.searchsorted(cum, [0.0] + levels, side="right")


def _levels_passed(levels: list[float], pick: np.ndarray) -> np.ndarray:
    """How many of the ascending ``levels`` each draw in ``pick`` reaches."""
    passed = np.zeros(len(pick), dtype=np.min_scalar_type(len(levels)))
    for c in levels:
        passed += pick >= c
    return passed


def _indicators(scenario: Scenario, u: np.ndarray, det, fal, good_s) -> _Draws:
    """The indicator draws of one chunk of uniforms, given each slot's
    detection, false-alarm and opportunistic-channel probabilities (arrays,
    or scalars when every slot has the same duration). Passed as arguments,
    the per-slot arrays are freed before the chunk is consumed, instead of
    staying alive in the generator's frame."""
    return _Draws(
        u[:, 0] < scenario.lambda_p,
        u[:, 1] < scenario.lambda_s,
        u[:, 2] < scenario.lambda_pe,
        u[:, 3] < scenario.lambda_se,
        u[:, 5] < det,
        u[:, 6] < fal,
        u[:, 7] < 1.0 - scenario.primary_outage,
        u[:, 8] < good_s,
    )


def _draw_chunks(scenario: Scenario, policy: PolicyVector, horizon: int, seed: int):
    """Yield ``(t0, draws)`` for consecutive chunks of at most ``_CHUNK`` slots.

    All chunks come from one PCG64 stream, nine uniforms per slot in the
    column order arrivals (p, s, pe, se), duration, sensing (detection,
    false alarm), channels (licensed, opportunistic); consecutive chunks
    reproduce the stream of a single full-horizon draw. The duration
    column costs one pass per distinct threshold strictly inside (0, 1);
    a policy without one (a point mass) compares the sensing and channel
    draws with scalars.
    """
    rng = np.random.default_rng(seed)
    levels, index = _duration_levels(policy)
    tables = (scenario.detection_probs()[index], scenario.false_alarm_probs()[index],
              1.0 - scenario.secondary_outages()[index])
    buffer = np.empty((min(_CHUNK, horizon), 9))
    for t0 in range(0, horizon, _CHUNK):
        u = rng.random(out=buffer[:min(_CHUNK, horizon - t0)])
        if not levels:
            yield t0, _indicators(scenario, u, *(t[0] for t in tables))
        else:
            m = _levels_passed(levels, u[:, 4].copy())     # contiguous: one read per pass
            yield t0, _indicators(scenario, u, *(t.take(m) for t in tables))


def _lindley(q0: int, arrivals: np.ndarray, service: np.ndarray) -> np.ndarray:
    """Levels at slots 0..n of ``q' = max(q - r, 0) + a`` from ``q0``, exactly.

    A queue served in every slot from ``q0 <= 1`` holds ``[q0, a_0, ...,
    a_{n-1}]``: ``max(q - 1, 0) + a = a`` once ``q <= 1``, and every later
    level is an arrival indicator. ``q0`` is tested first, so a span that
    starts higher pays nothing for the test. Otherwise, unrolled, ``q_t =
    S_t + max(q0, max_{k<t} (a_k - S_{k+1}))`` with ``S`` the partial sums of
    ``a - r``: one cumsum and one running maximum. Where ``q0 >= a_k -
    S_{k+1}`` for every slot k of the span (one max reduction), the queue
    cannot empty, the running maximum is ``q0`` throughout, and the levels
    are ``q0 + S`` without the scan.

    Every value computed lies in [-n, q0 + n], so the partial sums, the
    running maximum and the levels are int32 where ``q0 + n + 1 < 2**31``
    and int64 otherwise; the always-served levels are int32.
    """
    n = arrivals.size
    if q0 <= 1 and service.all():
        level = np.empty(n + 1, dtype=np.int32)
        level[0] = q0
        level[1:] = arrivals
        return level
    dtype = np.int32 if q0 + n + 1 < 2**31 else np.int64
    total = np.zeros(n + 1, dtype=dtype)
    np.cumsum(np.subtract(arrivals.view(np.int8), service.view(np.int8)),
              dtype=dtype, out=total[1:])
    level = np.empty(n + 1, dtype=dtype)
    level[0] = q0
    np.subtract(arrivals, total[1:], out=level[1:])
    if level.max() <= q0:
        total += q0
        return total
    np.maximum.accumulate(level, out=level)
    level += total
    return level


def _kernel(d: _Draws, state: QueueState, has_p: np.ndarray, has_s: np.ndarray):
    """One chunk of the system whose nodes hold a packet in the slots flagged
    by ``has_p`` and ``has_s``, without a per-slot loop.

    Given the flags, every service indicator is exogenous or depends only on
    an energy queue computed before it: q_pe is served where ``has_p``, q_se
    where ``has_s`` and the sensor reads idle (the detection draw under a
    licensed transmission, the false-alarm draw in silence), the data queues
    from q_pe and q_se. All-ones flags give the saturated system. The
    indicators are the service-process values: own-queue emptiness is
    deliberately excluded, the max() in the update masks it. Returns the four
    level arrays (slots 0..n), in the order p, s, pe, se, and the chunk's
    ``_Service``.
    """
    q_pe = _lindley(state.q_pe, d.arr_pe, has_p)
    pe_on = q_pe[:-1] > 0
    pu_tx = has_p & pe_on
    r_se = has_s & ~((pu_tx & d.det) | (~pu_tx & d.fa))
    q_se = _lindley(state.q_se, d.arr_se, r_se)
    se_on = q_se[:-1] > 0
    r_p = ~(has_s & se_on & ~d.det) & d.chan_p & pe_on
    r_s = ~pu_tx & se_on & ~d.fa & d.chan_s
    levels = (_lindley(state.q_p, d.arr_p, r_p), _lindley(state.q_s, d.arr_s, r_s),
              q_pe, q_se)
    return levels, _Service(pu_tx, r_se & se_on, r_p, r_s, has_p, r_se)


def _part(d: _Draws, lo: int, hi: int | None = None) -> _Draws:
    return _Draws(*(x[lo:hi] for x in d))


def _settle(d: _Draws, out: np.ndarray, service: np.ndarray, passes: int) -> bool:
    """Levels and indicators of the original system over one window, by
    kernel passes; returns whether the first ``passes`` passes settled it.

    ``out`` is a (4, n + 1) array whose first column holds the state at the
    window's start, ``service`` a (6, n) array for the ``_Service`` rows; on
    return they hold the window's true levels and indicators. Each pass runs
    the kernel from the first slot whose flag is not yet known true, under
    assumed flags ``has_p`` and ``has_s`` (all ones at first, then the
    previous pass's ``q_p > 0`` and ``q_s > 0``), and keeps the levels up to
    and the indicators before the first flag its levels contradict (see the
    module docstring). After ``passes`` passes that leave the window
    unsettled, a last pass takes the true flags of the rest from ``_loop``.
    """
    has_p = has_s = np.ones(d.det.size, dtype=bool)
    start = 0
    for k in range(passes + 1):
        rest, entry = _part(d, start), QueueState(*out[:, start].tolist())
        if k == passes:
            has_p, has_s = _loop(rest, entry)
        levels, svc = _kernel(rest, entry, has_p, has_s)
        if k < passes:
            flag_p, flag_s = levels[0][:-1] > 0, levels[1][:-1] > 0
            changed = (flag_p != has_p) | (flag_s != has_s)
            j = int(changed.argmax())
            if changed[j]:
                out[:, start:start + j + 1] = [q[:j + 1] for q in levels]
                service[:, start:start + j] = [r[:j] for r in svc]
                has_p, has_s = flag_p[j:], flag_s[j:]
                start += j
                continue
        out[:, start:] = levels
        service[:, start:] = svc
        return k < passes


def _loop(d: _Draws, state: QueueState) -> tuple[np.ndarray, np.ndarray]:
    """The rest of a window of the original system, slot by slot, from
    ``state``: its flags ``q_p > 0`` and ``q_s > 0`` at slots 0..n-1, which
    give its levels by ``_kernel``.

    The slot rules of ``_kernel``, split on whether the licensed node
    transmits. If it does, the sensor reads the detection draw and the
    opportunistic node cannot succeed. If not, the licensed energy or data
    buffer is empty, so neither licensed queue moves, and the sensor reads
    the false-alarm draw.
    """
    q_p, q_s, q_pe, q_se = state
    has_p, has_s = bytearray(), bytearray()
    flag_p, flag_s = has_p.append, has_s.append
    for a_p, a_s, a_pe, a_se, det, fa, chan_p, chan_s in zip(*(x.tolist() for x in d)):
        flag_p(q_p > 0)
        flag_s(q_s > 0)
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
    return np.frombuffer(has_p, dtype=bool), np.frombuffer(has_s, dtype=bool)


def _original(d: _Draws, state: QueueState, skip: int, backoff: int):
    """The original system's (4, n + 1) levels and indicators over one chunk
    from ``state``, window by window, and the run's backoff counters after
    it: ``skip``, the windows left to settle by the loop's pass alone, and
    ``backoff``, the windows to skip after the next hand-off."""
    n = d.det.size
    out = np.empty((4, n + 1), dtype=np.int64)
    out[:, 0] = state
    service = np.empty((6, n), dtype=bool)
    for w0 in range(0, n, _WINDOW):
        w1 = min(w0 + _WINDOW, n)
        if _settle(_part(d, w0, w1), out[:, w0:w1 + 1], service[:, w0:w1],
                   0 if skip else _PASSES):
            backoff = 1
        elif skip:
            skip -= 1
        else:
            skip, backoff = backoff, min(2 * backoff, _BACKOFF)
    return out, _Service(*service), skip, backoff


def _drifts(samples: list[np.ndarray], stride: int) -> list[float]:
    """Least-squares slope of each queue's samples against the slot, as
    ``np.polyfit(x, y, 1)`` computes it, with its design matrix built once:
    the samples of every queue sit at the same slots."""
    n = len(samples[0])
    if n < 2:
        return [0.0] * len(samples)
    lhs = np.vander(np.arange(n, dtype=float) * stride, 2)
    scale = np.sqrt((lhs * lhs).sum(axis=0))
    lhs /= scale
    rcond = n * np.finfo(float).eps
    return [float(np.linalg.lstsq(lhs, y.astype(float), rcond)[0][0] / scale[0])
            for y in samples]


def _end(levels) -> QueueState:
    return QueueState(*(int(q[-1]) for q in levels))


def _run(config: SimConfig, trace: bool):
    """One run, chunk by chunk; the statistics describe the original system
    in ``original`` and ``coupled`` mode and the saturated one otherwise."""
    mode, horizon, warmup = config.mode, config.horizon, config.warmup
    measured = horizon - warmup
    stride = max(1, measured // _DRIFT_SAMPLES)
    state = twin = QueueState()

    svc = [0, 0, 0, 0]                      # service-indicator sums, order p,s,pe,se
    qsum = [0, 0, 0, 0]
    pe_nonempty = se_nonempty = 0
    collisions = 0
    violations = 0
    drift_samples: list[list[np.ndarray]] = [[], [], [], []]
    parts: list[tuple] = []
    skip, backoff = 0, 1                    # the original system's backoff, see _original

    for t0, d in _draw_chunks(config.scenario, config.policy, horizon, config.seed):
        ones = np.ones(d.det.size, dtype=bool)
        if mode == "dominant":
            levels, service = _kernel(d, state, ones, ones)
        else:
            levels, service, skip, backoff = _original(d, state, skip, backoff)
            if mode == "coupled":
                twin_levels = _kernel(d, twin, ones, ones)[0]
                twin = _end(twin_levels)
                violations += sum(int(np.count_nonzero(levels[k][1:] > twin_levels[k][1:]))
                                  for k in (0, 1))
        state = _end(levels)
        n = d.det.size
        lo = min(max(warmup - t0, 0), n)
        first = lo + (warmup - t0 - lo) % stride     # drift samples: t - warmup = 0 mod stride
        for k, (q, r) in enumerate(zip(levels, service[2:])):
            svc[k] += int(np.count_nonzero(r[lo:]))
            qsum[k] += int(q[lo:n].sum(dtype=np.int64))   # int32 chunk levels, summed wide
            drift_samples[k].append(q[first:n:stride].copy())     # a view would keep the chunk
        pe_nonempty += int(np.count_nonzero(levels[2][lo:n]))
        se_nonempty += int(np.count_nonzero(levels[3][lo:n]))
        collisions += int(np.count_nonzero(service.pu_tx[lo:] & service.cr_tx[lo:]))
        if trace:
            parts.append(tuple(q[:-1] for q in levels) + d[:4] + service)

    drift = _drifts([np.concatenate(s) for s in drift_samples], stride)
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
        prob_pe_empty=(measured - pe_nonempty) / measured,
        prob_se_nonempty=se_nonempty / measured,
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
    columns[:4] = [col.astype(np.int64, copy=False) for col in columns[:4]]
    columns[10:] = [col.astype(np.int64) for col in columns[10:]]
    return report, SlotTrace(*columns)


def simulate(config: SimConfig) -> SimReport:
    """Run one replication and return the empirical report."""
    return _run(config, trace=False)


def simulate_traced(config: SimConfig) -> tuple[SimReport, SlotTrace]:
    """Like ``simulate`` but also returns per-slot arrays; single modes only."""
    if config.mode == "coupled":
        raise ValueError("tracing is only supported for single-system modes")
    return _run(config, trace=True)


def coupled_dominance_run(config: SimConfig) -> SimReport:
    """Run the original system and its saturated twin on one shared stream.

    Both systems start empty and consume the same positional draws. After
    every slot the original data queues are compared against the twin's;
    each (slot, queue) pair where the original is longer counts as one
    dominance violation. Rates in the returned report describe the
    original system.
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
