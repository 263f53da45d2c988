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
never serves the real data queues. No service indicator of that system
reads a data queue, so ``simulate(config, data_queues=False)`` runs only
the energy half of the kernel and leaves the two data-arrival draws
uncompared: every rate, energy statistic and collision count is the full
run's, bit for bit, and the report's data-queue fields are ``None``.

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
  the flags ``_first_flags`` reads from the window's start state: all ones
  for a data queue that starts nonempty, and for one that starts empty the
  slots where a bounding queue from 0 holds a packet. Each pass recomputes
  the flags as ``q_p > 0`` and ``q_s > 0`` from its levels, and the next
  pass restarts at the first slot whose flag changed, under the recomputed
  flags. This is exact by causality, whatever the first flags: levels at
  slot t + 1 depend only on flags at slots up to t, and indicators at slot
  t only on the flags and levels at t, so the levels up to the first
  changed flag, that flag, and the indicators before it are already the
  true ones. Every pass settles at least one more flag, and a pass that
  changes no flag has computed the one true trajectory; the first flags
  only decide how many passes that takes. A window that ``_PASSES`` passes
  leave unsettled hands its rest, from its first unsettled slot, to a
  per-slot loop that records the true flags from the settled state, and
  one kernel call under those flags fills it; the next window starts with
  passes again, so only the queue levels cross a window boundary. On a
  2-vCPU Xeon VM this rule runs ``tools/guard_set.py`` in 3.53 s, against
  3.61 s for a hand-off of the chunk's whole rest. The chunk's levels are
  int32 under the rule above, taken at its largest start level.

In ``coupled`` mode the original and the saturated twin (kernel) take the
same chunk, so the pair sees identical randomness even in slots where one
of them ignores a draw.

Concurrent runs, such as a sweep's cross-checks on ``map_on_cpus``'s
thread pool, take turns on one process-wide lock, ``_TURN``: one turn per
chunk. A chunk's ``rng.random`` fill runs outside the turn: numpy releases
the interpreter lock (GIL) while it fills, and that fill is about half of a
saturated cross-check's chunk. The rest of the chunk is some fifty short
numpy calls that hold the GIL, and it runs inside the one turn: the
indicator compares, the kernel, counters, drift samples and trace parts.
So one thread draws while another computes, where without the turn the two
would hand the GIL back and forth around every call. A run alone takes an
uncontended lock once per chunk. On a 2-vCPU Xeon VM the turn took
``validate-sweep`` from 87.0 to 100.7 points/s (``BENCH_31.json``). The
turn assumes an interpreter with a GIL; on a free-threaded build it would
serialize work that could run in parallel.

Reported service rates are the per-slot means of the service-process
indicators (the service a queue would receive if backlogged), which is the
quantity the closed-form expressions in ``analytics`` describe.
"""

from __future__ import annotations

import functools
import math
import os
import threading
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .analytics import PolicyVector, Scenario
from .channel import is_count

RNG_DESCRIPTION = f"numpy-{np.__version__}-PCG64"
MODES = ("original", "dominant", "coupled")
_DRIFT_SAMPLES = 2000
_CHUNK = 16_384               # slots per draw: the 9-column draw (1.2 MB) and the
                              # chunk's level arrays stay within a 2 MB L2 cache
_WINDOW = 4_096               # original-mode slots settled by one set of fixpoint passes
_PASSES = 6                   # kernel passes per window before the loop takes its rest
MIN_DIAGNOSTIC_SLOTS = 1_000_000
_TURN = threading.Lock()      # held by the GIL-bound part of a chunk, once per chunk


class QueueState(NamedTuple):
    """Packet counts of the four queues at one slot boundary."""

    q_p: int = 0
    q_s: int = 0
    q_pe: int = 0
    q_se: int = 0


def check_run_settings(horizon, warmup, seed, options: bool = False) -> None:
    """The one rule on a run's settings: integers, by ``is_count``, with
    ``horizon > warmup >= 0`` and ``seed >= 0``. ``options=True`` names them
    in the messages as the CLI options ``--horizon``, ``--warmup`` and ``--seed``."""
    flag = "--" if options else ""
    if not (is_count(horizon) and is_count(warmup) and horizon > warmup >= 0):
        raise ValueError(f"horizon and warmup must be integers with horizon > warmup >= 0, "
                         f"got {flag}horizon {horizon!r} and {flag}warmup {warmup!r}")
    if not (is_count(seed) and seed >= 0):
        raise ValueError(f"seed must be a non-negative integer{flag and ' --seed'}, got {seed!r}")


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
        check_run_settings(self.horizon, self.warmup, self.seed)
        for name in ("horizon", "warmup", "seed"):       # a numpy integer is stored as int
            object.__setattr__(self, name, int(getattr(self, name)))
        if len(self.policy) != self.scenario.num_durations:
            raise ValueError("policy length does not match the sensing table")


@dataclass(frozen=True)
class SimReport:
    """Empirical counterpart of ``AnalyticRates`` plus run diagnostics.

    In coupled mode the rate and occupancy fields describe the original
    system; ``dominance_violations`` counts (slot, queue) pairs where an
    original data queue exceeded its saturated twin, and is ``None`` in the
    other modes. ``mean_q_p``, ``mean_q_s``, ``drift_p`` and ``drift_s`` are
    ``None`` exactly for a dominant run made without its data queues
    (``simulate(config, data_queues=False)``); the service rates stay, as
    saturated nodes are served whatever their data queues hold.
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
    mean_q_p: float | None
    mean_q_s: float | None
    mean_q_pe: float
    mean_q_se: float
    drift_p: float | None
    drift_s: float | None
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
    """Per-slot indicator draws of one chunk, as boolean arrays; a run
    without data queues leaves ``arr_p`` and ``arr_s`` ``None``."""

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


def _duration_tables(scenario: Scenario, policy: PolicyVector):
    """The policy's duration ``levels`` (``_duration_levels``) and, by the
    number of levels a draw passes, its duration's detection, false-alarm
    and opportunistic-channel probabilities: built once per run."""
    levels, index = _duration_levels(policy)
    return levels, (scenario.detection_probs()[index], scenario.false_alarm_probs()[index],
                    1.0 - scenario.secondary_outages()[index])


def _indicators(scenario: Scenario, u: np.ndarray, levels: list[float], tables,
                data_queues: bool) -> _Draws:
    """The indicator draws of one chunk of uniforms ``u``, nine per slot in
    the column order arrivals (p, s, pe, se), duration, sensing (detection,
    false alarm), channels (licensed, opportunistic), given the run's
    ``_duration_tables``.

    The duration column costs one pass per level, and the chunk's duration
    index serves all three table gathers; a policy without a level (a point
    mass) compares the sensing and channel draws with scalars. Without
    ``data_queues`` the two data-arrival columns, drawn to keep the stream,
    are not compared and are ``None``.
    """
    if levels:
        m = _levels_passed(levels, u[:, 4].copy())     # contiguous: one read per pass
        det, fal, good_s = (t.take(m) for t in tables)
    else:
        det, fal, good_s = (t[0] for t in tables)
    return _Draws(
        u[:, 0] < scenario.lambda_p if data_queues else None,
        u[:, 1] < scenario.lambda_s if data_queues else None,
        u[:, 2] < scenario.lambda_pe,
        u[:, 3] < scenario.lambda_se,
        u[:, 5] < det,
        u[:, 6] < fal,
        u[:, 7] < 1.0 - scenario.primary_outage,
        u[:, 8] < good_s,
    )


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


def _energy(d: _Draws, state: QueueState, has_p: np.ndarray, has_s: np.ndarray):
    """One chunk of the system whose nodes hold a packet in the slots flagged
    by ``has_p`` and ``has_s``, short of its data queues: the energy levels
    (slots 0..n), in the order pe, se, and the chunk's ``_Service``.

    Given the flags, every service indicator is exogenous or depends only on
    an energy queue computed before it: q_pe is served where ``has_p``, q_se
    where ``has_s`` and the sensor reads idle (the detection draw under a
    licensed transmission, the false-alarm draw in silence), the data queues
    from q_pe and q_se. All-ones flags give the saturated system. The
    indicators are the service-process values: own-queue emptiness is
    deliberately excluded, the max() in the update masks it.
    """
    q_pe = _lindley(state.q_pe, d.arr_pe, has_p)
    pe_on = q_pe[:-1] > 0
    pu_tx = has_p & pe_on
    r_se = has_s & ~((pu_tx & d.det) | (~pu_tx & d.fa))
    q_se = _lindley(state.q_se, d.arr_se, r_se)
    se_on = q_se[:-1] > 0
    r_p = ~(has_s & se_on & ~d.det) & d.chan_p & pe_on
    r_s = ~pu_tx & se_on & ~d.fa & d.chan_s
    return q_pe, q_se, _Service(pu_tx, r_se & se_on, r_p, r_s, has_p, r_se)


def _kernel(d: _Draws, state: QueueState, has_p: np.ndarray, has_s: np.ndarray):
    """One chunk of the flagged system, without a per-slot loop: the four
    level arrays (slots 0..n), in the order p, s, pe, se, and the chunk's
    ``_Service``. ``_energy`` gives the energy levels and every indicator;
    the data queues then follow from ``r_p`` and ``r_s``."""
    q_pe, q_se, svc = _energy(d, state, has_p, has_s)
    levels = (_lindley(state.q_p, d.arr_p, svc.r_p), _lindley(state.q_s, d.arr_s, svc.r_s),
              q_pe, q_se)
    return levels, svc


def _part(d: _Draws, lo: int, hi: int | None = None) -> _Draws:
    return _Draws(*(x[lo:hi] for x in d))


def _first_flags(d: _Draws, state: QueueState) -> tuple[np.ndarray, np.ndarray]:
    """The flags a window's first pass assumes, from its start ``state``.

    A data queue that starts nonempty is flagged in every slot. One that
    starts empty is flagged where a bounding queue from 0 holds a packet:
    the licensed queue served only where its channel is good and the sensor
    detects it, the opportunistic queue served where the licensed guess is
    silent, the sensor reads idle and its channel is good. Any flags give
    the same levels (see ``_settle``); these only save passes.
    """
    ones = np.ones(d.det.size, dtype=bool)
    has_p = ones if state.q_p else _lindley(0, d.arr_p, d.chan_p & d.det)[:-1] > 0
    has_s = ones if state.q_s else _lindley(0, d.arr_s, ~has_p & ~d.fa & d.chan_s)[:-1] > 0
    return has_p, has_s


def _settle(d: _Draws, out: np.ndarray, service: np.ndarray) -> None:
    """Fill ``out`` and ``service`` with the original system's levels and
    indicators over one window: up to ``_PASSES`` kernel passes, then one
    kernel call under ``_loop``'s flags for the slots they leave unsettled.

    ``out`` is a (4, n + 1) array whose first column holds the state at the
    window's start, ``service`` a (6, n) array for the ``_Service`` rows. Each
    pass runs the kernel from the first slot whose flag is not yet known
    true, under assumed flags ``has_p`` and ``has_s`` (``_first_flags`` at
    first, then the previous pass's ``q_p > 0`` and ``q_s > 0``), and keeps
    the levels up to and the indicators before the first flag its levels
    contradict (see the module docstring), so the first flags change how
    many passes run, never what they keep.
    """
    has_p, has_s = _first_flags(d, QueueState(*out[:, 0].tolist()))
    start = 0
    for _ in range(_PASSES):
        levels, svc = _kernel(_part(d, start), QueueState(*out[:, start].tolist()),
                              has_p, has_s)
        flag_p, flag_s = levels[0][:-1] > 0, levels[1][:-1] > 0
        changed = (flag_p != has_p) | (flag_s != has_s)
        j = int(changed.argmax())
        if not changed[j]:
            out[:, start:] = levels
            service[:, start:] = svc
            return
        out[:, start:start + j + 1] = [q[:j + 1] for q in levels]
        service[:, start:start + j] = [r[:j] for r in svc]
        has_p, has_s = flag_p[j:], flag_s[j:]
        start += j
    rest, entry = _part(d, start), QueueState(*out[:, start].tolist())
    out[:, start:], service[:, start:] = _kernel(rest, entry, *_loop(rest, entry))


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


def _original(d: _Draws, state: QueueState) -> tuple[np.ndarray, _Service]:
    """The original system's (4, n + 1) levels and indicators over one chunk
    from ``state``, settled window by window by ``_settle``. The levels are
    int32 unless the largest start level is within ``n + 1`` of 2**31, as in
    ``_lindley``."""
    n = d.det.size
    out = np.empty((4, n + 1), dtype=np.int32 if max(state) + n + 1 < 2**31 else np.int64)
    out[:, 0] = state
    service = np.empty((6, n), dtype=bool)
    for w0 in range(0, n, _WINDOW):
        w1 = min(w0 + _WINDOW, n)
        _settle(_part(d, w0, w1), out[:, w0:w1 + 1], service[:, w0:w1])
    return out, _Service(*service)


@functools.lru_cache(maxsize=16)
def _design(n: int, stride: int) -> tuple[np.ndarray, np.ndarray]:
    """The drift fit's scaled design matrix over ``n`` samples ``stride`` slots
    apart, and its column norms, as ``np.polyfit(x, y, 1)`` builds them.
    Read-only, as every run with the same sample count and stride shares
    them; a run's count and stride follow from its measured slots alone."""
    lhs = np.vander(np.arange(n, dtype=float) * stride, 2)
    scale = np.sqrt((lhs * lhs).sum(axis=0))
    lhs /= scale
    lhs.setflags(write=False)
    scale.setflags(write=False)
    return lhs, scale


def _drifts(samples: list[np.ndarray], stride: int) -> list[float]:
    """Least-squares slope of each queue's samples against the slot, as
    ``np.polyfit(x, y, 1)`` computes it, with its design matrix built once
    per sample count and stride (``_design``): the samples of every queue
    sit at the same slots."""
    n = len(samples[0])
    if n < 2:
        return [0.0] * len(samples)
    lhs, scale = _design(n, stride)
    rcond = n * np.finfo(float).eps
    return [float(np.linalg.lstsq(lhs, y.astype(float), rcond)[0][0] / scale[0])
            for y in samples]


def _end(levels) -> QueueState:
    return QueueState(*(0 if q is None else int(q[-1]) for q in levels))


def _run(config: SimConfig, trace: bool, data_queues: bool = True):
    """One run, chunk by chunk; the statistics describe the original system
    in ``original`` and ``coupled`` mode and the saturated one otherwise.
    Without ``data_queues`` (dominant mode only) the chunks run ``_energy``
    alone, and the data queues' levels, sums and drifts are never formed.

    Each chunk's uniforms are drawn into one reused buffer, from one PCG64
    stream, so consecutive chunks reproduce a single full-horizon draw. The
    draw releases the GIL and runs outside any turn; everything else a
    chunk does holds the GIL and runs in one turn of ``_TURN``: the
    indicator compares, the kernel, counters, drift samples and trace parts
    (see the module docstring)."""
    mode, horizon, warmup = config.mode, config.horizon, config.warmup
    measured = horizon - warmup
    stride = max(1, measured // _DRIFT_SAMPLES)
    state = twin = QueueState()
    queues = (0, 1, 2, 3) if data_queues else (2, 3)    # levels summed and sampled

    svc = [0, 0, 0, 0]                      # service-indicator sums, order p,s,pe,se
    qsum = [0, 0, 0, 0]
    pe_nonempty = se_nonempty = 0
    collisions = 0
    violations = 0
    drift_samples: list[list[np.ndarray]] = [[], [], [], []]
    parts: list[tuple] = []

    rng = np.random.default_rng(config.seed)
    duration = _duration_tables(config.scenario, config.policy)
    buffer = np.empty((min(_CHUNK, horizon), 9))
    for t0 in range(0, horizon, _CHUNK):
        u = rng.random(out=buffer[:min(_CHUNK, horizon - t0)])     # outside the turn
        with _TURN:
            d = _indicators(config.scenario, u, *duration, data_queues)
            ones = np.ones(d.det.size, dtype=bool)
            if not data_queues:
                q_pe, q_se, service = _energy(d, state, ones, ones)
                levels = (None, None, q_pe, q_se)
            elif mode == "dominant":
                levels, service = _kernel(d, state, ones, ones)
            else:
                levels, service = _original(d, state)
                if mode == "coupled":
                    twin_levels = _kernel(d, twin, ones, ones)[0]
                    twin = _end(twin_levels)
                    violations += sum(int(np.count_nonzero(levels[k][1:] > twin_levels[k][1:]))
                                      for k in (0, 1))
            state = _end(levels)
            n = d.det.size
            lo = min(max(warmup - t0, 0), n)
            first = lo + (warmup - t0 - lo) % stride     # drift samples: t - warmup = 0 mod stride
            for k, r in enumerate(service[2:]):
                svc[k] += int(np.count_nonzero(r[lo:]))
            for k in queues:
                q = levels[k]
                qsum[k] += int(q[lo:n].sum(dtype=np.int64))   # int32 chunk levels, summed wide
                drift_samples[k].append(q[first:n:stride].copy())     # a view would keep the chunk
            pe_nonempty += int(np.count_nonzero(levels[2][lo:n]))
            se_nonempty += int(np.count_nonzero(levels[3][lo:n]))
            collisions += int(np.count_nonzero(service.pu_tx[lo:] & service.cr_tx[lo:]))
            if trace:
                parts.append(tuple(q[:-1] for q in levels) + d[:4] + service)

    mean = {k: qsum[k] / measured for k in queues}
    drift = dict(zip(queues, _drifts([np.concatenate(drift_samples[k]) for k in queues],
                                     stride)))
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
        mean_q_p=mean.get(0),
        mean_q_s=mean.get(1),
        mean_q_pe=mean.get(2),
        mean_q_se=mean.get(3),
        drift_p=drift.get(0),
        drift_s=drift.get(1),
        drift_pe=drift.get(2),
        drift_se=drift.get(3),
        collisions=collisions,
        dominance_violations=violations if mode == "coupled" else None,
    )
    if not trace:
        return report
    columns = [np.concatenate(col) for col in zip(*parts)]
    columns[:4] = [col.astype(np.int64, copy=False) for col in columns[:4]]
    columns[10:] = [col.astype(np.int64) for col in columns[10:]]
    return report, SlotTrace(*columns)


def simulate(config: SimConfig, *, data_queues: bool = True) -> SimReport:
    """Run one replication and return the empirical report.

    ``data_queues=False`` is for ``dominant`` mode, whose saturated nodes
    never read their data queues: the run skips the two data-queue
    recursions, its report's ``mean_q_p``, ``mean_q_s``, ``drift_p`` and
    ``drift_s`` are ``None``, and every other field equals the full run's
    bit for bit.
    """
    if not data_queues and config.mode != "dominant":
        raise ValueError(f"data_queues=False needs mode 'dominant', got mode {config.mode!r}, "
                         f"whose service reads the data queues")
    return _run(config, trace=False, data_queues=data_queues)


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


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the OS has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def map_on_cpus(fn, items: list) -> list:
    """``[fn(item) for item in items]`` on every usable CPU, for runs that
    take turns on ``_TURN`` (a sweep's and criterion 3's cross-checks).

    One worker thread per usable CPU, at most one per item; with one worker
    it is a plain loop and no thread starts. Otherwise every item goes to a
    thread pool, whose workers take them in order, and the calling thread
    waits. The results keep the items' order. Once an item raises, or the
    wait is interrupted, no item that has not started will start, and the
    first exception in item order is re-raised; no worker outlives the call.
    """
    workers = min(_usable_cpus(), len(items))
    if workers <= 1:
        return [fn(item) for item in items]
    # imported here: its 5-7 ms of import time would otherwise fall on
    # every command, also on those that start no thread
    from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait
    pool = ThreadPoolExecutor(workers)
    try:
        futures = [pool.submit(fn, item) for item in items]
        wait(futures, return_when=FIRST_EXCEPTION)
    finally:
        pool.shutdown(cancel_futures=True)
    return [future.result() for future in futures]


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

    In ``original`` mode the mean service indicator falls with the load, so
    the rule can read "stable" for a growing queue: replication 63 of
    criterion 8's sample at lambda_s = 0.99 mu_s(P), over 2M slots at seed
    1, reads mu_s 0.156 and "stable" while ``q_s`` grows by +1.1e-3
    packets/slot. The verdict rule is unchanged; it ignores the slope.
    """
    if report.drift_p is None or report.drift_s is None:
        raise ValueError("report has no data-queue drifts: it comes from a dominant run "
                         "made with data_queues=False; simulate with data_queues=True")
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
