"""Randomized equality tests for the simulator's single-system paths.

The saturated system runs through a closed-form kernel (Lindley recursions
with cumsum and a running maximum). The original runs through fixpoint
passes of the same kernel under data-queue activity flags, with a per-slot
loop settling the flags of what the passes leave unsettled. ``reference_run``
below is the oracle for all of them: the per-slot simulator that the paths
replaced, one full-horizon draw, both systems stepped slot by slot in one
loop. It fixes the reports and traces every seed must keep reproducing. Its
slot rules, run over one chunk's draws from any start state, are the oracle
of the kernel under arbitrary flags, of each window that the passes and the
loop settle from any first flags, and of whole chunks window by window. The
recursion itself is held against a slot-by-slot queue, on both sides of
the level from which it skips its running maximum. What the passes cost
is counted too: kernel and loop slots per simulated slot on pinned runs.

Small chunk sizes push horizons across many chunk boundaries cheaply; a few
runs use the real chunk size around its boundaries. The duration index the
chunked draw builds from the policy's interior thresholds is held against
the ``searchsorted`` inverse CDF of the reference draw.
"""

import itertools
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from crsense import acceptance, simulator
from crsense.analytics import POLICY_SUM_TOL, PolicyVector, analyze
from crsense.simulator import (
    QueueState,
    SimConfig,
    SimReport,
    SlotTrace,
    simulate,
    simulate_traced,
)

TRACE_FIELDS = [f.name for f in fields(SlotTrace)]
_SETTINGS = dict(deadline=None, derandomize=True,
                 suppress_health_check=[HealthCheck.too_slow])


def _reference_index(policy, pick):
    """Duration index of each draw in ``pick``: the policy's inverse CDF."""
    cum = np.cumsum(policy.as_array())
    return np.minimum(np.searchsorted(cum, pick, side="right"), len(policy) - 1)


def _predraw(scenario, policy, horizon, seed):
    rng = np.random.default_rng(seed)
    u = rng.random((horizon, 9))
    m = _reference_index(policy, u[:, 4])
    return (
        (u[:, 0] < scenario.lambda_p).tolist(),
        (u[:, 1] < scenario.lambda_s).tolist(),
        (u[:, 2] < scenario.lambda_pe).tolist(),
        (u[:, 3] < scenario.lambda_se).tolist(),
        (u[:, 5] < scenario.detection_probs()[m]).tolist(),
        (u[:, 6] < scenario.false_alarm_probs()[m]).tolist(),
        (u[:, 7] < 1.0 - scenario.primary_outage).tolist(),
        (u[:, 8] < 1.0 - scenario.secondary_outages()[m]).tolist(),
    )


def _slot(q, has_p, has_s, det_busy, fa_busy, chan_p, chan_s):
    """One slot of the reference from its start-of-slot levels ``q``, with
    the nodes holding a packet as ``has_p`` and ``has_s`` say:
    ``(pu_tx, cr_tx, r_p, r_s, r_pe, r_se)``."""
    _, _, q_pe, q_se = q
    pu_tx = has_p and q_pe > 0
    sensed_busy = det_busy if pu_tx else fa_busy
    cr_tx = (not sensed_busy) and has_s and q_se > 0
    r_s = int((not pu_tx) and q_se > 0 and (not fa_busy) and chan_s)
    r_se = int(has_s and not sensed_busy)
    r_pe = int(has_p)
    r_p = int((not (has_s and q_se > 0 and not det_busy)) and chan_p and q_pe > 0)
    return pu_tx, cr_tx, r_p, r_s, r_pe, r_se


def _step(q, service, arrivals):
    """Levels after one slot: ``max(q - r, 0) + a`` per queue."""
    return [max(x - r, 0) + a for x, r, a in zip(q, service, arrivals)]


def reference_run(config):
    """Per-slot reference simulator: ``(report, trace or None)``."""
    flags = {"original": [False], "dominant": [True], "coupled": [False, True]}[config.mode]
    horizon, warmup = config.horizon, config.warmup
    arr_p, arr_s, arr_pe, arr_se, det_busy, fa_busy, chan_p, chan_s = _predraw(
        config.scenario, config.policy, horizon, config.seed)
    systems = [[0] * 4 for _ in flags]
    measured = horizon - warmup
    stride = max(1, measured // simulator._DRIFT_SAMPLES)
    svc, qsum, samples = [0] * 4, [0] * 4, [[], [], [], []]
    pe_empty = se_nonempty = collisions = violations = 0
    rows = []
    for t in range(horizon):
        if t >= warmup:
            q = systems[0]
            for k in range(4):
                qsum[k] += q[k]
            pe_empty += q[2] == 0
            se_nonempty += q[3] != 0
            if (t - warmup) % stride == 0:
                for k in range(4):
                    samples[k].append(q[k])
        arrivals = (arr_p[t], arr_s[t], arr_pe[t], arr_se[t])
        for sysno, saturated in enumerate(flags):
            q = systems[sysno]
            pu_tx, cr_tx, *service = _slot(q, saturated or q[0] > 0, saturated or q[1] > 0,
                                           det_busy[t], fa_busy[t], chan_p[t], chan_s[t])
            if sysno == 0:
                if t >= warmup:
                    for k, r in enumerate(service):
                        svc[k] += r
                    collisions += pu_tx and cr_tx
                rows.append([*q, *arrivals, pu_tx, cr_tx, *service])
            systems[sysno] = _step(q, service, arrivals)
        if len(systems) == 2:
            violations += (systems[0][0] > systems[1][0]) + (systems[0][1] > systems[1][1])
    drift = [float(np.polyfit(np.arange(len(s), dtype=float) * stride,
                              np.asarray(s, dtype=float), 1)[0]) if len(s) > 1 else 0.0
             for s in samples]
    report = SimReport(
        config.mode, horizon, warmup, config.seed, simulator.RNG_DESCRIPTION,
        *(x / measured for x in svc), pe_empty / measured, se_nonempty / measured,
        *(x / measured for x in qsum), *drift, collisions,
        violations if config.mode == "coupled" else None)
    trace = SlotTrace(*(np.asarray(col) for col in zip(*rows)))
    return report, trace


def _chunk_reference(d, state, has_p=None, has_s=None):
    """The (4, n + 1) levels and (6, n) indicators over the draws ``d`` of
    one chunk from ``state``, slot by slot by the reference's rules, under
    the flags ``has_p`` and ``has_s``; without flags, those of the original
    system, ``q_p > 0`` and ``q_s > 0``."""
    levels, service = [list(state)], []
    for t, (a_p, a_s, a_pe, a_se, det, fa, chan_p, chan_s) in enumerate(
            zip(*(x.tolist() for x in d))):
        q = levels[-1]
        flags = (q[0] > 0 if has_p is None else has_p[t], q[1] > 0 if has_s is None else has_s[t])
        service.append(_slot(q, *flags, det, fa, chan_p, chan_s))
        levels.append(_step(q, service[-1][2:], (a_p, a_s, a_pe, a_se)))
    return np.array(levels, dtype=np.int64).T, np.array(service, dtype=bool).T


def assert_traces_equal(got, want):
    for name in TRACE_FIELDS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert np.array_equal(a, b), name


@st.composite
def configs(draw, table, modes=("original", "dominant", "coupled"),
            horizons=st.integers(1, 400)):
    m = draw(st.integers(1, table.num_durations))
    weights = draw(st.lists(st.integers(0, 4), min_size=m, max_size=m)
                   .filter(lambda w: sum(w) > 0))
    rates = draw(st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4))
    scenario = replace(table, sensing_table=table.sensing_table[:m],
                       lambda_p=rates[0], lambda_s=rates[1],
                       lambda_pe=rates[2], lambda_se=rates[3])
    policy = PolicyVector(tuple(w / sum(weights) for w in weights))
    horizon = draw(horizons)
    warmup = draw(st.integers(0, horizon - 1))
    return SimConfig(scenario, policy, draw(st.sampled_from(modes)), horizon,
                     draw(st.integers(0, 2**32 - 1)), warmup)


states = st.lists(st.integers(0, 7), min_size=4, max_size=4).map(lambda q: QueueState(*q))


def _run_both(config):
    report = simulate(config)
    trace = simulate_traced(config)[1] if config.mode != "coupled" else None
    return report, trace


class TestKernelEqualsSaturatedLoop:
    """The kernel against the saturated system of the per-slot reference."""

    @settings(max_examples=60, **_SETTINGS)
    @given(data=st.data(), chunk=st.sampled_from([1, 2, 5, 64]))
    def test_small_chunks(self, table_scenario, data, chunk):
        config = data.draw(configs(table_scenario, modes=("dominant", "coupled"),
                                   horizons=st.integers(1, 4 * chunk + 3)))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(simulator, "_CHUNK", chunk)
            report, trace = _run_both(config)
        want_report, want_trace = reference_run(config)
        assert report == want_report
        if trace is not None:
            assert_traces_equal(trace, want_trace)

    @settings(max_examples=4, **_SETTINGS)
    @given(data=st.data(), chunks=st.integers(1, 2), offset=st.integers(-2, 2))
    def test_real_chunk_boundaries(self, table_scenario, data, chunks, offset):
        horizon = chunks * simulator._CHUNK + offset
        config = data.draw(configs(table_scenario, modes=("dominant",),
                                   horizons=st.just(horizon)))
        report, trace = simulate_traced(config)
        want_report, want_trace = reference_run(config)
        assert report == want_report
        assert_traces_equal(trace, want_trace)


class TestAgainstReference:
    @settings(max_examples=60, **_SETTINGS)
    @given(data=st.data(), chunk=st.sampled_from([1, 3, 50, simulator._CHUNK]))
    def test_all_modes(self, table_scenario, data, chunk):
        config = data.draw(configs(table_scenario))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(simulator, "_CHUNK", chunk)
            report, trace = _run_both(config)
        want_report, want_trace = reference_run(config)
        assert report == want_report
        if trace is not None:
            assert_traces_equal(trace, want_trace)

    @pytest.mark.parametrize("mode,rates", [
        ("original", (0.3, 0.3, 0.5, 0.5)),
        ("dominant", (0.9, 0.9, 0.3, 0.2)),     # overloaded: queues grow
        ("coupled", (0.3, 0.3, 0.5, 0.5)),
    ])
    def test_across_real_chunk_boundary(self, table_scenario, mode, rates):
        scenario = replace(table_scenario, **dict(zip(
            ("lambda_p", "lambda_s", "lambda_pe", "lambda_se"), rates)))
        config = SimConfig(scenario, PolicyVector.uniform(scenario.num_durations),
                           mode, simulator._CHUNK + 17, 7, 1_000)
        report, trace = _run_both(config)
        want_report, want_trace = reference_run(config)
        assert report == want_report
        if trace is not None:
            assert_traces_equal(trace, want_trace)


class TestCoupledAgainstOriginal:
    @settings(max_examples=40, **_SETTINGS)
    @given(data=st.data(), chunk=st.sampled_from([4, simulator._CHUNK]))
    def test_rates_equal_standalone_original(self, table_scenario, data, chunk):
        config = data.draw(configs(table_scenario, modes=("coupled",),
                                   horizons=st.integers(1, 2_000)))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(simulator, "_CHUNK", chunk)
            coupled = simulate(config)
            original = simulate(replace(config, mode="original"))
        assert replace(coupled, mode="original", dominance_violations=None) == original
        assert coupled.dominance_violations is not None


@st.composite
def edge_policies(draw):
    """Policies with zero entries anywhere (point masses, repeated thresholds),
    scaled so that some sum to within ``POLICY_SUM_TOL`` of 1 but not to 1."""
    m = draw(st.integers(1, 10))
    weights = draw(st.lists(st.integers(0, 3), min_size=m, max_size=m)
                   .filter(lambda w: sum(w) > 0))
    scale = 1.0 + draw(st.sampled_from(
        [0.0, -1e-10, 1e-10, -0.9 * POLICY_SUM_TOL, 0.9 * POLICY_SUM_TOL]))
    return PolicyVector(tuple(scale * w / sum(weights) for w in weights))


def _probes(policy, extra):
    """Draws in [0, 1) on and next to every cumulative threshold, plus
    ``extra``: a random draw would never land within 1e-10 of one."""
    cum = np.cumsum(policy.as_array())
    pick = np.concatenate([cum, np.nextafter(cum, -1.0), np.nextafter(cum, 2.0),
                           [0.0, np.nextafter(1.0, 0.0)], extra])
    return pick[(pick >= 0.0) & (pick < 1.0)]


def _policy(*head, m=10):
    return PolicyVector(head + (0.0,) * (m - len(head)))


class TestDurationIndex:
    """The chunked draw passes only the distinct thresholds inside (0, 1)."""

    @settings(max_examples=300, **_SETTINGS)
    @given(policy=edge_policies(),
           extra=st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=20))
    @example(policy=_policy(1.0), extra=[])
    @example(policy=PolicyVector((0.0,) * 9 + (1.0,)), extra=[])
    @example(policy=_policy(1 - 1e-10), extra=[])
    @example(policy=PolicyVector((0.5, 0.5 - 1e-10) + (0.0,) * 7 + (1e-10,)), extra=[])
    @example(policy=_policy(0.0, 0.3, 0.0, 0.7), extra=[])
    @example(policy=PolicyVector((0.25, 0.0, 0.0, 0.25, 0.5, 0.0)), extra=[])
    def test_matches_inverse_cdf(self, policy, extra):
        levels, index = simulator._duration_levels(policy)
        assert all(0.0 < c < 1.0 for c in levels)
        assert all(a < b for a, b in zip(levels, levels[1:]))
        pick = _probes(policy, extra)
        got = index[simulator._levels_passed(levels, pick)]
        assert np.array_equal(got, _reference_index(policy, pick))


class TestChunkSize:
    """Three chunks and a partial one equal one chunk of the former size."""

    @pytest.mark.parametrize("mode", ["original", "dominant", "coupled"])
    @pytest.mark.parametrize("policy", [
        PolicyVector.uniform(10),
        PolicyVector.point_mass(10, 9),
        _policy(0.0, 0.3, 0.0, 0.7),
    ], ids=["uniform", "point-mass", "two-point"])
    def test_matches_former_chunk(self, table_scenario, mode, policy):
        scenario = replace(table_scenario, lambda_p=0.3, lambda_s=0.3, lambda_pe=0.5,
                           lambda_se=0.5)
        horizon = 3 * simulator._CHUNK + 5_000
        assert horizon < 65_536
        config = SimConfig(scenario, policy, mode, horizon, 11, 2_000)
        report, trace = _run_both(config)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(simulator, "_CHUNK", 65_536)
            want_report, want_trace = _run_both(config)
        assert report == want_report
        if trace is not None:
            assert_traces_equal(trace, want_trace)


class _ScanCount:
    """``numpy`` as the simulator sees it, counting running-maximum scans."""

    def __init__(self):
        self.scans = 0
        self.maximum = self

    def accumulate(self, *args, **kwargs):
        self.scans += 1
        return np.maximum.accumulate(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(np, name)


class TestLindley:
    """The kernel's recursion against ``max(q - r, 0) + a`` slot by slot, from
    a start level on, just below, just above and far above the lowest one
    from which the queue is never served while empty; from there on the
    running maximum is skipped. A queue served in every slot from a start
    level of at most 1 takes the closed form, with no scan. The levels are
    int32 unless ``q0 + n + 1`` reaches 2**31."""

    @staticmethod
    def _boundary(slots):
        """The lowest start level from which the queue is never served empty."""
        boundary = total = 0            # total: the level's rise when never served empty
        for a, r in slots:
            boundary = max(boundary, r - total)
            total += a - r
        return boundary

    def _check(self, q0, slots):
        want = [q0]
        for a, r in slots:
            want.append(max(want[-1] - r, 0) + a)
        arrivals = np.array([a for a, _ in slots], dtype=bool)
        service = np.array([r for _, r in slots], dtype=bool)
        counter = _ScanCount()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(simulator, "np", counter)
            got = simulator._lindley(q0, arrivals, service)
        always_served = q0 <= 1 and all(r for _, r in slots)
        assert got.dtype == (np.int32 if q0 + len(slots) + 1 < 2**31 else np.int64)
        assert got.tolist() == want
        assert counter.scans == (q0 < self._boundary(slots) and not always_served)

    @settings(max_examples=300, **_SETTINGS)
    @given(slots=st.lists(st.tuples(st.booleans(), st.booleans()), max_size=300),
           offset=st.sampled_from([-1, 0, 1, 1_000]))
    @example(slots=[], offset=0)
    @example(slots=[(False, True)], offset=-1)
    @example(slots=[(True, False), (False, True), (False, True), (False, True)], offset=0)
    @example(slots=[(True, False)] * 3, offset=2**31 - 3)      # levels leave int32
    def test_matches_slot_by_slot(self, slots, offset):
        self._check(max(self._boundary(slots) + offset, 0), slots)

    @settings(max_examples=200, **_SETTINGS)
    @given(arrivals=st.lists(st.booleans(), max_size=300),
           q0=st.sampled_from([0, 1, 2, 1_000]))
    @example(arrivals=[True] * 3, q0=2**31 - 3)
    def test_always_served(self, arrivals, q0):
        self._check(q0, [(a, True) for a in arrivals])


def _first_chunk(config):
    """The draws of a run's first chunk, as ``simulator._run`` makes them."""
    u = np.random.default_rng(config.seed).random((min(simulator._CHUNK, config.horizon), 9))
    return simulator._indicators(config.scenario, u,
                                 *simulator._duration_tables(config.scenario, config.policy),
                                 data_queues=True)


def _replication_63(table, load):
    """Replication 63 of criterion 8's sample with lambda_s at ``load`` times
    the closed-form mu_s(P): near critical, its q_s empties every few slots."""
    case, policy = next(itertools.islice(acceptance._dominance_sample(table), 63, None))
    return replace(case, lambda_s=load * analyze(case, policy).mu_s), policy


class TestKernelUnderFlags:
    """The kernel's levels and six indicators under arbitrary flags, as the
    passes feed it before a window settles, against the reference's slot rule
    under the same flags. The stitching of settled prefixes relies on the
    indicators at slot t depending only on the flags and levels at t."""

    @settings(max_examples=80, **_SETTINGS)
    @given(data=st.data(), state=states)
    def test_indicators_equal_slot_rule(self, table_scenario, data, state):
        config = data.draw(configs(table_scenario, modes=("original",)))
        d = _first_chunk(config)
        n = d.det.size
        has_p, has_s = (np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
                        for _ in range(2))
        levels, service = simulator._kernel(d, state, has_p, has_s)
        want_levels, want_service = _chunk_reference(d, state, has_p, has_s)
        assert np.array_equal(np.array(levels), want_levels)
        for got, want, name in zip(service, want_service, simulator._Service._fields):
            assert got.dtype == bool, name
            assert np.array_equal(got, want), name


class TestSettledPath:
    """The original system's kernel passes and its loop's flags against the
    reference's levels and indicators, window by window and chunk by chunk,
    from any start state and any first flags, and whole runs against the
    reference; a pass cap of 0 hands every window to the loop from its
    start, and near critical a cap of 1, 2 or 6 hands a window's rest to
    it after a settled prefix."""

    @settings(max_examples=80, **_SETTINGS)
    @given(data=st.data(), state=states)
    def test_loop_flags_equal_reference(self, table_scenario, data, state):
        config = data.draw(configs(table_scenario, modes=("original",)))
        d = _first_chunk(config)
        want, _ = _chunk_reference(d, state)
        has_p, has_s = simulator._loop(d, state)
        assert has_p.dtype == has_s.dtype == bool
        assert np.array_equal(has_p, want[0, :-1] > 0)
        assert np.array_equal(has_s, want[1, :-1] > 0)

    @settings(max_examples=80, **_SETTINGS)
    @given(data=st.data(), state=states, passes=st.sampled_from([0, 1, 2, 6]))
    def test_settle_equals_reference(self, table_scenario, data, state, passes):
        config = data.draw(configs(table_scenario, modes=("original",)))
        d = _first_chunk(config)
        want, want_service = _chunk_reference(d, state)
        out = np.empty_like(want)
        out[:, 0] = state
        service = np.empty_like(want_service)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(simulator, "_PASSES", passes)
            loops = []
            _spy(mp, loops, "_loop")
            assert simulator._settle(d, out, service) is None
        assert np.array_equal(out, want)
        assert np.array_equal(service, want_service)
        assert len(loops) <= 1 and all(0 < n <= d.det.size for _, n in loops)
        assert passes > 0 or loops == [("loop", d.det.size)]

    @pytest.mark.parametrize("passes", [0, 1, 2, 6])
    @pytest.mark.parametrize("first", ["drawn", "zeros", "ones"])
    @settings(max_examples=25, **_SETTINGS)
    @given(data=st.data(), state=states)
    def test_settle_from_any_first_flags(self, table_scenario, data, state, first, passes):
        """The passes keep only what the flags they assumed cannot change,
        so whatever flags the first pass assumes (drawn, all zeros or all
        ones; ``test_settle_equals_reference`` runs ``_first_flags``' own),
        the whole window is the reference's."""
        config = data.draw(configs(table_scenario, modes=("original",)))
        d = _first_chunk(config)
        n = d.det.size
        want, want_service = _chunk_reference(d, state)
        out = np.empty_like(want)
        out[:, 0] = state
        service = np.empty_like(want_service)
        if first == "drawn":
            flags = tuple(np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)),
                                   dtype=bool) for _ in range(2))
        else:
            flags = (np.full(n, first == "ones"),) * 2
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(simulator, "_PASSES", passes)
            mp.setattr(simulator, "_first_flags", lambda *_: flags)
            loops = []
            _spy(mp, loops, "_loop")
            assert simulator._settle(d, out, service) is None
        assert np.array_equal(out, want)
        assert np.array_equal(service, want_service)
        assert len(loops) <= 1 and (passes > 0 or loops == [("loop", n)])

    @settings(max_examples=150, **_SETTINGS)
    @given(data=st.data(), state=states)
    def test_first_flags_are_the_bounding_queues(self, table_scenario, data, state):
        """A data queue that starts nonempty is flagged throughout; one that
        starts empty is flagged where a queue from 0 holds a packet, served
        slot by slot as ``_first_flags`` states."""
        config = data.draw(configs(table_scenario, modes=("original",)))
        d = _first_chunk(config)
        has_p, has_s = simulator._first_flags(d, state)
        q_p = q_s = 0
        want_p, want_s = [], []
        for a_p, a_s, det, fa, chan_p, chan_s in zip(*(x.tolist() for x in (
                d.arr_p, d.arr_s, d.det, d.fa, d.chan_p, d.chan_s))):
            flag_p = state.q_p > 0 or q_p > 0
            flag_s = state.q_s > 0 or q_s > 0
            want_p.append(flag_p)
            want_s.append(flag_s)
            q_p = max(q_p - (chan_p and det), 0) + a_p
            q_s = max(q_s - (not flag_p and not fa and chan_s), 0) + a_s
        assert has_p.dtype == has_s.dtype == bool
        assert has_p.tolist() == want_p and has_s.tolist() == want_s

    @settings(max_examples=80, **_SETTINGS)
    @given(data=st.data(), state=states, window=st.sampled_from([1, 3, 16, 64]),
           passes=st.sampled_from([0, 1, 2, 6]))
    def test_chunks_equal_loop(self, table_scenario, data, state, window, passes):
        config = data.draw(configs(table_scenario, modes=("original",)))
        d = _first_chunk(config)
        want, want_service = _chunk_reference(d, state)
        events = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(simulator, "_WINDOW", window)
            mp.setattr(simulator, "_PASSES", passes)
            _record_calls(mp, events)
            levels, service = simulator._original(d, state)
        assert levels.dtype == np.int32
        assert np.array_equal(levels, want)
        assert np.array_equal(np.array(service), want_service)
        (windows,) = _per_window(events)
        assert len(windows) == -(-d.det.size // window)
        for slots, calls in windows:
            loops = [n for name, n in calls if name == "loop"]
            assert len(loops) <= 1 and all(n <= slots for n in loops)
            assert passes > 0 or loops == [slots]

    @pytest.mark.parametrize("margin, dtype", [(0, np.int64), (1, np.int32)])
    def test_levels_leave_int32_at_the_chunk_rule(self, table_scenario, margin, dtype):
        """The chunk's levels are int32 unless its largest start level plus
        n + 1 reaches 2**31; both sides of that edge equal the reference."""
        config = SimConfig(replace(table_scenario, lambda_s=0.9), PolicyVector.uniform(10),
                           "original", 50, 2)
        d = _first_chunk(config)
        state = QueueState(1, 2**31 - d.det.size - 1 - margin, 3, 4)
        want, want_service = _chunk_reference(d, state)
        levels, service = simulator._original(d, state)
        assert levels.dtype == dtype
        assert np.array_equal(levels, want)
        assert np.array_equal(np.array(service), want_service)

    @settings(max_examples=60, **_SETTINGS)
    @given(data=st.data(), chunk=st.sampled_from([5, 64, 200]),
           window=st.sampled_from([1, 3, 16]), passes=st.sampled_from([0, 1, 6]))
    def test_runs_equal_reference(self, table_scenario, data, chunk, window, passes):
        config = data.draw(configs(table_scenario, modes=("original", "coupled"),
                                   horizons=st.integers(1, 4 * chunk + 3)))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(simulator, "_CHUNK", chunk)
            mp.setattr(simulator, "_WINDOW", window)
            mp.setattr(simulator, "_PASSES", passes)
            report, trace = _run_both(config)
        want_report, want_trace = reference_run(config)
        assert report == want_report
        if trace is not None:
            assert_traces_equal(trace, want_trace)

    @pytest.mark.parametrize("window", [simulator._WINDOW, 512])
    def test_near_critical_replication(self, table_scenario, window, monkeypatch):
        """At 0.97 mu_s(P) the passes leave most windows unsettled, among
        them the first of each chunk, and the loop takes the rest of each;
        every window starts with a pass over all of it."""
        scenario, policy = _replication_63(table_scenario, 0.97)
        assert scenario.lambda_s == pytest.approx(0.97 * 0.13413, abs=1e-5)
        config = SimConfig(scenario, policy, "original", 5 * simulator._WINDOW + 17, 1)
        events = []
        monkeypatch.setattr(simulator, "_WINDOW", window)
        _record_calls(monkeypatch, events)
        report, trace = simulate_traced(config)
        chunks = _per_window(events)
        assert len(chunks) == 2
        for windows in chunks:
            assert all(calls[0] == ("kernel", slots) for slots, calls in windows)
            assert any(name == "loop" for name, _ in windows[0][1])
        want_report, want_trace = reference_run(config)
        assert report == want_report
        assert_traces_equal(trace, want_trace)

    @pytest.mark.parametrize("passes", [1, 2, 6])
    def test_hand_off_from_a_settled_prefix(self, table_scenario, passes, monkeypatch):
        """Near critical, the passes settle part of the first window and
        leave the rest unsettled, whatever the pass cap, so the loop takes
        that window's rest after a settled prefix."""
        scenario, policy = _replication_63(table_scenario, 0.97)
        d = _first_chunk(SimConfig(scenario, policy, "original", simulator._CHUNK, 1))
        state = QueueState()
        events = []
        monkeypatch.setattr(simulator, "_WINDOW", 512)
        monkeypatch.setattr(simulator, "_PASSES", passes)
        _record_calls(monkeypatch, events)
        levels, service = simulator._original(d, state)
        (windows,) = _per_window(events)
        slots, calls = windows[0]
        loops = [n for name, n in calls if name == "loop"]
        assert slots == 512 and len(loops) == 1 and 0 < loops[0] < 512
        want, want_service = _chunk_reference(d, state)
        assert np.array_equal(levels, want)
        assert np.array_equal(np.array(service), want_service)

    def test_hand_off_is_window_scoped(self, table_scenario, monkeypatch):
        """In a chunk of 16 384 slots near critical, every window the passes
        leave unsettled calls the loop once, after ``_PASSES`` passes, for no
        more than its own rest, and one kernel call under the loop's flags
        ends it; the next window runs passes again, and one of them settles
        by passes alone after an unsettled one."""
        scenario, policy = _replication_63(table_scenario, 0.97)
        config = SimConfig(scenario, policy, "original", 16_384, 1)
        assert simulator._CHUNK == 16_384 and simulator._WINDOW == 4_096
        events = []
        _record_calls(monkeypatch, events)
        report = simulate(config)
        (windows,) = _per_window(events)
        assert len(windows) == 4
        unsettled = []
        for slots, calls in windows:
            assert calls[0] == ("kernel", slots)
            names = [name for name, _ in calls]
            unsettled.append("loop" in names)
            if unsettled[-1]:
                assert names == ["kernel"] * simulator._PASSES + ["loop", "kernel"]
                rest = calls[-1][1]
                assert calls[-2] == ("loop", rest) and 0 < rest <= calls[-3][1] <= slots
            else:
                assert len(names) <= simulator._PASSES
        assert unsettled == [True, True, False, True]
        assert report == reference_run(config)[0]


class TestPassCost:
    """Kernel slots and ``_loop`` slots per simulated slot on a pinned set
    of seeded runs, held below the figures of the all-ones first guess.
    The runs are shaped like a queue benchmark's: long original runs with
    light licensed and moderate opportunistic load, and short coupled runs
    (the saturated twin's kernel call counted too) at any load."""

    # (kernel, loop) slots per simulated slot on these runs when every
    # window's first pass assumed all-ones flags, rounded down
    ALL_ONES = {"original": (4.6594, 0.1365), "coupled": (3.9472, 0.1139)}

    @staticmethod
    def _runs(table):
        rng = np.random.default_rng(25)
        runs = []
        for mode, count, horizon, warmup, bounds in (
                ("original", 6, 200_000, 10_000, ((0.02, 0.2), (0.05, 0.5), (0.15, 0.8),
                                                   (0.05, 0.9))),
                ("coupled", 30, 10_000, 0, ((0.05, 0.95),) * 4)):
            for _ in range(count):
                m = int(rng.integers(2, table.num_durations + 1))
                rates = [round(float(rng.uniform(lo, hi)), 2) for lo, hi in bounds]
                scenario = replace(table, sensing_table=table.sensing_table[:m], **dict(zip(
                    ("lambda_p", "lambda_s", "lambda_pe", "lambda_se"), rates)))
                raw = rng.random(m) + 0.01
                runs.append(SimConfig(scenario, PolicyVector(tuple(raw / raw.sum())), mode,
                                      horizon, int(rng.integers(0, 2**31)), warmup))
        return runs

    def test_fewer_slots_than_all_ones(self, table_scenario, monkeypatch):
        calls = []
        _spy(monkeypatch, calls, "_kernel", "_loop")
        runs = self._runs(table_scenario)
        for mode, bounds in self.ALL_ONES.items():
            calls.clear()
            slots = 0
            for config in (c for c in runs if c.mode == mode):
                simulate(config)
                slots += config.horizon
            for name, bound in zip(("kernel", "loop"), bounds):
                assert sum(n for call, n in calls if call == name) / slots < bound, mode


def _spy(monkeypatch, events, *names):
    """Log each call of the named simulator functions into ``events`` as
    ``(name, slots)``, the name without its leading underscore."""
    for name in names:
        def spied(d, *args, call=getattr(simulator, name), name=name[1:]):
            events.append((name, d.det.size))
            return call(d, *args)
        monkeypatch.setattr(simulator, name, spied)


def _record_calls(monkeypatch, events):
    """Log each ``_original`` chunk, ``_settle`` window, ``_kernel`` call and
    ``_loop`` call into ``events`` as ``_spy`` does, and hold every window
    ``_settle`` fills, whole, to the reference's levels and indicators from
    the window's start state."""
    settle = simulator._settle

    def window(d, out, service):
        events.append(("settle", d.det.size))
        want, want_service = _chunk_reference(d, QueueState(*out[:, 0].tolist()))
        assert settle(d, out, service) is None
        assert np.array_equal(out, want)
        assert np.array_equal(service, want_service)

    _spy(monkeypatch, events, "_original", "_kernel", "_loop")
    monkeypatch.setattr(simulator, "_settle", window)


def _per_window(events):
    """``events`` split by chunk and, within a chunk, by window: a list per
    chunk of ``(slots, calls)``, one per window, ``calls`` being the window's
    kernel and loop calls in order."""
    chunks = []
    for name, slots in events:
        if name == "original":
            chunks.append([])
        elif name == "settle":
            chunks[-1].append((slots, []))
        else:
            chunks[-1][-1][1].append((name, slots))
    return chunks
