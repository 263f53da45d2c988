"""Randomized equality tests for the simulator's two single-system paths.

The saturated system runs through a closed-form kernel (Lindley recursions
with cumsum and a running maximum), the original through a per-slot loop.
``reference_run`` below is the oracle for both: the per-slot simulator that
both paths replaced, one full-horizon draw, both systems stepped slot by
slot in one loop. It fixes the reports and traces every seed must keep
reproducing.

Small chunk sizes push horizons across many chunk boundaries cheaply; a few
runs use the real chunk size around its boundaries.
"""

from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from crsense import simulator
from crsense.analytics import PolicyVector
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


def _predraw(scenario, policy, horizon, seed):
    rng = np.random.default_rng(seed)
    u = rng.random((horizon, 9))
    cum = np.cumsum(policy.as_array())
    m = np.minimum(np.searchsorted(cum, u[:, 4], side="right"),
                   scenario.num_durations - 1)
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


def reference_run(config):
    """Per-slot reference simulator: ``(report, trace or None)``."""
    flags = {"original": [False], "dominant": [True], "coupled": [False, True]}[config.mode]
    horizon, warmup = config.horizon, config.warmup
    arr_p, arr_s, arr_pe, arr_se, det_busy, fa_busy, chan_p, chan_s = _predraw(
        config.scenario, config.policy, horizon, config.seed)
    systems = [list(config.initial) for _ in flags]
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
        for sysno, saturated in enumerate(flags):
            q_p, q_s, q_pe, q_se = systems[sysno]
            has_p = saturated or q_p > 0
            has_s = saturated or q_s > 0
            pu_tx = has_p and q_pe > 0
            sensed_busy = det_busy[t] if pu_tx else fa_busy[t]
            cr_tx = (not sensed_busy) and has_s and q_se > 0
            r_s = int((not pu_tx) and q_se > 0 and (not fa_busy[t]) and chan_s[t])
            r_se = int(has_s and not sensed_busy)
            r_pe = int(has_p)
            r_p = int((not (has_s and q_se > 0 and not det_busy[t]))
                      and chan_p[t] and q_pe > 0)
            if sysno == 0:
                if t >= warmup:
                    for k, r in enumerate((r_p, r_s, r_pe, r_se)):
                        svc[k] += r
                    collisions += pu_tx and cr_tx
                rows.append([q_p, q_s, q_pe, q_se, arr_p[t], arr_s[t], arr_pe[t],
                             arr_se[t], pu_tx, cr_tx, r_p, r_s, r_pe, r_se])
            systems[sysno] = [max(q_p - r_p, 0) + arr_p[t], max(q_s - r_s, 0) + arr_s[t],
                              max(q_pe - r_pe, 0) + arr_pe[t],
                              max(q_se - r_se, 0) + arr_se[t]]
        if len(systems) == 2:
            violations += (systems[0][0] > systems[1][0]) + (systems[0][1] > systems[1][1])
    drift = [simulator._drift(np.asarray(s), stride) for s in samples]
    report = SimReport(
        config.mode, horizon, warmup, config.seed, simulator.RNG_DESCRIPTION,
        *(x / measured for x in svc), pe_empty / measured, se_nonempty / measured,
        *(x / measured for x in qsum), *drift, collisions,
        violations if config.mode == "coupled" else None)
    trace = SlotTrace(*(np.asarray(col) for col in zip(*rows)))
    return report, trace


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
    initial = QueueState(*draw(st.lists(st.integers(0, 7), min_size=4, max_size=4)))
    return SimConfig(scenario, policy, draw(st.sampled_from(modes)), horizon,
                     draw(st.integers(0, 2**32 - 1)), warmup, initial)


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
                           mode, simulator._CHUNK + 17, 7, 1_000, QueueState(3, 1, 0, 2))
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
