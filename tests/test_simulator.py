import itertools
import math
import sys
import threading
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crsense import simulator, sweep
from crsense.acceptance import audit_coupling
from crsense.analytics import PolicyVector, Scenario, analyze
from crsense.channel import SensingOption
from crsense.simulator import (
    _CHUNK,
    MODES,
    SimConfig,
    SimReport,
    coupled_dominance_run,
    simulate,
    simulate_traced,
    stability_diagnostic,
)
from scenario_strategies import SETTINGS


def dominant_config(scenario, policy, horizon=300_000, seed=0, warmup=10_000):
    return SimConfig(scenario, policy, "dominant", horizon, seed, warmup)


class TestBasics:
    def test_zero_arrivals_stay_idle(self, table_scenario):
        scenario = replace(table_scenario, lambda_p=0.0, lambda_s=0.0,
                           lambda_pe=0.0, lambda_se=0.0)
        report = simulate(SimConfig(scenario, PolicyVector.uniform(10),
                                    "original", 20_000, 1))
        assert report.mu_p == report.mu_s == 0.0
        assert report.mean_q_p == report.mean_q_se == 0.0
        assert report.prob_pe_empty == 1.0
        assert report.prob_se_nonempty == 0.0
        assert report.collisions == 0

    def test_reproducible_bit_for_bit(self, table_scenario):
        config = dominant_config(table_scenario, PolicyVector.uniform(10),
                                 horizon=50_000, seed=99, warmup=1_000)
        assert simulate(config) == simulate(config)

    def test_different_seeds_differ(self, table_scenario):
        pol = PolicyVector.uniform(10)
        a = simulate(dominant_config(table_scenario, pol, 50_000, seed=1))
        b = simulate(dominant_config(table_scenario, pol, 50_000, seed=2))
        assert a != b

    def test_config_validation(self, table_scenario):
        pol = PolicyVector.uniform(10)
        with pytest.raises(ValueError):
            SimConfig(table_scenario, pol, "nonsense", 1000, 0)
        with pytest.raises(ValueError, match="got horizon 1000 and warmup 1000"):
            SimConfig(table_scenario, pol, "original", 1000, 0, warmup=1000)
        with pytest.raises(ValueError, match="got horizon 3000 and warmup 10000"):
            SimConfig(table_scenario, pol, "original", 3000, 0, warmup=10_000)
        with pytest.raises(ValueError):
            SimConfig(table_scenario, PolicyVector.uniform(3), "original", 1000, 0)
        for seed in (-1, 1.0, "3"):
            with pytest.raises(ValueError, match="seed must be a non-negative integer"):
                SimConfig(table_scenario, pol, "original", 1000, seed)

    @pytest.mark.parametrize("field", ["horizon", "warmup", "seed"])
    def test_boolean_setting_rejected(self, table_scenario, field):
        # bool is a subclass of int, so an isinstance test takes True for 1
        settings = dict(horizon=1000, warmup=0, seed=0) | {field: True}
        with pytest.raises(ValueError, match=f"{field}.*integer"):
            SimConfig(table_scenario, PolicyVector.uniform(10), "original", **settings)

    def test_numpy_integer_settings_stored_as_int(self, table_scenario):
        pol = PolicyVector.uniform(10)
        plain = SimConfig(table_scenario, pol, "original", 2_000, 7, warmup=100)
        config = SimConfig(table_scenario, pol, "original", np.int64(2_000), np.uint8(7),
                           warmup=np.int32(100))
        assert config == plain
        assert all(type(getattr(config, name)) is int for name in ("horizon", "warmup", "seed"))
        report = simulate(config)
        assert report == simulate(plain)
        assert all(type(getattr(report, name)) is int for name in ("horizon", "warmup", "seed"))

    def test_rng_is_documented(self, table_scenario):
        report = simulate(SimConfig(table_scenario, PolicyVector.uniform(10),
                                    "original", 2_000, 0))
        assert "PCG64" in report.rng


class TestDeterministicSlotLogic:
    def test_saturated_arrivals_with_perfect_sensor(self):
        # every arrival rate is 1 and detection is certain: from slot 1 on the
        # licensed node transmits every slot on a clean channel while the
        # opportunistic node is always blocked, so its data queue grows by
        # one packet per slot (late arrivals: nothing moves in slot 0)
        table = (SensingOption(1, 1.0, 0.0, 0.5),)
        scenario = Scenario(1.0, 1.0, 1.0, 1.0, 0.0, table)
        horizon = 5_000
        report, trace = simulate_traced(
            SimConfig(scenario, PolicyVector.uniform(1), "original", horizon, 3,
                      warmup=1))
        assert report.mu_p == 1.0
        assert report.mu_s == 0.0
        assert np.all(trace.q_p[1:] == 1)                 # served every slot
        assert np.array_equal(trace.q_s, np.arange(horizon))
        assert report.collisions == 0

    def test_energy_starved_licensed_node(self):
        # licensed node has data but zero energy arrivals: it never transmits
        table = (SensingOption(1, 0.9, 0.0, 0.0),)
        scenario = Scenario(1.0, 0.0, 0.0, 1.0, 0.0, table)
        report, trace = simulate_traced(
            SimConfig(scenario, PolicyVector.uniform(1), "original", 5_000, 4))
        assert not trace.pu_tx.any()
        assert report.mu_p == 0.0
        assert report.prob_pe_empty == 1.0

    @pytest.mark.parametrize("mode", MODES)
    def test_occupancy_sum_past_int32(self, mode):
        # the opportunistic channel is always in outage, so q_s never
        # drains and holds exactly t at slot t: its occupancy sum over
        # 150 000 slots is 11 249 925 000, past 2**31
        table = (SensingOption(1, 0.5, 0.5, 1.0),)
        scenario = Scenario(0.0, 1.0, 0.5, 0.5, 0.0, table)
        report = simulate(SimConfig(scenario, PolicyVector.uniform(1), mode, 150_000, 5))
        assert report.mean_q_s == 74999.5


class TestInvariants:
    @pytest.mark.parametrize("mode", ["original", "dominant"])
    def test_trace_invariants(self, table_scenario, mode):
        scenario = replace(table_scenario, lambda_p=0.3, lambda_s=0.3,
                           lambda_pe=0.5, lambda_se=0.5)
        config = SimConfig(scenario, PolicyVector.uniform(10), mode, 30_000, 7)
        report, trace = simulate_traced(config)
        # queues never go negative
        for name in ("q_p", "q_s", "q_pe", "q_se"):
            assert getattr(trace, name).min() >= 0
        # transmissions require energy; original mode also requires data
        assert not np.any(trace.pu_tx & (trace.q_pe == 0))
        assert not np.any(trace.cr_tx & (trace.q_se == 0))
        if mode == "original":
            assert not np.any(trace.pu_tx & (trace.q_p == 0))
            assert not np.any(trace.cr_tx & (trace.q_s == 0))
        # a secondary success never coincides with a licensed transmission
        assert not np.any((trace.r_s == 1) & trace.pu_tx)
        # rates are probabilities
        for value in (report.mu_p, report.mu_s, report.mu_pe, report.mu_se,
                      report.prob_pe_empty, report.prob_se_nonempty):
            assert 0.0 <= value <= 1.0

    @pytest.mark.parametrize("queue,rate,arrivals", [
        ("q_pe", "r_pe", "arr_pe"), ("q_se", "r_se", "arr_se")])
    def test_energy_conservation(self, table_scenario, queue, rate, arrivals):
        # total consumed = initial + arrivals - final level, and consumption
        # in one slot never exceeds min(level, offered service)
        scenario = replace(table_scenario, lambda_pe=0.5, lambda_se=0.5)
        config = SimConfig(scenario, PolicyVector.uniform(10), "original", 20_000, 11)
        _, trace = simulate_traced(config)
        q = getattr(trace, queue).astype(int)
        r = getattr(trace, rate).astype(int)
        a = getattr(trace, arrivals).astype(int)
        consumed = np.minimum(q, r)
        final = q[-1] - consumed[-1] + a[-1]
        assert consumed.sum() == q[0] + a.sum() - final
        assert consumed.sum() <= q[0] + a.sum()


class TestMemory:
    @pytest.mark.parametrize("mode", MODES)
    def test_untraced_run_keeps_per_chunk_memory(self, table_scenario, mode, monkeypatch):
        """Eight times the chunks raise an untraced run's allocation peak by
        at most a quarter: nothing a chunk allocates outlives it, apart from
        the drift samples (at most 2000 per queue)."""
        chunk = 2_048
        monkeypatch.setattr(simulator, "_CHUNK", chunk)
        scenario = replace(table_scenario, lambda_p=0.3, lambda_s=0.3,
                           lambda_pe=0.5, lambda_se=0.5)
        configs = [SimConfig(scenario, PolicyVector.uniform(10), mode, chunks * chunk, 1)
                   for chunks in (8, 64)]
        simulate(configs[0])                # first-call caches outside the measurement
        peaks = []
        for config in configs:
            tracemalloc.start()
            try:
                simulate(config)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.25 * peaks[0], peaks


class TestAgainstClosedForm:
    def test_empty_energy_probability(self, table_scenario):
        scenario = replace(table_scenario, lambda_pe=0.4)
        report = simulate(dominant_config(scenario, PolicyVector.uniform(10),
                                          horizon=200_000, seed=5))
        assert report.prob_pe_empty == pytest.approx(0.6, abs=0.01)

    def test_saturated_rates_converge(self, table_scenario):
        scenario = replace(table_scenario, lambda_pe=0.2, lambda_se=0.4)
        policy = PolicyVector.point_mass(10, 0)
        rates = analyze(scenario, policy)
        report = simulate(dominant_config(scenario, policy, horizon=400_000, seed=6))
        n = report.horizon - report.warmup
        for got, want in ((report.mu_s, rates.mu_s), (report.mu_p, rates.mu_p),
                          (report.mu_se, rates.mu_se)):
            stderr = math.sqrt(want * (1.0 - want) / n)
            assert abs(got - want) <= 3 * stderr

    def test_occupancy_matches_ratio(self, table_scenario):
        scenario = replace(table_scenario, lambda_pe=0.3, lambda_se=0.3)
        policy = PolicyVector.uniform(10)
        rates = analyze(scenario, policy)
        assert rates.x_se < 0.6    # safely inside the stable regime
        report = simulate(dominant_config(scenario, policy, horizon=400_000, seed=9))
        assert report.prob_se_nonempty == pytest.approx(rates.x_se, abs=0.01)


class TestCoupledMode:
    def test_zero_arrivals_no_violations(self, table_scenario):
        scenario = replace(table_scenario, lambda_p=0.0, lambda_s=0.0,
                           lambda_pe=0.0, lambda_se=0.0)
        report = coupled_dominance_run(
            SimConfig(scenario, PolicyVector.uniform(10), "coupled", 20_000, 1))
        assert report.dominance_violations == 0

    def test_mode_guards(self, table_scenario):
        pol = PolicyVector.uniform(10)
        with pytest.raises(ValueError):
            coupled_dominance_run(SimConfig(table_scenario, pol, "original", 1000, 0))
        with pytest.raises(ValueError):
            simulate_traced(SimConfig(table_scenario, pol, "coupled", 1000, 0))

    def test_original_side_matches_standalone_run(self, table_scenario):
        # the coupled run must reproduce the plain original-mode statistics
        # exactly: same seed, same draws, same slot logic
        pol = PolicyVector.uniform(10)
        coupled = simulate(SimConfig(table_scenario, pol, "coupled", 30_000, 21,
                                     warmup=1_000))
        single = simulate(SimConfig(table_scenario, pol, "original", 30_000, 21,
                                    warmup=1_000))
        for name in ("mu_p", "mu_s", "mu_pe", "mu_se", "prob_pe_empty",
                     "prob_se_nonempty", "mean_q_p", "mean_q_s", "collisions"):
            assert getattr(coupled, name) == getattr(single, name)

    def test_violation_counter_reports(self, table_scenario):
        # moderate traffic: the saturated twin's licensed node runs out of
        # energy in slots where the original still transmits, freeing the
        # twin's opportunistic node to serve data the original cannot; the
        # counter must see those slots rather than hide them
        scenario = replace(table_scenario, lambda_p=0.1, lambda_s=0.1,
                           lambda_pe=0.4, lambda_se=0.4)
        pol = PolicyVector.uniform(10)
        report = coupled_dominance_run(
            SimConfig(scenario, pol, "coupled", 100_000, 0))
        assert report.dominance_violations == 1898
        # the two systems of a coupled run are the standalone original and
        # dominant runs on the same seed: they consume identical draws
        _, original = simulate_traced(SimConfig(scenario, pol, "original", 100_000, 0))
        _, twin = simulate_traced(SimConfig(scenario, pol, "dominant", 100_000, 0))
        assert report.dominance_violations == audit_coupling(original, twin).inversions


DATA_QUEUE_FIELDS = ("mean_q_p", "mean_q_s", "drift_p", "drift_s")


def _bits(value):
    """A report field as compared bit for bit: floats by their hex form,
    which tells -0.0 from 0.0."""
    return value.hex() if isinstance(value, float) else value


@st.composite
def dominant_configs(draw, table, horizons):
    """Dominant runs on a prefix of ``table`` with any arrival rates, point
    masses and mixes alike, and any warmup."""
    m = draw(st.integers(1, table.num_durations))
    weights = draw(st.lists(st.integers(0, 3), min_size=m, max_size=m)
                   .filter(lambda w: sum(w) > 0))
    rates = draw(st.lists(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
                          min_size=4, max_size=4))
    scenario = replace(table, sensing_table=table.sensing_table[:m], **dict(zip(
        ("lambda_p", "lambda_s", "lambda_pe", "lambda_se"), rates)))
    policy = PolicyVector(tuple(w / sum(weights) for w in weights))
    horizon = draw(horizons)
    return SimConfig(scenario, policy, "dominant", horizon,
                     draw(st.integers(0, 2**32 - 1)), draw(st.integers(0, horizon - 1)))


class TestWithoutDataQueues:
    @settings(max_examples=80, **SETTINGS)
    @given(data=st.data(), chunk=st.sampled_from([1, 7, 64, simulator._CHUNK]))
    def test_equals_full_run_but_data_queue_fields(self, table_scenario, data, chunk):
        config = data.draw(dominant_configs(table_scenario,
                                            st.integers(1, 3 * chunk + 2)))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(simulator, "_CHUNK", chunk)
            full = simulate(config)
            lite = simulate(config, data_queues=False)
        for field in fields(SimReport):
            if field.name in DATA_QUEUE_FIELDS:
                assert getattr(full, field.name) is not None
                assert getattr(lite, field.name) is None, field.name
            else:
                assert _bits(getattr(lite, field.name)) == _bits(getattr(full, field.name)), \
                    field.name

    @pytest.mark.parametrize("mode", ["original", "coupled"])
    def test_other_modes_rejected(self, table_scenario, mode):
        config = SimConfig(table_scenario, PolicyVector.uniform(10), mode, 1_000, 0)
        with pytest.raises(ValueError, match=f"got mode '{mode}'"):
            simulate(config, data_queues=False)

    def test_switch_is_keyword_only(self, table_scenario):
        config = dominant_config(table_scenario, PolicyVector.uniform(10), 1_000, warmup=0)
        with pytest.raises(TypeError):
            simulate(config, False)

    def test_stability_diagnostic_rejects_report(self, table_scenario):
        config = dominant_config(table_scenario, PolicyVector.uniform(10), 1_000, warmup=0)
        report = replace(simulate(config, data_queues=False), horizon=2_000_000)
        with pytest.raises(ValueError, match="data_queues=False"):
            stability_diagnostic(report, table_scenario)


class TestStabilityDiagnostic:
    def test_requires_long_run(self, table_scenario):
        report = simulate(SimConfig(table_scenario, PolicyVector.uniform(10),
                                    "original", 50_000, 1))
        with pytest.raises(ValueError, match="raise horizon"):
            stability_diagnostic(report, table_scenario)

    def test_stable_primary_queue(self, table_scenario):
        scenario = replace(table_scenario, lambda_p=0.05, lambda_pe=0.4, lambda_se=0.4)
        report = simulate(SimConfig(scenario, PolicyVector.uniform(10),
                                    "original", 1_050_000, 14, warmup=50_000))
        verdicts = {v.queue: v for v in stability_diagnostic(report, scenario)}
        assert verdicts["primary_data"].verdict == "stable"
        assert abs(report.drift_p) < 1e-3

    def test_unstable_primary_queue(self, table_scenario):
        scenario = replace(table_scenario, lambda_p=0.5, lambda_pe=0.2, lambda_se=0.4)
        report = simulate(SimConfig(scenario, PolicyVector.uniform(10),
                                    "original", 1_050_000, 15, warmup=50_000))
        verdicts = {v.queue: v for v in stability_diagnostic(report, scenario)}
        assert verdicts["primary_data"].verdict == "unstable"
        # a saturated queue grows at (arrival - service) packets per slot
        assert report.drift_p == pytest.approx(
            scenario.lambda_p - report.mu_p, abs=0.01)

    def test_borderline_band(self, table_scenario):
        report = SimReport(
            mode="original", horizon=2_000_000, warmup=0, seed=0, rng="x",
            mu_p=table_scenario.lambda_p + 1e-5, mu_s=0.5, mu_pe=1.0, mu_se=0.5,
            prob_pe_empty=0.8, prob_se_nonempty=0.5,
            mean_q_p=1.0, mean_q_s=1.0, mean_q_pe=0.2, mean_q_se=0.5,
            drift_p=0.0, drift_s=0.0, drift_pe=0.0, drift_se=0.0, collisions=0)
        verdicts = {v.queue: v for v in stability_diagnostic(report, table_scenario)}
        assert verdicts["primary_data"].verdict == "borderline"



RUN_KINDS = [("dominant", False), ("dominant", True), ("original", True), ("coupled", True)]


def _assert_turn_free():
    leaked = simulator._TURN.locked()
    if leaked:
        simulator._TURN.release()       # so that the tests after this one can run
    assert not leaked, "the turn was left taken"


def _within(seconds, fn):
    """``fn()`` on a daemon thread: its result, or its exception raised here.
    A call that waits on a turn left taken would never return, so a call
    still running after ``seconds`` fails the test instead."""
    outcome = []

    def target():
        try:
            outcome.append((fn(), None))
        except Exception as error:
            outcome.append((None, error))

    runner = threading.Thread(target=target, daemon=True)
    runner.start()
    runner.join(seconds)
    if runner.is_alive():
        _assert_turn_free()
        pytest.fail(f"still running after {seconds} s")
    result, error = outcome[0]
    if error is not None:
        raise error
    return result


class TestTurn:
    """Runs take one turn on ``simulator._TURN`` per chunk, for its GIL-bound
    part, and draw outside it; no turn outlives a chunk, an error or a pool."""

    def test_turn_free_between_chunks(self, table_scenario, monkeypatch):
        # a whole second run, on another thread, takes its turns while the
        # first waits in the draw before its second chunk
        config = SimConfig(table_scenario, PolicyVector.uniform(10), "dominant", 3 * _CHUNK, 1)
        other = replace(config, horizon=2 * _CHUNK, seed=3)
        expected, expected_other = simulate(config), simulate(other)
        real_rng, between = np.random.default_rng, []

        class Pausing:
            """The first run's generator, running ``other`` before its second draw."""

            def __init__(self, seed):
                self.rng, self.draws = real_rng(seed), 0

            def random(self, *args, **kwargs):
                self.draws += 1
                if self.draws == 2:
                    _assert_turn_free()
                    between.append(_within(60, lambda: simulate(other)))
                return self.rng.random(*args, **kwargs)

        monkeypatch.setattr(np.random, "default_rng",
                            lambda seed: Pausing(seed) if seed == config.seed else real_rng(seed))
        assert simulate(config) == expected
        assert between == [expected_other]
        _assert_turn_free()

    @pytest.mark.parametrize("mode,data_queues", RUN_KINDS)
    def test_one_turn_per_chunk(self, table_scenario, monkeypatch, mode, data_queues):
        turns = []

        class Counting:
            """``_TURN``, counting its acquisitions."""

            def __init__(self, lock):
                self.lock = lock

            def __enter__(self):
                turns.append(None)
                return self.lock.__enter__()

            def __exit__(self, *exc):
                return self.lock.__exit__(*exc)

            def __getattr__(self, name):
                return getattr(self.lock, name)

        config = SimConfig(table_scenario, PolicyVector.uniform(10), mode, 3 * _CHUNK + 5, 7)
        expected = simulate(config, data_queues=data_queues)
        monkeypatch.setattr(simulator, "_TURN", Counting(simulator._TURN))
        assert simulate(config, data_queues=data_queues) == expected
        assert len(turns) == 4
        _assert_turn_free()

    @pytest.mark.parametrize("mode,data_queues", RUN_KINDS)
    def test_draws_outside_and_compute_inside_the_turn(self, table_scenario, monkeypatch,
                                                       mode, data_queues):
        real_rng, real_indicators, real_energy = (
            np.random.default_rng, simulator._indicators, simulator._energy)
        draws, compares, kernels = [], [], []

        class Watched:
            """The run's generator, noting whether the turn is taken at each draw."""

            def __init__(self, seed):
                self.rng = real_rng(seed)

            def random(self, *args, **kwargs):
                draws.append(simulator._TURN.locked())
                return self.rng.random(*args, **kwargs)

        def indicators(*args):
            compares.append(simulator._TURN.locked())
            return real_indicators(*args)

        def energy(*args):
            kernels.append(simulator._TURN.locked())
            return real_energy(*args)

        config = SimConfig(table_scenario, PolicyVector.uniform(10), mode, 3 * _CHUNK + 5, 7)
        expected = simulate(config, data_queues=data_queues)
        monkeypatch.setattr(np.random, "default_rng", Watched)
        monkeypatch.setattr(simulator, "_indicators", indicators)
        monkeypatch.setattr(simulator, "_energy", energy)
        assert simulate(config, data_queues=data_queues) == expected
        _assert_turn_free()
        assert draws == [False] * 4
        assert compares == [True] * 4
        assert kernels and all(kernels)

    @staticmethod
    def _fail_second_chunk(monkeypatch):
        real, calls = simulator._energy, itertools.count()

        def energy(*args):
            if next(calls) == 1:
                raise RuntimeError("second chunk failed")
            return real(*args)

        monkeypatch.setattr(simulator, "_energy", energy)

    def test_error_in_a_turn_leaves_it_free(self, table_scenario, monkeypatch):
        config = SimConfig(table_scenario, PolicyVector.uniform(10), "dominant",
                           3 * _CHUNK, 1)
        expected = simulate(config)
        self._fail_second_chunk(monkeypatch)
        with pytest.raises(RuntimeError, match="second chunk failed"):
            simulate(config)
        _assert_turn_free()
        assert _within(60, lambda: simulate(config)) == expected

    def test_pooled_sweep_reraises_an_error_in_a_turn(self, table_scenario, monkeypatch):
        spec = sweep.SweepSpec(replace(table_scenario, lambda_pe=0.4, lambda_se=0.4),
                               "lambda_p", 0.0, 0.1, 0.01, simulate=True,
                               horizon=3 * _CHUNK, warmup=1_000)
        monkeypatch.setattr(simulator, "_usable_cpus", lambda: 2)
        expected = sweep.run_sweep(spec)
        self._fail_second_chunk(monkeypatch)
        baseline = threading.active_count()
        with pytest.raises(RuntimeError, match="second chunk failed"):
            _within(60, lambda: sweep.run_sweep(spec))
        assert threading.active_count() == baseline
        _assert_turn_free()
        assert _within(60, lambda: sweep.run_sweep(spec)) == expected   # past the failure

    def test_more_threads_than_cores_give_one_threads_reports(self, table_scenario,
                                                             monkeypatch):
        workers = simulator._usable_cpus() + 2
        items = [(SimConfig(replace(table_scenario, lambda_p=0.02 * (1 + k % 5),
                                    lambda_s=0.05 * (1 + k % 3)),
                            PolicyVector.uniform(10), mode, 2 * _CHUNK + 1_000, k, 1_000),
                  data_queues)
                 for k, (mode, data_queues) in zip(range(max(12, workers)),
                                                   itertools.cycle(RUN_KINDS))]

        def run(item):
            config, data_queues = item
            return simulate(config, data_queues=data_queues)

        expected = [run(item) for item in items]
        monkeypatch.setattr(simulator, "_usable_cpus", lambda: workers)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            reports = simulator.map_on_cpus(run, items)
        finally:
            sys.setswitchinterval(interval)
        assert [repr(r) for r in reports] == [repr(r) for r in expected]
        _assert_turn_free()
