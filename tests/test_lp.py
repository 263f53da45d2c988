import itertools

import numpy as np
import pytest

import crsense.lp
import simplex_oracle
from crsense.lp import LPSolution, StandardFormLP, vertex_enumeration_oracle
from crsense.lp import solve_lp as enumerate_lp
from simplex_oracle import FractionalProgram, LPError, fractional_to_lp, simplex_lp


def simplex_vertex_lp():
    # max x1 + 2 x2  s.t.  x1 + x2 = 1, x >= 0  ->  (0, 1), value 2
    return StandardFormLP([1.0, 2.0], [[1.0, 1.0]], [1.0])


def infeasible_lp():
    # max x1  s.t.  x1 + x2 = 1, x1 <= -1, x >= 0
    return StandardFormLP([1.0, 0.0], [[1.0, 1.0]], [1.0], [[1.0, 0.0]], [-1.0])


def random_bounded_lp(rng, n_max=6):
    """Random instance kept bounded by an explicit box row."""
    n = int(rng.integers(2, n_max + 1))
    m_eq = int(rng.integers(0, 3))
    m_ub = int(rng.integers(1, 4))
    c = rng.normal(size=n).round(3)
    a_eq = rng.normal(size=(m_eq, n)).round(3) if m_eq else None
    b_eq = rng.uniform(0.0, 2.0, size=m_eq).round(3) if m_eq else None
    a_ub = np.vstack([rng.normal(size=(m_ub, n)).round(3), np.ones(n)])
    b_ub = np.append(rng.uniform(-0.5, 2.0, size=m_ub).round(3), rng.uniform(1.0, 5.0))
    return StandardFormLP(c, a_eq, b_eq, a_ub, b_ub)


class TestSolveExamples:
    def test_simplex_vertex(self):
        sol = simplex_lp(simplex_vertex_lp())
        assert sol.status == "optimal"
        assert sol.value == pytest.approx(2.0, abs=1e-9)
        assert sol.x == pytest.approx([0.0, 1.0], abs=1e-9)

    def test_infeasible(self):
        assert simplex_lp(infeasible_lp()).status == "infeasible"

    def test_unbounded(self):
        lp = StandardFormLP([1.0, 0.0], a_ub=[[0.0, 1.0]], b_ub=[1.0])
        assert simplex_lp(lp).status == "unbounded"

    def test_unconstrained_origin(self):
        assert simplex_lp(StandardFormLP([-1.0, -2.0])).value == 0.0
        assert simplex_lp(StandardFormLP([1.0, 0.0])).status == "unbounded"

    def test_negative_rhs_handled(self):
        # -x1 <= -0.5 forces x1 >= 0.5
        lp = StandardFormLP([-1.0], a_ub=[[-1.0]], b_ub=[-0.5])
        sol = simplex_lp(lp)
        assert sol.status == "optimal"
        assert sol.x[0] == pytest.approx(0.5, abs=1e-9)

    def test_solution_satisfies_reported_invariants(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            lp = random_bounded_lp(rng)
            sol = simplex_lp(lp)
            if sol.status != "optimal":
                continue
            assert np.all(sol.x >= -1e-10)
            if lp.b_eq.size:
                assert np.max(np.abs(lp.a_eq @ sol.x - lp.b_eq)) <= 1e-8
            assert np.max(lp.a_ub @ sol.x - lp.b_ub) <= 1e-8


class TestOracleAgreement:
    def test_examples_match(self):
        for lp in (simplex_vertex_lp(), infeasible_lp()):
            a, b = simplex_lp(lp), vertex_enumeration_oracle(lp)
            assert a.status == b.status
            if a.status == "optimal":
                assert a.value == pytest.approx(b.value, abs=1e-9)

    def test_500_random_instances(self):
        rng = np.random.default_rng(12345)
        statuses = {"optimal": 0, "infeasible": 0}
        for _ in range(500):
            lp = random_bounded_lp(rng)
            got = simplex_lp(lp)
            want = vertex_enumeration_oracle(lp)
            assert got.status == want.status, (lp, got, want)
            statuses[got.status] += 1
            if got.status == "optimal":
                assert got.value == pytest.approx(want.value, abs=1e-7)
        # the generator must actually exercise both outcomes
        assert statuses["optimal"] > 50 and statuses["infeasible"] > 10

    def test_ten_variable_instances(self):
        rng = np.random.default_rng(77)
        for _ in range(40):
            n = 10
            c = rng.normal(size=n).round(3)
            a_ub = np.vstack([rng.normal(size=(3, n)).round(3), np.ones(n)])
            b_ub = np.append(rng.uniform(0.0, 2.0, size=3).round(3), 5.0)
            lp = StandardFormLP(c, a_ub=a_ub, b_ub=b_ub)
            got, want = simplex_lp(lp), vertex_enumeration_oracle(lp)
            assert got.status == want.status
            if got.status == "optimal":
                assert got.value == pytest.approx(want.value, abs=1e-7)


class TestVertexProperties:
    def test_solution_is_a_vertex(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            lp = random_bounded_lp(rng)
            sol = simplex_lp(lp)
            if sol.status != "optimal":
                continue
            positives = int(np.sum(sol.x > 1e-7))
            assert positives <= lp.b_eq.size + lp.b_ub.size

    def test_objective_scaling(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            lp = random_bounded_lp(rng)
            sol = simplex_lp(lp)
            if sol.status != "optimal":
                continue
            k = float(rng.uniform(0.5, 3.0))
            scaled = StandardFormLP(k * lp.objective, lp.a_eq, lp.b_eq, lp.a_ub, lp.b_ub)
            scaled_sol = simplex_lp(scaled)
            assert scaled_sol.value == pytest.approx(k * sol.value, rel=1e-9, abs=1e-9)
            # the original argmax stays on the scaled problem's optimal face
            assert float(scaled.objective @ sol.x) == pytest.approx(
                scaled_sol.value, rel=1e-9, abs=1e-9)


class TestOracleGuards:
    def test_refuses_many_variables(self):
        lp = StandardFormLP(np.ones(16), a_ub=[np.ones(16)], b_ub=[1.0])
        with pytest.raises(ValueError):
            vertex_enumeration_oracle(lp)

    def test_refuses_combinatorial_blowup(self):
        n = 15
        lp = StandardFormLP(np.ones(n), a_ub=np.vstack([np.eye(n), np.ones(n)]),
                            b_ub=np.append(np.ones(n), 5.0))
        with pytest.raises(ValueError):
            vertex_enumeration_oracle(lp)

    def test_empty_feasible_set(self):
        lp = StandardFormLP([1.0], a_eq=[[1.0]], b_eq=[-2.0])
        assert vertex_enumeration_oracle(lp).status == "infeasible"
        assert simplex_lp(lp).status == "infeasible"


class TestFallback:
    def test_unresolvable_trouble_surfaces_as_lp_error(self, monkeypatch):
        # with no iteration budget both the direct solve and the perturbed
        # retry stall, which must surface instead of returning garbage
        monkeypatch.setattr(simplex_oracle, "_MAX_ITERATIONS", 0)
        with pytest.raises(LPError):
            simplex_lp(simplex_vertex_lp())

    def test_perturbed_solution_validated_against_original(self, monkeypatch):
        # force the fallback path and confirm it still returns a vertex that
        # satisfies the untouched problem data
        calls = {"n": 0}
        real = simplex_oracle._simplex_core

        def flaky(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 1:
                raise simplex_oracle._NumericalTrouble("synthetic stall")
            return real(*args, **kwargs)

        monkeypatch.setattr(simplex_oracle, "_simplex_core", flaky)
        lp = simplex_vertex_lp()
        sol = simplex_lp(lp)
        assert sol.status == "optimal"
        assert np.max(np.abs(lp.a_eq @ sol.x - lp.b_eq)) <= 1e-8
        assert sol.value == pytest.approx(2.0, abs=1e-6)


class TestValidation:
    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            StandardFormLP([1.0, 2.0], [[1.0]], [1.0])

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            StandardFormLP([np.nan, 1.0])

    def test_solution_dataclass_defaults(self):
        sol = LPSolution("infeasible")
        assert sol.x is None and sol.value is None


class TestVertexEnumerator:
    """``crsense.lp.solve_lp``: ratio objectives over the simplex."""

    def test_linear_objective(self):
        sol = enumerate_lp([1.0, 2.0], [1.0, 1.0], np.zeros((0, 2)), [])
        assert sol.status == "optimal"
        assert sol.value == 2.0
        assert list(sol.x) == [0.0, 1.0]

    def test_ratio_objective(self):
        # (1, 1) / (1, 3): the first point mass has ratio 1, the second 1/3
        sol = enumerate_lp([1.0, 1.0], [1.0, 3.0], [[0.0, 0.0]], [1.0])
        assert list(sol.x) == [1.0, 0.0] and sol.value == 1.0

    def test_infeasible(self):
        assert enumerate_lp([1.0, 0.0], [1.0, 1.0], [[1.0, 1.0]], [-1.0]).status == "infeasible"

    def test_zero_denominator_excluded(self):
        # the second point mass has a larger numerator but no denominator
        sol = enumerate_lp([1.0, 5.0], [1.0, 0.0], np.zeros((0, 2)), [])
        assert list(sol.x) == [1.0, 0.0]

    def test_ties_go_to_point_masses_then_lexicographic_pairs(self):
        # a @ P == 0.5 as two rows: no point mass is feasible; the pairs
        # (0, 1) and (0, 2) tie at value 0, and (0, 1) with row 0 comes first.
        # The rows are parallel, so every triple's system is singular.
        a = np.array([[0.0, 1.0, 2.0], [0.0, -1.0, -2.0]])
        sol = enumerate_lp(np.zeros(3), np.ones(3), a, [0.5, -0.5])
        assert list(sol.x) == [0.5, 0.5, 0.0]
        # a feasible point mass beats every tied pair
        sol = enumerate_lp(np.zeros(3), np.ones(3), a, [1.0, -0.5])
        assert list(sol.x) == [0.0, 1.0, 0.0]

    def test_three_point_vertex(self):
        # P_1 <= P_2 and P_1 >= 0.25: max P_2 sits on a pair with one active
        # row, max P_3 on a three-point support with both rows active
        a = np.array([[1.0, -1.0, 0.0], [-1.0, 0.0, 0.0]])
        sol = enumerate_lp([0.0, 1.0, 0.0], np.ones(3), a, [0.0, -0.25])
        assert sol.status == "optimal"
        assert sol.x == pytest.approx([0.25, 0.75, 0.0])
        sol = enumerate_lp([0.0, 0.0, 1.0], np.ones(3), a, [0.0, -0.25])
        assert sol.x == pytest.approx([0.25, 0.25, 0.5])

    def test_identical_columns_skipped(self):
        # equal row entries leave every two-point system singular
        a = np.array([[1.0, 1.0, 1.0], [2.0, 2.0, 2.0]])
        sol = enumerate_lp([1.0, 3.0, 2.0], np.ones(3), a, [1.0, 2.0])
        assert list(sol.x) == [0.0, 1.0, 0.0]

    def test_more_than_two_rows_rejected(self):
        with pytest.raises(AssertionError, match="at most 2 side rows"):
            enumerate_lp(np.ones(3), np.ones(3), np.eye(3), np.ones(3))

    def test_matches_lifted_simplex(self):
        rng = np.random.default_rng(21)
        statuses = {"optimal": 0, "infeasible": 0}
        for _ in range(300):
            m = int(rng.integers(1, 9))
            rows = int(rng.integers(0, 3))
            num = rng.uniform(-1.0, 1.0, m).round(3)
            den = rng.uniform(0.05, 1.0, m).round(3)
            a = rng.normal(size=(rows, m)).round(3)
            b = rng.uniform(-0.5, 1.0, rows).round(3)
            got = enumerate_lp(num, den, a, b)
            lifted = fractional_to_lp(FractionalProgram(num, den, a, b))
            want = simplex_lp(lifted.lp)
            assert got.status == want.status
            statuses[got.status] += 1
            if got.status == "optimal":
                assert got.value == pytest.approx(want.value, abs=1e-9)
                p = lifted.recover(want.x)
                assert got.value == pytest.approx(num @ p / (den @ p), abs=1e-9)
        assert statuses["optimal"] > 100 and statuses["infeasible"] > 10

    def test_triple_blocks_cover_every_support_once(self, monkeypatch):
        assert len(list(crsense.lp._triple_supports(10))) == 1
        expected = list(itertools.combinations(range(12), 3))
        blocks = list(crsense.lp._triple_supports(12))
        assert [tuple(t) for block in blocks for t in block] == expected
        rng = np.random.default_rng(5)
        num, den = rng.uniform(0.0, 1.0, 12), rng.uniform(0.1, 1.0, 12)
        a, b = rng.normal(size=(2, 12)), rng.uniform(0.0, 0.5, 2)
        whole = enumerate_lp(num, den, a, b)
        crsense.lp._first_triples.cache_clear()
        monkeypatch.setattr(crsense.lp, "_TRIPLE_BLOCK", 7)
        try:
            blocks = list(crsense.lp._triple_supports(12))
            assert len(blocks) == 32 and max(len(block) for block in blocks) == 7
            assert [tuple(t) for block in blocks for t in block] == expected
            blocked = enumerate_lp(num, den, a, b)
        finally:
            crsense.lp._first_triples.cache_clear()
        assert blocked.value == whole.value
        assert list(blocked.x) == list(whole.x)
