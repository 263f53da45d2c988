import itertools
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import crsense.lp
from crsense.acceptance import exact_ratio_program
from crsense.lp import LPSolution
from crsense.lp import solve_lp as enumerate_lp


def solve_checked(num, den, a, b):
    """``solve_lp``'s answer, after checking its status and value (to
    1e-12) against the exact oracle."""
    sol = enumerate_lp(num, den, a, b)
    exact = exact_ratio_program(num, den, np.reshape(a, (-1, len(num))), b)
    assert sol.status == ("infeasible" if exact is None else "optimal")
    if exact is not None:
        assert abs(Fraction(sol.value) - exact) <= 1e-12
    return sol


class TestSolveExamples:
    """Hand-made programs whose exact optima are known, for the exact oracle
    and ``solve_lp`` alike."""

    def test_simplex_vertex(self):
        # max x1 + 2 x2 over the simplex -> (0, 1), value 2
        assert exact_ratio_program([1.0, 2.0], [1.0, 1.0], np.zeros((0, 2)), []) == 2
        # the ratio (x1 + x2) / (3 x1 + x2) peaks at the second point mass
        assert exact_ratio_program([1.0, 1.0], [3.0, 1.0], [[0.0, 0.0]], [1.0]) == 1
        sol = solve_checked([0.1, 0.2, 0.3], [0.2, 0.7, 0.9], np.zeros((0, 3)), [])
        assert list(sol.x) == [1.0, 0.0, 0.0]

    def test_infeasible(self):
        # x1 <= -1 excludes the whole simplex
        assert exact_ratio_program([1.0, 0.0], [1.0, 1.0], [[1.0, 0.0]], [-1.0]) is None
        # x1 <= 0.2 and x1 >= 0.5 each admit points, but not together
        a = [[1.0, 0.0], [-1.0, 0.0]]
        assert solve_checked([1.0, 0.0], [1.0, 1.0], a, [0.2, -0.5]).status == "infeasible"

    def test_negative_rhs_handled(self):
        # -x1 <= -0.5 forces x1 >= 0.5, so max -x1 is exactly -1/2
        value = exact_ratio_program([-1.0, 0.0], [1.0, 1.0], [[-1.0, 0.0]], [-0.5])
        assert value == Fraction(-1, 2)
        sol = solve_checked([-1.0, 0.0], [1.0, 1.0], [[-1.0, 0.0]], [-0.5])
        assert sol.x == pytest.approx([0.5, 0.5])


class TestOracleGuards:
    def test_empty_feasible_set(self):
        # one duration whose point mass breaks the row, and three durations
        # where P_1 >= 0.6 and P_2 >= 0.6 cannot both hold
        assert exact_ratio_program([1.0], [1.0], [[1.0]], [0.5]) is None
        a = [[-1.0, 0.0, 0.0], [0.0, -1.0, 0.0]]
        assert exact_ratio_program(np.ones(3), np.ones(3), a, [-0.6, -0.6]) is None
        assert enumerate_lp(np.ones(3), np.ones(3), a, [-0.6, -0.6]).status == "infeasible"


class TestValidation:
    def test_dimension_mismatch_rejected(self):
        no_rows = np.zeros((0, 2))
        with pytest.raises(ValueError, match="shapes disagree"):
            exact_ratio_program([1.0, 2.0], [1.0], no_rows, [])
        with pytest.raises(ValueError, match="shapes disagree"):
            exact_ratio_program([1.0, 2.0], [1.0, 1.0], [[1.0]], [1.0])
        with pytest.raises(ValueError, match="shapes disagree"):
            exact_ratio_program([1.0, 2.0], [1.0, 1.0], [[1.0, 1.0]], [1.0, 2.0])
        # solve_lp names the same mismatches, not a numpy error from inside
        for program in ([[1.0, 2.0], [1.0], no_rows, []],                    # short denominator
                        [[1.0, 2.0], [1.0, 1.0], [[1.0]], [1.0]],            # short row
                        [[1.0, 2.0], [1.0, 1.0], [1.0, 1.0], [1.0]],         # row not 2-D
                        [[1.0, 2.0], [1.0, 1.0], [[1.0, 1.0]], [1.0, 2.0]],  # long b_ub
                        [np.ones(3), np.ones(3), np.ones((3, 3)), np.ones(6)],  # long b_ub
                        [[[1.0, 2.0]], [1.0, 1.0], no_rows, []],             # 2-D numerator
                        [[1.0, 2.0], [1.0, 1.0], [[1.0, 1.0]], [[1.0]]],     # 2-D b_ub
                        [[1.0, 2.0], [1.0, 1.0], [[1.0], [1.0, 2.0]], [1.0, 2.0]]):  # ragged
            with pytest.raises(ValueError, match="shapes disagree"):
                enumerate_lp(*program)
        with pytest.raises(ValueError, match="at least one entry"):
            enumerate_lp([], [], np.zeros((0, 0)), [])

    def test_nonfinite_rejected(self):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="not finite"):
                exact_ratio_program([bad, 1.0], [1.0, 1.0], np.zeros((0, 2)), [])
            with pytest.raises(ValueError, match="not finite"):
                exact_ratio_program([1.0, 1.0], [1.0, 1.0], [[1.0, bad]], [1.0])
            # zero padding weights would turn an infinite entry into NaN
            for k, (name, at) in enumerate([("numerator", "[1]"), ("denominator", "[1]"),
                                            ("a_ub", "[0, 1]"), ("b_ub", "[0]")]):
                program = [np.array(v) for v in ([1.0, 1.0], [1.0, 1.0], [[1.0, 1.0]], [1.0])]
                program[k].flat[-1] = bad
                with pytest.raises(ValueError, match=re.escape(f"{name}{at} = {bad} is not")):
                    enumerate_lp(*program)

    def test_solution_dataclass_defaults(self):
        sol = LPSolution("infeasible")
        assert sol.x is None and sol.value is None


class TestVertexEnumerator:
    """``crsense.lp.solve_lp``: ratio objectives over the simplex."""

    def test_linear_objective(self):
        sol = solve_checked([1.0, 2.0], [1.0, 1.0], np.zeros((0, 2)), [])
        assert sol.status == "optimal"
        assert sol.value == 2.0
        assert list(sol.x) == [0.0, 1.0]

    def test_ratio_objective(self):
        # (1, 1) / (1, 3): the first point mass has ratio 1, the second 1/3
        sol = solve_checked([1.0, 1.0], [1.0, 3.0], [[0.0, 0.0]], [1.0])
        assert list(sol.x) == [1.0, 0.0] and sol.value == 1.0

    def test_infeasible(self):
        assert solve_checked([1.0, 0.0], [1.0, 1.0], [[1.0, 1.0]], [-1.0]).status == "infeasible"

    def test_zero_denominator_excluded(self):
        # the second point mass has a larger numerator but no denominator;
        # the ratio is unbounded towards it, so the exact oracle, which needs
        # a positive denominator, does not apply
        sol = enumerate_lp([1.0, 5.0], [1.0, 0.0], np.zeros((0, 2)), [])
        assert list(sol.x) == [1.0, 0.0]

    def test_overflowing_ratios_stay_feasible(self):
        # a denominator of 1e-310 puts every ratio past float range; the
        # point masses still meet every constraint, so the program is
        # feasible and the tie order picks among the infinite values
        no_rows = np.zeros((0, 2))
        sol = enumerate_lp([-1.0, -2.0], [1e-310, 1e-310], no_rows, [])
        assert sol.status == "optimal"
        assert list(sol.x) == [1.0, 0.0] and sol.value == -np.inf
        sol = enumerate_lp([1.0, 2.0], [1e-310, 1e-310], no_rows, [])
        assert sol.status == "optimal"
        assert list(sol.x) == [1.0, 0.0] and sol.value == np.inf
        # an infeasible first point mass also reads -inf: the first feasible
        # candidate wins, not the first -inf
        sol = enumerate_lp([-1.0, -2.0], [1e-310, 1e-310], [[1.0, 0.0]], [0.5])
        assert sol.status == "optimal"
        assert list(sol.x) == [0.0, 1.0] and sol.value == -np.inf

    def test_ties_go_to_point_masses_then_lexicographic_pairs(self):
        # a @ P == 0.5 as two rows: no point mass is feasible; the pairs
        # (0, 1) and (0, 2) tie at value 0, and (0, 1) with row 0 comes first.
        # The rows are parallel, so every triple's system is singular.
        a = np.array([[0.0, 1.0, 2.0], [0.0, -1.0, -2.0]])
        sol = solve_checked(np.zeros(3), np.ones(3), a, [0.5, -0.5])
        assert list(sol.x) == [0.5, 0.5, 0.0]
        # a feasible point mass beats every tied pair
        sol = solve_checked(np.zeros(3), np.ones(3), a, [1.0, -0.5])
        assert list(sol.x) == [0.0, 1.0, 0.0]

    def test_three_point_vertex(self):
        # P_1 <= P_2 and P_1 >= 0.25: max P_2 sits on a pair with one active
        # row, max P_3 on a three-point support with both rows active
        a = np.array([[1.0, -1.0, 0.0], [-1.0, 0.0, 0.0]])
        sol = solve_checked([0.0, 1.0, 0.0], np.ones(3), a, [0.0, -0.25])
        assert sol.status == "optimal"
        assert sol.x == pytest.approx([0.25, 0.75, 0.0])
        sol = solve_checked([0.0, 0.0, 1.0], np.ones(3), a, [0.0, -0.25])
        assert sol.x == pytest.approx([0.25, 0.25, 0.5])

    def test_identical_columns_skipped(self):
        # equal row entries leave every two-point system singular
        a = np.array([[1.0, 1.0, 1.0], [2.0, 2.0, 2.0]])
        sol = solve_checked([1.0, 3.0, 2.0], np.ones(3), a, [1.0, 2.0])
        assert list(sol.x) == [0.0, 1.0, 0.0]

    def test_more_than_two_rows_rejected(self):
        with pytest.raises(ValueError, match="at most 2 side rows"):
            enumerate_lp(np.ones(3), np.ones(3), np.eye(3), np.ones(3))

    def test_matches_exact_oracle(self):
        rng = np.random.default_rng(21)
        statuses = {"optimal": 0, "infeasible": 0}
        for _ in range(300):
            m = int(rng.integers(1, 9))
            rows = int(rng.integers(0, 3))
            num = rng.uniform(-1.0, 1.0, m).round(3)
            den = rng.uniform(0.05, 1.0, m).round(3)
            a = rng.normal(size=(rows, m)).round(3)
            b = rng.uniform(-0.5, 1.0, rows).round(3)
            got = solve_checked(num, den, a, b)
            statuses[got.status] += 1
            if got.status == "optimal":
                assert got.value == pytest.approx(num @ got.x / (den @ got.x), abs=1e-9)
        assert statuses["optimal"] > 100 and statuses["infeasible"] > 10

    def test_support_table_lists_every_candidate_once_in_tie_order(self):
        for m in range(1, 13):
            for rows in range(3):
                expected = [(i, m, m) for i in range(m)]
                expected += [(i, j, m) for i, j in itertools.combinations(range(m), 2)
                             for _ in range(rows)]
                if rows == 2:
                    expected += list(itertools.combinations(range(m), 3))
                support = crsense.lp._supports(m, rows)
                assert [tuple(s) for s in support.tolist()] == expected
                assert not support.flags.writeable


def random_program(rng, m, rows):
    """A program of M entries and ``rows`` side rows, often with ties, an
    infeasible row, repeated columns or a 1e-310 denominator."""
    num = rng.uniform(-1.0, 1.0, m)
    den = rng.uniform(0.05, 1.0, m)
    a = rng.normal(size=(rows, m))
    b = rng.uniform(-0.5, 1.0, rows)
    kind = rng.integers(5)
    if kind == 0:                                   # ties
        num, den, a, b = num.round(1), den.round(1), a.round(1), b.round(1)
    elif kind == 1:                                 # repeated columns
        pick = rng.integers(0, m, m)
        num, den, a = num[pick], den[pick], a[:, pick]
    elif kind == 2:                                 # ratios past float range
        den = den * 1e-310
    elif kind == 3 and rows:                        # often infeasible
        b = b - 2.0
    return num, den, a, b


def same_solution(one, other):
    """Equal status, and equal bytes of ``x`` and ``value``."""
    def raw(solution):
        return (solution.status, None if solution.x is None else solution.x.tobytes(),
                None if solution.value is None else np.float64(solution.value).tobytes())
    return raw(one) == raw(other)


def pass_size(m, rows):
    """Programs per scoring pass: the budget over 23 floats per candidate."""
    return max(1, crsense.lp._STACK_BYTES // (23 * 8 * len(crsense.lp._supports(m, rows))))


def stack_of(programs):
    return [np.array(part) for part in zip(*programs)]


@pytest.fixture
def score_passes(monkeypatch):
    """The leading shape of each scoring pass ``solve_lp`` makes, in order:
    ``(G,)`` for a pass of G programs, ``()`` for a one-program pass."""
    passes, real = [], crsense.lp._score

    def recording(program, support):
        passes.append(program.shape[:-2])
        return real(program, support)

    monkeypatch.setattr(crsense.lp, "_score", recording)
    return passes


class TestStack:
    """A stack of programs with a leading axis G: each answer must be bit
    for bit the one its program gets alone."""

    def test_stack_matches_single_solves(self):
        rng = np.random.default_rng(19)
        statuses = {"optimal": 0, "infeasible": 0}
        for m in range(1, 11):
            for rows in range(3):
                for size in (1, 2, 7, 23):
                    programs = [random_program(rng, m, rows) for _ in range(size)]
                    stacked = enumerate_lp(*(np.array(part) for part in zip(*programs)))
                    assert isinstance(stacked, list) and len(stacked) == size
                    for program, got in zip(programs, stacked):
                        assert same_solution(got, enumerate_lp(*program)), program
                        statuses[got.status] += 1
        assert statuses["optimal"] > 500 and statuses["infeasible"] > 100

    @pytest.mark.parametrize("m", [2, 5, 10])
    @pytest.mark.parametrize("rows", [0, 1, 2])
    def test_stacks_across_pass_boundaries_match_single_solves(self, m, rows, score_passes):
        rng = np.random.default_rng(20 + 3 * m + rows)
        size = pass_size(m, rows)
        programs = [random_program(rng, m, rows) for _ in range(2 * size + 1)]
        alone = [enumerate_lp(*program) for program in programs]
        statuses = {solution.status for solution in alone}
        assert "optimal" in statuses and (rows == 0 or "infeasible" in statuses)
        for count in (size - 1, size, size + 1, 2 * size + 1):
            score_passes.clear()
            stacked = enumerate_lp(*stack_of(programs[:count]))
            assert len(stacked) == count
            for k, (got, want) in enumerate(zip(stacked, alone)):
                assert same_solution(got, want), (count, k, programs[k])
            # full passes, then the rest; a rest of one reads one-dimensional views
            full, rest = divmod(count, size)
            assert score_passes == [(size,)] * full + [(rest,) if rest > 1 else ()] * (rest > 0)

    def test_pass_size_within_budget(self, score_passes):
        # a lone program is a one-program pass
        rng = np.random.default_rng(12)
        assert isinstance(enumerate_lp(*random_program(rng, 10, 2)), LPSolution)
        assert score_passes == [()]
        # 220 candidates at M = 10 with two rows: 12 programs per pass
        score_passes.clear()
        enumerate_lp(*stack_of(random_program(rng, 10, 2) for _ in range(25)))
        assert score_passes == [(12,), (12,), ()]
        score_passes.clear()
        enumerate_lp(*stack_of(random_program(rng, 2, 2) for _ in range(713)))
        assert score_passes == [(712,), ()]
        # one program's candidates fill the budget at the bound
        score_passes.clear()
        m = crsense.lp.MAX_DURATIONS
        enumerate_lp(*stack_of(random_program(rng, m, 2) for _ in range(2)))
        assert score_passes == [(), ()]

    def test_empty_stack(self):
        assert enumerate_lp(np.zeros((0, 3)), np.zeros((0, 3)), np.zeros((0, 2, 3)),
                            np.zeros((0, 2))) == []

    @pytest.mark.parametrize("name, index", [("numerator", (2, 1)), ("denominator", (2, 0)),
                                             ("a_ub", (2, 0, 1)), ("b_ub", (2, 0))])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_program_named(self, name, index, bad):
        # the full index, program first, as the whole stack is checked in one pass
        program = dict(numerator=np.ones((4, 2)), denominator=np.ones((4, 2)),
                       a_ub=np.ones((4, 1, 2)), b_ub=np.ones((4, 1)))
        program[name][index] = bad
        with pytest.raises(ValueError, match=re.escape(
                f"{name}{list(index)} = {bad} is not finite")):
            enumerate_lp(**program)

    def test_malformed_program_named(self):
        rows = [[[1.0, 1.0]], [[1.0, 1.0]], [[1.0]], [[1.0, 1.0]]]          # a short row
        with pytest.raises(ValueError, match="^program shapes disagree"):
            enumerate_lp(np.ones((4, 2)), np.ones((4, 2)), rows, np.ones((4, 1)))
        # stacks of unequal length are named by their shapes
        with pytest.raises(ValueError, match="shapes disagree.*leading axis G"):
            enumerate_lp(np.ones((4, 2)), np.ones((3, 2)), np.ones((4, 1, 2)), np.ones((4, 1)))


class TestMemory:
    def test_solve_at_the_bound_peaks_within_32_mb(self):
        """One solve at M = MAX_DURATIONS scores all C(M, 3) three-point
        supports at once; its allocation peak, with the support table built
        inside the measurement, stays within 32 MB."""
        m = crsense.lp.MAX_DURATIONS
        rng = np.random.default_rng(8)
        program = (rng.uniform(0.0, 1.0, m), rng.uniform(0.1, 1.0, m),
                   rng.normal(size=(2, m)), rng.uniform(0.0, 0.5, 2))
        crsense.lp._supports.cache_clear()
        tracemalloc.start()
        try:
            sol = enumerate_lp(*program)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sol.status == "optimal"
        assert peak <= 32e6, peak

    @pytest.mark.parametrize("g, m", [(2000, 10), (40, 60)])
    def test_large_stack_peaks_within_pass_budget(self, g, m):
        """A stack of any length is scored in passes: its peak is one pass,
        the budget or one program's candidates, plus a small multiple of
        the stack's input (its program array and its answers)."""
        rng = np.random.default_rng(g)
        stack = stack_of(random_program(rng, m, 2) for _ in range(g))
        enumerate_lp(*(part[:1] for part in stack))         # build the support table
        tracemalloc.start()
        try:
            solutions = enumerate_lp(*stack)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(solutions) == g
        one_pass = max(crsense.lp._STACK_BYTES, 23 * 8 * len(crsense.lp._supports(m, 2)))
        assert peak <= one_pass + 4 * sum(part.nbytes for part in stack), peak

    @pytest.mark.parametrize("m, rows", [(2, 0), (2, 1), (2, 2), (5, 0), (5, 1), (5, 2),
                                         (10, 0), (10, 1), (10, 2), (60, 1), (100, 2)])
    def test_scoring_pass_within_23_floats_per_candidate(self, m, rows):
        support = crsense.lp._supports(m, rows)
        size = pass_size(m, rows)
        rng = np.random.default_rng(m + rows)
        program = crsense.lp._program(*stack_of(random_program(rng, m, rows)
                                                for _ in range(size)))
        tracemalloc.start()
        try:
            crsense.lp._score(program if size > 1 else program[0], support)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 23 * 8 * len(support) * size, peak / (8 * len(support) * size)

    def test_support_cache_within_20_mb(self):
        # the largest tables the cache can hold at once: every M up to the
        # bound solved at one and two side rows
        slots = crsense.lp._supports.cache_info().maxsize
        largest = [(m, rows) for m in range(crsense.lp.MAX_DURATIONS, 0, -1)
                   for rows in (2, 1)][:slots]
        assert sum(crsense.lp._supports(m, rows).nbytes for m, rows in largest) <= 20e6
