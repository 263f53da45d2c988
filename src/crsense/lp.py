"""Ratio-of-affine programs over the probability simplex, solved by
enumerating the vertices of the feasible polytope.

The policy problems all read

    maximize  (numerator @ P) / (denominator @ P)
    s.t.      a_ub @ P <= b_ub,  sum(P) == 1,  P >= 0

with at most two side rows. A ratio of affine functions is both
quasi-convex and quasi-concave, so its maximum over a polytope sits at a
vertex, and a vertex of this polytope has at most ``rows + 1`` non-zero
entries: each one is fixed by the simplex row plus the side rows active
there. ``solve_lp`` therefore scores every point mass, every two-point
support with one active row (closed form) and every three-point support
with both rows active (a 2x2 system) in one pass over a cached table of
supports. A linear objective is the special case ``denominator = ones``.

One solve gathers the side rows over that table for every candidate's
weights, then the whole program for every candidate's sums, all under one
``np.errstate`` block: a singular system divides by zero and an overflowing
one leaves float range, and either gives NaN or infinite weights, which the
feasibility test rejects. Input is checked before any arithmetic, with
``ValueError`` and never ``assert``: the numerator and denominator are
vectors of one length M, 1 <= M <= ``MAX_DURATIONS``; ``a_ub`` holds one
row of M entries per entry of the vector ``b_ub`` (an empty ``a_ub`` for no
rows), at most two rows; and every entry is finite.

A stack of G programs of one size, each input with a leading axis G, is
checked in the same pass, a bad entry named by its full index, and scored
by the same code in passes of at most ``_STACK_BYTES`` (one program at
least), each pass one more leading axis on every array; each answer is bit
for bit the one its program gets alone. A sweep's drain-regime programs
are solved so, sharing numpy's per-call cost.

The tests hold ``solve_lp`` against ``acceptance.exact_ratio_program``, an
exact oracle in rational arithmetic that enumerates the bases of the
Charnes-Cooper lift and does not use the support bound above.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

CONSTRAINT_TOL = 1e-8        # constraint slack accepted on returned points
# Largest number of entries accepted: one solve scores all C(M, 3)
# three-point supports at once, 14-18 ms with a 27 MB allocation peak at
# M = 100 on a 2-core Xeon, and both grow as M**3. The paper's tables have
# at most ten durations (0.1 ms, 0.04 MB).
MAX_DURATIONS = 100
# Memory budget of one scoring pass over a stack. Scoring holds about 23
# floats per vertex candidate at its peak (the gathered program, the
# weights, the sums and the masks), so at M = 10 with two rows, 220
# candidates per program, a pass holds 12 programs.
_STACK_BYTES = 1 << 19


@dataclass(frozen=True)
class LPSolution:
    status: str                  # "optimal" | "infeasible"
    x: np.ndarray | None = None
    value: float | None = None


@functools.lru_cache(maxsize=32)
def _supports(m: int, rows: int) -> np.ndarray:
    """Every vertex candidate's support, in tie order: the point masses, then
    with a side row the pairs i < j once per row in (i, j, row) order, then
    with two rows the triples i < j < k in lexicographic order. Each is
    padded to three entries with index ``m``, which reads a zero column.
    Read-only, as every call shares it, and in the smallest integer dtype.
    The table is the transpose of a C-ordered ``(3, candidates)`` array, so
    the gathers read each support position as one contiguous row."""
    dtype = np.min_scalar_type(m)
    points = np.column_stack([np.arange(m), np.full((m, 2), m)])
    pairs = np.repeat(np.column_stack(np.triu_indices(m, 1)), rows, axis=0)
    pairs = np.column_stack([pairs, np.full(len(pairs), m)])
    combos = itertools.combinations(range(m), 3) if rows == 2 else ()
    triples = np.fromiter(itertools.chain.from_iterable(combos), dtype).reshape(-1, 3)
    support = np.concatenate([points, pairs, triples]).T.astype(dtype, order="C")
    support.setflags(write=False)
    return support.T


def _program(numerator, denominator, a_ub, b_ub) -> np.ndarray:
    """The whole program in one ``(rows + 2, M + 2)`` array, so that one
    test finds any non-finite entry: the numerator, the denominator and the
    side rows over the M entries, then the zero column that the support
    padding reads, then the right-hand sides (zero on the two objective
    rows). A stack of G programs, each input with a leading axis G, gives a
    ``(G, rows + 2, M + 2)`` array. Malformed or non-finite input raises
    ``ValueError``, a non-finite entry named by its full index."""
    try:
        num, den, a, b = (np.asarray(v, dtype=float)
                          for v in (numerator, denominator, a_ub, b_ub))
    except ValueError as err:       # a ragged row, or an entry that is not a number
        raise ValueError(f"program shapes disagree or an entry is not a number: {err}") from err
    lead, m = num.shape[:-1], num.shape[-1] if num.ndim else 1
    if m > MAX_DURATIONS:
        raise ValueError(
            f"{m} durations exceed the bound of {MAX_DURATIONS}: the "
            f"optimizer scores all C(M, 3) = {math.comb(m, 3)} "
            f"three-point policies, which grows as M**3")
    if m == 0:
        raise ValueError("a program needs at least one entry; the numerator is empty")
    rows = b.shape[-1] if b.ndim == num.ndim else -1
    if num.ndim not in (1, 2) or den.shape != num.shape or b.shape[:-1] != lead or (
            a.shape != (*lead, rows, m) and not (rows == 0 and a.size == 0)):
        raise ValueError(
            f"program shapes disagree: numerator {num.shape} and denominator "
            f"{den.shape} need one common length M, a_ub {a.shape} needs one "
            f"row of M entries per entry of b_ub {b.shape}"
            + (", over one leading axis G for a stack" if lead else ""))
    # a vertex has at most rows + 1 non-zero entries; a third row would need
    # four-point supports, which are not enumerated
    if rows > 2:
        raise ValueError(f"support enumeration covers at most 2 side rows, got {rows}")
    program = np.zeros((*lead, rows + 2, m + 2))
    program[..., 0, :m] = num
    program[..., 1, :m] = den
    if rows:
        program[..., 2:, :m] = a
        program[..., 2:, m + 1] = b
    if not np.isfinite(program).all():
        for name, values in (("numerator", num), ("denominator", den),
                             ("a_ub", a), ("b_ub", b)):
            bad = np.argwhere(~np.isfinite(values))
            if bad.size:
                raise ValueError(f"{name}{bad[0].tolist()} = {values[tuple(bad[0])]} is not finite")
    return program


def _weights(side: np.ndarray, b: np.ndarray, m: int) -> np.ndarray:
    """Each candidate's weights on its support, zero on the padding, as a
    ``(..., 3, candidates)`` array. ``side[..., r, s, c]`` holds side row
    ``r`` at the ``s``-th entry of candidate ``c``'s support, and
    ``b[..., r]`` its right-hand side; the leading axis, if any, is a stack.

    Run under ``np.errstate``: a singular system fixes no point, and its
    division by zero gives NaN or infinite weights, as a near-singular one
    can by overflow; a weight that is NaN or infinite fails every
    feasibility test. For one program every operation reads
    one-dimensional views, which numpy runs far faster than broadcast ones
    at these sizes."""
    *lead, rows, _, count = side.shape
    pairs = rows * m * (m - 1) // 2
    weights = np.zeros((*lead, 3, count))
    weights[..., 0, :m] = 1.0
    for r in range(rows):
        active = slice(m + r, m + pairs, rows)      # the pairs with row r active
        near, far = side[..., r, 0, active], side[..., r, 1, active]
        t = np.divide(b[..., r, None] - far, near - far, out=weights[..., 0, active])
        np.subtract(1.0, t, out=weights[..., 1, active])
    if rows == 2:
        # eliminate the third entry through sum(P) == 1, then Cramer's rule
        triples = slice(m + pairs, None)
        (i0, j0, k0), (i1, j1, k1) = ([side[..., r, s, triples] for s in range(3)]
                                      for r in range(2))
        x0, y0, rhs0 = i0 - k0, j0 - k0, b[..., 0, None] - k0
        x1, y1, rhs1 = i1 - k1, j1 - k1, b[..., 1, None] - k1
        det = x0 * y1 - y0 * x1
        p = np.divide(rhs0 * y1 - y0 * rhs1, det, out=weights[..., 0, triples])
        q = np.divide(x0 * rhs1 - rhs0 * x1, det, out=weights[..., 1, triples])
        third = np.subtract(1.0, p, out=weights[..., 2, triples])
        third -= q
    return weights


def _pick(ratio: np.ndarray, feasible: np.ndarray, weights: np.ndarray,
          support: np.ndarray, m: int) -> LPSolution:
    """One program's answer from its scored candidates: the first maximum
    of the ratio, or the first feasible candidate if every feasible ratio
    is -inf."""
    k = int(ratio.argmax())                           # first occurrence of the max
    if ratio[k] == -math.inf:                         # infeasible candidates read -inf too
        k = int(feasible.argmax())
        if not feasible[k]:
            return LPSolution("infeasible")
    x = np.zeros(m + 1)
    x[support[k]] = weights[:, k]
    return LPSolution("optimal", x[:m], float(ratio[k]))


def _score(program: np.ndarray, support: np.ndarray) -> tuple[np.ndarray, ...]:
    """Every vertex candidate's ratio (-inf where infeasible), feasibility
    and weights, over the support table, for one program or along the
    leading axis of a stack."""
    rows, m = program.shape[-2] - 2, program.shape[-1] - 2
    # The side rows gathered over every support give the weights. The whole
    # program gathered next gives every candidate's sums, as the padding
    # reads column m, which is zero. Laid out (..., rows + 2, 3, candidates),
    # that gather has einsum add each sum's three terms left to right, the
    # order the golden CSVs pin. A stack is gathered and scored at once,
    # along its leading axis; the gathers are freed once used, which bounds
    # the peak at M = MAX_DURATIONS.
    b = program[..., 2:, m + 1]
    with np.errstate(all="ignore"):
        weights = _weights(program[..., 2:, :].take(support.T, axis=-1), b, m)
        values = np.einsum("...nsc,...sc->...nc", program.take(support.T, axis=-1), weights)
        num, den = values[..., 0, :], values[..., 1, :]
        slack = CONSTRAINT_TOL * den
        # each candidate's worst violation: its most negative weight, or its
        # largest excess over a side row; a NaN anywhere reads as NaN
        worst = -np.minimum(np.minimum(weights[..., 0, :], weights[..., 1, :]),
                            weights[..., 2, :])
        for r in range(rows):
            worst = np.maximum(worst, values[..., 2 + r, :] - b[..., r, None])
        feasible = (slack > 0.0) & (worst <= slack)
        ratio = np.where(feasible, num / den, -math.inf)
    return ratio, feasible, weights


def solve_lp(numerator, denominator, a_ub, b_ub) -> LPSolution | list[LPSolution]:
    """Maximize ``(numerator @ P) / (denominator @ P)`` over the probability
    simplex subject to ``a_ub @ P <= b_ub`` (at most two rows).

    A candidate is kept when it meets every constraint, ``P >= 0`` and
    ``a_ub @ P <= b_ub``, to a slack of ``CONSTRAINT_TOL`` per unit of the
    denominator, and that slack is positive. Rows that were multiplied
    through by the denominator to make them affine are so held to the
    tolerance in their own units; a fixed slack would accept any violation,
    and let negative entries cancel the denominator, once the denominator
    is tiny. A denominator so small that its slack underflows to zero
    (below about 5e-316) is rejected, as the rows' products underflow with
    it. With ``denominator = ones`` the scaling is the identity.

    Ties are broken by a fixed order: the first candidate attaining the
    maximum wins, with point masses by index first, then two-point supports
    in lexicographic (i, j, row) order, then three-point supports in
    lexicographic (i, j, k) order. A ratio past float range, from a tiny
    denominator, reads as +inf or -inf under that order, without a warning;
    if every feasible ratio is -inf, the first feasible candidate wins with
    value -inf. The status is "infeasible" only when no candidate is
    feasible, and "optimal" otherwise. Input that breaks the rules of the
    module docstring (shapes that disagree, no entries or more than
    ``MAX_DURATIONS``, more than two side rows, a non-finite entry) raises
    ``ValueError``.

    A stack of G programs of one size (numerator and denominator of shape
    ``(G, M)``, ``a_ub`` of shape ``(G, rows, M)``, ``b_ub`` of shape
    ``(G, rows)``) gives a list of G solutions, each bit for bit the one its
    program gets alone, whatever G is: memory is bounded by scoring the
    stack in passes. It is checked in the same pass as a lone program: a
    non-finite entry is named by its full index (``numerator[2, 1] = nan``).
    """
    program = _program(numerator, denominator, a_ub, b_ub)
    m = program.shape[-1] - 2
    support = _supports(m, program.shape[-2] - 2)
    stack = program if program.ndim == 3 else program[None]
    size = max(1, _STACK_BYTES // (23 * 8 * len(support)))     # programs per pass
    answers = []
    for start in range(0, len(stack), size):
        part = stack[start:start + size]
        # a pass of one is scored on one-dimensional views: same bits, faster
        scored = [_score(part[0], support)] if len(part) == 1 else zip(*_score(part, support))
        answers += [_pick(*one, support, m) for one in scored]
        del scored              # freed before the next pass is scored
    return answers if program.ndim == 3 else answers[0]
