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
# three-point supports at once, 35-37 ms with a 27 MB allocation peak at
# M = 100 on a 2-core Xeon, and both grow as M**3. The paper's tables have
# at most ten durations (0.1 ms, 0.04 MB).
MAX_DURATIONS = 100


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
    Read-only, as every call shares it, and in the smallest integer dtype."""
    dtype = np.min_scalar_type(m)
    points = np.column_stack([np.arange(m), np.full((m, 2), m)])
    pairs = np.repeat(np.column_stack(np.triu_indices(m, 1)), rows, axis=0)
    pairs = np.column_stack([pairs, np.full(len(pairs), m)])
    combos = itertools.combinations(range(m), 3) if rows == 2 else ()
    triples = np.fromiter(itertools.chain.from_iterable(combos), dtype).reshape(-1, 3)
    support = np.concatenate([points, pairs, triples]).astype(dtype)
    support.setflags(write=False)
    return support


def _solve_or_nan(top: np.ndarray, det: np.ndarray) -> np.ndarray:
    # a singular system fixes no point: NaN fails every feasibility test, as
    # does the infinity a near-singular one can overflow to
    with np.errstate(over="ignore"):
        return np.divide(top, det, out=np.full_like(top, np.nan), where=det != 0.0)


def _weights(a: np.ndarray, b: np.ndarray, support: np.ndarray) -> np.ndarray:
    """Each candidate's weights on its support, zero on the padding."""
    rows, m = a.shape
    pairs = rows * m * (m - 1) // 2
    weights = np.zeros(support.shape)
    weights[:m, 0] = 1.0
    if rows:
        i, j = support[m:m + pairs:rows, :2].T
        far = a[:, j].T                               # (pairs, rows)
        t = _solve_or_nan(b - far, a[:, i].T - far).ravel()
        weights[m:m + pairs, :2] = np.column_stack([t, 1.0 - t])
    if rows == 2:
        # eliminate the third entry through sum(P) == 1, then Cramer's rule
        triples = support[m + pairs:]
        last = a[:, triples[:, 2]]
        x = a[:, triples[:, 0]] - last
        y = a[:, triples[:, 1]] - last
        rhs = b[:, None] - last
        det = x[0] * y[1] - y[0] * x[1]
        p = _solve_or_nan(rhs[0] * y[1] - y[0] * rhs[1], det)
        q = _solve_or_nan(x[0] * rhs[1] - rhs[0] * x[1], det)
        weights[m + pairs:] = np.column_stack([p, q, 1.0 - p - q])
    return weights


def solve_lp(numerator, denominator, a_ub, b_ub) -> LPSolution:
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
    feasible, and "optimal" otherwise. More than ``MAX_DURATIONS`` entries,
    or a non-finite entry, raise ``ValueError``.
    """
    numerator = np.asarray(numerator, dtype=float)
    m = numerator.size
    if m > MAX_DURATIONS:
        raise ValueError(
            f"{m} durations exceed the bound of {MAX_DURATIONS}: the "
            f"optimizer scores all C(M, 3) = {math.comb(m, 3)} "
            f"three-point policies, which grows as M**3")
    a = np.asarray(a_ub, dtype=float).reshape(-1, m)
    b = np.asarray(b_ub, dtype=float).reshape(-1)
    # a vertex has at most rows + 1 non-zero entries; a third row would need
    # four-point supports, which are not enumerated
    assert a.shape[0] <= 2, f"support enumeration covers at most 2 side rows, got {a.shape[0]}"
    coef = np.vstack([numerator, denominator, a])
    for name, values in (("numerator", numerator), ("denominator", coef[1]),
                         ("a_ub", a), ("b_ub", b)):
        if not np.isfinite(values).all():
            bad = np.argwhere(~np.isfinite(values))[0]
            raise ValueError(f"{name}{bad.tolist()} = {values[tuple(bad)]} is not finite")
    # column m is the zero column the padding reads: each candidate's sums
    # are those over its own support, and x keeps its own entries only
    coef = np.column_stack([coef, np.zeros(len(coef))])

    support = _supports(m, a.shape[0])
    weights = _weights(a, b, support)
    values = np.einsum("cns,ns->cn", coef[:, support], weights)
    num, den = values[0], values[1]
    slack = CONSTRAINT_TOL * den
    feasible = ((slack > 0.0) & (weights >= -slack[:, None]).all(axis=1)
                & (values[2:] - b[:, None] <= slack).all(axis=0))
    with np.errstate(over="ignore"):
        ratio = np.divide(num, den, out=np.full_like(num, -math.inf), where=feasible)
    k = int(np.argmax(ratio))                         # first occurrence of the max
    if ratio[k] == -math.inf:                         # infeasible candidates read -inf too
        k = int(np.argmax(feasible))
        if not feasible[k]:
            return LPSolution("infeasible")
    x = np.zeros(m + 1)
    x[support[k]] = weights[k]
    return LPSolution("optimal", x[:m], float(ratio[k]))
