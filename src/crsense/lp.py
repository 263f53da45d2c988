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
with both rows active (a 2x2 system), each evaluated on its support only.
A linear objective is the special case ``denominator = ones``.

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
_TRIPLE_BLOCK = 4096         # three-point supports scored per block
# Largest number of entries accepted: the C(M, 3) three-point supports cost
# about 135 ms at M = 100 and grow as M**3 (4.4 s at M = 200). The paper's
# tables have at most ten durations.
MAX_DURATIONS = 100


@dataclass(frozen=True)
class LPSolution:
    status: str                  # "optimal" | "infeasible"
    x: np.ndarray | None = None
    value: float | None = None


def _read_only(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)                       # cached: shared by every call
    return array


@functools.lru_cache(maxsize=32)
def _pair_supports(m: int, rows: int) -> np.ndarray:
    """Index pairs i < j, each repeated once per side row: (i, j, row) order."""
    return _read_only(np.repeat(np.column_stack(np.triu_indices(m, 1)), rows, axis=0))


def _index_block(combos) -> np.ndarray:
    flat = itertools.chain.from_iterable(itertools.islice(combos, _TRIPLE_BLOCK))
    return np.fromiter(flat, dtype=np.intp).reshape(-1, 3)


@functools.lru_cache(maxsize=32)
def _first_triples(m: int) -> np.ndarray:
    return _read_only(_index_block(itertools.combinations(range(m), 3)))


def _triple_supports(m: int):
    """Index triples i < j < k in lexicographic order, in blocks of at most
    ``_TRIPLE_BLOCK``; the first block is cached, so up to M = 30 every
    call reuses one array."""
    yield _first_triples(m)
    rest = itertools.islice(itertools.combinations(range(m), 3), _TRIPLE_BLOCK, None)
    while (block := _index_block(rest)).size:
        yield block


def _solve_or_nan(top: np.ndarray, det: np.ndarray) -> np.ndarray:
    # a singular system fixes no point: NaN fails every feasibility test, as
    # does the infinity a near-singular one can overflow to
    with np.errstate(over="ignore"):
        return np.divide(top, det, out=np.full_like(top, np.nan), where=det != 0.0)


def _candidates(a: np.ndarray, b: np.ndarray):
    """(support, weights) blocks of every vertex candidate, in tie order."""
    rows, m = a.shape
    yield np.arange(m)[:, None], np.ones((m, 1))
    if rows == 0 or m < 2:
        return
    support = _pair_supports(m, rows)
    i, j = support[::rows].T
    far = a[:, j].T                                   # (pairs, rows)
    t = _solve_or_nan(b - far, a[:, i].T - far).ravel()
    yield support, np.column_stack([t, 1.0 - t])
    if rows == 1 or m < 3:
        return
    for support in _triple_supports(m):
        # eliminate the third entry through sum(P) == 1, then Cramer's rule
        last = a[:, support[:, 2]]
        x = a[:, support[:, 0]] - last
        y = a[:, support[:, 1]] - last
        rhs = b[:, None] - last
        det = x[0] * y[1] - y[0] * x[1]
        p = _solve_or_nan(rhs[0] * y[1] - y[0] * rhs[1], det)
        q = _solve_or_nan(x[0] * rhs[1] - rhs[0] * x[1], det)
        yield support, np.column_stack([p, q, 1.0 - p - q])


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
    lexicographic (i, j, k) order. The status is "optimal" or "infeasible".
    More than ``MAX_DURATIONS`` entries raise ``ValueError``.
    """
    numerator = np.asarray(numerator, dtype=float)
    if numerator.size > MAX_DURATIONS:
        raise ValueError(
            f"{numerator.size} durations exceed the bound of {MAX_DURATIONS}: the "
            f"optimizer scores all C(M, 3) = {math.comb(numerator.size, 3)} "
            f"three-point policies, which grows as M**3")
    a = np.asarray(a_ub, dtype=float).reshape(-1, numerator.size)
    b = np.asarray(b_ub, dtype=float).reshape(-1)
    # a vertex has at most rows + 1 non-zero entries; a third row would need
    # four-point supports, which are not enumerated
    assert a.shape[0] <= 2, f"support enumeration covers at most 2 side rows, got {a.shape[0]}"
    coef = np.vstack([numerator, denominator, a])

    best_value, best = -math.inf, None
    for support, weights in _candidates(a, b):
        values = np.einsum("cns,ns->cn", coef[:, support], weights)
        num, den = values[0], values[1]
        slack = CONSTRAINT_TOL * den
        feasible = ((slack > 0.0) & (weights >= -slack[:, None]).all(axis=1)
                    & (values[2:] - b[:, None] <= slack).all(axis=0))
        ratio = np.divide(num, den, out=np.full_like(num, -math.inf), where=feasible)
        k = int(np.argmax(ratio))                     # first occurrence of the max
        if ratio[k] > best_value:                     # strict: earlier ties win
            best_value, best = float(ratio[k]), (support[k], weights[k])
    if best is None:
        return LPSolution("infeasible")
    x = np.zeros(numerator.size)
    x[best[0]] = best[1]
    return LPSolution("optimal", x, best_value)
