"""The exact LP engine of the slip states' null spaces.

Every LP over a slip state has x = x_p + N z, so it runs in the k
coordinates z of the state's null space, plus at most one more variable
(the load along a ray, or a max-min-slack margin), on the state's own
inequality rows with each z_i boxed by its bounds. k is m - 3 at the
all-stick origin state, whose m sticking tangential forces meet only the
3 equilibrium rows, so it grows with the grasp; on the benchmark's
grasps (m <= 5) k is at most 2, and an LP has at most 3 unknowns with
its margin or load. ``equilibrium`` poses each of them, and
``small_lp`` solves it exactly with Seidel's incremental algorithm, at
every dimension. Its expected cost grows about as k!, so on a grasp of
many contacts the origin state's screen costs steeply. The engine knows
nothing of slip states: it takes rows, a right-hand side, objectives
and a box. A screen with k = 1 does not reach it from a query:
``lines_hold`` decides every such screen of a grasp's batch in one array
pass, by the rules of the engine's one-variable case, which both read
from ``_flat_fails`` and ``_empty``. ``lines_point`` gives the points of
such LPs under a stack of objectives by that case's rule for the end of
an interval, ``_end``, which ``small_lp`` reads too.

An LP of a few unknowns takes 2-3 eliminations, so numpy's cost per call
would exceed its arithmetic: ``small_lp`` scales the rows once in numpy
and runs the recursion on Python lists of floats.
"""

from __future__ import annotations

from operator import mul

import numpy as np

from .params import LP_REL

__all__ = ["lines_hold", "lines_point", "small_lp"]


def small_lp(g, h, c, lo, hi) -> np.ndarray | None:
    """Minimize c y subject to g y >= h and lo <= y <= hi; None if infeasible.

    c is one objective (d,) or an ordered stack of them (K, d), minimized
    lexicographically: each later objective only breaks the ties that
    the earlier ones leave, each objective's coefficients counting as
    zero below LP_REL of its largest. A stack of one gives the same
    point as its one objective. The inputs may be arrays or nested
    sequences and are not modified; the result is a float64 array (d,).

    Seidel's incremental algorithm (Seidel 1991, "Small-dimensional
    linear programming and convex hulls made easy"), exact up to rounding,
    for the few variables of a slip state's null space. The rows are taken
    in their given order, so the same input gives the same point. The
    optimum over the first i rows either meets row i, and stays optimal,
    or some optimum lies on row i's hyperplane: one variable is eliminated
    there and the rest solved over the earlier rows. The box keeps every
    subproblem bounded. A lexicographic objective enters only where the
    algorithm compares candidate optima (Seidel 1991; de Berg et al.,
    Computational Geometry, ch. 4): the box vertex and the end of the
    one variable's interval each follow the first objective not flat in
    that variable, and an elimination substitutes into every objective.
    Where every objective leaves a variable free, it takes the
    value of its range nearest 0: in the null space, the point nearest
    x_p, the least-norm solution of the equalities. Rows are scaled to
    unit norm once, in numpy, so that every residual, before or after an
    elimination, is a distance in y. The recursion then runs on Python
    lists of floats, because on a few variables and 2-3 eliminations an
    LP numpy's per-call cost would exceed the arithmetic; only the dot
    product that recovers an eliminated variable stays numpy's.
    """
    c = np.asarray(c, dtype=float)
    h = np.asarray(h, dtype=float)
    d = c.shape[-1]
    g = np.asarray(g, dtype=float).reshape(len(h), d)
    norm = np.sqrt(np.einsum("ij,ij->i", g, g))
    live = norm > LP_REL
    if not live.all():
        if np.any(_flat_fails(h[~live])):
            return None
        g, h, norm = g[live], h[live], norm[live]
    y = _seidel((g / norm[:, None]).tolist(), (h / norm).tolist(),
                [_unit(ck) for ck in c.reshape(-1, d).tolist()],
                np.asarray(lo, dtype=float).tolist(),
                np.asarray(hi, dtype=float).tolist())
    return None if y is None else np.array(y)


def _unit(ck: list) -> list:
    """An objective scaled to a largest coefficient of 1, or left as it
    is where all are zero."""
    top = max(map(abs, ck), default=0.0)
    return [v / top for v in ck] if top else ck


def _seidel(g, h, c, lo, hi):
    """small_lp on lists: rows g whose entries are at most about 1, h,
    the stack c (K rows) likewise, and the bounds lo and hi."""
    if len(lo) == 1:
        return _interval([row[0] for row in g], h, [ck[0] for ck in c],
                         lo[0], hi[0])
    # the box vertex that is optimal before any row is added: each
    # variable at the bound its first objective that is not flat in it
    # prefers, so the objectives are applied from the last
    y = [min(max(0.0, a), b) for a, b in zip(lo, hi)]
    for row in reversed(c):
        y = [a if ck > LP_REL else b if ck < -LP_REL else v
             for ck, a, b, v in zip(row, lo, hi, y)]
    size = sum(map(abs, y))
    for i, (row, b) in enumerate(zip(g, h)):
        if sum(map(mul, row, y)) - b < -LP_REL * (1.0 + abs(b) + size):
            y = _on_row(g, h, c, lo, hi, i)
            if y is None:
                return None
            size = sum(map(abs, y))
    return y


def _on_row(g, h, c, lo, hi, i):
    """The optimum over rows before i and the box, on row i's hyperplane.

    The variable j with the largest coefficient in row i (the first such)
    is eliminated, y_j = t - q y'; its bounds become the subproblem's
    first two rows, and every objective c y becomes (c' - c_j q) y' +
    c_j t. Row i is violated, so where it is flat no point meets it.
    """
    row = g[i]
    mags = list(map(abs, row))
    j = mags.index(max(mags))
    pivot = row[j]
    if abs(pivot) <= LP_REL:
        return None
    q = [v / pivot for v in _drop(row, j)]
    t = h[i] / pivot
    sub_g = [[-v for v in q], q]
    sub_g += [[v - r[j] * qk for v, qk in zip(_drop(r, j), q)] for r in g[:i]]
    sub_h = [lo[j] - t, t - hi[j]]
    sub_h += [b - r[j] * t for r, b in zip(g[:i], h[:i])]
    sub_c = [[v - ck[j] * qk for v, qk in zip(_drop(ck, j), q)] for ck in c]
    sub = _seidel(sub_g, sub_h, sub_c, _drop(lo, j), _drop(hi, j))
    if sub is None:
        return None
    # numpy's dot, whose BLAS kernel may fuse its multiply-adds: a Python
    # sum would move some points by an ulp from those the engine gave
    # when its recursion ran in numpy
    return sub[:j] + [t - float(np.matmul(q, sub))] + sub[j:]


def _drop(v: list, j: int) -> list:
    return v[:j] + v[j + 1:]


def _interval(a, b, c, lo, hi):
    """The one-variable case over lists: the end of the interval of y
    that the first objective of c (K,) not flat in y prefers."""
    low, high = lo, hi
    for ak, bk in zip(a, b):
        if ak > LP_REL:
            low = max(low, bk / ak)
        elif ak < -LP_REL:
            high = min(high, bk / ak)
        elif _flat_fails(bk):
            return None
    if low > high:
        if _empty(low, high):
            return None
        return [0.5 * (low + high)]
    return [_end(low, high, c)]


def _end(low, high, c):
    """The end of the interval [low, high] of one variable that the first
    objective of c (K floats) not flat in it prefers: low where it is
    above LP_REL, high where it is below -LP_REL; where every one is
    flat, the value of the interval nearest 0."""
    for ck in c:
        if ck > LP_REL:
            return low
        if ck < -LP_REL:
            return high
    return min(max(0.0, low), high)


def lines_hold(g: np.ndarray, h: np.ndarray, valid: np.ndarray,
               bound) -> np.ndarray:
    """Whether each of a stack of LPs in one variable z has a point: the
    rows g z >= h (S, R) where valid (S, R) is set, and |z| <= bound (a
    float, or one per LP as (S, 1)).

    Each is decided as ``small_lp`` decides it with lo = -bound and hi =
    bound: a row flat in z fails where its unscaled h is too high
    (``_flat_fails``); each other row, scaled to unit norm, bounds z from
    one side; and an interval [low, high] empty by no more than its
    tolerance (``_empty``) still holds its midpoint.
    """
    low, high, fails = _line_intervals(g, h, valid, bound)
    return ~fails & ~_empty(low, high)


def lines_point(g: np.ndarray, h: np.ndarray, valid: np.ndarray, bound,
                c: np.ndarray) -> np.ndarray:
    """The point z (S,) of each of a stack of ``lines_hold``'s LPs under
    the objectives c (S, K), minimized lexicographically, or NaN where
    its interval [low, high] is empty, even within tolerance.

    The point is the one ``small_lp`` gives a one-variable LP whose
    interval is not empty: the end that the first objective not flat in
    z prefers (``_end``), each objective scaled as ``small_lp`` scales
    it, to a largest coefficient of 1, so that only its sign is read.
    Where the interval is empty within tolerance ``small_lp`` would take
    its midpoint; this gives NaN there, and the caller solves that LP
    on its own.
    """
    low, high, fails = _line_intervals(g, h, valid, bound)
    z = np.full(len(low), np.nan)
    sign = np.sign(c).tolist()
    for s in np.flatnonzero(~fails & (low <= high)).tolist():
        z[s] = _end(float(low[s]), float(high[s]), sign[s])
    return z


def _line_intervals(g, h, valid, bound):
    """(low, high, fails) of each LP of ``lines_hold``: the interval of z
    that its live rows, scaled to unit norm, and the bound leave (S,),
    and whether one of its rows flat in z fails (``_flat_fails``)."""
    norm = np.sqrt(g * g)
    live = valid & (norm > LP_REL)
    fails = np.any(valid & ~live & _flat_fails(h), axis=1)
    # each live row, scaled to unit norm, is z >= its end or z <= it
    unit = np.where(live, norm, 1.0)
    a = g / unit
    end = h / unit / np.where(live, a, 1.0)
    low = np.max(np.where(live & (a > LP_REL), end, -bound), axis=1)
    high = np.min(np.where(live & (a < -LP_REL), end, bound), axis=1)
    return low, high, fails


def _flat_fails(h):
    """Whether a row flat in every variable, 0 >= h, fails: h above
    LP_REL (1 + |h|), unscaled. h a float or an array."""
    return h > LP_REL * (1.0 + abs(h))


def _empty(low, high):
    """Whether the interval [low, high] of one variable is empty beyond
    rounding: low above high by more than LP_REL (1 + |low| + |high|).
    low and high floats or arrays."""
    return low - high > LP_REL * (1.0 + abs(low) + abs(high))
