"""Linear programs of a slip state in its null-space coordinates.

Every LP over a slip state has x = x_p + N z, so it runs in the k
coordinates z of the state's null space, plus a margin for max-min-slack
problems; k is at most 3 on every grasp measured. ``small_lp`` solves
such a program exactly with Seidel's incremental algorithm, at every k:
it is the feasibility screen that decides a singular state, on the rows
of ``null_rows``, and ``null_lp`` builds one rung of the box ladder of
``equilibrium.linear_feasibility`` on it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .params import DEFAULT_TOLS, Tolerances

if TYPE_CHECKING:
    from .equilibrium import StateSystem

__all__ = ["small_lp", "null_rows", "null_lp", "z_bound"]


def z_bound(n: int, box: float) -> float:
    """A bound on each null-space coordinate of a point in the +-box box.

    z = N^T (x - x_p) and x_p is orthogonal to the orthonormal basis N, so
    |z_i| <= |N_i|_1 box <= sqrt(n) box; twice that leaves the bound slack.
    """
    return 2.0 * np.sqrt(n) * box


def null_rows(sys: StateSystem, x_p: np.ndarray, slack: np.ndarray,
              null: np.ndarray, box: float):
    """Rows g z >= h over x = x_p + N z: a_in N z >= -slack, then |x| <=
    box. slack is the residual at x_p of the rows to impose: a_in x_p -
    b_in for a_in x >= b_in itself."""
    return (np.vstack([sys.a_in @ null, null, -null]),
            np.concatenate([-slack, -box - x_p, -box + x_p]))


def null_lp(sys: StateSystem, x_p: np.ndarray, null: np.ndarray, box: float,
            objective, tols: Tolerances) -> tuple[np.ndarray | None, float]:
    """One rung of the ladder in the null-space coordinates x = x_p + N z.

    With no objective, maximizes the margin s (at most margin_cap) by which
    every row of the state's own a_in x >= b_in holds, while its pin rows
    (ineq_kind "pin") hold as they are; with an objective, minimizes it
    over the rows as they are. Both within the box |x| <= box. Returns
    (x, s), or (None, nan) when the rows cannot hold.
    """
    k = null.shape[1]
    g, h = null_rows(sys, x_p, sys.a_in @ x_p - sys.b_in, null, box)
    bound = z_bound(sys.n, box)
    if objective is not None:
        y = small_lp(g, h, np.asarray(objective, dtype=float) @ null,
                     np.full(k, -bound), np.full(k, bound), tols)
        return (None, np.nan) if y is None else (x_p + null @ y, np.nan)
    # the margin enters the state's own rows, g z - s >= h
    margin = np.zeros((len(h), 1))
    margin[:len(sys.b_in), 0] = [kind != "pin" for kind in sys.ineq_kind]
    # every point of the z box has slack above s_lo
    s_lo = -1.0 - (np.abs(h) + np.abs(g).sum(axis=1) * bound).max()
    c = np.zeros(k + 1)
    c[-1] = -1.0
    lo = np.append(np.full(k, -bound), s_lo)
    hi = np.append(np.full(k, bound), tols.margin_cap)
    y = small_lp(np.hstack([g, -margin]), h, c, lo, hi, tols)
    return (None, np.nan) if y is None else (x_p + null @ y[:k], y[-1])


def small_lp(g, h, c, lo, hi, tols: Tolerances = DEFAULT_TOLS
             ) -> np.ndarray | None:
    """Minimize c y subject to g y >= h and lo <= y <= hi; None if infeasible.

    Seidel's incremental algorithm (Seidel 1991, "Small-dimensional
    linear programming and convex hulls made easy"), exact up to rounding,
    for the few variables of a slip state's null space. The rows are taken
    in their given order, so the same input gives the same point. The
    optimum over the first i rows either meets row i, and stays optimal,
    or some optimum lies on row i's hyperplane: one variable is eliminated
    there and the rest solved over the earlier rows. The box keeps every
    subproblem bounded. Where the objective leaves a variable free, it
    takes the value of its range nearest 0: in the null space, the point
    nearest x_p, the least-norm solution of the equalities. Rows are
    scaled to unit norm once, so that every residual, before or after an
    elimination, is a distance in y.
    """
    c = np.asarray(c, dtype=float)
    h = np.asarray(h, dtype=float)
    g = np.asarray(g, dtype=float).reshape(len(h), len(c))
    eps = tols.lp_rel
    norm = np.sqrt(np.einsum("ij,ij->i", g, g))
    flat = norm <= eps
    if flat.any():
        if np.any(h[flat] > eps * (1.0 + np.abs(h[flat]))):
            return None
        g, h, norm = g[~flat], h[~flat], norm[~flat]
    c_norm = np.abs(c).max() if c.size else 0.0
    return _seidel(g / norm[:, None], h / norm,
                   c / c_norm if c_norm > 0 else c,
                   np.asarray(lo, dtype=float), np.asarray(hi, dtype=float),
                   eps)


def _seidel(g, h, c, lo, hi, eps):
    """small_lp on rows whose entries are at most about 1, c likewise."""
    if len(c) == 1:
        return _interval(g[:, 0], h, c[0], lo[0], hi[0], eps)
    # the box vertex that is optimal before any row is added
    y = np.where(c > eps, lo, np.where(c < -eps, hi, np.clip(0.0, lo, hi)))
    i = 0
    while i < len(h):
        bad = np.flatnonzero(g[i:] @ y - h[i:] < -eps * (
            1.0 + np.abs(h[i:]) + np.abs(y).sum()))
        if bad.size == 0:
            break
        i += int(bad[0])
        y = _on_row(g, h, c, lo, hi, i, eps)
        if y is None:
            return None
        i += 1
    return y


def _on_row(g, h, c, lo, hi, i, eps):
    """The optimum over rows before i and the box, on row i's hyperplane.

    The variable j with the largest coefficient in row i is eliminated,
    y_j = t - q y'; its bounds become the subproblem's first two rows.
    Row i is violated, so where it is flat no point meets it.
    """
    j = int(np.argmax(np.abs(g[i])))
    if abs(g[i, j]) <= eps:
        return None
    keep = np.arange(len(c)) != j
    q = g[i, keep] / g[i, j]
    t = h[i] / g[i, j]
    sub = _seidel(np.vstack([-q, q, g[:i, keep] - np.outer(g[:i, j], q)]),
                  np.concatenate([[lo[j] - t, t - hi[j]],
                                  h[:i] - g[:i, j] * t]),
                  c[keep] - c[j] * q, lo[keep], hi[keep], eps)
    if sub is None:
        return None
    y = np.empty(len(c))
    y[keep] = sub
    y[j] = t - q @ sub
    return y


def _interval(a, b, c, lo, hi, eps):
    """The one-variable case: the end of the interval of y that c prefers."""
    up, down = a > eps, a < -eps
    flat = ~(up | down)
    if flat.any() and np.any(b[flat] > eps * (1.0 + np.abs(b[flat]))):
        return None
    low = max(lo, (b[up] / a[up]).max()) if up.any() else lo
    high = min(hi, (b[down] / a[down]).min()) if down.any() else hi
    if low > high:
        if low - high > eps * (1.0 + abs(low) + abs(high)):
            return None
        return np.array([0.5 * (low + high)])
    if c > eps:
        return np.array([low])
    if c < -eps:
        return np.array([high])
    return np.array([min(max(0.0, low), high)])
