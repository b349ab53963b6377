"""Small dense linear programs via two-phase simplex with Bland's rule.

Its one caller in the package is ``generate.balanced_preload``, the
max-min-margin preload of generated grasps. Stability queries run no
simplex: every slip-state LP is solved in the state's null space by
``nullspace_lp.small_lp``, and the arrangement is built without LPs. The
simplex stays because the preload's optimum need not be unique and the
benchmark's stored query selections depend on the preloads it returns,
so another solver must first be shown to return the same ones; the
benchmark also still imports ``SimplexError`` and wraps ``solve_lp``,
``max_min_slack`` and ``pivot_loop`` by name. Problems are tiny (tens of
rows), so the solver is a dense tableau; Bland's rule makes the pivot
sequence deterministic and cycle-free.

The pivot loop itself is the hot kernel and lives in ``_simplex_py``;
it is looked up there on every call, so it can be wrapped in place.
"""

from __future__ import annotations

import numpy as np

from . import _simplex_py

OPTIMAL = _simplex_py.OPTIMAL
UNBOUNDED = _simplex_py.UNBOUNDED
ITERATION_LIMIT = _simplex_py.ITERATION_LIMIT


class SimplexError(RuntimeError):
    """Pivot loop failed to terminate; indicates a numerical breakdown."""


def _as_rows(a, n):
    if a is None:
        return np.zeros((0, n))
    a = np.asarray(a, dtype=float)
    if a.size == 0:
        return np.zeros((0, n))
    return a.reshape(-1, n)


def _as_rhs(b, rows):
    if b is None:
        return np.zeros(rows)
    return np.asarray(b, dtype=float).reshape(rows)


def solve_lp(c, a_eq, b_eq, a_in, b_in, lo, hi, *, tol=1e-9,
             feas_tol=1e-7, max_iter=20000):
    """Minimize c @ x subject to a_eq x = b_eq, a_in x >= b_in, lo <= x <= hi.

    All bounds must be finite with lo < hi. Returns (feasible, x); x is
    None when the constraints are inconsistent.
    """
    c = np.asarray(c, dtype=float)
    n = c.size
    lo = np.broadcast_to(np.asarray(lo, dtype=float), (n,)).copy()
    hi = np.broadcast_to(np.asarray(hi, dtype=float), (n,)).copy()
    a_eq = _as_rows(a_eq, n)
    a_in = _as_rows(a_in, n)
    b_eq = _as_rhs(b_eq, a_eq.shape[0])
    b_in = _as_rhs(b_in, a_in.shape[0])
    e, k = a_eq.shape[0], a_in.shape[0]
    span = hi - lo
    if not np.all(span > 0):
        raise ValueError("bounds must satisfy lo < hi")

    # shifted variables u = x - lo >= 0, u <= span
    be = b_eq - a_eq @ lo
    bi = b_in - a_in @ lo

    nrows = e + k + n
    # columns: u (n) | surplus (k) | bound slacks (n) | artificials (appended)
    ncols = n + k + n
    U = np.zeros((nrows, n))
    b = np.zeros(nrows)
    U[:e] = a_eq
    b[:e] = be
    U[e:e + k] = a_in
    b[e:e + k] = bi
    U[e + k:] = np.eye(n)
    b[e + k:] = span

    # row equilibration keeps pivot magnitudes and the phase-1 residual
    # row-relative, independent of the box scale; the unit surplus/slack
    # columns are appended afterwards so the seeded basis stays canonical
    row_scale = np.maximum(np.max(np.abs(U), axis=1), np.abs(b))
    row_scale[row_scale < 1e-300] = 1.0
    U /= row_scale[:, None]
    b /= row_scale

    A = np.zeros((nrows, ncols))
    A[:, :n] = U
    kidx = np.arange(k)
    A[e + kidx, n + kidx] = -1.0
    nidx = np.arange(n)
    A[e + k + nidx, n + k + nidx] = 1.0

    flip = b < 0
    A[flip] *= -1.0
    b[flip] *= -1.0

    basis = np.full(nrows, -1, dtype=np.int64)
    # bound-slack rows start basic; flipped inequality rows can use surplus
    basis[e + k + nidx] = n + k + nidx
    flipped = kidx[flip[e:e + k]]
    basis[e + flipped] = n + flipped
    need_art = np.nonzero(basis < 0)[0]
    n_art = need_art.size

    T = np.zeros((nrows + 1, ncols + n_art + 1))
    T[:nrows, :ncols] = A
    T[:nrows, -1] = b
    T[need_art, ncols + np.arange(n_art)] = 1.0
    basis[need_art] = ncols + np.arange(n_art)

    if n_art:
        # phase 1: minimize the artificial sum (reduced costs for basis art=1)
        T[-1, :] = -T[need_art, :].sum(axis=0)
        T[-1, ncols:ncols + n_art] = 0.0
        status = _simplex_py.pivot_loop(T, basis, ncols + n_art, tol, max_iter)
        if status == ITERATION_LIMIT:
            raise SimplexError("phase 1 exceeded the iteration limit")
        if -T[-1, -1] > feas_tol * (1.0 + np.sqrt(nrows)):
            return False, None
        # drive leftover artificials out of the basis where possible
        for i in range(nrows):
            if basis[i] >= ncols:
                row = T[i, :ncols]
                cand = np.nonzero(np.abs(row) > tol)[0]
                if cand.size:
                    _pivot_once(T, basis, i, int(cand[0]))

    # phase 2
    T[-1, :] = 0.0
    T[-1, :n] = c
    for i in range(nrows):
        bj = basis[i]
        if bj < n and c[bj] != 0.0:
            T[-1, :] -= c[bj] * T[i, :]
    status = _simplex_py.pivot_loop(T, basis, ncols, tol, max_iter)
    if status == ITERATION_LIMIT:
        raise SimplexError("phase 2 exceeded the iteration limit")
    if status == UNBOUNDED:
        raise SimplexError("objective unbounded despite box bounds")

    u = np.zeros(n)
    for i in range(nrows):
        if basis[i] < n:
            u[basis[i]] = T[i, -1]
    return True, lo + u


def _pivot_once(T, basis, r, j):
    piv = T[r, j]
    T[r, :] /= piv
    col = T[:, j].copy()
    col[r] = 0.0
    T -= np.outer(col, T[r, :])
    T[:, j] = 0.0
    T[r, j] = 1.0
    basis[r] = j


def max_min_slack(a_eq, b_eq, a_in, b_in, lo, hi, *, n=None, s_cap=1.0, tol=1e-9):
    """Maximize the minimum slack of a_in x - b_in over the equality set.

    Returns (x, s) where s is the achieved minimum slack (capped at
    s_cap), or (None, None) when the equalities + bounds are inconsistent.
    Feasibility of the full system means s >= -eps for the caller's eps.
    """
    if n is None:
        for a in (a_eq, a_in):
            arr = np.asarray(a, dtype=float) if a is not None else np.empty(0)
            if arr.size:
                n = arr.shape[-1]
                break
        else:
            raise ValueError("cannot infer the variable count; pass n=")
    lo = np.broadcast_to(np.asarray(lo, dtype=float), (n,)).astype(float)
    hi = np.broadcast_to(np.asarray(hi, dtype=float), (n,)).astype(float)
    a_eq = _as_rows(a_eq, n)
    a_in = _as_rows(a_in, n)
    b_eq = _as_rhs(b_eq, a_eq.shape[0])
    b_in = _as_rhs(b_in, a_in.shape[0])

    # stage A: any point satisfying equalities within the box
    if a_eq.shape[0] == 0:
        x0 = 0.5 * (lo + hi)
    else:
        ok, x0 = solve_lp(np.zeros(n), a_eq, b_eq, None, None, lo, hi, tol=tol)
        if not ok:
            return None, None
    if a_in.shape[0] == 0:
        return x0, float(s_cap)

    # stage B: lift with the margin variable, bounded below by the slack
    # already achieved at x0 (keeps the tableau scale tied to the data)
    s0 = float(np.min(a_in @ x0 - b_in))
    s_lo = min(s0, 0.0) - 1.0
    c = np.zeros(n + 1)
    c[-1] = -1.0  # maximize s
    a_eq2 = np.hstack([a_eq, np.zeros((a_eq.shape[0], 1))])
    a_in2 = np.hstack([a_in, -np.ones((a_in.shape[0], 1))])
    lo2 = np.append(lo, s_lo)
    hi2 = np.append(hi, max(float(s_cap), s_lo + 1.0))
    ok, xs = solve_lp(c, a_eq2, b_eq, a_in2, b_in, lo2, hi2, tol=tol)
    if not ok:  # cannot happen: (x0, s_lo) is feasible by construction
        return None, None
    return xs[:n], float(xs[-1])
