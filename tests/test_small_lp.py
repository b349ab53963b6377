"""The null-space LP engine (``nullspace_lp.small_lp``) against HiGHS.

Small integer data make the degenerate cases exact: parallel and opposed
rows, single-point and empty feasible sets, and optima on the box. An
infeasible system of such rows misses by far more than either solver's
tolerance, so the two must agree on feasibility. The LPs the queries
themselves pose, 22-34 rows each, some repeated, are recorded from
the paper's tables, in both detachment modes under both witness
policies, and the fixtures' sweeps and replayed.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from graspstab import (check_stability, enumerate_slip_states,
                       load_grasp_file, max_resistible, nullspace_lp)
from graspstab.nullspace_lp import small_lp
from graspstab.params import LP_REL, MARGIN_CAP, X_MAX
from graspstab.stability import _feasible_states, _own_point

from conftest import FIXTURES

COEF = st.integers(-2, 2)


@st.composite
def small_lps(draw):
    d = draw(st.integers(1, 4))
    rows = draw(st.lists(st.lists(COEF, min_size=d, max_size=d),
                         max_size=8))
    rhs = draw(st.lists(st.integers(-3, 3), min_size=len(rows),
                        max_size=len(rows)))
    # parallel and opposed copies of earlier rows
    for _ in range(draw(st.integers(0, 3)) if rows else 0):
        i = draw(st.integers(0, len(rows) - 1))
        k = draw(st.sampled_from([-2, -1, 1, 2]))
        rows.append([k * v for v in rows[i]])
        rhs.append(draw(st.integers(-4, 4)))
    c = draw(st.lists(COEF, min_size=d, max_size=d))
    box = draw(st.sampled_from([1.0, 2.0, 5.0]))
    g = np.array(rows, dtype=float).reshape(len(rows), d)
    return g, np.array(rhs, dtype=float), np.array(c, dtype=float), box


@settings(max_examples=400, deadline=None)
@given(small_lps())
def test_small_lp_agrees_with_highs(case):
    g, h, c, box = case
    d = len(c)
    lo, hi = np.full(d, -box), np.full(d, box)
    y = small_lp(g, h, c, lo, hi)
    ref = linprog(c, A_ub=-g if len(h) else None, b_ub=-h if len(h) else None,
                  bounds=[(-box, box)] * d, method="highs")
    assert ref.status in (0, 2)
    assert (y is not None) == (ref.status == 0)
    if y is None:
        return
    assert abs(c @ y - ref.fun) <= 1e-9 * (1.0 + abs(ref.fun))
    assert np.all(g @ y - h >= -1e-9) and np.all(np.abs(y) <= box + 1e-9)
    again = small_lp(g, h, c, lo, hi)
    assert np.array_equal(y, again)
    # one objective passed as a stack of one gives the same point
    assert np.array_equal(small_lp(g, h, c[None], lo, hi), y)


@st.composite
def lexicographic_lps(draw):
    """small_lps with a stack of 1 to 4 objectives. Small integer
    coefficients, repeated and zero ones among them, leave whole faces
    of optima to the objectives after them."""
    g, h, _c, box = draw(small_lps())
    d = g.shape[1]
    stack = draw(st.lists(st.lists(COEF, min_size=d, max_size=d),
                          min_size=1, max_size=4))
    return g, h, np.array(stack, dtype=float), box


def _sequential_highs(g, h, stack, lo, hi):
    """HiGHS on each objective in turn, each earlier optimum held as a row
    to within 1e-10, so that a later optimum can improve on the exact
    one by no more than that times the data's small ratios: the optima,
    or None when the rows cannot hold."""
    a_ub, b_ub = -g, -h
    optima = []
    for c in stack:
        ref = linprog(c, A_ub=a_ub if len(b_ub) else None,
                      b_ub=b_ub if len(b_ub) else None,
                      bounds=list(zip(lo, hi)), method="highs")
        assert ref.status in (0, 2)
        if ref.status == 2:
            return None
        optima.append(ref.fun)
        a_ub = np.vstack([a_ub, c])
        b_ub = np.append(b_ub, ref.fun + 1e-10 * (1.0 + abs(ref.fun)))
    return optima


@settings(max_examples=400, deadline=None)
@given(lexicographic_lps())
def test_lexicographic_small_lp_agrees_with_sequential_highs(case):
    g, h, stack, box = case
    d = g.shape[1]
    lo, hi = np.full(d, -box), np.full(d, box)
    y = small_lp(g, h, stack, lo, hi)
    optima = _sequential_highs(g, h, stack, lo, hi)
    assert (y is not None) == (optima is not None)
    if y is None:
        return
    assert np.all(g @ y - h >= -1e-9) and np.all(np.abs(y) <= box + 1e-9)
    for c, best in zip(stack, optima):
        assert abs(c @ y - best) <= 1e-8 * (1.0 + abs(best)), (c, best)


def test_lexicographic_small_lp_breaks_ties_in_order():
    # on the square |y| <= 1 with y0 + y1 >= 1, least y0 + y1 ties on the
    # edge from (0, 1) to (1, 0): largest y1 picks (0, 1), largest y0
    # picks (1, 0), and a zero objective breaks no tie
    g, h = np.array([[1.0, 1.0]]), np.array([1.0])
    lo, hi = np.full(2, -1.0), np.full(2, 1.0)
    total = [1.0, 1.0]
    assert np.allclose(small_lp(g, h, [total, [0, -1]], lo, hi), [0, 1],
                       rtol=0, atol=1e-12)
    assert np.allclose(small_lp(g, h, [total, [0, 0], [-1, 0]], lo, hi),
                       [1, 0], rtol=0, atol=1e-12)


@pytest.mark.parametrize("seed", range(5))
def test_small_lp_random_real_data_agrees_with_highs(seed):
    rng = np.random.default_rng(seed)
    for _ in range(60):
        d, k = int(rng.integers(1, 5)), int(rng.integers(1, 9))
        g, h, c = rng.normal(size=(k, d)), rng.normal(size=k), rng.normal(size=d)
        y = small_lp(g, h, c, np.full(d, -10.0), np.full(d, 10.0))
        ref = linprog(c, A_ub=-g, b_ub=-h, bounds=[(-10, 10)] * d,
                      method="highs")
        assert (y is not None) == (ref.status == 0)
        if y is not None:
            assert abs(c @ y - ref.fun) <= 1e-9 * (1.0 + abs(ref.fun))
            assert np.array_equal(
                small_lp(g, h, c[None], np.full(d, -10.0), np.full(d, 10.0)),
                y)


@pytest.mark.parametrize("g, h, point", [
    # x >= 1 and x <= 1: the single point
    ([[1.0], [-1.0]], [1.0, -1.0], [1.0]),
    # the same line twice, once scaled, pins x + y = 1 on a box edge
    ([[1.0, 1.0], [-2.0, -2.0], [1.0, 0.0]], [1.0, -2.0, 2.0], [2.0, -1.0]),
])
def test_small_lp_single_point(g, h, point):
    d = len(point)
    y = small_lp(np.array(g), np.array(h), np.zeros(d), np.full(d, -2.0),
                 np.full(d, 2.0))
    assert y is not None and np.allclose(y, point, rtol=0, atol=1e-12)


def test_small_lp_ties_take_the_value_nearest_zero():
    # the objective leaves both variables free: x takes the end of its
    # range [1, 2] nearest 0, y the 0 of its box
    y = small_lp(np.array([[1.0, 0.0], [-1.0, 0.0]]), np.array([1.0, -2.0]),
                 np.zeros(2), np.array([-2.0, -1.0]), np.array([2.0, 3.0]))
    assert np.array_equal(y, [1.0, 0.0])


def test_small_lp_infeasible():
    assert small_lp(np.array([[1.0, 1.0], [-1.0, -1.0]]), np.array([1.0, 0.0]),
                    np.array([1.0, 0.0]), np.full(2, -5.0),
                    np.full(2, 5.0)) is None


# the 19 queries of the paper's Table I and Table III: (fixture, wrench,
# detachment), Table III rows 7-8 again in strict mode
PAPER_QUERIES = [
    ("three_contact", (0, 0, 0), True), ("three_contact_preload", (0, 0, 0), True),
    ("three_contact", (0, -1, 0), True), ("three_contact", (0, -2, 0), True),
    ("three_contact", (0, 1, 0), True), ("three_contact_preload", (0, 1, 0), True),
    ("three_contact_preload", (0, 1.1, 0), True),
    ("four_contact", (0, 0, 0), True), ("four_contact_preload", (0, 0, 0), True),
    ("four_contact", (0, 2, 0), True), ("four_contact", (0, -2, 0), True),
    ("four_contact_preload", (0, 2, 0), True),
    ("four_contact_preload", (0, -2, 0), True),
    ("four_contact", (0, 0, 3), True), ("four_contact", (0, 0, -3), True),
    ("four_contact_preload", (0, 0, 3), True),
    ("four_contact_preload", (0, 0, -3), True),
    ("four_contact", (0, 0, 3), False), ("four_contact", (0, 0, -3), False),
]
# (fixture, directions, angle of the first) of the fixtures' sweeps
SWEEPS = [("three_contact", 6, 0.0), ("three_contact_preload", 4, 0.0),
          ("four_contact_preload", 2, 0.5 * math.pi)]


def _recorded_lps(monkeypatch):
    """(g, h, c, lo, hi) of every small_lp call the paper's queries, in
    both detachment modes under both witness policies, the witness LPs
    of each of their feasible states, and the fixtures' max_resistible
    sweeps make."""
    calls = []
    solve = nullspace_lp.small_lp

    def record(g, h, c, lo, hi):
        calls.append(tuple(np.array(a, dtype=float) for a in (g, h, c, lo, hi)))
        return solve(g, h, c, lo, hi)

    monkeypatch.setattr(nullspace_lp, "small_lp", record)
    models = {path.stem: load_grasp_file(str(path))[0]
              for path in FIXTURES.glob("*.grasp")}
    for (name, w, detachment), flip, policy in itertools.product(
            PAPER_QUERIES, (False, True), ("canonical", "first")):
        check_stability(models[name], w, detachment=detachment != flip,
                        witness_policy=policy)
    # a canonical query reads most states' points in the batch and runs
    # the LPs of a few: each feasible state's own point runs them all
    for name, w, detachment in PAPER_QUERIES:
        batch = enumerate_slip_states(models[name],
                                      detachment=detachment).prepared
        w = np.asarray(w, dtype=float)
        for p, _speeds in _feasible_states(models[name], batch, w, False)[1]:
            _own_point(batch[p], w)
    for name, count, first in SWEEPS:
        states = enumerate_slip_states(models[name])
        for k in range(count):
            angle = first + 2.0 * math.pi * k / count
            max_resistible(models[name], (math.cos(angle), math.sin(angle)),
                           1e-3, 1e3, states=states)
    monkeypatch.undo()
    return calls


def test_small_lp_replays_the_queries_lps_as_highs_solves_them(monkeypatch):
    calls = _recorded_lps(monkeypatch)
    assert len(calls) > 200
    # each LP's rows are one state's inequalities a_in N alone, at most
    # three a contact: 12 at m = 4, fewer than any block of N's 9 or 11
    # rows stacked beside them would leave
    assert max(len(h) for _g, h, *_ in calls) <= 12
    for g, h, c, lo, hi in calls:
        # z is boxed through its bounds, symmetric and within X_MAX; a
        # screen's box is X_MAX itself
        assert lo[0] == -hi[0] and hi[0] <= X_MAX
        if not np.any(c):
            assert np.all(lo == -X_MAX) and np.all(hi == X_MAX)
        elif np.ndim(c) == 2 or lo[-1] < 0.0:
            # a point's LP, the witness's or one of max-min slack: its
            # margin, the last variable, enters every row
            assert np.all(g[:, -1] == -1.0) and hi[-1] == MARGIN_CAP
    feasible = 0
    for g, h, c, lo, hi in calls:
        y = small_lp(g, h, c, lo, hi)
        stack = np.atleast_2d(c)
        optima = _sequential_highs(g, h, stack, lo, hi)
        assert (y is None) == (optima is None)
        if y is None:
            continue
        feasible += 1
        assert np.all(g @ y - h >= -1e-9)
        assert np.all(y >= lo - 1e-9 * (1.0 + np.abs(lo)))
        assert np.all(y <= hi + 1e-9 * (1.0 + np.abs(hi)))
        for ck, best in zip(stack, optima):
            assert abs(ck @ y - best) <= 1e-8 * (1.0 + abs(best)), (ck, best)
    assert feasible > 100


def _tuples(a: np.ndarray) -> tuple:
    return tuple(map(tuple, a)) if a.ndim == 2 else tuple(a)


@pytest.mark.parametrize("kind", [np.array, np.ndarray.tolist, _tuples],
                         ids=["array", "list", "tuple"])
def test_small_lp_takes_lists_tuples_and_arrays_alike(kind):
    g = np.array([[0.0, 2.0, -1.0], [1.0, 0.0, 1.0], [-1.0, 2.0, -2.0],
                  [1.0, 1.0, 1.0]])
    h = np.array([0.0, 1.0, -3.0, 0.5])
    c = np.array([[2.0, 0.0, 2.0], [-2.0, -1.0, -1.0]])
    lo, hi = np.full(3, -3.0), np.array([3.0, 2.0, 3.0])
    args = (g, h, c, lo, hi)
    kept = [a.copy() for a in args]
    want = small_lp(*args)
    y = small_lp(*(kind(a) for a in args))
    assert y.dtype == np.float64 and y.shape == (3,)
    assert y.tobytes() == want.tobytes()
    for a, b in zip(args, kept):
        assert np.array_equal(a, b)
    one = small_lp(kind(np.array([[1.0], [-1.0]])), kind(np.array([0.5, -2.0])),
                   kind(np.array([1.0])), kind(np.array([-3.0])),
                   kind(np.array([3.0])))
    assert one.dtype == np.float64 and one.shape == (1,) and one[0] == 0.5


# Rows p + q, p, q with p zero where q is largest: eliminating on q turns
# p + q into p, up to rounding, and eliminating on p below that leaves it
# flat in the two-variable subproblem. Found by search: in the first the
# flat row cannot hold; in the others one flat row has entries near
# 1e-17, flat only up to rounding, and holds.
FLAT_AT_DEPTH = [
    ([0, 0, -2, 0], [1, 0, 1, 0], [0, 2, 3],
     [[2, 2, 1, 2], [1, -2, 0, 0], [-1, -2, 1, -2], [-2, -2, -1, 1]]),
    ([0.0, 0.2, 0.3, 0.7], [0.7, 0.2, -0.2, 0.1], [3, 2, 0],
     [[0, -2, 0, 0], [1, 0, -1, 0], [1, -2, 1, -1], [1, 0, 0, -2]]),
    ([0.7, 0.3, -0.1, 0.0], [0.1, -0.2, 0.2, 0.3], [2, 2, 2],
     [[2, -1, 2, -2], [-2, 2, 2, -1], [-2, -1, -2, 2], [1, 0, -1, 0]]),
]


@pytest.mark.parametrize("p, q, h, stack", FLAT_AT_DEPTH)
def test_small_lp_with_a_row_flat_two_levels_down(monkeypatch, p, q, h, stack):
    p, q, h, stack = (np.array(a, dtype=float) for a in (p, q, h, stack))
    g = np.vstack([p + q, p, q])
    lo, hi = np.full(4, -3.0), np.full(4, 3.0)
    flat_rows = []
    seidel = nullspace_lp._seidel

    def spy(sub_g, sub_h, sub_c, sub_lo, sub_hi):
        if len(sub_lo) == 2:
            # past the two rows of the eliminated variable's bounds
            flat_rows.extend(b for row, b in zip(sub_g[2:], sub_h[2:])
                             if max(map(abs, row)) <= 1e-12)
        return seidel(sub_g, sub_h, sub_c, sub_lo, sub_hi)

    monkeypatch.setattr(nullspace_lp, "_seidel", spy)
    y = small_lp(g, h, stack, lo, hi)
    monkeypatch.undo()
    assert flat_rows
    optima = _sequential_highs(g, h, stack, lo, hi)
    assert (y is None) == (optima is None)
    if y is None:
        return
    assert np.all(g @ y - h >= -1e-9) and np.all(np.abs(y) <= 3.0 + 1e-9)
    for c, best in zip(stack, optima):
        assert abs(c @ y - best) <= 1e-8 * (1.0 + abs(best)), (c, best)


def _line_lp(rng, kind):
    """One LP in one variable: (g (R,), h (R,), c (K,), midpoint), with
    rows and objectives of the kind asked for; midpoint marks an interval
    empty by less than small_lp's tolerance, whose midpoint it takes."""
    rows = int(rng.integers(1, 6))
    g, h = rng.normal(size=rows), rng.normal(size=rows) * 3.0
    c = rng.normal(size=int(rng.integers(1, 5)))
    midpoint = False
    if kind == "flat rows":
        # rows of norm zero or at most LP_REL, whose h passes or fails
        flat = rng.random(rows) < 0.5
        g[flat] = rng.choice([0.0, 0.5 * LP_REL, -0.9 * LP_REL], flat.sum())
        h[flat] = rng.choice([-1.0, 0.0, 0.5 * LP_REL, 1e-6], flat.sum())
    elif kind == "nearly empty":
        # z >= a and z <= a - gap, gap within LP_REL (1 + 2 |a|) or beyond
        a = float(rng.normal())
        tol = LP_REL * (1.0 + 2.0 * abs(a))
        midpoint = bool(rng.random() < 0.5)
        gap = tol * (0.4 if midpoint else 3.0)
        g, h = np.array([1.0, -1.0]), np.array([a, gap - a])
    elif kind == "zero objectives first":
        c[:int(rng.integers(1, len(c) + 1))] = 0.0
    elif kind == "tiny objectives":
        # far below LP_REL, yet one variable's objective is scaled to 1
        c *= rng.choice([1e-14, 1e-20, 0.0], len(c))
    return g, h, c, midpoint


@pytest.mark.parametrize("kind", ["random", "flat rows", "nearly empty",
                                  "zero objectives first", "tiny objectives"])
def test_the_batch_takes_a_line_lps_end_as_small_lp_does(kind):
    from graspstab.nullspace_lp import lines_point

    rng = np.random.default_rng(sum(map(ord, kind)))
    lps = [_line_lp(rng, kind) for _ in range(400)]
    rows = max(len(g) for g, *_ in lps)
    objectives = max(len(c) for _g, _h, c, _m in lps)
    # padded rows, flat and failing, and padded objectives are not read
    g, h = np.zeros((len(lps), rows)), np.ones((len(lps), rows))
    valid = np.zeros((len(lps), rows), bool)
    c = np.zeros((len(lps), objectives))
    for s, (gs, hs, cs, _m) in enumerate(lps):
        g[s, :len(gs)], h[s, :len(hs)], valid[s, :len(gs)] = gs, hs, True
        c[s, :len(cs)] = cs
    got = lines_point(g, h, valid, 10.0, c)
    seen = Counter()
    for z, (gs, hs, cs, midpoint) in zip(got.tolist(), lps):
        y = small_lp(gs[:, None], hs, cs[:, None], [-10.0], [10.0])
        if y is None or midpoint:
            # no point, or small_lp's midpoint of a nearly empty interval
            assert math.isnan(z) and (y is None) != midpoint
            seen["midpoint" if midpoint else "none"] += 1
        else:
            assert z == y[0], (gs, hs, cs)
            seen["point"] += 1
    wanted = ("midpoint", "none") if kind == "nearly empty" else \
        ("point", "none")
    assert all(seen[k] >= 100 for k in wanted), seen
