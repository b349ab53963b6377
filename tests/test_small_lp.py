"""The null-space LP engine (``nullspace_lp.small_lp``) against HiGHS.

Small integer data make the degenerate cases exact: parallel and opposed
rows, single-point and empty feasible sets, and optima on the box. An
infeasible system of such rows misses by far more than either solver's
tolerance, so the two must agree on feasibility.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from graspstab.nullspace_lp import small_lp

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
