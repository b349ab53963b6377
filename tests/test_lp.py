from __future__ import annotations

import numpy as np
import pytest
from scipy.optimize import linprog

from graspstab import lp


def test_simple_bounded_min():
    ok, x = lp.solve_lp([1.0], None, None, [[1.0], [-1.0]], [1.0, -3.0], -10, 10)
    assert ok and x[0] == pytest.approx(1.0)


def test_equality_infeasible():
    ok, x = lp.solve_lp([0.0], [[1.0], [1.0]], [1.0, 2.0], None, None, -10, 10)
    assert not ok and x is None


def test_max_min_slack_feasible_interval():
    x, s = lp.max_min_slack(None, None, [[1.0], [-1.0]], [1.0, -3.0],
                            -10, 10, n=1)
    assert s == pytest.approx(1.0)  # capped margin, x centred
    assert x[0] == pytest.approx(2.0)


def test_max_min_slack_infeasible_reports_negative_margin():
    x, s = lp.max_min_slack(None, None, [[1.0], [-1.0]], [1.0, 0.0],
                            -10, 10, n=1)
    assert s == pytest.approx(-0.5)
    assert x[0] == pytest.approx(0.5)


def test_binding_box():
    ok, x = lp.solve_lp([-1.0, -1.0], None, None, None, None, [0, 0], [2, 5])
    assert ok and np.allclose(x, [2, 5])


def test_degenerate_ties_terminate():
    # many redundant rows through one vertex; Bland must not cycle
    a_in = [[1, 0], [0, 1], [1, 1], [2, 1], [1, 2]]
    b_in = [0, 0, 0, 0, 0]
    ok, x = lp.solve_lp([1, 1], None, None, a_in, b_in, [-5, -5], [5, 5])
    assert ok and np.allclose(x, [0, 0], atol=1e-9)


@pytest.mark.parametrize("seed", range(5))
def test_fuzz_against_scipy(seed):
    rng = np.random.default_rng(seed)
    for _ in range(60):
        n = int(rng.integers(2, 6))
        e = int(rng.integers(0, 3))
        k = int(rng.integers(1, 7))
        a_eq = rng.normal(size=(e, n))
        b_eq = rng.normal(size=e)
        a_in = rng.normal(size=(k, n))
        b_in = rng.normal(size=k)
        c = rng.normal(size=n)
        ok, x = lp.solve_lp(c, a_eq, b_eq, a_in, b_in, -10 * np.ones(n),
                            10 * np.ones(n))
        ref = linprog(c, A_ub=-a_in, b_ub=-b_in,
                      A_eq=a_eq if e else None, b_eq=b_eq if e else None,
                      bounds=[(-10, 10)] * n, method="highs")
        assert ok == ref.success
        if ok:
            assert c @ x == pytest.approx(ref.fun, abs=1e-6, rel=1e-6)
            assert np.all(a_in @ x - b_in >= -1e-8)
            if e:
                assert np.max(np.abs(a_eq @ x - b_eq)) < 1e-8


def test_determinism_same_input_same_output():
    rng = np.random.default_rng(5)
    a_in = rng.normal(size=(6, 4))
    b_in = rng.normal(size=6)
    runs = {tuple(lp.max_min_slack(None, None, a_in, b_in, -3, 3, n=4)[0])
            for _ in range(5)}
    assert len(runs) == 1
