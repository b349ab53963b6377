"""The stable set along a ray of pure forces, and max_resistible's first exit.

The set is computed exactly, as merged per-state intervals, so these
tests hold it against stability queries made at points of the ray: a
reference bisection on monotone rays, dense scans, and the exhaustive
baseline just inside and just outside each interval end.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from graspstab import (brute_force_verdict, check_stability,
                       enumerate_slip_states, max_resistible,
                       resistible_region)
from graspstab.generate import random_grasp
from graspstab.grasp_io import load_grasp_file

from conftest import FIXTURES

TOL, CAP = 1e-3, 1e3

# (grasp seed, direction) of the rays of the 60-grasp set below on which
# the grasp fails, holds again further out, and fails again or holds to
# the cap: a bisection of [0, cap] can close in on a later exit
NON_MONOTONE = [(37, 0), (39, 2), (43, 6), (55, 1), (55, 7), (57, 4)]


def _random_ray(s: int, j: int):
    """Grasp s of the 60-grasp set (s = 0..59) and its direction j of 8."""
    model = random_grasp(3 + s % 3, np.random.default_rng(s),
                         preload="auto" if s % 2 else "none", detachment=True)
    ang = 2.0 * math.pi * j / 8 + 0.1
    return model, np.array([math.cos(ang), math.sin(ang)])


def _load(u, t):
    return np.array([t * u[0], t * u[1], 0.0])


def _stable(model, states, u, t) -> bool:
    return check_stability(model, _load(u, t), states=states,
                           witness_policy="first").stable


def _held(spans, t) -> bool:
    return any(lo <= t <= hi for lo, hi in spans)


@pytest.mark.parametrize("s,j", NON_MONOTONE)
def test_first_exit_on_non_monotone_ray(s, j):
    model, u = _random_ray(s, j)
    states = enumerate_slip_states(model)
    res = max_resistible(model, u, TOL, CAP, states=states)
    u = res.direction
    lo, hi = res.bracket
    assert 0.0 <= lo < hi and hi - lo <= TOL
    assert res.magnitude == 0.5 * (lo + hi)
    assert _stable(model, states, u, lo)
    assert not _stable(model, states, u, hi)
    assert brute_force_verdict(model, _load(u, lo)).stable
    assert not brute_force_verdict(model, _load(u, hi)).stable
    # a load ramping up from zero meets no failure before lo
    for t in np.linspace(0.0, lo, 60):
        assert _stable(model, states, u, t), t
    # the grasp holds again beyond the first exit
    assert len(res.stable_intervals) > 1


def test_bracket_high_end_stays_out_of_the_next_stretch():
    # grasp 37, direction 0 holds on [0, 1.296] and again on [3.662, 5.073];
    # with tol = 5 the grid's first bracket (0, 3.906) ends in the second
    # stretch, so its high end moves on into the gap
    model, u = _random_ray(37, 0)
    states = enumerate_slip_states(model)
    res = max_resistible(model, u, 5.0, CAP, states=states)
    (_lo, first_exit), (after, _hi) = res.stable_intervals[:2]
    assert first_exit < 1000 / 256 and after < 1000 / 256
    lo, hi = res.bracket
    assert lo <= first_exit < hi < after
    assert _stable(model, states, res.direction, lo)
    assert not _stable(model, states, res.direction, hi)


def _bisection(model, u, states):
    """The probing bisection max_resistible replaces, as a reference."""
    if _stable(model, states, u, CAP):
        return math.inf, None
    lo, hi = 0.0, CAP
    while hi - lo > TOL:
        mid = 0.5 * (lo + hi)
        if _stable(model, states, u, mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi), (lo, hi)


@pytest.mark.parametrize("path", sorted(FIXTURES.glob("*.grasp")),
                         ids=lambda p: p.stem)
def test_matches_bisection_on_fixture_rays(path):
    # every fixture ray is monotone, so the exact first exit lands on the
    # same grid point as the probes of a bisection
    model = load_grasp_file(path)[0]
    states = enumerate_slip_states(model)
    for j in range(16):
        ang = 2.0 * math.pi * j / 16
        res = max_resistible(model, (math.cos(ang), math.sin(ang)), TOL, CAP,
                             states=states)
        assert (res.magnitude, res.bracket) == \
            _bisection(model, res.direction, states), j


def test_stable_intervals_match_queries():
    ends = 0
    for s in np.random.default_rng(2024).choice(60, 8, replace=False).tolist():
        model = _random_ray(s, 0)[0]
        states = enumerate_slip_states(model)
        for j in range(8):
            res = max_resistible(model, _random_ray(s, j)[1], TOL, CAP,
                                 states=states)
            u, spans = res.direction, res.stable_intervals
            assert all(0.0 <= lo <= hi <= CAP for lo, hi in spans), (s, j)
            assert all(a[1] < b[0] for a, b in zip(spans, spans[1:])), (s, j)
            # a dense scan to past the last finite end, and the cap; its
            # step stays far above the width of a singular state's band of
            # consistent loads, which the intervals leave out
            finite = [e for span in spans for e in span if 0.0 < e < CAP]
            top = min(CAP, max(1.0, 1.5 * max(finite, default=0.0)))
            for t in [*np.linspace(0.0, top, 80)[1:], CAP]:
                assert _stable(model, states, u, t) == _held(spans, t), \
                    (s, j, t)
            # the exhaustive baseline just inside and just outside each end
            for e in finite:
                step = 1e-6 * max(e, 1.0)
                for t in (t for t in (e - step, e + step) if t > 0.0):
                    assert brute_force_verdict(model, _load(u, t)).stable == \
                        _held(spans, t), (s, j, e, t)
            ends += len(finite)
    assert ends >= 10


def _counted(monkeypatch, module, name):
    calls = []
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def _whole_ray_singular(states, u) -> int:
    """Singular states that pass the consistency test at both ray ends."""
    u = np.array([u[0], u[1], 0.0])
    batch = states.prepared
    both = batch._consistent(np.zeros(3)) & batch._consistent(CAP * u)
    return int(np.count_nonzero(~batch.direct & both))


def test_sweeps_run_no_query_and_two_lps_per_whole_ray_state(monkeypatch):
    from graspstab import lp, nullspace_lp, stability

    grasps = [load_grasp_file(p)[0] for p in sorted(FIXTURES.glob("*.grasp"))]
    grasps += [_random_ray(s, 0)[0] for s, _j in NON_MONOTONE]
    queries = _counted(monkeypatch, stability, "check_stability")
    simplex = _counted(monkeypatch, lp, "solve_lp")
    small = _counted(monkeypatch, nullspace_lp, "small_lp")
    budget = 0
    for model in grasps:
        states = enumerate_slip_states(model)
        for j in range(8):
            ang = 2.0 * math.pi * j / 8
            res = max_resistible(model, (math.cos(ang), math.sin(ang)), TOL,
                                 CAP, states=states)
            budget += 2 * _whole_ray_singular(states, res.direction)
    assert queries == [] and simplex == []
    assert 0 < len(small) <= budget
    small.clear()
    budget = 0
    for model in grasps:
        sweep = resistible_region(model, 8, TOL, CAP)
        states = enumerate_slip_states(model)
        budget += sum(2 * _whole_ray_singular(states, r.direction)
                      for r in sweep.results)
    assert queries == [] and simplex == []
    assert 0 < len(small) <= budget


# the last two have finite nonzero entries whose norm underflows to zero
# or overflows
@pytest.mark.parametrize("direction", [(0, 0), (0.0, -0.0), (math.nan, 1),
                                       (1, math.inf), (1e-200, -1e-200),
                                       (1e308, 1e308)])
def test_rejects_a_direction_without_a_finite_nonzero_norm(direction):
    model = load_grasp_file(FIXTURES / "three_contact.grasp")[0]
    with pytest.raises(ValueError, match="has no finite, nonzero norm"):
        max_resistible(model, direction)
