from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from scipy.optimize import linprog

from graspstab import (Contact, GraspModel, PreparedStates,
                       assemble_state_system, check_solution, check_stability,
                       enumerate_slip_states, linear_feasibility, lp,
                       solve_state, world_force)
from graspstab.arrangement import DETACHED
from graspstab.equilibrium import EquilibriumSolution
from graspstab.generate import random_grasp
from graspstab.params import INEQ_SLACK, LP_REL, RANK_EPS, X_MAX
from graspstab.stability import _feasible_states, _own_point

from conftest import four_contact, three_contact
from test_arrangement import degenerate_grasps


# ---------------------------------------------------------------------------
# system assembly
# ---------------------------------------------------------------------------

def test_all_slip_system_is_square(m3):
    sys = assemble_state_system(m3, (0, 0, 0), (-1, 1, -1))
    assert sys.a_eq.shape == (9, 9)


def test_detached_state_row_count(m4):
    sys = assemble_state_system(m4, (0, 0, 0), (-1, DETACHED, 0, DETACHED))
    # 3 equilibrium + 2 constitutive + 1 slip + 1 stick + 4 detached
    assert sys.a_eq.shape == (11, 11)


def test_origin_state_rows(m3):
    sys = assemble_state_system(m3, (0, 0, 0), (0, 0, 0))
    assert sys.a_eq.shape == (9, 9)
    assert not sys.slip_dirs


def test_square_system_any_labels(m4, rng):
    # with detachment off the equality block is always 3 + 2m square
    for _ in range(30):
        labels = tuple(rng.choice([-1, 0, 1]) for _ in range(4))
        sys = assemble_state_system(m4, (1, 2, 3), labels)
        assert sys.a_eq.shape == (11, 11)


# ---------------------------------------------------------------------------
# solve_state on the worked rows
# ---------------------------------------------------------------------------

def test_downward_force_zero_preload(m3):
    sol = solve_state(m3, (0, -1, 0), (-1, 0, 1))
    assert sol is not None
    assert np.allclose(sol.d, [0, -1, 0], atol=1e-9)
    assert np.allclose(sol.forces, [[0, 0], [1, 0], [0, 0]], atol=1e-9)


def test_upward_force_with_preload(m3p):
    sol = solve_state(m3p, (0, 1, 0), (1, 0, -1))
    assert np.allclose(sol.d, [0, 1, 0], atol=1e-9)
    assert np.allclose(sol.forces, [[1, -0.5], [0, 0], [1, 0.5]], atol=1e-9)


def test_preloaded_twist(m4p):
    sol = solve_state(m4p, (0, 0, 3), (-1, -1, 0, 0))
    assert np.allclose(sol.d, [0, -0.25, 0.25], atol=1e-9)
    assert np.allclose(sol.forces,
                       [[1.25, 0.625], [0.75, 0.375], [1.25, 0.625], [0.75, 0.375]],
                       atol=1e-9)


def test_infeasible_state_returns_none(m3p):
    assert solve_state(m3p, (0, 1.1, 0), (1, 0, -1)) is None


# ---------------------------------------------------------------------------
# linear feasibility
# ---------------------------------------------------------------------------

def test_feasibility_all_stick_underdetermined(m4p):
    # all-stick at a horizontal pull: equalities are rank-deficient but a
    # cone-feasible force family exists
    prep = PreparedStates(m4p, [(0, 0, 0, 0)])[0]
    assert not prep.direct
    sol = linear_feasibility(prep, np.array([0.0, 2.0, 0.0]))
    assert sol is not None and sol.labels == (0, 0, 0, 0)
    report = check_solution(m4p, (0, 2, 0), sol)
    assert report["max_violation"] < 1e-9


def _grid(k):
    return [math.cos(k * math.pi / 4), math.sin(k * math.pi / 4)]


# degenerate grasps whose singular states have null spaces of dimension
# 1 to 3 (the fixtures reach only 2); one null-space LP screens them all
def five_parallel(preloaded=False):
    # four_contact plus a fifth contact on the left: all tangents are +-y
    positions = [(-1, 1), (-1, -1), (1, -1), (1, 1), (-1, 0)]
    normals = [(-1, 0), (-1, 0), (1, 0), (1, 0), (-1, 0)]
    preload = [[1, 0], [1, 0], [1.5, 0], [1.5, 0], [1, 0]]
    return GraspModel([Contact(p, n, 0.5) for p, n in zip(positions, normals)],
                      preload=preload if preloaded else None)


def pi4_grid(preloaded=False):
    # positions and normals on the pi/4 grid, two of them not radial
    return GraspModel([Contact(_grid(0), _grid(1), 0.5),
                       Contact(_grid(3), _grid(3), 0.5),
                       Contact(_grid(5), _grid(4), 0.5)])


def antipodal(preloaded=False):
    return GraspModel([Contact((-1, 0), (-1, 0), 0.5),
                       Contact((1, 0), (1, 0), 0.5)],
                      preload=[[1, 0], [1, 0]] if preloaded else None)


def _count_calls(monkeypatch):
    """Calls of the simplex, of the null-space LP engine and of the point
    search (linear_feasibility), by name."""
    from graspstab import equilibrium, nullspace_lp

    calls = {"solve_lp": 0, "small_lp": 0, "linear_feasibility": 0}
    for module, name in ((lp, "solve_lp"), (nullspace_lp, "small_lp"),
                         (equilibrium, "linear_feasibility")):
        def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return calls


def _nullity(sys):
    sv = np.linalg.svd(sys.a_eq, compute_uv=False)
    return int(np.sum(sv <= RANK_EPS * len(sv) * sv[0]))


def test_inconsistent_singular_state_rejected_without_lp(m3, monkeypatch):
    # all three contacts slipping under a pull: the equality block is
    # singular and its least-squares residual is far from zero
    labels = (-1, -1, -1)
    assert _nullity(assemble_state_system(m3, (0, -2, 0), labels)) >= 1
    calls = _count_calls(monkeypatch)
    assert solve_state(m3, (0, -2, 0), labels) is None
    assert calls == {"solve_lp": 0, "small_lp": 0, "linear_feasibility": 0}


def test_consistent_infeasible_singular_state_rejected_before_the_ladder(
        m4, monkeypatch):
    # all-stick under a downward push without preload: the equalities have
    # solutions, but no passive forces balance the load (Table III row 4);
    # the screen, one null-space LP, rejects it before the point's LPs run
    labels = (0, 0, 0, 0)
    sys = assemble_state_system(m4, (0, -2, 0), labels)
    assert _nullity(sys) == 2
    x_ls, *_ = np.linalg.lstsq(sys.a_eq, sys.b_eq, rcond=None)
    assert np.linalg.norm(sys.a_eq @ x_ls - sys.b_eq) < 1e-12
    calls = _count_calls(monkeypatch)
    assert solve_state(m4, (0, -2, 0), labels) is None
    assert calls == {"solve_lp": 0, "small_lp": 1, "linear_feasibility": 0}


@pytest.mark.parametrize("make, preloaded, w, labels, nullity", [
    (four_contact, True, (0, 0, 3), (0, 0, 0, 0), 2),
    (four_contact, False, (1, 0, 0), (1, 1, 0, 0), 1),
    (five_parallel, False, (-1, -2, -1), (0, 0, 0, 0, 0), 3),
], ids=["preloaded-stick-twist", "unpreloaded-slip-push",
        "five-parallel-stick"])
def test_null_space_screen_rejects_before_the_ladder(make, preloaded, w,
                                                     labels, nullity,
                                                     monkeypatch):
    # consistent singular states whose best max-min margin is -0.25 to
    # -0.85: a phase-1 LP over the +-X_MAX box let the first two into the
    # point's LPs, since its row equilibration scales their residuals down
    # by ~X_MAX; the screen rejects all three before those LPs run
    model = make(preloaded)
    sys = assemble_state_system(model, w, labels)
    assert _nullity(sys) == nullity
    status, margin = _highs(sys, relax=0.0, bounds=(-100.0, 100.0),
                            s_lo=None)
    assert status == 0 and margin < -0.2
    calls = _count_calls(monkeypatch)
    assert solve_state(model, w, labels) is None
    assert calls == {"solve_lp": 0, "small_lp": 1, "linear_feasibility": 0}


def _line_corpus():
    """(batch, loads): the 4 fixtures under the 45-load grid and 40 random
    grasps under 12 loads each, every one in both detachment modes."""
    grid = list(itertools.product(range(-2, 3), (-2, 0, 2), (-1, 0, 1)))
    rng = np.random.default_rng(2323)
    cases = [(make(preloaded), grid) for make in (three_contact, four_contact)
             for preloaded in (False, True)]
    cases += [(random_grasp(2 + k % 4, rng=rng,
                            preload="auto" if k // 4 % 2 else "none"),
               rng.normal(size=(12, 3)) * [2.0, 2.0, 1.5]) for k in range(40)]
    for model, loads in cases:
        for detachment in (False, True):
            yield (enumerate_slip_states(model, detachment=detachment).prepared,
                   np.asarray(loads, dtype=float))


def test_the_batch_decides_a_state_of_nullity_1_as_its_screen_does():
    # the batch marks as screened exactly the states whose null space is
    # a line, and a consistent one is kept by candidates exactly when its
    # own screen LP passes
    outcomes = {True: 0, False: 0}
    for batch, loads in _line_corpus():
        for w in loads:
            kept = set(batch.candidates(w).tolist())
            for p in np.flatnonzero(~batch.direct
                                    & batch._consistent(w)).tolist():
                prep = batch[p]
                assert batch.screened[p] == (prep.null.shape[1] == 1)
                if not batch.screened[p]:
                    continue
                holds = prep.passes_screen(w)
                assert (p in kept) == holds, (prep.system.labels, w)
                outcomes[holds] += 1
    assert min(outcomes.values()) >= 100, outcomes


def test_the_batch_keeps_a_state_of_nullity_1_to_the_ends_of_its_span():
    # along a ray a state holds on [least, largest] (_singular_span), and
    # at each end its screen's best least slack is -INEQ_SLACK: 1e-10
    # inside it still passes on a negative slack, 1e-10 outside it fails
    from graspstab.equilibrium import _singular_span

    cap, ends = 10.0, 0
    for batch, _loads in _line_corpus():
        for k in range(8):
            angle = 2.0 * math.pi * (k + 0.5) / 8
            u = np.array([math.cos(angle), math.sin(angle), 0.0])
            whole = batch.screened & batch._consistent(np.zeros(3)) \
                & batch._consistent(cap * u)
            for p in np.flatnonzero(whole).tolist():
                span = _singular_span(batch[p], u, cap)
                for end, out in zip(span or (), (-1.0, 1.0)):
                    if not 1e-3 < end < cap * (1.0 - 1e-6):
                        continue
                    for step, holds in ((-1e-10, True), (1e-10, False)):
                        w = (end + out * step) * u
                        assert batch[p].passes_screen(w) == holds
                        assert (p in batch.candidates(w)) == holds, \
                            (batch[p].system.labels, w)
                    ends += 1
    assert ends >= 100


# one-variable LPs g z >= h in the z box +-10 at the edges of the
# decision: T is the largest h a flat row may have, LP_REL / (1 -
# LP_REL), and [1 + gap, 1] an interval empty by gap, within LP_REL (1 +
# |low| + |high|) = 3.0e-12 or beyond it
_T = LP_REL / (1.0 - LP_REL)
LINE_EDGES = [
    pytest.param([0.5 * LP_REL, 1.0], [_T * (1 - 1e-6), -1.0], True,
                 id="flat-row-just-below-its-tolerance"),
    pytest.param([0.5 * LP_REL, 1.0], [_T * (1 + 1e-6), -1.0], False,
                 id="flat-row-just-above-its-tolerance"),
    pytest.param([LP_REL * (1 - 1e-6)], [2.0 * LP_REL], False,
                 id="row-just-flat"),
    pytest.param([LP_REL * (1 + 1e-6)], [2.0 * LP_REL], True,
                 id="row-just-not-flat"),
    pytest.param([1.0, -1.0], [1.0 + 2.5e-12, -1.0], True,
                 id="empty-by-just-less-than-the-tolerance"),
    pytest.param([1.0, -1.0], [1.0 + 3.5e-12, -1.0], False,
                 id="empty-by-just-more-than-the-tolerance"),
    pytest.param([1.0, 2.0], [10.0, -30.0], True, id="point-at-the-upper-bound"),
    pytest.param([-1.0, -3.0], [10.0, -30.0], True,
                 id="point-at-the-lower-bound"),
    pytest.param([1.0], [10.0 * (1 + 1e-9)], False,
                 id="beyond-the-upper-bound"),
    pytest.param([-1.0], [10.0 * (1 + 1e-9)], False,
                 id="beyond-the-lower-bound"),
]


@pytest.mark.parametrize("g, h, holds", LINE_EDGES)
def test_the_batch_decides_a_line_lp_as_small_lp_does(g, h, holds):
    from graspstab.nullspace_lp import lines_hold, small_lp

    g, h = np.array(g), np.array(h)
    # a row masked out, flat and far beyond its tolerance, is not read
    got = lines_hold(np.append(g, 0.0)[None], np.append(h, 1.0)[None],
                     np.append(np.ones(len(g), bool), False)[None], 10.0)
    lp = small_lp(g[:, None], h, [0.0], [-10.0], [10.0])
    assert got.tolist() == [holds] and (lp is not None) == holds


def _spy_rows(monkeypatch):
    """The g of each null-space LP call, as passed."""
    from graspstab import nullspace_lp

    seen = []
    solve = nullspace_lp.small_lp

    def spy(g, h, c, lo, hi):
        seen.append(np.array(g, dtype=float))
        return solve(g, h, c, lo, hi)

    monkeypatch.setattr(nullspace_lp, "small_lp", spy)
    return seen


def _soft_state(soft):
    """(model, w, states, position): springs softened by soft, and the
    singular state (slip+, slip-, slip-) under a pull, whose least-norm
    point has entries of 1 / soft, far beyond the data's magnitude."""
    model = three_contact(True)
    model.stiffness = model.stiffness * soft
    states = enumerate_slip_states(model)
    (p,) = [p for p, st in enumerate(states) if st.labels == (1, -1, -1)]
    return model, np.array([0.0, 1.0, 0.0]), states, p


def test_every_lp_of_a_state_starts_from_its_stored_rows(monkeypatch):
    # the soft state's first box, sized from its least-norm point, holds
    # its point: one LP
    from graspstab.equilibrium import _singular_span

    model, w, states, p = _soft_state(1e-4)
    batch = states.prepared
    prep = batch[p]
    assert not prep.direct and batch[p] is prep
    k = prep.null.shape[1]
    # the state's own inequality rows in z, and no box rows beside them
    assert np.array_equal(prep.rows, prep.system.a_in @ prep.null)
    seen = _spy_rows(monkeypatch)
    assert prep.passes_screen(w)
    assert _singular_span(prep, w, 10.0) is not None
    screen_and_span = len(seen)
    assert linear_feasibility(prep, w) is not None
    assert len(seen) - screen_and_span == 1
    objective = np.zeros((2, prep.system.n))
    objective[:, :3] = list(prep.system.slip_dirs.values())[:2]
    assert linear_feasibility(prep, w, objective=objective) is not None
    assert len(seen) > screen_and_span + 1
    assert all(g[:, :k].tobytes() == prep.rows.tobytes() for g in seen)
    # every LP of a canonical query, and of each feasible state's own
    # point (witness LPs included), starts from the rows stored on a
    # sliced state
    seen.clear()
    assert check_stability(model, w, states=states).stable
    for q, _speeds in _feasible_states(model, batch, w, False)[1]:
        _own_point(batch[q], w)
    stored = {q.rows.tobytes() for q in batch._prepared.values()
              if q.rows is not None}
    assert any(g.shape[1] == k + 1 for g in seen)  # the witness LPs
    assert all(any(
        np.ascontiguousarray(g[:, :j]).tobytes() in stored
        for j in (g.shape[1] - 1, g.shape[1])) for g in seen)


def test_a_point_that_hits_the_first_box_takes_the_second(monkeypatch):
    # the hit test reads |z|, and this point is x_p itself, z = 0: with
    # BOX_HIT below 0 every point hits its box, so the X_MAX box runs
    # next; at 1e-2 the first box, 100 |x_p| = 1e4, lies within X_MAX
    from graspstab import equilibrium, nullspace_lp

    model, w, states, p = _soft_state(1e-2)
    prep = states.prepared[p]
    bounds = []
    solve = nullspace_lp.small_lp

    def spy(g, h, c, lo, hi):
        bounds.append(float(np.asarray(hi)[0]))
        return solve(g, h, c, lo, hi)

    monkeypatch.setattr(nullspace_lp, "small_lp", spy)
    monkeypatch.setattr(equilibrium, "BOX_HIT", -1.0)
    sol = linear_feasibility(prep, w)
    # the box bounds z itself: the second is X_MAX
    assert len(bounds) == 2 and bounds[0] < X_MAX and bounds[1] == X_MAX
    assert sol is not None
    eq_tol = equilibrium._eq_tol(w, prep.b_max)[1]
    assert check_solution(model, w, sol)["max_violation"] <= \
        max(eq_tol, INEQ_SLACK)


def _lps_per_point(monkeypatch):
    """The small_lp calls of each linear_feasibility call, under either
    module's name."""
    from graspstab import equilibrium, nullspace_lp, stability

    calls, runs = [0], []
    solve, point = nullspace_lp.small_lp, equilibrium.linear_feasibility

    def counted_lp(*args):
        calls[0] += 1
        return solve(*args)

    def counted_point(*args, **kwargs):
        before = calls[0]
        out = point(*args, **kwargs)
        runs.append(calls[0] - before)
        return out

    monkeypatch.setattr(nullspace_lp, "small_lp", counted_lp)
    for module in (equilibrium, stability):
        monkeypatch.setattr(module, "linear_feasibility", counted_point)
    return runs


# soft fixtures and loads where a box grown from the data's magnitude by
# factors of 100 needed two or three boxes
@pytest.mark.parametrize("make, preloaded, soft, w", [
    (three_contact, False, 1e-2, (1, -2, 1)),
    (three_contact, False, 1e-2, (-1, -2, -1)),
    (three_contact, True, 1e-2, (0, 0, 1)),
    (three_contact, False, 1e-4, (-2, -2, 0)),
    (three_contact, True, 1e-4, (0, 0, -1)),
    (four_contact, False, 1e-4, (2, 0, 0)),
    (four_contact, True, 1e-4, (1, -2, 1)),
])
def test_a_soft_grasp_finds_its_point_in_the_first_box(make, preloaded, soft,
                                                       w, monkeypatch):
    model = make(preloaded)
    model.stiffness = model.stiffness * soft
    runs = _lps_per_point(monkeypatch)
    w = np.asarray(w, dtype=float)
    for detachment in (False, True):
        states = enumerate_slip_states(model, detachment=detachment)
        for policy in ("first", "canonical"):
            check_stability(model, w, states=states, witness_policy=policy)
        # the canonical query reads most points in the batch: each
        # feasible state's own point runs its LPs
        batch = states.prepared
        for p, _speeds in _feasible_states(model, batch, w, False)[1]:
            _own_point(batch[p], w)
    assert runs and runs == [1] * len(runs)


# independent feasibility check of every slip state by HiGHS (test-only:
# the program itself never uses it, being several times slower per LP).
# Wrenches: Tables I and III, a grid, and two just inside the friction
# limit of the indeterminate rows 5-6 of Table III, where the preloaded
# all-stick state is singular and feasible with a margin of only 2.5e-4.
# (0, +-0.5, +-1) reach nullity-1 states whose feasible points all lie
# away from z = 0: four_contact's (-1, detached, 1, detached) under
# (0, -0.5, 1) has slack -0.5 at z = 0 and a max-min margin of 0.5
REF_WRENCHES = sorted(
    {(0.0, 0.0, 0.0), (0.0, -1.0, 0.0), (0.0, -2.0, 0.0), (0.0, 1.0, 0.0),
     (0.0, 1.1, 0.0), (0.0, 2.0, 0.0), (0.0, 0.0, 3.0), (0.0, 0.0, -3.0),
     (0.0, 1.999, 0.0), (0.0, -1.999, 0.0)}
    | set(itertools.product((-1.5, 0.0, 1.5), (-1.5, 0.0, 1.5), (-1.0, 1.0)))
    | set(itertools.product((0.0,), (-0.5, 0.5), (-1.0, 1.0))))
REF_MARGIN = 1e-6


def _highs(sys, *, relax, bounds, s_lo=0.0):
    """HiGHS on the state system: (status, max min slack capped at 1
    and, unless s_lo is None, at least s_lo)."""
    n = sys.n
    c = np.zeros(n + 1)
    c[-1] = -1.0  # maximize the margin s in a_in x - s >= -relax
    a_ub = np.hstack([-sys.a_in, np.ones((len(sys.a_in), 1))])
    a_eq = np.hstack([sys.a_eq, np.zeros((sys.a_eq.shape[0], 1))])
    res = linprog(c, A_ub=a_ub, b_ub=np.full(len(sys.a_in), relax), A_eq=a_eq,
                  b_eq=sys.b_eq, bounds=[bounds] * n + [(s_lo, 1.0)],
                  method="highs")
    return res.status, (-res.fun if res.status == 0 else None)


@pytest.mark.parametrize("make, preloaded", [
    (three_contact, False), (three_contact, True),
    (four_contact, False), (four_contact, True),
    (five_parallel, False), (five_parallel, True), (pi4_grid, False),
    (antipodal, False), (antipodal, True),
])
def test_solve_state_agrees_with_highs(make, preloaded):
    model = make(preloaded)
    label_sets = {st.labels for detach in (False, True)
                  for st in enumerate_slip_states(model, detachment=detach)}
    problems = []
    for w in REF_WRENCHES:
        for labels in sorted(label_sets):
            sys = assemble_state_system(model, w, labels)
            sol = solve_state(model, w, labels)
            # infeasible even with every inequality relaxed, in all of R^n
            status, _ = _highs(sys, relax=REF_MARGIN, bounds=(None, None))
            if status == 2:
                if sol is not None:
                    problems.append(f"{w} {labels}: solved, HiGHS infeasible")
                continue
            # a point of the program's box with margin at least REF_MARGIN
            status, margin = _highs(sys, relax=0.0, bounds=(-X_MAX, X_MAX))
            if status == 0 and margin >= REF_MARGIN and sol is None:
                problems.append(f"{w} {labels}: rejected, HiGHS margin {margin:g}")
    assert not problems, problems


# ---------------------------------------------------------------------------
# the condensed factor against an SVD of the full system
# ---------------------------------------------------------------------------

def _assert_condensed_matches_full(model, detachment, wrenches):
    """Every state of the batch, each prepared from its (3 + s)-square
    condensed block, against one SVD of its (3 + 2m)-square full block
    under the same rank rule."""
    states = enumerate_slip_states(model, detachment=detachment)
    batch = states.prepared
    for p, st in enumerate(states):
        prep = batch[p]
        a_eq = prep.system.a_eq
        n = a_eq.shape[0]
        u, sv, vt = np.linalg.svd(a_eq)
        live = int(np.sum(sv > RANK_EPS * n * sv[0]))
        assert prep.direct == (live == n), st.labels
        assert prep.null.shape[1] == n - live, st.labels
        null = vt[live:].T
        if not prep.direct:
            # the same null space: the largest principal angle, and x_p
            # orthogonal to it
            off = prep.null - null @ (null.T @ prep.null)
            assert np.linalg.norm(off, 2) <= 1e-9, st.labels
            assert np.allclose(prep.null.T @ prep.null, np.eye(n - live),
                               rtol=0, atol=1e-12), st.labels
            assert np.abs(prep.null.T @ prep.x0).max() <= 1e-9 * (
                1 + np.abs(prep.x0).max()), st.labels
            assert np.abs(prep.null.T @ prep.gain).max() <= 1e-9 * (
                1 + np.abs(prep.gain).max()), st.labels
        for w in np.asarray(wrenches, dtype=float):
            b_eq = prep.system.at(w).b_eq
            scale = max(1.0, np.abs(b_eq).max())
            full = np.linalg.norm(u[:, live:].T @ b_eq)
            cons = np.linalg.norm(prep.cons0 + prep.cons_gain @ w)
            assert abs(cons - full) <= 1e-9 * (1 + scale), (st.labels, w)
            if prep.direct:
                x_full = np.linalg.solve(a_eq, b_eq)
                x = prep.x0 + prep.gain @ w
                assert np.abs(x - x_full).max() <= 1e-9 * max(
                    1.0, np.abs(x_full).max()), (st.labels, w)
                # the batch's slack maps against the state's own rows
                slack = prep.system.a_in @ x
                assert np.all(np.abs(prep.s0 + prep.slack_gain @ w - slack)
                              <= 1e-9 * np.maximum(1.0, np.abs(slack))), \
                    (st.labels, w)


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("detachment", [False, True])
@pytest.mark.parametrize("preload", ["none", "auto"])
def test_condensed_factor_matches_full_random(m, detachment, preload):
    rng = np.random.default_rng([m, detachment, preload == "auto"])
    for _ in range(2):
        model = random_grasp(m, rng=rng, preload=preload,
                             detachment=detachment)
        _assert_condensed_matches_full(
            model, detachment, rng.normal(size=(3, 3)) * [2.0, 2.0, 1.5])


@settings(max_examples=30, deadline=None)
@given(degenerate_grasps())
def test_condensed_factor_matches_full_degenerate(case):
    model, detachment = case
    _assert_condensed_matches_full(model, detachment, [
        (0, -1, 0), (0.5, 0, 0), (-1, 0.5, 0.5), (0, 0, 0)])


# ---------------------------------------------------------------------------
# verifier
# ---------------------------------------------------------------------------

def test_verifier_accepts_solver_output(m3):
    sol = solve_state(m3, (0, -2, 0), (-1, 0, 1))
    assert check_solution(m3, (0, -2, 0), sol)["max_violation"] < 1e-9


def test_verifier_accepts_hand_built_row(m3p):
    sol = EquilibriumSolution(
        d=np.array([0.0, 1.0, 0.0]),
        forces=np.array([[1, -0.5], [0, 0], [1, 0.5]]),
        labels=(1, 0, -1), state_index=-1,
        max_eq_residual=0.0, min_ineq_slack=0.0)
    assert check_solution(m3p, (0, 1, 0), sol)["max_violation"] < 1e-12


def test_verifier_flags_corruption(m3p):
    sol = solve_state(m3p, (0, 1, 0), (1, 0, -1))
    sol.forces[0, 1] *= -1  # flip one friction sign
    report = check_solution(m3p, (0, 1, 0), sol)
    assert report["max_violation"] > 0.1
    assert report["slip_edge"] > 0.1


def test_verifier_independent_of_assembly(m4):
    # detached bookkeeping recomputed from geometry alone
    sol = solve_state(m4, (0, 0, 3), (-1, DETACHED, 0, DETACHED))
    report = check_solution(m4, (0, 0, 3), sol)
    assert report["max_violation"] < 1e-9
    assert report["detached"] < 1e-12


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------

def test_scaling_homogeneity(m3p):
    lam = 3.7
    scaled = three_contact(True)
    scaled.preload = scaled.preload * lam
    base = solve_state(m3p, (0, 1, 0), (1, 0, -1))
    big = solve_state(scaled, (0, lam, 0), (1, 0, -1))
    assert np.allclose(big.d, lam * base.d, atol=1e-8)
    assert np.allclose(big.forces, lam * base.forces, atol=1e-8)


def test_frame_independence_under_mirroring():
    # mirror the grasp about the y-axis: world forces must mirror with it
    w = np.array([0.3, -1.0, 0.4])
    model = three_contact()
    mirrored = GraspModel(
        [Contact([-c.position[0], c.position[1]],
                 [-c.normal[0], c.normal[1]], c.mu) for c in model.contacts])
    from graspstab import check_stability

    v1 = check_stability(model, w)
    v2 = check_stability(mirrored, [-w[0], w[1], -w[2]])
    assert v1.stable == v2.stable
    f1 = [world_force(c, f) for c, f in zip(model.contacts, v1.witness.forces)]
    f2 = [world_force(c, f) for c, f in zip(mirrored.contacts, v2.witness.forces)]
    total1 = sorted(tuple(np.round([f[0], f[1], t], 8)) for (f, t) in f1)
    total2 = sorted(tuple(np.round([-f[0], f[1], -t], 8)) for (f, t) in f2)
    assert total1 == total2
