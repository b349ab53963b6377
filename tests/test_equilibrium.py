from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from scipy.optimize import linprog

from graspstab import (Contact, GraspModel, assemble_state_system, build_maps,
                       check_solution, enumerate_slip_states,
                       linear_feasibility, lp, solve_state, world_force)
from graspstab.arrangement import DETACHED
from graspstab.equilibrium import EquilibriumSolution, StateSystem
from graspstab.params import DEFAULT_TOLS

from conftest import four_contact, three_contact


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
    assert sys.slip_count == 0


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

def _toy_system(a_in, b_in, n=1):
    return StateSystem(labels=(), a_eq=np.zeros((0, n)), b_eq=np.zeros(0),
                       a_in=np.array(a_in, float), b_in=np.array(b_in, float),
                       ineq_kind=["?"] * len(b_in), m=0)


def test_feasibility_trivial():
    x = linear_feasibility(_toy_system([[1.0], [-1.0]], [1.0, -3.0]))
    assert x is not None and 1.0 - 1e-8 <= x[0] <= 3.0 + 1e-8


def test_feasibility_infeasible():
    assert linear_feasibility(_toy_system([[1.0], [-1.0]], [1.0, 0.0])) is None


def test_feasibility_all_stick_underdetermined(m4p):
    # all-stick at a horizontal pull: equalities are rank-deficient but a
    # cone-feasible force family exists
    sys = assemble_state_system(m4p, (0, 2, 0), (0, 0, 0, 0))
    x = linear_feasibility(sys)
    assert x is not None
    sol = EquilibriumSolution(d=x[:3], forces=x[3:].reshape(-1, 2),
                              labels=(0, 0, 0, 0), state_index=-1,
                              max_eq_residual=0, min_ineq_slack=0)
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
    """Calls of the simplex, of the null-space LP engine and of the box
    ladder, by name."""
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
    return int(np.sum(sv <= DEFAULT_TOLS.singular_rel * sv[0]))


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
    # the screen, one null-space LP, rejects it before the box ladder runs
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
    # -0.85: a phase-1 LP over the +-x_max box let the first two into the
    # box ladder, since its row equilibration scales their residuals down
    # by ~x_max; the screen rejects all three before the ladder runs
    model = make(preloaded)
    sys = assemble_state_system(model, w, labels)
    assert _nullity(sys) == nullity
    x, margin = lp.max_min_slack(sys.a_eq, sys.b_eq, sys.a_in, sys.b_in,
                                 -100.0, 100.0)
    assert x is not None and margin < -0.2
    calls = _count_calls(monkeypatch)
    assert solve_state(model, w, labels) is None
    assert calls == {"solve_lp": 0, "small_lp": 1, "linear_feasibility": 0}


# independent feasibility check of every slip state by HiGHS (test-only:
# the program itself never uses it, being several times slower per LP).
# Wrenches: Tables I and III, a grid, and two just inside the friction
# limit of the indeterminate rows 5-6 of Table III, where the preloaded
# all-stick state is singular and feasible with a margin of only 2.5e-4.
# (0, +-0.5, +-1) reach nullity-1 states whose feasible points all lie
# away from z = 0: four_contact's (-1, detached, 1, detached) under
# (0, -0.5, 1) has slack -0.5 at z = 0 and a ladder margin of 0.5
REF_WRENCHES = sorted(
    {(0.0, 0.0, 0.0), (0.0, -1.0, 0.0), (0.0, -2.0, 0.0), (0.0, 1.0, 0.0),
     (0.0, 1.1, 0.0), (0.0, 2.0, 0.0), (0.0, 0.0, 3.0), (0.0, 0.0, -3.0),
     (0.0, 1.999, 0.0), (0.0, -1.999, 0.0)}
    | set(itertools.product((-1.5, 0.0, 1.5), (-1.5, 0.0, 1.5), (-1.0, 1.0)))
    | set(itertools.product((0.0,), (-0.5, 0.5), (-1.0, 1.0))))
REF_MARGIN = 1e-6


def _highs(sys, *, relax, bounds):
    """HiGHS on the state system: (status, max min slack capped at 1)."""
    n = sys.n
    c = np.zeros(n + 1)
    c[-1] = -1.0  # maximize the margin s in a_in x - s >= b_in - relax
    a_ub = np.hstack([-sys.a_in, np.ones((len(sys.b_in), 1))])
    a_eq = np.hstack([sys.a_eq, np.zeros((sys.a_eq.shape[0], 1))])
    res = linprog(c, A_ub=a_ub, b_ub=-(sys.b_in - relax), A_eq=a_eq,
                  b_eq=sys.b_eq, bounds=[bounds] * n + [(0.0, 1.0)],
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
    maps = build_maps(model)
    label_sets = {st.labels for detach in (False, True)
                  for st in enumerate_slip_states(model, detachment=detach)}
    x_max = DEFAULT_TOLS.x_max
    problems = []
    for w in REF_WRENCHES:
        for labels in sorted(label_sets):
            sys = assemble_state_system(model, w, labels, maps)
            sol = solve_state(model, w, labels, maps=maps)
            # infeasible even with every inequality relaxed, in all of R^n
            status, _ = _highs(sys, relax=REF_MARGIN, bounds=(None, None))
            if status == 2:
                if sol is not None:
                    problems.append(f"{w} {labels}: solved, HiGHS infeasible")
                continue
            # a point of the program's box with margin at least REF_MARGIN
            status, margin = _highs(sys, relax=0.0, bounds=(-x_max, x_max))
            if status == 0 and margin >= REF_MARGIN and sol is None:
                problems.append(f"{w} {labels}: rejected, HiGHS margin {margin:g}")
    assert not problems, problems


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
