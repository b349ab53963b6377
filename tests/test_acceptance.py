"""Acceptance suite: the eight gate criteria, one test each.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion. Tolerances are fixed here and match the package defaults.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from graspstab import (brute_force_verdict, check_solution, check_stability,
                       enumerate_slip_states, gws_l1, gws_slice,
                       linear_compliance_verdict, max_resistible,
                       resistible_region, zaslavsky_bound)
from graspstab.arrangement import DETACHED
from graspstab.baselines import polygon_contains
from graspstab.generate import random_grasp

from conftest import (cell_euler, criterion_4_stream, four_contact,
                      partial_cube_problem, three_contact)

VALUE_TOL = 1e-6
RESIDUAL_TOL = 1e-9
SWEEP_TOL = 1e-3


def _report(criterion: str, ok: bool, detail: str = ""):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}"
          + (f" ({detail})" if detail else ""))
    assert ok, f"{criterion} failed: {detail}"


# 1 -------------------------------------------------------------------------

TABLE_I = [
    # wrench, preloaded, stable, forces, motion
    ((0, 0, 0), False, True, [[0, 0], [0, 0], [0, 0]], (0, 0, 0)),
    ((0, 0, 0), True, True, [[1, -0.5], [1, 0], [1, 0.5]], (0, 0, 0)),
    ((0, -1, 0), False, True, [[0, 0], [1, 0], [0, 0]], (0, -1, 0)),
    ((0, -2, 0), False, True, [[0, 0], [2, 0], [0, 0]], (0, -2, 0)),
    ((0, 1, 0), False, False, None, None),
    ((0, 1, 0), True, True, [[1, -0.5], [0, 0], [1, 0.5]], (0, 1, 0)),
    ((0, 1.1, 0), True, False, None, None),
]


def test_criterion_1_three_contact_table():
    t0 = time.perf_counter()
    problems = []
    for row, (w, preloaded, stable, forces, motion) in enumerate(TABLE_I, 1):
        verdict = check_stability(three_contact(preloaded), w)
        if verdict.stable != stable:
            problems.append(f"row {row} verdict {verdict.stable}")
            continue
        if stable:
            wit = verdict.witness
            if not np.allclose(wit.forces, forces, atol=VALUE_TOL):
                problems.append(f"row {row} forces {wit.forces.tolist()}")
            if not np.allclose(wit.d, motion, atol=VALUE_TOL):
                problems.append(f"row {row} motion {wit.d.tolist()}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 1.0:
        problems.append(f"runtime {elapsed:.2f}s")
    _report("1 (three-contact table)", not problems,
            "; ".join(problems) or f"7 rows, {elapsed * 1e3:.0f} ms")


# 2 -------------------------------------------------------------------------

TABLE_III = [
    ((0, 0, 0), False, True, [[0, 0]] * 4, (0, 0, 0)),
    ((0, 0, 0), True, True, [[1, 0]] * 4, (0, 0, 0)),
    ((0, 2, 0), False, False, None, None),
    ((0, -2, 0), False, False, None, None),
    ((0, 2, 0), True, True, None, None),     # indeterminate: verdict only
    ((0, -2, 0), True, True, None, None),    # indeterminate: verdict only
    ((0, 0, 3), False, True, [[1, 0.5], [0, 0], [1, 0.5], [0, 0]], (0, -1, 1)),
    ((0, 0, -3), False, True, [[0, 0], [1, -0.5], [0, 0], [1, -0.5]], (0, 1, -1)),
    ((0, 0, 3), True, True,
     [[1.25, 0.625], [0.75, 0.375], [1.25, 0.625], [0.75, 0.375]],
     (0, -0.25, 0.25)),
    ((0, 0, -3), True, True,
     [[0.75, -0.375], [1.25, -0.625], [0.75, -0.375], [1.25, -0.625]],
     (0, 0.25, -0.25)),
]


def test_criterion_2_four_contact_table():
    t0 = time.perf_counter()
    problems = []
    for row, (w, preloaded, stable, forces, motion) in enumerate(TABLE_III, 1):
        model = four_contact(preloaded)
        verdict = check_stability(model, w, detachment=True)
        if verdict.stable != stable:
            problems.append(f"row {row} verdict {verdict.stable}")
            continue
        if stable:
            wit = verdict.witness
            if check_solution(model, w, wit)["max_violation"] > RESIDUAL_TOL:
                problems.append(f"row {row} residuals")
            if forces is not None:
                if not np.allclose(wit.forces, forces, atol=VALUE_TOL):
                    problems.append(f"row {row} forces {wit.forces.tolist()}")
                if not np.allclose(wit.d, motion, atol=VALUE_TOL):
                    problems.append(f"row {row} motion {wit.d.tolist()}")
    # rows 7-8 are infeasible under the strict constitutive reading
    for row, w in [(7, (0, 0, 3)), (8, (0, 0, -3))]:
        if check_stability(four_contact(False), w, detachment=False).stable:
            problems.append(f"row {row} not rejected under strict mode")
    elapsed = time.perf_counter() - t0
    if elapsed >= 1.0:
        problems.append(f"runtime {elapsed:.2f}s")
    _report("2 (four-contact table)", not problems,
            "; ".join(problems) or f"10 rows + strict checks, {elapsed * 1e3:.0f} ms")


# 3 -------------------------------------------------------------------------

def test_criterion_3_state_counts():
    expected = {m: 4 * m * m - 4 * m + 2 for m in range(2, 10)}
    problems = []
    rng = np.random.default_rng(31415)
    for m in range(2, 10):
        for _trial in range(20):
            states = enumerate_slip_states(random_grasp(m, rng=rng),
                                           detachment=False)
            if states.count_excluding_origin != expected[m]:
                problems.append(
                    f"m={m}: {states.count_excluding_origin} != {expected[m]}")
                break
    t0 = time.perf_counter()
    enumerate_slip_states(random_grasp(9, rng=rng), detachment=False)
    elapsed = time.perf_counter() - t0
    if elapsed >= 60.0:
        problems.append(f"m=9 enumeration took {elapsed:.1f}s")
    _report("3 (state counts 10..290)", not problems,
            "; ".join(problems) or f"20 grasps/m, m=9 in {elapsed:.2f}s")


# 4 -------------------------------------------------------------------------

def test_criterion_4_oracle_equivalence():
    mismatches = []
    slowest = 0.0
    for run, (model, w) in zip(range(200), criterion_4_stream()):
        t0 = time.perf_counter()
        fast = check_stability(model, w, witness_policy="first")
        slow = brute_force_verdict(model, w)
        slowest = max(slowest, time.perf_counter() - t0)
        if fast.stable != slow.stable:
            mismatches.append((run, model.m, tuple(w)))
    ok = not mismatches and slowest < 5.0
    _report("4 (oracle equivalence)", ok,
            f"{200 - len(mismatches)}/200 agree, slowest run {slowest:.2f}s"
            + (f"; mismatches {mismatches[:3]}" if mismatches else ""))


# 5 -------------------------------------------------------------------------

def test_criterion_5_preload_capacity():
    r3 = max_resistible(three_contact(True), (0, 1), tol=SWEEP_TOL)
    r4 = max_resistible(four_contact(True), (0, 1), tol=SWEEP_TOL)
    ok3 = abs(r3.magnitude - 1.0) <= SWEEP_TOL
    ok4 = abs(r4.magnitude - 2.0) <= SWEEP_TOL
    _report("5 (preload capacity)", ok3 and ok4,
            f"three-contact {r3.magnitude:.4f} (want 1.0), "
            f"four-contact {r4.magnitude:.4f} (want 2.0)")


# 6 -------------------------------------------------------------------------

def test_criterion_6_passive_directions():
    sweep = resistible_region(three_contact(False), 16, tol=SWEEP_TOL, cap=1e3)
    problems = []
    for res in sweep.results:
        if res.direction[1] > 1e-12:
            if not res.magnitude <= SWEEP_TOL:
                problems.append(f"dir {res.direction}: {res.magnitude}")
        elif not res.at_least_cap:
            problems.append(f"dir {res.direction}: {res.magnitude} not capped")
    _report("6 (passive directions unbounded)", not problems,
            "; ".join(problems) or "16 directions")


# 7 -------------------------------------------------------------------------

def test_criterion_7_arrangement_invariants():
    rng = np.random.default_rng(16180)
    problems = []
    for run in range(100):
        m = 2 + run % 5
        detach = bool(run % 2)
        model = random_grasp(m, rng=rng)
        states = enumerate_slip_states(model, detachment=detach)
        arr = states.arrangement
        chi, expected = cell_euler(states)
        if chi != expected:
            problems.append(f"run {run}: rays - facets + regions = {chi}")
            break
        cube = partial_cube_problem(states)
        if cube is not None:
            problems.append(f"run {run}: partial-cube violated {cube}")
            break
        n = arr.n_planes
        regions, rays = states.cells["regions"], states.cells["lines"]
        whole = int(np.count_nonzero(np.all(rays.signs == 0, axis=1)))
        counts = {3: len(regions), 2: len(states.cells["facets"]),
                  1: len(rays) - whole // 2}
        if any(counts[k] > zaslavsky_bound(n, 3, k) for k in (1, 2, 3)):
            problems.append(f"run {run}: Zaslavsky bound violated")
            break
        if not _sampling_complete(model, states, rng):
            problems.append(f"run {run}: sampling found an unlisted state")
            break
    _report("7 (arrangement invariants)", not problems,
            "; ".join(problems) or "100 instances")


def _sampling_complete(model, states, rng):
    arr = states.arrangement
    normals = arr.normals
    known = {s.labels for s in states}
    d = rng.normal(size=(10000, 3))
    d /= np.linalg.norm(d, axis=1, keepdims=True)
    signs = np.sign(normals @ d.T).astype(int)
    for col in range(signs.shape[1]):
        labels = []
        for i in range(model.m):
            js, orient = arr.separation[i].tolist()
            if states.detachment and js >= 0 and orient * signs[js, col] < 0:
                labels.append(DETACHED)
                continue
            jt, orient = arr.tangent[i].tolist()
            labels.append(orient * signs[jt, col])
        if tuple(labels) not in known:
            return False
    return True


# 8 -------------------------------------------------------------------------

def test_criterion_8_baseline_contrast():
    model = three_contact(False)
    w = (0, -1, 0)
    lin = linear_compliance_verdict(model, w, 1.0)
    full = check_stability(model, w)
    contrast_ok = (not lin.stable) and full.stable

    sl = gws_slice(gws_l1(model), 0.0)
    radius = 0.05
    disc_ok = not sl.degenerate and all(
        polygon_contains(sl.vertices,
                         radius * np.array([math.cos(a), math.sin(a)]))
        for a in np.linspace(0, 2 * math.pi, 128))
    _report("8 (baseline contrast)", contrast_ok and disc_ok,
            f"linear={lin.stable} full={full.stable}, "
            f"GWS slice holds disc r={radius}")
