from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.optimize import linprog

from graspstab import (brute_force_verdict, build_maps, check_stability,
                       gws_l1, gws_slice, linear_compliance_verdict)
from graspstab import Contact, GraspModel
from graspstab.baselines import SliceError, polygon_contains
from graspstab.generate import random_grasp

from conftest import four_contact, three_contact


# ---------------------------------------------------------------------------
# exhaustive search
# ---------------------------------------------------------------------------

def test_brute_force_matches_table_rows(m3):
    assert brute_force_verdict(m3, (0, -1, 0)).stable
    assert not brute_force_verdict(m3, (0, 1, 0)).stable


def test_brute_force_guard():
    # one contact past the exhaustive search's limit of 12
    ang = np.linspace(0.0, 2.0 * np.pi, 13, endpoint=False)
    normals = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    model = GraspModel([Contact(n, n, 0.5) for n in normals])
    with pytest.raises(ValueError, match="limited to 12 contacts"):
        brute_force_verdict(model, (0, 0, 0))


def test_brute_force_state_count(m3):
    v = brute_force_verdict(m3, (0, 1, 0))  # unstable: tries everything
    assert v.states_tried == 4 ** 3  # all contacts unloaded, detachment on
    v = brute_force_verdict(m3, (0, 1, 0), detachment=False)
    assert v.states_tried == 3 ** 3


def test_oracle_equivalence_random():
    rng = np.random.default_rng(12)
    for run in range(25):
        m = int(rng.integers(2, 5))
        model = random_grasp(m, rng=rng, preload="auto" if run % 2 else "none",
                             detachment=True)
        w = rng.normal(size=3) * [1.5, 1.5, 1.0]
        fast = check_stability(model, w, witness_policy="first")
        slow = brute_force_verdict(model, w)
        assert fast.stable == slow.stable


# ---------------------------------------------------------------------------
# grasp wrench space
# ---------------------------------------------------------------------------

def test_gws_single_frictionless_contact_is_segment():
    poly = gws_l1(GraspModel([Contact([0, 0], [0, -1], 0.0)]))
    assert poly.degenerate
    assert any(np.allclose(v, [0, 1, 0]) for v in poly.vertices)
    sl = gws_slice(poly, 0.0)
    assert sl.degenerate


def _frictionless(*ys):
    """Frictionless contacts at (0, y), each with normal (-1, 0): unit
    normal force gives the generating wrench (1, 0, -y)."""
    return GraspModel([Contact([0, y], [-1, 0], 0.0) for y in ys])


def test_gws_slice_of_a_segment_is_its_two_ends():
    # the crossings (0.5, 0), (0.75, 0) and (1, 0) lie on one segment
    sl = gws_slice(gws_l1(_frictionless(-1, -2, -3)), 1.5)
    assert sl.degenerate
    assert sl.vertices.tolist() == [[0.5, 0.0], [1.0, 0.0]]


def test_flat_gws_keeps_only_extreme_points():
    # (1, 0, 2) lies between (1, 0, 1) and (1, 0, 3)
    poly = gws_l1(_frictionless(-1, -2, -3))
    assert poly.degenerate
    assert sorted(map(tuple, poly.vertices.tolist())) == \
        [(0.0, 0.0, 0.0), (1.0, 0.0, 1.0), (1.0, 0.0, 3.0)]


def test_flat_gws_keeps_nearby_extreme_points():
    # (1, 0, 1.000003) is a vertex 3e-6 from (1, 0, 1), not a copy of it
    poly = gws_l1(_frictionless(-1, -1.000003))
    assert poly.degenerate
    assert sorted(map(tuple, poly.vertices.tolist())) == \
        [(0.0, 0.0, 0.0), (1.0, 0.0, 1.0), (1.0, 0.0, 1.000003)]


def test_gws_nan_friction_is_an_error():
    # refused before qhull sees the NaN points: only a flat point set is
    # degenerate
    model = three_contact()
    model.contacts[0] = Contact(model.contacts[0].position,
                                model.contacts[0].normal, math.nan)
    with pytest.raises(ValueError, match="non-finite friction coefficient"):
        gws_l1(model)


def test_gws_three_contact_slice_contains_disc(m3):
    sl = gws_slice(gws_l1(m3), 0.0)
    assert not sl.degenerate
    for ang in np.linspace(0, 2 * np.pi, 64, endpoint=False):
        assert polygon_contains(sl.vertices, 0.2 * np.array([np.cos(ang), np.sin(ang)]))


def test_gws_four_contact_symmetry(m4):
    # 180-degree rotation of the plane: forces negate, torque is invariant
    poly = gws_l1(m4)
    verts = {tuple(np.round(v, 9)) for v in poly.vertices}
    rotated = {tuple(np.round([-v[0], -v[1], v[2]], 9)) for v in poly.vertices}
    assert rotated == verts


def test_gws_slice_out_of_range(m3):
    with pytest.raises(SliceError):
        gws_slice(gws_l1(m3), 99.0)


def test_gws_vertices_are_achievable(m3):
    # each hull vertex admits cone-feasible forces with c_n <= 1
    maps = build_maps(m3)
    n = 2 * m3.m
    rows, rhs = [], []
    for i, c in enumerate(m3.contacts):
        for coef in ([1.0, 0.0], [c.mu, -1.0], [c.mu, 1.0], [-1.0, 0.0]):
            row = np.zeros(n)
            row[2 * i], row[2 * i + 1] = coef
            rows.append(row)
            rhs.append(-1.0 if coef[0] < 0 else 0.0)
    for v in gws_l1(m3).vertices:
        res = linprog(np.zeros(n), A_ub=-np.array(rows), b_ub=-np.array(rhs),
                      A_eq=maps.wrench, b_eq=v, bounds=(-5, 5),
                      method="highs")
        assert res.status == 0


# ---------------------------------------------------------------------------
# linear compliance
# ---------------------------------------------------------------------------

def test_linear_compliance_false_negative(m3):
    # the documented failure: full solver stable, linear model not
    assert not linear_compliance_verdict(m3, (0, -1, 0), 1.0).stable
    assert check_stability(m3, (0, -1, 0)).stable


def test_linear_compliance_zero_wrench(m3):
    v = linear_compliance_verdict(m3, (0, 0, 0), 1.0)
    assert v.stable
    assert np.allclose(v.witness.forces, 0)


def test_linear_compliance_rejects_bad_stiffness(m3):
    with pytest.raises(ValueError):
        linear_compliance_verdict(m3, (0, 0, 0), 0.0)
    # an infinite stiffness once reached the SVD, which did not converge
    for bad in (math.inf, math.nan, [1.0, math.inf, 1.0],
                [1.0, 1.0, math.nan]):
        with pytest.raises(ValueError, match="finite and positive"):
            linear_compliance_verdict(m3, (0, -1, 0), bad)


def test_linear_compliance_conservative_on_random():
    rng = np.random.default_rng(5)
    for _ in range(20):
        model = random_grasp(int(rng.integers(2, 5)), rng=rng, preload="auto")
        w = rng.normal(size=3)
        lin = linear_compliance_verdict(model, w, 1.0)
        if lin.stable:
            assert check_stability(model, w, witness_policy="first").stable
