"""The friction-cone separation test that decides a load before any slip
state is enumerated (``stability._separating_direction``).

Its certificates are checked against HiGHS (``scipy.optimize.linprog``)
deciding -w in K, the cone of the cone-edge wrenches, built here from
the contact data alone, and against the exhaustive search, which never
runs the test.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from scipy.optimize import linprog

import graspstab.equilibrium
import graspstab.stability
from graspstab import (Contact, GraspModel, brute_force_verdict,
                       check_stability, enumerate_slip_states)
from graspstab.generate import random_grasp
from graspstab.grasp_io import load_grasp_file
from graspstab.stability import _separating_direction

from conftest import FIXTURES, three_contact
from test_arrangement import degenerate_grasps
from test_stability import GRID_WRENCHES, _moved, _moved_wrench, _permutations

LOADS = [(0, -1, 0), (0, 1, 0), (0.5, 0, 0), (-1, 0.5, 0.5), (0, 0, 1),
         (0, 0, 0), (0.3, -0.7, -0.2), (2, 0, -1), (0, 2, 1)]


def _edges(model) -> np.ndarray:
    """The cone-edge wrenches (force_x, force_y, torque) of the contact
    forces (1, +-mu), from positions, normals and mu alone."""
    rows = []
    for c in model.contacts:
        (px, py), (nx, ny) = c.position, c.normal
        for s in (1.0, -1.0):
            fx, fy = -nx + s * c.mu * ny, -ny - s * c.mu * nx
            rows.append((fx, fy, px * fy - py * fx))
    return np.array(rows)


def _in_cone(model, w) -> bool:
    """Whether -w is a non-negative combination of the cone edges (HiGHS)."""
    g = _edges(model)
    res = linprog(np.zeros(len(g)), A_eq=g.T, b_eq=-np.asarray(w, float),
                  bounds=(0, None), method="highs")
    assert res.status in (0, 2), res.message
    return res.status == 0


def _assert_certificate(model, w, y, detachment=None):
    """y is a unit direction that no cone edge pushes against and the
    load pulls along; HiGHS and the exhaustive search find no balance."""
    w = np.asarray(w, dtype=float)
    assert y.shape == (3,) and math.isclose(np.linalg.norm(y), 1.0)
    assert np.all(_edges(model) @ y >= -1e-12), (w, _edges(model) @ y)
    assert w @ y > 0.0, w
    assert not _in_cone(model, w), w
    assert not brute_force_verdict(model, w, detachment=detachment).stable, w


def _fired(model, loads):
    return [w for w in loads
            if _separating_direction(model, np.asarray(w, float)) is not None]


# ---------------------------------------------------------------------------
# degenerate cones, against HiGHS
# ---------------------------------------------------------------------------

ONE_CONTACT = GraspModel([Contact((0.3, -0.2), (0, -1), 0.5)])
# frictionless: one generator a contact
FRICTIONLESS = GraspModel([Contact((-1, 0), (-1, 0), 0.0),
                           Contact((0, -1), (0, -1), 0.0),
                           Contact((1, 0), (1, 0), 0.0)])
# all normals parallel: an object resting on three supports
PARALLEL = GraspModel([Contact((x, -1), (0, -1), 0.5) for x in (-1, 0, 1.5)])


@pytest.mark.parametrize("model", [ONE_CONTACT, FRICTIONLESS, PARALLEL],
                         ids=["one_contact", "frictionless", "parallel"])
def test_degenerate_cone_certificates_hold(model):
    fired = _fired(model, GRID_WRENCHES + LOADS)
    for w in fired:
        _assert_certificate(model, w, _separating_direction(
            model, np.asarray(w, float)))
    assert fired
    # a load the cone balances is never refused
    for w in GRID_WRENCHES + LOADS:
        if _in_cone(model, w):
            assert w not in fired, w


def test_one_contact_fires_off_its_plane():
    # K is a wedge in a plane through the origin: a load off that plane
    # is refused along its normal, one on it but outside the wedge along
    # a direction that the plane's normal cannot give (w . normal = 0)
    edges = _edges(ONE_CONTACT)
    normal = np.cross(edges[0], edges[1])
    normal /= np.linalg.norm(normal)
    for w in [normal, -normal, normal + 0.2 * edges[0]]:
        y = _separating_direction(ONE_CONTACT, w)
        assert y is not None and abs(abs(y @ normal) - 1.0) < 1e-12
    w = edges[0] - 3 * edges[1]
    y = _separating_direction(ONE_CONTACT, w)
    assert abs(w @ normal) < 1e-12 and y is not None
    _assert_certificate(ONE_CONTACT, w, y)
    # -w inside the wedge is balanced by the contact force
    assert _separating_direction(ONE_CONTACT, -(edges[0] + edges[1])) is None


@pytest.mark.parametrize("model", [ONE_CONTACT, FRICTIONLESS],
                         ids=["one_contact", "frictionless"])
def test_flat_cone_decides_every_load_in_its_plane(model):
    # every generator lies in one plane; a load in that plane is refused
    # exactly when HiGHS finds -w outside K
    g = _edges(model)
    other = next(e for e in g if np.linalg.norm(np.cross(g[0], e)) > 0.1)
    rng = np.random.default_rng(5)
    fired = 0
    for a, b in rng.normal(size=(30, 2)):
        w = a * g[0] + b * other
        y = _separating_direction(model, w)
        assert (y is not None) == (not _in_cone(model, w)), w
        if y is not None:
            fired += 1
            _assert_certificate(model, w, y)
    assert 0 < fired < 30


def test_parallel_normals_refuse_a_pull_off_the_supports():
    v = check_stability(PARALLEL, (0, 1, 0))
    assert not v.stable and v.states_tried == 0
    _assert_certificate(PARALLEL, (0, 1, 0), v.separating_direction)


def test_force_closure_grasp_never_fires():
    # the three-contact fixture is in force closure: -w is in K for
    # every load, so the test must never fire
    model = three_contact()
    rng = np.random.default_rng(3)
    loads = GRID_WRENCHES + [tuple(w) for w in rng.normal(size=(60, 3)) * 3]
    for w in loads:
        assert _in_cone(model, w), w
    assert _fired(model, loads) == []


@settings(max_examples=30, deadline=None)
@given(degenerate_grasps())
def test_certificates_hold_on_degenerate_grasps(case):
    model, detachment = case
    for w in LOADS:
        y = _separating_direction(model, np.asarray(w, float))
        if y is not None:
            _assert_certificate(model, w, y, detachment)


def test_certificates_hold_on_random_grasps():
    rng = np.random.default_rng(11)
    fired = 0
    for k in range(40):
        model = random_grasp(2 + k % 4, rng=rng,
                             preload="auto" if k % 2 else "none")
        w = rng.normal(size=3) * [2.0, 2.0, 1.5]
        y = _separating_direction(model, w)
        if y is not None:
            fired += 1
            _assert_certificate(model, w, y, True)
        elif not _in_cone(model, w):
            # not complete, but on general-position grasps it misses none
            pytest.fail(f"missed a separable load {w}")
    assert fired >= 5


# ---------------------------------------------------------------------------
# where the test runs
# ---------------------------------------------------------------------------

def test_decided_query_enumerates_and_prepares_nothing(monkeypatch):
    states = enumerate_slip_states(PARALLEL)

    def refuse(*_args, **_kwargs):
        raise AssertionError("a decided query reached the slip states")

    monkeypatch.setattr(graspstab.stability, "enumerate_slip_states", refuse)
    monkeypatch.setattr(graspstab.equilibrium.PreparedStates, "__init__",
                        refuse)
    for policy in ("first", "canonical"):
        for kwargs in ({}, {"states": states}, {"detachment": False}):
            v = check_stability(PARALLEL, (0, 1, 0), witness_policy=policy,
                                **kwargs)
            assert not v.stable and v.witness is None
            assert v.states_tried == 0 and v.first_feasible == -1
            assert v.detachment == kwargs.get("detachment", True)
            y = v.separating_direction
            assert y is not None and math.isclose(np.linalg.norm(y), 1.0)


def test_bad_input_is_refused_before_the_test():
    # (0, 1, 0) is decided by the test on this grasp, but bad input
    # still raises
    states = enumerate_slip_states(PARALLEL)
    with pytest.raises(ValueError):
        check_stability(PARALLEL, (0, 1, 0), witness_policy="fastest")
    with pytest.raises(ValueError):
        check_stability(GraspModel(PARALLEL.contacts), (0, 1, 0),
                        states=states)
    with pytest.raises(ValueError):
        check_stability(PARALLEL, (0, 1, 0), states=states, detachment=False)
    with pytest.raises(ValueError):
        check_stability(PARALLEL, (0, math.inf, 0))


def test_exhaustive_search_never_runs_the_test(monkeypatch):
    def refuse(*_args, **_kwargs):
        raise AssertionError("the exhaustive search ran the separation test")

    monkeypatch.setattr(graspstab.stability, "_separating_direction", refuse)
    v = brute_force_verdict(PARALLEL, (0, 1, 0))
    assert not v.stable and v.states_tried > 0
    assert v.separating_direction is None


def test_other_verdicts_carry_no_direction(m3, m3p):
    assert check_stability(m3p, (0, -1, 0)).separating_direction is None
    # unstable, but -w lies in the cone: decided by the slip states
    v = check_stability(m3, (0, 1, 0))
    assert not v.stable and v.states_tried > 0
    assert v.separating_direction is None


# ---------------------------------------------------------------------------
# invariances: fixtures and random grasps under the grid of loads
# ---------------------------------------------------------------------------

def _corpus():
    """The four fixtures, which are in force closure, and random grasps,
    on which the test fires, each under the grid of loads."""
    models = [load_grasp_file(p)[0] for p in sorted(FIXTURES.glob("*.grasp"))]
    rng = np.random.default_rng(7)
    models += [random_grasp(2 + k % 4, rng=rng,
                            preload="auto" if k % 2 else "none")
               for k in range(8)]
    return models


CORPUS = _corpus()


def _directions(model, loads):
    return [_separating_direction(model, np.asarray(w, dtype=float))
            for w in loads]


def _assert_same_firing(before, after, moved=lambda y: y):
    assert [y is None for y in before] == [y is None for y in after]
    for y, y2 in zip(before, after):
        if y is not None:
            want = moved(y)
            assert np.allclose(y2, want / np.linalg.norm(want), rtol=0,
                               atol=1e-9), (y, y2)


def test_corpus_fires():
    fired = sum(y is not None for model in CORPUS
                for y in _directions(model, GRID_WRENCHES))
    assert fired >= 50


@pytest.mark.parametrize("detachment", [False, True])
def test_verdict_carries_the_test_in_both_modes(detachment):
    for model in CORPUS:
        for w, y in zip(GRID_WRENCHES, _directions(model, GRID_WRENCHES)):
            v = check_stability(model, w, detachment=detachment,
                                witness_policy="first")
            if y is None:
                assert v.separating_direction is None
            else:
                assert not v.stable and v.states_tried == 0
                assert np.array_equal(v.separating_direction, y)


def test_rigid_frame_change_moves_the_direction():
    for model in CORPUS:
        before = _directions(model, GRID_WRENCHES)
        for angle, shift in [(0.7, (0.3, -1.2)), (-2.0, (2.5, 0.5))]:
            shift = np.array(shift)
            moved, rot = _moved(model, angle, shift)
            after = _directions(moved, [_moved_wrench(w, rot, shift)
                                        for w in GRID_WRENCHES])
            # w' = T w, so y' is T^-T y: the pairing w . y is kept
            t = np.eye(3)
            t[:2, :2] = rot
            t[2, :2] = (-shift[1], shift[0]) @ rot
            _assert_same_firing(before, after,
                                lambda y: np.linalg.solve(t.T, y))


def test_contact_relabelling_keeps_the_direction():
    for model in CORPUS:
        before = _directions(model, GRID_WRENCHES)
        for _perm, permuted in _permutations(model):
            _assert_same_firing(before, _directions(permuted, GRID_WRENCHES))


@pytest.mark.parametrize("k", [1e-6, 1e-3, 1e3, 1e6])
def test_force_scaling_keeps_the_direction(k):
    for model in CORPUS:
        scaled = GraspModel(model.contacts, stiffness=k * model.stiffness,
                            preload=k * model.preload, options=model.options)
        _assert_same_firing(
            _directions(model, GRID_WRENCHES),
            _directions(scaled, [k * np.asarray(w, float)
                                 for w in GRID_WRENCHES]))


@pytest.mark.parametrize("length", [1e-3, 1e3])
def test_length_scaling_keeps_the_direction(length):
    # positions and torques scale, stiffness (force per length) inversely
    for model in CORPUS:
        scaled = GraspModel([Contact(length * c.position, c.normal, c.mu)
                             for c in model.contacts],
                            stiffness=model.stiffness / length,
                            preload=model.preload, options=model.options)
        _assert_same_firing(
            _directions(model, GRID_WRENCHES),
            _directions(scaled, [(fx, fy, length * tz)
                                 for fx, fy, tz in GRID_WRENCHES]),
            lambda y: y * (1.0, 1.0, 1.0 / length))
