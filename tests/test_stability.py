from __future__ import annotations

import math

import numpy as np
import pytest

from graspstab import (Contact, GraspModel, check_solution, check_stability,
                       enumerate_slip_states, max_resistible, resistible_region)
from graspstab.generate import random_grasp

from conftest import FIXTURES, four_contact, three_contact


def test_unpreloaded_upward_force_unstable(m3):
    assert not check_stability(m3, (0, 1, 0)).stable


def test_preloaded_upward_threshold(m3p):
    assert check_stability(m3p, (0, 1, 0)).stable
    assert not check_stability(m3p, (0, 1.1, 0)).stable


def test_four_contact_twist_detaches(m4):
    v = check_stability(m4, (0, 0, 3))
    assert v.stable
    assert v.witness.label_names.count("detached") == 2


def test_strict_mode_rejects_detachment_rows(m4):
    assert not check_stability(m4, (0, 0, 3), detachment=False).stable
    assert not check_stability(m4, (0, 0, -3), detachment=False).stable


def test_witness_passes_verifier(m3p, m4p):
    for model, w in [(m3p, (0, 1, 0)), (m4p, (0, 0, 3)), (m4p, (0, 2, 0))]:
        v = check_stability(model, w)
        assert v.stable
        assert check_solution(model, w, v.witness)["max_violation"] < 1e-9


def test_witness_policies_agree_on_verdict(m4):
    for w in [(0, 0, 3), (0, 2, 0), (1, 0, 0), (0, -1, 1)]:
        a = check_stability(m4, w, witness_policy="canonical")
        b = check_stability(m4, w, witness_policy="first")
        assert a.stable == b.stable
        if a.stable:
            assert check_solution(m4, w, b.witness)["max_violation"] < 1e-8


def test_state_reuse_matches_fresh_enumeration(m3p):
    states = enumerate_slip_states(m3p)
    for w in [(0, 0.5, 0), (0.4, -0.3, 0.2), (0, 1.05, 0)]:
        cached = check_stability(m3p, w, states=states)
        fresh = check_stability(m3p, w)
        assert cached.stable == fresh.stable
        if cached.stable:
            assert np.allclose(cached.witness.d, fresh.witness.d)


def test_max_resistible_preloaded_vertical(m3p):
    res = max_resistible(m3p, (0, 1), tol=1e-3)
    assert res.magnitude == pytest.approx(1.0, abs=1e-3)
    lo, hi = res.bracket
    assert check_stability(m3p, (0, lo, 0)).stable
    assert not check_stability(m3p, (0, hi, 0)).stable


def test_max_resistible_four_contact(m4p):
    res = max_resistible(m4p, (0, 1), tol=1e-3)
    assert res.magnitude == pytest.approx(2.0, abs=1e-3)


def test_max_resistible_passive_direction_uncapped(m3):
    res = max_resistible(m3, (0, -1), tol=1e-3, cap=1e3)
    assert res.at_least_cap


def test_max_resistible_rejects_bad_args(m3):
    with pytest.raises(ValueError):
        max_resistible(m3, (0, 1), tol=-1)


@pytest.mark.parametrize("bad", [
    {"tol": 0}, {"tol": math.nan}, {"tol": math.inf},
    {"cap": 0}, {"cap": -1}, {"cap": math.nan}, {"cap": math.inf},
])
def test_max_resistible_rejects_non_finite_or_zero_args(m3, bad):
    # a NaN tol ended the bisection at once, with cap / 2 for the +y pull
    # of three_contact, which holds nothing
    with pytest.raises(ValueError, match="finite and positive"):
        max_resistible(m3, (0, 1), **bad)


def test_region_sweep_unpreloaded(m3):
    sweep = resistible_region(m3, 8, tol=1e-3, cap=1e3)
    for res in sweep.results:
        if res.direction[1] > 1e-12:
            assert res.magnitude == pytest.approx(0.0, abs=1e-3)
        else:
            assert res.at_least_cap


def test_region_sweep_preloaded(m3p):
    sweep = resistible_region(m3p, 8, tol=1e-3, cap=1e3)
    by_dir = {tuple(np.round(r.direction, 6)): r for r in sweep.results}
    assert by_dir[(0.0, 1.0)].magnitude == pytest.approx(1.0, abs=1e-3)
    assert by_dir[(0.0, -1.0)].at_least_cap
    assert all(not r.at_least_cap for r in sweep.results if r.direction[1] > 1e-6)


def test_region_sweep_minimum_directions(m3):
    with pytest.raises(ValueError):
        resistible_region(m3, 3)


def test_random_grasp_witnesses_verify():
    for seed in range(5):
        model = random_grasp(4, rng=seed, preload="auto", detachment=True)
        w = np.random.default_rng(seed).normal(size=3)
        v = check_stability(model, w)
        if v.stable:
            assert check_solution(model, w, v.witness)["max_violation"] < 1e-8


def _count_witness_lps(monkeypatch):
    from graspstab import stability

    calls = []
    ladder = stability.linear_feasibility

    def counted(*args, **kwargs):
        calls.append(1)
        return ladder(*args, **kwargs)

    monkeypatch.setattr(stability, "linear_feasibility", counted)
    return calls


def test_direct_states_canonical_witness_runs_no_lp(m3, monkeypatch):
    # Table I row 3: its three feasible states are all direct, so their
    # slip speeds are read off their solutions
    calls = _count_witness_lps(monkeypatch)
    v = check_stability(m3, (0, -1, 0), detachment=True)
    assert v.stable and calls == []
    assert np.allclose(v.witness.forces, [[0, 0], [1, 0], [0, 0]],
                       rtol=0, atol=1e-12)
    assert np.allclose(v.witness.d, (0, -1, 0), rtol=0, atol=1e-12)


def test_flat_singular_winner_keeps_its_solution():
    # the winning state's null space moves only the forces, so no slip
    # speed varies on it: its witness is its own max-min-slack point,
    # whatever else is feasible, and so equals the "first" witness
    from graspstab.generate import balanced_preload

    r = math.sqrt(0.5)
    contacts = [Contact(p, n, 0.5) for p, n in zip(
        [(-0.5, -0.5), (0, 0.5), (0, -1.5), (0, 0.5)],
        [(0, 1), (0, 1), (0, -1), (r, r)])]
    model = GraspModel(contacts)
    model.preload = balanced_preload(model)
    w = (1.5, 0.5, 1)
    canon = check_stability(model, w)
    first = check_stability(model, w, witness_policy="first")
    assert canon.witness.state_index == first.witness.state_index
    assert np.allclose(canon.witness.forces, first.witness.forces,
                       rtol=0, atol=1e-12)
    assert canon.witness.min_ineq_slack > 1e-3


def test_query_path_runs_no_simplex(monkeypatch):
    # every state LP runs in its null space; the dense simplex serves only
    # the balanced preload of generated grasps
    from graspstab import lp
    from graspstab.grasp_io import load_grasp_file
    from test_acceptance import TABLE_I, TABLE_III

    calls = []
    solve_lp = lp.solve_lp

    def counted(*args, **kwargs):
        calls.append(1)
        return solve_lp(*args, **kwargs)

    monkeypatch.setattr(lp, "solve_lp", counted)
    for w, preloaded, *_ in TABLE_I:
        check_stability(three_contact(preloaded), w)
    for w, preloaded, *_ in TABLE_III:
        check_stability(four_contact(preloaded), w, detachment=True)
    for w in [(0, 0, 3), (0, 0, -3)]:
        check_stability(four_contact(False), w, detachment=False)
    for path in sorted(FIXTURES.glob("*.grasp")):
        resistible_region(load_grasp_file(path)[0], 8)
    assert calls == []
    random_grasp(4, 0, preload="auto")
    assert calls


# ---------------------------------------------------------------------------
# prepared states
# ---------------------------------------------------------------------------

def test_prepared_states_are_lazy_and_shared(m3p, monkeypatch):
    from graspstab import equilibrium
    from graspstab.equilibrium import PreparedStates

    calls = []
    assemble = equilibrium.assemble_state_system

    def counted(*args, **kwargs):
        calls.append(1)
        return assemble(*args, **kwargs)

    states = enumerate_slip_states(m3p)
    wrenches = [(0, 0.5, 0), (0.4, -0.3, 0.2), (0, 1.05, 0), (0, 2, 0)]
    fresh = [check_stability(m3p, w, states=states) for w in wrenches]
    monkeypatch.setattr(equilibrium, "assemble_state_system", counted)
    prepared = PreparedStates(m3p, states)
    v = check_stability(m3p, (0, -1, 0), states=prepared, witness_policy="first")
    # "first" stops at the first feasible state and prepares no further
    assert v.stable and len(calls) == v.states_tried < len(states)
    for w, ref in zip(wrenches, fresh):
        shared = check_stability(m3p, w, states=prepared)
        assert (shared.stable, shared.states_tried) == \
            (ref.stable, ref.states_tried)
        if shared.stable:
            assert np.allclose(shared.witness.forces, ref.witness.forces,
                               atol=1e-12)
    # each state was assembled once, when a query first reached it
    assert len(calls) == len(states)


# ---------------------------------------------------------------------------
# metamorphic: a rigid frame change of grasp and wrench together
# ---------------------------------------------------------------------------

def _moved(model, angle, shift):
    """The grasp rotated by angle about the origin, then translated."""
    c, s = math.cos(angle), math.sin(angle)
    rot = np.array([[c, -s], [s, c]])
    contacts = [Contact(rot @ ct.position + shift, rot @ ct.normal, ct.mu)
                for ct in model.contacts]
    moved = GraspModel(contacts, stiffness=model.stiffness,
                       preload=model.preload, options=model.options)
    return moved, rot


def _moved_wrench(w, rot, shift):
    # the same line of action: the torque about the new origin gains t x f
    f = rot @ np.asarray(w[:2], dtype=float)
    return np.array([f[0], f[1], w[2] + shift[0] * f[1] - shift[1] * f[0]])


FRAME_WRENCHES = [(0, -1, 0), (0, 1, 0), (0, 1.1, 0), (0, -2, 0), (0, 2, 0),
                  (0, 0, 3), (0, 0, -3), (1, 0, 0), (0.4, -0.3, 0.2),
                  (-1.5, 1.5, 1)]


@pytest.mark.parametrize("preloaded", [False, True])
@pytest.mark.parametrize("make", [three_contact, four_contact])
def test_rigid_frame_change_keeps_verdict_and_forces(make, preloaded):
    model = make(preloaded)
    for angle, shift in [(0.7, (0.3, -1.2)), (-2.0, (2.5, 0.5))]:
        shift = np.array(shift)
        moved, rot = _moved(model, angle, shift)
        for w in FRAME_WRENCHES:
            v = check_stability(model, w)
            mv = check_stability(moved, _moved_wrench(w, rot, shift))
            assert v.stable == mv.stable, (angle, w)
            if v.stable:
                assert v.witness.labels == mv.witness.labels, (angle, w)
                assert np.allclose(v.witness.forces, mv.witness.forces,
                                   rtol=0, atol=1e-8), (angle, w)
        # a pure force through the origin stays one under the rotation
        rotated, rot = _moved(model, angle, np.zeros(2))
        for u in [(0, 1), (1, 0), (0, -1), (1, 1)]:
            r = max_resistible(model, u, tol=1e-2)
            mr = max_resistible(rotated, rot @ np.array(u, dtype=float),
                                tol=1e-2)
            assert r.magnitude == mr.magnitude, (angle, u)
