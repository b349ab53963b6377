from __future__ import annotations

import math

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from graspstab import (Contact, GraspModel, build_maps, check_solution,
                       check_stability, enumerate_slip_states,
                       linear_feasibility, max_resistible,
                       resistible_region, solve_state)
from graspstab.arrangement import DETACHED
from graspstab.equilibrium import PreparedStates
from graspstab.generate import balanced_preload, random_grasp
from graspstab.grasp_io import load_grasp_file
from graspstab.params import FLAT_REL, WITNESS_DIGITS, WITNESS_TIE
from graspstab.stability import _feasible_states, _separating_direction

from conftest import (FIXTURES, criterion_4_stream, four_contact,
                      off_centre_grasp, oracle, three_contact)
from test_arrangement import degenerate_grasps


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


def test_max_resistible_tol_below_float_spacing_ends(m3p):
    # no bracket narrower than the floats near the exit exists: it ends
    # at two adjacent floats (the probing bisection looped forever)
    lo, hi = max_resistible(m3p, (0, 1), tol=1e-300).bracket
    assert np.nextafter(lo, math.inf) == hi


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


@pytest.mark.parametrize("n", [4.0, 4.5])
def test_region_sweep_refuses_non_integer_count(m3, n):
    with pytest.raises(ValueError, match="integer"):
        resistible_region(m3, n)


def test_region_sweep_takes_numpy_integer_count(m3):
    sweep = resistible_region(m3, np.int64(8))
    assert sweep.n_directions == 8 and len(sweep.results) == 8


def test_random_grasp_witnesses_verify():
    for seed in range(5):
        model = random_grasp(4, rng=seed, preload="auto", detachment=True)
        w = np.random.default_rng(seed).normal(size=3)
        v = check_stability(model, w)
        if v.stable:
            assert check_solution(model, w, v.witness)["max_violation"] < 1e-8


def _count_witness_lps(monkeypatch):
    """(ladders, witness LPs): the labels of the states whose objective-free
    point LPs run, and of those whose witness LP runs, each with
    whether it found a point, in the order they run."""
    from graspstab import equilibrium, stability

    ladders, witness = [], []
    ladder, witness_lp = equilibrium.linear_feasibility, \
        stability.linear_feasibility

    def counted_ladder(prep, w, **kwargs):
        ladders.append(prep.system.labels)
        return ladder(prep, w, **kwargs)

    def counted_witness(prep, w, **kwargs):
        sol = witness_lp(prep, w, **kwargs)
        witness.append((prep.system.labels, sol is not None))
        return sol

    monkeypatch.setattr(equilibrium, "linear_feasibility", counted_ladder)
    monkeypatch.setattr(stability, "linear_feasibility", counted_witness)
    return ladders, witness


def test_direct_states_canonical_witness_runs_no_lp(m3, monkeypatch):
    # Table I row 3: its three feasible states are all direct, so their
    # slip speeds are read off their solutions
    ladders, witness = _count_witness_lps(monkeypatch)
    v = check_stability(m3, (0, -1, 0), detachment=True)
    assert v.stable and ladders == [] and witness == []
    assert np.allclose(v.witness.forces, [[0, 0], [1, 0], [0, 0]],
                       rtol=0, atol=1e-12)
    assert np.allclose(v.witness.d, (0, -1, 0), rtol=0, atol=1e-12)


def _flat(prep) -> bool:
    """No slip speed of the state varies over its solutions."""
    return all(np.linalg.norm(r @ prep.null[:3]) <= FLAT_REL * np.linalg.norm(r)
               for r in prep.system.slip_dirs.values())


def test_canonical_query_runs_one_lp_per_non_flat_feasible_state(monkeypatch):
    # Table III: a canonical query ranks the feasible states on the slip
    # speeds the batch reads (PreparedStates.slip_speeds), so its witness
    # and point LPs run only for three groups: the winner, the first
    # feasible state when it is singular, and the states whose own LPs
    # give their speeds, those of nullity 2 or more and any the batch
    # left unread. Each of these runs one witness LP where its slip
    # speeds vary, and the point LPs where they do not (flat) or where
    # its witness LP failed
    from test_acceptance import TABLE_III

    lps = skipped = 0
    for w, preloaded, *_ in TABLE_III:
        model = four_contact(preloaded)
        states = enumerate_slip_states(model, detachment=True)
        batch = states.prepared
        w = np.asarray(w, dtype=float)
        feasible = [p for p in range(len(batch))
                    if solve_state(model, w, batch[p]) is not None]
        positions, _speeds, read = batch.slip_speeds(w)
        unread = set(positions[~read].tolist())
        ladders, witness = _count_witness_lps(monkeypatch)
        v = check_stability(model, w, states=states)
        monkeypatch.undo()
        assert v.stable == bool(feasible), w
        own = unread.intersection(feasible)
        if v.stable:
            own.add(v.witness.state_index)
            if not batch.direct[v.first_feasible]:
                own.add(v.first_feasible)
        ran = [batch[p] for p in sorted(own)]
        assert sorted(labels for labels, _ok in witness) == \
            sorted(p.system.labels for p in ran if not _flat(p)), w
        failed = {labels for labels, ok in witness if not ok}
        assert sorted(ladders) == sorted(
            p.system.labels for p in ran
            if not p.direct and (_flat(p) or p.system.labels in failed)), w
        lps += len(witness) + len(ladders)
        skipped += sum(not _flat(batch[p]) for p in feasible if p not in own)
    # the non-flat feasible states whose witness LP no longer runs
    assert 0 < lps < skipped


GRID_WRENCHES = [(fx, fy, tz) for fx in (-2, -1, 0, 1, 2) for fy in (-2, 0, 2)
                 for tz in (-1, 0, 1)]


def _per_state_witness(states, w, dropped=()):
    """(first_feasible, witness) of the canonical query, or None, found one
    state at a time: every candidate is sliced, and each feasible one
    runs its own witness LP (or its point's LPs) before one ranking. The
    states at the positions dropped hold nowhere."""
    batch = states.prepared
    entries = []
    for p in batch.candidates(w).tolist():
        st = batch[p]
        if p in dropped or not (st.direct or batch.screened[p]
                                or st.passes_screen(w)):
            continue
        sol = st.solution_at(w) if st.direct else None
        sys = st.system
        slipping = sorted(sys.slip_dirs)
        dirs = np.array([sys.slip_dirs[i] for i in slipping]).reshape(-1, 3)
        flat = np.all(np.linalg.norm(dirs @ st.null[:3], axis=1)
                      <= FLAT_REL * np.linalg.norm(dirs, axis=1))
        if not flat:
            rows = np.zeros((1 + len(dirs), sys.n))
            rows[0, :3], rows[1:, :3] = dirs.sum(axis=0), -dirs
            lex = linear_feasibility(st, w, objective=rows)
            if lex is not None:
                sol = lex
        if sol is None:
            sol = linear_feasibility(st, w)
        if sol is None:
            continue
        speeds = np.zeros(len(sys.labels))
        speeds[slipping] = dirs @ sol.d
        entries.append((float(speeds.sum()),
                        tuple(np.round(speeds, WITNESS_DIGITS)), sol))
    if not entries:
        return None
    t_star = min(total for total, _key, _sol in entries)
    cap = t_star + WITNESS_TIE * (1.0 + abs(t_star))
    _key, witness = max(((key, sol) for total, key, sol in entries
                         if total <= cap), key=lambda e: e[0])
    return entries[0][2].state_index, witness


def _assert_witness_matches_per_state(model, detachment, wrenches) -> int:
    """The canonical verdict equals ``_per_state_witness``'s, bit for bit,
    on each wrench; returns how many of the feasible states ranked on
    the batch's speeds ran no LP of their own."""
    states = enumerate_slip_states(model, detachment=detachment)
    alone = enumerate_slip_states(model, detachment=detachment)
    read = 0
    for w in np.asarray(wrenches, dtype=float):
        v = check_stability(model, w, states=states)
        ref = _per_state_witness(alone, w)
        if v.separating_direction is not None:
            assert ref is None, w
            continue
        assert v.stable == (ref is not None), w
        if ref is None:
            continue
        first, witness = ref
        assert v.first_feasible == first, w
        assert v.witness.labels == witness.labels, w
        assert v.witness.state_index == witness.state_index, w
        assert np.array_equal(v.witness.d, witness.d), w
        assert np.array_equal(v.witness.forces, witness.forces), w
        positions, _speeds, batch_read = states.prepared.slip_speeds(w)
        read += int(np.count_nonzero(batch_read & ~states.prepared.direct[
            positions]))
    return read


@pytest.mark.parametrize("detachment", [False, True])
@pytest.mark.parametrize("path", sorted(FIXTURES.glob("*.grasp")),
                         ids=lambda p: p.stem)
def test_batch_ranked_witness_matches_per_state_fixtures(path, detachment):
    model = load_grasp_file(path)[0]
    assert _assert_witness_matches_per_state(model, detachment,
                                             GRID_WRENCHES) > 0


def test_batch_ranked_witness_matches_per_state_random():
    rng = np.random.default_rng(2424)
    for k in range(40):
        model = random_grasp(2 + k % 4, rng=rng,
                             preload="auto" if k // 4 % 2 else "none")
        loads = rng.normal(size=(12, 3)) * [2.0, 2.0, 1.5]
        for detachment in (False, True):
            _assert_witness_matches_per_state(model, detachment, loads)


def test_batch_ranked_witness_matches_per_state_off_centre():
    # off-centre grasps, whose region states are direct: the batch ranks
    # them on the slip speeds of their one solution
    rng = np.random.default_rng(2626)
    for k in range(16):
        detachment = bool(k % 2)
        model = off_centre_grasp(2 + k % 4, rng, preload=k // 4 % 2 == 1,
                                 detachment=detachment)
        _assert_witness_matches_per_state(
            model, detachment, rng.normal(size=(12, 3)) * [2.0, 2.0, 1.5])


def test_a_state_whose_own_lps_fail_drops_out_of_the_ranking(monkeypatch):
    # where the winner's or the first state's own code finds no point,
    # that state drops out and the rest are ranked again, as the
    # per-state walk ranks the states without it (a direct first state
    # runs no code of its own unless it wins: it cannot drop out)
    from graspstab import stability

    own_point = stability._own_point
    cases = 0
    for preloaded in (False, True):
        model = four_contact(preloaded)
        batch = enumerate_slip_states(model, detachment=True).prepared
        for w in np.asarray(GRID_WRENCHES, dtype=float):
            v = check_stability(model, w, detachment=True)
            if not v.stable:
                continue
            gone_ones = {v.witness.state_index}
            if not batch.direct[v.first_feasible]:
                gone_ones.add(v.first_feasible)
            for gone in gone_ones:
                monkeypatch.setattr(
                    stability, "_own_point", lambda st, w, gone=gone:
                    None if st.index == gone else own_point(st, w))
                dv = check_stability(model, w, detachment=True)
                monkeypatch.undo()
                ref = _per_state_witness(
                    enumerate_slip_states(model, detachment=True), w, {gone})
                assert dv.stable == (ref is not None), w
                if ref is not None:
                    assert dv.first_feasible == ref[0], w
                    assert dv.witness.state_index == ref[1].state_index, w
                    assert np.array_equal(dv.witness.d, ref[1].d), w
                    assert np.array_equal(dv.witness.forces,
                                          ref[1].forces), w
                cases += 1
    assert cases >= 40


@settings(max_examples=30, deadline=None)
@given(degenerate_grasps())
def test_batch_ranked_witness_matches_per_state_degenerate(case):
    model, detachment = case
    _assert_witness_matches_per_state(model, detachment, [
        (0, -1, 0), (0, 1, 0), (0.5, 0, 0), (-1, 0.5, 0.5), (0, 0, 1),
        (0, 0, 0), (0.3, -0.7, -0.2)])


def _assert_screened_states_have_points(model, detachment, wrenches):
    """Every singular state that passes its screen under a wrench gets a
    point from its two boxes, so the canonical walk, which decides such
    a state by its screen alone, keeps only states that hold."""
    batch = enumerate_slip_states(model, detachment=detachment).prepared
    for w in np.asarray(wrenches, dtype=float):
        for p in np.flatnonzero(~batch.direct).tolist():
            if batch[p].passes_screen(w):
                assert linear_feasibility(batch[p], w) is not None, \
                    (w, batch[p].system.labels)


@pytest.mark.parametrize("detachment", [False, True])
@pytest.mark.parametrize("path", sorted(FIXTURES.glob("*.grasp")),
                         ids=lambda p: p.stem)
def test_screen_alone_loses_no_state(path, detachment):
    _assert_screened_states_have_points(load_grasp_file(path)[0], detachment,
                                        GRID_WRENCHES)


@settings(max_examples=30, deadline=None)
@given(degenerate_grasps())
def test_screen_alone_loses_no_state_degenerate(case):
    model, detachment = case
    _assert_screened_states_have_points(model, detachment, [
        (0, -1, 0), (0, 1, 0), (0.5, 0, 0), (-1, 0.5, 0.5), (0, 0, 1),
        (0, 0, 0), (0.3, -0.7, -0.2)])


def test_flat_singular_winner_keeps_its_solution():
    # the winning state's null space moves only the forces, so no slip
    # speed varies on it: its witness is its own max-min-slack point,
    # whatever else is feasible, and so equals the "first" witness
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

def test_prepared_states_batch_is_built_once_and_shared(m3p, monkeypatch):
    from graspstab import equilibrium

    calls = []
    condense = equilibrium._condense

    def counted(*args, **kwargs):
        calls.append(1)
        return condense(*args, **kwargs)

    wrenches = [(0, 0.5, 0), (0.4, -0.3, 0.2), (0, 1.05, 0), (0, 2, 0)]
    fresh = [check_stability(m3p, w) for w in wrenches]
    monkeypatch.setattr(equilibrium, "_condense", counted)
    states = enumerate_slip_states(m3p)
    # enumeration alone condenses nothing
    assert calls == []
    v = check_stability(m3p, (0, -1, 0), states=states, witness_policy="first")
    # the whole batch is condensed and factored on the first query, once
    assert len(calls) == 1
    # "first" stops at the first feasible state
    assert v.stable and v.states_tried < len(states)
    for w, ref in zip(wrenches, fresh):
        shared = check_stability(m3p, w, states=states)
        assert (shared.stable, shared.states_tried) == \
            (ref.stable, ref.states_tried)
        if shared.stable:
            assert np.allclose(shared.witness.forces, ref.witness.forces,
                               atol=1e-12)
    for u in [(0, 1), (1, -0.5)]:
        assert max_resistible(m3p, u, states=states).magnitude == \
            max_resistible(m3p, u).magnitude
    # the calls above without states enumerated and condensed their own
    assert len(calls) == 3
    # every query shared that batch and its sliced-out states
    assert states.prepared is states.prepared
    assert states.prepared[0] is states.prepared[0]


def test_states_of_another_model_are_refused(m3p):
    states = enumerate_slip_states(m3p)
    # an equal grasp, but another model object
    other = three_contact(True)
    with pytest.raises(ValueError, match="another model"):
        check_stability(other, (0, -1, 0), states=states)
    with pytest.raises(ValueError, match="another model"):
        max_resistible(other, (0, 1), states=states)
    assert check_stability(m3p, (0, -1, 0), states=states).stable


def test_states_of_another_detachment_mode_are_refused():
    model, _name = load_grasp_file(FIXTURES / "four_contact.grasp")
    w = (0, 0, 3)
    states = enumerate_slip_states(model, detachment=True)
    for call in (lambda: check_stability(model, w, detachment=False,
                                         states=states),
                 lambda: max_resistible(model, (0, 1), detachment=False,
                                        states=states)):
        with pytest.raises(ValueError, match="detachment"):
            call()
    # without states the mode decides the verdict, so it cannot be ignored
    assert not check_stability(model, w, detachment=False).stable
    assert check_stability(model, w, detachment=True, states=states).stable


@pytest.mark.parametrize("policy", ["frist", "Canonical", ""])
def test_unknown_witness_policy_is_refused(m3, policy):
    with pytest.raises(ValueError, match="witness_policy"):
        check_stability(m3, (0, -1, 0), witness_policy=policy)


# ---------------------------------------------------------------------------
# the batch against the per-state loop
# ---------------------------------------------------------------------------

def _rows_of(model, labels):
    """One state's blocks at zero load, assembled row by row."""
    maps = build_maps(model)
    m = model.m
    n = 3 + 2 * m
    a_eq, b_eq = np.zeros((n, n)), np.zeros(n)
    a_eq[:3, 3:] = maps.wrench
    rows, kinds = [], []
    for i, label in enumerate(labels):
        ncol, tcol = maps.motion[:, 2 * i], maps.motion[:, 2 * i + 1]
        cn, ct = 3 + 2 * i, 4 + 2 * i
        mu = model.contacts[i].mu
        a_eq[cn, cn] = 1.0
        if label == DETACHED:
            a_eq[ct, ct] = 1.0
            rows.append(np.r_[-ncol, np.zeros(2 * m)])
            kinds.append("separation")
            continue
        a_eq[cn, :3] = -model.stiffness[i] * ncol
        b_eq[cn] = model.preload[i, 0]
        rows.append(np.eye(n)[cn])
        kinds.append("unilateral")
        if label == 0:
            a_eq[ct, :3] = tcol
            for sign in (-1.0, 1.0):
                cone = np.zeros(n)
                cone[cn], cone[ct] = mu, sign
                rows.append(cone)
                kinds.append("cone")
        else:
            a_eq[ct, ct], a_eq[ct, cn] = 1.0, mu * label
            rows.append(np.r_[label * tcol, np.zeros(2 * m)])
            kinds.append("slip_sign")
    return a_eq, b_eq, np.array(rows), kinds


def _assert_batch_matches_loop(model, detachment, wrenches):
    states = enumerate_slip_states(model, detachment=detachment)
    batch = states.prepared
    loop = [PreparedStates(model, [st.labels])[0] for st in states]
    for p, st in enumerate(states):
        sys = batch[p].system
        a_eq, b_eq, a_in, kinds = _rows_of(model, st.labels)
        assert np.array_equal(sys.a_eq, a_eq), st.labels
        assert np.array_equal(sys.b_eq, b_eq), st.labels
        assert np.array_equal(sys.a_in, a_in), st.labels
        assert sys.ineq_kind == kinds, st.labels
    for w in wrenches:
        w = np.asarray(w, dtype=float)
        _tried, feasible = _feasible_states(model, batch, w, False)
        ref = [p for p, prep in enumerate(loop)
               if solve_state(model, w, prep) is not None]
        assert [p for p, _speeds in feasible] == ref, w
        first = check_stability(model, w, states=states,
                                witness_policy="first")
        canon = check_stability(model, w, states=states)
        assert first.stable == canon.stable == bool(ref), w
        # a load the friction-cone separation test decides tries no state
        y = _separating_direction(model, w)
        for v in (first, canon):
            if y is None:
                assert v.separating_direction is None, w
            else:
                assert np.array_equal(v.separating_direction, y), w
        if y is not None:
            assert first.states_tried == canon.states_tried == 0, w
        else:
            assert first.states_tried == \
                (ref[0] + 1 if ref else len(states)), w
            assert canon.states_tried == len(states), w
        assert first.first_feasible == canon.first_feasible == \
            (ref[0] if ref else -1), w
        # the array screen rejects a singular state only where the two
        # boxes, which never read the consistency map, give no point
        kept = set(batch.candidates(w).tolist())
        for p in np.flatnonzero(~batch.direct):
            if p not in kept:
                assert linear_feasibility(batch[p], w) is None, \
                    (w, states.states[p].labels)


def _consistency_loads(model, count):
    """Loads on which a singular state's equalities, consistent only on a
    set of loads because the preload enters them, just hold."""
    batch = enumerate_slip_states(model, detachment=True).prepared
    loads = []
    for p in np.flatnonzero(~batch.direct):
        prep = batch[p]
        if len(loads) < count and np.abs(prep.cons0).max() > 1e-6 and \
                np.abs(prep.cons_gain).max() > 1e-6:
            w, *_ = np.linalg.lstsq(prep.cons_gain, -prep.cons0, rcond=None)
            loads.append(w)
    return loads


def test_batched_decision_matches_per_state_loop_random():
    rng = np.random.default_rng(99)
    for k in range(8):
        m = 2 + k % 4
        model = random_grasp(m, rng=rng, preload="auto" if k % 2 else "none",
                             detachment=True)
        wrenches = rng.normal(size=(5, 3)) * [2.0, 2.0, 1.5]
        _assert_batch_matches_loop(model, True, [
            *wrenches, *_consistency_loads(model, 2)])


@settings(max_examples=20, deadline=None)
@given(degenerate_grasps())
def test_batched_decision_matches_per_state_loop_degenerate(case):
    model, detachment = case
    _assert_batch_matches_loop(model, detachment, [
        (0, -1, 0), (0, 1, 0), (0.5, 0, 0), (-1, 0.5, 0.5), (0, 0, 1),
        (0, 0, 0)])


# ---------------------------------------------------------------------------
# degenerate geometry against the oracle that shares nothing with the batch
# ---------------------------------------------------------------------------

@st.composite
def preloaded_degenerate_grasps(draw):
    """degenerate_grasps cut to at most four contacts, for the exhaustive
    oracle; or, with a balanced preload, at most two of its contacts, each
    squeezed by an opposed contact on its normal line, so that a positive
    balanced preload mostly exists (zero where none does)."""
    model, detachment = draw(degenerate_grasps())
    if not draw(st.booleans()):
        return GraspModel(model.contacts[:4]), detachment
    contacts = []
    for c in model.contacts[:2]:
        depth = 0.5 * draw(st.integers(1, 4))
        contacts += [c, Contact(c.position - depth * c.normal, -c.normal,
                                c.mu)]
    model = GraspModel(contacts)
    model.preload = balanced_preload(model)
    return model, detachment


@settings(max_examples=50, deadline=None)
@given(preloaded_degenerate_grasps())
def test_degenerate_verdicts_match_independent_oracle(case):
    # stabbench/oracle.py decides each label vector by a direct solve or
    # HiGHS, apart from PreparedStates, which brute_force_verdict shares
    model, detachment = case
    for w in [(0, -1, 0), (0, 1, 0), (0.5, 0, 0), (-1, 0.5, 0.5), (0, 0, 1),
              (0.3, -0.7, -0.2)]:
        assert check_stability(model, w, detachment=detachment,
                               witness_policy="first").stable == \
            oracle.oracle_verdict(model, w, detachment), w


def test_off_centre_verdicts_match_independent_oracle():
    # 100 off-centre grasps of m = 2-5, a balanced preload in every other
    # pair and the detachment mode alternating, each under one load drawn
    # as criterion 4 draws it: their region states are direct, which no
    # random_grasp's are
    rng = np.random.default_rng(18)
    direct = regions = 0
    for q in range(100):
        detachment = bool(q % 2)
        model = off_centre_grasp(2 + q % 4, rng, preload=(q // 4) % 2 == 1,
                                 detachment=detachment)
        w = rng.normal(size=3) * np.array([2.0, 2.0, 1.5])
        states = enumerate_slip_states(model, detachment=detachment)
        assert check_stability(model, w, witness_policy="first",
                               states=states).stable == \
            oracle.oracle_verdict(model, w, detachment), (q, w)
        region = states.prepared.direct[states.dim_rank == 3]
        direct, regions = direct + int(region.sum()), regions + len(region)
    # 618 of 740
    assert 2 * direct > regions


def test_criterion_4_stream_matches_independent_oracle():
    # criterion 4 checks check_stability against brute_force_verdict,
    # which decides its label vectors through the same batch: the first
    # 40 of its queries against stabbench/oracle.py instead
    for run, (model, w) in zip(range(40), criterion_4_stream()):
        v = check_stability(model, w, witness_policy="first")
        assert v.stable == oracle.oracle_verdict(model, w, v.detachment), \
            (run, model.m, w)


# ---------------------------------------------------------------------------
# metamorphic: contact relabelling
# ---------------------------------------------------------------------------

def _permutations(model):
    """(perm, the grasp with contact perm[i] as its contact i): reversed
    and rotated by one."""
    m = model.m
    for perm in [list(range(m))[::-1], list(range(1, m)) + [0]]:
        yield perm, GraspModel([model.contacts[i] for i in perm],
                               stiffness=model.stiffness[perm],
                               preload=model.preload[perm],
                               options=model.options)


def off_centre(preloaded: bool) -> GraspModel:
    """An off-centre grasp of four contacts, whose normals do not meet in
    one point, with a balanced preload when preloaded."""
    return off_centre_grasp(4, np.random.default_rng(7), preload=preloaded)


@pytest.mark.parametrize("path", sorted(FIXTURES.glob("*.grasp")),
                         ids=lambda p: p.stem)
def test_contact_permutation_keeps_verdict_and_capacity(path):
    _assert_permutation_keeps_verdict_and_capacity(load_grasp_file(path)[0])


@pytest.mark.parametrize("preloaded", [False, True])
def test_contact_permutation_keeps_verdict_and_capacity_off_centre(
        preloaded):
    _assert_permutation_keeps_verdict_and_capacity(off_centre(preloaded))


def _assert_permutation_keeps_verdict_and_capacity(model):
    for perm, permuted in _permutations(model):
        for w in FRAME_WRENCHES:
            assert check_stability(model, w).stable == \
                check_stability(permuted, w).stable, (perm, w)
        for u in [(0, 1), (1, 0), (0, -1), (-1, 0.5)]:
            assert max_resistible(model, u, tol=1e-2).magnitude == \
                max_resistible(permuted, u, tol=1e-2).magnitude, (perm, u)


def _untied_direct_winner(model, w) -> bool:
    """Whether every feasible state under w is direct and one has a total
    slip speed below every other's by more than the witness tie."""
    batch = enumerate_slip_states(model).prepared
    w = np.asarray(w, dtype=float)
    _tried, feasible = _feasible_states(model, batch, w, False)
    if not feasible or not all(batch.direct[p] for p, _speeds in feasible):
        return False
    totals = sorted(sum(batch[p].system.slip_dirs.values(), np.zeros(3))
                    @ batch[p].solution_at(w).d for p, _speeds in feasible)
    return len(totals) == 1 or totals[1] - totals[0] > \
        WITNESS_TIE * (1.0 + abs(totals[0]))


def test_contact_permutation_permutes_an_untied_witness():
    # with no tie the canonical witness is one state's only solution, so
    # relabelling the contacts relabels it and nothing else; the
    # four-contact fixtures, whose normals are parallel, give no such case
    cases = 0
    models = [load_grasp_file(path)[0]
              for path in sorted(FIXTURES.glob("*.grasp"))]
    for g, model in enumerate(models + [off_centre(False), off_centre(True)]):
        untied = [w for w in GRID_WRENCHES if _untied_direct_winner(model, w)]
        for perm, permuted in _permutations(model):
            for w in untied:
                v = check_stability(model, w).witness
                pv = check_stability(permuted, w).witness
                assert pv.labels == tuple(v.labels[i] for i in perm), \
                    (g, perm, w)
                assert np.allclose(pv.forces, v.forces[perm], rtol=0,
                                   atol=1e-12), (g, perm, w)
                assert np.allclose(pv.d, v.d, rtol=0, atol=1e-12), \
                    (g, perm, w)
                cases += 1
    assert cases >= 20


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
@pytest.mark.parametrize("make", [three_contact, four_contact, off_centre])
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


@pytest.mark.parametrize("scale", [1e-3, 1e3])
@pytest.mark.parametrize("path", sorted(FIXTURES.glob("*.grasp")),
                         ids=lambda p: p.stem)
def test_length_scaling_keeps_verdict_and_states_tried(path, scale):
    _assert_length_scaling_keeps_verdict_and_states_tried(
        load_grasp_file(path)[0], scale)


@pytest.mark.parametrize("scale", [1e-3, 1e3])
@pytest.mark.parametrize("preloaded", [False, True])
def test_length_scaling_keeps_verdict_and_states_tried_off_centre(
        preloaded, scale):
    _assert_length_scaling_keeps_verdict_and_states_tried(
        off_centre(preloaded), scale)


def _assert_length_scaling_keeps_verdict_and_states_tried(model, scale):
    # contact positions scaled by k and the torque with them: the motion
    # (x, y, r / k) gives the same contact motions and forces, so the
    # same states hold, in the same canonical order
    scaled = GraspModel([Contact(c.position * scale, c.normal, c.mu)
                         for c in model.contacts], stiffness=model.stiffness,
                        preload=model.preload, options=model.options)
    for detachment in (False, True):
        for policy in ("first", "canonical"):
            for fx, fy, tz in GRID_WRENCHES:
                v = check_stability(model, (fx, fy, tz), detachment=detachment,
                                    witness_policy=policy)
                sv = check_stability(scaled, (fx, fy, scale * tz),
                                     detachment=detachment,
                                     witness_policy=policy)
                assert (sv.stable, sv.states_tried) == \
                    (v.stable, v.states_tried), (detachment, policy, fx, fy,
                                                 tz)


@pytest.mark.parametrize("scale", [1e-6, 1e3, 1e6])
@pytest.mark.parametrize("path", sorted(FIXTURES.glob("*.grasp")),
                         ids=lambda p: p.stem)
def test_force_scaling_keeps_verdict(path, scale):
    # stiffness, preload and wrench scaled together by k: the same motion
    # with every force times k solves the same states. Each state's
    # nullity is the same at every k, since one relative rank decides
    # it. Under "first", verdicts and states tried hold from k = 1e-6 to
    # 1e3, and verdicts at 1e6, since singular states' LPs box their
    # null-space coordinates, not the forces. What still moves is the
    # absolute INEQ_SLACK: at 1e6 a state feasible only on a face sees
    # its tight slacks rounded by about 1e-10 of the forces, so
    # states_tried moves on 83 of the 360 queries of both modes
    model = load_grasp_file(path)[0]
    scaled = GraspModel(model.contacts, stiffness=model.stiffness * scale,
                        preload=model.preload * scale, options=model.options)
    for detachment in (False, True):
        nullity = [[batch[p].null.shape[1] for p in range(len(batch))]
                   for batch in (
                       enumerate_slip_states(g, detachment=detachment).prepared
                       for g in (model, scaled))]
        assert nullity[1] == nullity[0], detachment
        for w in GRID_WRENCHES:
            v = check_stability(model, w, detachment=detachment,
                                witness_policy="first")
            sv = check_stability(scaled, scale * np.array(w, dtype=float),
                                 detachment=detachment,
                                 witness_policy="first")
            assert sv.stable == v.stable, (detachment, w)
            if scale < 1e6:
                assert sv.states_tried == v.states_tried, (detachment, w)


def test_force_scaling_keeps_verdict_on_preloaded_random_grasps():
    # the same scaling on preloaded five-contact grasps: at k = 1e6 the
    # all-stick origin state's motion columns outgrow its force columns,
    # and a rank cut apart from the consistency test's left 18 of these
    # 600 verdicts flipped, most at that state. At k = 1e-6, 6 still flip,
    # by the absolute INEQ_SLACK
    rng = np.random.default_rng(0)
    for i in range(100):
        model = random_grasp(5, 900 + i, preload="auto")
        scaled = GraspModel(model.contacts, stiffness=model.stiffness * 1e6,
                            preload=model.preload * 1e6,
                            options=model.options)
        for w in rng.normal(size=(3, 3)) * [2.0, 2.0, 1.5]:
            for detachment in (False, True):
                v = check_stability(model, w, detachment=detachment,
                                    witness_policy="first")
                sv = check_stability(scaled, 1e6 * w, detachment=detachment,
                                     witness_policy="first")
                assert sv.stable == v.stable, (i, w, detachment)
