"""Self-test of the benchmark's checks: each must flag a wrong output.

    python3 -m pytest -q stabbench/test_checks.py

Tiny inputs: a flipped verdict, a perturbed witness, a lost slip state,
a shifted sweep bracket and an op that raises ``SimplexError`` must each
be reported, and the unmodified outputs must pass, so the checks are
neither vacuous nor always failing.
"""

from __future__ import annotations

import copy
import itertools
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

gs = run.import_program()

import oracle  # noqa: E402
import workloads as W  # noqa: E402


def _outputs(ops):
    return {op.key: op.call() for op in ops}


@pytest.fixture(scope="module")
def mix():
    ops = []
    for k in range(4):
        q = W.mix_candidate(gs, 7, 3, 0, k)
        ops.append(W.Op(key=f"q{k}",
                        call=lambda q=q: gs.stability.check_stability(
                            q.model, q.w, witness_policy="first"),
                        meta={"query": q,
                              "oracle": oracle.oracle_verdict(q.model, q.w, True)}))
    return ops, _outputs(ops)


def test_oracle_mix_passes_and_flags_a_flipped_verdict(mix):
    ops, outputs = mix
    assert W.check_oracle_mix(ops, outputs, seed=7) == []
    key = ops[0].key
    bad = dict(outputs)
    bad[key] = SimpleNamespace(stable=not outputs[key].stable, witness=None)
    if bad[key].stable:  # flipped to stable: give it a witness of zeros
        m = ops[0].meta["query"].model.m
        bad[key].witness = SimpleNamespace(d=np.zeros(3), forces=np.zeros((m, 2)),
                                           labels=(0,) * m)
    problems = W.check_oracle_mix(ops, bad, seed=7)
    assert len(problems) == 1 and problems[0].startswith(key)


@pytest.fixture(scope="module")
def tables():
    ops = W.build_paper_tables(gs, run.ROOT, seed=1)
    stable_rows = [op for op in ops
                   if W.PAPER_ROWS[op.meta["row"]][4] is not None][:2]
    return stable_rows, _outputs(stable_rows)


def test_paper_tables_flags_a_perturbed_witness(tables):
    ops, outputs = tables
    assert W.check_paper_tables(ops, outputs, seed=1) == []
    key = ops[0].key
    bad = dict(outputs)
    bad[key] = copy.deepcopy(outputs[key])
    bad[key].witness.forces[0, 0] += 1e-4
    problems = W.check_paper_tables(ops, bad, seed=1)
    assert any("residual" in p for p in problems)


def test_direct_solve_agrees_with_highs():
    rng = np.random.default_rng(3)
    for preloaded in (0, 1):
        model = gs.generate.random_grasp(3, rng, preload="auto" if preloaded
                                         else "none", detachment=True)
        w = rng.normal(size=3)
        for labels in itertools.product(*oracle.label_choices(model, True)):
            assert oracle.state_feasible(model, w, labels) == \
                oracle.state_feasible_highs(*oracle.state_program(model, w, labels))


def test_residual_sees_each_condition():
    model = gs.model.GraspModel([gs.model.Contact([-1, 0], [-1, 0], 0.5),
                                 gs.model.Contact([1, 0], [1, 0], 0.5)])
    w = np.zeros(3)
    ok = oracle.residual(model, w, np.zeros(3), np.zeros((2, 2)), (0, 0))
    assert ok == 0.0
    moved = oracle.residual(model, w, np.array([0, 1e-3, 0]), np.zeros((2, 2)),
                            (0, 0))
    assert moved > 1e-4  # stick contacts that slide


def test_enumerate_large_flags_a_lost_state():
    model = gs.generate.random_grasp(3, 5, detachment=False)
    op = W.Op(key="tiny", call=None, meta={"model": model, "detachment": False})
    states = gs.arrangement.enumerate_slip_states(model, detachment=False)
    assert W.check_enumerate_large([op], {"tiny": states}, seed=1) == []
    lost = [st for st in states if st.dim != "region"] + \
        [st for st in states if st.dim == "region"][1:]
    problems = W.check_enumerate_large([op], {"tiny": lost}, seed=1)
    assert any("4m^2-4m+2" in p for p in problems)
    assert any("not enumerated" in p for p in problems)


def test_motion_labels_detach_only_unloaded_contacts():
    model = gs.model.GraspModel([gs.model.Contact([-1, 0], [-1, 0], 0.5),
                                 gs.model.Contact([1, 0], [1, 0], 0.5)],
                                preload=[[1.0, 0.0], [0.0, 0.0]])
    # moving +x separates contact 0 (preloaded) and compresses contact 1
    labels = oracle.motion_labels(model, np.array([[1.0, 0.0, 0.0],
                                                   [-1.0, 0.0, 0.0]]), True)
    assert labels[0].tolist() == [0, 0]
    assert labels[1].tolist() == [0, oracle.DETACHED]


def test_region_sweep_flags_a_shifted_bracket():
    ops = [op for op in W.build_region_sweep(gs, run.ROOT, seed=1)
           if op.meta["grasp"] == "three_contact_preload"][:2]
    outputs = _outputs(ops)
    assert W.check_region_sweep(ops, outputs, seed=1) == []
    up = next(op.key for op in ops if op.meta["u"][1] > 0.5)
    r = outputs[up]
    lo, hi = r.bracket
    bad = dict(outputs)
    bad[up] = SimpleNamespace(magnitude=r.magnitude + 0.01,
                              bracket=(lo + 0.01, hi + 0.01), direction=r.direction)
    problems = W.check_region_sweep(ops, bad, seed=1)
    assert any("criterion 5" in p for p in problems)
    assert any("oracle unstable at bracket low" in p for p in problems)


def _raise_simplex_error():
    raise gs.lp.SimplexError("phase 2 exceeded the iteration limit")


@pytest.mark.parametrize("name", list(W.WORKLOADS))
def test_a_failed_op_is_flagged_unless_expected(name):
    wl = W.WORKLOADS[name]
    ops = [W.Op(key="broken", call=_raise_simplex_error)]
    records, first, problems = run.run_rounds(gs, wl, ops, seconds=0.0)
    assert records[0][3] and "broken" not in first
    assert any(p.startswith("broken: SimplexError") for p in problems)


def test_only_the_known_large_grasp_may_fail():
    wl = W.WORKLOADS["enumerate_large"]
    keys = [op.key for op in W.build_enumerate_large(gs, run.ROOT, seed=1)]
    assert set(wl.may_fail) <= set(keys)
    ops = [W.Op(key=W.LARGE_FAILS, call=_raise_simplex_error)]
    records, _first, problems = run.run_rounds(gs, wl, ops, seconds=0.0)
    assert records[0][3] and problems == []
