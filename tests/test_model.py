from __future__ import annotations

import math
import re

import numpy as np
import pytest

from graspstab import (Contact, GraspModel, brute_force_verdict, build_maps,
                       check_stability, contact_motion, enumerate_slip_states,
                       gws_l1, linear_compliance_verdict, load_grasp_file,
                       max_resistible, random_grasp, resistible_region,
                       validate_model, world_force)
from graspstab.generate import balanced_preload
from graspstab.model import cross2

from conftest import FIXTURES, THREE_PRELOAD, three_contact, four_contact


def test_single_contact_columns():
    model = GraspModel([Contact([0, 0], [0, -1], 0.5)])
    maps = build_maps(model)
    assert np.allclose(maps.motion[:, 0], [0, -1, 0])
    assert np.allclose(maps.motion[:, 1], [-1, 0, 0])


def test_three_contact_columns():
    maps = build_maps(three_contact())
    assert np.allclose(maps.motion[:, 0], [-1, 0, 0])
    assert np.allclose(maps.motion[:, 1], [0, 1, -1])


def test_four_contact_columns():
    maps = build_maps(four_contact())
    assert np.allclose(maps.motion[:, 0], [-1, 0, 1])
    assert np.allclose(maps.motion[:, 1], [0, 1, -1])


def _maps_by_contact(model):
    """The maps written column by column, one contact at a time."""
    motion = np.zeros((3, 2 * model.m))
    wrench = np.zeros((3, 2 * model.m))
    for i, c in enumerate(model.contacts):
        n, t, p = c.normal, c.tangent, c.position
        motion[:2, 2 * i] = n
        motion[2, 2 * i] = cross2(p, n)
        motion[:2, 2 * i + 1] = t
        motion[2, 2 * i + 1] = cross2(p, t)
        wrench[:, 2 * i] = -motion[:, 2 * i]
        wrench[:, 2 * i + 1] = motion[:, 2 * i + 1]
    return motion, wrench


def test_maps_match_the_per_contact_columns_bitwise():
    models = [load_grasp_file(str(path))[0]
              for path in sorted(FIXTURES.glob("*.grasp"))]
    models += [random_grasp(2 + k % 4, rng=k,
                            preload="auto" if k % 2 else "none")
               for k in range(40)]
    assert len(models) == 44
    for model in models:
        maps = build_maps(model)
        for got, want in zip((maps.motion, maps.wrench),
                             _maps_by_contact(model)):
            assert got.shape == want.shape and got.flags.c_contiguous
            assert got.tobytes() == want.tobytes()


def test_validate_ok_zero_preload(m3):
    assert validate_model(m3) == []


def test_validate_preload_on_cone_edges():
    assert validate_model(three_contact(True)) == []


def test_validate_cone_violation():
    model = three_contact()
    model.preload = np.array([[1, -0.6], [1, 0.1], [1, 0.5]])
    errors = validate_model(model)
    assert any("contact 0" in e and "cone" in e for e in errors)


def test_validate_unbalanced_preload():
    model = three_contact()
    model.preload = np.array([[1, 0], [0, 0], [0, 0]])
    assert any("self-balancing" in e for e in validate_model(model))


def test_validate_bad_normal_and_mu():
    model = GraspModel([Contact([0, 0], [0, -0.9], 0.5),
                        Contact([1, 0], [1, 0], -0.1)])
    errors = validate_model(model)
    assert any("contact 0" in e and "unit" in e for e in errors)
    assert any("contact 1" in e and "friction" in e for e in errors)


def test_contact_motion_zero(m3):
    maps = build_maps(m3)
    assert np.allclose(contact_motion(maps, [0, 0, 0]), 0.0)


def test_contact_motion_downward(m3):
    deltas = contact_motion(build_maps(m3), [0, -1, 0])
    assert deltas[1, 0] == pytest.approx(1.0)
    assert deltas[0, 0] == pytest.approx(0.0)
    assert deltas[2, 0] == pytest.approx(0.0)


def test_contact_motion_four_contact_twist():
    deltas = contact_motion(build_maps(four_contact()), [0, -1, 1])
    assert np.allclose(deltas[0], [1, -2])  # top-left
    assert np.allclose(deltas[2], [1, 0])   # bottom-right


def test_world_force_bottom_contact():
    force, torque = world_force(Contact([0, -1], [0, -1], 0.5), (1, 0))
    assert np.allclose(force, [0, 1]) and torque == pytest.approx(0.0)


def test_world_force_left_contact_with_friction():
    force, torque = world_force(Contact([-1, 0], [-1, 0], 0.5), (1, -0.5))
    assert np.allclose(force, [1, -0.5]) and torque == pytest.approx(0.5)


def test_world_force_zero():
    force, torque = world_force(Contact([3, 2], [0, -1], 0.5), (0, 0))
    assert np.allclose(force, 0) and torque == 0


def test_kinematic_consistency_random(rng):
    # projection through the motion map equals the direct surface velocity
    for _ in range(1000):
        p = rng.normal(size=2) * 2
        n = rng.normal(size=2)
        n /= np.linalg.norm(n)
        contact = Contact(p, n, 0.5)
        maps = build_maps(GraspModel([contact]))
        d = rng.normal(size=3)
        v = d[:2] + d[2] * np.array([-p[1], p[0]])
        expect = [v @ contact.normal, v @ contact.tangent]
        assert np.allclose(contact_motion(maps, d)[0], expect, atol=1e-12)


def test_preload_self_balance_sums_to_zero():
    model = three_contact(True)
    total = np.zeros(3)
    for contact, f in zip(model.contacts, model.preload):
        force, torque = world_force(contact, f)
        total += [force[0], force[1], torque]
    assert np.max(np.abs(total)) < 1e-9


def test_preload_values_match_fixture():
    assert np.allclose(three_contact(True).preload, THREE_PRELOAD)


def _with(model, i, **changes):
    """model with contact i's position, normal or mu replaced."""
    contacts = list(model.contacts)
    c = contacts[i]
    contacts[i] = Contact(changes.get("position", c.position),
                          changes.get("normal", c.normal),
                          changes.get("mu", c.mu))
    return GraspModel(contacts, stiffness=model.stiffness,
                      preload=model.preload, options=model.options)


def _bad_models():
    """Models no computation can run past: no contacts, a non-finite
    position, normal, mu, stiffness or preload, or a normal of zero
    length."""
    stiffness = np.ones(3)
    stiffness[2] = math.inf
    preload = np.array(THREE_PRELOAD)
    preload[1, 0] = math.nan
    return [GraspModel([]),
            _with(three_contact(), 1, position=(math.inf, -1.0)),
            _with(three_contact(), 0, normal=(math.nan, 0.0)),
            _with(three_contact(), 0, mu=math.nan),
            GraspModel(three_contact().contacts, stiffness=stiffness),
            GraspModel(three_contact().contacts, preload=preload),
            _with(three_contact(), 2, normal=(0.0, 0.0))]


ENTRY_POINTS = {
    "check_stability": lambda model: check_stability(model, (0, -1, 0)),
    "max_resistible": lambda model: max_resistible(model, (0, -1)),
    "enumerate_slip_states": enumerate_slip_states,
    "brute_force_verdict": lambda model: brute_force_verdict(model, (0, -1, 0)),
    "resistible_region": lambda model: resistible_region(model, 4),
    "linear_compliance_verdict":
        lambda model: linear_compliance_verdict(model, (0, -1, 0), 1.0),
    "gws_l1": gws_l1,
    "balanced_preload": balanced_preload,
}


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_entry_points_refuse_a_model_with_validate_models_message(entry):
    for model in _bad_models():
        message = "; ".join(validate_model(model))
        assert message
        with pytest.raises(ValueError, match=re.escape(message)):
            ENTRY_POINTS[entry](model)
