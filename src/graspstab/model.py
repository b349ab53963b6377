"""Planar grasp model: contacts, maps between contact and object frames.

Sign conventions (these pin down everything downstream):

  - ``normal`` is the outward unit normal of the object surface, pointing
    from the object toward the finger.
  - The tangent is the normal rotated by -90 degrees: ``tau = (n_y, -n_x)``.
  - A contact force ``(c_n, c_t)`` in the contact frame acts on the object
    as ``F = -n * c_n + tau * c_t`` (positive ``c_n`` pushes the object
    away from the finger).
  - For a virtual object motion ``d = (x, y, r)`` the surface velocity at
    a contact placed at ``p`` is ``v = (x, y) + r * (-p_y, p_x)``;
    ``delta_n = v . n`` (positive = compression of the normal spring) and
    ``delta_t = v . tau`` (positive = slip in the +tangent direction).

With these choices the normal spring law reads ``c_n = c0_n + k *
delta_n`` and friction produced by slip opposes the slip direction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .params import PRELOAD_BALANCE, UNIT_NORMAL

__all__ = [
    "Contact",
    "Options",
    "GraspModel",
    "GraspMaps",
    "as_wrench",
    "build_maps",
    "cone_edges",
    "validate_model",
    "contact_motion",
    "world_force",
]


def _vec2(v) -> np.ndarray:
    a = np.asarray(v, dtype=float).reshape(2)
    return a


def cross2(a, b) -> float:
    """Planar cross product a x b = a_x b_y - a_y b_x."""
    return float(a[0] * b[1] - a[1] * b[0])


def tangent_of(normal: np.ndarray) -> np.ndarray:
    """Tangent direction: the outward normal rotated by -90 degrees."""
    return np.array([normal[1], -normal[0]])


def as_wrench(w) -> np.ndarray:
    """Coerce to a (force_x, force_y, torque) array and check finiteness."""
    a = np.asarray(w, dtype=float).reshape(3)
    if not np.all(np.isfinite(a)):
        raise ValueError(f"wrench has non-finite entries: {a}")
    return a


@dataclass(frozen=True, eq=False)
class Contact:
    """A point contact: position, outward unit normal, friction coefficient."""

    position: np.ndarray
    normal: np.ndarray
    mu: float

    def __post_init__(self):
        object.__setattr__(self, "position", _vec2(self.position))
        object.__setattr__(self, "normal", _vec2(self.normal))
        object.__setattr__(self, "mu", float(self.mu))

    @property
    def tangent(self) -> np.ndarray:
        return tangent_of(self.normal)


@dataclass(frozen=True)
class Options:
    """Analysis options carried alongside a model.

    detachment: zero-preload contacts may separate from the surface.
    Disabling it enforces the normal spring law on every contact
    unconditionally (the strict reading of the constitutive equation).
    """

    detachment: bool = True


@dataclass(eq=False)
class GraspModel:
    """Problem instance: contacts plus per-contact stiffness and preload.

    preload[i] = (c0_n, c0_t) in the contact frame; must be self-balancing
    and inside the friction cones (see validate_model).
    """

    contacts: list[Contact]
    stiffness: np.ndarray = None
    preload: np.ndarray = None
    options: Options = field(default_factory=Options)

    def __post_init__(self):
        self.contacts = list(self.contacts)
        m = len(self.contacts)
        if self.stiffness is None:
            self.stiffness = np.ones(m)
        else:
            k = np.asarray(self.stiffness, dtype=float)
            self.stiffness = np.full(m, float(k)) if k.ndim == 0 else k.reshape(m)
        if self.preload is None:
            self.preload = np.zeros((m, 2))
        else:
            self.preload = np.asarray(self.preload, dtype=float).reshape(m, 2)

    @property
    def m(self) -> int:
        return len(self.contacts)


@dataclass(eq=False)
class GraspMaps:
    """Kinematic and equilibrium maps of a grasp.

    motion: 3 x 2m matrix; contact i owns columns 2i (normal) and 2i+1
        (tangent), so ``motion.T @ d`` stacks (delta_n, delta_t) pairs.
    wrench: 3 x 2m matrix mapping stacked contact-frame forces to the net
        object wrench (motion with negated normal columns).
    """

    motion: np.ndarray
    wrench: np.ndarray


def motion_rows(model: GraspModel) -> np.ndarray:
    """The motion map's columns as rows (2m, 3): contact i's normal (n,
    p x n) at 2i and tangent (t, p x t) at 2i + 1, with cross2's
    arithmetic. A loop over Python floats, as in cone_edges."""
    rows = []
    for c in model.contacts:
        (px, py), (nx, ny) = c.position.tolist(), c.normal.tolist()
        # t = (n_y, -n_x)
        rows += [(nx, ny, px * ny - py * nx), (ny, -nx, px * -nx - py * ny)]
    return np.array(rows).reshape(-1, 3)


def build_maps(model: GraspModel) -> GraspMaps:
    """Assemble the motion and wrench maps from the contact geometry."""
    motion = np.ascontiguousarray(motion_rows(model).T)
    wrench = motion.copy()
    wrench[:, 0::2] = -motion[:, 0::2]
    return GraspMaps(motion=motion, wrench=wrench)


def contact_motion(maps: GraspMaps, d) -> np.ndarray:
    """Per-contact (delta_n, delta_t) induced by object motion d."""
    d = np.asarray(d, dtype=float).reshape(3)
    return (maps.motion.T @ d).reshape(-1, 2)


def cone_edges(model: GraspModel) -> np.ndarray:
    """The wrenches (force_x, force_y, torque) of each contact's forces
    (c_n, c_t) = (1, mu) and (1, -mu), in contact order: the edges of the
    friction cones in wrench space, with world_force's arithmetic. A loop
    over Python floats: on a handful of contacts numpy's per-call cost
    exceeds the arithmetic."""
    rows = []
    for c in model.contacts:
        (px, py), (nx, ny) = c.position.tolist(), c.normal.tolist()
        for c_t in (c.mu, -c.mu):
            # -n + c_t t, t = (n_y, -n_x)
            fx, fy = -nx + c_t * ny, -ny - c_t * nx
            rows.append((fx, fy, px * fy - py * fx))
    return np.array(rows)


def world_force(contact: Contact, f) -> tuple[np.ndarray, float]:
    """World-frame force and torque of a contact-frame force (c_n, c_t)."""
    c_n, c_t = float(f[0]), float(f[1])
    force = -contact.normal * c_n + contact.tangent * c_t
    return force, cross2(contact.position, force)


def preload_wrench(model: GraspModel) -> np.ndarray:
    """Net wrench of the preload forces (zero for a valid model)."""
    total = np.zeros(3)
    for contact, f in zip(model.contacts, model.preload):
        force, torque = world_force(contact, f)
        total[:2] += force
        total[2] += torque
    return total


def _non_finite(model: GraspModel) -> list[str]:
    """The violations of a model without contacts, with a non-finite
    number or with a contact normal of zero length, the ones no
    computation can run past: each query divides by a normal's length."""
    if model.m < 1:
        return ["model has no contacts"]
    # one pass over Python floats, much cheaper than the per-contact
    # numpy tests that name the culprits
    numbers = model.stiffness.tolist() + model.preload.ravel().tolist()
    zero = []
    for i, c in enumerate(model.contacts):
        normal = c.normal.tolist()
        numbers += c.position.tolist() + normal + [c.mu]
        if normal == [0.0, 0.0]:
            zero.append(i)
    if all(map(math.isfinite, numbers)):
        return [f"contact {i}: normal is not unit length (|n|=0.0)"
                for i in zero]
    errors = []
    for i, c in enumerate(model.contacts):
        for what, value in (("position", c.position), ("normal", c.normal),
                            ("friction coefficient", c.mu),
                            ("stiffness", model.stiffness[i]),
                            ("preload", model.preload[i])):
            if not np.all(np.isfinite(value)):
                errors.append(f"contact {i}: non-finite {what} {value}")
    return errors


def check_finite(model: GraspModel) -> None:
    """A ValueError carrying validate_model's message when the model has
    no contacts, a non-finite number or a zero-length normal; the entry
    points run this, not the whole validate_model."""
    errors = _non_finite(model)
    if errors:
        raise ValueError("; ".join(errors))


def validate_model(model: GraspModel) -> list[str]:
    """Check every model invariant; returns human-readable violations."""
    errors = _non_finite(model)
    if errors:
        # NaN makes every comparison below false, so it would pass them all
        return errors
    for i, c in enumerate(model.contacts):
        norm = float(np.linalg.norm(c.normal))
        if abs(norm - 1.0) > UNIT_NORMAL:
            errors.append(f"contact {i}: normal is not unit length (|n|={norm!r})")
        if c.mu < 0:
            errors.append(f"contact {i}: negative friction coefficient {c.mu}")
    for i, k in enumerate(model.stiffness):
        if not k > 0:
            errors.append(f"contact {i}: stiffness must be positive, got {k}")
    for i, (c0n, c0t) in enumerate(model.preload):
        if c0n < 0:
            errors.append(f"contact {i}: negative normal preload {c0n}")
        mu = model.contacts[i].mu
        if abs(c0t) > mu * max(c0n, 0.0) + PRELOAD_BALANCE:
            errors.append(
                f"contact {i}: preload outside friction cone "
                f"(|{c0t}| > {mu} * {c0n})"
            )
    residual = float(np.max(np.abs(preload_wrench(model))))
    if residual > PRELOAD_BALANCE:
        errors.append(f"preload is not self-balancing (residual {residual:.3e})")
    return errors
