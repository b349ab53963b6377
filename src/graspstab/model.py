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

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Contact",
    "Options",
    "GraspModel",
    "GraspMaps",
    "as_wrench",
    "build_maps",
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


def build_maps(model: GraspModel) -> GraspMaps:
    """Assemble the motion and wrench maps from the contact geometry."""
    m = model.m
    motion = np.zeros((3, 2 * m))
    wrench = np.zeros((3, 2 * m))
    for i, c in enumerate(model.contacts):
        n, t, p = c.normal, c.tangent, c.position
        motion[:2, 2 * i] = n
        motion[2, 2 * i] = cross2(p, n)
        motion[:2, 2 * i + 1] = t
        motion[2, 2 * i + 1] = cross2(p, t)
        wrench[:, 2 * i] = -motion[:, 2 * i]
        wrench[:, 2 * i + 1] = motion[:, 2 * i + 1]
    return GraspMaps(motion=motion, wrench=wrench)


def contact_motion(maps: GraspMaps, d) -> np.ndarray:
    """Per-contact (delta_n, delta_t) induced by object motion d."""
    d = np.asarray(d, dtype=float).reshape(3)
    return (maps.motion.T @ d).reshape(-1, 2)


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


def validate_model(model: GraspModel) -> list[str]:
    """Check every model invariant; returns human-readable violations."""
    errors = []
    if model.m < 1:
        errors.append("model has no contacts")
        return errors
    for i, c in enumerate(model.contacts):
        for what, value in (("position", c.position), ("normal", c.normal),
                            ("friction coefficient", c.mu),
                            ("stiffness", model.stiffness[i]),
                            ("preload", model.preload[i])):
            if not np.all(np.isfinite(value)):
                errors.append(f"contact {i}: non-finite {what} {value}")
    if errors:
        # NaN makes every comparison below false, so it would pass them all
        return errors
    for i, c in enumerate(model.contacts):
        norm = float(np.linalg.norm(c.normal))
        if abs(norm - 1.0) > 1e-12:
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
        if abs(c0t) > mu * max(c0n, 0.0) + 1e-9:
            errors.append(
                f"contact {i}: preload outside friction cone "
                f"(|{c0t}| > {mu} * {c0n})"
            )
    residual = float(np.max(np.abs(preload_wrench(model))))
    if residual > 1e-9:
        errors.append(f"preload is not self-balancing (residual {residual:.3e})")
    return errors
