"""Reference methods: exhaustive state search, L1 grasp wrench space, and
the fully linear compliance model.

The exhaustive search tries every per-contact label combination (3^m, or
4^m where detachment applies) and is the exact oracle for the polynomial
enumeration: label vectors inconsistent with a rigid motion simply have
infeasible systems, so the verdicts must coincide. The wrench-space and
linear-compliance baselines exist to demonstrate their known failure
modes (no passive/active distinction, spurious cone violations).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .arrangement import DETACHED
from .equilibrium import EquilibriumSolution, solve_state
from .model import GraspModel, as_wrench, build_maps, cross2, tangent_of, world_force
from .params import DEFAULT_TOLS, Tolerances
from .stability import Verdict

__all__ = [
    "WrenchPolytope",
    "SlicePolygon",
    "SliceError",
    "brute_force_verdict",
    "gws_l1",
    "gws_slice",
    "linear_compliance_verdict",
]


def brute_force_verdict(model: GraspModel, w, *, detachment: bool | None = None,
                        max_contacts: int = 12,
                        tols: Tolerances = DEFAULT_TOLS) -> Verdict:
    """Exhaustive label-vector search; exponential but exact.

    Every contact tries slip-/stick/slip+; zero-preload contacts also try
    detached when detachment is enabled.
    """
    if model.m > max_contacts:
        raise ValueError(f"brute force limited to {max_contacts} contacts")
    if detachment is None:
        detachment = model.options.detachment
    w = as_wrench(w)
    maps = build_maps(model)
    per_contact = []
    for i in range(model.m):
        labels = [-1, 0, 1]
        if detachment and model.preload[i, 0] <= tols.zero_preload:
            labels = labels + [DETACHED]
        per_contact.append(labels)

    tried = 0
    for combo in itertools.product(*per_contact):
        tried += 1
        sol = solve_state(model, w, combo, maps=maps, tols=tols)
        if sol is not None:
            return Verdict(stable=True, witness=sol, states_tried=tried,
                           detachment=detachment)
    return Verdict(stable=False, witness=None, states_tried=tried,
                   detachment=detachment)


@dataclass(eq=False)
class WrenchPolytope:
    """Hull of the wrenches reachable with unit-bounded normal forces."""

    points: np.ndarray          # generating wrenches, (k, 3)
    vertices: np.ndarray        # hull vertex coordinates, (v, 3)
    equations: np.ndarray | None  # hull facets [a, b] with a.x + b <= 0
    degenerate: bool


@dataclass(eq=False)
class SlicePolygon:
    vertices: np.ndarray  # (k, 2) in force space, counter-clockwise
    degenerate: bool      # fewer than 3 distinct vertices


class SliceError(ValueError):
    """The slicing plane does not meet the polytope."""


def gws_l1(model: GraspModel) -> WrenchPolytope:
    """L1 grasp wrench space: hull of the per-contact cone-edge wrenches
    at unit normal force, together with the zero wrench."""
    pts = [np.zeros(3)]
    for contact in model.contacts:
        for sgn in (1.0, -1.0):
            force, torque = world_force(contact, (1.0, sgn * contact.mu))
            pts.append(np.array([force[0], force[1], torque]))
    pts = np.array(pts)
    try:
        from scipy.spatial import ConvexHull

        hull = ConvexHull(pts)
        return WrenchPolytope(points=pts, vertices=pts[hull.vertices],
                              equations=hull.equations, degenerate=False)
    except Exception:
        # flat point set (e.g. a single frictionless contact)
        return WrenchPolytope(points=pts, vertices=_extreme_points(pts),
                              equations=None, degenerate=True)


def _extreme_points(pts: np.ndarray) -> np.ndarray:
    keep = []
    for i, p in enumerate(pts):
        if not any(np.allclose(p, q, atol=1e-12) for q in keep):
            keep.append(p)
    return np.array(keep)


def gws_slice(poly: WrenchPolytope, tau: float = 0.0) -> SlicePolygon:
    """Cross-section of the wrench polytope at fixed torque.

    Every extreme point of the section lies on a segment between two
    generating points, so the section is the planar hull of all
    pair-segment crossings plus the on-plane points.
    """
    pts = poly.points
    lo, hi = float(np.min(pts[:, 2])), float(np.max(pts[:, 2]))
    if tau < lo - 1e-12 or tau > hi + 1e-12:
        raise SliceError(f"slice torque {tau} outside polytope range [{lo}, {hi}]")
    section = [p[:2] for p in pts if abs(p[2] - tau) <= 1e-12]
    for a, b in itertools.combinations(pts, 2):
        da, db = a[2] - tau, b[2] - tau
        if da * db < 0:
            t = da / (da - db)
            section.append((a + t * (b - a))[:2])
    if not section:
        raise SliceError(f"slice torque {tau} misses the polytope")
    verts = _hull2d(np.array(section))
    return SlicePolygon(vertices=verts, degenerate=len(verts) < 3)


def _hull2d(pts: np.ndarray) -> np.ndarray:
    """Monotone-chain convex hull, counter-clockwise."""
    pts = np.unique(np.round(pts, 12), axis=0)
    if len(pts) <= 2:
        return pts
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    pts = pts[order]

    def build(seq):
        chain = []
        for p in seq:
            while len(chain) >= 2 and cross2(chain[-1] - chain[-2],
                                             p - chain[-2]) <= 0:
                chain.pop()
            chain.append(p)
        return chain

    lower = build(pts)
    upper = build(pts[::-1])
    hull = np.array(lower[:-1] + upper[:-1])
    return hull if len(hull) >= 3 else pts


def polygon_contains(poly: np.ndarray, point, margin: float = 0.0) -> bool:
    """Point-in-convex-polygon with a required inward margin."""
    point = np.asarray(point, dtype=float)
    k = len(poly)
    if k < 3:
        return False
    for i in range(k):
        edge = poly[(i + 1) % k] - poly[i]
        edge_len = np.linalg.norm(edge)
        if edge_len < 1e-15:
            continue
        if cross2(edge, point - poly[i]) < margin * edge_len:
            return False
    return True


def linear_compliance_verdict(model: GraspModel, w, tangent_stiffness,
                              *, tols: Tolerances = DEFAULT_TOLS) -> Verdict:
    """Fully linear springs on both force components, then cone screening.

    Tangential force resists tangential motion (c_t = c0_t - k_t delta_t),
    which makes the grasp stiffness matrix the positive-semidefinite sum
    of spring dyads. This model has no slip states: a single linear solve
    either passes the cone and unilaterality checks or the grasp is
    declared unstable, including the known spurious rejections.
    """
    w = as_wrench(w)
    m = model.m
    k_t = np.asarray(tangent_stiffness, dtype=float)
    k_t = np.full(m, float(k_t)) if k_t.ndim == 0 else k_t.reshape(m)
    if not np.all(k_t > 0):
        raise ValueError("tangent stiffness must be positive")
    maps = build_maps(model)

    stiffness = np.zeros((3, 3))
    for i in range(m):
        ncol = maps.motion[:, 2 * i]
        tcol = maps.motion[:, 2 * i + 1]
        stiffness += model.stiffness[i] * np.outer(ncol, ncol)
        stiffness += k_t[i] * np.outer(tcol, tcol)

    sv = np.linalg.svd(stiffness, compute_uv=False)
    if sv[-1] <= tols.singular_rel * max(sv[0], 1.0):
        return Verdict(stable=False, witness=None, states_tried=1,
                       detachment=False)
    d = np.linalg.solve(stiffness, w)

    deltas = (maps.motion.T @ d).reshape(-1, 2)
    forces = np.zeros((m, 2))
    ok = True
    for i in range(m):
        c_n = model.preload[i, 0] + model.stiffness[i] * deltas[i, 0]
        c_t = model.preload[i, 1] - k_t[i] * deltas[i, 1]
        forces[i] = (c_n, c_t)
        if c_n < -tols.ineq_slack:
            ok = False
        if abs(c_t) > model.contacts[i].mu * c_n + tols.ineq_slack:
            ok = False
    labels = tuple(0 if abs(dt) <= 1e-12 else (1 if dt > 0 else -1)
                   for dt in deltas[:, 1])
    witness = EquilibriumSolution(
        d=d, forces=forces, labels=labels, state_index=-1,
        max_eq_residual=float(np.max(np.abs(stiffness @ d - w))),
        min_ineq_slack=0.0,
    ) if ok else None
    return Verdict(stable=ok, witness=witness, states_tried=1,
                   detachment=False)
