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
from dataclasses import dataclass

import numpy as np

from .arrangement import DETACHED
from .equilibrium import EquilibriumSolution, PreparedStates
from .model import (GraspModel, as_wrench, build_maps, check_finite,
                    cone_edges, cross2)
from .params import (INEQ_SLACK, RANK_EPS, SLICE_DIGITS, SLICE_EDGE,
                     SLICE_PLANE, STICK_MOTION, ZERO_PRELOAD)
from .stability import Verdict, _feasible_states

__all__ = [
    "WrenchPolytope",
    "SlicePolygon",
    "SliceError",
    "brute_force_verdict",
    "gws_l1",
    "gws_slice",
    "linear_compliance_verdict",
]

# label vectors per batch of the exhaustive search
_BATCH = 256
# the most contacts the exhaustive search takes on (4^12 label vectors)
MAX_CONTACTS = 12


def brute_force_verdict(model: GraspModel, w, *, detachment: bool | None = None
                        ) -> Verdict:
    """Exhaustive label-vector search; exponential but exact.

    Every contact tries slip-/stick/slip+; zero-preload contacts also try
    detached when detachment is enabled. The label vectors are decided
    in product order, _BATCH at a time (see PreparedStates), so a stable
    query prepares no batch past the one holding its first feasible
    vector. A grasp of more than MAX_CONTACTS contacts is a ValueError,
    as is one that check_finite refuses.
    """
    if model.m > MAX_CONTACTS:
        raise ValueError(f"brute force limited to {MAX_CONTACTS} contacts")
    check_finite(model)
    if detachment is None:
        detachment = model.options.detachment
    w = as_wrench(w)
    per_contact = []
    for i in range(model.m):
        labels = [-1, 0, 1]
        if detachment and model.preload[i, 0] <= ZERO_PRELOAD:
            labels = labels + [DETACHED]
        per_contact.append(labels)

    combos = itertools.product(*per_contact)
    tried = 0
    while chunk := list(itertools.islice(combos, _BATCH)):
        batch = PreparedStates(model, chunk)
        n_tried, feasible = _feasible_states(model, batch, w, True)
        tried += n_tried
        if feasible:
            return Verdict(stable=True, witness=feasible[0][1],
                           states_tried=tried, detachment=detachment)
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
    at unit normal force, together with the zero wrench. A model that
    check_finite refuses is a ValueError."""
    check_finite(model)
    pts = np.concatenate([np.zeros((1, 3)), cone_edges(model)])
    from scipy.spatial import ConvexHull, QhullError

    try:
        hull = ConvexHull(pts)
        return WrenchPolytope(points=pts, vertices=pts[hull.vertices],
                              equations=hull.equations, degenerate=False)
    except QhullError:
        # flat point set (e.g. a single frictionless contact): its hull in
        # its own plane, on the two coordinates left once the one nearest
        # the plane's normal is dropped, so the chain reads the points'
        # own numbers
        normal = np.linalg.svd(pts - pts.mean(axis=0))[2][-1]
        plane = np.delete(pts, np.argmax(np.abs(normal)), axis=1)
        return WrenchPolytope(points=pts, vertices=pts[_hull(plane)],
                              equations=None, degenerate=True)


def gws_slice(poly: WrenchPolytope, tau: float = 0.0) -> SlicePolygon:
    """Cross-section of the wrench polytope at fixed torque.

    Every extreme point of the section lies on a segment between two
    generating points, so the section is the planar hull of all
    pair-segment crossings plus the on-plane points.
    """
    pts = poly.points
    lo, hi = float(np.min(pts[:, 2])), float(np.max(pts[:, 2]))
    if tau < lo - SLICE_PLANE or tau > hi + SLICE_PLANE:
        raise SliceError(f"slice torque {tau} outside polytope range [{lo}, {hi}]")
    section = [p[:2] for p in pts if abs(p[2] - tau) <= SLICE_PLANE]
    for a, b in itertools.combinations(pts, 2):
        da, db = a[2] - tau, b[2] - tau
        if da * db < 0:
            t = da / (da - db)
            section.append((a + t * (b - a))[:2])
    if not section:
        raise SliceError(f"slice torque {tau} misses the polytope")
    section = np.unique(np.round(section, SLICE_DIGITS), axis=0)
    verts = section[_hull(section)]
    return SlicePolygon(vertices=verts, degenerate=len(verts) < 3)


def _hull(pts: np.ndarray) -> list[int]:
    """Indices of the convex hull's vertices of the planar points pts (k,
    2), counter-clockwise from the lexicographically least: Andrew's
    monotone chain, which keeps no point on an edge, so a collinear set
    gives its two ends."""
    order = np.lexsort((pts[:, 1], pts[:, 0])).tolist()

    def build(seq):
        chain = []
        for i in seq:
            while len(chain) >= 2 and cross2(pts[chain[-1]] - pts[chain[-2]],
                                             pts[i] - pts[chain[-2]]) <= 0:
                chain.pop()
            chain.append(i)
        return chain

    hull = build(order)[:-1] + build(order[::-1])[:-1]
    return hull or order


def polygon_contains(poly: np.ndarray, point, margin: float = 0.0) -> bool:
    """Point-in-convex-polygon with a required inward margin."""
    point = np.asarray(point, dtype=float)
    k = len(poly)
    if k < 3:
        return False
    for i in range(k):
        edge = poly[(i + 1) % k] - poly[i]
        edge_len = np.linalg.norm(edge)
        if edge_len < SLICE_EDGE:
            continue
        if cross2(edge, point - poly[i]) < margin * edge_len:
            return False
    return True


def linear_compliance_verdict(model: GraspModel, w,
                              tangent_stiffness) -> Verdict:
    """Fully linear springs on both force components, then cone screening.

    Tangential force resists tangential motion (c_t = c0_t - k_t delta_t),
    which makes the grasp stiffness matrix the positive-semidefinite sum
    of spring dyads. This model has no slip states: a single linear solve
    either passes the cone and unilaterality checks or the grasp is
    declared unstable, including the known spurious rejections. A model
    that check_finite refuses is a ValueError.
    """
    w = as_wrench(w)
    check_finite(model)
    m = model.m
    k_t = np.asarray(tangent_stiffness, dtype=float)
    k_t = np.full(m, float(k_t)) if k_t.ndim == 0 else k_t.reshape(m)
    if not np.all(np.isfinite(k_t) & (k_t > 0)):
        raise ValueError("tangent stiffness must be finite and positive")
    maps = build_maps(model)

    stiffness = np.zeros((3, 3))
    for i in range(m):
        ncol = maps.motion[:, 2 * i]
        tcol = maps.motion[:, 2 * i + 1]
        stiffness += model.stiffness[i] * np.outer(ncol, ncol)
        stiffness += k_t[i] * np.outer(tcol, tcol)

    sv = np.linalg.svd(stiffness, compute_uv=False)
    if sv[-1] <= RANK_EPS * 3 * sv[0]:
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
        if c_n < -INEQ_SLACK:
            ok = False
        if abs(c_t) > model.contacts[i].mu * c_n + INEQ_SLACK:
            ok = False
    labels = tuple(0 if abs(dt) <= STICK_MOTION else (1 if dt > 0 else -1)
                   for dt in deltas[:, 1])
    witness = EquilibriumSolution(
        d=d, forces=forces, labels=labels, state_index=-1,
        max_eq_residual=float(np.max(np.abs(stiffness @ d - w))),
        min_ineq_slack=0.0,
    ) if ok else None
    return Verdict(stable=ok, witness=witness, states_tried=1,
                   detachment=False)
