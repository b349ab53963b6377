"""Random grasp instances for benchmarks and property tests.

Contacts sit on a star-shaped boundary around the origin with radial
outward normals; angles are resampled until the tangent constraint
planes are in general position (pairwise distinct, no three through a
common line), which the quadratic state-count law assumes.
"""

from __future__ import annotations

import math

import numpy as np

from . import lp
from .model import (Contact, GraspModel, Options, build_maps, check_finite,
                    cross2)
from .params import (GENERAL_DET, GENERAL_PARALLEL, PRELOAD_BOX,
                     PRELOAD_MARGIN)

__all__ = ["random_grasp", "balanced_preload"]

# angle draws random_grasp makes before it gives up
MAX_TRIES = 200
# the normal preload balanced_preload puts on each contact, on average
NORMAL_PER_CONTACT = 1.0


def random_grasp(m: int, rng=None, *, mu: float = 0.5, preload: str = "none",
                 detachment: bool = False) -> GraspModel:
    """Random m-contact grasp with general-position tangent planes.

    preload: "none" or "auto" (a self-balancing, cone-interior preload
    computed by the feasibility program; falls back to none when the
    geometry admits no strictly positive preload, e.g. m = 2). After
    MAX_TRIES draws in special position it raises RuntimeError. A
    negative or non-finite mu is a ValueError.
    """
    if m < 1:
        raise ValueError("need at least one contact")
    if not (math.isfinite(mu) and mu >= 0):
        raise ValueError(f"mu must be finite and non-negative, got {mu}")
    rng = np.random.default_rng(rng)
    for _ in range(MAX_TRIES):
        theta = np.sort(rng.uniform(0.0, 2.0 * np.pi, m))
        rho = rng.uniform(0.6, 1.6, m)
        normals = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        contacts = [Contact(rho[i] * normals[i], normals[i], mu)
                    for i in range(m)]
        planes = np.stack([
            np.concatenate([c.tangent, [cross2(c.position, c.tangent)]])
            for c in contacts
        ])
        planes /= np.linalg.norm(planes, axis=1, keepdims=True)
        if _general_position(planes):
            model = GraspModel(contacts, options=Options(detachment=detachment))
            if preload == "auto":
                model.preload = balanced_preload(model)
            elif preload != "none":
                raise ValueError(f"unknown preload mode {preload!r}")
            return model
    raise RuntimeError("failed to sample a general-position grasp")


def _general_position(planes: np.ndarray) -> bool:
    n = len(planes)
    for i in range(n):
        for j in range(i + 1, n):
            if abs(planes[i] @ planes[j]) > 1.0 - GENERAL_PARALLEL:
                return False
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                if abs(np.linalg.det(planes[[i, j, k]])) < GENERAL_DET:
                    return False
    return True


def balanced_preload(model: GraspModel) -> np.ndarray:
    """Self-balancing, cone-interior preload maximizing the cone margin.

    Normal components sum to NORMAL_PER_CONTACT per contact. Returns
    zeros when no balanced preload has a cone margin above
    PRELOAD_MARGIN. A model that check_finite refuses is a ValueError.
    """
    check_finite(model)
    m = model.m
    target = NORMAL_PER_CONTACT * m
    maps = build_maps(model)
    n = 2 * m
    a_eq = np.vstack([maps.wrench, np.zeros((1, n))])
    a_eq[3, 0::2] = 1.0
    b_eq = np.array([0.0, 0.0, 0.0, target])
    rows, rhs = [], []
    for i in range(m):
        mu = model.contacts[i].mu
        row = np.zeros(n)
        row[2 * i] = 1.0
        rows.append(row)
        rhs.append(0.0)
        for sgn in (1.0, -1.0):
            row = np.zeros(n)
            row[2 * i] = mu
            row[2 * i + 1] = -sgn
            rows.append(row)
            rhs.append(0.0)
    x, s = lp.max_min_slack(a_eq, b_eq, rows, rhs, -PRELOAD_BOX * target,
                            PRELOAD_BOX * target, s_cap=target)
    if x is None or s <= PRELOAD_MARGIN:
        return np.zeros((m, 2))
    residual = a_eq @ x - b_eq
    corr, *_ = np.linalg.lstsq(a_eq, residual, rcond=None)
    return (x - corr).reshape(m, 2)
