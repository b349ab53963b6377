from __future__ import annotations

import importlib.util
from collections import deque
from pathlib import Path

import numpy as np
import pytest

from graspstab import Contact, GraspModel
from graspstab.generate import balanced_preload, random_grasp

REPO = Path(__file__).resolve().parents[1]
FIXTURES = REPO / "fixtures"

# the exhaustive oracle of stabbench/, a directory of scripts and not a
# package: it shares nothing with the package's batch of states
_spec = importlib.util.spec_from_file_location(
    "stabbench_oracle", REPO / "stabbench" / "oracle.py")
oracle = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(oracle)

THREE_PRELOAD = [[1.0, -0.5], [1.0, 0.0], [1.0, 0.5]]
FOUR_PRELOAD = [[1.0, 0.0]] * 4


def three_contact(preloaded: bool = False) -> GraspModel:
    contacts = [
        Contact([-1, 0], [-1, 0], 0.5),
        Contact([0, -1], [0, -1], 0.5),
        Contact([1, 0], [1, 0], 0.5),
    ]
    return GraspModel(contacts, preload=THREE_PRELOAD if preloaded else None)


def four_contact(preloaded: bool = False) -> GraspModel:
    positions = [(-1, 1), (-1, -1), (1, -1), (1, 1)]
    normals = [(-1, 0), (-1, 0), (1, 0), (1, 0)]
    contacts = [Contact(p, n, 0.5) for p, n in zip(positions, normals)]
    return GraspModel(contacts, preload=FOUR_PRELOAD if preloaded else None)


def off_centre_grasp(m: int, rng, *, preload: bool = False,
                     detachment: bool = False) -> GraspModel:
    """random_grasp(m, rng) with contact i moved along its tangent, to
    rho_i n_i + tau_i t_i with tau_i ~ U(-0.8, 0.8), and a balanced
    preload when preload is set.

    random_grasp's normals all meet at the origin, so a pure rotation
    moves no contact along its normal and every region state is
    singular; here they need not meet, and region states are direct.
    The slip planes stay random_grasp's, since t_i x t_i = 0. rng is a
    numpy Generator, drawn from in that order.
    """
    base = random_grasp(m, rng=rng, detachment=detachment)
    tau = rng.uniform(-0.8, 0.8, m)
    model = GraspModel([Contact(c.position + t * c.tangent, c.normal, c.mu)
                        for c, t in zip(base.contacts, tau)],
                       options=base.options)
    if preload:
        model.preload = balanced_preload(model)
    return model


def criterion_4_stream():
    """Criterion 4's queries (model, w), drawn one after another from
    seed 27182: random_grasp of m = 2-5 with detachment, a balanced
    preload on about half, under a load of scale (2, 2, 1.5)."""
    rng = np.random.default_rng(27182)
    while True:
        m = int(rng.integers(2, 6))
        model = random_grasp(m, rng=rng,
                             preload="auto" if rng.random() < 0.5 else "none",
                             detachment=True)
        yield model, rng.normal(size=3) * np.array([2.0, 2.0, 1.5])


def cell_euler(states) -> tuple[int, int]:
    """(rays - facets + regions, the value the sphere requires).

    That value is 2, or 1 for a lone plane, whose one facet is a whole
    circle with no ray on it. Counted on the cells themselves, not on
    the dual graph, whose face count is defined by Euler's formula.
    """
    cells = states.cells
    chi = len(cells["lines"]) - len(cells["facets"]) + len(cells["regions"])
    return chi, 1 if states.arrangement.n_planes == 1 else 2


def partial_cube_problem(states) -> str | None:
    """Why the regions joined across each facet are no partial cube, or None.

    The two regions beside a facet of plane i with witness z take their
    signs from the normals at z +- delta n_i, where delta is half the
    least |n_j . z| over the other planes. The two must differ in plane
    i's sign alone and both be listed regions, every region must border
    a facet, and the graph distance between any two regions must equal
    the number of signs in which they differ.
    """
    normals = states.arrangement.normals
    regions = list(map(tuple, states.cells["regions"].signs.tolist()))
    index = {signs: k for k, signs in enumerate(regions)}
    adj = [set() for _ in regions]
    facets = states.cells["facets"]
    for k, (signs, witness) in enumerate(zip(facets.signs.tolist(),
                                             facets.witness)):
        i = signs.index(0)
        dist = np.abs(normals @ witness)
        delta = 0.5 * np.delete(dist, i).min(initial=1.0)
        ends = [tuple(np.sign(normals @ (witness + s * delta * normals[i]))
                      .astype(int).tolist()) for s in (1, -1)]
        if np.flatnonzero(np.not_equal(*ends)).tolist() != [i]:
            return f"facet {k}: its sides {ends} differ off plane {i}"
        if any(end not in index for end in ends):
            return f"facet {k}: a side of {ends} is no listed region"
        a, b = index[ends[0]], index[ends[1]]
        adj[a].add(b)
        adj[b].add(a)
    signs = np.array(regions).reshape(len(regions), -1)
    for src in range(len(regions)):
        hops = np.full(len(regions), -1)
        hops[src] = 0
        queue = deque([src])
        while queue:
            a = queue.popleft()
            for b in adj[a]:
                if hops[b] < 0:
                    hops[b] = hops[a] + 1
                    queue.append(b)
        differ = np.count_nonzero(signs != signs[src], axis=1)
        bad = np.flatnonzero(hops != differ)
        if bad.size:
            return (f"regions {src} and {bad[0]}: {hops[bad[0]]} hops apart, "
                    f"{differ[bad[0]]} signs")
    return None


@pytest.fixture
def m3():
    return three_contact()


@pytest.fixture
def m3p():
    return three_contact(True)


@pytest.fixture
def m4():
    return four_contact()


@pytest.fixture
def m4p():
    return four_contact(True)


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
