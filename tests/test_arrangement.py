from __future__ import annotations

import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from graspstab import Contact, GraspModel, enumerate_slip_states, zaslavsky_bound
from graspstab.arrangement import (DETACHED, DualGraph, SlipState,
                                   _first_rows, _packed, _plane_arrangement,
                                   build_dual_graph, enumerate_regions,
                                   facet_states, line_states,
                                   minimum_cycle_basis)
from graspstab.cli import main
from graspstab.generate import _general_position, random_grasp
from graspstab.grasp_io import format_grasp
from graspstab.params import GENERAL_DET, GENERAL_PARALLEL
from graspstab.stability import check_stability, max_resistible

from conftest import (cell_euler, four_contact, partial_cube_problem,
                      three_contact)

SQRT2 = np.sqrt(2.0)


def _arr(model, detachment=False):
    return _plane_arrangement(model, detachment)


def _cells(arr):
    lines = line_states(arr)
    facets = facet_states(arr, lines)
    regions = enumerate_regions(arr, facets)
    return lines, facets, regions, build_dual_graph(regions, facets)


# ---------------------------------------------------------------------------
# planes
# ---------------------------------------------------------------------------

def test_three_contact_tangent_planes():
    arr = _arr(three_contact())
    expected = np.array([[0, 1, -1], [-1, 0, -1], [0, -1, -1]]) / SQRT2
    assert arr.n_planes == 3
    assert np.allclose(arr.normals, expected)


def test_four_contact_tangent_planes_merge():
    arr = _arr(four_contact())
    assert arr.n_planes == 2
    assert arr.tangent[0, 0] == arr.tangent[1, 0]
    assert arr.tangent[2, 0] == arr.tangent[3, 0]
    assert np.all(arr.tangent[:, 1] == 1)


def test_single_contact_one_plane():
    arr = _arr(GraspModel([Contact([0, 0], [0, -1], 0.5)]))
    assert arr.n_planes == 1


def test_four_contact_separation_planes_merge_oppositely():
    arr = _arr(four_contact(), detachment=True)
    assert arr.n_planes == 4
    assert arr.separation[0, 0] == arr.separation[3, 0]
    assert arr.separation[0, 1] == -arr.separation[3, 1]
    assert arr.separation[1, 0] == arr.separation[2, 0]


def test_preloaded_contacts_get_no_separation_planes():
    arr = _arr(four_contact(True), detachment=True)
    assert arr.n_planes == 2
    assert arr.separation.tolist() == [[-1, 0]] * 4


def test_zero_preload_single_contact_separation_plane():
    arr = _arr(GraspModel([Contact([0, -1], [0, -1], 0.5)]), detachment=True)
    assert arr.n_planes == 2


# ---------------------------------------------------------------------------
# cells and their witnesses
# ---------------------------------------------------------------------------

def test_region_counts_small():
    one = _arr(GraspModel([Contact([0, 0], [0, -1], 0.5)]))
    assert len(_cells(one)[2]) == 2
    assert len(_cells(_arr(three_contact()))[2]) == 8
    assert len(_cells(_arr(four_contact()))[2]) == 4


WITNESS_CASES = [(three_contact(), True), (four_contact(), True),
                 (random_grasp(5, rng=7), False), (random_grasp(3, rng=2), True)]


def _witness_values(kind):
    """(signs, n . witness) of every cell of one kind over WITNESS_CASES."""
    for model, detachment in WITNESS_CASES:
        arr = _arr(model, detachment)
        lines, facets, regions, _graph = _cells(arr)
        cells = {"line": lines, "facet": facets, "region": regions}[kind]
        for signs, witness in zip(cells.signs, cells.witness):
            yield signs, arr.normals @ witness


def test_region_witnesses_realize_their_signs():
    for signs, vals in _witness_values("region"):
        assert np.all(signs * vals > 0)


def test_facet_witnesses_lie_on_their_plane_only():
    for signs, vals in _witness_values("facet"):
        assert np.count_nonzero(signs == 0) == 1
        assert abs(vals[signs == 0][0]) < 1e-12
        assert np.all(signs[signs != 0] * vals[signs != 0] > 0)


def test_ray_witnesses_vanish_exactly_on_their_planes():
    for signs, vals in _witness_values("line"):
        assert np.count_nonzero(signs == 0) >= 2
        assert np.all(np.abs(vals[signs == 0]) < 1e-12)
        assert np.all(signs[signs != 0] * vals[signs != 0] > 1e-9)


# ---------------------------------------------------------------------------
# dual graph
# ---------------------------------------------------------------------------

def test_dual_graph_two_planes_is_four_cycle():
    _lines, facets, _regions, graph = _cells(_arr(four_contact()))
    assert (graph.n_vertices, graph.n_edges) == (4, 4)
    assert len(facets) == 4
    degree = np.zeros(4, int)
    for a, b, _p in graph.edges:
        degree[[a, b]] += 1
    assert np.all(degree == 2)


def test_dual_graph_three_planes_cube():
    _lines, facets, _regions, graph = _cells(_arr(three_contact()))
    assert (graph.n_vertices, graph.n_edges) == (8, 12)
    assert len(facets) == 12


def test_dual_graph_single_plane():
    _lines, facets, _regions, graph = _cells(
        _arr(GraspModel([Contact([0, 0], [0, -1], 0.5)])))
    assert (graph.n_vertices, graph.n_edges) == (2, 1)
    assert facets.signs.tolist() == [[0]]


def test_partial_cube_property_random():
    _lines, _facets, regions, graph = _cells(_arr(random_grasp(5, rng=7)))
    for a, b, plane in graph.edges:
        diff = np.nonzero(regions.signs[a] != regions.signs[b])[0]
        assert len(diff) == 1 and diff[0] == plane


# ---------------------------------------------------------------------------
# minimum cycle basis
# ---------------------------------------------------------------------------

def _brute_force_mcb_weight(graph):
    """Exact minimum cycle basis weight via full GF(2) cycle-space scan."""
    E = graph.n_edges
    base = minimum_cycle_basis(graph)
    dim = len(base)
    masks = [sum(1 << e for e in cyc) for cyc in base]
    vectors = set()
    for bits in range(1, 2 ** dim):
        v = 0
        for i in range(dim):
            if bits >> i & 1:
                v ^= masks[i]
        vectors.add(v)
    ranked = sorted(vectors, key=lambda m: bin(m).count("1"))
    total, rank, echelon = 0, 0, []
    for m in ranked:
        red = m
        for b in echelon:
            if red & b & -b:
                red ^= b
        if red:
            echelon.append(red)
            echelon.sort(key=lambda x: x & -x)
            total += bin(m).count("1")
            rank += 1
            if rank == dim:
                break
    return total


def test_mcb_four_cycle():
    graph = DualGraph(n_vertices=4, edges=[(0, 1, 0), (1, 2, 1), (2, 3, 0), (3, 0, 1)])
    mcb = minimum_cycle_basis(graph)
    assert len(mcb) == 1 and len(mcb[0]) == 4


def test_mcb_tree_has_no_cycles():
    graph = DualGraph(n_vertices=4, edges=[(0, 1, 0), (1, 2, 1), (1, 3, 2)])
    assert minimum_cycle_basis(graph) == []


def test_mcb_cube_graph_matches_gf2_brute_force():
    graph = _cells(_arr(three_contact()))[3]
    mcb = minimum_cycle_basis(graph)
    assert len(mcb) == 5
    assert all(len(c) == 4 for c in mcb)
    assert sum(len(c) for c in mcb) == _brute_force_mcb_weight(graph)


def test_mcb_deterministic():
    graph = _cells(_arr(random_grasp(6, rng=11)))[3]
    assert minimum_cycle_basis(graph) == minimum_cycle_basis(graph)


@pytest.mark.parametrize("m,seed,detachment", [(3, 1, False), (4, 5, True),
                                               (5, 9, False)])
def test_rays_match_minimum_cycle_basis(m, seed, detachment):
    # each face of the dual graph encircles one ray: the basis has one
    # cycle fewer than there are rays, and each basis cycle crosses exactly
    # the planes that contain some enumerated ray
    lines, _facets, _regions, graph = _cells(
        _arr(random_grasp(m, rng=seed), detachment))
    mcb = minimum_cycle_basis(graph)
    assert len(mcb) + 1 == len(lines)
    zero_sets = {frozenset(np.flatnonzero(signs == 0).tolist())
                 for signs in lines.signs}
    for cycle in mcb:
        assert frozenset(graph.edges[e][2] for e in cycle) in zero_sets


# ---------------------------------------------------------------------------
# line states
# ---------------------------------------------------------------------------

def test_line_states_two_planes_two_rays():
    lines = line_states(_arr(four_contact()))
    assert len(lines) == 2
    dirs = sorted(tuple(np.round(w, 9)) for w in lines.witness)
    assert np.allclose(dirs[0], (-1, 0, 0)) and np.allclose(dirs[1], (1, 0, 0))


def test_line_states_three_planes_six_rays():
    assert len(line_states(_arr(three_contact()))) == 6


def test_line_states_match_pairwise_intersection_oracle():
    # independent construction: every plane pair's line, each ray checked
    model = random_grasp(5, rng=3)
    arr = _arr(model)
    normals = arr.normals
    lines = line_states(arr)
    expected = set()
    for i, j in itertools.combinations(range(arr.n_planes), 2):
        u = np.cross(normals[i], normals[j])
        u /= np.linalg.norm(u)
        for direction in (u, -u):
            vals = normals @ direction
            signs = tuple(0 if abs(v) < 1e-9 else int(np.sign(v)) for v in vals)
            expected.add(signs)
    assert set(map(tuple, lines.signs.tolist())) == expected
    assert len(lines) == len(expected)


def test_line_states_three_planes_through_one_line():
    # parallel normals at three heights: translation along the normal moves
    # no contact tangentially, so all three tangent planes contain it
    model = GraspModel([Contact([0, y], [0, -1], 0.5) for y in (-1, 0, 2)])
    arr = _arr(model)
    lines = line_states(arr)
    assert arr.n_planes == 3
    assert lines.signs.tolist() == [[0, 0, 0], [0, 0, 0]]
    assert np.allclose(np.abs(lines.witness[0]), (0, 1, 0))
    assert np.allclose(lines.witness[0], -lines.witness[1])


def test_single_plane_no_line_states():
    assert len(line_states(_arr(GraspModel([Contact([0, 0], [0, -1], 0.5)])))) == 0


# ---------------------------------------------------------------------------
# full enumeration
# ---------------------------------------------------------------------------

def test_count_law_random_grasps():
    for m in range(2, 7):
        states = enumerate_slip_states(random_grasp(m, rng=m), detachment=False)
        assert states.count_excluding_origin == 4 * m * m - 4 * m + 2


def _general_position_loop(planes):
    """The per-pair, per-triple rule _general_position batches."""
    n = len(planes)
    for i, j in itertools.combinations(range(n), 2):
        if abs(planes[i] @ planes[j]) > 1.0 - GENERAL_PARALLEL:
            return False
    return not any(abs(np.linalg.det(planes[[i, j, k]])) < GENERAL_DET
                   for i, j, k in itertools.combinations(range(n), 3))


def _threshold_planes():
    """(planes, in general position) just inside and just outside each
    threshold, under a common rotation."""
    cases = []
    for f, sgn in itertools.product((0.99, 1.01), (1.0, -1.0)):
        # |cos| = 1 - f * GENERAL_PARALLEL: parallel for f < 1
        c = sgn * (1.0 - f * GENERAL_PARALLEL)
        cases.append(([[1.0, 0.0, 0.0], [c, np.sqrt(1.0 - c * c), 0.0]],
                      f > 1.0))
        # |det| = f * GENERAL_DET: through a common line for f < 1
        z = sgn * f * GENERAL_DET
        r = np.sqrt((1.0 - z * z) / 2.0)
        cases.append(([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [r, r, z]], f > 1.0))
    rot, _ = np.linalg.qr(np.random.default_rng(5).normal(size=(3, 3)))
    return [(np.asarray(p) @ rot.T, ok) for p, ok in cases]


def test_general_position_batch_matches_loop(rng):
    for planes, ok in _threshold_planes():
        assert _general_position(planes) is ok
        assert _general_position_loop(planes) is ok
    for trial in range(300):
        planes = rng.normal(size=(int(rng.integers(1, 25)), 3))
        if trial % 2:
            # a near-copy of one plane, 1e-12 to 1e-3 away
            k = rng.integers(len(planes))
            planes[rng.integers(len(planes))] = planes[k] \
                + rng.normal(size=3) * 10.0 ** rng.uniform(-12, -3)
        planes /= np.linalg.norm(planes, axis=1, keepdims=True)
        assert _general_position(planes) is _general_position_loop(planes)


# sha256 of random_grasp(m, seed)'s positions, normals and preloads over
# seeds 0-19, taken from the per-pair, per-triple loop; 9 of the 29 draws
# at m = 20 and 16 of the 36 at m = 24 are rejected and redrawn
GRASP_DIGESTS = {
    20: "d9901da6bbd931943bb2ed38d2bdb7cfb2236d5ca45d7524bae317ed9f56f179",
    24: "85578d618e702651f335d242a5609617f732307e6a4baeeef390a08f1fa6f04d",
}


@pytest.mark.parametrize("m", sorted(GRASP_DIGESTS))
def test_random_grasp_draws_are_pinned(m):
    h = hashlib.sha256()
    for seed in range(20):
        model = random_grasp(m, seed)
        for part in ([c.position for c in model.contacts],
                     [c.normal for c in model.contacts], model.preload):
            h.update(np.asarray(part, dtype=float).tobytes())
    assert h.hexdigest() == GRASP_DIGESTS[m]


def test_single_contact_three_states():
    states = enumerate_slip_states(GraspModel([Contact([0, 0], [0, -1], 0.5)]),
                                   detachment=False)
    assert states.count_excluding_origin == 3
    labels = {s.labels for s in states}
    assert labels == {(-1,), (0,), (1,)}


def test_origin_state_is_first():
    states = enumerate_slip_states(three_contact())
    assert states.states[0].dim == "origin"
    assert states.states[0].labels == (0, 0, 0)


def test_canonical_order_dimension_major():
    states = enumerate_slip_states(three_contact(), detachment=False)
    ranks = [{"origin": 0, "line": 1, "facet": 2, "region": 3}[s.dim]
             for s in states]
    assert ranks == sorted(ranks)


def test_four_contact_detachment_contains_expected_state():
    states = enumerate_slip_states(four_contact(), detachment=True)
    assert any(s.labels == (-1, DETACHED, 0, DETACHED) for s in states)


def test_detached_only_for_zero_preload():
    states = enumerate_slip_states(four_contact(True), detachment=True)
    assert all(DETACHED not in s.labels for s in states)


def _assert_sampling_complete(model, states, rng):
    # every sampled motion's sign pattern appears as an enumerated state
    arr = states.arrangement
    normals = arr.normals
    known = {s.labels for s in states}
    samples = rng.normal(size=(10000, 3))
    samples /= np.linalg.norm(samples, axis=1, keepdims=True)
    signs = np.sign(normals @ samples.T).astype(int)
    for col in range(signs.shape[1]):
        labels = []
        for i in range(model.m):
            jt, ot = arr.tangent[i].tolist()
            js, os_ = arr.separation[i].tolist()
            if js >= 0 and os_ * signs[js, col] < 0:
                labels.append(DETACHED)
                continue
            labels.append(ot * signs[jt, col])
        assert tuple(labels) in known


def test_sampling_completeness(rng):
    model = random_grasp(4, rng=17)
    _assert_sampling_complete(model, enumerate_slip_states(model, detachment=True),
                              rng)


@pytest.mark.parametrize("seed", [3, 9, 20, 32])
def test_eighteen_plane_grasps_enumerate(seed, rng):
    # these grasps made the former LP-based enumeration exceed its pivot
    # limit; the sphere construction runs no LP
    model = random_grasp(9, seed, detachment=True)
    states = enumerate_slip_states(model)
    assert states.arrangement.n_planes == 18
    labels = [s.labels for s in states]
    assert len(set(labels)) == len(labels)
    _assert_sampling_complete(model, states, rng)


def test_cli_enumerates_eighteen_plane_grasp(tmp_path, capsys):
    path = tmp_path / "m9-s3.grasp"
    path.write_text(format_grasp(random_grasp(9, 3, detachment=True)))
    assert main(["enumerate", str(path)]) == 0
    assert '"solver_states"' in capsys.readouterr().out


def _labels_of(signs, arr, m, detachment):
    """A cell's per-contact labels, read off its signs contact by contact."""
    labels = []
    for i in range(m):
        j, orient = arr.separation[i].tolist()
        if detachment and j >= 0 and orient * signs[j] < 0:
            labels.append(DETACHED)
            continue
        j, orient = arr.tangent[i].tolist()
        labels.append(orient * signs[j])
    return tuple(labels)


@pytest.mark.parametrize("model,detachment", [
    *((random_grasp(m, rng=300 + m), det) for m in range(2, 10)
      for det in (False, True)),
    (three_contact(), True), (four_contact(), False), (four_contact(), True),
    # the two rays of a line in every plane tie up to their witnesses,
    # and here the second ray sorts first
    (random_grasp(2, rng=301), False),
    (GraspModel([Contact([0, y], [0, -1], 0.5) for y in (-1, 0, 2)]), False)])
def test_enumerated_order_is_canonical(model, detachment):
    _assert_canonical_order(model, detachment)


# enumerate_large's inputs: random_grasp(m, seed, detachment=det)
LARGE = [(12, 0, False), (16, 0, False), (20, 1, False),
         (6, 0, True), (8, 0, True), (9, 3, True)]


@pytest.mark.parametrize("m,seed,detachment", LARGE)
def test_large_enumerated_order_is_canonical(m, seed, detachment):
    _assert_canonical_order(random_grasp(m, seed, detachment=detachment),
                            detachment)


def _assert_canonical_order(model, detachment):
    """The states follow SlipState.sort_key and, with detachment, each
    label vector is its first cell's in the order lines, facets,
    regions."""
    states = enumerate_slip_states(model, detachment=detachment)
    rest = states.states[1:]
    assert rest == sorted(rest, key=SlipState.sort_key)
    arr = states.arrangement
    first = {}  # labels -> the first cell with them, lines to regions
    for kind in ("lines", "facets", "regions"):
        cells = states.cells[kind]
        for signs, witness in zip(cells.signs.tolist(), cells.witness):
            first.setdefault(_labels_of(signs, arr, model.m, detachment),
                             (kind[:-1], tuple(signs), witness))
    if not detachment:
        assert len(rest) == states.count_excluding_origin
        return
    first.pop((0,) * model.m, None)  # the origin's labels come first
    assert len(rest) == len(first)
    for st in rest:
        dim, signs, witness = first[st.labels]
        assert (st.dim, st.signs) == (dim, signs)
        assert np.array_equal(st.witness, witness)


@pytest.mark.parametrize("width", [1, 2, 26, 27, 31, 32, 65])
def test_packed_rows_order_and_first_occurrences(width, rng):
    # more than 26 entries take more than one word
    rows = rng.integers(-1, 3, size=(300, width)).astype(np.int8)
    rows[150:] = rows[rng.integers(0, 150, 150)]  # repeats
    keys = _packed(rows)
    as_tuples = [tuple(r) for r in rows.tolist()]
    assert [as_tuples[k] for k in np.lexsort(keys[::-1])] == sorted(as_tuples)
    firsts = [k for k, r in enumerate(as_tuples) if r not in as_tuples[:k]]
    assert _first_rows(keys).tolist() == firsts


def test_states_are_built_only_when_asked_for(monkeypatch):
    built = []

    def counting(self, *args, _init=SlipState.__init__, **kwargs):
        built.append(type(self).__name__)
        _init(self, *args, **kwargs)
    monkeypatch.setattr(SlipState, "__init__", counting)

    large = enumerate_slip_states(random_grasp(20, 1), detachment=False)
    assert large.arrangement.n_planes == 20 and len(large) == 1523
    model = four_contact(True)
    states = enumerate_slip_states(model)
    # the all-stick state is singular and feasible under this pull
    # (Table III), so the point's LPs and the canonical witness run
    assert check_stability(model, (0.0, 1.999, 0.0), states=states).stable
    assert max_resistible(model, (0.0, 1.0), states=states).magnitude > 0
    assert built == []

    assert len(large.states) == len(large)
    assert built == ["SlipState"] * len(large)
    built.clear()
    assert len(list(states)) == len(states)
    assert built == ["SlipState"] * len(states)


def test_labels_of_a_grasp_with_more_planes_than_int8_holds():
    # 130 contacts around a circle, each with its own tangent plane
    theta = np.linspace(0, 2 * np.pi, 130, endpoint=False)
    rho = np.random.default_rng(0).uniform(0.6, 1.6, 130)
    normals = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    model = GraspModel([Contact(r * n, n, 0.5) for r, n in zip(rho, normals)])
    states = enumerate_slip_states(model, detachment=False)
    assert states.arrangement.n_planes == 130
    assert len(states) == 4 * 130 ** 2 - 4 * 130 + 3
    for k in range(1, len(states), 97):
        assert tuple(states.labels[k].tolist()) == _labels_of(
            states.signs[k].tolist(), states.arrangement, 130, False)


def _one_face_count(states):
    # antipodal rays with an all-zero sign vector bound a single line cell
    rays = states.cells["lines"]
    whole_lines = int(np.count_nonzero(np.all(rays.signs == 0, axis=1)))
    return len(rays) - whole_lines // 2


def test_euler_and_zaslavsky_random():
    for seed in range(6):
        m = 2 + seed
        states = enumerate_slip_states(random_grasp(m, rng=100 + seed),
                                       detachment=bool(seed % 2))
        chi, expected = cell_euler(states)
        assert chi == expected, (seed, chi)
        assert partial_cube_problem(states) is None, seed
        n = states.arrangement.n_planes
        assert states.cell_counts["regions"] <= zaslavsky_bound(n, 3, 3)
        assert states.cell_counts["facets"] <= zaslavsky_bound(n, 3, 2)
        assert _one_face_count(states) <= zaslavsky_bound(n, 3, 1)


# ---------------------------------------------------------------------------
# exhaustive sign-vector oracle on degenerate geometry
# ---------------------------------------------------------------------------

ORACLE_MARGIN = 1e-7


def _max_margin(signs, normals):
    """HiGHS max-margin program over the box |d| <= 1: the (d, t) with
    the largest t <= 1 such that s_j n_j . d >= t on signed planes and
    n_j . d = 0 on zero-signed ones, or None."""
    signs = np.asarray(signs)
    strict = signs != 0
    a_ub = np.hstack([-(signs[strict, None] * normals[strict]),
                      np.ones((strict.sum(), 1))])
    a_eq = np.hstack([normals[~strict], np.zeros(((~strict).sum(), 1))])
    res = linprog([0, 0, 0, -1], A_ub=a_ub, b_ub=np.zeros(len(a_ub)),
                  A_eq=a_eq if len(a_eq) else None,
                  b_eq=np.zeros(len(a_eq)) if len(a_eq) else None,
                  bounds=[(-1, 1)] * 3 + [(None, 1)], method="highs")
    return (res.x[:3], -res.fun) if res.status == 0 else None


def _oracle_sign_vectors(normals):
    """Every sign vector in {-1, 0, 1}^k that some nonzero motion realizes.

    Exhaustive, pruned by prefixes: a motion realizing a sign vector
    realizes each of its prefixes, and the prefix's witness settles a
    strict extension it already satisfies. The all-zero vector counts
    when the planes share a line (rank < 3).
    """
    found = [((), None)]  # (prefix, witness)
    for j, normal in enumerate(normals):
        nxt = []
        for prefix, d in found:
            for s in (1, -1, 0):
                signs = prefix + (s,)
                if not any(signs):
                    nxt.append((signs, None))
                elif s and d is not None and s * (normal @ d) > ORACLE_MARGIN:
                    nxt.append((signs, d))
                else:
                    res = _max_margin(signs, normals[:j + 1])
                    if res is not None and res[1] > ORACLE_MARGIN:
                        nxt.append((signs, res[0]))
        found = nxt
    out = {v for v, _d in found if any(v)}
    if np.linalg.matrix_rank(normals) < 3:
        out.add((0,) * len(normals))
    return out


def _pencil_contact(center, angle, offset):
    """A contact whose tangent line passes through ``center``."""
    n = np.array([np.cos(angle), np.sin(angle)])
    return Contact(np.asarray(center) + offset * np.array([n[1], -n[0]]), n, 0.5)


GRID = st.integers(-4, 4).map(lambda k: 0.5 * k)
ANGLE = st.integers(0, 7).map(lambda k: 0.25 * np.pi * k)


@st.composite
def degenerate_grasps(draw):
    """Angles on a pi/4 grid and positions on a half-unit grid, so normals
    repeat or oppose and planes coincide; optionally three contacts whose
    tangent lines meet in one point, whose tangent planes share a line."""
    detachment = draw(st.booleans())
    contacts = []
    if draw(st.booleans()):
        center = (draw(GRID), draw(GRID))
        angles = draw(st.lists(ANGLE, min_size=3, max_size=3, unique=True))
        contacts += [_pencil_contact(center, a, draw(GRID)) for a in angles]
    # at most 7 planes: each contact gives one, or two with detachment
    free = draw(st.integers(0 if contacts else 1,
                            (3 if detachment else 7) - len(contacts)))
    for _ in range(free):
        angle = draw(ANGLE)
        if contacts and draw(st.booleans()):  # repeat or oppose a normal
            angle = np.arctan2(*contacts[-1].normal[::-1]) + draw(
                st.sampled_from([0.0, np.pi]))
        contacts.append(Contact([draw(GRID), draw(GRID)],
                                [np.cos(angle), np.sin(angle)], 0.5))
    return GraspModel(contacts), detachment


@settings(max_examples=40, deadline=None)
@given(degenerate_grasps())
def test_cell_sign_vectors_match_exhaustive_oracle(case):
    model, detachment = case
    states = enumerate_slip_states(model, detachment=detachment)
    normals = states.arrangement.normals
    cells = [tuple(signs) for kind in ("lines", "facets", "regions")
             for signs in states.cells[kind].signs.tolist()]
    assert set(cells) == _oracle_sign_vectors(normals)
    # only the two rays of a line every plane contains share a sign vector
    repeats = len(cells) - len(set(cells))
    assert repeats == (1 if cells.count((0,) * len(normals)) == 2 else 0)


def _reference_cells(arr):
    """(lines, facets, regions) as (signs, witness) lists, built one pair,
    one circle and one facet side at a time, with the array
    construction's arithmetic for every value that reaches a witness."""
    normals = arr.normals
    n = len(normals)
    pairs = list(itertools.combinations(range(n), 2))
    lines = []
    if pairs:
        first, second = np.array(pairs).T
        dirs = np.cross(normals[first], normals[second])
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        vals = dirs @ normals.T
        zero = np.abs(vals) <= 1e-9
        zero[np.arange(len(pairs)), first] = True
        zero[np.arange(len(pairs)), second] = True
        signs = np.where(zero, 0, np.sign(vals)).astype(int)
        covered = set()
        for k, pair in enumerate(pairs):
            if pair in covered:
                continue
            covered.update(itertools.combinations(
                np.flatnonzero(zero[k]).tolist(), 2))
            lines += [(tuple((s * signs[k]).tolist()), s * dirs[k])
                      for s in (1, -1)]
    rays = np.array([w for _s, w in lines]).reshape(-1, 3)
    on_circle = np.array([s for s, _w in lines]).reshape(-1, n) == 0
    facets = []
    for i, normal in enumerate(normals):
        e1 = np.cross(normal, np.eye(3)[np.argmin(np.abs(normal))])
        e1 /= np.linalg.norm(e1)
        e2 = np.cross(normal, e1)
        mine = rays[on_circle[:, i]]
        ang = np.sort(np.arctan2(mine @ e2, mine @ e1))
        mid = 0.5 * (ang + np.append(ang[1:], ang[:1] + 2 * np.pi)) \
            if len(ang) else np.zeros(1)
        for z in np.outer(np.cos(mid), e1) + np.outer(np.sin(mid), e2):
            signs = np.sign(normals @ z).astype(int)
            signs[i] = 0
            facets.append((tuple(signs.tolist()), z))
    regions = {}
    dist = np.abs(np.array([z for _s, z in facets]).reshape(-1, 3) @ normals.T)
    for (signs, z), d in zip(facets, dist):
        i = signs.index(0)
        delta = 0.5 * np.delete(d, i).min(initial=1.0)
        for s in (1, -1):
            side = signs[:i] + (s,) + signs[i + 1:]
            regions.setdefault(side, z + s * delta * normals[i])
    return lines, facets, list(regions.items())


def _assert_cells_match_reference(model, detachment):
    arr = _arr(model, detachment)
    for cells, ref in zip(_cells(arr)[:3], _reference_cells(arr)):
        assert list(map(tuple, cells.signs.tolist())) == [
            signs for signs, _w in ref]
        got = cells.witness
        want = np.array([w for _s, w in ref]).reshape(-1, 3)
        assert np.array_equal(got, want)


@pytest.mark.parametrize("m", range(2, 10))
@pytest.mark.parametrize("detachment", [False, True])
def test_cells_match_one_at_a_time_reference(m, detachment):
    _assert_cells_match_reference(random_grasp(m, rng=500 + m), detachment)


@settings(max_examples=40, deadline=None)
@given(degenerate_grasps())
def test_degenerate_cells_match_one_at_a_time_reference(case):
    _assert_cells_match_reference(*case)


@settings(max_examples=40, deadline=None)
@given(degenerate_grasps())
def test_degenerate_enumerated_order_is_canonical(case):
    model, _detachment = case
    for detachment in (False, True):
        _assert_canonical_order(model, detachment)


@pytest.mark.parametrize("m,seed,detachment", LARGE)
def test_large_cells_match_one_at_a_time_reference(m, seed, detachment):
    _assert_cells_match_reference(
        random_grasp(m, seed, detachment=detachment), detachment)


# ---------------------------------------------------------------------------
# zaslavsky bound
# ---------------------------------------------------------------------------

def test_zaslavsky_values():
    assert zaslavsky_bound(3, 3, 3) == 8
    assert zaslavsky_bound(2, 3, 3) == 4
    assert zaslavsky_bound(3, 3, 0) == 1


def test_zaslavsky_invalid_args():
    with pytest.raises(ValueError):
        zaslavsky_bound(2, 3, 4)
    with pytest.raises(ValueError):
        zaslavsky_bound(-1, 3, 0)
    with pytest.raises(ValueError):
        zaslavsky_bound(3, 3, -1)
