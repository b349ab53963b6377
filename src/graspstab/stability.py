"""Passive-stability query and resistible-wrench sweeps.

The query first tries to certify instability without any slip state.
Under every state each contact force lies in its friction cone, so a
wrench direction y that every cone-edge wrench meets with g . y >= 0
and the load with w . y > 0 proves that no state can hold: one numpy
test over the planes through pairs of cone edges finds such a y where
it can, and the verdict then carries it. Otherwise the query walks the
enumerated slip states in canonical order (origin state, then rays,
facets, regions, lexicographic within each class) and declares the
grasp stable as soon as any state's system admits a solution. The
verdict is order-independent; the reported witness is not, because
neighbouring states can share solution families. The canonical witness
therefore minimizes the total slip speed over all feasible states and
breaks remaining ties by concentrating slip on the lowest-indexed
contacts: each state's lexicographic optimum, whose last objective
centres the forces by the largest least slack of the state's rows, then
one tie rule across states. The rule reads only slip speeds, and the
batch reads those of the direct states and the states of nullity 1 at
their optima from its arrays (``PreparedStates.slip_speeds``). A
state's own LP runs only where the batch cannot read its optimum, and
for the winner and the first feasible state, whose points are returned.
The same input always gives the same witness, but it is not unique:
where the winner's lexicographic optimum is a face rather than a point,
the LP engine's fixed row order and its nearest-to-zero rule pick one
point of that face.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from . import equilibrium
from .arrangement import SlipStateSet, enumerate_slip_states
# a singular state's point is called as equilibrium.linear_feasibility and
# the canonical witness's LP by this module's name, so that a trace
# (stabbench/tracing.py) tells the two apart
from .equilibrium import (EquilibriumSolution, PreparedState, PreparedStates,
                          linear_feasibility, solve_state)
# unused here; the benchmark's traced run wraps it under this module's
# name (stabbench/tracing.py)
from .equilibrium import assemble_state_system  # noqa: F401
from .model import GraspModel, as_wrench, check_finite, cone_edges
from .params import (FLAT_REL, PLANE_COINCIDENT, SEPARATION_REL,
                     WITNESS_DIGITS, WITNESS_TIE)

# the components of a cross product, a x b = a[_LEAD] b[_LAG] -
# a[_LAG] b[_LEAD]
_LEAD, _LAG = np.array([1, 2, 0]), np.array([2, 0, 1])

__all__ = [
    "Verdict",
    "DirectionResult",
    "RegionSweep",
    "check_stability",
    "max_resistible",
    "resistible_region",
]


@dataclass(eq=False)
class Verdict:
    stable: bool
    witness: EquilibriumSolution | None
    states_tried: int
    detachment: bool
    first_feasible: int = -1  # canonical index of the first feasible state
    # the unit wrench direction y of an unstable verdict decided by the
    # friction-cone separation test, with g . y >= 0 for every cone-edge
    # wrench g and w . y > 0; None for any other verdict
    separating_direction: np.ndarray | None = None


@dataclass(eq=False)
class DirectionResult:
    """How far a pure force along ``direction`` can grow (see max_resistible).

    magnitude is the midpoint of bracket, the (stable, unstable) loads on
    the bisection grid that close in on the first exit from the stable
    stretch that starts at zero load, or math.inf when that stretch
    reaches the cap (bracket None). stable_intervals are the merged
    closed intervals of loads in [0, cap] under which the grasp holds,
    further stretches included. Their ends are exact only up to the
    width of the singular states they leave out, those consistent only
    on a band of loads about EQ_RESIDUAL wide (see
    ``PreparedStates.stable_intervals``): the grasp may still hold just
    past an end.
    """

    direction: np.ndarray
    magnitude: float  # math.inf = at least the cap
    bracket: tuple[float, float] | None  # final (stable, unstable) magnitudes
    stable_intervals: tuple[tuple[float, float], ...] = ()

    @property
    def at_least_cap(self) -> bool:
        return math.isinf(self.magnitude)


@dataclass(eq=False)
class RegionSweep:
    results: list[DirectionResult]
    n_directions: int
    tol: float
    cap: float


def check_stability(model: GraspModel, w, *, detachment: bool | None = None,
                    states: SlipStateSet | None = None,
                    witness_policy: str = "canonical") -> Verdict:
    """Decide passive equilibrium under the wrench w.

    witness_policy:
      "first"     - witness from the first feasible state (fastest);
      "canonical" - deterministic minimal-slip witness (see module doc).
    The verdict itself is identical under either policy; any other
    policy is a ValueError, as is a model without contacts, with a
    non-finite number or with a zero-length normal
    (``model.check_finite``).

    Once the input is checked, and before any state is enumerated, one
    friction-cone separation test (``_separating_direction``) runs: where
    it finds a direction y that every cone-edge wrench meets with g . y
    >= 0 and the load with w . y above its margin, the verdict is
    unstable with states_tried 0 and y as its separating_direction. The
    test is sound, not complete, so a load it passes over takes the path
    below, as does every stable one.

    The grasp's states are prepared as one batch (``SlipStateSet.prepared``):
    every direct state and every singular state of nullity 1 is decided,
    and every other singular state's consistency screened, in a few array
    operations. The states left are walked in canonical order, "first"
    stopping at the first feasible state. "canonical" decides a singular
    state by its screen, ranks the states on the slip speeds the batch
    reads, and runs a state's own LPs only where the batch read none or
    where its point is returned; a state whose two boxes then give no
    point does not hold, as under "first". ``states``, enumerated for
    this model object (a ValueError otherwise), keeps its batch for the
    next query and sets the detachment mode, which an explicit
    ``detachment`` must match (a ValueError otherwise); without it the
    states are enumerated here.
    """
    if witness_policy not in ("first", "canonical"):
        raise ValueError(f"witness_policy must be 'first' or 'canonical', "
                         f"got {witness_policy!r}")
    w = as_wrench(w)
    check_finite(model)
    if states is not None:
        _check_states(model, states, detachment)
        detachment = states.detachment
    elif detachment is None:
        detachment = model.options.detachment

    y = _separating_direction(model, w)
    if y is not None:
        return Verdict(stable=False, witness=None, states_tried=0,
                       detachment=detachment, separating_direction=y)
    if states is None:
        states = enumerate_slip_states(model, detachment=detachment)

    first = witness_policy == "first"
    tried, feasible = _feasible_states(model, states.prepared, w, first)
    found = None
    if feasible:
        found = (feasible[0][1].state_index, feasible[0][1]) if first else \
            _canonical_witness(w, states.prepared, feasible)
    if found is None:
        return Verdict(stable=False, witness=None, states_tried=tried,
                       detachment=detachment)
    first_idx, witness = found
    return Verdict(stable=True, witness=witness, states_tried=tried,
                   detachment=detachment, first_feasible=first_idx)


def _check_states(model: GraspModel, states: SlipStateSet,
                  detachment: bool | None) -> None:
    """A ValueError when states were enumerated for another model object,
    whose systems they would solve, or with a detachment mode other than
    an explicit ``detachment``."""
    if states.model is not model:
        raise ValueError("states were enumerated for another model")
    if detachment is not None and detachment != states.detachment:
        raise ValueError(f"states were enumerated with detachment="
                         f"{states.detachment}, not {detachment}")


def _states_of(model: GraspModel, states: SlipStateSet | None,
               detachment: bool | None) -> SlipStateSet:
    """states, checked by ``_check_states``, or the model's own when None."""
    if states is None:
        return enumerate_slip_states(model, detachment=detachment)
    _check_states(model, states, detachment)
    return states


def _separating_direction(model: GraspModel, w: np.ndarray
                          ) -> np.ndarray | None:
    """A unit y with g . y >= 0 for every cone-edge wrench g of the grasp
    and w . y above the margin, or None where the test finds none.

    Under every slip state each contact force lies in its friction cone,
    so equilibrium needs -w in the cone K spanned by the wrenches of the
    contact forces (1, +-mu) (``model.cone_edges``); such a y puts -w
    outside it. The candidates are the normals of the planes through
    two generators that have every generator on one side. Where one
    such plane has every generator on both sides, K is flat, and the
    normals of the planes through its normal and one generator that
    have every generator on one side join them, so a load in the plane
    of K is decided too. The test
    works in a frame centred on the contacts' centroid, with lengths in
    units of their largest distance from it, where it fires when the
    deepest candidate has w . y > SEPARATION_REL * F (see params.py); y
    is returned in the caller's frame. It is sound, not
    complete: a plane is dropped when rounding puts a generator that is
    not a copy of its two across it, and a separable w that the test
    misses goes on to the slip states.
    """
    xs, ys = zip(*(c.position.tolist() for c in model.contacts))
    cx, cy = sum(xs) / len(xs), sum(ys) / len(ys)
    # one point of contact gives no length: its generators carry no torque
    unit = math.sqrt(max((px - cx) ** 2 + (py - cy) ** 2
                         for px, py in zip(xs, ys))) or 1.0
    # a frictionless contact's two edges are one generator, held twice
    gen = cone_edges(model)
    gen[:, 2] = (gen[:, 2] - cx * gen[:, 1] + cy * gen[:, 0]) / unit
    wx, wy, wz = w.tolist()
    wrench = np.array([wx, wy, (wz - cx * wy + cy * wx) / unit])

    # the normal g_i x g_j of every ordered pair, in explicit products
    # (np.cross costs more than the arithmetic); g_j x g_i is its negative
    k = len(gen)
    lead, lag = gen[:, _LEAD], gen[:, _LAG]
    cross = (lead[:, None] * lag - lag[:, None] * lead).reshape(k * k, 3)
    gram = gen @ gen.T
    sq = gram.diagonal()
    # two coincident or opposite generators span no plane
    plane = gram * gram <= PLANE_COINCIDENT ** 2 * np.multiply.outer(sq, sq)
    # each plane holds its two generators and their exact copies, whatever
    # the rounding of the products says
    same = (gen[:, None] == gen).all(axis=2)
    held = (cross @ gen.T >= 0.0) | (same[:, None] | same).reshape(k * k, k)
    keep = (plane.ravel() & held.all(axis=1)).reshape(k, k)
    cands = cross[keep.ravel()]
    # a plane with every generator on both sides contains K: within it,
    # K is bounded by the planes through its normal and one generator
    flat = np.flatnonzero((keep & keep.T).ravel())
    if len(flat):
        normal = cross[flat[0]]
        inner = normal[_LEAD] * lag - normal[_LAG] * lead
        inner = np.concatenate([inner, -inner])
        on_side = (inner @ gen.T >= 0.0) | np.concatenate([same, same])
        cands = np.concatenate([cands, inner[on_side.all(axis=1)]])
    if not len(cands):
        return None
    depth = (cands @ wrench) / np.sqrt((cands * cands).sum(axis=1))
    best = int(depth.argmax())
    force_unit = max(math.sqrt(wrench @ wrench),
                     float(model.preload[:, 0].max()),
                     float(model.stiffness.max()) * unit)
    if not depth[best] > SEPARATION_REL * force_unit:
        return None
    # the same functional in the caller's frame: w . y = wrench . cands
    yx, yy, yt = cands[best].tolist()
    y = np.array([yx + cy * yt / unit, yy - cx * yt / unit, yt / unit])
    return y / math.sqrt(y @ y)


def _feasible_states(model: GraspModel, states: PreparedStates, w,
                     first: bool):
    """(states tried, [(position, value)]) of the feasible states in order.

    Only the candidates of ``states.candidates`` are walked: a direct one
    is feasible outright, and one that ``states.screened`` marks has
    passed its screen in the batch. With first, the walk ends at the
    first feasible state, and so does the count of states tried; value
    is its solution: a marked candidate's from the LPs of its point
    (``linear_feasibility``), any other singular one's from
    ``solve_state``. Without it, value is the slip speeds that the batch
    reads at the state's point of the canonical witness
    (``PreparedStates.slip_speeds``), or None where its own LP is to
    give them, and a singular candidate left unmarked is decided by its
    screen (``PreparedState.passes_screen``): it is the only one sliced.
    """
    if not first:
        positions, speeds, read = states.slip_speeds(w)
        return len(states), [
            (p, v if r else None)
            for p, v, r in zip(positions.tolist(), speeds, read.tolist())
            if states.direct[p] or states.screened[p]
            or states[p].passes_screen(w)]
    for p in states.candidates(w).tolist():
        prep = states[p]
        if prep.direct:
            sol = prep.solution_at(w)
        elif states.screened[p]:
            sol = equilibrium.linear_feasibility(prep, w)
        else:
            sol = solve_state(model, w, prep)
        if sol is not None:
            return p + 1, [(p, sol)]
    return len(states), []


def _canonical_witness(w, states: PreparedStates, feasible
                       ) -> tuple[int, EquilibriumSolution] | None:
    """(index of the first feasible state, the canonical witness), or None.

    feasible is ``_feasible_states``'s list without first. Each state's
    point is its lexicographic optimum: least total slip speed, then each
    slipping contact's speed maximized in contact order, then the largest
    least slack of its own rows, which are held hard. Across states,
    those whose total is within WITNESS_TIE * (1 + |t*|) of the least
    total t* tie, and of these the one whose speeds, rounded to
    WITNESS_DIGITS decimals and compared in contact order, are largest
    wins, the first in canonical order on equal speeds.

    The states are ranked on the speeds the batch read where it read
    them. Only three kinds of state run their own code (``_own_point``):
    those the batch left unread, then the winner and the first state,
    until both have. A state whose own code gives no point holds nowhere
    and drops out, and the states are ranked again, as they are when a
    state's own speeds move the ranking. A direct first state cannot
    drop out, so it runs nothing unless it wins.
    """
    # [position, speeds, solution]: the solution is None until the
    # state's own code has run
    entries = []
    for p, speeds in feasible:
        sol = None
        if speeds is None:
            own = _own_point(states[p], w)
            if own is None:
                continue
            speeds, sol = own
        entries.append([p, speeds, sol])
    while entries:
        head, best = entries[0], _winner(entries)
        pending = [e for e in ([head] if head is best else [head, best])
                   if e[2] is None and (e is best or not states.direct[e[0]])]
        if not pending:
            return states.index[head[0]], best[2]
        for e in pending:
            own = _own_point(states[e[0]], w)
            if own is None:
                entries.remove(e)
            else:
                e[1], e[2] = own
    return None


def _winner(entries: list) -> list:
    """The entry of ``_canonical_witness`` whose speeds win."""
    speeds = np.array([e[1] for e in entries])
    totals = speeds.sum(axis=1).tolist()
    keys = np.round(speeds, WITNESS_DIGITS).tolist()
    t_star = min(totals)
    cap = t_star + WITNESS_TIE * (1.0 + abs(t_star))
    # max keeps the first of equal keys
    return entries[max((k for k, total in enumerate(totals) if total <= cap),
                       key=keys.__getitem__)]


def _own_point(st: PreparedState, w
               ) -> tuple[np.ndarray, EquilibriumSolution] | None:
    """(slip speeds (m,), solution) at the state's lexicographic optimum,
    from its own system, or None where it holds nowhere.

    Slip speeds depend on the motion alone, x_p(w)[:3] + N[:3] z. A
    state is flat when no slip row r moves with N (|r N[:3]| <= FLAT_REL
    |r|), as a direct state or one without slip is: it runs no LP, and
    its point is its own solution, as is that of a state whose LP
    fails. One LP (``linear_feasibility`` with the objective stack)
    gives any other state's point. A singular state's own solution is
    the point of its two boxes (``linear_feasibility``); a state
    for which they give none holds nowhere.
    """
    sys = st.system
    slipping = sorted(sys.slip_dirs)
    dirs = np.array([sys.slip_dirs[i] for i in slipping]).reshape(-1, 3)
    sol = st.solution_at(w) if st.direct else None
    flat = np.all(np.linalg.norm(dirs @ st.null[:3], axis=1)
                  <= FLAT_REL * np.linalg.norm(dirs, axis=1))
    if not flat:
        # the least total slip speed, then each speed maximized
        rows = np.zeros((1 + len(dirs), sys.n))
        rows[0, :3], rows[1:, :3] = dirs.sum(axis=0), -dirs
        lex = linear_feasibility(st, w, objective=rows)
        if lex is not None:
            sol = lex
    if sol is None:
        sol = equilibrium.linear_feasibility(st, w)
    if sol is None:
        return None
    speeds = np.zeros(len(sys.labels))
    speeds[slipping] = dirs @ sol.d
    return speeds, sol


def max_resistible(model: GraspModel, direction, tol: float = 1e-3,
                   cap: float = 1e3, *, detachment: bool | None = None,
                   states: SlipStateSet | None = None
                   ) -> DirectionResult:
    """Largest force magnitude a load ramping up from zero along a
    direction meets before the grasp first fails.

    The stable set along the ray is computed exactly, as merged per-state
    intervals (``PreparedStates.stable_intervals``), so no monotonicity is
    assumed: the first exit E is the end of the stretch that starts at
    zero load, whatever holds beyond it. Magnitude inf means that stretch
    reaches the cap. Otherwise the result is placed on the grid of a
    bisection of [0, cap] to within tol, with "mid <= E" as its test: the
    bracket (lo, hi) has lo stable, hi unstable (past E, and before the
    next stretch, if one starts within the grid's step), hi - lo <= tol,
    or lo and hi adjacent floats where tol is finer than their spacing,
    and the magnitude is its midpoint. When zero load is not itself
    stable the bracket is (0, h). No stability query runs. ``states``
    is as in check_stability: a SlipStateSet of this model object,
    whose batch (``SlipStateSet.prepared``) is built once and shared by
    every call it is passed to. A model that check_finite refuses is a
    ValueError.
    """
    if not (math.isfinite(tol) and math.isfinite(cap) and tol > 0
            and cap > 0):
        raise ValueError("tol and cap must be finite and positive")
    check_finite(model)
    u = np.asarray(direction, dtype=float).reshape(2)
    with np.errstate(over="ignore"):  # an overflowing norm is refused
        norm = np.linalg.norm(u)
    if not 0.0 < norm < math.inf:
        raise ValueError(f"direction {u} has no finite, nonzero norm")
    u = u / norm
    states = _states_of(model, states, detachment)

    spans = tuple(states.prepared.stable_intervals((u[0], u[1], 0.0), cap))
    from_zero = bool(spans) and spans[0][0] <= 0.0
    first_exit = spans[0][1] if from_zero else 0.0
    if first_exit >= cap:
        return DirectionResult(direction=u, magnitude=math.inf, bracket=None,
                               stable_intervals=spans)
    later = spans[1:] if from_zero else spans
    after = later[0][0] if later else math.inf
    # bisection's own steps, "mid <= E" in place of a probe; they go on
    # while hi lies in the next stretch, and stop where no float is left
    # between lo and hi
    lo, hi = 0.0, cap
    while hi - lo > tol or hi >= after:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if mid <= first_exit:
            lo = mid
        else:
            hi = mid
    return DirectionResult(direction=u, magnitude=0.5 * (lo + hi),
                           bracket=(lo, hi), stable_intervals=spans)


def resistible_region(model: GraspModel, n_directions: int, tol: float = 1e-3,
                      cap: float = 1e3, *, detachment: bool | None = None
                      ) -> RegionSweep:
    """max_resistible over uniformly spaced force directions.

    The slip states and their systems depend only on the geometry, so
    they are enumerated once per grasp, and the one SlipStateSet, whose
    batch is prepared on the first direction, serves every direction's
    stable intervals. n_directions must be an integer (a ValueError
    otherwise).
    """
    try:
        n_directions = operator.index(n_directions)
    except TypeError:
        raise ValueError(f"n_directions must be an integer, got "
                         f"{n_directions!r}") from None
    if n_directions < 4:
        raise ValueError("need at least 4 directions")
    states = enumerate_slip_states(model, detachment=detachment)
    results = []
    for j in range(n_directions):
        ang = 2.0 * math.pi * j / n_directions
        res = max_resistible(model, (math.cos(ang), math.sin(ang)), tol, cap,
                             states=states)
        results.append(res)
    return RegionSweep(results=results, n_directions=n_directions, tol=tol,
                       cap=cap)
