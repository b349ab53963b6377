"""Passive-stability query and resistible-wrench sweeps.

The query walks the enumerated slip states in canonical order (origin
state, then rays, facets, regions, lexicographic within each class) and
declares the grasp stable as soon as any state's system admits a
solution. The verdict is order-independent; the reported witness is not,
because neighbouring states can share solution families. The canonical
witness therefore minimizes the total slip speed over all feasible
states and breaks remaining ties by concentrating slip on the
lowest-indexed contacts. The same input always gives the same witness,
but it is not unique: where the winner's max-min-slack optimum is a
face rather than a point, the LP engine's fixed row order and its
nearest-to-zero rule pick one point of that face.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .arrangement import SlipStateSet, enumerate_slip_states
from .equilibrium import (EquilibriumSolution, PreparedState, PreparedStates,
                          StateSystem, _solution_from_x, linear_feasibility,
                          solve_state)
# unused here; the benchmark's traced run wraps it under this module's
# name (stabbench/tracing.py)
from .equilibrium import assemble_state_system  # noqa: F401
from .model import GraspModel, as_wrench
from .params import (FLAT_REL, INEQ_SLACK, WITNESS_DIGITS, WITNESS_PIN,
                     WITNESS_TIE)

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
    policy is a ValueError.

    The grasp's states are prepared as one batch (``SlipStateSet.prepared``):
    every direct state is decided and every singular state's consistency
    screened in a few array operations, and the singular states left are
    decided one by one in canonical order, "first" stopping at the first
    feasible state. ``states``, enumerated for this model object (a
    ValueError otherwise), keeps its batch for the next query and sets
    the detachment mode, which an explicit ``detachment`` must match (a
    ValueError otherwise); without it the states are enumerated here.
    """
    if witness_policy not in ("first", "canonical"):
        raise ValueError(f"witness_policy must be 'first' or 'canonical', "
                         f"got {witness_policy!r}")
    w = as_wrench(w)
    states = _states_of(model, states, detachment)

    tried, feasible = _feasible_states(model, states.prepared, w,
                                       witness_policy == "first")
    if not feasible:
        return Verdict(stable=False, witness=None, states_tried=tried,
                       detachment=states.detachment)

    first_idx = feasible[0][0].index
    if witness_policy == "first":
        witness = feasible[0][1]
    else:
        witness = _canonical_witness(w, feasible)
    return Verdict(stable=True, witness=witness, states_tried=tried,
                   detachment=states.detachment, first_feasible=first_idx)


def _states_of(model: GraspModel, states: SlipStateSet | None,
               detachment: bool | None) -> SlipStateSet:
    """states, or the model's own when None; a ValueError when they were
    enumerated for another model object, whose systems they would solve,
    or with a detachment mode other than an explicit ``detachment``."""
    if states is None:
        return enumerate_slip_states(model, detachment=detachment)
    if states.model is not model:
        raise ValueError("states were enumerated for another model")
    if detachment is not None and detachment != states.detachment:
        raise ValueError(f"states were enumerated with detachment="
                         f"{states.detachment}, not {detachment}")
    return states


def _feasible_states(model: GraspModel, states: PreparedStates, w,
                     first: bool):
    """(states tried, [(state, solution)]) of the feasible states in order.

    Only the candidates of ``states.candidates`` are walked: a direct one
    is feasible outright, a singular one is decided by ``solve_state``.
    With first, the walk ends at the first feasible state, and so does
    the count of states tried.
    """
    feasible: list[tuple[PreparedState, EquilibriumSolution]] = []
    for p in states.candidates(w).tolist():
        prep = states[p]
        sol = prep.solution_at(w) if prep.direct else \
            solve_state(model, w, prep)
        if sol is not None:
            feasible.append((prep, sol))
            if first:
                return p + 1, feasible
    return len(states), feasible


def _augment(sys: StateSystem, rows, rhs) -> StateSystem:
    """sys with the pin rows `rows x >= rhs`, which the ladder holds hard."""
    rows = np.asarray(rows, dtype=float).reshape(-1, sys.n)
    return replace(
        sys, a_in=np.vstack([sys.a_in, rows]),
        b_in=np.concatenate([sys.b_in, np.atleast_1d(rhs)]),
        ineq_kind=sys.ineq_kind + ["pin"] * rows.shape[0])


def _least(sys: StateSystem, c: np.ndarray, sol: EquilibriumSolution,
           flat: bool) -> float:
    """Least c x over sys; c x at sol for a flat state or a failed LP."""
    x = None if flat else linear_feasibility(sys, objective=c)
    return float(c[:3] @ sol.d) if x is None else float(c @ x)


def _canonical_witness(w, feasible) -> EquilibriumSolution:
    """Minimal total slip across all feasible states, deterministic ties.

    Stage 1 minimizes each state's summed slip speed. Stage 2, among the
    states within WITNESS_TIE of the least total t*, maximizes the
    per-contact slip speeds lexicographically in contact order, each on
    one system that caps the total and pins every speed found before it
    to within WITNESS_PIN. Stage 3 takes the winner's point of that
    pinned system that maximizes the least slack of the state's own rows;
    the cap and the pins hold as hard rows and set no margin, so the
    point centres the forces they leave free. Where an LP fails, the
    state's own solution stands in for its optimum or point.

    Slip speeds depend on the motion alone, x_p(w)[:3] + N[:3] z. A
    state is flat when no slip row r moves with N (|r N[:3]| <=
    FLAT_REL |r|), as a direct state or one without slip is: its speeds
    are read off its solution with no LP, and its solution is its point.
    """
    entries = []
    for st, sol in feasible:
        sys = st.system.at(w)
        obj = np.zeros(sys.n)
        obj[:3] = sum(sys.slip_dirs.values())  # total slip speed
        flat = all(np.linalg.norm(r @ st.null[:3])
                   <= FLAT_REL * np.linalg.norm(r)
                   for r in sys.slip_dirs.values())
        entries.append((st, sol, sys, obj, flat,
                        _least(sys, obj, sol, flat)))

    t_star = min(e[-1] for e in entries)
    cap = t_star + WITNESS_TIE * (1.0 + abs(t_star))
    best = None
    for st, sol, sys, obj, flat, t_val in entries:
        if t_val > cap:
            continue
        pinned = _augment(sys, -obj, [-cap])
        speeds = []
        for i in range(sys.m):
            if i not in sys.slip_dirs:
                speeds.append(0.0)
                continue
            row = np.zeros(sys.n)
            row[:3] = sys.slip_dirs[i]
            speeds.append(-_least(pinned, -row, sol, flat))
            pinned = _augment(pinned, row, [speeds[-1] - WITNESS_PIN])
        key = tuple(np.round(speeds, WITNESS_DIGITS))
        if best is None or key > best[0]:
            best = (key, st, sol, sys, flat, pinned)

    _key, st, sol, sys, flat, pinned = best
    x = None if flat else linear_feasibility(pinned)
    if x is not None:
        pinned_sol = _solution_from_x(sys, x, st.index)
        if pinned_sol.min_ineq_slack >= -INEQ_SLACK:
            return pinned_sol
    return sol


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
    every call it is passed to.
    """
    if not (math.isfinite(tol) and math.isfinite(cap) and tol > 0
            and cap > 0):
        raise ValueError("tol and cap must be finite and positive")
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
    stable intervals.
    """
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
