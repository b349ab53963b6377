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
from .params import DEFAULT_TOLS, Tolerances

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
    direction: np.ndarray
    magnitude: float  # math.inf = at least the cap
    bracket: tuple[float, float] | None  # final (stable, unstable) magnitudes

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
                    states: SlipStateSet | PreparedStates | None = None,
                    witness_policy: str = "canonical",
                    tols: Tolerances = DEFAULT_TOLS) -> Verdict:
    """Decide passive equilibrium under the wrench w.

    witness_policy:
      "first"     - witness from the first feasible state (fastest);
      "canonical" - deterministic minimal-slip witness (see module doc).
    The verdict itself is identical under either policy.

    The grasp's states are prepared as one batch (see PreparedStates):
    every direct state is decided and every singular state's consistency
    screened in a few array operations, and the singular states left are
    decided one by one in canonical order, "first" stopping at the first
    feasible state. PreparedStates of this grasp passed as ``states``
    keep the batch for the next query.
    """
    w = as_wrench(w)
    if states is None:
        states = enumerate_slip_states(model, detachment=detachment, tols=tols)
    states = PreparedStates.of(model, states, tols)

    tried, feasible = _feasible_states(model, states, w,
                                       witness_policy == "first", tols)
    if not feasible:
        return Verdict(stable=False, witness=None, states_tried=tried,
                       detachment=states.detachment)

    first_idx = feasible[0][0].index
    if witness_policy == "first":
        witness = feasible[0][1]
    else:
        witness = _canonical_witness(w, feasible, tols)
    return Verdict(stable=True, witness=witness, states_tried=tried,
                   detachment=states.detachment, first_feasible=first_idx)


def _feasible_states(model: GraspModel, states: PreparedStates, w,
                     first: bool, tols: Tolerances):
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
            solve_state(model, w, prep, tols=tols)
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
           flat: bool, tols: Tolerances) -> float:
    """Least c x over sys; c x at sol for a flat state or a failed LP."""
    x = None if flat else linear_feasibility(sys, tols=tols, objective=c)
    return float(c[:3] @ sol.d) if x is None else float(c @ x)


def _canonical_witness(w, feasible, tols) -> EquilibriumSolution:
    """Minimal total slip across all feasible states, deterministic ties.

    Stage 1 minimizes each state's summed slip speed. Stage 2, among the
    states within witness_tie of the least total t*, maximizes the
    per-contact slip speeds lexicographically in contact order, each on
    one system that caps the total and pins every speed found before it
    to within witness_pin. Stage 3 takes the winner's point of that
    pinned system that maximizes the least slack of the state's own rows;
    the cap and the pins hold as hard rows and set no margin, so the
    point centres the forces they leave free. Where an LP fails, the
    state's own solution stands in for its optimum or point.

    Slip speeds depend on the motion alone, x_p(w)[:3] + N[:3] z. A
    state is flat when no slip row r moves with N (|r N[:3]| <=
    flat_rel |r|), as a direct state or one without slip is: its speeds
    are read off its solution with no LP, and its solution is its point.
    """
    entries = []
    for st, sol in feasible:
        sys = st.system.at(w)
        obj = np.zeros(sys.n)
        obj[:3] = sum(sys.slip_dirs.values())  # total slip speed
        flat = all(np.linalg.norm(r @ st.null[:3])
                   <= tols.flat_rel * np.linalg.norm(r)
                   for r in sys.slip_dirs.values())
        entries.append((st, sol, sys, obj, flat,
                        _least(sys, obj, sol, flat, tols)))

    t_star = min(e[-1] for e in entries)
    cap = t_star + tols.witness_tie * (1.0 + abs(t_star))
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
            speeds.append(-_least(pinned, -row, sol, flat, tols))
            pinned = _augment(pinned, row, [speeds[-1] - tols.witness_pin])
        key = tuple(np.round(speeds, 9))
        if best is None or key > best[0]:
            best = (key, st, sol, sys, flat, pinned)

    _key, st, sol, sys, flat, pinned = best
    x = None if flat else linear_feasibility(pinned, tols=tols)
    if x is not None:
        pinned_sol = _solution_from_x(sys, x, st.index)
        if pinned_sol.min_ineq_slack >= -tols.ineq_slack:
            return pinned_sol
    return sol


def max_resistible(model: GraspModel, direction, tol: float = 1e-3,
                   cap: float = 1e3, *, detachment: bool | None = None,
                   states: SlipStateSet | PreparedStates | None = None,
                   tols: Tolerances = DEFAULT_TOLS) -> DirectionResult:
    """Largest resistible force magnitude along a direction, by bisection.

    Returns magnitude inf when the grasp still holds at the cap. The
    returned bracket (stable, unstable) certifies only its two probes:
    stable at lo (lo = 0 is not probed) and unstable at hi. Stability
    need not be monotone along a ray, and ROADMAP item 1 found rays of
    random preloaded grasps that are not; there the magnitude is the end
    of whichever stable stretch the bisection closes in on.

    The state systems do not depend on the load, so they are prepared
    as one batch (assembled and factored) once per call and every
    bisection probe decides all direct states in one array pass over
    it; PreparedStates passed as ``states`` are shared.
    """
    if not (math.isfinite(tol) and math.isfinite(cap) and tol > 0
            and cap > 0):
        raise ValueError("tol and cap must be finite and positive")
    u = np.asarray(direction, dtype=float).reshape(2)
    u = u / np.linalg.norm(u)
    if states is None:
        states = enumerate_slip_states(model, detachment=detachment, tols=tols)
    states = PreparedStates.of(model, states, tols)

    def stable_at(mag: float) -> bool:
        w = np.array([mag * u[0], mag * u[1], 0.0])
        return check_stability(model, w, states=states,
                               witness_policy="first", tols=tols).stable

    if stable_at(cap):
        return DirectionResult(direction=u, magnitude=math.inf, bracket=None)
    lo, hi = 0.0, cap
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if stable_at(mid):
            lo = mid
        else:
            hi = mid
    return DirectionResult(direction=u, magnitude=0.5 * (lo + hi),
                           bracket=(lo, hi))


def resistible_region(model: GraspModel, n_directions: int, tol: float = 1e-3,
                      cap: float = 1e3, *, detachment: bool | None = None,
                      tols: Tolerances = DEFAULT_TOLS) -> RegionSweep:
    """max_resistible over uniformly spaced force directions.

    The slip states and their systems depend only on the geometry, so
    they are enumerated and prepared as one batch once per grasp and
    shared by every direction and bisection probe.
    """
    if n_directions < 4:
        raise ValueError("need at least 4 directions")
    states = PreparedStates(
        model, enumerate_slip_states(model, detachment=detachment, tols=tols),
        tols=tols)
    results = []
    for j in range(n_directions):
        ang = 2.0 * math.pi * j / n_directions
        res = max_resistible(model, (math.cos(ang), math.sin(ang)), tol, cap,
                             states=states, tols=tols)
        results.append(res)
    return RegionSweep(results=results, n_directions=n_directions, tol=tol,
                       cap=cap)
