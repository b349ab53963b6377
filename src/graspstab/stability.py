"""Passive-stability query and resistible-wrench sweeps.

The query walks the enumerated slip states in canonical order (origin
state, then rays, facets, regions, lexicographic within each class) and
declares the grasp stable as soon as any state's system admits a
solution. The verdict is order-independent; the reported witness is not,
because neighbouring states can share solution families. The canonical
witness therefore minimizes the total slip speed over all feasible
states and breaks remaining ties by concentrating slip on the
lowest-indexed contacts, which pins a unique, reproducible motion.
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

    Each state is prepared (assembled and factored) when it is first
    tried; PreparedStates of this grasp passed as ``states`` keep those
    preparations for the next query.
    """
    w = as_wrench(w)
    if states is None:
        states = enumerate_slip_states(model, detachment=detachment, tols=tols)
    states = PreparedStates.of(model, states, tols)

    feasible: list[tuple[PreparedState, EquilibriumSolution]] = []
    tried = 0
    for prep in states:
        tried += 1
        sol = solve_state(model, w, prep, tols=tols)
        if sol is not None:
            feasible.append((prep, sol))
            if witness_policy == "first":
                break
    if not feasible:
        return Verdict(stable=False, witness=None, states_tried=tried,
                       detachment=states.detachment)

    first_idx = feasible[0][0].index
    if witness_policy == "first" or len(feasible) == 1:
        witness = feasible[0][1]
    else:
        witness = _canonical_witness(w, feasible, tols)
    return Verdict(stable=True, witness=witness, states_tried=tried,
                   detachment=states.detachment, first_feasible=first_idx)


def _slip_objective(sys: StateSystem) -> np.ndarray:
    """Total slip speed as a linear functional of the unknowns."""
    c = np.zeros(sys.n)
    for row in sys.slip_dirs.values():
        c[:3] += row
    return c


def _augment(sys: StateSystem, rows, rhs) -> StateSystem:
    rows = np.asarray(rows, dtype=float).reshape(-1, sys.n)
    return replace(  # same equalities: shares their cached factors
        sys, a_in=np.vstack([sys.a_in, rows]),
        b_in=np.concatenate([sys.b_in, np.atleast_1d(rhs)]),
        ineq_kind=sys.ineq_kind + ["pin"] * rows.shape[0])


def _canonical_witness(w, feasible, tols) -> EquilibriumSolution:
    """Minimal total slip across all feasible states, deterministic ties.

    Stage 1 minimizes the summed slip speed per state; stage 2, among
    states within tolerance of the global minimum, lexicographically
    maximizes the per-contact slip speeds in contact order; stage 3 picks
    the max-min-slack point of the winning, fully pinned system.
    """
    entries = []
    for st, sol in feasible:
        sys = st.system.at(w)
        obj = _slip_objective(sys)
        if not sys.slip_dirs:
            entries.append((st, sol, sys, 0.0))
            continue
        x = linear_feasibility(sys, tols=tols, objective=obj)
        if x is None:  # numerically marginal state: rank it by its solution
            t_val = float(obj[:3] @ sol.d)
        else:
            t_val = float(obj @ x)
        entries.append((st, sol, sys, t_val))

    t_star = min(e[3] for e in entries)
    eps = tols.witness_tie * (1.0 + abs(t_star))
    tied = [e for e in entries if e[3] <= t_star + eps]
    if len(tied) == 1:
        st, sol, sys, t_val = tied[0]
        if not sys.slip_dirs:
            return sol
        return _pinned_solution(st, sys, t_star, {}, tols) or sol

    best = None
    for st, sol, sys, _t in tied:
        pins: dict[int, float] = {}
        vec = []
        base = _augment(sys, -_slip_objective(sys), [-(t_star + eps)])
        for i in range(sys.m):
            if i not in sys.slip_dirs:
                vec.append(0.0)
                continue
            cur = base
            for j, vj in pins.items():
                row = np.zeros(sys.n)
                row[:3] = sys.slip_dirs[j]
                cur = _augment(cur, row, [vj - tols.witness_pin])
            obj = np.zeros(sys.n)
            obj[:3] = -sys.slip_dirs[i]
            x = linear_feasibility(cur, tols=tols, objective=obj)
            vi = float(-obj @ x) if x is not None else 0.0
            pins[i] = vi
            vec.append(vi)
        key = tuple(np.round(vec, 9))
        if best is None or key > best[0]:
            best = (key, st, sol, sys, pins)

    _key, st, sol, sys, pins = best
    return _pinned_solution(st, sys, t_star, pins, tols) or sol


def _pinned_solution(st, sys, t_star, pins, tols):
    eps = tols.witness_tie * (1.0 + abs(t_star))
    cur = sys
    if sys.slip_dirs:
        cur = _augment(cur, -_slip_objective(sys), [-(t_star + eps)])
        for j, vj in pins.items():
            row = np.zeros(sys.n)
            row[:3] = sys.slip_dirs[j]
            cur = _augment(cur, row, [vj - tols.witness_pin])
    x = linear_feasibility(cur, tols=tols)
    if x is None:
        return None
    sol = _solution_from_x(sys, x, st.index)
    return sol if sol.min_ineq_slack >= -tols.ineq_slack else None


def max_resistible(model: GraspModel, direction, tol: float = 1e-3,
                   cap: float = 1e3, *, detachment: bool | None = None,
                   states: SlipStateSet | PreparedStates | None = None,
                   tols: Tolerances = DEFAULT_TOLS) -> DirectionResult:
    """Largest resistible force magnitude along a direction, by bisection.

    Returns magnitude inf when the grasp still holds at the cap.
    Stability is assumed radially monotone along the ray; the returned
    bracket (stable, unstable) is the bisection's final certificate.

    The state systems do not depend on the load, so each is prepared
    (assembled and factored) at most once per call and every bisection
    probe reuses it; PreparedStates passed as ``states`` are shared.
    """
    if tol <= 0 or cap <= 0:
        raise ValueError("tol and cap must be positive")
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
    they are enumerated and prepared once per grasp and shared by every
    direction and bisection probe.
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
