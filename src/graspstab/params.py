"""Numerical tolerances shared across the solver stack.

Defaults are sized for problem data in the O(1)-O(10) range (unit-ish
contact coordinates, unit stiffness, forces up to the sweep cap).
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    # equality-constraint residual accepted on a solution
    eq_residual: float = 1e-9
    # inequality slack accepted on a solution (>= -ineq_slack passes)
    ineq_slack: float = 1e-8
    # relative singular-value cutoff below which a square system is
    # handed to the feasibility program instead of a direct solve; the
    # right singular vectors below it span the null space that the
    # feasibility screen searches
    singular_rel: float = 1e-10
    # rank cutoff of the consistency test, per row or column of the
    # equality block: singular values at most
    # rank_eps * max(rows, cols) * s_max count as zero (numpy lstsq's
    # default), and their left singular vectors must annihilate b_eq
    rank_eps: float = 2.220446049250313e-16
    # a state is flat for the canonical witness when each of its slip
    # rows has norm in the null-space coordinates at most flat_rel times
    # its norm in the unknowns, so that no slip speed varies over its
    # solutions
    flat_rel: float = 1e-12
    # a residual below this needs no projection onto the equalities
    projection_skip: float = 1e-13
    # "plane contains ray" test of the arrangement: |n . d| at most this
    geom_margin: float = 1e-9
    # |dot| above this marks two unit plane normals as coincident
    plane_coincident: float = 1 - 1e-9
    # a normal preload at most this is zero: the contact may detach
    zero_preload: float = 1e-12
    # canonical witness: slip totals within witness_tie * (1 + |t*|) of
    # the minimum t* tie, and pinned slip speeds may fall witness_pin
    # short of their optimum
    witness_tie: float = 1e-7
    witness_pin: float = 1e-9
    # box bound on unknowns in the feasibility program
    x_max: float = 1e6
    # the box ladder: its first box is ladder_start times the data's
    # magnitude, each rung multiplies it by ladder_step up to x_max, and
    # the max-min-slack margin is capped at margin_cap
    ladder_start: float = 100.0
    ladder_step: float = 100.0
    margin_cap: float = 1e3
    # the null-space LP counts a unit row g y >= h as met when its
    # residual is at least -lp_rel * (1 + |h| + |y|_1), and a row as
    # parallel to the one it is projected onto when its norm there is at
    # most lp_rel
    lp_rel: float = 1e-12


DEFAULT_TOLS = Tolerances()
