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
    # handed to the feasibility program instead of a direct solve
    singular_rel: float = 1e-10
    # "plane contains ray" test of the arrangement: |n . d| at most this
    geom_margin: float = 1e-9
    # |dot| above this marks two unit plane normals as coincident
    plane_coincident: float = 1 - 1e-9
    # box bound on unknowns in the feasibility program
    x_max: float = 1e6


DEFAULT_TOLS = Tolerances()
