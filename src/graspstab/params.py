"""Numerical tolerances shared across the solver stack.

Sized for problem data in the O(1)-O(10) range (unit-ish contact
coordinates, unit stiffness, forces up to the sweep cap). Each is read
where it is used; none is a parameter of any function.
"""

# equality-constraint residual accepted on a solution
EQ_RESIDUAL = 1e-9
# inequality slack accepted on a solution (>= -INEQ_SLACK passes)
INEQ_SLACK = 1e-8
# numerical rank of a square system, per row of it: singular values at
# most RANK_EPS * rows * s_max count as zero (numpy lstsq's default).
# One rank decides a slip state: a system of full rank is solved
# directly; otherwise the right singular vectors beyond it span the
# null space that the feasibility program searches, and the left ones
# must annihilate b_eq (the consistency test)
RANK_EPS = 2.220446049250313e-16
# a state is flat for the canonical witness when each of its slip
# rows has norm in the null-space coordinates at most FLAT_REL times
# its norm in the unknowns, so that no slip speed varies over its
# solutions
FLAT_REL = 1e-12
# a residual below this needs no projection onto the equalities
PROJECTION_SKIP = 1e-13
# "plane contains ray" test of the arrangement: |n . d| at most this
GEOM_MARGIN = 1e-9
# |dot| above this marks two unit plane normals as coincident
PLANE_COINCIDENT = 1 - 1e-9
# a normal preload at most this is zero: the contact may detach
ZERO_PRELOAD = 1e-12
# the canonical order of slip states compares witnesses rounded to
# this many decimals (SlipState.sort_key); rank and labels decide it but
# for the two rays of a line that every plane contains
ORDER_DIGITS = 9
# canonical witness: the states whose least slip totals lie within
# WITNESS_TIE * (1 + |t*|) of the minimum t* tie, and their slip
# speeds, each taken at the state's own lexicographic optimum, are
# compared rounded to WITNESS_DIGITS decimals
WITNESS_TIE = 1e-7
WITNESS_DIGITS = 9
# friction-cone separation (stability._separating_direction): the test
# fires when w . y exceeds SEPARATION_REL * F, with lengths in units of
# the contacts' largest distance from their centroid and F the grasp's
# force unit, the largest of |w| in those units, the normal preloads and
# stiffness times that length. A contact's normal and tangent wrenches
# then have norm at most sqrt(2). On data of unit scale, which these
# tolerances are sized for, the relaxed rows the fast path accepts (each
# force row given way by INEQ_SLACK, the 3 + 2m equalities by
# EQ_RESIDUAL * (1 + F)) move w . y by less than
# (3 m INEQ_SLACK + 4 (3 + 2m) EQ_RESIDUAL) F, which stays below 100
# times the sum of the two up to 25 contacts. Being relative, the
# margin keeps the test's decisions under a common scaling of forces
# and stiffness.
SEPARATION_REL = 100 * (INEQ_SLACK + EQ_RESIDUAL)
# box bound on each null-space coordinate z_i of a singular state's
# LPs over x = x_p(w) + N z; N is orthonormal and x_p(w) orthogonal to
# it, so this bounds the distance from the least-norm solution, not x
X_MAX = 1e6
# a singular state's point takes at most two boxes on z: the first is
# LADDER_START times the larger of the data's magnitude and the state's
# least-norm solution |x_p(w)|, within X_MAX; a point with a z_i beyond
# BOX_HIT times it hits it, so the second, X_MAX, runs. The
# max-min-slack margin is capped at MARGIN_CAP
LADDER_START = 100.0
MARGIN_CAP = 1e3
BOX_HIT = 0.9
# the null-space LP counts a unit row g y >= h as met when its
# residual is at least -LP_REL * (1 + |h| + |y|_1), and a row as
# parallel to the one it is projected onto when its norm there is at
# most LP_REL
LP_REL = 1e-12
# a model's contact normal may be this far from unit length; its
# preload may sit this far outside a friction cone, and its net wrench
# this far from zero (validate_model)
UNIT_NORMAL = 1e-12
PRELOAD_BALANCE = 1e-9
# the linear-compliance baseline labels a contact sticking when its
# tangential motion is at most this in magnitude
STICK_MOTION = 1e-12
# GWS slice: a generating point within SLICE_PLANE of the slicing
# torque lies on its plane, as does a torque within it of the
# polytope's range; in the slice polygon an edge shorter than
# SLICE_EDGE has no direction to test a point against
SLICE_PLANE = 1e-12
SLICE_EDGE = 1e-15
# the GWS's points are cone edges at unit normal force, of the data's
# unit scale: slice crossings rounded to SLICE_DIGITS decimals merge
# where rounding alone parts copies of one vertex
SLICE_DIGITS = 12
# random grasps are in general position when no two tangent planes'
# unit normals have |dot| above 1 - GENERAL_PARALLEL and no three have
# |det| below GENERAL_DET
GENERAL_PARALLEL = 1e-6
GENERAL_DET = 1e-4
# a generated balanced preload needs a cone margin above this, or the
# grasp gets none
PRELOAD_MARGIN = 1e-9
# its LP bounds each force by PRELOAD_BOX times the normal sum T: a
# cone-interior preload has 0 <= c_n <= T and |c_t| <= mu c_n, so the
# box binds only where mu exceeds PRELOAD_BOX
PRELOAD_BOX = 10.0
