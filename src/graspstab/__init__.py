"""graspstab: passive stability analysis of planar multi-contact grasps.

Decides whether a grasp resists an external wrench through passive
contact responses alone, by enumerating the polynomially many slip
states consistent with rigid object motion and solving each state's
linear equilibrium system. Includes exhaustive-search, wrench-space and
linear-compliance baselines plus resistible-region sweeps and a CLI.
"""

from .arrangement import (DETACHED, SlipState, SlipStateSet,
                          enumerate_slip_states, zaslavsky_bound)
from .baselines import (WrenchPolytope, brute_force_verdict, gws_l1,
                        gws_slice, linear_compliance_verdict)
from .equilibrium import (EquilibriumSolution, PreparedState, PreparedStates,
                          StateSystem, assemble_state_system, check_solution,
                          linear_feasibility, prepare_state, solve_state)
from .generate import balanced_preload, random_grasp
from .grasp_io import (GraspFileError, GraspValidationError, format_grasp,
                       load_grasp_file, parse_grasp_text)
from .model import (Contact, GraspMaps, GraspModel, Options, build_maps,
                    contact_motion, validate_model, world_force)
from .params import Tolerances
from .stability import (RegionSweep, Verdict, check_stability, max_resistible,
                        resistible_region)

__version__ = "0.1.0"

__all__ = [
    "Contact", "GraspModel", "GraspMaps", "Options", "Tolerances",
    "build_maps", "contact_motion", "validate_model", "world_force",
    "DETACHED", "SlipState", "SlipStateSet", "enumerate_slip_states",
    "zaslavsky_bound",
    "StateSystem", "EquilibriumSolution", "assemble_state_system",
    "PreparedState", "PreparedStates", "prepare_state", "solve_state", "linear_feasibility", "check_solution",
    "Verdict", "RegionSweep", "check_stability", "max_resistible",
    "resistible_region",
    "WrenchPolytope", "brute_force_verdict", "gws_l1", "gws_slice",
    "linear_compliance_verdict",
    "random_grasp", "balanced_preload",
    "GraspFileError", "GraspValidationError", "parse_grasp_text",
    "load_grasp_file", "format_grasp",
    "__version__",
]
