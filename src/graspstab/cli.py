"""Command-line interface.

Subcommands:
  check      passive-stability verdict for one wrench
  enumerate  slip-state census of a grasp
  region     max resistible force over swept directions (CSV)
  gws        L1 grasp wrench space, optionally a torque slice
  oracle     exhaustive-search verdict (exponential reference)
  linear     linear-compliance verdict (reference)
  gen        emit a random general-position grasp file

Exit codes: 0 analysis ran (either verdict), 2 parse/usage error,
3 validation error.
"""

from __future__ import annotations

import argparse
import math
import sys
import time

import numpy as np

from .arrangement import enumerate_slip_states
from .baselines import brute_force_verdict, gws_l1, gws_slice, linear_compliance_verdict
from .equilibrium import check_solution
from .generate import random_grasp
from .grasp_io import (GraspFileError, GraspValidationError, dumps_result,
                       format_grasp, load_grasp_file)
from .model import world_force
from .stability import check_stability, resistible_region

PARSE_ERROR = 2
VALIDATION_ERROR = 3


def _wrench(text: str) -> np.ndarray:
    try:
        parts = [float(p) for p in text.split(",")]
        if len(parts) != 3 or not all(map(math.isfinite, parts)):
            raise ValueError
        return np.array(parts)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected wx,wy,tau (three comma-separated finite numbers), "
            f"got {text!r}")


def _add_mode_flags(p):
    p.add_argument("--no-detach", action="store_true",
                   help="disable contact detachment")


def _detachment(model, args) -> bool:
    if getattr(args, "no_detach", False):
        return False
    return model.options.detachment


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graspstab",
        description="Passive stability analysis of planar multi-contact grasps")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="stability verdict for one wrench")
    p.add_argument("file")
    p.add_argument("--wrench", type=_wrench, required=True, metavar="WX,WY,TAU")
    _add_mode_flags(p)

    p = sub.add_parser("enumerate", help="count the slip states")
    p.add_argument("file")
    _add_mode_flags(p)

    p = sub.add_parser("region", help="resistible-force sweep (CSV output)")
    p.add_argument("file")
    p.add_argument("--directions", type=int, default=16, metavar="N")
    p.add_argument("--tol", type=float, default=1e-3)
    p.add_argument("--cap", type=float, default=1e3)
    _add_mode_flags(p)

    p = sub.add_parser("gws", help="L1 grasp wrench space")
    p.add_argument("file")
    p.add_argument("--slice", type=float, default=None, metavar="TAU",
                   help="emit the polygon of the fixed-torque cross-section")

    p = sub.add_parser("oracle", help="exhaustive-search verdict")
    p.add_argument("file")
    p.add_argument("--wrench", type=_wrench, required=True, metavar="WX,WY,TAU")
    _add_mode_flags(p)

    p = sub.add_parser("linear", help="linear-compliance verdict")
    p.add_argument("file")
    p.add_argument("--wrench", type=_wrench, required=True, metavar="WX,WY,TAU")
    p.add_argument("--tangent-stiffness", type=float, default=1.0)

    p = sub.add_parser("gen", help="emit a random grasp file")
    p.add_argument("--contacts", type=int, required=True, metavar="M")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mu", type=float, default=0.5)
    p.add_argument("--preload", choices=["none", "auto"], default="none")
    p.add_argument("--detach", action="store_true",
                   help="enable detachment in the emitted file (off by "
                        "default so state counts follow the quadratic law)")
    return parser


def _verdict_doc(model, name, w, verdict, mode, timing_ms):
    doc = {
        "command": mode,
        "grasp": name,
        "wrench": list(w),
        "mode": {"detachment": verdict.detachment},
        "stable": verdict.stable,
        "counts": {"states_tried": verdict.states_tried},
        "timing_ms": timing_ms,
    }
    if verdict.stable and verdict.witness is not None:
        wit = verdict.witness
        world = [world_force(c, f) for c, f in zip(model.contacts, wit.forces)]
        doc.update({
            "state": list(wit.label_names),
            "motion": list(wit.d),
            "forces": {
                "local": [list(f) for f in wit.forces],
                "world": [list(f) for f, _t in world],
                "torques": [t for _f, t in world],
            },
            "residuals": check_solution(model, w, wit),
        })
    return doc


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.command == "gen":
        model = random_grasp(args.contacts, args.seed, mu=args.mu,
                             preload=args.preload, detachment=args.detach)
        print(format_grasp(model, name=f"random-{args.contacts}-seed{args.seed}"),
              end="")
        return 0

    try:
        model, name = load_grasp_file(args.file)
    except GraspValidationError as exc:
        print(f"error: invalid grasp: {exc}", file=sys.stderr)
        return VALIDATION_ERROR
    except GraspFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return PARSE_ERROR

    return _analyse(parser, args, model, name)


def _analyse(parser, args, model, name) -> int:
    if args.command == "check":
        detach = _detachment(model, args)
        t0 = time.perf_counter()
        verdict = check_stability(model, args.wrench, detachment=detach)
        ms = 1e3 * (time.perf_counter() - t0)
        print(dumps_result(_verdict_doc(model, name, args.wrench, verdict,
                                        "check", ms)))
        return 0

    if args.command == "oracle":
        detach = _detachment(model, args)
        t0 = time.perf_counter()
        verdict = brute_force_verdict(model, args.wrench, detachment=detach)
        ms = 1e3 * (time.perf_counter() - t0)
        print(dumps_result(_verdict_doc(model, name, args.wrench, verdict,
                                        "oracle", ms)))
        return 0

    if args.command == "linear":
        t0 = time.perf_counter()
        verdict = linear_compliance_verdict(model, args.wrench,
                                            args.tangent_stiffness)
        ms = 1e3 * (time.perf_counter() - t0)
        print(dumps_result(_verdict_doc(model, name, args.wrench, verdict,
                                        "linear", ms)))
        return 0

    if args.command == "enumerate":
        detach = _detachment(model, args)
        t0 = time.perf_counter()
        states = enumerate_slip_states(model, detachment=detach)
        ms = 1e3 * (time.perf_counter() - t0)
        doc = {
            "command": "enumerate",
            "grasp": name,
            "mode": {"detachment": detach},
            "planes": states.arrangement.n_planes,
            "counts": dict(states.cell_counts,
                           total=states.count_excluding_origin,
                           solver_states=len(states) - 1),
            "dual_graph": {"V": states.graph.n_vertices,
                           "E": states.graph.n_edges,
                           "F": states.graph.n_faces},
            "timing_ms": ms,
        }
        print(dumps_result(doc))
        return 0

    if args.command == "region":
        if args.directions < 4:
            parser.error("--directions must be at least 4")
        for flag, value in (("--tol", args.tol), ("--cap", args.cap)):
            if not (math.isfinite(value) and value > 0):
                parser.error(f"{flag} must be finite and positive")
        detach = _detachment(model, args)
        sweep = resistible_region(model, args.directions, args.tol, args.cap,
                                  detachment=detach)
        print("dir_x,dir_y,max_force")
        for res in sweep.results:
            mag = "inf" if math.isinf(res.magnitude) else repr(float(res.magnitude))
            print(f"{float(res.direction[0])!r},{float(res.direction[1])!r},{mag}")
        return 0

    if args.command == "gws":
        poly = gws_l1(model)
        doc = {
            "command": "gws",
            "grasp": name,
            "degenerate": poly.degenerate,
            "vertices": [list(v) for v in poly.vertices],
        }
        if args.slice is not None:
            sl = gws_slice(poly, args.slice)
            doc["slice"] = {
                "torque": args.slice,
                "polygon": [list(v) for v in sl.vertices],
                "degenerate": sl.degenerate,
            }
        print(dumps_result(doc))
        return 0

    parser.error(f"unhandled command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
