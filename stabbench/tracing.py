"""Per-layer spans for the traced run, recorded from outside the program.

Each public function of a layer is wrapped on the module where its
caller looks it up: ``graspstab.stability.linear_feasibility`` is the
canonical-witness path, ``graspstab.equilibrium.linear_feasibility`` the
fallback of ``solve_state``. Nothing under ``src/`` changes. Spans live
in memory as (name, start, end, parent, op, flag) and are written out
once the run ends.
"""

from __future__ import annotations

import gzip
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

# (module, attribute, span name, flag taken from the return value)
TARGETS = [
    ("graspstab.arrangement", "enumerate_slip_states", "arrangement.enumerate",
     lambda out: sum(out.cell_counts.values()) + 1),
    ("graspstab.stability", "enumerate_slip_states", "arrangement.enumerate",
     lambda out: sum(out.cell_counts.values()) + 1),
    ("graspstab.arrangement", "enumerate_regions", "arrangement.regions", None),
    ("graspstab.arrangement", "build_dual_graph", "arrangement.dual_graph", None),
    ("graspstab.arrangement", "minimum_cycle_basis", "arrangement.cycle_basis",
     None),
    ("graspstab.arrangement", "line_states", "arrangement.lines", None),
    ("graspstab.stability", "solve_state", "equilibrium.solve_state", None),
    ("graspstab.equilibrium", "assemble_state_system", "equilibrium.assemble",
     None),
    ("graspstab.equilibrium", "linear_feasibility", "equilibrium.fallback",
     lambda out: out is None),
    ("graspstab.stability", "assemble_state_system", "stability.witness_assemble",
     None),
    ("graspstab.stability", "linear_feasibility", "stability.witness_lp", None),
    ("graspstab.stability", "_canonical_witness", "stability.witness", None),
    ("graspstab.stability", "check_stability", "stability.check",
     lambda out: out.states_tried),
    ("graspstab.stability", "max_resistible", "stability.max_resistible", None),
    ("graspstab.lp", "solve_lp", "lp.solve_lp", lambda out: not out[0]),
    ("graspstab.lp", "max_min_slack", "lp.max_min_slack", None),
    ("graspstab._simplex_py", "pivot_loop", "lp.pivot_loop", None),
    ("graspstab.generate", "random_grasp", "generate.random_grasp", None),
    ("graspstab.generate", "balanced_preload", "generate.balanced_preload",
     None),
]

# per-layer metrics: name -> unit, in the order BENCHMARK.json lists them
METRICS = {
    "arrangement.calls": "count",
    "arrangement.enumerate_ms": "ms",
    "arrangement.enumerate_self_ms": "ms",
    "arrangement.regions_ms": "ms",
    "arrangement.dual_graph_ms": "ms",
    "arrangement.cycle_basis_ms": "ms",
    "arrangement.lines_ms": "ms",
    "arrangement.cells": "count",
    "arrangement.lp_calls": "count",
    "equilibrium.solve_state_calls": "count",
    "equilibrium.solve_state_ms": "ms",
    "equilibrium.solve_state_self_ms": "ms",
    "equilibrium.direct": "count",
    "equilibrium.fallback_calls": "count",
    "equilibrium.fallback_infeasible": "count",
    "equilibrium.fallback_rungs": "count",
    "equilibrium.fallback_ms": "ms",
    "equilibrium.assemble_calls": "count",
    "lp.solve_lp_calls": "count",
    "lp.max_min_slack_calls": "count",
    "lp.infeasible": "count",
    "lp.solve_lp_ms": "ms",
    "lp.solve_lp_self_ms": "ms",
    "lp.us_per_call": "us",
    "lp.pivot_loop_calls": "count",
    "lp.pivot_loop_ms": "ms",
    "stability.check_calls": "count",
    "stability.check_self_ms": "ms",
    "stability.states_tried": "count",
    "stability.witness_ms": "ms",
    "stability.witness_lp_calls": "count",
    "stability.witness_assemble_calls": "count",
    "stability.probes_per_direction": "count",
    "generate.random_grasp_ms": "ms",
    "generate.balanced_preload_ms": "ms",
    "trace.spans_per_op": "count",
    "trace.op_cost_ref": "ref",
}


class Tracer:
    """Wraps the layer functions and records one span per call."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1  # index of the timed op; -1 during set-up
        self._saved: list[tuple] = []

    def install(self) -> None:
        for mod_name, attr, name, flag in TARGETS:
            mod = sys.modules[mod_name]
            fn = getattr(mod, attr)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(fn, name, flag))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    def _wrap(self, fn, name, flag):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if flag is not None:
                rec[5] = flag(out)
            return out

        traced.__wrapped__ = fn
        return traced

    def write(self, path) -> None:
        names = sorted({s[0] for s in self.spans})
        code = {n: i for i, n in enumerate(names)}
        doc = {"fields": ["name", "start_s", "end_s", "parent", "op", "flag"],
               "names": names,
               "spans": [[code[s[0]], round(s[1], 7), round(s[2], 7), s[3],
                          s[4], s[5]] for s in self.spans]}
        with gzip.open(path, "wt") as fh:
            json.dump(doc, fh, separators=(",", ":"))

    def metrics(self, n_ops: int) -> dict[str, float]:
        """Per-op counts and milliseconds over the timed ops' spans."""
        spans = self.spans
        child_s = defaultdict(float)
        children = defaultdict(Counter)
        for s in spans:
            if s[3] >= 0:
                child_s[s[3]] += s[2] - s[1]
                children[s[3]][s[0]] += 1
        count, incl, self_s, flag_sum = Counter(), Counter(), Counter(), Counter()
        lp_in_enum = 0
        fallback_rungs = probes = direct = 0
        for i, s in enumerate(spans):
            name = s[0]
            if s[4] < 0:
                continue
            dur = s[2] - s[1]
            count[name] += 1
            incl[name] += dur
            self_s[name] += dur - child_s[i]
            if s[5] is not None:
                flag_sum[name] += s[5]
            parent = spans[s[3]][0] if s[3] >= 0 else None
            if name == "lp.solve_lp" and _has_ancestor(spans, i,
                                                       "arrangement.enumerate"):
                lp_in_enum += 1
            elif name == "lp.max_min_slack" and parent == "equilibrium.fallback":
                fallback_rungs += 1
            elif name == "stability.check" and parent == "stability.max_resistible":
                probes += 1
            elif name == "equilibrium.solve_state" and \
                    not children[i]["equilibrium.fallback"]:
                direct += 1

        def per_op(x):
            return x / n_ops

        def ms(name):
            return 1e3 * incl[name] / n_ops

        def mean_ms(name):
            # set-up generation happens outside the ops: ms per call
            calls = [s[2] - s[1] for s in spans if s[0] == name]
            return 1e3 * sum(calls) / len(calls) if calls else 0.0

        n_lp = count["lp.solve_lp"]
        return {
            "arrangement.calls": per_op(count["arrangement.enumerate"]),
            "arrangement.enumerate_ms": ms("arrangement.enumerate"),
            "arrangement.enumerate_self_ms":
                1e3 * per_op(self_s["arrangement.enumerate"]),
            "arrangement.regions_ms": ms("arrangement.regions"),
            "arrangement.dual_graph_ms": ms("arrangement.dual_graph"),
            "arrangement.cycle_basis_ms": ms("arrangement.cycle_basis"),
            "arrangement.lines_ms": ms("arrangement.lines"),
            "arrangement.cells": per_op(flag_sum["arrangement.enumerate"]),
            "arrangement.lp_calls": per_op(lp_in_enum),
            "equilibrium.solve_state_calls":
                per_op(count["equilibrium.solve_state"]),
            "equilibrium.solve_state_ms": ms("equilibrium.solve_state"),
            "equilibrium.solve_state_self_ms":
                1e3 * per_op(self_s["equilibrium.solve_state"]),
            "equilibrium.direct": per_op(direct),
            "equilibrium.fallback_calls": per_op(count["equilibrium.fallback"]),
            "equilibrium.fallback_infeasible":
                per_op(flag_sum["equilibrium.fallback"]),
            "equilibrium.fallback_rungs":
                fallback_rungs / count["equilibrium.fallback"]
                if count["equilibrium.fallback"] else 0.0,
            "equilibrium.fallback_ms": ms("equilibrium.fallback"),
            "equilibrium.assemble_calls": per_op(count["equilibrium.assemble"]),
            "lp.solve_lp_calls": per_op(n_lp),
            "lp.max_min_slack_calls": per_op(count["lp.max_min_slack"]),
            "lp.infeasible": per_op(flag_sum["lp.solve_lp"]),
            "lp.solve_lp_ms": ms("lp.solve_lp"),
            "lp.solve_lp_self_ms": 1e3 * per_op(self_s["lp.solve_lp"]),
            "lp.us_per_call": 1e6 * incl["lp.solve_lp"] / n_lp if n_lp else 0.0,
            "lp.pivot_loop_calls": per_op(count["lp.pivot_loop"]),
            "lp.pivot_loop_ms": ms("lp.pivot_loop"),
            "stability.check_calls": per_op(count["stability.check"]),
            "stability.check_self_ms": 1e3 * per_op(self_s["stability.check"]),
            "stability.states_tried": per_op(flag_sum["stability.check"]),
            "stability.witness_ms": ms("stability.witness"),
            "stability.witness_lp_calls": per_op(count["stability.witness_lp"]),
            "stability.witness_assemble_calls":
                per_op(count["stability.witness_assemble"]),
            "stability.probes_per_direction":
                probes / count["stability.max_resistible"]
                if count["stability.max_resistible"] else 0.0,
            "generate.random_grasp_ms": mean_ms("generate.random_grasp"),
            "generate.balanced_preload_ms": mean_ms("generate.balanced_preload"),
            "trace.spans_per_op": per_op(sum(count.values())),
        }


def _has_ancestor(spans, i, name) -> bool:
    p = spans[i][3]
    while p >= 0:
        if spans[p][0] == name:
            return True
        p = spans[p][3]
    return False
