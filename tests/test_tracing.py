"""Guard of the benchmark's traced run (``stabbench/run.py --trace 1``).

``stabbench/tracing.py`` wraps package functions by module and attribute
name, so renaming or deleting one of them breaks the traced run without
failing any other test.
"""

from __future__ import annotations

import importlib
import importlib.util

import graspstab  # loads every module the targets name

from conftest import REPO, four_contact

_spec = importlib.util.spec_from_file_location(
    "stabbench_tracing", REPO / "stabbench" / "tracing.py")
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)


def _targets():
    return [(importlib.import_module(mod), attr)
            for mod, attr, _name, _flag in tracing.TARGETS]


def test_trace_targets_resolve():
    missing = [f"{mod.__name__}.{attr}" for mod, attr in _targets()
               if not callable(getattr(mod, attr, None))]
    assert not missing, missing


def test_traced_check_records_spans_and_restores():
    # the preloaded all-stick state is singular and feasible under this
    # pull (Table III): "first" runs its point's LPs inside solve_state,
    # and the canonical witness, which reads the point of this state
    # without slip, runs it itself
    before = {(mod, attr): getattr(mod, attr) for mod, attr in _targets()}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        verdicts = [graspstab.stability.check_stability(
            four_contact(True), (0.0, 1.999, 0.0), witness_policy=policy)
            for policy in ("first", "canonical")]
    finally:
        tracer.uninstall()
    assert all(v.stable for v in verdicts)
    spans = tracer.spans
    parent = {i: spans[s[3]][0] if s[3] >= 0 else None
              for i, s in enumerate(spans)}
    pairs = {(s[0], parent[i]) for i, s in enumerate(spans)}
    assert ("equilibrium.solve_state", "stability.check") in pairs
    assert ("equilibrium.fallback", "equilibrium.solve_state") in pairs
    assert ("equilibrium.fallback", "stability.witness") in pairs
    assert all(getattr(mod, attr) is fn for (mod, attr), fn in before.items())


def test_traced_enumeration_records_layer_spans():
    # the per-layer metrics of the traced run count these spans
    tracer = tracing.Tracer()
    tracer.install()
    try:
        states = graspstab.arrangement.enumerate_slip_states(
            four_contact(), detachment=True)
    finally:
        tracer.uninstall()
    spans = tracer.spans
    pairs = {(s[0], spans[s[3]][0] if s[3] >= 0 else None) for s in spans}
    assert ("arrangement.lines", "arrangement.enumerate") in pairs
    assert ("arrangement.regions", "arrangement.enumerate") in pairs
    enumerate_span, = [s for s in spans if s[0] == "arrangement.enumerate"]
    assert enumerate_span[5] == states.count_excluding_origin + 1
