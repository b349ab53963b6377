"""The public API carries no solver tolerances and no precomputed maps.

Every threshold is a constant of ``graspstab.params``, and every entry
point builds the grasp's maps from the model itself.
"""

from __future__ import annotations

import ast
import dataclasses
import importlib
import inspect
from pathlib import Path

import graspstab
from graspstab import (arrangement, baselines, equilibrium, generate,
                       nullspace_lp, params, stability)
from graspstab.arrangement import PlaneArrangement, SlipState, SlipStateSet
from graspstab.equilibrium import PreparedState, PreparedStates, StateSystem

MODULES = ["arrangement", "baselines", "equilibrium", "generate", "grasp_io",
           "model", "nullspace_lp", "stability"]
# functions whose maps are their input
TAKE_MAPS = {"contact_motion"}
# imports no module reads, kept because the benchmark's traced run wraps
# them under the importing module's name (stabbench/tracing.py)
KEPT_IMPORTS = {"stability.assemble_state_system"}


def _public_callables():
    for module in [graspstab] + [importlib.import_module(f"graspstab.{name}")
                                 for name in MODULES]:
        for name in module.__all__:
            obj = getattr(module, name)
            if callable(obj):
                yield f"{module.__name__}.{name}", obj
    for name, method in inspect.getmembers(PreparedStates, callable):
        if not name.startswith("_"):
            yield f"PreparedStates.{name}", method


def test_no_entry_point_takes_tolerances_or_maps():
    found = []
    for name, obj in _public_callables():
        try:
            names = inspect.signature(obj).parameters
        except ValueError:  # no signature to read
            continue
        if "tols" in names:
            found.append(f"{name}(tols)")
        if "maps" in names and name.rsplit(".", 1)[-1] not in TAKE_MAPS:
            found.append(f"{name}(maps)")
    assert found == []


def test_every_imported_name_is_read():
    # __init__.py's imports are its re-exports
    unused = []
    for path in sorted(Path(graspstab.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in read:
                        unused.append(f"{path.stem}.{name}")
    assert sorted(set(unused) - KEPT_IMPORTS) == []


def test_tolerances_are_gone():
    assert not hasattr(params, "Tolerances")
    assert not hasattr(params, "DEFAULT_TOLS")
    assert not hasattr(equilibrium, "prepare_state")
    assert "Tolerances" not in graspstab.__all__
    assert "prepare_state" not in graspstab.__all__


def test_state_numbers_live_in_the_prepared_state():
    # a state's factor, right-hand sides and LP rows are kept once, in
    # its PreparedState; the point's LPs start from it, and the LP engine
    # knows nothing of the state layer and exports only itself and its
    # batched one-variable case
    fields = {f.name for f in dataclasses.fields(StateSystem)}
    for name in ("factor", "b_in", "slip_count", "m"):
        assert name not in fields and not hasattr(StateSystem, name), name
    sig = inspect.signature(equilibrium.linear_feasibility, eval_str=True)
    assert next(iter(sig.parameters.values())).annotation is PreparedState
    tree = ast.parse(inspect.getsource(nullspace_lp))
    imported = [node.module or "" for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)]
    imported += [alias.name for node in ast.walk(tree)
                 if isinstance(node, (ast.Import, ast.ImportFrom))
                 for alias in node.names]
    assert not any("equilibrium" in name for name in imported), imported
    assert nullspace_lp.__all__ == ["lines_hold", "lines_point", "small_lp"]


def test_single_state_handle_and_fixed_knobs():
    # a query takes its states as one SlipStateSet, which holds its batch
    assert not hasattr(PreparedStates, "of")
    batch = arrangement.enumerate_slip_states(
        generate.random_grasp(3, rng=0)).prepared
    assert not hasattr(batch, "states") and not hasattr(batch, "detachment")
    for fn in (stability.check_stability, stability.max_resistible):
        annotation = str(inspect.signature(fn).parameters["states"].annotation)
        assert annotation == "SlipStateSet | None", fn.__name__
    # knobs that only ever took one value are module constants
    for fn, knob in ((generate.random_grasp, "max_tries"),
                     (generate.balanced_preload, "total_normal"),
                     (baselines.brute_force_verdict, "max_contacts")):
        assert knob not in inspect.signature(fn).parameters, knob


def test_arrangement_has_one_array_form():
    # the planes and cells are arrays only: no per-cell objects, no plane
    # dicts and no dual graph on the state set
    for name in ("CellState", "tangent_planes", "separation_planes"):
        assert not hasattr(arrangement, name), name
        assert name not in arrangement.__all__, name
    assert not hasattr(SlipStateSet, "graph")
    for name in ("__getitem__", "__iter__", "dim"):
        assert not hasattr(arrangement.Cells, name), name
    model = generate.random_grasp(4, rng=2)
    states = arrangement.enumerate_slip_states(model, detachment=True)
    arr = states.arrangement
    assert isinstance(arr, PlaneArrangement)
    for refs in (arr.tangent, arr.separation):
        assert refs.shape == (model.m, 2)
        assert refs.dtype.kind == "i"
    # the benchmark reads SlipStates off an iterated set
    listed = list(states)
    assert len(listed) == len(states)
    assert all(isinstance(st, SlipState) for st in listed)
    assert [st.labels for st in listed] == list(map(tuple, states.labels.tolist()))
    assert listed[0].dim == "origin" and listed[-1].dim == "region"
