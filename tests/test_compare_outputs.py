"""tools/compare_outputs.py: its per-field comparison and report."""

from __future__ import annotations

import importlib.util
import math
import types

from conftest import REPO

_spec = importlib.util.spec_from_file_location(
    "compare_outputs", REPO / "tools" / "compare_outputs.py")
compare_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_outputs)


def _records(count, **fields):
    return {f"q{k}": {"stable": True, "states_tried": 9, "witness.d":
                      [0.0, 1.0, 2.0], "magnitude": math.inf, **fields}
            for k in range(count)}


def test_compare_counts_keys_and_largest_change():
    parent = _records(8)
    change = _records(8)
    for k, step in enumerate((1e-15, 3e-9, 2e-12, 0.5, 1e-3, 1e-10, 7.0)):
        change[f"q{k}"]["witness.d"] = [0.0, 1.0 + step, 2.0]
    change["q2"]["states_tried"] = 10
    change["q3"]["magnitude"] = 12.5
    change["q4"]["witness.d"] = None
    del change["q7"]
    change["extra"] = parent["q0"]
    differ = compare_outputs.compare(parent, change)
    count, keys, moved = differ["witness.d"]
    # q4 turned None: it differs, with no change to read
    assert count == 7 and keys == ["q0", "q1", "q2", "q3", "q4"]
    assert moved == 7.0
    assert differ["states_tried"] == (1, ["q2"], None)
    assert differ["magnitude"] == (1, ["q3"], math.inf)
    assert differ["missing"] == (2, ["extra", "q7"], None)
    assert "stable" not in differ
    assert compare_outputs.compare(parent, parent) == {}


def test_report_names_each_field():
    parent = _records(7)
    change = _records(7, states_tried=3)
    change["q1"]["witness.d"] = [0.0, 1.25, 2.0]
    lines = compare_outputs.report(compare_outputs.compare(parent, change),
                                   ["stable", "states_tried", "witness.d"])
    assert [line.split()[0] for line in lines] == \
        ["missing", "stable", "states_tried", "witness.d"]
    assert lines[0].split()[1:] == ["0", "differ"]
    assert lines[1].split()[1:] == ["0", "differ"]
    # seven differ: five keys are shown, and no change for an int field
    assert lines[2].endswith("7 differ: q0, q1, q2, q3, q4, ...")
    assert lines[3].endswith("1 differ, largest change 0.25: q1")


def test_off_centre_records_are_the_counted_ones(monkeypatch):
    # every graspstab call stubbed: only the keys are counted
    for name in ("_enumeration", "_verdict", "_sweep"):
        monkeypatch.setattr(compare_outputs, name, lambda value: None)
    stub = types.SimpleNamespace(**{
        name: lambda *args, **kwargs: None for name in (
            "enumerate_slip_states", "check_stability",
            "brute_force_verdict", "max_resistible")})
    records = compare_outputs.off_centre_records(stub)
    assert len(records) == 2960
    assert "2,960 in all" in compare_outputs.__doc__
    assert "corpus of 14,422 calls" in compare_outputs.__doc__
