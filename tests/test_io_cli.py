from __future__ import annotations

import json

import numpy as np
import pytest

from graspstab import (Contact, GraspFileError, GraspModel,
                       GraspValidationError, enumerate_slip_states,
                       format_grasp, parse_grasp_text)
from graspstab.arrangement import build_dual_graph
from graspstab.cli import main
from graspstab.generate import random_grasp
from graspstab.grasp_io import load_grasp_file

from conftest import FIXTURES


def test_fixture_files_parse():
    for name in ["three_contact", "three_contact_preload",
                 "four_contact", "four_contact_preload"]:
        model, title = load_grasp_file(FIXTURES / f"{name}.grasp")
        assert model.m in (3, 4)
        assert all(c.mu == 0.5 for c in model.contacts)


def test_parse_rejects_bad_normal():
    text = """
contacts:
  - {position: [0, 0], normal: [0, -0.9], mu: 0.5}
"""
    with pytest.raises(GraspValidationError) as err:
        parse_grasp_text(text)
    assert "contact 0" in str(err.value)


def test_parse_rejects_empty_contacts():
    with pytest.raises(GraspValidationError):
        parse_grasp_text("contacts: []\n")


def test_parse_rejects_unknown_fields():
    with pytest.raises(GraspFileError) as err:
        parse_grasp_text("contacts:\n  - {position: [0,0], normal: [0,-1], mu: 0.5}\nbogus: 1\n")
    assert "bogus" in str(err.value)


ONE_CONTACT = "contacts:\n  - {position: [0, 0], normal: [0, -1], mu: 0.5}\n"


@pytest.mark.parametrize("line, name", [("", "unnamed"), ("name:\n", "unnamed"),
                                        ("name: ~\n", "unnamed"),
                                        ("name: grip\n", "grip"),
                                        ("name: 42\n", "42")])
def test_parse_reads_the_name(line, name):
    assert parse_grasp_text(line + ONE_CONTACT)[1] == name


@pytest.mark.parametrize("line", ["name: [1, 2]\n", "name: {a: 1}\n",
                                  "name:\n  - grip\n"])
def test_parse_rejects_a_name_that_is_no_scalar(line):
    with pytest.raises(GraspFileError) as err:
        parse_grasp_text(line + ONE_CONTACT)
    assert "name" in str(err.value)


def test_parse_rejects_bad_yaml():
    with pytest.raises(GraspFileError):
        parse_grasp_text("contacts: [unclosed\n")


def test_format_round_trip():
    model = random_grasp(4, rng=2, preload="auto")
    text = format_grasp(model, name="rt")
    back, name = parse_grasp_text(text)
    assert name == "rt"
    assert np.allclose(back.preload, model.preload)
    assert all(np.allclose(a.position, b.position)
               for a, b in zip(back.contacts, model.contacts))


def test_format_round_trip_keeps_near_equal_stiffness_and_tiny_preload():
    # a stiffness a hair from uniform and a preload far below 1 but above
    # ZERO_PRELOAD: written approximately, the first loses its contact
    # spread and the second reads back as none, so the contacts detach
    model = GraspModel([Contact((-1, 0), (-1, 0), 0.5),
                        Contact((1, 0), (1, 0), 0.5),
                        Contact((0, -1), (0, -1), 0.5)],
                       stiffness=[1.0, 1.000001, 1.0],
                       preload=[[5e-9, 0.0], [5e-9, 0.0], [0.0, 0.0]])
    back, _ = parse_grasp_text(format_grasp(model))
    assert np.array_equal(back.stiffness, model.stiffness)
    assert np.array_equal(back.preload, model.preload)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_cli_check_stable(capsys):
    code, out = run_cli(capsys, "check", str(FIXTURES / "three_contact.grasp"),
                        "--wrench", "0,-1,0")
    doc = json.loads(out)
    assert code == 0
    assert doc["stable"] is True
    assert doc["forces"]["local"][1] == pytest.approx([1.0, 0.0], abs=1e-9)
    assert doc["motion"] == pytest.approx([0.0, -1.0, 0.0], abs=1e-9)


def test_cli_check_unstable_still_exit_zero(capsys):
    code, out = run_cli(capsys, "check", str(FIXTURES / "three_contact.grasp"),
                        "--wrench", "0,1,0")
    assert code == 0
    assert json.loads(out)["stable"] is False


def test_cli_check_table3_row9(capsys):
    code, out = run_cli(capsys, "check",
                        str(FIXTURES / "four_contact_preload.grasp"),
                        "--wrench", "0,0,3")
    doc = json.loads(out)
    assert doc["stable"] is True
    assert np.allclose(doc["forces"]["local"],
                       [[1.25, 0.625], [0.75, 0.375], [1.25, 0.625], [0.75, 0.375]],
                       atol=1e-6)
    assert np.allclose(doc["motion"], [0, -0.25, 0.25], atol=1e-6)


SUPPORTS = """name: supports
contacts:
  - {position: [-1.0, -1.0], normal: [0.0, -1.0], mu: 0.5}
  - {position: [0.0, -1.0], normal: [0.0, -1.0], mu: 0.5}
  - {position: [1.5, -1.0], normal: [0.0, -1.0], mu: 0.5}
"""


def test_cli_check_reports_the_separating_direction(tmp_path, capsys):
    # nothing resting on supports can be pulled up: the friction cones
    # decide the load with no slip state, and name the direction
    path = tmp_path / "supports.grasp"
    path.write_text(SUPPORTS)
    _code, out = run_cli(capsys, "check", str(path), "--wrench", "0,1,0")
    doc = json.loads(out)
    assert doc["stable"] is False and doc["counts"]["states_tried"] == 0
    y = doc["separating_direction"]
    assert len(y) == 3 and np.linalg.norm(y) == pytest.approx(1.0)
    assert y[1] > 0.0
    # the same document, the key empty, where the test does not decide
    # or for the reference commands
    for argv in (["check", str(path), "--wrench", "0,-1,0"],
                 ["oracle", str(path), "--wrench", "0,1,0"],
                 ["linear", str(path), "--wrench", "0,1,0"]):
        _code, out = run_cli(capsys, *argv)
        assert json.loads(out)["separating_direction"] is None, argv


def test_cli_strict_mode_changes_verdict(capsys):
    code, out = run_cli(capsys, "check", str(FIXTURES / "four_contact.grasp"),
                        "--wrench", "0,0,3", "--no-detach")
    assert json.loads(out)["stable"] is False


def test_cli_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.grasp"
    bad.write_text("contacts: [unclosed\n")
    assert main(["check", str(bad), "--wrench", "0,0,0"]) == 2


def test_cli_validation_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "invalid.grasp"
    bad.write_text("contacts:\n  - {position: [0,0], normal: [0,-0.9], mu: 0.5}\n")
    assert main(["check", str(bad), "--wrench", "0,0,0"]) == 3


@pytest.mark.parametrize("text", ["nan,0,0", "0,inf,0", "0,0,-inf"])
def test_cli_rejects_non_finite_wrench(capsys, text):
    with pytest.raises(SystemExit) as exc:
        main(["check", str(FIXTURES / "three_contact.grasp"), "--wrench", text])
    assert exc.value.code == 2
    assert "finite" in capsys.readouterr().err


# (fixture, text replaced, replacement): one non-finite value each
NON_FINITE_GRASPS = {
    "position": ("three_contact", "position: [0.0, -1.0]",
                 "position: [.nan, -1.0]"),
    "normal": ("three_contact", "normal: [1.0, 0.0]", "normal: [.inf, 0.0]"),
    "mu": ("three_contact", "mu: 0.5}\n  - {position: [1.0",
           "mu: .nan}\n  - {position: [1.0"),
    "stiffness": ("three_contact", "stiffness: 1.0", "stiffness: .inf"),
    "preload": ("three_contact_preload", "- [1.0, 0.0]", "- [.nan, 0.0]"),
}


# (fixture, text replaced, replacement, start of the error): one value of
# the wrong type each
NON_NUMERIC_GRASPS = {
    "mu": ("three_contact", "mu: 0.5}\n  - {position: [1.0",
           "mu: [1, 2]}\n  - {position: [1.0", "contact 1 mu"),
    "stiffness": ("three_contact", "stiffness: 1.0", "stiffness: abc",
                  "stiffness"),
    "stiffness entry": ("three_contact", "stiffness: 1.0",
                        'stiffness: [1, "x", 1]', "stiffness 1"),
    "quoted detachment": ("three_contact", "detachment: true",
                          'detachment: "false"', "options: detachment"),
    "numeric detachment": ("three_contact", "detachment: true",
                           "detachment: 3", "options: detachment"),
    "boolean stiffness": ("three_contact", "stiffness: 1.0",
                          "stiffness: true", "stiffness"),
    "boolean position": ("three_contact", "position: [0.0, -1.0]",
                         "position: [false, -1.0]", "contact 1 position"),
}


def _run_edited(tmp_path, command, fixture, old, new):
    """The CLI's exit code on a fixture with old replaced by new."""
    text = (FIXTURES / f"{fixture}.grasp").read_text()
    assert text.count(old) == 1
    bad = tmp_path / "edited.grasp"
    bad.write_text(text.replace(old, new))
    argv = [command, str(bad)] + (["--wrench", "0,-1,0"]
                                  if command == "check" else [])
    return main(argv)


@pytest.mark.parametrize("command", ["check", "enumerate"])
@pytest.mark.parametrize("field", sorted(NON_FINITE_GRASPS))
def test_cli_rejects_non_finite_grasp(tmp_path, capsys, command, field):
    assert _run_edited(tmp_path, command, *NON_FINITE_GRASPS[field]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "non-finite" in captured.err


@pytest.mark.parametrize("command", ["check", "enumerate"])
@pytest.mark.parametrize("case", sorted(NON_NUMERIC_GRASPS))
def test_cli_rejects_wrongly_typed_grasp(tmp_path, capsys, command, case):
    # a parse error (exit 2) naming the field, not a traceback
    *edit, field = NON_NUMERIC_GRASPS[case]
    assert _run_edited(tmp_path, command, *edit) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {field}: ")


def test_cli_enumerate_counts(capsys):
    code, out = run_cli(capsys, "enumerate", str(FIXTURES / "four_contact.grasp"),
                        "--no-detach")
    doc = json.loads(out)
    assert doc["counts"]["total"] == 10
    assert doc["counts"]["regions"] == 4
    assert doc["dual_graph"] == {"V": 4, "E": 4, "F": 2}


@pytest.mark.parametrize("name", ["three_contact", "three_contact_preload",
                                  "four_contact", "four_contact_preload"])
@pytest.mark.parametrize("strict", [False, True])
def test_cli_enumerate_dual_graph_matches_built_graph(capsys, name, strict):
    # the counts come from the cells; the graph is built here only to
    # check them (every fixture turns detachment on)
    path = FIXTURES / f"{name}.grasp"
    _code, out = run_cli(capsys, "enumerate", str(path),
                         *(["--no-detach"] if strict else []))
    states = enumerate_slip_states(load_grasp_file(path)[0],
                                   detachment=not strict)
    graph = build_dual_graph(states.cells["regions"], states.cells["facets"])
    assert json.loads(out)["dual_graph"] == {
        "V": graph.n_vertices, "E": graph.n_edges, "F": graph.n_faces}


def test_cli_enumerate_random_three(tmp_path, capsys):
    path = tmp_path / "g3.grasp"
    code, out = run_cli(capsys, "gen", "--contacts", "3", "--seed", "5")
    path.write_text(out)
    code, out = run_cli(capsys, "enumerate", str(path))
    assert json.loads(out)["counts"]["total"] == 26


def test_cli_region_sweep_csv(capsys):
    code, out = run_cli(capsys, "region", str(FIXTURES / "three_contact.grasp"),
                        "--directions", "4", "--tol", "1e-3")
    lines = out.strip().splitlines()
    assert lines[0] == "dir_x,dir_y,max_force"
    assert len(lines) == 5
    table = {}
    for line in lines[1:]:
        dx, dy, mag = line.split(",")
        table[(round(float(dx), 6), round(float(dy), 6))] = mag
    assert table[(1.0, 0.0)] == "inf"
    assert table[(0.0, -1.0)] == "inf"
    assert float(table[(0.0, 1.0)]) < 1e-3


def test_cli_region_too_few_directions(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["region", str(FIXTURES / "three_contact.grasp"), "--directions", "3"])
    assert exc.value.code == 2


@pytest.mark.parametrize("flag, value", [
    ("--tol", "nan"), ("--tol", "0"), ("--tol", "-1"), ("--tol", "inf"),
    ("--cap", "nan"), ("--cap", "inf"), ("--cap", "0"),
])
def test_cli_region_rejects_bad_tol_and_cap(capsys, flag, value):
    with pytest.raises(SystemExit) as exc:
        main(["region", str(FIXTURES / "three_contact.grasp"), flag, value])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{flag} must be finite and positive" in captured.err


def test_cli_gws_slice(capsys):
    code, out = run_cli(capsys, "gws", str(FIXTURES / "three_contact.grasp"),
                        "--slice", "0")
    doc = json.loads(out)
    poly = np.array(doc["slice"]["polygon"])
    assert len(poly) >= 3 and not doc["slice"]["degenerate"]


@pytest.mark.parametrize("command, argv, message", [
    ("linear", ["--wrench", "0,-1,0", "--tangent-stiffness", "0"],
     "--tangent-stiffness must be finite and positive"),
    ("linear", ["--wrench", "0,-1,0", "--tangent-stiffness", "-1"],
     "--tangent-stiffness must be finite and positive"),
    ("linear", ["--wrench", "0,-1,0", "--tangent-stiffness", "nan"],
     "--tangent-stiffness must be finite and positive"),
    ("linear", ["--wrench", "0,-1,0", "--tangent-stiffness", "inf"],
     "--tangent-stiffness must be finite and positive"),
    ("gws", ["--slice", "nan"], "--slice must be finite"),
    # three_contact's torques span [-0.5, 0.5]
    ("gws", ["--slice", "100"], "outside polytope range"),
])
def test_cli_bad_option_values_are_usage_errors(capsys, command, argv,
                                                message):
    # a usage error, not a traceback
    with pytest.raises(SystemExit) as exc:
        main([command, str(FIXTURES / "three_contact.grasp"), *argv])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


def test_cli_oracle_matches_check(capsys):
    _code, out1 = run_cli(capsys, "oracle", str(FIXTURES / "three_contact.grasp"),
                          "--wrench", "0,1,0")
    _code, out2 = run_cli(capsys, "check", str(FIXTURES / "three_contact.grasp"),
                          "--wrench", "0,1,0")
    assert json.loads(out1)["stable"] == json.loads(out2)["stable"] is False


def test_cli_linear_documented_false_negative(capsys):
    _code, out = run_cli(capsys, "linear", str(FIXTURES / "three_contact.grasp"),
                         "--wrench", "0,-1,0")
    assert json.loads(out)["stable"] is False


def test_cli_determinism(capsys):
    docs = []
    for _ in range(2):
        _code, out = run_cli(capsys, "check",
                             str(FIXTURES / "four_contact_preload.grasp"),
                             "--wrench", "0,0,3")
        doc = json.loads(out)
        doc.pop("timing_ms")
        docs.append(json.dumps(doc, sort_keys=True))
    assert docs[0] == docs[1]


def test_cli_gen_detach_flag(tmp_path, capsys):
    _code, out = run_cli(capsys, "gen", "--contacts", "2", "--seed", "3",
                         "--detach")
    assert "detachment: true" in out
    _code, out = run_cli(capsys, "gen", "--contacts", "2", "--seed", "3")
    assert "detachment: false" in out


@pytest.mark.parametrize("argv, message", [
    (["--contacts", "0"], "--contacts must be at least 1"),
    (["--contacts", "-2"], "--contacts must be at least 1"),
    (["--contacts", "3", "--mu", "-1"], "--mu must be finite and non-negative"),
    (["--contacts", "3", "--mu", "nan"], "--mu must be finite and non-negative"),
    (["--contacts", "3", "--mu", "inf"], "--mu must be finite and non-negative"),
    (["--contacts", "3", "--seed", "-1"], "--seed must be non-negative"),
])
def test_cli_gen_rejects_bad_input(capsys, argv, message):
    # a usage error, not a traceback or a grasp file that fails to load
    with pytest.raises(SystemExit) as exc:
        main(["gen", *argv])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


@pytest.mark.parametrize("mu", [-1.0, float("nan"), float("inf")])
def test_random_grasp_rejects_bad_friction(mu):
    # the generator itself refuses what validate_model would reject
    with pytest.raises(ValueError, match="mu must be finite and non-negative"):
        random_grasp(3, rng=0, mu=mu)


def test_cli_gen_output_loads(tmp_path, capsys):
    code, out = run_cli(capsys, "gen", "--contacts", "4", "--mu", "0")
    assert code == 0
    path = tmp_path / "g.grasp"
    path.write_text(out)
    model, _name = load_grasp_file(path)
    assert model.m == 4 and all(c.mu == 0.0 for c in model.contacts)
