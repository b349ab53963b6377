"""Compare graspstab's outputs with those of another checkout, bit for bit.

Usage:

    python3 tools/compare_outputs.py PARENT_CHECKOUT

Runs one fixed corpus of 14,422 calls with this checkout's ``src/`` and
then with ``PARENT_CHECKOUT/src``, each in a child process, and compares
the records with == on the raw floats. It prints, per field, the count
of records that differ and up to five of their keys, with the largest
absolute change of a float field, and exits 1 when any record
differs.

The corpus:

- the 4 fixtures x 80 loads (the grid {-2..2} x {-2, 0, 2} x {-1.5, -1,
  0, 1, 1.5} and 5 more Table I/III loads) x both detachment modes x both
  witness policies, with and without a shared SlipStateSet (2,560), and
  brute_force_verdict on each load and mode (640);
- 40 random_grasp models (m = 2-5, seeds 1000-1039, preload "auto" and
  "none" alternating) x 12 loads x both modes x both policies, shared and
  fresh (3,840), and brute_force_verdict where m <= 4 (720);
- 20 off-centre grasps (tests/conftest.py's off_centre_grasp, whose
  normals need not meet in one point), drawn and queried as the random
  models: 1,920 queries, 360 brute_force_verdict records, 640 sweeps and
  40 enumerations (2,960 in all);
- max_resistible along 16 directions per grasp and mode, on a shared
  SlipStateSet: fixtures (128) and random models (1,280);
- criterion 4's 200 queries (tests/test_acceptance.py) under both
  policies (400) and brute_force_verdict on each (200);
- the stored oracle_mix selections of seeds 1-10 (stabbench/verdicts)
  under both policies (1,600);
- the enumeration of each fixture and random model in both modes (88),
  and of the six enumerate_large grasps, random_grasp(m, seed,
  detachment=det) for (m, seed, det) in LARGE_GRASPS (6).

A verdict's fields are stable, states_tried, first_feasible and
separating_direction, and its witness's d, forces, labels, state_index,
max_eq_residual and min_ineq_slack; a max_resistible result's are
magnitude, bracket and stable_intervals; an enumeration's are labels,
dim_rank, signs and witness, and each cell class's signs and witness.
The oracle_mix inputs are built
by this checkout's ``stabbench/workloads.py``, and the off-centre grasps by
its ``tests/conftest.py``, on both sides.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent

FIXTURE_LOADS = [*itertools.product(range(-2, 3), (-2, 0, 2),
                                    (-1.5, -1, 0, 1, 1.5)),
                 (0, -1, 0), (0, 1, 0), (0, 1.1, 0), (0, 0, 3), (0, 0, -3)]
POLICIES = ("first", "canonical")
DIRECTIONS = 16
WRENCH_SCALE = (2.0, 2.0, 1.5)
# the keys of records that differ shown per field
SHOWN = 5
# off-centre grasps in the corpus
OFF_CENTRE = 20
# (contacts, generator seed, detachment) of the benchmark's
# enumerate_large grasps
LARGE_GRASPS = [(12, 0, False), (6, 0, True), (16, 0, False),
                (8, 0, True), (20, 1, False), (9, 3, True)]


def _floats(a):
    return None if a is None else [float(v) for v in a]


def _verdict(v) -> dict:
    rec = {"stable": v.stable, "states_tried": v.states_tried,
           "first_feasible": v.first_feasible,
           "separating_direction": _floats(v.separating_direction)}
    wit = v.witness
    rec.update({f"witness.{name}": None for name in
                ("d", "forces", "labels", "state_index", "max_eq_residual",
                 "min_ineq_slack")} if wit is None else {
        "witness.d": _floats(wit.d),
        "witness.forces": _floats(wit.forces.ravel()),
        "witness.labels": [int(l) for l in wit.labels],
        "witness.state_index": wit.state_index,
        "witness.max_eq_residual": float(wit.max_eq_residual),
        "witness.min_ineq_slack": float(wit.min_ineq_slack)})
    return rec


def _sweep(r) -> dict:
    return {"magnitude": float(r.magnitude),
            "bracket": _floats(r.bracket),
            "stable_intervals": [_floats(s) for s in r.stable_intervals]}


def _enumeration(states) -> dict:
    rec = {name: getattr(states, name).tolist()
           for name in ("labels", "dim_rank", "signs", "witness")}
    for kind, cells in states.cells.items():
        rec.update({f"{kind}.signs": cells.signs.tolist(),
                    f"{kind}.witness": cells.witness.tolist()})
    return rec


def _grasp_records(gs, tag, model, loads, brute):
    """The enumeration, query, brute-force and sweep records of one
    grasp."""
    out = {}
    for det in (False, True):
        shared = gs.enumerate_slip_states(model, detachment=det)
        out[f"{tag}/det{det:d}/enumerate"] = _enumeration(shared)
        for j, w in enumerate(loads):
            for pol, (kind, states) in itertools.product(
                    POLICIES, (("shared", shared), ("fresh", None))):
                out[f"{tag}/det{det:d}/w{j}/{pol}/{kind}"] = _verdict(
                    gs.check_stability(model, w, detachment=det,
                                       witness_policy=pol, states=states))
            if brute:
                out[f"{tag}/det{det:d}/w{j}/brute"] = _verdict(
                    gs.brute_force_verdict(model, w, detachment=det))
        for k in range(DIRECTIONS):
            ang = 2.0 * math.pi * k / DIRECTIONS
            out[f"{tag}/det{det:d}/dir{k}"] = _sweep(gs.max_resistible(
                model, (math.cos(ang), math.sin(ang)), states=shared))
    return out


def off_centre_records(gs) -> dict:
    """The records of OFF_CENTRE grasps from tests/conftest.py's
    off_centre_grasp (m = 2-5, seeds 2000-2019, balanced preload and none
    alternating in fours), each under 12 loads drawn as the random
    models' are."""
    import numpy as np

    sys.path.insert(0, str(REPO / "tests"))
    from conftest import off_centre_grasp

    out = {}
    for i in range(OFF_CENTRE):
        m, seed = 2 + i % 4, 2000 + i
        model = off_centre_grasp(m, np.random.default_rng(seed),
                                 preload=(i // 4) % 2 == 1)
        loads = np.random.default_rng([seed, 1]).normal(size=(12, 3)) \
            * WRENCH_SCALE
        out.update(_grasp_records(gs, f"offcentre{seed}", model, loads,
                                  m <= 4))
    return out


def dump() -> dict:
    """Every record of the corpus, by key, under the graspstab on the
    path."""
    import numpy as np

    import graspstab as gs
    from graspstab.generate import random_grasp
    from graspstab.grasp_io import load_grasp_file

    out = {}
    for path in sorted((REPO / "fixtures").glob("*.grasp")):
        model = load_grasp_file(str(path))[0]
        loads = [np.array(w, dtype=float) for w in FIXTURE_LOADS]
        out.update(_grasp_records(gs, path.stem, model, loads, True))
    for i in range(40):
        m, seed = 2 + i % 4, 1000 + i
        model = random_grasp(m, rng=seed,
                             preload="auto" if (i // 4) % 2 else "none")
        loads = np.random.default_rng([seed, 1]).normal(size=(12, 3)) \
            * WRENCH_SCALE
        out.update(_grasp_records(gs, f"random{seed}", model, loads, m <= 4))
    out.update(off_centre_records(gs))

    for m, seed, det in LARGE_GRASPS:
        out[f"enumerate_large/m{m}-s{seed}-{'det' if det else 'nodet'}"] = \
            _enumeration(gs.enumerate_slip_states(
                random_grasp(m, seed, detachment=det), detachment=det))

    # criterion 4's stream, drawn as tests/test_acceptance.py draws it
    rng = np.random.default_rng(27182)
    for run in range(200):
        m = int(rng.integers(2, 6))
        model = random_grasp(m, rng=rng,
                             preload="auto" if rng.random() < 0.5 else "none",
                             detachment=True)
        w = rng.normal(size=3) * np.array(WRENCH_SCALE)
        for pol in POLICIES:
            out[f"criterion4/{run}/{pol}"] = _verdict(
                gs.check_stability(model, w, witness_policy=pol))
        out[f"criterion4/{run}/brute"] = _verdict(
            gs.brute_force_verdict(model, w))

    sys.path.insert(0, str(REPO / "stabbench"))
    import workloads

    for seed in range(1, 11):
        _doc, queries = workloads.load_selection(gs, seed)
        if queries is None:
            raise RuntimeError(f"no stored oracle_mix selection of seed {seed}")
        for i, q in enumerate(queries):
            for pol in POLICIES:
                out[f"oracle_mix{seed}/{i}/{pol}"] = _verdict(
                    gs.check_stability(q.model, q.w, witness_policy=pol))
    return out


def _run(checkout: Path, path: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    subprocess.run([sys.executable, str(Path(__file__).resolve()),
                    "--dump", str(path)], env=env, check=True)
    return json.loads(path.read_text())


def compare(parent: dict, change: dict) -> dict:
    """Per field, the records that differ: {field: (count, up to five of
    their keys, the largest absolute change or None)}. The change is
    read where both values are floats or equal-length lists of them,
    and is None where no differing record has such values; "missing"
    counts the keys that only one side has."""
    keys = {"missing": sorted(parent.keys() ^ change.keys())}
    largest: dict[str, float] = {}
    for key in sorted(parent.keys() & change.keys()):
        a, b = parent[key], change[key]
        for field in a.keys() | b.keys():
            if a.get(field) != b.get(field):
                keys.setdefault(field, []).append(key)
                moved = _change(a.get(field), b.get(field))
                if moved is not None:
                    largest[field] = max(largest.get(field, 0.0), moved)
    return {field: (len(ks), ks[:SHOWN], largest.get(field))
            for field, ks in keys.items() if ks}


def _leaves(value) -> list:
    return [leaf for v in value for leaf in _leaves(v)] \
        if isinstance(value, list) else [value]


def _change(a, b) -> float | None:
    """max |a - b| over the floats of two values of one shape, else None."""
    a, b = _leaves(a), _leaves(b)
    if len(a) != len(b) or not all(type(v) is float for v in a + b):
        return None
    return max((abs(x - y) if x != y else 0.0 for x, y in zip(a, b)),
               default=0.0)


def report(differ: dict, fields) -> list[str]:
    """One line per field of ``compare``'s result: its count of records
    that differ and, where some do, the largest change and their keys."""
    lines = []
    for field in ["missing", *fields]:
        count, keys, moved = differ.get(field, (0, [], None))
        line = f"{field:28s} {count} differ"
        if moved is not None:
            line += f", largest change {moved:.3g}"
        if keys:
            line += ": " + ", ".join(keys) + (", ..." if count > len(keys)
                                              else "")
        lines.append(line)
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", nargs="?", type=Path,
                    help="checkout to compare this one with")
    ap.add_argument("--dump", type=Path,
                    help="write the records of the graspstab on the path "
                         "to this JSON file and exit")
    args = ap.parse_args(argv)
    if args.dump is not None:
        args.dump.write_text(json.dumps(dump()))
        return 0
    if args.parent is None:
        ap.error("give PARENT_CHECKOUT or --dump")
    with tempfile.TemporaryDirectory() as tmp:
        change = _run(REPO, Path(tmp) / "change.json")
        parent = _run(args.parent.resolve(), Path(tmp) / "parent.json")
    differ = compare(parent, change)
    fields = sorted({f for rec in change.values() for f in rec})
    print(f"{len(change)} records here, {len(parent)} in the parent")
    print("\n".join(report(differ, fields)))
    records = sum(1 for key in parent.keys() & change.keys()
                  if parent[key] != change[key]) + \
        len(parent.keys() ^ change.keys())
    print(f"records that differ: {records}")
    return 1 if records else 0


if __name__ == "__main__":
    sys.exit(main())
