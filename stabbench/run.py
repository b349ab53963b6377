#!/usr/bin/env python3
"""Benchmark of graspstab's stability pipeline, run from a source checkout.

    python3 stabbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: paper_tables, oracle_mix, region_sweep, enumerate_large (see
``workloads.py`` and the README). One process, one thread. The program
is imported from ``src/`` of the checkout this directory sits in.

The timed phase repeats whole rounds of the workload's ops until
``--seconds`` have passed. After every op the reference loop
(``refloop.py``) runs for about a tenth of the op's time, and each op's
wall time is divided by the median reference time measured just before
and just after it. That ratio, the op's cost in reference loops (unit
``ref``), cancels the host's drift in speed.

With ``--trace 0`` the last line of standard output is a JSON object
with the end-to-end metrics; with ``--trace 1`` the layer functions are
wrapped (``tracing.py``), the spans are written under ``stabbench/out/``
and the JSON holds the per-layer metrics. Every run checks the outputs
of its ops against computations made apart from the program
(``oracle.py``) and reports ``correct``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import refloop  # noqa: E402

# share of each op's time spent on the reference loop after it
REF_SHARE = 0.1
# set-up is measured in this many fresh processes; setup_s is the median
SETUP_CHILDREN = 5
# setup_s is given in seconds of a host on which one reference loop takes
# this long: each child divides its set-up time by the median of the
# reference loops it runs right after (frozen, like the loop itself)
REF_NOMINAL_S = 0.005
SETUP_REFS = 15
END_TO_END = {"op_cost_ref": "ref", "setup_s": "s", "peak_rss_mb": "MB"}


def import_program():
    """Import graspstab from the checkout's ``src/``; exit if it is absent."""
    src = ROOT / "src"
    if not (src / "graspstab" / "__init__.py").is_file():
        print(f"error: no graspstab sources under {src}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(src))
    import graspstab
    import graspstab.arrangement  # noqa: F401
    import graspstab.equilibrium  # noqa: F401
    import graspstab.generate  # noqa: F401
    import graspstab.grasp_io  # noqa: F401
    import graspstab.lp  # noqa: F401
    import graspstab.model  # noqa: F401
    import graspstab.stability  # noqa: F401
    if Path(graspstab.__file__).resolve().parent != (src / "graspstab").resolve():
        print(f"error: imported graspstab from {graspstab.__file__}, "
              f"not from {src}", file=sys.stderr)
        raise SystemExit(2)
    return graspstab


def warm_up(gs) -> None:
    """One small query through every layer, so no op pays first-call costs."""
    contacts = [gs.model.Contact([-1, 0], [-1, 0], 0.5),
                gs.model.Contact([0, -1], [0, -1], 0.5),
                gs.model.Contact([1, 0], [1, 0], 0.5)]
    model = gs.model.GraspModel(contacts)
    gs.stability.check_stability(model, (0.0, -1.0, 0.0))
    gs.stability.check_stability(model, (0.0, 1.0, 0.0))


def load_workload(workload: str):
    import workloads
    if workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        raise SystemExit(2)
    return workloads.WORKLOADS[workload]


def setup(workload: str, seed: int) -> tuple[float, float]:
    """(seconds, reference loops) to import, build the inputs and warm up.

    Run in a fresh process, so the import is a first import.
    """
    t0 = time.perf_counter()
    gs = import_program()
    load_workload(workload).build(gs, ROOT, seed)
    warm_up(gs)
    seconds = time.perf_counter() - t0
    ref = statistics.median(refloop.time_reference() for _ in range(SETUP_REFS))
    return seconds, seconds / ref


def child_setups(workload: str, seed: int) -> list[tuple[float, float]]:
    """(seconds, reference loops) of set-up in fresh processes."""
    times = []
    for _ in range(SETUP_CHILDREN):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-only",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            print(done.stderr, end="", file=sys.stderr)
            raise SystemExit(f"error: set-up failed in a fresh process "
                             f"(exit {done.returncode})")
        seconds, refs = done.stdout.split()[-2:]
        times.append((float(seconds), float(refs)))
    return times


def run_rounds(gs, wl, ops, seconds: float, tracer=None):
    """Whole rounds of ops until ``seconds`` have passed.

    Returns (records, first_outputs, problems); a record is
    (key, op seconds, local reference seconds, failed). An op that raises
    ``SimplexError`` is a problem unless the workload names its key in
    ``may_fail``.
    """
    failure = gs.lp.SimplexError
    before = [refloop.time_reference()]
    records, first, summaries, problems = [], {}, {}, []
    t_end = time.perf_counter() + seconds
    n = 0
    while True:
        for op in ops:
            if tracer is not None:
                tracer.op = n
            n += 1
            t0 = time.perf_counter()
            try:
                out = op.call()
                failed = False
            except failure as exc:
                out, failed = exc, True
                if op.key not in wl.may_fail:
                    problems.append(f"{op.key}: {type(exc).__name__}: {exc}")
            dt = time.perf_counter() - t0
            reps = max(1, round(REF_SHARE * dt / statistics.median(before)))
            after = [refloop.time_reference() for _ in range(reps)]
            records.append((op.key, dt, statistics.median(before + after), failed))
            before = after
            summary = (("failed", type(out).__name__, str(out)) if failed
                       else wl.summary(out))
            if op.key not in summaries:
                summaries[op.key] = summary
                if not failed:
                    first[op.key] = out
            elif summaries[op.key] != summary:
                problems.append(f"{op.key}: output differs between rounds")
        if time.perf_counter() >= t_end:
            break
    if tracer is not None:
        tracer.op = -1
    return records, first, problems


def op_costs(records) -> dict[str, float]:
    """Median over rounds of each op's cost in reference loops."""
    per_key: dict[str, list[float]] = {}
    for key, dt, ref, _failed in records:
        per_key.setdefault(key, []).append(dt / ref)
    return {k: statistics.median(v) for k, v in per_key.items()}


def end_to_end(records, setup_times) -> dict[str, float]:
    costs = op_costs(records)
    return {
        "op_cost_ref": statistics.fmean(costs.values()),
        "setup_s": (REF_NOMINAL_S * statistics.median(r for _s, r in setup_times)
                    if setup_times else None),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown cpu"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.setup_only:
        print(*map(repr, setup(args.workload, args.seed)))
        return 0

    gs = import_program()
    wl = load_workload(args.workload)
    if wl.prepare is not None:
        wl.prepare(gs, args.seed)
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()  # before the build, for the generator's spans
        setup_times = []
    else:
        setup_times = child_setups(args.workload, args.seed)
    ops = wl.build(gs, ROOT, args.seed)
    warm_up(gs)

    records, outputs, problems = run_rounds(gs, wl, ops, args.seconds, tracer)
    metrics = end_to_end(records, setup_times)
    if tracer is not None:
        tracer.uninstall()

    problems += wl.check([op for op in ops if op.key in outputs], outputs,
                         args.seed)
    for p in problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)

    attempted = len(records)
    failed = sum(1 for r in records if r[3])
    if tracer is not None:
        layer = tracer.metrics(attempted)
        layer["trace.op_cost_ref"] = metrics["op_cost_ref"]
        import workloads
        workloads.OUT.mkdir(exist_ok=True)
        tracer.write(workloads.OUT / f"trace-{args.workload}-seed{args.seed}.json.gz")
        report = {k: {"value": layer[k], "unit": u}
                  for k, u in tracing.METRICS.items()}
    else:
        report = {k: {"value": metrics[k], "unit": u}
                  for k, u in END_TO_END.items()}
    print(f"machine: {platform.machine()} {_cpu_model()}, "
          f"{os.cpu_count()} cpus, python {platform.python_version()}, "
          f"numpy {gs.model.np.__version__}")
    print(f"{args.workload} seed {args.seed}: {attempted} ops, {failed} failed, "
          f"{len(ops)} per round; op mean {1e3 * statistics.fmean(r[1] for r in records):.3f} ms "
          f"raw; reference loop median "
          f"{1e3 * statistics.median(r[2] for r in records):.3f} ms; "
          f"set-up {', '.join(f'{t:.3f}' for t, _r in setup_times)} s raw")
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": report}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
