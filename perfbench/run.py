#!/usr/bin/env python3
"""Benchmark of lkholonomy: time from a potential or an algebra to a
checked verdict, on one process and one BLAS thread.

    python3 perfbench/run.py --workload verdict-mix [--seed 0] [--seconds 30] [--trace 0]
    python3 perfbench/run.py --workload verdict-mix --repeat 10

A run first times fresh interpreters importing ``lkholonomy.cli``
(``setup_s``), then builds the workload's fixed verdict list from the seed,
then runs whole rounds of that list while the next round still fits in
``--seconds``.  Every verdict is checked outside the timed region.  The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics, or with ``--trace 1`` the
per-layer metrics of one traced round.  ``--repeat k`` runs the workload k
times on seeds seed..seed+k-1 and prints each end-to-end metric's median,
quartiles and spread next to its bound.  See perfbench/README.md.
"""
from __future__ import annotations

import os

# Single-threaded numerics, set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import fractions  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from time import perf_counter  # noqa: E402

import calibrate  # noqa: E402
import common  # noqa: E402  (exits unless the checkout has src/lkholonomy)
import tracing  # noqa: E402
import workloads  # noqa: E402

RESULTS = os.path.join(common.HERE, "results")
SETUP_REPEATS = 5
TAIL_MIN_VERDICTS = 40
TAIL_BEYOND = 10
IMPORT_PROBE = ("import time; t = time.perf_counter(); import lkholonomy.cli; "
                "print(time.perf_counter() - t)")


def _benchmark() -> dict:
    with open(os.path.join(common.ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def measure_setup(repeats: int = SETUP_REPEATS) -> tuple[float, float]:
    """Median time of a fresh interpreter importing lkholonomy.cli, and
    median time of the import alone as the child measures it, both scaled
    to the reference speed of the python kernel."""
    env = dict(os.environ, PYTHONPATH=common.SRC)
    walls, imports = [], []
    before = calibrate.kernel_time("python")
    for _ in range(repeats):
        t0 = perf_counter()
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=common.ROOT,
                              capture_output=True, text=True, timeout=120)
        wall = perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"importing lkholonomy.cli failed:\n{proc.stderr}")
        after = calibrate.kernel_time("python")
        factor = calibrate.scale("python", before, after)
        walls.append(wall * factor)
        imports.append(float(proc.stdout.strip().splitlines()[-1]) * factor)
        before = after
    return statistics.median(walls), statistics.median(imports)


def tail(values: list[float]) -> float:
    """The highest percentile with TAIL_BEYOND values beyond it; for lists
    shorter than TAIL_MIN_VERDICTS, where that would be no tail, the maximum."""
    xs = sorted(values)
    if len(xs) < TAIL_MIN_VERDICTS:
        return xs[-1]
    return xs[len(xs) - 1 - TAIL_BEYOND]


def run_round(verdicts, kernel: str, times: list[list[float]], walls: list[list[float]],
              wrong: list[str], failed: list[str]) -> float:
    """One pass over the verdict list; returns the summed scaled verdict time.

    Between verdicts, outside the timed region: the check, gc.collect() and
    the calibration kernel whose times before and after a verdict scale it."""
    total = 0.0
    gc.collect()
    before = calibrate.kernel_time(kernel)
    for v, scaled, wall in zip(verdicts, times, walls):
        t0 = perf_counter()
        try:
            out = v.run()
        except Exception as exc:  # a verdict that raises is checked, not fatal
            out = exc
        dt = perf_counter() - t0
        errs = v.check(out)
        if errs and v.fault is not None and v.fault(out):
            failed.append(f"{v.name}: fault ({v.known_fault})")
        elif errs:
            wrong.append(f"{v.name}: {'; '.join(errs)}")
        gc.collect()
        after = calibrate.kernel_time(kernel)
        wall.append(dt)
        scaled.append(dt * calibrate.scale(kernel, before, after))
        total += scaled[-1]
        before = after
    return total


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    setup_s, import_s = measure_setup()
    os.makedirs(RESULTS, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{name}-", dir=RESULTS)
    try:
        build, kernel = workloads.WORKLOADS[name]
        verdicts = build(seed, work)
        times: list[list[float]] = [[] for _ in verdicts]
        walls: list[list[float]] = [[] for _ in verdicts]
        wrong: list[str] = []
        failed: list[str] = []
        rounds: list[float] = []
        round_walls: list[float] = []
        tracer = None
        if trace:
            tracer = tracing.Tracer()
            tracer.install()
        start = perf_counter()
        try:
            while True:
                t0 = perf_counter()
                rounds.append(run_round(verdicts, kernel, times, walls, wrong, failed))
                round_walls.append(perf_counter() - t0)
                if trace or perf_counter() - start + statistics.median(round_walls) > seconds:
                    break
        finally:
            if tracer is not None:
                tracer.uninstall()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    per_verdict = [statistics.median(t) for t in times]
    end_to_end = {
        "setup_s": setup_s,
        "run_s": statistics.median(rounds),
        # p50 over every timed verdict; the tail over per-verdict medians,
        # a population whose size does not change with the number of rounds
        "verdict_s.p50": statistics.median([x for t in times for x in t]),
        "verdict_s.tail": tail(per_verdict),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        values = tracer.metrics() | {"cli.import_s": import_s}
        kind = "per_layer"
    else:
        values, kind = end_to_end, "end_to_end"
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in _benchmark()[kind]}
    detail = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "rounds": len(rounds), "round_s": rounds, "end_to_end": end_to_end,
        "metrics": metrics, "kernel": kernel,
        "verdicts": {v.name: t for v, t in zip(verdicts, times)},
        "wall_s": {v.name: t for v, t in zip(verdicts, walls)},
        "wrong": wrong, "failed": failed,
    }
    with open(os.path.join(RESULTS, f"{name}-seed{seed}-trace{int(trace)}.json"), "w") as fh:
        json.dump(detail, fh, indent=1)
    for line in wrong:
        sys.stderr.write(f"WRONG {line}\n")
    return {"correct": not wrong, "attempted": len(verdicts) * len(rounds),
            "failed": len(failed), "metrics": metrics}


def repeat(name: str, seed: int, seconds: float, k: int) -> int:
    """Run the workload k times in fresh processes and report the spread of
    each end-to-end metric against its bound."""
    bench = _benchmark()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values: dict[str, list[float]] = {m: [] for m in bounds}
    shares, correct = set(), True
    for i in range(k):
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(seed + i), "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=common.ROOT, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        correct &= res["correct"]
        shares.add(str(fractions.Fraction(res["failed"], res["attempted"])))
        for m in values:
            values[m].append(res["metrics"][m]["value"])
        print(f"seed {seed + i}: " + ", ".join(f"{m}={values[m][-1]:.4g}" for m in values)
              + f"; failed {res['failed']}/{res['attempted']}", flush=True)
    print(f"\n{name}: {k} runs, correct={correct}, failed shares={sorted(shares)}")
    print(f"{'metric':16} {'median':>10} {'q1':>10} {'q3':>10} {'spread':>8} {'bound':>6}")
    summary = {}
    for m, xs in values.items():
        q1, med, q3 = statistics.quantiles(xs, n=4)
        spread = (q3 - q1) / med
        summary[m] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                      "bound": bounds[m], "values": xs}
        print(f"{m:16} {med:10.4g} {q1:10.4g} {q3:10.4g} {spread:8.3f} {bounds[m]:6.2f}"
              + ("" if m == "setup_s" or spread <= bounds[m] / 3 else "  > bound/3"))
    os.makedirs(RESULTS, exist_ok=True)
    with open(os.path.join(RESULTS, f"repeat-{name}-seed{seed}.json"), "w") as fh:
        json.dump(summary, fh, indent=1)
    return 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=tuple(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None,
                    help="run length (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--repeat", type=int, default=0, metavar="K",
                    help="run the workload K times and report spreads")
    args = ap.parse_args(argv)
    seconds = args.seconds if args.seconds is not None else _benchmark()["run_seconds"]
    if args.repeat:
        return repeat(args.workload, args.seed, seconds, args.repeat)
    result = run_workload(args.workload, args.seed, seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
