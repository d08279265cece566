"""Engine benchmark: four seeded workloads through the public entry points.

One workload, one JSON result on the last line of standard output::

    python3 perfbench/run.py --workload dataset-raise --seed 1 --trace 0

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs the same workload untraced for half the time and
traced for the other half, reports the per-layer metrics (with the
tracing overhead) and writes every span to
``.perfbench_work/traces/<workload>-seed<seed>.json``.

Without ``--workload`` it runs every workload, each in its own process,
and prints one table with the host fingerprint.  ``--smoke`` shrinks
every input to a seconds-scale size with all output checks still on.

Run it from the root of a checkout: it imports the program from
``src/`` there and fails when that is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"

SETUPS = 5    # set-ups per run; setup_s is their median
MIN_OPS = 5   # timed operations per leg, however short the run


def bootstrap():
    """Import the program from this checkout's ``src/``, or exit."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(
            f"perfbench: no program source at {src}/repro; run from the "
            "root of a full checkout"
        )
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}")


def contract():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def fingerprint():
    import numpy

    from loads import nproc

    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": _git_sha(),
    }


def _git_sha():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def make_workload(name, seed, smoke, workdir):
    from repro import LatePolicy

    import loads

    if name == "dataset-raise":
        return loads.DatasetWorkload(
            seed, 4_000 if smoke else 30_000, LatePolicy.RAISE,
            bursts=0, budget=None,
        )
    if name == "dataset-drop-spill":
        return loads.DatasetWorkload(
            seed, 30_000 if smoke else 200_000, LatePolicy.DROP,
            bursts=3, budget=loads.SPILL_BUDGET,
        )
    if name == "batches-parallel":
        return loads.ParallelWorkload(seed, 150_000 if smoke else 500_000)
    if name == "serve-rounds":
        return loads.ServeWorkload(
            seed, round_events=100 if smoke else 500,
            max_rounds=40 if smoke else 1200, workdir=workdir,
        )
    raise SystemExit(f"perfbench: unknown workload {name!r}")


# -- measurement -------------------------------------------------------------


def _cpu(workload):
    """CPU seconds of this process, its reaped children and the live
    child processes the workload started."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime
            + workload.live_cpu())


def _peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0   # ru_maxrss is in KiB on Linux


class Leg:
    """The timed operations of one leg (untraced or traced)."""

    def __init__(self):
        self.walls = []
        self.cpu = 0.0
        self.attempted = 0
        self.failed = 0


def timed_ops(workload, seconds, leg, tracer=None):
    deadline = perf_counter() + seconds
    while workload.remaining() and (
        len(leg.walls) < MIN_OPS or perf_counter() < deadline
    ):
        if tracer is not None:
            tracer.op += 1
        leg.attempted += 1
        cpu0 = _cpu(workload)
        start = perf_counter()
        try:
            output = workload.op(tracer)
        except Exception:
            leg.failed += 1
            traceback.print_exc(file=sys.stderr)
            continue
        wall = perf_counter() - start
        leg.cpu += _cpu(workload) - cpu0
        workload.check(output)
        if tracer is not None:
            for name, value in workload.counters(output).items():
                tracer.count(name, value)
        leg.walls.append(wall)
    if not leg.walls:
        raise RuntimeError("no operation succeeded")


def _percentile(values, q):
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def end_to_end(workload, leg, setups):
    events = workload.events_per_op
    done = events * len(leg.walls)
    if workload.unit == "round":
        throughput = done / sum(leg.walls)
    else:
        throughput = statistics.median(events / wall for wall in leg.walls)
    return {
        "throughput_eps": throughput,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": _peak_rss_mb(),
        "cpu_s_per_mev": leg.cpu / done * 1e6,
        "op_latency_p50_ms": statistics.median(leg.walls) * 1e3,
    }


def per_layer(workload, tracer, base, traced, final):
    ops = len(traced.walls)
    spans = tracer.durations()

    def per_op(name, own=False):
        return spans.get(name, (0.0, 0.0))[1 if own else 0] / ops

    values = {
        "workloads.generate_s": spans["workloads.generate"][0] / SETUPS,
        "compiler.compile_ms":
            spans.get("compiler.compile", (0.0,))[0] / SETUPS * 1e3,
        "compiler.run_s": per_op("compiler.run"),
        "compiler.self_s": per_op("compiler.run", own=True),
        "kernels.aggregate_s": per_op("kernels.aggregate"),
    }
    for layer, spans_of in (
        ("columnar", ("insert", "punctuation", "flush")),
        ("external", ("insert", "punctuation", "flush")),
        ("parallel", ("spawn", "route", "round", "finish")),
    ):
        for span in spans_of:
            values[f"{layer}.{span}_s"] = per_op(f"{layer}.{span}")
    for name, total in tracer.counters.items():
        values[name] = total / ops
    values.update(final)
    if workload.unit == "round":
        values["serve.round_p95_ms"] = _percentile(traced.walls, 0.95) * 1e3
    base_wall = statistics.median(base.walls)
    overhead = statistics.median(traced.walls) - base_wall
    values["trace.overhead_s"] = overhead
    values["trace.overhead_share"] = overhead / base_wall
    return values


def stop_children():
    """Stop and reap every process the program started in this one.

    ``run_parallel`` joins its shard workers, but its shared-memory rings
    start multiprocessing's resource tracker, which is made to outlive
    its parent; closing its pipe and waiting here ends it before exit.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    resource_tracker._resource_tracker._stop()


def run_workload(name, seed, seconds, trace, smoke):
    from loads import CheckFailed
    from tracing import Tracer

    spec = contract()
    WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=WORK)
    # Spill files and any other temporary files stay in the checkout.
    tempfile.tempdir = workdir
    os.environ["TMPDIR"] = workdir
    tracer = Tracer()
    workload = make_workload(name, seed, smoke, workdir)
    base, traced = Leg(), Leg()
    legs = (base, traced) if trace else (base,)
    try:
        setups = []
        for index in range(SETUPS):
            if index:
                workload.teardown()
            start = perf_counter()
            workload.setup(tracer)
            setups.append(perf_counter() - start)
        workload.prepare()
        workload.check(workload.op())   # untimed warm-up, checked
        if trace:
            timed_ops(workload, seconds / 2, base)
            workload.patches(tracer)
            try:
                timed_ops(workload, seconds / 2, traced, tracer)
            finally:
                tracer.restore()
        else:
            timed_ops(workload, seconds, base)
        final = workload.finish(tracer if trace else None)
    except CheckFailed as exc:
        print(f"perfbench: {name}: wrong output: {exc}", file=sys.stderr)
        print(json.dumps({
            "correct": False,
            "attempted": max(1, sum(leg.attempted for leg in legs)),
            "failed": sum(leg.failed for leg in legs),
            "metrics": {},
        }))
        return 0
    finally:
        try:
            workload.teardown()
        finally:
            stop_children()
            shutil.rmtree(workdir, ignore_errors=True)

    if trace:
        values = per_layer(workload, tracer, base, traced, final)
        wanted = spec["per_layer"]
    else:
        values = end_to_end(workload, base, setups)
        wanted = spec["end_to_end"]
    names = {metric["name"] for metric in wanted}
    unknown = set(values) - names
    if unknown:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {unknown}")
    metrics = {
        metric["name"]: {
            "value": float(values.get(metric["name"], 0.0)),
            "unit": metric["unit"],
        }
        for metric in wanted
    }
    host = fingerprint()
    print(f"host: {json.dumps(host)}")
    print(f"{name} seed={seed}: {len(base.walls)} untraced operations "
          f"({workload.unit}, {workload.events_per_op} events), "
          f"{SETUPS} set-ups")
    if trace:
        traces = WORK / "traces"
        traces.mkdir(exist_ok=True)
        path = traces / f"{name}-seed{seed}.json"
        tracer.write(path, {
            "workload": name, "seed": seed, "host": host,
            "traced_ops": len(traced.walls),
            "untraced_op_wall_s": base.walls,
            "traced_op_wall_s": traced.walls,
            "per_layer": values,
        })
        print(f"trace written to {path.relative_to(ROOT)}")
    for metric, doc in metrics.items():
        print(f"  {metric:32s} {doc['value']:.6g} {doc['unit']}")
    print(json.dumps({
        "correct": True,
        "attempted": sum(leg.attempted for leg in legs),
        "failed": sum(leg.failed for leg in legs),
        "metrics": metrics,
    }))
    return 0


def run_all(seed, seconds, smoke):
    """Every workload in its own process; one table."""
    spec = contract()
    print(f"host: {json.dumps(fingerprint())}")
    status = 0
    for workload in spec["workloads"]:
        command = [sys.executable, str(HERE / "run.py"),
                   "--workload", workload["name"], "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"]
        if smoke:
            command.append("--smoke")
        proc = subprocess.run(command, cwd=ROOT, capture_output=True,
                              text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode or not lines:
            print(f"{workload['name']}: exit {proc.returncode}\n"
                  f"{proc.stderr}")
            status = 1
            continue
        doc = json.loads(lines[-1])
        print(f"\n{workload['name']}: correct={doc['correct']} "
              f"attempted={doc['attempted']} failed={doc['failed']}")
        for metric, value in doc["metrics"].items():
            print(f"  {metric:24s} {value['value']:14.6g} {value['unit']}")
        if not doc["correct"] or doc["failed"]:
            status = 1
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter
    )
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed seconds (default: run_seconds in "
                             "BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="seconds-scale inputs, all checks on")
    args = parser.parse_args(argv)
    bootstrap()
    seconds = args.seconds
    if seconds is None:
        seconds = contract()["run_seconds"]
    if args.workload is None:
        return run_all(args.seed, seconds, args.smoke)
    return run_workload(args.workload, args.seed, seconds, bool(args.trace),
                        args.smoke)


if __name__ == "__main__":
    sys.exit(main())
