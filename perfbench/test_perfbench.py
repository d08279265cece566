"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q

The reference computations are checked against the row engine
(``engine="row"``), the paper-faithful oracle, on small seeds; every
workload runs end to end at its smoke size with all output checks on.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import run

run.bootstrap()

import loads  # noqa: E402
import reference  # noqa: E402
from repro import Dataset, LatePolicy, generate_cloudlog  # noqa: E402
from repro.engine.disordered import DisorderedStreamable  # noqa: E402
from repro.serve.protocol import parse_query_spec  # noqa: E402
from tracing import Tracer  # noqa: E402


def _row_rows(plan, dataset, every, latency):
    result = plan.run(dataset, every, latency, engine="row")
    assert result.engine == "row"
    return reference.event_rows(result.events)


@pytest.mark.parametrize("seed", [3, 11])
def test_raise_reference_matches_row_engine(seed):
    dataset = generate_cloudlog(3000, n_bursts=0, seed=seed)
    ts = np.asarray(dataset.timestamps)
    latency = reference.max_lateness(ts) + 1
    positions, stamps = reference.ingress_punctuations(ts, 256, latency)
    late = reference.late_mask(ts, loads.WINDOW, positions, stamps)
    assert not late.any()
    expected = reference.windowed_groups(
        ts, dataset.keys, loads.WINDOW, late,
        [p[0] for p in dataset.payloads],
    )
    plan = loads._grouped_sum_plan(LatePolicy.RAISE)
    assert _row_rows(plan, dataset, 256, latency) == expected


@pytest.mark.parametrize("seed,latency", [(5, 300), (8, 1500)])
def test_drop_reference_matches_row_engine(seed, latency):
    dataset = generate_cloudlog(5000, seed=seed)
    ts = np.asarray(dataset.timestamps)
    positions, stamps = reference.ingress_punctuations(ts, 250, latency)
    late = reference.late_mask(ts, loads.WINDOW, positions, stamps)
    assert late.any(), "the input should exercise the late path"
    expected = reference.windowed_groups(
        ts, dataset.keys, loads.WINDOW, late,
        [p[0] for p in dataset.payloads],
    )
    plan = loads._grouped_sum_plan(LatePolicy.DROP)
    assert _row_rows(plan, dataset, 250, latency) == expected
    compiled = plan.run(dataset, 250, latency, engine="columnar")
    dropped = compiled.snapshot().operator("sort")["late"]["dropped"]
    assert dropped == int(late.sum())


def test_parallel_reference_matches_row_engine():
    workload = loads.ParallelWorkload(seed=4, size=6000, batch=500)
    workload.setup(Tracer())
    workload.prepare()
    ts, keys, values = workload.arrays
    dataset = Dataset(
        "arrays", ts.tolist(), [(v,) for v in values.tolist()],
        keys.tolist(),
    )
    plan = loads._grouped_sum_plan(LatePolicy.DROP)
    row = _row_rows(plan, dataset, 500, loads.DROP_LATENCY)
    assert sorted(row) == workload.expected
    result = workload.op()
    workload.check(result)


def test_serve_reference_matches_row_engine():
    workload = loads.ServeWorkload(seed=6, round_events=200, max_rounds=30,
                                   workdir=None)
    workload.generate()
    elements = []
    for _ in range(30):
        elements.extend(workload.next_round())
    assert workload.punct_stamps, "the rounds should punctuate"
    plan = parse_query_spec(loads.SERVE_SPEC)
    collector = plan.bind(DisorderedStreamable.from_elements(elements))
    row = reference.event_rows(collector.collect().events)
    assert row == workload.expected()


def test_tracer_self_time_excludes_children():
    tracer = Tracer()
    tracer.begin("outer", start=0.0)
    tracer.add("inner", 1.0, 3.0)
    tracer.add("inner", 4.0, 5.0)
    tracer.end(end=10.0)
    spans = tracer.durations()
    assert spans["outer"] == (10.0, 7.0)
    assert spans["inner"] == (3.0, 3.0)


def _bench(*args, cwd=run.ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload", [
    w["name"] for w in run.contract()["workloads"]
])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_reports_every_metric(workload, trace):
    proc = _bench("--workload", workload, "--seed", "2", "--seconds", "1",
                  "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] is True
    assert doc["failed"] == 0 and doc["attempted"] >= run.MIN_OPS
    kind = "per_layer" if trace == "1" else "end_to_end"
    wanted = run.contract()[kind]
    assert set(doc["metrics"]) == {m["name"] for m in wanted}
    if trace == "0":
        assert all(m["value"] > 0 for m in doc["metrics"].values())


def _session_members(sid):
    """Processes, zombies included, whose session id is ``sid``."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[3]) == sid:
            members.append(int(entry))
    return members


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs procfs")
@pytest.mark.parametrize("workload", ["batches-parallel", "serve-rounds"])
def test_leaves_no_process_behind(workload):
    # A session of its own: whatever the run starts stays in it, even
    # after the run has exited and its children were re-parented.
    proc = subprocess.Popen(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
         "--seed", "2", "--seconds", "1", "--trace", "0", "--smoke"],
        cwd=run.ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        start_new_session=True,
    )
    assert proc.wait(timeout=170) == 0
    assert _session_members(proc.pid) == []


def test_fails_without_program_source(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    started = time.monotonic()
    proc = _bench("--workload", "dataset-raise", "--seed", "1",
                  "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
    assert time.monotonic() - started < 180
