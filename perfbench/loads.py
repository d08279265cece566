"""The four benchmark workloads: seeded inputs, one operation, output checks.

Every workload has the same shape, which ``run.py`` drives:

``setup(tracer)``
    What a user pays once before the first event is processed: build the
    program's input container through its public constructors, compile
    the plan, start the server and subscribe.  Timed as ``setup_s``.
``prepare()``
    Untimed: the reference result the outputs are checked against.
``op(tracer)``
    One operation: a whole pass for the batch workloads, one round for
    serve-rounds.  Timed.
``check(output)``
    Untimed: raises :class:`CheckFailed` when the output is wrong.
``counters(output)``
    Per-operation counters the program exports, for the traced run.
``finish(tracer)``
    Final checks and teardown; returns run-level counters.

Inputs depend only on the seed and the size; the program receives only
the generated inputs.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import tempfile
import time

import numpy as np

from repro import LatePolicy, QueryPlan, generate_cloudlog
from repro.core.columnar import ColumnarImpatienceSorter
from repro.engine.batch import EventBatch
from repro.engine.compiler import compile_plan
from repro.engine.event import Event, Punctuation
from repro.engine.kernels import GroupedWindowKernel, field
from repro.engine.operators.aggregates import Sum
from repro.parallel import CompiledShardPlan, run_parallel
from repro.serve.client import ServeClient
from repro.sorting.external import ExternalColumnarSorter
from repro.workloads.cloudlog import cloudlog_arrays

import reference

WINDOW = 1000          # tumbling window, in event-time ticks (ms)
PUNCT_EVERY = 8192     # dataset ingress punctuation frequency (events)
DROP_LATENCY = 8000    # reorder latency of the DROP workloads (ms)
SPILL_BUDGET = 256 << 10   # bytes; below the DROP sorter's resident need
PARALLEL_BATCH = 65536
PARALLEL_RING = 1 << 23
SERVE_WINDOW = 5000
SERVE_KEYS = 16        # keeps the standing query's output small
SERVE_LATENCY = 2000
SERVE_SPEC = f"window={SERVE_WINDOW}|sort=drop|group-count"


class CheckFailed(Exception):
    """The program's output disagrees with the reference or a property."""


def nproc():
    return len(os.sched_getaffinity(0))


def _require(condition, message):
    if not condition:
        raise CheckFailed(message)


def _check_order(events, stamps):
    """Output events ordered by sync time; punctuation timestamps
    increasing."""
    syncs = [event.sync_time for event in events]
    _require(all(a <= b for a, b in zip(syncs, syncs[1:])),
             "output is not ordered by sync time")
    _require(all(a < b for a, b in zip(stamps, stamps[1:])),
             "punctuations are not increasing")


def _grouped_sum_plan(policy):
    return (
        QueryPlan().tumbling_window(WINDOW).sort(late_policy=policy)
        .group_aggregate(Sum(field(0)))
    )


class _BatchWorkload:
    """A batch workload: an operation is one whole pass over the input,
    and the program starts no process that outlives it."""

    unit = "pass"

    def remaining(self):
        return True

    def live_cpu(self):
        return 0.0

    def finish(self, tracer=None):
        self.teardown()
        return {}


class DatasetWorkload(_BatchWorkload):
    """``QueryPlan.run(dataset, engine="auto")`` of a tumbling-window
    grouped sum over a cloudlog :class:`Dataset`."""

    def __init__(self, seed, size, policy, bursts, budget):
        self.seed = seed
        self.size = size
        self.policy = policy
        self.bursts = bursts
        self.budget = budget
        self.events_per_op = size
        self.dataset = None

    def setup(self, tracer):
        with tracer.span("workloads.generate"):
            self.dataset = generate_cloudlog(
                self.size, n_bursts=self.bursts, seed=self.seed
            )
        self.plan = _grouped_sum_plan(self.policy)
        with tracer.span("compiler.compile"):
            compile_plan(self.plan)

    def teardown(self):
        self.dataset = None

    def prepare(self):
        ts = np.asarray(self.dataset.timestamps, dtype=np.int64)
        if self.policy is LatePolicy.RAISE:
            # One tick above the largest lateness: no event can be late,
            # so RAISE never fires.
            self.latency = reference.max_lateness(ts) + 1
        else:
            self.latency = DROP_LATENCY
        positions, values = reference.ingress_punctuations(
            ts, PUNCT_EVERY, self.latency
        )
        late = reference.late_mask(ts, WINDOW, positions, values)
        self.expected_dropped = int(late.sum())
        _require(
            self.policy is not LatePolicy.RAISE or not self.expected_dropped,
            "the RAISE input has late events",
        )
        self.expected = reference.windowed_groups(
            ts, self.dataset.keys, WINDOW, late,
            [payload[0] for payload in self.dataset.payloads],
        )

    def patches(self, tracer):
        for method, label in (("insert_batch", "insert"),
                              ("on_punctuation", "punctuation"),
                              ("flush", "flush")):
            tracer.patch(ColumnarImpatienceSorter, method, f"columnar.{label}")
            tracer.patch(ExternalColumnarSorter, method, f"external.{label}")
        for method in ("accumulate", "close", "forward"):
            tracer.patch(GroupedWindowKernel, method, "kernels.aggregate")

    def op(self, tracer=None):
        if tracer is None:
            return self._run()
        with tracer.span("compiler.run"):
            return self._run()

    def _run(self):
        return self.plan.run(
            self.dataset, PUNCT_EVERY, self.latency, engine="auto",
            memory_budget=self.budget,
        )

    def check(self, result):
        _require(result.engine == "columnar",
                 f"the plan fell back to the row engine: {result.reason}")
        _check_order(result.events, result.punctuations)
        _require(reference.event_rows(result.events) == self.expected,
                 "windowed sums differ from the reference")
        _require(self._sort_doc(result)["late"]["dropped"]
                 == self.expected_dropped,
                 "dropped count differs from the reference")
        if self.budget is not None:
            spill = result.spill
            _require(spill["bytes_written"] > 0, "the sorter did not spill")
            _require(spill["peak_buffered_bytes"] <= self.budget,
                     "resident bytes exceeded the memory budget")

    @staticmethod
    def _sort_doc(result):
        return result.snapshot().operator("sort")

    def counters(self, result):
        doc = self._sort_doc(result)
        out = {"late.dropped": doc["late"]["dropped"]}
        if self.budget is None:
            stats = doc["sorter"]
            for name in ("binary_searches", "runs_created", "merge_events",
                         "max_buffered"):
                out[f"columnar.{name}"] = stats[name]
        else:
            for name in ("bytes_written", "bytes_read", "blocks_written",
                         "spills", "max_merge_fan_in",
                         "peak_buffered_bytes"):
                out[f"external.{name}"] = result.spill[name]
        return out


class ParallelWorkload(_BatchWorkload):
    """``run_parallel`` over a pre-built list of ``EventBatch`` blocks and
    punctuations, with a compiled DROP grouped sum on ``nproc`` workers."""

    def __init__(self, seed, size, batch=PARALLEL_BATCH):
        self.seed = seed
        self.size = size
        self.batch = batch
        self.events_per_op = size
        self.workers = nproc()
        self.elements = None

    def setup(self, tracer):
        with tracer.span("workloads.generate"):
            ts, keys, rng = cloudlog_arrays(self.size, seed=self.seed)
            values = rng.integers(0, 2**31 - 1, size=self.size,
                                  dtype=np.int64)
        self.arrays = (ts, keys, values)
        positions, stamps = reference.ingress_punctuations(
            ts, self.batch, DROP_LATENCY
        )
        puncts = dict(zip(positions.tolist(), stamps.tolist()))
        elements = []
        for start in range(0, self.size, self.batch):
            stop = min(start + self.batch, self.size)
            chunk = ts[start:stop]
            elements.append(EventBatch(
                chunk, chunk + 1, keys[start:stop], [values[start:stop]]
            ))
            if stop in puncts:
                elements.append(Punctuation(puncts[stop]))
        elements.append(Punctuation(int(ts.max())))
        self.elements = elements
        self.positions, self.stamps = positions, stamps
        with tracer.span("compiler.compile"):
            self.plan = CompiledShardPlan(_grouped_sum_plan(LatePolicy.DROP))

    def teardown(self):
        self.elements = None

    def prepare(self):
        ts, keys, values = self.arrays
        late = reference.late_mask(ts, WINDOW, self.positions, self.stamps)
        self.expected_dropped = int(late.sum())
        self.expected = sorted(
            reference.windowed_groups(ts, keys, WINDOW, late, values)
        )

    def patches(self, tracer):
        pass  # timed from outside, through the ingress iterator

    def op(self, tracer=None):
        if tracer is None:
            return self._run(iter(self.elements))
        tracer.begin("parallel.run")
        try:
            called = time.perf_counter()
            pulls = []
            result = self._run(self._traced_ingress(tracer, called, pulls))
            tracer.add("parallel.finish", pulls[-1], time.perf_counter())
        finally:
            tracer.end()
        return result

    def _run(self, ingress):
        return run_parallel(
            ingress, self.plan, self.workers,
            batch_size=self.batch, ring_capacity=PARALLEL_RING,
        )

    def _traced_ingress(self, tracer, called, pulls):
        """Yield the elements, timing the runtime between pulls: from the
        call to the first pull (spawn), and after each batch (route) or
        punctuation (round) until the runtime asks for the next one."""
        for index, element in enumerate(self.elements):
            handed = time.perf_counter()
            if index == 0:
                tracer.add("parallel.spawn", called, handed)
            yield element
            back = time.perf_counter()
            kind = "route" if isinstance(element, EventBatch) else "round"
            tracer.add(f"parallel.{kind}", handed, back)
        pulls.append(time.perf_counter())

    def check(self, result):
        _check_order(result.events, result.punctuations)
        _require(sorted(reference.event_rows(result.events))
                 == self.expected,
                 "parallel output multiset differs from the reference")
        dropped = sum(s["late_dropped"] for s in result.parallel["shards"])
        _require(dropped == self.expected_dropped,
                 "dropped count differs from the reference")

    def counters(self, result):
        doc = result.parallel
        shards = doc["shards"]
        received = [s["events_in"] for s in shards]
        out = {
            f"parallel.{name}": doc[name]
            for name in ("rounds", "fast_merge_rounds", "frames_sent",
                         "frames_received")
        }
        out["parallel.worker_cpu_s"] = sum(s["cpu_s"] for s in shards)
        out["parallel.worker_wall_s"] = sum(s["wall_s"] for s in shards)
        out["parallel.ring_stall_s"] = sum(
            s["ring_wait"]["stall_s"] for s in shards
        )
        out["parallel.ring_spins"] = sum(
            s["ring_wait"]["spins"] for s in shards
        )
        out["parallel.ring_parks"] = sum(
            s["ring_wait"]["parks"] for s in shards
        )
        out["parallel.shard_skew"] = max(received) / (
            sum(received) / len(received)
        )
        return out


_READY = re.compile(r"serving on ([\d.]+):(\d+) ")


def _process_cpu(pid):
    """User plus system CPU seconds of a live process, from procfs."""
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


class ServeWorkload:
    """``repro serve`` as a child process on loopback, driven in a closed
    loop by one :class:`ServeClient`: each round hands ``round_events``
    events and a punctuation to ``send_until`` and waits for the ``IOFF``
    ack.  One standing windowed group-count query runs throughout."""

    unit = "round"

    def __init__(self, seed, round_events, max_rounds, workdir):
        self.seed = seed
        self.round_events = round_events
        self.max_rounds = max_rounds
        self.workdir = workdir
        self.events_per_op = round_events
        self.proc = None
        self.client = None

    def setup(self, tracer):
        self.data_dir = tempfile.mkdtemp(prefix="serve-", dir=self.workdir)
        self.stderr = open(os.path.join(self.data_dir, "server.err"), "w")
        src = os.path.dirname(os.path.dirname(sys.modules["repro"].__file__))
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve",
             "--data-dir", self.data_dir],
            stdout=subprocess.PIPE, stderr=self.stderr, text=True,
            env=dict(os.environ, PYTHONPATH=src),
        )
        match = _READY.match(self.proc.stdout.readline())
        if match is None:
            self.teardown()
            raise RuntimeError("repro serve did not report its port")
        with tracer.span("workloads.generate"):
            self.generate()
        self.client = ServeClient(match.group(1), int(match.group(2)),
                                  "bench")
        self.client.subscribe("q", SERVE_SPEC)

    def generate(self):
        """The seeded event arrays, and no round sent yet."""
        n = self.round_events * self.max_rounds
        ts, keys, rng = cloudlog_arrays(n, seed=self.seed, n_keys=SERVE_KEYS)
        self.arrays = (ts, keys, rng.integers(0, 1 << 16, size=n))
        self.sent_events = 0
        self.sent_elements = 0
        self.high = None
        self.last_punct = None
        self.punct_positions = []
        self.punct_stamps = []

    def teardown(self):
        if self.client is not None:
            self.client.close()
            self.client = None
        if self.proc is not None:
            if self.proc.poll() is None:
                self.proc.send_signal(signal.SIGTERM)
                try:
                    self.proc.wait(timeout=15)
                except subprocess.TimeoutExpired:
                    self.proc.kill()
                    self.proc.wait()
            self.proc.stdout.close()
            self.stderr.close()
            self.proc = None

    def prepare(self):
        pass  # the reference covers exactly the rounds sent; see finish()

    def patches(self, tracer):
        pass  # timed from outside: client calls and process CPU

    def next_round(self):
        """Take the next round's elements: its events and a punctuation."""
        ts, keys, payload = self.arrays
        start = self.sent_events
        stop = start + self.round_events
        elements = [
            Event(t, t + 1, k, (p,))
            for t, k, p in zip(ts[start:stop].tolist(),
                               keys[start:stop].tolist(),
                               payload[start:stop].tolist())
        ]
        top = int(ts[start:stop].max())
        self.high = top if self.high is None else max(self.high, top)
        candidate = self.high - SERVE_LATENCY
        if self.last_punct is None or candidate > self.last_punct:
            self.last_punct = candidate
            self.punct_positions.append(stop)
            self.punct_stamps.append(candidate)
        # A round always ends in a punctuation; one that would not
        # advance repeats the last promise, which is never late.
        elements.append(Punctuation(self.last_punct))
        self.sent_events = stop
        self.sent_elements += len(elements)
        return elements

    def remaining(self):
        return self.sent_events + self.round_events <= self.arrays[0].size

    def op(self, tracer=None):
        # Built outside the caller's timing: only the send is timed.
        self.client.feed(self.next_round())
        target = self.sent_elements
        if tracer is None:
            return target, self.client.send_until(target)
        client0 = time.process_time()
        server0 = _process_cpu(self.proc.pid)
        with tracer.span("serve.round"):
            ioff = self.client.send_until(target)
        tracer.count("serve.server_cpu_s", _process_cpu(self.proc.pid)
                     - server0)
        tracer.count("serve.client_cpu_s", time.process_time() - client0)
        return target, ioff

    def check(self, output):
        target, ioff = output
        _require(ioff == target,
                 f"IOFF {ioff} differs from the {target} offsets sent")

    def counters(self, output):
        return {}

    def live_cpu(self):
        return _process_cpu(self.proc.pid)

    def expected(self):
        """Reference group counts over the events sent so far."""
        ts, keys, _ = self.arrays
        n = self.sent_events
        late = reference.late_mask(
            ts[:n], SERVE_WINDOW,
            np.asarray(self.punct_positions, dtype=np.int64),
            np.asarray(self.punct_stamps, dtype=np.int64),
        )
        return reference.windowed_groups(ts[:n], keys[:n], SERVE_WINDOW, late)

    def finish(self, tracer=None):
        try:
            return self._collect(tracer)
        finally:
            self.teardown()

    def _collect(self, tracer):
        client = self.client
        client.finish()
        started = time.perf_counter()
        results = client.await_complete("q")
        collect_s = time.perf_counter() - started
        snapshot = client.snapshot()["serve"]["tenants"]["bench"]
        journal = os.path.join(self.data_dir, "journal-bench.jsonl")
        journal_bytes = os.path.getsize(journal)

        events = [e for e in results if isinstance(e, Event)]
        _check_order(events, [
            e.timestamp for e in results if isinstance(e, Punctuation)
        ])
        _require(reference.event_rows(events) == self.expected(),
                 "standing-query results differ from the reference")
        counters = snapshot["counters"]
        lag = snapshot["queries"]["q"]["lag"]
        return {
            "serve.collect_s": collect_s,
            "serve.journal_bytes_per_event":
                journal_bytes / self.sent_events,
            "serve.duplicates": counters["duplicates"],
            "serve.quarantined": counters["quarantined"],
            "serve.evictions": counters["evictions"],
            "serve.delivery_lag_mean_ms": lag["mean"],
            "serve.delivery_lag_p95_ms": lag["p95"],
        }
