"""Steadiness check: do two sets of runs of one commit agree?

    python3 perfbench/steady.py [--runs 5] [--workloads a,b] [--seconds S]

Runs two sets of every workload, ``--runs`` runs each, every run with its
own seed (set A takes the even seeds from ``--first-seed``, set B the odd
ones).  Within each step the order alternates: the two sets swap which
goes first, and the workloads run forwards and then backwards.  For each
end-to-end metric it prints each set's median and quartiles, the spread
(quartile distance over median), and whether the sets agree within the
bound in ``BENCHMARK.json``:

* each set's spread is within the bound (``setup_s`` excepted);
* set B's median is not worse than set A's by more than the bound;
* both sets fail the same share of their operations.

The spreads these runs show are what the bounds were set from.  Every
result is also written to ``.perfbench_work/steady.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def one_run(workload, seed, seconds):
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--trace", "0"]
    if seconds is not None:
        command += ["--seconds", str(seconds)]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        raise RuntimeError(
            f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}"
        )
    return json.loads(lines[-1])


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median}


def worse_by(first, second, better):
    """How much worse ``second`` is than ``first``, as a share of it."""
    change = (second - first) / first
    return -change if better == "higher" else change


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter
    )
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--workloads", default=None,
                        help="comma-separated subset (default: all)")
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--first-seed", type=int, default=100)
    args = parser.parse_args(argv)
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    names = (args.workloads.split(",") if args.workloads
             else [w["name"] for w in spec["workloads"]])
    runs = {(name, s): [] for name in names for s in "AB"}
    seed = args.first_seed
    for step in range(args.runs):
        order = names if step % 2 == 0 else names[::-1]
        sets = "AB" if step % 2 == 0 else "BA"
        for name in order:
            for label in sets:
                result = one_run(name, seed + (label == "B"), args.seconds)
                runs[name, label].append(result)
                print(f"{name} set {label} seed {seed + (label == 'B')}: "
                      f"correct={result['correct']} "
                      f"failed={result['failed']}/{result['attempted']}",
                      flush=True)
        seed += 2

    agree = True
    report = {}
    for name in names:
        print(f"\n{name}")
        shares = {
            label: [r["failed"] / r["attempted"] for r in runs[name, label]]
            for label in "AB"
        }
        if shares["A"] != shares["B"] or len(set(shares["A"])) > 1:
            agree = False
            print(f"  failed shares differ: {shares}")
        if not all(r["correct"] for s in "AB" for r in runs[name, s]):
            agree = False
            print("  a run reported wrong output")
        report[name] = {}
        for metric in spec["end_to_end"]:
            metric_name, bound = metric["name"], metric["bound"]
            sets = {
                label: summary([r["metrics"][metric_name]["value"]
                                for r in runs[name, label]])
                for label in "AB"
            }
            pooled = summary([r["metrics"][metric_name]["value"]
                              for s in "AB" for r in runs[name, s]])
            drift = worse_by(sets["A"]["median"], sets["B"]["median"],
                             metric["better"])
            ok = drift <= bound and (metric_name == "setup_s" or all(
                sets[label]["spread"] <= bound for label in "AB"
            ))
            agree = agree and ok
            report[name][metric_name] = {
                "A": sets["A"], "B": sets["B"], "pooled": pooled,
                "B_worse_by": drift, "bound": bound, "agree": ok,
            }
            print(
                f"  {metric_name:20s} "
                + "  ".join(
                    f"{label}: {sets[label]['median']:.5g} "
                    f"[{sets[label]['q1']:.5g}, {sets[label]['q3']:.5g}] "
                    f"spread {sets[label]['spread']:.3f}"
                    for label in "AB"
                )
                + f"  pooled spread {pooled['spread']:.3f}"
                f"  B worse by {drift:+.3f}  bound {bound}"
                f"  {'ok' if ok else 'DISAGREE'}"
            )
    out = ROOT / ".perfbench_work" / "steady.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"runs": {f"{n}/{s}": r for (n, s), r
                                        in runs.items()},
                               "report": report}, indent=1) + "\n")
    print(f"\n{'sets agree' if agree else 'sets DISAGREE'}; "
          f"details in {out.relative_to(ROOT)}")
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
