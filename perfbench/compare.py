"""Repeat the benchmark and compare two checkouts.

Run-to-run spread of one checkout, one seed per run:

    python3 perfbench/compare.py spread [--root DIR] [--workloads W ...]
        [--seeds 1-10] [--trace 0|1] [--json FILE]

Parent against change, in PAIRS alternating pairs (the parent runs first
in even pairs, the change first in odd ones; pair i uses seed i), with
identical benchmark code (this directory's) and settings on both sides:

    python3 perfbench/compare.py pairs --parent DIR --change DIR
        [--workloads W ...] [--trace 0|1] [--json FILE]

For each workload and metric, ``pairs`` prints both sides' medians and
quartiles, the change's win share and a verdict of improved, unchanged,
worse or unresolved against the bounds in BENCHMARK.json (stats.verdict).
Per-layer metrics (``--trace 1``) have no bound; they are judged by the win
share alone. Run lengths come from BENCHMARK.json.
"""

import argparse
import json
import os
import subprocess
import sys

import stats

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")
PAIRS = 10


def benchmark_spec():
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(root, workload, seed, seconds, trace):
    """One benchmark invocation in root; returns its parsed last line."""
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=root, stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=900,
    )
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit("benchmark failed in %s (%s seed %d): %s"
                         % (root, workload, seed, proc.stderr.decode().strip()[-500:]))
    return json.loads(lines[-1])


def _seeds(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def _metric_spec(spec, trace):
    if trace:
        return [(m["name"], m["better"], None) for m in spec["per_layer"]]
    return [(m["name"], m["better"], m["bound"]) for m in spec["end_to_end"]]


def spread(args):
    spec = benchmark_spec()
    report = {}
    for workload in args.workloads:
        results = []
        for seed in _seeds(args.seeds):
            r = run_once(args.root, workload, seed, spec["run_seconds"], args.trace)
            results.append(r)
            print("%s seed %d: %s" % (workload, seed, json.dumps(
                {k: v["value"] for k, v in r["metrics"].items()})), flush=True)
        rows = {}
        for name, _, bound in _metric_spec(spec, args.trace):
            values = [r["metrics"][name]["value"] for r in results]
            med, q1, q3 = stats.summary(values)
            share = (q3 - q1) / abs(med) if med else 0.0
            rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": share,
                          "bound": bound, "values": values}
            print("  %-40s median %-12.6g spread %.4f%s" % (
                name, med, share, "" if bound is None else " (bound %.2f)" % bound))
        report[workload] = {
            "metrics": rows,
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "correct": all(r["correct"] for r in results),
        }
        print("  runs attempted %d, failed %d" % (report[workload]["attempted"],
                                                 report[workload]["failed"]), flush=True)
    return report


def pairs(args):
    spec = benchmark_spec()
    report = {}
    for workload in args.workloads:
        sides = {"parent": [], "change": []}
        for seed in range(PAIRS):
            order = ("parent", "change") if seed % 2 == 0 else ("change", "parent")
            for side in order:
                root = args.parent if side == "parent" else args.change
                sides[side].append(run_once(root, workload, seed, spec["run_seconds"],
                                            args.trace))
            print("%s pair %d done" % (workload, seed), flush=True)
        rows = {}
        print("%s: parent %d/%d runs failed, change %d/%d" % (
            workload,
            sum(r["failed"] for r in sides["parent"]),
            sum(r["attempted"] for r in sides["parent"]),
            sum(r["failed"] for r in sides["change"]),
            sum(r["attempted"] for r in sides["change"])))
        for name, better, bound in _metric_spec(spec, args.trace):
            p = [r["metrics"][name]["value"] for r in sides["parent"]]
            c = [r["metrics"][name]["value"] for r in sides["change"]]
            verdict, details = stats.verdict(p, c, better, bound)
            rows[name] = dict(details, verdict=verdict)
            print("  %-40s parent %-11.5g [%.5g, %.5g]  change %-11.5g [%.5g, %.5g]"
                  "  wins %3.0f%%  %+6.1f%%  %s" % (
                      name, details["parent"]["median"], details["parent"]["q1"],
                      details["parent"]["q3"], details["change"]["median"],
                      details["change"]["q1"], details["change"]["q3"],
                      100 * details["win_share"], 100 * details["change_share"], verdict))
        report[workload] = {
            "metrics": rows,
            "failed": {s: sum(r["failed"] for r in v) for s, v in sides.items()},
            "attempted": {s: sum(r["attempted"] for r in v) for s, v in sides.items()},
        }
    return report


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = p.add_subparsers(dest="command", required=True)
    workloads = [w["name"] for w in benchmark_spec()["workloads"]]
    for name in ("spread", "pairs"):
        s = sub.add_parser(name)
        s.add_argument("--workloads", nargs="+", default=workloads, choices=workloads)
        s.add_argument("--trace", type=int, choices=(0, 1), default=0)
        s.add_argument("--json", help="also write the report here")
    sub.choices["spread"].add_argument("--root", default=os.getcwd())
    sub.choices["spread"].add_argument("--seeds", default="1-10")
    sub.choices["pairs"].add_argument("--parent", required=True)
    sub.choices["pairs"].add_argument("--change", required=True)
    args = p.parse_args(argv)
    report = spread(args) if args.command == "spread" else pairs(args)
    if args.json:
        with open(args.json, "w") as f:
            json.dump(report, f, indent=2, sort_keys=True)
            f.write("\n")
    if args.command == "pairs":
        failing = [w for w, r in report.items() if r["failed"]["change"]]
        if failing:
            print("change fails the output checks on %s" % ", ".join(failing))
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
