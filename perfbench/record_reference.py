"""Record reference.json: per input set, the random-stream fingerprints and
each workload's headline values, from one untimed run of the checkout in the
current directory.

    python3 perfbench/record_reference.py

Record it once, at the commit that defines the benchmark; later runs are
checked against it (checks.py), so a later commit that changes a stream or
moves a headline value beyond its tolerance fails the benchmark.
"""

import json
import os
import shutil
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor

import checks
import inputs
import run

RECORD_JOBS = 2  # input sets recorded at once, each one process at a time


def record_seed(root, seed):
    fingerprints, headline = None, {}
    for workload in inputs.WORKLOADS:
        tmp = tempfile.mkdtemp(prefix=".perfbench-", dir=root)
        try:
            bench = run.Bench(workload, seed, 0, 0, root, tmp, reference=None)
            bench.prepare_inputs()
            if fingerprints is None:
                fingerprints = bench.need({"mode": "setup", "fingerprint": True})["fingerprints"]
            _, problems = bench.one_run(0, False)
            if problems:
                raise SystemExit("%s seed %d: %s" % (workload, seed, "; ".join(problems)))
            headline[workload] = bench.headline
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
    return seed, fingerprints, headline


def main():
    root = os.getcwd()
    ref = {
        "tolerances": {
            "synth-sweep": "abs %g on each grid cell's trial-mean metric" % checks.SYNTH_TOL,
            "conv-train": "abs %g (one test row) on per-class accuracy; relative %g on "
                          "each member's per-epoch mean loss; abs %g on each member's "
                          "per-layer parameter sketch"
                          % (checks.CONV_ACC_TOL, checks.CONV_LOSS_RTOL, checks.CONV_PARAM_TOL),
            "ova-judge": "abs %d rows on each verdict count; abs %g on each member's "
                         "score mean and score sketch"
                         % (checks.JUDGE_COUNT_TOL, checks.JUDGE_SCORE_TOL),
            "fingerprints": "exact",
        },
        "fingerprints": {},
        "headline": {w: {} for w in inputs.WORKLOADS},
    }
    seeds = range(inputs.INPUT_SETS)
    with ThreadPoolExecutor(RECORD_JOBS) as pool:
        for seed, fingerprints, headline in pool.map(lambda s: record_seed(root, s), seeds):
            ref["fingerprints"][str(seed)] = fingerprints
            for workload, values in headline.items():
                ref["headline"][workload][str(seed)] = values
            print("input set %d recorded" % seed, file=sys.stderr, flush=True)
    with open(checks.REFERENCE_PATH, "w") as f:
        json.dump(ref, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
