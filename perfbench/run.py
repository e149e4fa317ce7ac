"""tinynn benchmark: one workload, closed loop, one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a tinynn checkout; the program is imported from its
``src``. The benchmark generates the workload's inputs from the seed (input
set seed mod inputs.INPUT_SETS, each with a recorded reference) under a
temporary directory inside the checkout (removed on exit), then runs one
experiment at a time, each in a fresh interpreter, for S seconds (``--jobs
1``: no fork pool). Every run's outputs are checked (see checks.py).

With ``--trace 0`` it prints the end-to-end metrics, medians over the runs;
with ``--trace 1`` it alternates untraced and traced runs and prints the
per-layer metrics from the traced ones. The last line of standard output is
one JSON object: correct, attempted, failed and metrics.

The BLAS thread count is fixed at 1 so that one process x threads fits the
two cores of the reference machine without the benchmark measuring the
scheduler.
"""

import os

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
import tracing  # noqa: E402
from stats import summary  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))

END_TO_END = [
    ("run_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("rows_per_s", "rows/s", "higher"),
    ("cpu_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]

# setup_s: fresh interpreters timed before each run, plus one at the start;
# the median is reported. Spread over the window like the runs, the samples
# see the same mix of the machine's fast and slow phases.
SETUP_PER_RUN = 2
MIN_RUNS = 3  # untraced runs; a traced invocation makes at least 2 of each kind
HARD_LIMIT_S = 170.0  # the whole invocation, set-up included


class BenchError(Exception):
    """A job the benchmark needs (not a measured run) failed."""


def environment():
    """Python, numpy and BLAS versions, BLAS threads, CPUs and CPU model."""
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    model = ""
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": "%s %s" % (blas.get("name", "?"), blas.get("version", "?")),
        "blas_threads": int(BLAS_THREADS),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
    }


class Bench:
    """One invocation. seed is the input set; reference is the recorded
    reference to check against, or None when recording it."""

    def __init__(self, workload, seed, seconds, trace, root, tmp, reference):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.root = root
        self.tmp = tmp
        self.src = os.path.join(root, "src")
        self.deadline = time.monotonic() + HARD_LIMIT_S
        self.env = dict(os.environ, PYTHONPATH=self.src)
        self.reference = reference
        self.jobs = 0
        self.inputs = {}
        self.first_hashes = None  # output hashes of the first good run
        self.headline = None
        self.fingerprints = None
        self.absent = []

    # -- child processes ----------------------------------------------------

    def child(self, job):
        """Run one job in a fresh interpreter; returns (exit code, result)."""
        self.jobs += 1
        tag = "%s-%d" % (job["mode"], self.jobs)
        job = dict(job, workload=self.workload, seed=self.seed, src=self.src,
                   inputs=self.inputs, result=os.path.join(self.tmp, tag + ".json"))
        job_path = os.path.join(self.tmp, tag + ".job")
        with open(job_path, "w") as f:
            json.dump(job, f)
        timeout = max(1.0, self.deadline - time.monotonic())
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "child.py"), job_path],
                cwd=self.root, env=self.env, stdout=subprocess.PIPE,
                stderr=subprocess.PIPE, timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            return None, {"error": "timed out after %.0f s" % timeout}
        if proc.returncode != 0 or not os.path.exists(job["result"]):
            tail = proc.stderr.decode(errors="replace").strip().splitlines()[-3:]
            return proc.returncode, {"error": " | ".join(tail)}
        with open(job["result"]) as f:
            return 0, json.load(f)

    def need(self, job):
        rc, result = self.child(job)
        if rc != 0:
            raise BenchError("%s job failed: %s" % (job["mode"], result.get("error")))
        return result

    # -- phases ---------------------------------------------------------------

    def prepare_inputs(self):
        d = os.path.join(self.tmp, "inputs")
        os.makedirs(d)
        if self.workload == "synth-sweep":
            self.inputs["config"] = os.path.join(d, "synth.ini")
            inputs.write_synth_config(self.inputs["config"], self.seed)
            return
        split = inputs.conv_train_split if self.workload == "conv-train" else inputs.judge_split
        self.inputs["mnist_dir"] = os.path.join(d, "mnist")
        inputs.write_mnist_dir(self.inputs["mnist_dir"], *split(self.seed))
        if self.workload == "conv-train":
            self.inputs["hidden"] = inputs.CONV_HIDDEN
        else:
            self.inputs["hidden"] = inputs.JUDGE_HIDDEN
            self.inputs["ensemble_dir"] = os.path.join(d, "ensemble")
            self.need({"mode": "prepare"})

    def check_streams(self):
        """One setup_s sample, and the stream fingerprint problems (if any)."""
        result = self.need({"mode": "setup", "fingerprint": True})
        self.fingerprints = result["fingerprints"]
        problems = []
        if self.reference is not None:
            ref = self.reference["fingerprints"].get(str(self.seed))
            if ref is None:
                problems.append("no fingerprints recorded for input set %d" % self.seed)
            elif ref != self.fingerprints:
                problems.append("random-stream fingerprints differ from the reference")
        return result["setup_s"], problems

    def argv(self, out):
        if self.workload == "synth-sweep":
            return ["--config", self.inputs["config"], "--out", out]
        return inputs.conv_train_argv(self.inputs["mnist_dir"], self.seed, out)

    def compare_headline(self):
        if self.reference is None:
            return []
        ref = self.reference["headline"].get(self.workload, {}).get(str(self.seed))
        if ref is None:
            return ["no headline recorded for input set %d" % self.seed]
        return checks.compare_headline(self.workload, self.headline, ref)

    def one_run(self, index, traced):
        """Run one experiment; returns (result, problems)."""
        out = os.path.join(self.tmp, "run-%d" % index)
        job = {"mode": "run", "trace": traced, "run_id": index, "out": out,
               "argv": self.argv(out), "spans": os.path.join(self.tmp, "spans-%d.json" % index)}
        rc, result = self.child(job)
        problems = []
        if rc != 0:
            problems.append("child failed: %s" % result.get("error"))
        elif result["rc"] != 0:
            problems.append("program exited with code %r" % result["rc"])
        else:
            run_dir, hashes, found = checks.run_outputs(self.workload, out)
            problems += found
            if self.first_hashes is None:
                self.first_hashes = hashes
            elif hashes != self.first_hashes:
                problems.append("output hashes differ from the first run of this seed")
            if run_dir is not None and not found:
                self.headline = checks.headline(self.workload, run_dir)
                problems += self.compare_headline()
        if traced and rc == 0:
            with open(job["spans"]) as f:
                result["layers"] = tracing.layer_metrics(json.load(f), result["import_s"])
        shutil.rmtree(out, ignore_errors=True)
        return result, problems

    def execute(self):
        self.prepare_inputs()
        first_setup, stream_problems = self.check_streams()
        setup_samples = [first_setup]
        runs = []  # (traced, result, problems)
        t0 = time.monotonic()
        longest = typical = 0.0
        while True:
            untraced = sum(1 for r in runs if not r[0])
            traced = len(runs) - untraced
            enough = untraced >= MIN_RUNS if not self.trace else min(untraced, traced) >= 2
            # stop before a run that would end past --seconds (or the hard
            # limit), so an invocation lasts about --seconds whatever the run
            # length
            now = time.monotonic()
            if enough and now - t0 + typical > self.seconds:
                break
            if runs and now + 1.5 * longest > self.deadline:
                break
            use_trace = bool(self.trace) and untraced > traced
            for _ in range(SETUP_PER_RUN):
                setup_samples.append(self.need({"mode": "setup"})["setup_s"])
            started = time.monotonic()
            result, problems = self.one_run(len(runs), use_trace)
            took = time.monotonic() - started
            longest = max(longest, took)
            typical = (typical + took) / 2 if runs else took
            runs.append((use_trace, result, problems + stream_problems))
        return setup_samples, runs

    # -- metrics ----------------------------------------------------------------

    @staticmethod
    def measured(runs):
        """(traced, result) of the runs to measure: those that passed every
        check or, when none did, every run that finished with its timings."""
        good = [(traced, r) for traced, r, p in runs if not p]
        return good or [(traced, r) for traced, r, p in runs if "run_s" in r]

    def end_to_end(self, setup_samples, runs):
        ok = [r for traced, r in self.measured(runs) if not traced]
        rows = inputs.sample_passes(self.workload)
        values = {
            "run_s": [r["run_s"] for r in ok],
            "setup_s": setup_samples,
            "rows_per_s": [rows / r["run_s"] for r in ok],
            "cpu_s": [r["cpu_s"] for r in ok],
            "peak_rss_mb": [r["peak_rss_mb"] for r in ok],
        }
        return values, END_TO_END

    def per_layer(self, runs):
        good = self.measured(runs)
        plain = [r["run_s"] for traced, r in good if not traced]
        per_run = []
        absent = set()
        for traced, r in good:
            if traced:
                m = dict(r["layers"])
                m["trace.overhead_frac"] = (
                    r["run_s"] / statistics.median(plain) - 1.0 if plain else 0.0)
                per_run.append(m)
                gone = tracing.absent_spans(r["absent_targets"])
                absent.update(tracing.absent_metrics(gone))
        values = {name: [m[name] for m in per_run] for name, _, _ in tracing.PER_LAYER}
        self.absent = sorted(absent)
        return values, tracing.PER_LAYER


def _format(value):
    return ("%.6g" % value) if isinstance(value, float) else str(value)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "tinynn", "__init__.py")):
        print("perfbench: no program at %s; run from the root of a tinynn checkout"
              % os.path.join(root, "src", "tinynn"), file=sys.stderr)
        return 2

    signal.signal(signal.SIGTERM, lambda *a: sys.exit(143))
    tmp = tempfile.mkdtemp(prefix=".perfbench-", dir=root)
    try:
        bench = Bench(args.workload, inputs.input_set(args.seed), args.seconds, args.trace,
                      root, tmp, checks.load_reference())
        try:
            setup_samples, runs = bench.execute()
        except BenchError as e:
            print("perfbench: %s" % e, file=sys.stderr)
            return 1
        if args.trace:
            values, spec = bench.per_layer(runs)
        else:
            values, spec = bench.end_to_end(setup_samples, runs)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    failed = [(i, p) for i, (_, _, p) in enumerate(runs) if p]
    if any(not values[name] for name, _, _ in spec):
        for i, problems in failed:
            print("run %d failed: %s" % (i, "; ".join(problems)), file=sys.stderr)
        print("perfbench: no run finished, nothing to measure", file=sys.stderr)
        return 1

    print("workload %s seed %d (input set %d) trace %d: %d runs, %d failed (fail_frac %s)"
          % (args.workload, args.seed, bench.seed, args.trace, len(runs), len(failed),
             _format(len(failed) / len(runs))))
    for i, problems in failed:
        print("  run %d: %s" % (i, "; ".join(problems)))
    print("fingerprints %s" % json.dumps(bench.fingerprints, sort_keys=True))
    print("headline %s" % json.dumps(bench.headline, sort_keys=True))
    print("env %s" % json.dumps(environment(), sort_keys=True))
    metrics = {}
    for name, unit, _ in spec:
        med, q1, q3 = summary(values[name])
        metrics[name] = {"value": med, "unit": unit}
        print("%-44s %12s %-8s (median of %d; q1 %s, q3 %s)"
              % (name, _format(med), unit, len(values[name]), _format(q1), _format(q3)))
    if args.trace and bench.absent:
        print("absent (target gone, reported as 0): %s" % ", ".join(bench.absent))
    print(json.dumps({"correct": not failed, "attempted": len(runs),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
