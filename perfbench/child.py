"""One job of the benchmark, run in a fresh interpreter.

    python3 perfbench/child.py JOB.json

The job file names the mode, the workload, the generated inputs and where
to write the result (a JSON file). Modes:

- ``prepare``: write the ova-judge member checkpoints through the library.
- ``setup``: time ``import tinynn`` plus loading the workload's inputs
  through the program; optionally compute the random-stream fingerprints.
- ``run``: one experiment, timed, optionally traced; spans are written out
  when the run ends.

The parent puts the checkout's ``src`` first on PYTHONPATH and fixes the BLAS
thread count in the environment before this interpreter starts.
"""

import hashlib
import json
import os
import resource
import sys
import time


def _import_program():
    t0 = time.perf_counter()
    from tinynn import cli, ensemble, experiments

    return time.perf_counter() - t0, cli, experiments, ensemble


def _check_program_location(job):
    import tinynn

    src = os.path.realpath(job["src"])
    if not os.path.realpath(tinynn.__file__).startswith(src + os.sep):
        raise SystemExit("tinynn imported from %s, not from %s" % (tinynn.__file__, src))


def _mnist_config(experiments, mnist_dir, hidden):
    return experiments.build_config(
        {}, {"kind": "ova-binary", "dataset": "mnist", "mnist_dir": mnist_dir,
             "hidden": (hidden,)}
    )


def load_inputs(job, experiments, ensemble):
    """Load the workload's inputs the way a run does; returns what it loaded."""
    inputs = job["inputs"]
    if job["workload"] == "synth-sweep":
        return experiments.build_config(experiments.load_config_file(inputs["config"]), {})
    data = experiments.load_dataset(
        _mnist_config(experiments, inputs["mnist_dir"], inputs["hidden"]))
    if job["workload"] == "ova-judge":
        return data, ensemble.load_ensemble(inputs["ensemble_dir"])
    return data


def fingerprints(seed):
    """SHA-256 of the library's random streams for a workload seed.

    synthetic: features, labels and split of generate_synthetic at the
    sweep's sample size; ova_views: every make_ova_views index array over
    the conv-train labels.
    """
    import numpy as np

    import inputs
    from tinynn.datasets import LabeledDataset, SyntheticSpec, generate_synthetic, make_ova_views
    from tinynn.tensor import Tensor

    h = hashlib.sha256()
    for std in inputs.SYNTH_GRID["stds"]:
        d = generate_synthetic(
            SyntheticSpec(std=std, n_samples=inputs.SYNTH_GRID["sizes"][0], seed=seed))
        for arr in (d.feature_array, d.labels, d.train_indices, d.test_indices):
            h.update(np.ascontiguousarray(arr).tobytes())
    synthetic = h.hexdigest()

    (images, labels), _ = inputs.conv_train_split(seed)
    data = LabeledDataset(
        Tensor(images[:, None].astype(np.float64) / 255.0), labels, inputs.N_CLASSES,
        np.arange(len(labels)), np.zeros(0, np.int64))
    h = hashlib.sha256()
    for view in make_ova_views(data, inputs.N_CLASSES, seed):
        h.update(np.ascontiguousarray(view.train_indices, dtype="<i8").tobytes())
    return {"synthetic": synthetic, "ova_views": h.hexdigest()}


def judge(job, experiments, ensemble):
    """ova-judge: load the split and members, judge, write the two CSVs.

    Returns (scores, (ensemble, features, indices)): the scores that
    evaluate computed, as ``ensemble.member_scores`` returned them, or None
    if it made no such call; the rest is what the scores were computed on.
    """
    captured = []
    member_scores = ensemble.member_scores

    def capture(*args, **kwargs):
        scores = member_scores(*args, **kwargs)
        captured.append(scores)
        return scores

    ensemble.member_scores = capture
    try:
        data, ens = load_inputs(job, experiments, ensemble)
        outcome = ensemble.evaluate(ens, data, policy="redundant-error")
    finally:
        ensemble.member_scores = member_scores
    idx = data.test_indices
    os.makedirs(job["out"], exist_ok=True)
    ensemble.write_verdicts_csv(
        os.path.join(job["out"], "verdicts.csv"), outcome, idx, data.labels_at(idx))
    ensemble.write_outcome_summary_csv(os.path.join(job["out"], "summary.csv"), outcome)
    return captured[-1] if captured else None, (ens, data.feature_array, idx)


def write_score_sketches(job, ensemble, scores, inputs):
    """Write checks.score_sketches of the judged scores next to the CSVs;
    scores is None when evaluate no longer goes through member_scores, and
    then they are computed here, outside the timed run."""
    import checks

    if scores is None:
        scores = ensemble.member_scores(*inputs)
    with open(os.path.join(job["out"], checks.SCORES_FILE), "w") as f:
        json.dump(checks.score_sketches(scores), f, sort_keys=True)


def run(job):
    import_s, cli, experiments, ensemble = _import_program()
    _check_program_location(job)
    result = {"import_s": import_s}
    tracer = None
    if job.get("trace"):
        from tracing import Tracer

        tracer = Tracer(job.get("run_id", 0)).install()
    r0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    if job["workload"] == "ova-judge":
        scores, judged = judge(job, experiments, ensemble)
        rc = 0
    else:
        rc = cli.main(job["argv"])
    result["run_s"] = time.perf_counter() - t0
    r1 = resource.getrusage(resource.RUSAGE_SELF)
    if job["workload"] == "ova-judge":
        write_score_sketches(job, ensemble, scores, judged)
    result["cpu_s"] = (r1.ru_utime - r0.ru_utime) + (r1.ru_stime - r0.ru_stime)
    result["peak_rss_mb"] = r1.ru_maxrss / 1024.0  # Linux reports KiB
    result["rc"] = rc
    if tracer is not None:
        result["absent_targets"] = tracer.absent
        with open(job["spans"], "w") as f:
            json.dump(tracer.records(), f)
    return result


def setup(job):
    t0 = time.perf_counter()
    import_s, _, experiments, ensemble = _import_program()
    load_inputs(job, experiments, ensemble)
    result = {"import_s": import_s, "setup_s": time.perf_counter() - t0}
    _check_program_location(job)
    if job.get("fingerprint"):
        result["fingerprints"] = fingerprints(job["seed"])
    return result


def prepare(job):
    import inputs

    _check_program_location(job)
    _, (images, _) = inputs.judge_split(job["seed"])
    inputs.write_judge_members(job["inputs"]["ensemble_dir"], job["seed"], images)
    return {}


def main(path):
    with open(path) as f:
        job = json.load(f)
    result = {"prepare": prepare, "setup": setup, "run": run}[job["mode"]](job)
    with open(job["result"], "w") as f:
        json.dump(result, f)


if __name__ == "__main__":
    main(sys.argv[1])
