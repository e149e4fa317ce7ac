"""Output checks: a run fails when any of these finds a problem.

- the program exits non-zero (checked by the caller);
- a manifest hash differs from the file on disk;
- its output hashes differ from an earlier run of the same workload and seed;
- a headline value falls outside its tolerance of the reference recorded in
  reference.json for the input set;
- the input set's random-stream fingerprints differ from the reference;
- reference.json has no entry for the input set.

Tolerances admit a change of floating-point summation order but not a
broken kernel. Losses and accuracies alone are too coarse for that: the
members barely move from their initial loss, and a verdict count moves
only when a score crosses the threshold. So conv-train also checks a
sketch of each trained layer's parameters (a fixed random +-1 projection
over the layer's norm), and ova-judge the mean and a +-1 sketch of each
member's scores as ``ensemble.member_scores`` returned them.

Measured on input sets 0-2: splitting the conv GEMM's sums in two moved the
parameter sketches by at most 3e-14 and the score values by at most 2e-16.
Halving the conv2 input gradient moved conv1's parameter sketch by 2.5e-6
or more, and the losses by 1.5e-8 or more (their tolerance is 7e-10). Two
forward-kernel bugs each failed 18 to 20 of the 20 score values of every
input set, while no verdict count changed. One bug scaled the conv bias by
0.999; the other left the last output pixel without its bias.
"""

import glob
import hashlib
import json
import os

import numpy as np

import inputs

SYNTH_TOL = 0.002  # trial-mean accuracy/sensitivity/specificity of a grid cell
CONV_ACC_TOL = 1.0 / (inputs.N_CLASSES * inputs.CONV_TEST_PER_CLASS) + 1e-9  # one test row
CONV_LOSS_RTOL = 1e-9  # per member, per epoch mean training loss
CONV_PARAM_TOL = 1e-10  # per member and layer, parameter sketch
JUDGE_COUNT_TOL = 1  # rows per verdict kind
JUDGE_SCORE_TOL = 1e-12  # per member, mean and sketch of the scores
SCORES_FILE = "scores.json"  # ova-judge score sketches, written by child.judge

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def run_outputs(workload, out_dir):
    """(run directory, {output name: sha256}, problems) of one finished run.

    CLI workloads must leave exactly one manifest whose every hash matches
    the file on disk; ova-judge's two CSVs are hashed directly.
    """
    if workload == "ova-judge":
        names = ("verdicts.csv", "summary.csv", SCORES_FILE)
        missing = [n for n in names if not os.path.exists(os.path.join(out_dir, n))]
        if missing:
            return out_dir, {}, ["missing output %s" % ", ".join(missing)]
        return out_dir, {n: sha256_file(os.path.join(out_dir, n)) for n in names}, []
    manifests = glob.glob(os.path.join(out_dir, "*", "*", "manifest.json"))
    if len(manifests) != 1:
        return None, {}, ["expected one manifest, found %d" % len(manifests)]
    run_dir = os.path.dirname(manifests[0])
    with open(manifests[0]) as f:
        outputs = json.load(f)["outputs"]
    problems = []
    for name, want in sorted(outputs.items()):
        path = os.path.join(run_dir, name)
        if not os.path.exists(path):
            problems.append("manifest lists missing file %s" % name)
        elif sha256_file(path) != want:
            problems.append("manifest hash differs from disk for %s" % name)
    return run_dir, outputs, problems


def param_sketches(path, hidden):
    """Per trainable layer of a conv-stack member checkpoint: r . p / |p|,
    p the layer's weights and biases, r a fixed random +-1 vector.

    A SENS1 checkpoint ends with every parameter as little-endian float64
    in layer order, so the parameters are the file's last 8 * count bytes.
    """
    sizes = [32 * 25 + 32, 64 * 32 * 25 + 64, 64 * 7 * 7 * hidden + hidden, hidden + 1]
    with open(path, "rb") as f:
        raw = f.read()
    params = np.frombuffer(raw[len(raw) - 8 * sum(sizes):], dtype="<f8")
    out, start = {}, 0
    for layer, size in zip(("conv1", "conv2", "hidden", "head"), sizes):
        p = params[start:start + size]
        r = np.random.default_rng(size).integers(0, 2, size) * 2.0 - 1.0
        out[layer] = float(r @ p / np.linalg.norm(p)) if p.any() else 0.0
        start += size
    return out


def score_sketches(scores):
    """Per member (column of scores): the mean, and r . s / n for a fixed
    random +-1 vector r over the n rows."""
    n = scores.shape[0]
    r = np.random.default_rng(n).integers(0, 2, n) * 2.0 - 1.0
    out = {}
    for k in range(scores.shape[1]):
        out["scores.member%d.mean" % k] = float(scores[:, k].mean())
        out["scores.member%d.sketch" % k] = float(r @ scores[:, k] / n)
    return out


def _csv_rows(path):
    with open(path) as f:
        lines = [ln.strip() for ln in f if ln.strip() and not ln.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:]]


def headline(workload, run_dir):
    """The values a reader of the run would quote, by stable key."""
    values = {}
    if workload == "synth-sweep":
        for r in _csv_rows(os.path.join(run_dir, "grid.csv")):
            key = "std=%s,n=%s,h=%s,%s" % (r["std"], r["n_samples"], r["hidden"], r["metric"])
            values[key] = float(r["mean"])
    elif workload == "conv-train":
        for r in _csv_rows(os.path.join(run_dir, "per_class.csv")):
            values["accuracy.class%s" % r["class"]] = float(r["accuracy"])
        for k in range(inputs.N_CLASSES):
            for r in _csv_rows(os.path.join(run_dir, "loss_class_%d.csv" % k)):
                values["loss.class%d.epoch%s" % (k, r["epoch"])] = float(r["mean_loss"])
            ckpt = os.path.join(run_dir, "ensemble", "member_%d.ckpt" % k)
            for layer, v in param_sketches(ckpt, inputs.CONV_HIDDEN).items():
                values["params.class%d.%s" % (k, layer)] = v
    else:
        for r in _csv_rows(os.path.join(run_dir, "summary.csv")):
            if r["key"].startswith("count_"):
                values[r["key"]] = int(r["value"])
        with open(os.path.join(run_dir, SCORES_FILE)) as f:
            values.update(json.load(f))
    return values


def tolerance(workload, key, ref):
    if workload == "synth-sweep":
        return SYNTH_TOL
    if workload == "conv-train":
        if key.startswith("accuracy."):
            return CONV_ACC_TOL
        return CONV_PARAM_TOL if key.startswith("params.") else CONV_LOSS_RTOL * abs(ref)
    return JUDGE_SCORE_TOL if key.startswith("scores.") else JUDGE_COUNT_TOL


def compare_headline(workload, values, ref):
    """Problems found comparing headline values with the reference."""
    problems = []
    for key in sorted(set(ref) | set(values)):
        if key not in values or key not in ref:
            problems.append("headline %s present in only one of run and reference" % key)
        elif abs(values[key] - ref[key]) > tolerance(workload, key, ref[key]):
            problems.append("headline %s = %r, reference %r" % (key, values[key], ref[key]))
    return problems


def load_reference(path=REFERENCE_PATH):
    """The recorded reference; with no file, an empty one, so that every
    run fails for want of a reference."""
    if not os.path.exists(path):
        return {"fingerprints": {}, "headline": {}}
    with open(path) as f:
        return json.load(f)
