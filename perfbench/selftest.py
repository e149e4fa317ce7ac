"""Self-tests for the benchmark's own code.

    python3 perfbench/selftest.py        (from the root of a tinynn checkout)

Covers the generated IDX files (they must round-trip through
tinynn.datasets.load_mnist), span self-time arithmetic, the result schema
and BENCHMARK.json, the headline tolerances, and the comparison rule on
fixed numbers.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402


def span(i, name, start, end, parent=-1, **attrs):
    return {"id": i, "name": name, "start": start, "end": end, "parent": parent,
            "run": 0, "attrs": attrs}


class GeneratedInputs(unittest.TestCase):
    def test_idx_files_round_trip_through_load_mnist(self):
        from tinynn.datasets import load_mnist

        train, test = inputs.conv_train_split(7)
        with tempfile.TemporaryDirectory() as d:
            inputs.write_mnist_dir(d, train, test)
            data = load_mnist(*(os.path.join(d, n) for n in inputs.MNIST_FILES))
        feats = np.rint(data.feature_array[:, 0] * 255.0).astype(np.uint8)
        np.testing.assert_array_equal(feats, np.concatenate([train[0], test[0]]))
        np.testing.assert_array_equal(data.labels, np.concatenate([train[1], test[1]]))
        self.assertEqual(len(data.train_indices), inputs.N_CLASSES * inputs.CONV_TRAIN_PER_CLASS)
        self.assertEqual(np.bincount(train[1]).tolist(),
                         [inputs.CONV_TRAIN_PER_CLASS] * inputs.N_CLASSES)

    def test_judge_split_has_no_training_rows(self):
        from tinynn.datasets import load_mnist

        with tempfile.TemporaryDirectory() as d:
            inputs.write_mnist_dir(d, *inputs.judge_split(3))
            data = load_mnist(*(os.path.join(d, n) for n in inputs.MNIST_FILES))
        self.assertEqual(len(data.train_indices), 0)
        self.assertEqual(len(data.test_indices), inputs.JUDGE_TEST_ROWS)

    def test_inputs_depend_only_on_seed(self):
        a, b, c = (inputs.conv_train_split(s) for s in (4, 4, 5))
        np.testing.assert_array_equal(a[0][0], b[0][0])
        self.assertFalse(np.array_equal(a[0][0], c[0][0]))

    def test_oracle_matches_library_forward(self):
        from tinynn import layers

        _, (images, _) = inputs.judge_split(2)
        x = images[:8, None].astype(np.float64) / 255.0
        params = inputs.judge_member_params(2, 0, x)
        net = layers.build_conv_net((1, 28, 28), inputs.JUDGE_HIDDEN, 1, 0)
        for slot, arrays in zip(net.params, params):
            if arrays is not None:
                slot["w"][...], slot["b"][...] = arrays
        out, _ = layers.forward(net, x)
        z = inputs._oracle_logits(params, x) + params[6][1][0]
        np.testing.assert_allclose(out.array[:, 0], 1.0 / (1.0 + np.exp(-z)), rtol=1e-12)


class SpanArithmetic(unittest.TestCase):
    def test_union_length_merges_overlaps(self):
        self.assertAlmostEqual(tracing.union_length([(0, 2), (1, 3), (5, 6)]), 4.0)
        self.assertEqual(tracing.union_length([]), 0.0)

    def test_self_time_subtracts_direct_children_only(self):
        spans = [
            span(0, "outer", 0.0, 10.0),
            span(1, "mid", 1.0, 5.0, parent=0),
            span(2, "leaf", 2.0, 4.0, parent=1),
            span(3, "mid", 6.0, 7.0, parent=0),
        ]
        selfs = tracing.self_times(spans)
        self.assertAlmostEqual(selfs[0], 10.0 - 4.0 - 1.0)
        self.assertAlmostEqual(selfs[1], 4.0 - 2.0)
        self.assertAlmostEqual(selfs[2], 2.0)
        self.assertAlmostEqual(selfs[3], 1.0)

    def test_layer_metrics_busy_self_and_steps(self):
        spans = [
            span(0, "training.train", 0.0, 10.0, rows=64),
            span(1, "layers.forward.train", 0.5, 1.0, parent=0, rows=32),  # dead-unit probe
            span(2, "layers.forward.train", 1.0, 3.0, parent=0, rows=32),
            span(3, "tensor.conv1.fwd", 1.5, 2.0, parent=2, flop=2e9),
            span(4, "layers.backward", 3.0, 6.0, parent=0),
            span(5, "training.sgd_step", 6.0, 6.5, parent=0),
            span(6, "layers.forward.train", 7.0, 8.0, parent=0, rows=32),
            span(7, "tensor.conv1.fwd", 7.0, 7.5, parent=6, flop=2e9),
            span(8, "training.sgd_step", 8.0, 9.0, parent=0),
        ]
        m = tracing.layer_metrics(spans, import_s=0.25)
        self.assertAlmostEqual(m["training.train.busy_s"], 10.0)
        self.assertAlmostEqual(m["training.train.self_s"], 10.0 - 0.5 - 2.0 - 3.0 - 0.5 - 1.0 - 1.0)
        self.assertAlmostEqual(m["layers.forward.train.self_s"], 3.5 - 1.0)
        self.assertEqual(m["layers.forward.train.calls"], 3)
        self.assertEqual(m["layers.forward.train.rows"], 96)
        self.assertEqual(m["training.rows"], 64)
        self.assertAlmostEqual(m["tensor.conv1.fwd.gflop"], 4.0)
        self.assertAlmostEqual(m["tensor.conv1.fwd.gflop_per_s"], 4.0)
        self.assertAlmostEqual(m["tensor.conv1.fwd.p50_ms"], 500.0)
        # steps run from the latest forward(train=True) entry to sgd_step exit
        self.assertAlmostEqual(m["training.step.p50_ms"], 2000.0)
        self.assertAlmostEqual(m["training.step.p99_ms"], 5500.0)
        self.assertEqual(m["cli.import_s"], 0.25)
        self.assertEqual(m["tensor.conv2.fwd.busy_s"], 0.0)
        names = {n for n, _, _ in tracing.PER_LAYER} - {"trace.overhead_frac"}
        self.assertEqual(set(m), names)

    def test_percentile_is_nearest_rank(self):
        self.assertEqual(tracing.percentile([3, 1, 2], 50), 2)
        self.assertEqual(tracing.percentile(list(range(1, 101)), 99), 99)

    def test_missing_target_is_absent_not_fatal(self):
        saved = list(tracing.PATCHES)
        try:
            tracing.PATCHES.append(
                ("tinynn.layers._no_such_kernel", ("tensor.conv9.fwd",), None, None, None))
            tracer = tracing.Tracer().install()
            gone = tracing.absent_spans(tracer.absent)
        finally:
            for target, *_ in saved:  # undo the patches
                owner, attr = tracing._resolve(target)
                fn = getattr(owner, attr)
                setattr(owner, attr, getattr(fn, "__wrapped__", fn))
            tracing.PATCHES[:] = saved
        self.assertEqual(tracer.absent, ["tinynn.layers._no_such_kernel"])
        self.assertEqual(gone, ["tensor.conv9.fwd"])
        # a span kept alive by another target is not absent
        self.assertEqual(tracing.absent_spans(["tinynn.ensemble.build_mlp"]), [])
        self.assertIn("tensor.conv2.dgrad.gflop",
                      tracing.absent_metrics(tracing.absent_spans(
                          ["tinynn.layers._conv2d_input_grad"])))


class HeadlineTolerance(unittest.TestCase):
    def test_conv_losses_admit_rounding_but_not_a_real_change(self):
        ref = {"loss.class0.epoch1": 0.6931471805599453, "accuracy.class0": 0.9}
        rounding = {"loss.class0.epoch1": 0.6931471805599453 * (1 + 1e-12),
                    "accuracy.class0": 0.9}
        broken = {"loss.class0.epoch1": 0.6931471805599453 * (1 + 1e-4),
                  "accuracy.class0": 0.9}
        self.assertEqual(checks.compare_headline("conv-train", rounding, ref), [])
        self.assertEqual(len(checks.compare_headline("conv-train", broken, ref)), 1)

    def test_one_test_row_is_admitted_two_are_not(self):
        row = 1.0 / (inputs.N_CLASSES * inputs.CONV_TEST_PER_CLASS)
        ref = {"accuracy.class0": 0.5}
        one, two = {"accuracy.class0": 0.5 + row}, {"accuracy.class0": 0.5 + 2 * row}
        self.assertEqual(checks.compare_headline("conv-train", one, ref), [])
        self.assertTrue(checks.compare_headline("conv-train", two, ref))

    def test_param_sketch_reads_checkpoint_parameters(self):
        from tinynn import layers

        net = layers.build_conv_net((1, 28, 28), inputs.CONV_HIDDEN, 1, 5)
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "member.ckpt")
            layers.save_network(net, path)
            sketch = checks.param_sketches(path, inputs.CONV_HIDDEN)
        p = np.concatenate([net.params[2]["w"].ravel(), net.params[2]["b"]])
        r = np.random.default_rng(p.size).integers(0, 2, p.size) * 2.0 - 1.0
        self.assertAlmostEqual(sketch["conv2"], r @ p / np.linalg.norm(p), places=12)
        self.assertEqual(sketch["head"], 0.0)  # the head starts at exactly zero

    def test_missing_key_is_a_problem(self):
        self.assertTrue(checks.compare_headline("ova-judge", {}, {"count_correct": 3}))

    def test_score_sketches(self):
        scores = np.array([[0.1, 0.9], [0.3, 0.5], [0.2, 0.4]])
        r = np.random.default_rng(3).integers(0, 2, 3) * 2.0 - 1.0
        sk = checks.score_sketches(scores)
        self.assertEqual(len(sk), 4)
        self.assertAlmostEqual(sk["scores.member1.mean"], 0.6, places=15)
        self.assertAlmostEqual(sk["scores.member0.sketch"], r @ scores[:, 0] / 3, places=15)
        ref = {"scores.member0.mean": 0.2, "count_correct": 3}
        rounding = {"scores.member0.mean": 0.2 + 1e-15, "count_correct": 4}
        moved = {"scores.member0.mean": 0.2 + 1e-9, "count_correct": 3}
        self.assertEqual(checks.compare_headline("ova-judge", rounding, ref), [])
        self.assertEqual(len(checks.compare_headline("ova-judge", moved, ref)), 1)


class Reference(unittest.TestCase):
    def test_every_seed_maps_to_a_recorded_input_set(self):
        self.assertEqual(inputs.input_set(7), 7)
        self.assertEqual(inputs.input_set(inputs.INPUT_SETS + 7), 7)
        ref = checks.load_reference()
        sets = {str(i) for i in range(inputs.INPUT_SETS)}
        self.assertEqual(set(ref["fingerprints"]), sets)
        for workload in inputs.WORKLOADS:
            self.assertEqual(set(ref["headline"][workload]), sets)

    def test_no_reference_is_a_failure(self):
        with tempfile.TemporaryDirectory() as d:
            empty = {"fingerprints": {}, "headline": {}}
            bench = run.Bench("ova-judge", 3, 1, 0, ROOT, d, empty)
            bench.headline = {"count_correct": 3}
            self.assertTrue(bench.compare_headline())
            bench.reference = None  # recording: nothing to compare with
            self.assertEqual(bench.compare_headline(), [])


class ComparisonRule(unittest.TestCase):
    parent = [10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.3, 9.7, 10.0, 10.1]

    def test_improved_needs_nine_tenths_wins_and_gap_beyond_spread(self):
        change = [v - 1.0 for v in self.parent]
        self.assertEqual(stats.verdict(self.parent, change, "lower", 0.1)[0], "improved")
        # higher-is-better metric, same numbers: the change is worse by 10%
        self.assertEqual(stats.verdict(self.parent, change, "higher", 0.05)[0], "worse")

    def test_unchanged_within_bound(self):
        change = [v + 0.05 for v in self.parent]
        v, d = stats.verdict(self.parent, change, "lower", 0.1)
        self.assertEqual(v, "unchanged")
        self.assertEqual(d["win_share"], 0.0)

    def test_worse_beyond_bound(self):
        change = [v * 1.2 for v in self.parent]
        self.assertEqual(stats.verdict(self.parent, change, "lower", 0.1)[0], "worse")

    def test_unresolved_when_parent_spread_exceeds_bound(self):
        parent = [1.0, 2.0, 1.5, 1.0, 2.0, 1.5, 1.2, 1.8, 1.1, 1.9]
        change = list(reversed(parent))
        self.assertEqual(stats.verdict(parent, change, "lower", 0.1)[0], "unresolved")

    def test_every_change_run_better_is_not_unresolved(self):
        # wide parent spread, gap smaller than it, yet no overlap at all
        parent = [2.0, 3.0, 4.0, 2.1, 3.9]
        change = [1.9, 1.8, 1.95, 1.85, 1.7]
        self.assertEqual(stats.verdict(parent, change, "lower", 0.05)[0], "unchanged")

    def test_ties_count_for_neither(self):
        v, d = stats.verdict([1.0] * 10, [1.0] * 10, "lower", 0.1)
        self.assertEqual((v, d["win_share"]), ("unchanged", 0.0))


class Schema(unittest.TestCase):
    NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

    def test_benchmark_json_matches_the_code(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        self.assertEqual(set(spec), {"command", "paths", "run_seconds", "workloads",
                                     "end_to_end", "per_layer"})
        self.assertEqual([w["name"] for w in spec["workloads"]], list(inputs.WORKLOADS))
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]],
                         run.END_TO_END)
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
                         tracing.PER_LAYER)
        names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
        names += [w["name"] for w in spec["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for m in spec["end_to_end"] + spec["per_layer"]:
            self.assertRegex(m["name"], self.NAME)
            self.assertRegex(m["unit"], self.UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
        for m in spec["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25)
        setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["bound"], max(m["bound"] for m in spec["end_to_end"]))
        for w in spec["workloads"]:
            self.assertLessEqual(len(w["why"]), 200)
        self.assertLessEqual(4 + 22 * len(spec["workloads"]) * (spec["run_seconds"] + 5), 3420)

    def _run(self, cwd, trace):
        return subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", "synth-sweep",
             "--seed", "1", "--seconds", "1", "--trace", str(trace)],
            cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=170)

    def test_result_line(self):
        for trace, spec in ((0, run.END_TO_END), (1, tracing.PER_LAYER)):
            proc = self._run(ROOT, trace)
            self.assertEqual(proc.returncode, 0, proc.stderr.decode())
            result = json.loads(proc.stdout.decode().strip().splitlines()[-1])
            self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
            self.assertIs(result["correct"], True)
            self.assertGreaterEqual(result["attempted"], 1)
            self.assertEqual(result["failed"], 0)
            self.assertEqual(set(result["metrics"]), {n for n, _, _ in spec})
            for name, unit, _ in spec:
                self.assertEqual(result["metrics"][name]["unit"], unit)
                self.assertIsInstance(result["metrics"][name]["value"], (int, float))
        self.assertFalse([n for n in os.listdir(ROOT) if n.startswith(".perfbench-")])

    def test_fails_without_the_program(self):
        with tempfile.TemporaryDirectory() as d:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), d)
            shutil.copytree(HERE, os.path.join(d, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "synth-sweep", "--seed",
                 "1", "--seconds", "1", "--trace", "0"],
                cwd=d, stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=170)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, b"")


if __name__ == "__main__":
    unittest.main()
