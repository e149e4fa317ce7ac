"""Loss functions, the SGD loop's contracts, metrics, and trial averaging."""

import math

import numpy as np
import pytest

from tinynn.datasets import SyntheticSpec, generate_synthetic
from tinynn.errors import ConfigError, DataError, DivergenceError
from tinynn.experiments import build_config
from tinynn.layers import build_mlp, forward
from tinynn.tensor import Tensor
from tinynn.training import (
    MetricsReport,
    TrainConfig,
    TrialSummary,
    evaluate,
    repeat_trials,
    sgd_step,
    train,
    write_loss_curve_csv,
    write_summary_csv,
    write_trials_csv,
    _binary_ce_from_logits,
    _binary_report,
    _multiclass_report,
    _softmax_ce_from_logits,
)

from reference import cross_entropy_loss


class TestTrainConfig:
    def test_defaults(self):
        cfg = TrainConfig(learning_rate=0.05, epochs=20)
        assert (cfg.batch_size, cfg.seed, cfg.shuffle) == (32, 0, True)
        assert cfg.orient_dead_units
        with pytest.raises(TypeError):
            TrainConfig()  # the budget has no default

    def test_conv_defaults(self):
        cfg = build_config(
            flag_values={"kind": "ova-binary", "dataset": "mnist", "seed": 3}
        ).train_config()
        assert cfg.learning_rate == 0.015
        assert cfg.epochs == 5
        assert cfg.seed == 3

    @pytest.mark.parametrize(
        "kw", [{"learning_rate": 0.0}, {"learning_rate": 1.5},
               {"batch_size": 0}, {"epochs": 0}]
    )
    def test_rejects_bad_values(self, kw):
        with pytest.raises(ConfigError):
            TrainConfig(**{"learning_rate": 0.05, "epochs": 1, **kw})


class TestCrossEntropy:
    def test_binary_known_value(self):
        # p = [0.8, 0.3] with labels [1, 0]:
        # loss = -(log 0.8 + log 0.7)/2
        probs = Tensor([[0.8], [0.3]])
        loss, grad = cross_entropy_loss(probs, np.array([1, 0]))
        want = -(math.log(0.8) + math.log(0.7)) / 2.0
        assert loss == pytest.approx(want, abs=1e-15)
        np.testing.assert_allclose(
            grad, [[(0.8 - 1.0) / 2], [(0.3 - 0.0) / 2]], atol=1e-15
        )

    def test_multiclass_known_value(self):
        probs = Tensor([[0.7, 0.2, 0.1], [0.1, 0.1, 0.8]])
        loss, grad = cross_entropy_loss(probs, np.array([0, 2]))
        want = -(math.log(0.7) + math.log(0.8)) / 2.0
        assert loss == pytest.approx(want, abs=1e-15)
        want_grad = np.array([[0.7 - 1, 0.2, 0.1], [0.1, 0.1, 0.8 - 1]]) / 2.0
        np.testing.assert_allclose(grad, want_grad, atol=1e-15)

    def test_label_range_checked(self):
        with pytest.raises(DataError):
            cross_entropy_loss(Tensor([[0.5, 0.5]]), np.array([2]))
        with pytest.raises(DataError):
            cross_entropy_loss(Tensor([[0.5]]), np.array([3]))

    def test_shape_mismatch(self):
        with pytest.raises(DataError):
            cross_entropy_loss(Tensor([[0.5], [0.5]]), np.array([1]))


class TestFusedLogitLosses:
    def test_binary_matches_from_probs(self):
        z = np.random.default_rng(0).normal(size=(16, 1))
        y = np.random.default_rng(1).integers(0, 2, size=16)
        loss_z, grad_z = _binary_ce_from_logits(z, y)
        s = 1.0 / (1.0 + np.exp(-z))
        loss_p, grad_p = cross_entropy_loss(Tensor(s), y)
        assert loss_z == pytest.approx(loss_p, rel=1e-12)
        np.testing.assert_allclose(grad_z, grad_p, atol=1e-12)

    def test_binary_gradient_is_exactly_antisymmetric(self):
        # the property the training loop's mirror behaviour rests on:
        # negating logits and flipping labels negates the gradient bitwise
        z = np.random.default_rng(2).normal(size=(64, 1)) * 3.0
        y = np.random.default_rng(3).integers(0, 2, size=64)
        _, g = _binary_ce_from_logits(z, y)
        _, g_flip = _binary_ce_from_logits(-z, 1 - y)
        np.testing.assert_array_equal(g_flip, -g)

    def test_binary_extreme_logits_finite(self):
        z = np.array([[-800.0], [800.0], [0.0]])
        loss, grad = _binary_ce_from_logits(z, np.array([1, 0, 1]))
        assert math.isfinite(loss)
        assert np.isfinite(grad).all()

    def test_softmax_matches_from_probs(self):
        z = np.random.default_rng(4).normal(size=(8, 5))
        y = np.random.default_rng(5).integers(0, 5, size=8)
        loss_z, grad_z = _softmax_ce_from_logits(z, y)
        e = np.exp(z - z.max(axis=1, keepdims=True))
        p = e / e.sum(axis=1, keepdims=True)
        loss_p, grad_p = cross_entropy_loss(Tensor(p), y)
        assert loss_z == pytest.approx(loss_p, rel=1e-12)
        np.testing.assert_allclose(grad_z, grad_p, atol=1e-12)

    def test_softmax_extreme_logits_finite(self):
        z = np.array([[1000.0, -1000.0, 0.0]])
        loss, grad = _softmax_ce_from_logits(z, np.array([1]))
        assert math.isfinite(loss)
        assert np.isfinite(grad).all()


class TestSgdStep:
    def test_updates_and_clears(self):
        net = build_mlp(3, 2, seed=0)
        w0 = net.params[0]["w"].copy()
        net.grads[0]["w"][:] = 1.0
        sgd_step(net, 0.1)
        np.testing.assert_allclose(net.params[0]["w"], w0 - 0.1, atol=1e-15)
        assert not net.grads[0]["w"].any()


def synth(seed=0, n=2000, std=1.0):
    return generate_synthetic(SyntheticSpec(std=std, n_samples=n, seed=seed))


class TestTrainLoop:
    def test_deterministic_end_to_end(self):
        data = synth(7)
        cfg = TrainConfig(learning_rate=0.05, epochs=3, seed=5)
        a, _ = train(build_mlp(3, 4, seed=9), data, cfg)
        b, _ = train(build_mlp(3, 4, seed=9), data, cfg)
        for pa, pb in zip(a.params, b.params):
            for k in pa:
                np.testing.assert_array_equal(pa[k], pb[k])

    def test_loss_curve_length_and_decrease(self):
        data = synth(8, n=4000)
        cfg = TrainConfig(learning_rate=0.05, epochs=6, seed=1)
        _, rep = train(build_mlp(3, 10, seed=2), data, cfg)
        assert len(rep.loss_curve) == 6
        # soft check: end of training below the start
        assert rep.loss_curve[-1] < rep.loss_curve[0]

    def test_learns_separable_data(self):
        data = synth(9, n=4000, std=0.25)
        cfg = TrainConfig(learning_rate=0.05, epochs=8, seed=3)
        _, rep = train(build_mlp(3, 10, seed=4), data, cfg)
        assert rep.accuracy > 0.9

    def test_batch_size_larger_than_split_rejected(self):
        data = synth(10, n=100)
        with pytest.raises(ConfigError):
            train(build_mlp(3, 2, seed=0), data, TrainConfig(learning_rate=0.05, epochs=1, batch_size=1000))

    def test_divergence_reported_with_position(self):
        data = synth(11, n=200)
        net = build_mlp(3, 2, seed=0)
        net.params[0]["w"][:] = 1e160  # overflow on the first forward
        net.params[-1]["w"][:] = 1e160
        with pytest.raises(DivergenceError, match="epoch 1, batch 1"):
            train(net, data, TrainConfig(learning_rate=0.05, epochs=1, orient_dead_units=False))

    def test_label_swap_runs_are_exact_mirrors(self):
        """Swapping class labels must mirror the learned decision exactly:
        sensitivity and specificity trade places, accuracy is unchanged."""
        base = synth(12, n=2000)

        class Swapped:
            feature_array = base.feature_array
            train_indices = base.train_indices
            test_indices = base.test_indices
            class_count = 2

            @staticmethod
            def labels_at(idx):
                return 1 - base.labels_at(idx)

        cfg = TrainConfig(learning_rate=0.05, epochs=4, seed=6)
        _, rep_a = train(build_mlp(3, 8, seed=13), base, cfg)
        _, rep_b = train(build_mlp(3, 8, seed=13), Swapped(), cfg)
        assert rep_a.accuracy == rep_b.accuracy
        assert rep_a.sensitivity == rep_b.specificity
        assert rep_a.specificity == rep_b.sensitivity
        assert rep_a.confusion["tp"] == rep_b.confusion["tn"]
        assert rep_a.confusion["fn"] == rep_b.confusion["fp"]


class TestMetrics:
    def test_binary_counts_and_rates(self):
        scores = np.array([0.9, 0.6, 0.4, 0.2, 0.8, 0.3])
        labels = np.array([1, 0, 1, 0, 1, 0])
        rep = _binary_report(scores, labels, 0.5)
        assert rep.confusion == {"tp": 2, "tn": 2, "fp": 1, "fn": 1}
        assert rep.accuracy == pytest.approx(4 / 6)
        assert rep.sensitivity == pytest.approx(2 / 3)
        assert rep.specificity == pytest.approx(2 / 3)

    def test_threshold_is_strict(self):
        rep = _binary_report(np.array([0.5, 0.5]), np.array([1, 0]), 0.5)
        # exactly 0.5 is not positive
        assert rep.confusion == {"tp": 0, "tn": 1, "fp": 0, "fn": 1}

    def test_empty_denominators_are_zero(self):
        rep = _binary_report(np.array([0.4, 0.3]), np.array([0, 0]), 0.5)
        assert rep.sensitivity == 0.0
        assert rep.specificity == 1.0

    def test_multiclass_confusion_layout(self):
        preds = np.array([0, 1, 2, 2, 0])
        labels = np.array([0, 1, 1, 2, 2])
        rep = _multiclass_report(preds, labels, 3)
        want = np.array([[1, 0, 0], [0, 1, 1], [1, 0, 1]])
        np.testing.assert_array_equal(rep.confusion, want)
        assert rep.accuracy == pytest.approx(3 / 5)

    def test_multiclass_macro_rates_against_hand_count(self):
        preds = np.array([0, 0, 1, 1])
        labels = np.array([0, 1, 0, 1])
        rep = _multiclass_report(preds, labels, 2)
        # each class: tp=1 fn=1 fp=1 tn=1
        assert rep.sensitivity == pytest.approx(0.5)
        assert rep.specificity == pytest.approx(0.5)


class TestEvaluate:
    def test_split_selection(self):
        data = synth(14, n=1000, std=0.25)
        net, _ = train(build_mlp(3, 6, seed=1), data, TrainConfig(learning_rate=0.05, epochs=5))
        test_rep = evaluate(net, data, split="test")
        train_rep = evaluate(net, data, split="train")
        n_test = sum(test_rep.confusion.values())
        n_train = sum(train_rep.confusion.values())
        assert n_test == len(data.test_indices)
        assert n_train == len(data.train_indices)


class TestRepeatTrials:
    def test_prefix_stability(self):
        # the first k trials do not depend on how many trials follow
        cfg = TrainConfig(learning_rate=0.05, epochs=1, seed=77)
        gen = lambda s: synth(s, n=400)
        build = lambda s: build_mlp(3, 2, s)
        a = repeat_trials(build, gen, cfg, 3)
        b = repeat_trials(build, gen, cfg, 5)
        assert a.trials == b.trials[:3]

    def test_base_seed_changes_trials(self):
        gen = lambda s: synth(s, n=400)
        build = lambda s: build_mlp(3, 2, s)
        a = repeat_trials(build, gen, TrainConfig(learning_rate=0.05, epochs=1, seed=1), 2)
        b = repeat_trials(build, gen, TrainConfig(learning_rate=0.05, epochs=1, seed=2), 2)
        assert a.trials != b.trials

    def test_summary_moments_match_rows(self):
        cfg = TrainConfig(learning_rate=0.05, epochs=2, seed=5)
        summ = repeat_trials(
            lambda s: build_mlp(3, 4, s), lambda s: synth(s, n=600), cfg, 4
        )
        accs = [r["accuracy"] for r in summ.trials]
        assert summ.means["accuracy"] == pytest.approx(np.mean(accs), abs=1e-12)
        assert summ.stds["accuracy"] == pytest.approx(np.std(accs), abs=1e-12)

    def test_divergent_trials_excluded_not_fatal(self):
        calls = {"n": 0}

        def build(seed):
            calls["n"] += 1
            net = build_mlp(3, 2, seed)
            if calls["n"] == 2:  # wreck the second trial's init
                net.params[0]["w"][:] = 1e160
                net.params[-1]["w"][:] = 1e160
            return net

        cfg = TrainConfig(learning_rate=0.05, epochs=1, seed=9, orient_dead_units=False)
        summ = repeat_trials(build, lambda s: synth(s, n=200), cfg, 3)
        assert summ.divergences == 1
        assert len(summ.trials) == 2
        assert summ.n_trials == 3

    def test_requires_two_trials(self):
        with pytest.raises(ConfigError):
            repeat_trials(
                lambda s: build_mlp(3, 2, s), lambda s: synth(s), TrainConfig(learning_rate=0.05, epochs=1), 1
            )


class TestCsvWriters:
    def make_summary(self):
        return TrialSummary(
            means={"accuracy": 0.75, "sensitivity": 0.7, "specificity": 0.8},
            stds={"accuracy": 0.05, "sensitivity": 0.04, "specificity": 0.06},
            n_trials=3,
            divergences=1,
            trials=[
                {"trial": 0, "accuracy": 0.7, "sensitivity": 0.66, "specificity": 0.74},
                {"trial": 2, "accuracy": 0.8, "sensitivity": 0.74, "specificity": 0.86},
            ],
        )

    def test_trials_csv(self, tmp_path):
        path = str(tmp_path / "trials.csv")
        write_trials_csv(path, self.make_summary())
        lines = open(path).read().splitlines()
        assert lines[0] == "# tinynn csv v1"
        assert lines[1] == "trial,metric,value"
        assert lines[2] == "0,accuracy,0.7"
        assert len(lines) == 2 + 2 * 3

    def test_summary_csv_reports_surviving_trial_count(self, tmp_path):
        path = str(tmp_path / "summary.csv")
        write_summary_csv(path, self.make_summary())
        lines = open(path).read().splitlines()
        assert lines[1] == "metric,mean,std,n"
        assert lines[2] == "accuracy,0.75,0.05,2"

    def test_loss_curve_csv_one_based(self, tmp_path):
        path = str(tmp_path / "curve.csv")
        write_loss_curve_csv(path, [0.5, 0.25])
        lines = open(path).read().splitlines()
        assert lines[2] == "1,0.5"
        assert lines[3] == "2,0.25"

    def test_float_format_round_trips(self, tmp_path):
        # repr formatting must preserve doubles exactly
        val = 0.1234567890123456789
        path = str(tmp_path / "c.csv")
        write_loss_curve_csv(path, [val])
        back = float(open(path).read().splitlines()[2].split(",")[1])
        assert back == val
