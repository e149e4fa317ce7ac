"""One-vs-all aggregation rule, ensemble training, and persistence."""

import itertools
import os

import numpy as np
import pytest

from tinynn.datasets import SyntheticSpec, generate_synthetic
from tinynn.ensemble import (
    EnsembleOutcome,
    OvaEnsemble,
    Verdict,
    evaluate,
    load_ensemble,
    member_scores,
    outcome_from_positive_sets,
    predict,
    resolve_verdict,
    save_ensemble,
    train_ensemble,
    write_outcome_summary_csv,
    write_verdicts_csv,
    _member_seed,
)
from tinynn.errors import DataError, DivergenceError
from tinynn.layers import build_mlp
from tinynn.training import TrainConfig


def brute_force_verdict(positive_set, true_label):
    """Independent restatement of the rule, by exhaustive cases."""
    fired = sorted(positive_set)
    if len(fired) >= 2:
        return "redundant"
    if len(fired) == 0:
        return "no_positive"
    return "correct" if fired[0] == true_label else "wrong_single"


class TestVerdictRule:
    def test_all_1024_patterns_against_brute_force(self):
        # every subset of 10 members, every true label
        for bits in itertools.product((0, 1), repeat=10):
            pos = tuple(i for i, b in enumerate(bits) if b)
            for true in range(10):
                got = resolve_verdict(pos, true)
                assert got.kind == brute_force_verdict(pos, true)
                assert got.positives == pos

    def test_predicted_field(self):
        assert resolve_verdict((3,), 3).predicted == 3
        assert resolve_verdict((4,), 3).predicted == 4
        assert resolve_verdict((), 3).predicted is None
        assert resolve_verdict((1, 2), 1).predicted is None

    def test_redundant_even_when_true_class_fired(self):
        # the rule's defining property: any multi-positive is an error
        assert resolve_verdict((2, 5), 2).kind == "redundant"
        assert resolve_verdict(tuple(range(10)), 0).kind == "redundant"

    def test_unsorted_input_normalized(self):
        assert resolve_verdict((5, 1), 0).positives == (1, 5)


class TestOutcome:
    def test_counts_partition_and_fractions_sum(self):
        sets = [(0,), (1, 2), (), (3,), (1,), (0, 1, 2)]
        labels = [0, 1, 2, 4, 1, 0]
        out = outcome_from_positive_sets(sets, labels)
        assert out.n == 6
        assert sum(out.counts.values()) == 6
        assert out.counts == {
            "correct": 2, "redundant": 2, "no_positive": 1, "wrong_single": 1
        }
        total = out.fraction_correct + out.fraction_redundant + out.fraction_misclassified
        assert total == pytest.approx(1.0, abs=1e-12)
        assert out.max_positive_set == 3

    def test_priority_policy_first_positive_wins(self):
        sets = [(1, 2), (2, 5), ()]
        labels = [1, 5, 0]
        out = outcome_from_positive_sets(sets, labels, policy="priority")
        kinds = [v.kind for v in out.verdicts]
        assert kinds == ["correct", "wrong_single", "no_positive"]

    def test_argmax_policy_rejected_without_scores(self):
        with pytest.raises(DataError, match="argmax"):
            outcome_from_positive_sets([(1,)], [1], policy="argmax")

    def test_unknown_policy(self):
        with pytest.raises(DataError):
            outcome_from_positive_sets([], [], policy="vote")


class TestMemberSeeds:
    def test_xor_scheme(self):
        assert _member_seed(0, 0) == 0
        assert _member_seed(0, 7) == 7
        assert _member_seed(12345, 3) == 12345 ^ 3
        assert _member_seed(-1, 1) == (2 ** 64 - 1) ^ 1

    def test_distinct_within_ensemble(self):
        seeds = {_member_seed(999, i) for i in range(10)}
        assert len(seeds) == 10


def synth_multi(seed=0, n=1200, k=3, std=0.4):
    """Small k-class dataset: Gaussian blobs on the first coordinate."""
    rng = np.random.default_rng(seed)
    feats = rng.normal(scale=std, size=(n, 3))
    labels = np.arange(n) % k
    feats[:, 0] += labels * 2.0
    from tinynn.datasets import LabeledDataset
    from tinynn.tensor import Tensor

    order = rng.permutation(n)
    feats, labels = feats[order], labels[order]
    cut = int(n * 0.8)
    return LabeledDataset(
        Tensor(feats), labels, k, np.arange(cut), np.arange(cut, n)
    )


class TestTrainEnsemble:
    def test_one_member_per_class_and_reports(self):
        data = synth_multi()
        # The middle class needs an interval response on the first
        # coordinate, which trains slowly at the default rate.
        cfg = TrainConfig(learning_rate=0.2, epochs=12, seed=5)
        ens = train_ensemble(data, 4, cfg)
        assert len(ens.members) == 3
        assert len(ens.member_reports) == 3
        for rep in ens.member_reports:
            assert rep.accuracy > 0.85
            assert len(rep.loss_curve) == 12

    def test_member_seeds_follow_xor(self):
        data = synth_multi()
        ens = train_ensemble(data, 2, TrainConfig(epochs=1, seed=12))
        assert [m.spec.seed for m in ens.members] == [12 ^ 0, 12 ^ 1, 12 ^ 2]

    def test_deterministic(self):
        data = synth_multi()
        cfg = TrainConfig(epochs=2, seed=7)
        a = train_ensemble(data, 3, cfg)
        b = train_ensemble(data, 3, cfg)
        for ma, mb in zip(a.members, b.members):
            for pa, pb in zip(ma.params, mb.params):
                for key in pa:
                    np.testing.assert_array_equal(pa[key], pb[key])

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_parallel_jobs_match_sequential(self):
        data = synth_multi(n=600)
        cfg = TrainConfig(epochs=1, seed=3)
        seq = train_ensemble(data, 2, cfg, jobs=1)
        par = train_ensemble(data, 2, cfg, jobs=2)
        for ma, mb in zip(seq.members, par.members):
            for pa, pb in zip(ma.params, mb.params):
                for key in pa:
                    np.testing.assert_array_equal(pa[key], pb[key])

    @pytest.mark.parametrize(
        "jobs",
        [1, pytest.param(2, marks=pytest.mark.skipif(
            not hasattr(os, "fork"), reason="needs fork"))],
    )
    def test_divergence_names_the_class(self, jobs):
        data = synth_multi(n=600, std=1e200)  # the first step overflows the head
        cfg = TrainConfig(learning_rate=1.0, epochs=2, seed=3)
        with pytest.raises(
            DivergenceError, match=r"member for class [0-2] diverged: loss diverged"
        ):
            train_ensemble(data, 2, cfg, jobs=jobs)

    def test_needs_two_classes(self):
        rng = np.random.default_rng(0)
        from tinynn.datasets import LabeledDataset
        from tinynn.tensor import Tensor

        one = LabeledDataset(
            Tensor(rng.normal(size=(40, 2))), np.zeros(40, np.int64), 1,
            np.arange(30), np.arange(30, 40),
        )
        with pytest.raises(DataError):
            train_ensemble(one, 2, TrainConfig(epochs=1))


class TestPredictEvaluate:
    def setup_ensemble(self):
        # Narrow members tend to learn only one edge of the middle
        # class's interval; 16 units is enough to get both.
        data = synth_multi(std=0.3)
        ens = train_ensemble(data, 16, TrainConfig(learning_rate=0.2, epochs=20, seed=1))
        return data, ens

    def test_positive_sets_respect_threshold_strictness(self):
        data, ens = self.setup_ensemble()
        scores = member_scores(ens, data.feature_array, data.test_indices)
        sets = predict(ens, data.feature_array, data.test_indices)
        for row, pos in zip(scores, sets):
            assert pos == tuple(np.flatnonzero(row > 0.5))

    def test_evaluate_covers_full_test_split(self):
        data, ens = self.setup_ensemble()
        out = evaluate(ens, data)
        assert out.n == len(data.test_indices)
        assert out.fraction_correct > 0.8

    def test_raising_threshold_never_grows_positive_sets(self):
        data, ens = self.setup_ensemble()
        low = predict(ens, data.feature_array, data.test_indices)
        ens_hi = OvaEnsemble(
            members=ens.members, threshold=0.9, class_names=ens.class_names
        )
        high = predict(ens_hi, data.feature_array, data.test_indices)
        for lo_set, hi_set in zip(low, high):
            assert set(hi_set) <= set(lo_set)

    def test_argmax_policy_always_predicts(self):
        data, ens = self.setup_ensemble()
        out = evaluate(ens, data, policy="argmax")
        assert out.counts["no_positive"] == 0
        assert out.counts["redundant"] == 0
        # argmax can only do better than the strict rule on these blobs
        assert out.fraction_correct >= evaluate(ens, data).fraction_correct


class TestPersistence:
    def test_round_trip_identical_predictions(self, tmp_path):
        data = synth_multi(n=600)
        ens = train_ensemble(data, 3, TrainConfig(epochs=2, seed=9))
        d = str(tmp_path / "ens")
        save_ensemble(ens, d)
        assert sorted(os.listdir(d)) == [
            "ensemble.json", "member_0.ckpt", "member_1.ckpt", "member_2.ckpt"
        ]
        loaded = load_ensemble(d)
        assert loaded.class_names == ens.class_names
        assert loaded.threshold == ens.threshold
        a = member_scores(ens, data.feature_array, data.test_indices)
        b = member_scores(loaded, data.feature_array, data.test_indices)
        np.testing.assert_array_equal(a, b)

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(DataError, match="input shape"):
            OvaEnsemble(members=[build_mlp(3, 2, 0), build_mlp(4, 2, 1)])


class TestCsv:
    def make_outcome(self):
        sets = [(0,), (1, 2), ()]
        labels = np.array([0, 1, 2])
        return outcome_from_positive_sets(sets, labels), labels

    def test_verdicts_csv(self, tmp_path):
        out, labels = self.make_outcome()
        path = str(tmp_path / "v.csv")
        write_verdicts_csv(path, out, np.array([10, 11, 12]), labels)
        lines = open(path).read().splitlines()
        assert lines[1] == "sample_index,true_label,positive_set,verdict"
        assert lines[2] == "10,0,0,correct"
        assert lines[3] == "11,1,1|2,redundant"
        assert lines[4] == "12,2,,no_positive"

    def test_summary_csv(self, tmp_path):
        out, _ = self.make_outcome()
        path = str(tmp_path / "s.csv")
        write_outcome_summary_csv(path, out)
        text = open(path).read()
        assert "count_correct,1" in text
        assert "n,3" in text
        assert "max_positive_set,2" in text
