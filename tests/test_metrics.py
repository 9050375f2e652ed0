import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import lenet_doc, rng
from mcexit import documents, inference, metrics, netspec, runtime
from mcexit.datasets import NoiseSpec
from mcexit.metrics import FlopReport


def brute_force_ece(probs, labels, n_bins):
    """Independent oracle: explicit per-sample bin assignment and averaging."""
    conf = [max(row) for row in probs]
    correct = [int(np.argmax(row)) == int(lab) for row, lab in zip(probs, labels)]
    total = 0.0
    for b in range(n_bins):
        lo, hi = b / n_bins, (b + 1) / n_bins
        members = [
            i
            for i, c in enumerate(conf)
            if (lo <= c < hi) or (b == n_bins - 1 and c == 1.0)
        ]
        if not members:
            continue
        acc = sum(correct[i] for i in members) / len(members)
        avg_conf = sum(conf[i] for i in members) / len(members)
        total += (len(members) / len(probs)) * abs(acc - avg_conf)
    return total


class TestFlopReport:
    def test_exit_total_and_alpha(self):
        report = FlopReport(flop_main=100, per_exit=(10, 20, 30))
        assert report.flop_exit_total == 60
        assert report.alpha == 0.6

    def test_trunkless_alpha_is_infinite(self):
        assert FlopReport(flop_main=0, per_exit=(10,)).alpha == math.inf


class TestCountFlops:
    def test_mlp_fixture_split(self, mcd_spec):
        report = metrics.count_flops(mcd_spec)
        assert report.flop_main == 1728
        assert report.per_exit == (72, 72, 96)
        assert report.alpha == 240 / 1728

    def test_lenet_split(self):
        me = netspec.place_exits(netspec.parse_network(lenet_doc()))
        report = metrics.count_flops(me)
        # conv1 2*3*3*1*4*10*10 + conv2 2*3*3*4*6*3*3 + fc1 2*6*8
        assert report.flop_main == 7200 + 3888 + 96
        assert report.per_exit == (24, 36, 48)

    def test_dropout_sites_cost_nothing(self, mcd_spec):
        from conftest import mlp_doc

        bare = netspec.place_exits(netspec.parse_network(mlp_doc()))
        assert metrics.count_flops(bare) == metrics.count_flops(mcd_spec)


class TestCostFormulas:
    def test_single_exit_examples(self):
        report = FlopReport(flop_main=100, per_exit=(10,))
        assert metrics.cost_single_exit(report, 1) == 110
        assert metrics.cost_single_exit(report, 5) == 550

    def test_single_exit_rejects_zero_samples(self):
        with pytest.raises(ValueError):
            metrics.cost_single_exit(FlopReport(flop_main=1, per_exit=(1,)), 0)

    def test_multi_exit_example(self):
        report = FlopReport(flop_main=100, per_exit=(5, 5))
        assert metrics.cost_multi_exit(report, 4, 2) == 120.0

    def test_multi_exit_collapses_when_every_sample_has_its_own_exit(self):
        report = FlopReport(flop_main=100, per_exit=(3, 7))
        assert metrics.cost_multi_exit(report, 2, 2) == 110.0

    def test_multi_exit_divisibility(self):
        report = FlopReport(flop_main=100, per_exit=(10,))
        with pytest.raises(ValueError, match="divide"):
            metrics.cost_multi_exit(report, 5, 2)

    def test_instrumented_prediction_matches_the_formula(self, mcd_spec, mcd_weights):
        from mcexit import inference

        report = metrics.count_flops(mcd_spec)
        counter = runtime.FlopCounter()
        n_pass = 4
        inference.predict(
            mcd_spec, np.zeros(16, dtype=np.float32), n_pass, mcd_weights, seed=0,
            flop_counter=counter,
        )
        n_sample = n_pass * mcd_spec.n_exit
        assert counter.total == metrics.cost_multi_exit(report, n_sample, mcd_spec.n_exit)


class TestReductionRate:
    def test_exact_when_exits_equal_samples(self):
        for n in (1, 2, 7, 64):
            for alpha in (0.0, 0.3, 1.0, 9.5):
                assert metrics.reduction_rate(alpha, n, n) == float(n)

    def test_alpha_one_example(self):
        assert abs(metrics.reduction_rate(1.0, 4, 2) - 8 / 3) < 1e-12

    def test_zero_alpha_limit_is_the_sample_count(self):
        assert metrics.reduction_rate(0.0, 12, 3) == 12.0

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            metrics.reduction_rate(-0.1, 4, 2)
        with pytest.raises(ValueError):
            metrics.reduction_rate(1.0, 0, 1)

    @settings(max_examples=200, deadline=None)
    @given(
        main=st.integers(1, 10**6),
        exit_each=st.integers(0, 10**4),
        n_exit=st.integers(1, 16),
        passes=st.integers(1, 16),
    )
    def test_reduction_times_cached_cost_equals_naive_cost(
        self, main, exit_each, n_exit, passes
    ):
        report = FlopReport(flop_main=main, per_exit=(exit_each,) * n_exit)
        n_sample = n_exit * passes
        single = metrics.cost_single_exit(report, n_sample)
        multi = metrics.cost_multi_exit(report, n_sample, n_exit)
        rate = metrics.reduction_rate(report.alpha, n_sample, n_exit)
        assert abs(rate * multi - single) <= 1e-12 * single


class TestAccuracy:
    def test_counts_argmax_hits(self):
        probs = np.array([[0.9, 0.1], [0.2, 0.8], [0.6, 0.4], [0.3, 0.7]])
        assert metrics.accuracy(probs, np.array([0, 1, 1, 0])) == 0.5

    def test_validation(self):
        with pytest.raises(ValueError):
            metrics.accuracy(np.ones((2, 2)) / 2, np.array([0]))
        with pytest.raises(ValueError):
            metrics.accuracy(np.empty((0, 2)), np.array([]))


class TestExpectedCalibrationError:
    def test_perfectly_confident_and_correct(self):
        probs = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert metrics.expected_calibration_error(probs, np.array([0, 1])) == 0.0

    def test_single_overconfident_miss(self):
        probs = np.array([[0.8, 0.2]])
        got = metrics.expected_calibration_error(probs, np.array([1]), n_bins=1)
        assert got == pytest.approx(0.8, abs=1e-12)

    def test_two_sample_single_bin(self):
        probs = np.array([[0.6, 0.4], [0.8, 0.2]])
        got = metrics.expected_calibration_error(probs, np.array([0, 1]), n_bins=1)
        assert got == pytest.approx(0.2, abs=1e-12)

    def test_single_bin_equals_accuracy_confidence_gap(self):
        gen = rng(21)
        for _ in range(10):
            n = int(gen.integers(1, 40))
            raw = gen.random((n, 3))
            probs = raw / raw.sum(axis=1, keepdims=True)
            labels = gen.integers(0, 3, size=n)
            got = metrics.expected_calibration_error(probs, labels, n_bins=1)
            gap = abs(metrics.accuracy(probs, labels) - probs.max(axis=1).mean())
            assert got == pytest.approx(gap, abs=1e-12)

    def test_full_confidence_lands_in_the_top_bin(self):
        probs = np.array([[1.0, 0.0]])
        assert metrics.expected_calibration_error(probs, np.array([1]), n_bins=15) == 1.0

    def test_matches_brute_force_oracle(self):
        gen = rng(22)
        for _ in range(100):
            n = int(gen.integers(1, 65))
            classes = int(gen.integers(2, 6))
            raw = gen.random((n, classes))
            probs = raw / raw.sum(axis=1, keepdims=True)
            labels = gen.integers(0, classes, size=n)
            n_bins = int(gen.integers(1, 20))
            got = metrics.expected_calibration_error(probs, labels, n_bins)
            want = brute_force_ece(probs, labels, n_bins)
            assert abs(got - want) <= 1e-12
            assert 0.0 <= got <= 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            metrics.expected_calibration_error(np.ones((1, 2)) / 2, np.array([0]), n_bins=0)
        with pytest.raises(ValueError):
            metrics.expected_calibration_error(np.ones((2, 2)) / 2, np.array([0]))


class TestPredictiveEntropy:
    def test_one_hot_is_zero(self):
        assert metrics.predictive_entropy([0.0, 1.0, 0.0]) == 0.0

    def test_uniform_ten_classes(self):
        got = metrics.predictive_entropy(np.full(10, 0.1))
        assert got == pytest.approx(math.log(10), abs=1e-12)

    def test_half_quarter_quarter(self):
        got = metrics.predictive_entropy([0.5, 0.25, 0.25])
        assert got == pytest.approx(1.5 * math.log(2), abs=1e-12)

    def test_bounds_on_random_vectors(self):
        gen = rng(23)
        for _ in range(50):
            classes = int(gen.integers(2, 12))
            raw = gen.random(classes) + 1e-9
            p = raw / raw.sum()
            h = metrics.predictive_entropy(p)
            assert 0.0 <= h <= math.log(classes) + 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            metrics.predictive_entropy([0.7, 0.4])
        with pytest.raises(ValueError):
            metrics.predictive_entropy([1.2, -0.2])


class TestAveragePredictiveEntropy:
    def test_zero_weights_give_maximal_entropy(self, mcd_spec):
        # 1/3 rounds in float32, shifting the entropy by ~3e-9; the exact
        # check for a representable uniform lives in the 4-class test below
        weights = runtime.zero_weights(netspec.all_layers(mcd_spec))
        noise = NoiseSpec(mean=0.0, std=1.0, count=4, seed=3)
        got = metrics.average_predictive_entropy(mcd_spec, weights, noise, n_pass=2)
        assert got == pytest.approx(math.log(3), abs=1e-8)

    def test_zero_weights_four_classes_tight(self):
        from conftest import build_mcd_spec

        me = build_mcd_spec(classes=4)
        weights = runtime.zero_weights(netspec.all_layers(me))
        noise = NoiseSpec(mean=0.0, std=1.0, count=4, seed=3)
        got = metrics.average_predictive_entropy(me, weights, noise, n_pass=2)
        assert got == pytest.approx(math.log(4), abs=1e-9)

    def test_single_input_equals_one_entropy(self, mcd_spec, mcd_weights):
        from mcexit import inference
        from mcexit.dropout import derive_seed

        noise = NoiseSpec(mean=0.0, std=1.0, count=1, seed=9)
        got = metrics.average_predictive_entropy(mcd_spec, mcd_weights, noise, n_pass=3)
        from mcexit.datasets import gaussian_inputs

        x = gaussian_inputs(noise, mcd_spec.trunk.input_shape)[0]
        preds = inference.predict(
            mcd_spec, x, 3, mcd_weights, seed=derive_seed(noise.seed, "mc", 0)
        )
        assert got == metrics.predictive_entropy(inference.ensemble(preds))

    def test_bit_exact_rerun(self, mcd_spec, mcd_weights):
        noise = NoiseSpec(mean=0.5, std=2.0, count=6, seed=11)
        a = metrics.average_predictive_entropy(mcd_spec, mcd_weights, noise, n_pass=2)
        b = metrics.average_predictive_entropy(mcd_spec, mcd_weights, noise, n_pass=2)
        assert a == b


class TestScore:
    """metrics.score scores one group of thresholds: one Scores each, and
    APE once."""

    @pytest.mark.parametrize("bits", [None, 8], ids=["float", "q8"])
    @pytest.mark.parametrize("mode", ["per_exit", "ensemble_so_far"])
    def test_a_group_scores_as_each_threshold_alone(
        self, mcd_spec, mcd_weights, blob_split, bits, mode, monkeypatch
    ):
        _, test = blob_split
        q = runtime.datapath_format(bits, 3)
        noise = NoiseSpec(mean=0.0, std=1.0, count=6, seed=3)
        flops = metrics.count_flops(mcd_spec)
        args = (mcd_spec, mcd_weights, test, 2, 5, noise, flops, q)
        thresholds = [0.9, None, 0.6, 0.99]
        alone = [metrics.score(*args, [t], mode, 10)[0] for t in thresholds]
        apes = []
        ape = metrics.average_predictive_entropy
        monkeypatch.setattr(
            metrics, "average_predictive_entropy", lambda *a: apes.append(a) or ape(*a)
        )
        group = metrics.score(*args, thresholds, mode, 10)
        assert len(apes) == 1
        assert [s.early_exit is None for s in group] == [False, True, False, False]
        for t, g, a in zip(thresholds, group, alone, strict=True):
            assert (g.accuracy, g.ece, g.ape) == (a.accuracy, a.ece, a.ape), t
            if t is not None:
                assert g.early_exit.probs.tobytes() == a.early_exit.probs.tobytes()
                assert g.early_exit.exits_taken.tobytes() == a.early_exit.exits_taken.tobytes()
                assert g.early_exit.avg_flops_per_input == a.early_exit.avg_flops_per_input
        taken = [s.early_exit.exits_taken.mean() for s in (group[2], group[0], group[3])]
        assert taken == sorted(taken) and taken[0] < taken[-1]  # a higher bar goes deeper


    @pytest.mark.parametrize(
        "thresholds, runs",
        [([0.9], ["early_exit"]), ([None], ["samples"]), ([None, 0.9, 0.6], ["samples"])],
    )
    def test_a_lone_threshold_runs_the_real_early_exit(
        self, mcd_spec, mcd_weights, blob_split, thresholds, runs, monkeypatch
    ):
        """Only a group draws every exit's samples for early exit; a lone
        threshold runs exits only as deep as each input goes."""
        calls = []

        def spy(name, tag):
            original = getattr(inference, name)
            monkeypatch.setattr(inference, name, lambda *a: calls.append(tag) or original(*a))

        spy("confidence_exit_dataset", "early_exit")
        spy("dataset_samples", "samples")
        noise = NoiseSpec(mean=0.0, std=1.0, count=4, seed=3)
        _, test = blob_split
        flops = metrics.count_flops(mcd_spec)
        metrics.score(
            mcd_spec, mcd_weights, test, 2, 5, noise, flops, None, thresholds, "per_exit", 10
        )
        assert calls == runs + ["samples"]  # the APE's


class TestReportAndWriters:
    def test_report_dict_round_trip(self):
        report = metrics.MetricsReport(
            accuracy=0.9, ece=0.05, ape=1.1, flops_fraction=0.25, n_sample=12
        )
        doc = report.to_dict()
        assert doc == {
            "accuracy": 0.9,
            "ece": 0.05,
            "ape": 1.1,
            "flops_fraction": 0.25,
            "n_sample": 12,
        }

    def test_report_includes_early_exit_fraction_when_set(self):
        report = metrics.MetricsReport(
            accuracy=0.9, ece=0.05, ape=1.1, flops_fraction=0.25, n_sample=12,
            flops_fraction_early_exit=0.125,
        )
        assert report.to_dict()["flops_fraction_early_exit"] == 0.125

    def test_write_csv_fixes_columns_and_fills_gaps(self, tmp_path):
        path = tmp_path / "rows.csv"
        rows = [{"a": 1, "b": 2, "zz": 9}, {"a": 3}]
        metrics.write_csv(path, rows, fields=("a", "b"))
        assert path.read_bytes() == b"a,b\r\n1,2\r\n3,\r\n"

    def test_write_json_is_stable(self, tmp_path):
        path = tmp_path / "doc.json"
        documents.write_json(path, {"b": 1, "a": [1, 2]})
        assert path.read_text() == '{\n  "a": [\n    1,\n    2\n  ],\n  "b": 1\n}\n'
