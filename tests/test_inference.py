import dataclasses
import hashlib
import json
import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import build_masksembles_spec, build_mcd_spec, lenet_doc, mlp_doc, rng
from mcexit import dropout, inference, metrics, netspec, runtime
from mcexit.dropout import (
    DropoutConfig,
    RngStream,
    generate_masks,
    masksembles_forward,
    mcd_forward,
)
from mcexit.inference import PredictionSet
from mcexit.runtime import QFormat


def uncached_sample(me, x, weights, exit_index, pass_index, seed, qformat=None):
    """Reference path: rerun the whole network from the input for one
    (exit, pass) pair instead of reusing a cached trunk activation."""
    ex = me.exits[exit_index - 1]
    depth = netspec.attach_depth(me, ex.attach_after)
    h = np.asarray(x, dtype=np.float32)
    for layer in me.trunk.layers[: depth + 1]:
        h = runtime.forward(layer, h, weights, qformat)
    return uncached_head(me, h, weights, exit_index, pass_index, seed, qformat)


def uncached_head(me, h, weights, exit_index, pass_index, seed, qformat=None):
    """One pass of one exit head from feature h, requantizing after every
    layer and dropout site."""
    cfg = me.dropout
    for layer in me.exits[exit_index - 1].head_layers:
        if layer.kind == "dropout_point":
            if cfg.kind == "mcd":
                stream = RngStream(seed, pass_index, layer.id)
                h = mcd_forward(h, cfg.keep_rate, cfg.granularity, stream, cfg.inverted)
            else:
                table = generate_masks(
                    inference.site_feature_count(me, exit_index, layer.id),
                    cfg.num_masks,
                    cfg.scale,
                )
                h = masksembles_forward(h, pass_index, table)
            if qformat is not None:
                h = runtime.quantize(h, qformat)
        else:
            h = runtime.forward(layer, h, weights, qformat)
    return h


def scoring_case(case, request):
    """(spec, weights, inputs) for one of the dataset-scoring cases: the
    trained MLPs of the fixtures, or a small conv net with initialised
    weights and channel-granularity MC dropout."""
    if case.startswith("conv"):
        me = netspec.place_exits(netspec.parse_network(lenet_doc()))
        me = netspec.insert_dropout(me, DropoutConfig(kind="mcd", keep_rate=0.5, seed=2), 1)
        weights = runtime.init_weights(netspec.all_layers(me), 4)
        gen = np.random.Generator(np.random.Philox(key=9))
        return me, weights, gen.standard_normal((4, 1, 12, 12)).astype(np.float32)
    kind = case.removesuffix("_q8")
    me = request.getfixturevalue(f"{kind}_spec")
    weights = request.getfixturevalue(f"{kind}_weights")
    data = request.getfixturevalue("blob_data")
    return me, weights, data.features[:4]


def exit_probs(preds, k, mode):
    """The probabilities exit k answers with under mode, from the full
    samples of predict."""
    if mode == "ensemble_so_far":
        return inference.ensemble(preds, k)
    return preds.samples[k - 1].mean(axis=0)


def rule_exit(preds, threshold, mode):
    """The exit confidence early exit must stop at: the first whose
    probabilities reach the threshold, else the last."""
    for k in range(1, preds.n_exit):
        if exit_probs(preds, k, mode).max() >= threshold:
            return k
    return preds.n_exit


def confidence_rig():
    """Two-exit net whose heads emit fixed probabilities for any input:
    exit 1 softmaxes to ~[0.7, 0.3] and the final exit to ~[0.9, 0.1]."""
    net = netspec.parse_network(
        {
            "input_shape": [4],
            "layers": [
                {"id": "d1", "kind": "dense", "params": {"in_features": 4, "out_features": 4}},
                {"id": "r1", "kind": "relu"},
                {"id": "p1", "kind": "avg_pool", "params": {"window": 2}},
                {"id": "d2", "kind": "dense", "params": {"in_features": 2, "out_features": 2}},
                {"id": "r2", "kind": "relu"},
                {"id": "fc", "kind": "dense", "params": {"in_features": 2, "out_features": 2}},
                {"id": "sm", "kind": "softmax"},
            ],
        }
    )
    me = netspec.place_exits(net)
    # keep_rate 1.0 keeps every unit, so each pass repeats the same numbers
    me = netspec.insert_dropout(me, DropoutConfig(kind="mcd", keep_rate=1.0, seed=0), 1)
    weights = runtime.zero_weights(netspec.all_layers(me))
    weights["exit1/fc"]["bias"] = np.array([math.log(7.0), math.log(3.0)], dtype=np.float32)
    weights["fc"]["bias"] = np.array([math.log(9.0), 0.0], dtype=np.float32)
    return me, weights


class TestPredict:
    @settings(max_examples=20, deadline=None)
    @given(n_pass=st.integers(1, 5), n_exit=st.integers(1, 3))
    def test_sample_count_is_exits_times_passes(self, n_pass, n_exit):
        me = netspec.keep_exits(build_mcd_spec(), n_exit)
        weights = runtime.zero_weights(netspec.all_layers(me))
        preds = inference.predict(me, np.zeros(16, dtype=np.float32), n_pass, weights, seed=1)
        assert preds.n_sample == n_exit * n_pass
        assert preds.samples.shape == (n_exit, n_pass, 3)

    def test_rows_are_probability_vectors(self, mcd_spec, mcd_weights, blob_data):
        preds = inference.predict(mcd_spec, blob_data.features[0], 4, mcd_weights, seed=5)
        assert preds.samples.min() >= 0
        np.testing.assert_allclose(preds.samples.sum(axis=2), 1.0, atol=1e-6)

    def test_default_seed_is_the_dropout_seed(self, mcd_spec, mcd_weights, blob_data):
        x = blob_data.features[3]
        implicit = inference.predict(mcd_spec, x, 3, mcd_weights)
        explicit = inference.predict(mcd_spec, x, 3, mcd_weights, seed=mcd_spec.dropout.seed)
        assert np.array_equal(implicit.samples, explicit.samples)

    def test_passes_differ_under_mcd(self, mcd_spec, mcd_weights, blob_data):
        preds = inference.predict(mcd_spec, blob_data.features[1], 4, mcd_weights, seed=9)
        assert not np.array_equal(preds.samples[0, 0], preds.samples[0, 1])


class TestCachedAgainstUncached:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_mcd_bit_identical(self, mcd_spec, mcd_weights, blob_data, seed):
        x = blob_data.features[seed]
        preds = inference.predict(mcd_spec, x, 3, mcd_weights, seed=seed)
        for k in range(1, mcd_spec.n_exit + 1):
            for p in range(3):
                ref = uncached_sample(mcd_spec, x, mcd_weights, k, p, seed)
                assert np.array_equal(preds.samples[k - 1, p], ref.astype(np.float64))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_masksembles_bit_identical(
        self, masksembles_spec, masksembles_weights, blob_data, seed
    ):
        x = blob_data.features[10 + seed]
        preds = inference.predict(masksembles_spec, x, 4, masksembles_weights, seed=seed)
        for k in range(1, masksembles_spec.n_exit + 1):
            for p in range(4):
                ref = uncached_sample(masksembles_spec, x, masksembles_weights, k, p, seed)
                assert np.array_equal(preds.samples[k - 1, p], ref.astype(np.float64))

    def test_quantized_path_bit_identical(self, mcd_spec, mcd_weights, blob_data):
        x = blob_data.features[7]
        q = QFormat(8, 3)
        preds = inference.predict(mcd_spec, x, 2, mcd_weights, seed=4, qformat=q)
        for k in range(1, mcd_spec.n_exit + 1):
            for p in range(2):
                ref = uncached_sample(mcd_spec, x, mcd_weights, k, p, 4, qformat=q)
                assert np.array_equal(preds.samples[k - 1, p], ref.astype(np.float64))


def first_layer_doc(first):
    """The README MLP behind a first layer that does no arithmetic: relu,
    max_pool or flatten. It meets the raw input, which is off the grid,
    so it must still quantize."""
    layer = {"id": "in", "kind": first}
    shape = {"relu": [16], "max_pool": [32], "flatten": [1, 4, 4]}[first]
    if first == "max_pool":
        layer["params"] = {"window": 2}
    return {"input_shape": shape, "layers": [layer, *mlp_doc()["layers"]]}


def grid_case(net, kind):
    """(spec, weights, inputs) of a net with dropout of the given kind:
    one of first_layer_doc's; the README MLP with a softmax between d1 and
    r1, whose float output r1 must quantize; or the conv net, whose relu,
    max_pool and flatten layers follow conv layers."""
    if net == "lenet":
        doc = lenet_doc()
    elif net == "softmax":
        doc = mlp_doc()
        doc["layers"].insert(1, {"id": "mid", "kind": "softmax"})
    else:
        doc = first_layer_doc(net)
    me = netspec.place_exits(netspec.parse_network(doc))
    if kind == "mcd":
        cfg = DropoutConfig(kind="mcd", keep_rate=0.75, seed=3)
    else:
        cfg = DropoutConfig(kind="masksembles", num_masks=4, scale=2.0, seed=3)
    me = netspec.insert_dropout(me, cfg, 1)
    weights = runtime.init_weights(netspec.all_layers(me), 5)
    inputs = 2 * rng(8).standard_normal((3, *me.trunk.input_shape))
    return me, weights, inputs.astype(np.float32)


def uncached_predictions(me, x, weights, n_pass, seed, qformat):
    """predict's samples, each from uncached_sample, which reruns the
    whole network and requantizes after every layer."""
    samples = [
        [uncached_sample(me, x, weights, k, p, seed, qformat) for p in range(n_pass)]
        for k in range(1, me.n_exit + 1)
    ]
    return PredictionSet(
        samples=np.array(samples, dtype=np.float64),
        n_exit=me.n_exit,
        n_pass=n_pass,
        class_count=me.class_count,
    )


GRID_FORMATS = [
    QFormat(8, 3),
    QFormat(8, 3, mode="truncate"),
    QFormat(8, 3, saturating=False),
    QFormat(6, 2, mode="truncate", saturating=False),
]


class TestGridSkip:
    """The executor skips a requantization only where it cannot change a
    bit: every quantized output must equal the oracle that requantizes
    after every layer."""

    @pytest.mark.parametrize("q", GRID_FORMATS, ids=["rne", "truncate", "wrap", "truncate_wrap"])
    @pytest.mark.parametrize("kind", ["mcd", "masksembles"])
    @pytest.mark.parametrize("net", ["relu", "max_pool", "flatten", "softmax", "lenet"])
    def test_matches_requantizing_every_layer(self, net, kind, q):
        me, weights, inputs = grid_case(net, kind)
        seeds = inference.dataset_seeds(6, len(inputs))
        refs = [uncached_predictions(me, x, weights, 3, s, q) for x, s in zip(inputs, seeds)]
        for x, s, ref in zip(inputs, seeds, refs):
            preds = inference.predict(me, x, 3, weights, s, q)
            assert np.array_equal(preds.samples, ref.samples)
        rows = inference.ensemble_dataset(me, weights, inputs, 3, 6, q)
        assert np.array_equal(rows, [inference.ensemble(ref) for ref in refs])
        flops = metrics.count_flops(me)
        for mode in inference.EXIT_MODES:
            # the median exit-1 confidence, so some inputs go on to resume the trunk
            threshold = float(np.median([exit_probs(r, 1, mode).max() for r in refs]))
            scores = inference.confidence_exit_dataset(
                me, weights, inputs, 3, 6, threshold, mode, flops, q
            )
            for i, ref in enumerate(refs):
                k = rule_exit(ref, threshold, mode)
                assert scores.exits_taken[i] == k, (mode, i)
                assert np.array_equal(scores.probs[i], exit_probs(ref, k, mode)), (mode, i)

    @pytest.mark.parametrize("first", ["relu", "max_pool", "flatten"])
    def test_a_first_layer_on_the_raw_input_quantizes(self, first, monkeypatch):
        me, weights, inputs = grid_case(first, "mcd")
        quantized: dict[str, bool] = {}
        original = runtime.forward_batch

        def spy(layer, x, w, qformat=None, flop_counter=None):
            quantized[layer.id] = qformat is not None
            return original(layer, x, w, qformat, flop_counter)

        monkeypatch.setattr(runtime, "forward_batch", spy)
        inference.predict(me, inputs[0], 2, weights, 1, QFormat(8, 3))
        assert quantized["in"]
        # relus after a dense layer keep its grid; pooling by averages leaves it
        assert not quantized["r1"] and not quantized["r2"] and not quantized["r3"]
        assert quantized["p1"] and quantized["p2"]

    def test_quantize_calls_on_the_readme_mlp(self, mcd_spec, blob_data, monkeypatch):
        """A fresh store's weights quantize on its first 8-bit predict only;
        every predict quantizes the same activations."""
        weights = runtime.init_weights(netspec.all_layers(mcd_spec), 3)
        stored = {id(a) for named in weights.values() for a in named.values()}
        calls = {"weights": 0, "activations": 0}
        original = runtime.quantize

        def spy(x, q, **kwargs):
            calls["weights" if id(x) in stored else "activations"] += 1
            return original(x, q, **kwargs)

        monkeypatch.setattr(runtime, "quantize", spy)
        x = blob_data.features[0]
        inference.predict(mcd_spec, x, 3, weights, 1, QFormat(8, 3))
        # weights and biases of 6 dense layers; their 6 outputs, 2 average
        # pools and 3 MC-dropout sites; the 3 trunk relus quantize nothing
        assert calls == {"weights": 12, "activations": 11}
        inference.predict(mcd_spec, x, 3, weights, 1, QFormat(8, 3))
        assert calls == {"weights": 12, "activations": 22}


class TestRunTrunk:
    def test_caches_exactly_the_attach_points(self, mcd_spec, mcd_weights):
        cached = inference.run_trunk(mcd_spec, np.zeros(16, dtype=np.float32), mcd_weights)
        assert set(cached) == {ex.attach_after for ex in mcd_spec.exits}
        for ex in mcd_spec.exits:
            expected = netspec.attach_shape(mcd_spec, ex.attach_after)
            assert cached[ex.attach_after].shape == tuple(expected)

    def test_stops_at_the_deepest_attach(self, mcd_spec, mcd_weights):
        counter = runtime.FlopCounter()
        inference.run_trunk(mcd_spec, np.zeros(16, dtype=np.float32), mcd_weights, None, counter)
        deepest = netspec.deepest_attach(mcd_spec)
        expected = 0
        shape = mcd_spec.trunk.input_shape
        for layer in mcd_spec.trunk.layers[: deepest + 1]:
            expected += netspec.flops_of(layer, shape)
            shape = netspec.output_shape(layer, shape)
        assert counter.total == expected


class TestRunExitSamples:
    def test_exit_index_bounds(self, mcd_spec, mcd_weights):
        cached = inference.run_trunk(mcd_spec, np.zeros(16, dtype=np.float32), mcd_weights)
        with pytest.raises(ValueError):
            inference.run_exit_samples(cached, mcd_spec, 0, 2, mcd_weights, 1)
        with pytest.raises(ValueError):
            inference.run_exit_samples(cached, mcd_spec, 4, 2, mcd_weights, 1)

    def test_n_pass_must_be_positive(self, mcd_spec, mcd_weights):
        cached = inference.run_trunk(mcd_spec, np.zeros(16, dtype=np.float32), mcd_weights)
        with pytest.raises(ValueError):
            inference.run_exit_samples(cached, mcd_spec, 1, 0, mcd_weights, 1)

    def test_masksembles_pass_budget(self, masksembles_spec, masksembles_weights):
        cached = inference.run_trunk(
            masksembles_spec, np.zeros(16, dtype=np.float32), masksembles_weights
        )
        with pytest.raises(ValueError, match="masks"):
            inference.run_exit_samples(cached, masksembles_spec, 1, 5, masksembles_weights, 1)

    def test_missing_cached_feature(self, mcd_spec, mcd_weights):
        with pytest.raises(KeyError):
            inference.run_exit_samples({}, mcd_spec, 1, 2, mcd_weights, 1)

    @pytest.mark.parametrize("kind", ["mcd", "masksembles"])
    def test_a_float_cache_is_requantized(self, kind, request, blob_data):
        me = request.getfixturevalue(f"{kind}_spec")
        weights = request.getfixturevalue(f"{kind}_weights")
        q = QFormat(8, 3)
        cached = inference.run_trunk(me, blob_data.features[5], weights)  # float trunk
        for k, ex in enumerate(me.exits, 1):
            rows = inference.run_exit_samples(cached, me, k, 3, weights, 2, q)
            for p in range(3):
                ref = uncached_head(me, cached[ex.attach_after], weights, k, p, 2, q)
                assert np.array_equal(rows[p], ref.astype(np.float64)), (k, p)

    def test_same_seed_same_rows(self, mcd_spec, mcd_weights, blob_data):
        cached = inference.run_trunk(mcd_spec, blob_data.features[2], mcd_weights)
        a = inference.run_exit_samples(cached, mcd_spec, 2, 3, mcd_weights, 17)
        b = inference.run_exit_samples(cached, mcd_spec, 2, 3, mcd_weights, 17)
        assert np.array_equal(a, b)


class TestEnsemble:
    def make_preds(self):
        samples = np.array(
            [
                [[1.0, 0.0], [0.5, 0.5]],
                [[0.75, 0.25], [0.25, 0.75]],
            ]
        )
        return PredictionSet(samples=samples, n_exit=2, n_pass=2, class_count=2)

    def test_mean_over_all_samples(self):
        probs = inference.ensemble(self.make_preds())
        assert probs.tolist() == [0.625, 0.375]

    def test_mean_up_to_an_exit(self):
        probs = inference.ensemble(self.make_preds(), upto_exit=1)
        assert probs.tolist() == [0.75, 0.25]

    def test_upto_exit_bounds(self):
        preds = self.make_preds()
        with pytest.raises(ValueError):
            inference.ensemble(preds, upto_exit=0)
        with pytest.raises(ValueError):
            inference.ensemble(preds, upto_exit=3)


class TestConfidenceExit:
    def test_low_threshold_takes_the_early_exit(self):
        me, weights = confidence_rig()
        x = np.ones(4, dtype=np.float32)
        decision = inference.confidence_exit(me, x, 0.6, "per_exit", weights, n_pass=2)
        assert decision.exit_taken == 1
        assert decision.confidence == pytest.approx(0.7, abs=1e-6)
        assert decision.probs == pytest.approx([0.7, 0.3], abs=1e-6)

    def test_high_threshold_falls_through_to_the_final_exit(self):
        me, weights = confidence_rig()
        x = np.ones(4, dtype=np.float32)
        decision = inference.confidence_exit(me, x, 0.8, "per_exit", weights, n_pass=2)
        assert decision.exit_taken == 2
        assert decision.probs == pytest.approx([0.9, 0.1], abs=1e-6)

    def test_ensemble_mode_scores_the_running_mean(self):
        me, weights = confidence_rig()
        x = np.ones(4, dtype=np.float32)
        decision = inference.confidence_exit(me, x, 0.8, "ensemble_so_far", weights, n_pass=2)
        assert decision.exit_taken == 2
        assert decision.mode == "ensemble_so_far"
        assert decision.probs == pytest.approx([0.8, 0.2], abs=1e-6)

    def test_deeper_heads_are_never_run_after_exiting(self, monkeypatch):
        me, weights = confidence_rig()
        seen = []
        original = runtime.forward_batch

        def spy(layer, x, w, qformat=None, flop_counter=None):
            seen.append(layer.id)
            return original(layer, x, w, qformat, flop_counter)

        monkeypatch.setattr(runtime, "forward_batch", spy)
        inference.confidence_exit(me, np.ones(4, dtype=np.float32), 0.6, "per_exit", weights, 2)
        assert "exit1/fc" in seen
        assert "fc" not in seen and "sm" not in seen
        # the trunk stops at exit 1's attach point too
        assert "d2" not in seen
        assert "r2" not in seen

    def test_threshold_bounds(self):
        me, weights = confidence_rig()
        x = np.ones(4, dtype=np.float32)
        for bad in (0.0, 1.0, -0.2):
            with pytest.raises(ValueError):
                inference.confidence_exit(me, x, bad, "per_exit", weights, 2)

    def test_mode_is_checked(self):
        me, weights = confidence_rig()
        with pytest.raises(ValueError, match="mode"):
            inference.confidence_exit(me, np.ones(4, dtype=np.float32), 0.5, "greedy", weights, 2)


class TestPredictionSet:
    def test_round_trip(self, mcd_spec, mcd_weights, blob_data):
        preds = inference.predict(mcd_spec, blob_data.features[4], 3, mcd_weights, seed=8)
        again = PredictionSet.from_dict(preds.to_dict())
        assert np.array_equal(preds.samples, again.samples)

    def test_json_carries_seed_and_config_digest(self, mcd_spec, mcd_weights, blob_data):
        preds = inference.predict(mcd_spec, blob_data.features[4], 2, mcd_weights, seed=8)
        doc = json.loads(preds.to_json(seed=8, config=mcd_spec.dropout))
        assert doc["seed"] == 8
        assert len(doc["dropout_config_digest"]) == 64

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            PredictionSet(samples=np.ones((2, 2, 2)) / 2, n_exit=2, n_pass=3, class_count=2)

    def test_unnormalized_rows_rejected(self):
        samples = np.full((1, 1, 2), 0.4)
        with pytest.raises(ValueError, match="sum to 1"):
            PredictionSet(samples=samples, n_exit=1, n_pass=1, class_count=2)

    def test_n_sample(self):
        samples = np.full((2, 3, 2), 0.5)
        assert PredictionSet(samples=samples, n_exit=2, n_pass=3, class_count=2).n_sample == 6


class TestDatasetHelpers:
    def test_dataset_seeds_are_deterministic_and_distinct(self):
        a = inference.dataset_seeds(42, 50)
        b = inference.dataset_seeds(42, 50)
        assert a == b
        assert len(set(a)) == 50

    def test_ensemble_dataset_matches_per_input_calls(self, request, monkeypatch):
        # blocks of 3 so the 4 inputs also cross a block boundary
        monkeypatch.setattr(inference, "BLOCK_INPUTS", 3)
        for case in ("mcd", "masksembles", "mcd_q8", "masksembles_q8", "conv", "conv_q8"):
            me, weights, inputs = scoring_case(case, request)
            qformat = QFormat(8, 3) if case.endswith("_q8") else None
            rows = inference.ensemble_dataset(me, weights, inputs, 3, seed=6, qformat=qformat)
            seeds = inference.dataset_seeds(6, len(inputs))
            assert rows.shape == (len(inputs), me.class_count), case
            for i, x in enumerate(inputs):
                expected = inference.ensemble(
                    inference.predict(me, x, 3, weights, seed=seeds[i], qformat=qformat)
                )
                assert np.array_equal(rows[i], expected), (case, i)

    @pytest.mark.parametrize("mode", inference.EXIT_MODES)
    @pytest.mark.parametrize(
        "case", ["mcd", "masksembles", "mcd_q8", "masksembles_q8", "conv", "conv_q8"]
    )
    def test_confidence_exit_dataset_matches_per_input_calls(self, case, mode, request, monkeypatch):
        monkeypatch.setattr(inference, "BLOCK_INPUTS", 3)
        me, weights, inputs = scoring_case(case, request)
        qformat = QFormat(8, 3) if case.endswith("_q8") else None
        flops = metrics.count_flops(me)
        seeds = inference.dataset_seeds(6, len(inputs))
        preds = [inference.predict(me, x, 3, weights, s, qformat) for x, s in zip(inputs, seeds)]
        # the median exit-1 confidence, so some inputs stop there and some go on
        threshold = float(np.median([inference.ensemble(p, 1).max() for p in preds]))
        scores = inference.confidence_exit_dataset(
            me, weights, inputs, 3, 6, threshold, mode, flops, qformat
        )
        assert 1 in scores.exits_taken and scores.exits_taken.max() > 1
        spent = []
        for i, (x, p) in enumerate(zip(inputs, preds)):
            d = inference.confidence_exit(me, x, threshold, mode, weights, 3, seeds[i], qformat)
            assert np.array_equal(scores.probs[i], d.probs)
            assert scores.exits_taken[i] == d.exit_taken
            # an oracle that shares no code with early exit: the answer of
            # the exit that the threshold rule picks from predict's samples
            assert d.exit_taken == rule_exit(p, threshold, mode)
            assert np.array_equal(d.probs, exit_probs(p, d.exit_taken, mode))
            spent.append(flops.flop_main + 3 * sum(flops.per_exit[: d.exit_taken]))
        assert scores.avg_flops_per_input == sum(spent) / len(spent)

    @pytest.mark.parametrize("mode", inference.EXIT_MODES)
    def test_trunk_runs_only_on_the_inputs_that_go_on(self, mode, monkeypatch):
        me = netspec.place_exits(netspec.parse_network(lenet_doc()))
        me = netspec.insert_dropout(me, DropoutConfig(kind="mcd", keep_rate=0.5, seed=2), 1)
        weights = runtime.init_weights(netspec.all_layers(me), 4)
        inputs = np.random.Generator(np.random.Philox(key=9)).standard_normal((12, 1, 12, 12))
        inputs = inputs.astype(np.float32)
        seeds = inference.dataset_seeds(6, len(inputs))
        preds = [inference.predict(me, x, 3, weights, s) for x, s in zip(inputs, seeds)]
        threshold = float(np.median([exit_probs(p, 1, mode).max() for p in preds]))
        rows: dict[str, int] = {}
        original = runtime.forward_batch

        def spy(layer, x, w, qformat=None, flop_counter=None):
            rows[layer.id] = rows.get(layer.id, 0) + len(x)
            return original(layer, x, w, qformat, flop_counter)

        monkeypatch.setattr(runtime, "forward_batch", spy)
        scores = inference.confidence_exit_dataset(
            me, weights, inputs, 3, 6, threshold, mode, metrics.count_flops(me)
        )
        taken = scores.exits_taken
        assert set(taken) == {1, 2, 3}
        attach = [netspec.attach_depth(me, ex.attach_after) for ex in me.exits]
        for depth, layer in enumerate(me.trunk.layers):
            # a layer between exit k-1's attach point and exit k's runs on
            # the inputs that no exit before k answered, once each
            k = next(k for k, a in enumerate(attach, 1) if a >= depth)
            assert rows[layer.id] == np.count_nonzero(taken >= k), layer.id


def four_exit_mlp() -> dict:
    """An MLP with three dense/relu/pool stages and then a dense/relu stage
    before its classifier, so exit placement finds four exits."""
    layers = []
    width = 16
    for s in range(1, 4):
        layers += [
            {"id": f"d{s}", "kind": "dense", "params": {"in_features": width, "out_features": 24}},
            {"id": f"r{s}", "kind": "relu"},
            {"id": f"p{s}", "kind": "avg_pool", "params": {"window": 2}},
        ]
        width = 12
    layers += [
        {"id": "dz", "kind": "dense", "params": {"in_features": width, "out_features": 16}},
        {"id": "rz", "kind": "relu"},
        {"id": "fc", "kind": "dense", "params": {"in_features": 16, "out_features": 3}},
        {"id": "sm", "kind": "softmax"},
    ]
    return {"input_shape": [16], "layers": layers}


def exits_case(n_exit: int, kind: str = "mcd", depth: int = 1):
    """(spec, weights) of a fresh MLP with n_exit exits and `depth` dropout
    sites in every head; the spec has no step table yet."""
    me = netspec.place_exits(netspec.parse_network(four_exit_mlp()))
    if kind == "mcd":
        cfg = DropoutConfig(kind="mcd", keep_rate=0.5, seed=2)
    else:
        cfg = DropoutConfig(kind="masksembles", num_masks=4, scale=2.0, seed=2)
    me = netspec.keep_exits(netspec.insert_dropout(me, cfg, depth), n_exit)
    return me, runtime.init_weights(netspec.all_layers(me), 4)


class CountingHashlib:
    """Stands in for the hashlib module of mcexit.dropout, counting the
    blake2b states it builds."""

    def __init__(self):
        self.blake2b_calls = 0

    def blake2b(self, *args, **kwargs):
        self.blake2b_calls += 1
        return hashlib.blake2b(*args, **kwargs)


class TestMonteCarloCalls:
    """How one Monte-Carlo call spends its draws and its softmax."""

    @pytest.mark.parametrize("n_exit", [1, 2, 3, 4])
    def test_one_softmax_per_samples_call(self, n_exit, monkeypatch):
        me, weights = exits_case(n_exit)
        assert me.n_exit == n_exit
        calls = []
        original = runtime.softmax
        monkeypatch.setattr(runtime, "softmax", lambda x: calls.append(x.shape) or original(x))
        monkeypatch.setattr(inference, "BLOCK_INPUTS", 3)
        inputs = rng(5).standard_normal((7, 16)).astype(np.float32)
        for q in (None, QFormat(8, 3)):
            calls.clear()
            inference.predict(me, inputs[0], 4, weights, 1, q)
            assert calls == [(1, n_exit, 4, 3)]
            calls.clear()
            inference.ensemble_dataset(me, weights, inputs, 4, 1, q)  # blocks of 3, 3 and 1
            assert calls == [(3, n_exit, 4, 3), (3, n_exit, 4, 3), (1, n_exit, 4, 3)]
            calls.clear()
            # early exit decides exit by exit, so each exit it runs has its own
            inference.confidence_exit(me, inputs[0], 1.0 - 1e-9, "per_exit", weights, 4, 1, q)
            assert calls == [(4, 3)] * n_exit

    @pytest.mark.parametrize("depth", [1, 2])
    def test_one_key_prefix_per_input_per_call(self, depth, monkeypatch):
        me, weights = exits_case(4, depth=depth)
        sites = sum(layer.kind == "dropout_point" for ex in me.exits for layer in ex.head_layers)
        assert sites == 4 * depth
        inputs = rng(5).standard_normal((5, 16)).astype(np.float32)
        seeds = [11, 12, 13, 14, 15]
        monkeypatch.setattr(inference, "BLOCK_INPUTS", 2)
        cached = inference.run_trunk(me, inputs[0], weights)
        calls = [
            (1, lambda: inference.predict(me, inputs[0], 4, weights, 1)),
            (5, lambda: inference.dataset_samples(me, weights, inputs, 4, seeds)),
            (1, lambda: inference.confidence_exit(me, inputs[0], 1 - 1e-9, "per_exit", weights, 4, 1)),
            (1, lambda: inference.run_exit_samples(cached, me, 2, 4, weights, 1)),
        ]
        for expected, call in calls:
            counter = CountingHashlib()
            monkeypatch.setattr(dropout, "hashlib", counter)
            call()
            assert counter.blake2b_calls == expected

    def test_masksembles_draws_no_keys(self, monkeypatch):
        me, weights = exits_case(4, kind="masksembles")
        counter = CountingHashlib()
        monkeypatch.setattr(dropout, "hashlib", counter)
        inputs = rng(5).standard_normal((5, 16)).astype(np.float32)
        inference.dataset_samples(me, weights, inputs, 4, [1, 2, 3, 4, 5])
        assert counter.blake2b_calls == 0

    def test_a_head_without_its_softmax_is_refused(self):
        me, weights = exits_case(2)
        first = dataclasses.replace(me.exits[0], head_layers=me.exits[0].head_layers[:-1])
        me = dataclasses.replace(me, exits=(first, *me.exits[1:]))
        x = np.zeros((2, 16), np.float32)
        with pytest.raises(ValueError, match="exit 1 head must end in softmax"):
            inference.ensemble_dataset(me, weights, x, 4, 1)

    @pytest.mark.parametrize("kind", ["mcd", "masksembles"])
    @pytest.mark.parametrize("q", [None, QFormat(8, 3)], ids=["float", "q8"])
    def test_no_inputs_give_no_rows(self, kind, q):
        me, weights = exits_case(3, kind=kind)
        none = np.zeros((0, 16), np.float32)
        flops = metrics.count_flops(me)
        assert inference.ensemble_dataset(me, weights, none, 4, 1, q).shape == (0, 3)
        assert inference.dataset_samples(me, weights, none, 4, [], q).shape == (0, 3, 4, 3)
        for mode in inference.EXIT_MODES:
            scores = inference.confidence_exit_dataset(me, weights, none, 4, 1, 0.5, mode, flops, q)
            assert scores.probs.shape == (0, 3)
            assert scores.exits_taken.shape == (0,)
            assert scores.avg_flops_per_input == 0.0

    def test_threads_give_the_serial_outputs(self, mcd_spec, mcd_weights, blob_data):
        """Four threads (more than the cores of a small host), switched as
        often as the interpreter allows, run predict and ensemble_dataset
        on different inputs in their own orders, on a spec whose step table
        they resolve between them; a generator or key state shared across
        threads would mix streams."""
        xs = blob_data.features[:24]
        q8 = QFormat(8, 3)
        ops = [("predict", i, q) for i in range(0, 24, 3) for q in (None, q8)]
        ops += [("ensemble", a, q) for a in range(0, 24, 6) for q in (None, q8)]

        def run(me, op):
            kind, i, q = op
            if kind == "predict":
                return inference.predict(me, xs[i], 4, mcd_weights, i, q).samples
            return inference.ensemble_dataset(me, mcd_weights, xs[i : i + 6], 4, i, q)

        serial = [run(mcd_spec, op) for op in ops]
        fresh = dataclasses.replace(mcd_spec)  # no step table yet
        orders = [np.roll(np.arange(len(ops)), 5 * who)[:: 1 - 2 * (who % 2)] for who in range(4)]
        start = threading.Barrier(len(orders))
        results: dict[int, list] = {who: [] for who in range(len(orders))}

        def work(who: int) -> None:
            start.wait(timeout=10)
            for _ in range(3):
                results[who].append([run(fresh, ops[i]) for i in orders[who]])

        workers = [threading.Thread(target=work, args=(who,)) for who in range(len(orders))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(w.is_alive() for w in workers)
        for who, order in enumerate(orders):
            assert len(results[who]) == 3
            for outputs in results[who]:
                for i, out in zip(order, outputs):
                    assert out.tobytes() == serial[i].tobytes(), (who, ops[i])


SHARED_RULE_CONFIGS = {
    "mcd_element": DropoutConfig(kind="mcd", keep_rate=0.5, granularity="element", seed=2),
    "mcd_channel": DropoutConfig(kind="mcd", keep_rate=0.5, granularity="channel", seed=2),
    "mcd_inverted": DropoutConfig(kind="mcd", keep_rate=0.5, inverted=True, seed=2),
    "masksembles": DropoutConfig(kind="masksembles", num_masks=4, scale=2.0, seed=2),
}


class TestSharedEarlyExit:
    """early_exit_samples applies the early-exit rule to the samples of
    dataset_samples, drawn once for every threshold; it must answer bit
    for bit as confidence_exit_dataset, which runs each exit only on the
    inputs still undecided."""

    @pytest.fixture(scope="class", params=list(SHARED_RULE_CONFIGS))
    def net(self, request):
        """A conv net with rank-3 dropout sites, where element and channel
        granularity differ, its weights and 12 inputs."""
        me = netspec.place_exits(netspec.parse_network(lenet_doc()))
        me = netspec.insert_dropout(me, SHARED_RULE_CONFIGS[request.param], 1)
        inputs = rng(9).standard_normal((12, 1, 12, 12)).astype(np.float32)
        return me, runtime.init_weights(netspec.all_layers(me), 4), inputs

    @staticmethod
    def confidences(samples, mode):
        """Each input's confidence at every exit under mode, as the rule
        computes it."""
        n, n_exit, n_pass, classes = samples.shape
        out = []
        for k in range(1, n_exit + 1):
            scored = samples[:, k - 1] if mode == "per_exit" else samples[:, :k]
            scored = scored.reshape(n, -1, classes)
            out.append((np.add.reduce(scored, axis=1) / scored.shape[1]).max(axis=1))
        return np.stack(out, axis=1)

    @pytest.mark.parametrize("bits", [None, 8, 16], ids=["float", "q8", "q16"])
    @pytest.mark.parametrize("mode", inference.EXIT_MODES)
    def test_equals_confidence_exit_dataset(self, net, bits, mode, monkeypatch):
        monkeypatch.setattr(inference, "BLOCK_INPUTS", 5)  # 12 inputs cross two block edges
        me, weights, inputs = net
        q = runtime.datapath_format(bits, 3)
        flops = metrics.count_flops(me)
        seeds = inference.dataset_seeds(6, len(inputs))
        samples = inference.dataset_samples(me, weights, inputs, 3, seeds, q)
        assert samples.shape == (12, 3, 3, 3)
        conf = self.confidences(samples, mode)
        achieved = float(np.sort(conf[:, 0])[6])  # an exit-1 confidence some input reaches
        before_last = float(conf[:, :-1].max())
        assert before_last < 1.0
        thresholds = {
            "achieved": achieved,
            "all_at_exit_1": float(conf[:, 0].min()),
            "none_before_the_last": float(np.nextafter(before_last, 1.0)),
        }
        for name, t in thresholds.items():
            shared = inference.early_exit_samples(samples, t, mode, flops)
            alone = inference.confidence_exit_dataset(me, weights, inputs, 3, 6, t, mode, flops, q)
            assert shared.probs.tobytes() == alone.probs.tobytes(), name
            assert shared.exits_taken.tobytes() == alone.exits_taken.tobytes(), name
            assert shared.avg_flops_per_input == alone.avg_flops_per_input, name
            taken = shared.exits_taken
            if name == "achieved":  # the rule is >=: an input at exactly t answers at exit 1
                assert np.all(taken[conf[:, 0] == t] == 1) and taken.max() > 1
            elif name == "all_at_exit_1":
                assert np.all(taken == 1)
            else:
                assert np.all(taken == me.n_exit)

    @pytest.mark.parametrize("mode", inference.EXIT_MODES)
    def test_zero_inputs(self, net, mode):
        me, weights, inputs = net
        flops = metrics.count_flops(me)
        samples = inference.dataset_samples(me, weights, inputs[:0], 3, [])
        assert samples.shape == (0, 3, 3, 3)
        shared = inference.early_exit_samples(samples, 0.5, mode, flops)
        alone = inference.confidence_exit_dataset(me, weights, inputs[:0], 3, 6, 0.5, mode, flops)
        assert shared.probs.shape == alone.probs.shape == (0, 3)
        assert shared.exits_taken.shape == alone.exits_taken.shape == (0,)
        assert shared.avg_flops_per_input == alone.avg_flops_per_input == 0.0

    def test_threshold_and_mode_are_checked(self, net):
        me, weights, inputs = net
        samples = inference.dataset_samples(me, weights, inputs[:2], 3, [1, 2])
        flops = metrics.count_flops(me)
        with pytest.raises(ValueError, match="threshold must be in"):
            inference.early_exit_samples(samples, 1.0, "per_exit", flops)
        with pytest.raises(ValueError, match="mode must be one of"):
            inference.early_exit_samples(samples, 0.5, "nope", flops)
