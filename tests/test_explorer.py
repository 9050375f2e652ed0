import dataclasses
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import mlp_doc
from mcexit import datasets, emitter, explorer, mapping, metrics, netspec, train
from mcexit.explorer import (
    Constraints,
    DesignPoint,
    EvaluationSettings,
    ExplorationGrids,
    PointResult,
    Priority,
)
from mcexit.mapping import LatencyEstimate, default_hardware_model
from mcexit.metrics import MetricsReport
from mcexit.runtime import QFormat


def make_point(**overrides):
    base = dict(
        dropout_kind="mcd",
        dropout_param=0.25,
        n_exit=2,
        n_pass=2,
        bitwidth=None,
        channel_fraction=1.0,
        mapping_engines=1,
        threshold=None,
    )
    base.update(overrides)
    return DesignPoint(**base)


def make_result(dp, accuracy=0.9, ece=0.05, ape=1.0, flops=0.5, latency_ms=1.0, fits=True):
    report = MetricsReport(
        accuracy=accuracy, ece=ece, ape=ape, flops_fraction=flops, n_sample=dp.n_sample
    )
    return PointResult(
        point=dp,
        report=report,
        latency=LatencyEstimate(cycles=latency_ms * 2e5, ms=latency_ms),
        resources={"dsp": 1.0, "bram": 1.0, "lut": 1.0, "ff": 1.0},
        fits=fits,
    )


class TestDesignPoint:
    def test_sample_count(self):
        assert make_point(n_exit=3, n_pass=4).n_sample == 12

    def test_round_trip(self):
        dp = make_point(bitwidth=8, threshold=0.7)
        assert DesignPoint.from_dict(dp.to_dict()) == dp

    def test_key_is_stable_and_injective_over_fields(self):
        a, b = make_point(), make_point(n_pass=3)
        assert a.key() == make_point().key()
        assert a.key() != b.key()

    def test_training_key_holds_only_what_the_trainer_reads(self):
        dp = make_point()
        for knob in (dict(n_pass=8), dict(bitwidth=8), dict(threshold=0.9), dict(mapping_engines=4)):
            assert make_point(**knob).training_key() == dp.training_key()
        for knob in (dict(dropout_param=0.5), dict(n_exit=3), dict(channel_fraction=0.5)):
            assert make_point(**knob).training_key() != dp.training_key()
        masks = make_point(dropout_kind="masksembles", dropout_param=2.0)
        assert masks.training_key() != replace(masks, n_pass=4).training_key()  # its mask count
        assert masks.training_key() != make_point(dropout_kind="mcd").training_key()

    def test_score_key_is_every_knob_but_the_engine_count(self):
        dp = make_point()
        assert make_point(mapping_engines=4).score_key() == dp.score_key()
        knobs = (dict(n_pass=8), dict(bitwidth=8), dict(threshold=0.9), dict(n_exit=3))
        for knob in knobs:
            assert make_point(**knob).score_key() != dp.score_key()

    def test_validation(self):
        with pytest.raises(ValueError, match="kind"):
            make_point(dropout_kind="bernoulli")
        with pytest.raises(ValueError, match="rate"):
            make_point(dropout_param=1.0)
        with pytest.raises(ValueError, match="scale"):
            make_point(dropout_kind="masksembles", dropout_param=0.5)
        with pytest.raises(ValueError, match="bitwidth"):
            make_point(bitwidth=7)
        with pytest.raises(ValueError, match="channel_fraction"):
            make_point(channel_fraction=0.3)
        with pytest.raises(ValueError):
            make_point(n_exit=0)
        with pytest.raises(ValueError):
            make_point(mapping_engines=0)
        with pytest.raises(ValueError, match="threshold"):
            make_point(threshold=1.5)


class TestEnumerate:
    def test_default_grids_sweep_both_dropout_kinds(self):
        points = explorer.enumerate_design_points(ExplorationGrids())
        assert len(points) == 8
        assert [p.dropout_param for p in points if p.dropout_kind == "mcd"] == [
            0.125, 0.25, 0.375, 0.5,
        ]
        assert [p.dropout_param for p in points if p.dropout_kind == "masksembles"] == [
            3.0, 4.0, 5.0, 6.0,
        ]

    def test_kinds_never_mix_parameters(self):
        points = explorer.enumerate_design_points(ExplorationGrids())
        for p in points:
            if p.dropout_kind == "mcd":
                assert 0.0 < p.dropout_param < 1.0
            else:
                assert p.dropout_param >= 3.0

    def test_product_count(self):
        grids = ExplorationGrids(
            mcd_rates=(0.25, 0.5),
            masksembles_scales=(),
            n_passes=(2, 4, 8),
        )
        assert len(explorer.enumerate_design_points(grids)) == 6

    def test_single_value_grids_give_one_point(self):
        grids = ExplorationGrids(mcd_rates=(0.25,), masksembles_scales=())
        points = explorer.enumerate_design_points(grids)
        assert len(points) == 1

    def test_order_is_deterministic(self):
        grids = ExplorationGrids(n_passes=(2, 4), engines=(1, 2))
        a = explorer.enumerate_design_points(grids)
        b = explorer.enumerate_design_points(grids)
        assert a == b

    def test_empty_dropout_axis_rejected(self):
        grids = ExplorationGrids(mcd_rates=(), masksembles_scales=())
        with pytest.raises(ValueError, match="empty"):
            explorer.enumerate_design_points(grids)

    def test_empty_knob_rejected(self):
        with pytest.raises(ValueError, match="n_passes"):
            explorer.enumerate_design_points(ExplorationGrids(n_passes=()))

    def test_grids_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown"):
            ExplorationGrids.from_dict({"dropout_rates": [0.25]})


class TestConstraintsAndPriority:
    def test_at_least_one_constraint(self):
        with pytest.raises(ValueError, match="at least one"):
            Constraints()
        Constraints(require_fit=True)
        Constraints(min_accuracy=0.0)

    def test_constraints_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown"):
            Constraints.from_dict({"max_power": 5})

    def test_priority_validation(self):
        with pytest.raises(ValueError):
            Priority(metrics=())
        with pytest.raises(ValueError, match="repeat"):
            Priority(metrics=("accuracy", "accuracy"))
        with pytest.raises(ValueError, match="unknown"):
            Priority(metrics=("throughput",))

    def test_priority_from_dict_rejects_a_misspelt_key(self):
        assert Priority.from_dict({"metrics": ["ece"]}).metrics == ("ece",)
        with pytest.raises(ValueError, match="tolerance"):
            Priority.from_dict({"metrics": ["ece"], "tolerance": {"ece": 0.1}})

    def test_priority_tolerances_name_metrics_and_hold_numbers(self):
        with pytest.raises(ValueError, match="unknown priority tolerances: \\['acuracy'\\]"):
            Priority(metrics=("accuracy",), tolerances={"acuracy": 0.5})
        with pytest.raises(ValueError, match="priority tolerance 'ece' must be a number"):
            Priority.from_dict({"metrics": ["ece"], "tolerances": {"ece": "0.1"}})
        with pytest.raises(ValueError, match="priority tolerances must be a JSON object"):
            Priority.from_dict({"metrics": ["ece"], "tolerances": [0.1]})
        with pytest.raises(ValueError, match="priority metrics must be a JSON array"):
            Priority.from_dict({"metrics": "ece"})

    def test_constraints_from_dict_checks_value_types(self):
        assert Constraints.from_dict({"min_accuracy": None, "max_ece": 1}).max_ece == 1
        with pytest.raises(ValueError, match="constraint key 'min_accuracy' must be a number"):
            Constraints.from_dict({"min_accuracy": "0.9"})
        with pytest.raises(ValueError, match="constraint key 'require_fit' must be true or false"):
            Constraints.from_dict({"require_fit": "yes"})

    def test_priority_tolerance_merge(self):
        pri = Priority(metrics=("accuracy", "flops"), tolerances={"accuracy": 0.01})
        assert pri.tolerances["accuracy"] == 0.01
        assert pri.tolerances["ece"] == 0.001
        assert pri.tolerances["flops"] == 0.0


class TestBuildPointSpec:
    def test_mcd_point_sets_keep_rate(self):
        net = netspec.parse_network(mlp_doc())
        me = explorer.build_point_spec(make_point(), net, 1, EvaluationSettings())
        assert me.dropout.kind == "mcd"
        assert me.dropout.keep_rate == 0.75
        assert me.n_exit == 2

    def test_masksembles_point_uses_one_mask_per_pass(self):
        net = netspec.parse_network(mlp_doc())
        dp = make_point(dropout_kind="masksembles", dropout_param=2.0, n_pass=3)
        me = explorer.build_point_spec(dp, net, 1, EvaluationSettings())
        assert me.dropout.kind == "masksembles"
        assert me.dropout.num_masks == 3
        assert me.dropout.scale == 2.0

    def test_channel_fraction_shrinks_the_trunk(self):
        net = netspec.parse_network(mlp_doc())
        me = explorer.build_point_spec(
            make_point(channel_fraction=0.5), net, 1, EvaluationSettings()
        )
        assert me.trunk.layers[0].params["out_features"] == 12


@pytest.fixture(scope="module")
def sweep_env():
    net = netspec.parse_network(mlp_doc())
    data = datasets.make_blobs(count=90, classes=3, dim=16, seed=5)
    hw = default_hardware_model()
    settings_ = EvaluationSettings(epochs=40)
    return net, data, hw, settings_


@pytest.fixture(scope="module")
def outcome_env():
    net = netspec.parse_network(mlp_doc())
    data = datasets.make_blobs(count=90, classes=3, dim=16, seed=6)
    grids = ExplorationGrids(
        mcd_rates=(0.25,),
        masksembles_scales=(2.0,),
        n_exits=(2,),
        n_passes=(2,),
    )
    settings_ = EvaluationSettings(epochs=30)
    return net, data, grids, settings_


class TestEvaluateDesignPoint:
    def test_identity_point_costs_the_whole_network(self, sweep_env):
        net, data, hw, settings_ = sweep_env
        dp = make_point(n_exit=1, n_pass=1)
        result = explorer.evaluate_design_point(dp, net, data, 4, hw, settings_, seed=2)
        assert result.ok, result.error
        assert result.report.flops_fraction == 1.0

    def test_sixteen_bit_quantization_is_nearly_free(self, sweep_env):
        net, data, hw, settings_ = sweep_env
        plain = explorer.evaluate_design_point(
            make_point(), net, data, 4, hw, settings_, seed=2
        )
        quantized = explorer.evaluate_design_point(
            make_point(bitwidth=16), net, data, 4, hw, settings_, seed=2
        )
        assert plain.ok and quantized.ok
        assert abs(plain.report.accuracy - quantized.report.accuracy) <= 0.01

    def test_impossible_channel_fraction_is_recorded_not_raised(self, sweep_env):
        _, data, hw, settings_ = sweep_env
        narrow = netspec.parse_network(
            {
                "input_shape": [16],
                "layers": [
                    {"id": "d1", "kind": "dense", "params": {"in_features": 16, "out_features": 3}},
                    {"id": "r1", "kind": "relu"},
                    {"id": "fc", "kind": "dense", "params": {"in_features": 3, "out_features": 3}},
                    {"id": "sm", "kind": "softmax"},
                ],
            }
        )
        dp = make_point(n_exit=1, channel_fraction=0.125)  # 3 features shrink to 0
        result = explorer.evaluate_design_point(dp, narrow, data, 4, hw, settings_, seed=2)
        assert not result.ok
        assert "zero width" in result.error
        with pytest.raises(ValueError):
            result.metric("accuracy")

    def test_threshold_point_reports_early_exit_fraction(self, sweep_env):
        net, data, hw, settings_ = sweep_env
        dp = make_point(threshold=0.6)
        result = explorer.evaluate_design_point(dp, net, data, 4, hw, settings_, seed=2)
        assert result.ok, result.error
        early = result.report.flops_fraction_early_exit
        assert early is not None
        assert early <= result.report.flops_fraction + 1e-12

    def test_settings_validation(self):
        with pytest.raises(ValueError):
            EvaluationSettings(exit_mode="always_last")

    @pytest.mark.parametrize("key", ["channel_mode", "base_weights"])
    def test_settings_from_dict_takes_every_field_and_no_other(self, key):
        assert EvaluationSettings.from_dict({"epochs": 7, "n_bins": 5}).n_bins == 5
        with pytest.raises(ValueError, match=key):
            EvaluationSettings.from_dict({key: "slice"})

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"epochs": "3"}, "'epochs' must be an integer, got str"),
            ({"epochs": 3.0}, "'epochs' must be an integer, got float"),
            ({"batch": True}, "'batch' must be an integer, got bool"),
            ({"lr": "0.3"}, "'lr' must be a number, got str"),
            ({"exit_mode": 1}, "'exit_mode' must be a string, got int"),
        ],
    )
    def test_settings_from_dict_rejects_a_value_of_the_wrong_type(self, doc, message):
        with pytest.raises(ValueError, match=f"settings key {message}"):
            EvaluationSettings.from_dict(doc)
        assert EvaluationSettings.from_dict({"lr": 1, "test_fraction": 0.25}).lr == 1

    def test_point_plan_matches_a_fresh_mapping(self, sweep_env):
        """The winner's plan reuses its evaluation's estimates, which must
        equal a mapping worked out again from its spec. integer_bits 5 is
        clamped to the 4-bit width."""
        net, data, hw, _ = sweep_env
        settings_ = EvaluationSettings(epochs=5, integer_bits=5)
        dp = make_point(bitwidth=4, mapping_engines=2)
        result = explorer.evaluate_design_point(dp, net, data, 4, hw, settings_, seed=2)
        assert result.ok, result.error
        me = explorer.build_point_spec(dp, net, 2, settings_)
        plan = mapping.build_mapping(dp.n_sample, dp.mapping_engines)
        fresh = emitter.emit_plan(
            me,
            plan,
            hw,
            mapping.estimate_latency(plan, metrics.count_flops(me), hw),
            mapping.estimate_resources(plan, me, hw),
            qformat=QFormat(total_bits=4, integer_bits=4),
            design=dp.to_dict(),
            metrics_report=result.report,
        )
        assert explorer.point_plan(result, net, hw, settings_, 2) == fresh


class TestFilterAndRank:
    def test_constraints_filter(self):
        good = make_result(make_point(), accuracy=0.95)
        bad = make_result(make_point(n_pass=3), accuracy=0.5)
        ranked, best = explorer.filter_and_rank(
            [bad, good], Constraints(min_accuracy=0.9), Priority(metrics=("accuracy",))
        )
        assert [r.point for r in ranked] == [good.point]
        assert best is good

    def test_empty_feasible_set(self):
        results = [make_result(make_point(), accuracy=0.2)]
        ranked, best = explorer.filter_and_rank(
            results, Constraints(min_accuracy=0.9), Priority(metrics=("accuracy",))
        )
        assert ranked == []
        assert best is None

    def test_failures_never_rank(self):
        failed = PointResult(point=make_point(), error="boom")
        ranked, best = explorer.filter_and_rank(
            [failed], Constraints(min_accuracy=0.0), Priority(metrics=("accuracy",))
        )
        assert best is None

    def test_accuracy_tie_falls_through_to_flops(self):
        a = make_result(make_point(), accuracy=0.9000, flops=0.5)
        b = make_result(make_point(n_pass=3), accuracy=0.9005, flops=0.4)
        ranked, best = explorer.filter_and_rank(
            [a, b],
            Constraints(min_accuracy=0.0),
            Priority(metrics=("accuracy", "flops")),
        )
        assert best is b

    def test_clear_accuracy_gap_ignores_flops(self):
        a = make_result(make_point(), accuracy=0.95, flops=0.9)
        b = make_result(make_point(n_pass=3), accuracy=0.80, flops=0.1)
        _, best = explorer.filter_and_rank(
            [a, b],
            Constraints(min_accuracy=0.0),
            Priority(metrics=("accuracy", "flops")),
        )
        assert best is a

    def test_latency_and_fit_constraints(self):
        slow = make_result(make_point(), latency_ms=5.0)
        lean = make_result(make_point(n_pass=3), latency_ms=0.5)
        _, best = explorer.filter_and_rank(
            [slow, lean], Constraints(max_latency_ms=1.0), Priority(metrics=("latency",))
        )
        assert best is lean
        misfit = dataclasses.replace(slow, fits=False)
        _, best = explorer.filter_and_rank(
            [misfit], Constraints(require_fit=True), Priority(metrics=("latency",))
        )
        assert best is None

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(0, 1, allow_nan=False),
                st.floats(0, 1, allow_nan=False),
                st.floats(0, 3, allow_nan=False),
            ),
            min_size=1,
            max_size=8,
        ),
        st.permutations(["accuracy", "ece", "ape"]),
    )
    def test_ranking_is_a_deterministic_total_order(self, rows, order):
        results = [
            make_result(make_point(n_pass=i + 1), accuracy=acc, ece=ece, ape=ape)
            for i, (acc, ece, ape) in enumerate(rows)
        ]
        pri = Priority(metrics=tuple(order))
        cons = Constraints(min_accuracy=0.0)
        ranked_fwd, _ = explorer.filter_and_rank(results, cons, pri)
        ranked_rev, _ = explorer.filter_and_rank(list(reversed(results)), cons, pri)
        assert [r.point.key() for r in ranked_fwd] == [r.point.key() for r in ranked_rev]
        keys = [explorer.rank_key(r, pri) for r in ranked_fwd]
        assert keys == sorted(keys)


class TestSelectOptima:
    def test_single_metric_champions(self):
        sharp = make_result(make_point(), accuracy=0.99, ece=0.20, ape=0.5)
        calibrated = make_result(make_point(n_pass=3), accuracy=0.90, ece=0.01, ape=0.8)
        uncertain = make_result(make_point(n_pass=4), accuracy=0.85, ece=0.10, ape=2.5)
        optima = explorer.select_optima(
            [sharp, calibrated, uncertain], Constraints(min_accuracy=0.0)
        )
        assert optima["accuracy"] is sharp
        assert optima["ece"] is calibrated
        assert optima["ape"] is uncertain

    def test_infeasible_set_yields_none_champions(self):
        results = [make_result(make_point(), accuracy=0.1)]
        optima = explorer.select_optima(results, Constraints(min_accuracy=0.99))
        assert optima == {"accuracy": None, "ece": None, "ape": None}


class TestExploreEndToEnd:
    def run(self, env, jobs=1):
        net, data, grids, settings_ = env
        return explorer.explore(
            net,
            grids,
            Constraints(min_accuracy=0.0),
            Priority(metrics=("accuracy",)),
            data,
            default_hardware_model(),
            settings_,
            seed=3,
            noise_count=4,
            jobs=jobs,
        )

    def test_sweep_evaluates_every_point(self, outcome_env):
        outcome = self.run(outcome_env)
        assert len(outcome.results) == 2
        assert all(r.ok for r in outcome.results), [r.error for r in outcome.results]
        assert outcome.best is outcome.ranked[0]

    def test_sweep_is_deterministic(self, outcome_env):
        a = explorer.results_to_rows(self.run(outcome_env).results)
        b = explorer.results_to_rows(self.run(outcome_env).results)
        assert a == b

    def test_thread_pool_matches_serial(self, outcome_env):
        serial = explorer.results_to_rows(self.run(outcome_env).results)
        threaded = explorer.results_to_rows(self.run(outcome_env, jobs=2).results)
        assert serial == threaded

    def test_rows_fit_the_ledger_schema(self, outcome_env):
        rows = explorer.results_to_rows(self.run(outcome_env).results)
        for row in rows:
            unknown = set(row) - set(explorer.LEDGER_FIELDS)
            assert not unknown
            assert row["status"] == "ok"
            assert row["n_sample"] == 4


class TestGroupedTraining:
    """explore trains the points that share a network structure together;
    every point must score as it does evaluated alone."""

    def test_grouped_explore_matches_each_point_alone(self, monkeypatch):
        doc = mlp_doc()
        # d3 at width 4: a channel fraction of 0.125 rounds it to zero, and
        # the last exit's dropout site is narrower than 8 masks
        doc["layers"][6]["params"]["out_features"] = 4
        doc["layers"][8]["params"]["in_features"] = 4
        net = netspec.parse_network(doc)
        data = datasets.make_blobs(count=40, classes=3, dim=16, seed=8)
        hw = default_hardware_model()
        grids = ExplorationGrids(
            mcd_rates=(0.25,),
            masksembles_scales=(2.0,),
            n_exits=(1, 3),
            n_passes=(2, 8),
            channel_fractions=(1.0, 0.5, 0.125),
        )
        settings_ = EvaluationSettings(epochs=3, batch=16)
        alone = [
            explorer.evaluate_design_point(dp, net, data, 4, hw, settings_, seed=7)
            for dp in explorer.enumerate_design_points(grids)
        ]

        groups = []
        train_models = train.train_models

        def spy(steps, data, cfgs):
            groups.append(len(steps))
            return train_models(steps, data, cfgs)

        monkeypatch.setattr(train, "train_models", spy)
        outcome = explorer.explore(
            net, grids, Constraints(min_accuracy=0.0), Priority(metrics=("accuracy",)),
            data, hw, settings_, seed=7, noise_count=4,
        )
        assert explorer.results_to_rows(outcome.results) == explorer.results_to_rows(alone)
        # one group per (channel fraction, exit count) that builds, of two
        # training keys: the mcd points at 2 and 8 passes share one, and the
        # masksembles points with 8 passes fail and leave theirs
        assert groups == [2, 2, 2, 2]
        errors = {r.error.split(":")[0] for r in alone if not r.ok}
        assert errors == {"ValueError"}
        assert any("zero width" in r.error for r in alone if not r.ok)
        assert any("num_masks 8" in r.error for r in alone if not r.ok)
        assert sum(r.ok for r in alone) == 12

    def test_labels_past_the_class_count_fail_every_point_with_one_error(self, monkeypatch):
        """Labels beyond the network's classes give every point, grouped or
        alone, the one error that names them, from one check of the whole
        dataset per class count, and nothing trains."""
        net = netspec.parse_network(mlp_doc())
        data = datasets.make_blobs(count=40, classes=5, dim=16, seed=8)
        hw = default_hardware_model()
        grids = ExplorationGrids(
            mcd_rates=(0.25, 0.5), masksembles_scales=(2.0,), n_exits=(3,), n_passes=(2,)
        )
        settings_ = EvaluationSettings(epochs=3, batch=16)
        alone = [
            explorer.evaluate_design_point(dp, net, data, 4, hw, settings_, seed=7)
            for dp in explorer.enumerate_design_points(grids)
        ]
        checks = []
        original = explorer.label_error
        monkeypatch.setattr(
            explorer, "label_error", lambda d, c: checks.append((d is data, c)) or original(d, c)
        )
        monkeypatch.setattr(train, "train_models", None)  # nothing may train
        outcome = explorer.explore(
            net, grids, Constraints(min_accuracy=0.0), Priority(metrics=("accuracy",)),
            data, hw, settings_, seed=7, noise_count=4,
        )
        assert checks == [(True, 3)]  # the whole dataset, once
        assert explorer.results_to_rows(outcome.results) == explorer.results_to_rows(alone)
        error = "ValueError: dataset labels 3, 4 lie outside the 3 classes 0..2 of the spec"
        assert [r.error for r in outcome.results] == [error] * 3
        assert [r.error for r in alone] == [error] * 3


def weight_bytes(store) -> bytes:
    return b"".join(
        store[layer][name].tobytes() for layer in sorted(store) for name in sorted(store[layer])
    )


class TestTrainingAndScoreKeys:
    """explore seeds, builds and trains each training key once, and scores
    each score key once; points that differ only in engines share one
    score."""

    def test_points_share_weights_exactly_when_they_share_a_training_key(self):
        net = netspec.parse_network(mlp_doc())
        data = datasets.make_blobs(count=40, classes=3, dim=16, seed=8)
        mcd = make_point(n_exit=3)
        masks = make_point(dropout_kind="masksembles", dropout_param=2.0, n_exit=3)
        points = [
            mcd,
            replace(mcd, bitwidth=8),
            replace(mcd, threshold=0.9),
            replace(mcd, n_pass=4),
            replace(mcd, mapping_engines=3),
            masks,
            replace(masks, bitwidth=8, threshold=0.9, mapping_engines=3),
            replace(masks, n_pass=3),
        ]
        trained = explorer.train_points(
            points, net, data, EvaluationSettings(epochs=3, batch=16), seed=7
        )
        assert all(t.error is None for t in trained), [t.error for t in trained]
        codes = [weight_bytes(t.weights) for t in trained]
        assert codes[1:5] == [codes[0]] * 4
        assert codes[6] == codes[5]
        assert len({codes[0], codes[5], codes[7]}) == 3  # masksembles n_pass sets the masks
        assert all(t.me is trained[0].me for t in trained[:5])
        assert trained[7].me.dropout.num_masks == 3

    @pytest.fixture(scope="class")
    def readme_sweep(self):
        """The README explore config with n_passes [4, 16], bitwidths
        [null, 8], engines [1, 4] and thresholds [null, 0.9]: 128 points,
        of which the 32 masksembles points at 16 passes fail to build."""
        net = netspec.parse_network(mlp_doc())
        data = datasets.make_blobs(count=90, classes=3, dim=16, seed=5)
        grids = ExplorationGrids(
            n_exits=(3,), n_passes=(4, 16), bitwidths=(None, 8), engines=(1, 4),
            thresholds=(None, 0.9),
        )
        models, scored, apes = [], [], []
        train_models, score = train.train_models, metrics.score
        ape = metrics.average_predictive_entropy

        def train_spy(steps, data, cfgs):
            models.extend(cfg.seed for cfg in cfgs)
            return train_models(steps, data, cfgs)

        def score_spy(*args, **kwargs):
            scored.append(args)
            return score(*args, **kwargs)

        def ape_spy(*args, **kwargs):
            apes.append(args)
            return ape(*args, **kwargs)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(train, "train_models", train_spy)
            mp.setattr(metrics, "score", score_spy)
            mp.setattr(metrics, "average_predictive_entropy", ape_spy)
            outcome = explorer.explore(
                net, grids, Constraints(min_accuracy=0.9),
                Priority(metrics=("accuracy", "ece", "flops"), tolerances={"accuracy": 0.002}),
                data, default_hardware_model(), EvaluationSettings(epochs=120), seed=3,
            )
        return net, data, outcome, models, scored, apes

    def test_the_readme_grid_trains_each_training_key_once(self, readme_sweep):
        *_, outcome, models, _, _ = readme_sweep
        assert len(outcome.results) == 128
        assert sum(r.ok for r in outcome.results) == 96
        ok_keys = {r.point.training_key() for r in outcome.results if r.ok}
        assert len(ok_keys) == 8  # 4 mcd rates, and 4 masksembles scales at 4 passes
        assert len(models) == len(set(models)) == 8

    def test_the_readme_grid_scores_each_score_key_once(self, readme_sweep):
        """Once, in one metrics.score call per sample key that scores both
        its thresholds and runs APE once."""
        *_, outcome, _, scored, apes = readme_sweep
        ok = [r.point for r in outcome.results if r.ok]
        assert len({dp.score_key() for dp in ok}) == 48
        assert len(scored) == len({dp.sample_key() for dp in ok}) == 24
        assert [args[8] for args in scored] == [[None, 0.9]] * 24  # the thresholds
        assert len(apes) == 24

    def test_points_that_differ_only_in_engines_share_one_score(self, readme_sweep):
        *_, outcome, _, _, _ = readme_sweep
        by_score: dict[str, list[PointResult]] = {}
        for r in outcome.results:
            by_score.setdefault(r.point.score_key(), []).append(r)
        assert len(by_score) == 64 and all(len(rs) == 2 for rs in by_score.values())
        for one, four in by_score.values():
            assert (one.point.mapping_engines, four.point.mapping_engines) == (1, 4)
            assert one.report == four.report
            assert one.error == four.error
            if one.ok:
                assert one.latency.cycles > four.latency.cycles

    def test_each_point_alone_gives_its_sweep_row(self, readme_sweep):
        net, data, outcome, _, _, _ = readme_sweep
        picked = [r for r in outcome.results if r.point.mapping_engines == 4][::9]
        assert {r.point.dropout_kind for r in picked} == {"mcd", "masksembles"}
        alone = [
            explorer.evaluate_design_point(
                r.point, net, data, 64, default_hardware_model(), EvaluationSettings(epochs=120),
                seed=3,
            )
            for r in picked
        ]
        assert explorer.results_to_rows(alone) == explorer.results_to_rows(picked)


def test_explore_builds_each_point_spec_and_the_split_once(monkeypatch):
    """train_points hands every point's spec and the data split to scoring,
    and builds each training key once: a key that cannot be built, or
    cannot train, is tried once for all its points."""
    net = netspec.parse_network(mlp_doc())
    data = datasets.make_blobs(count=40, classes=3, dim=16, seed=8)
    grids = ExplorationGrids(
        mcd_rates=(0.25,),
        masksembles_scales=(2.0,),
        n_exits=(1, 3, 4),  # 4 exits cannot be built
        n_passes=(2, 32),  # 32 masks cannot train: the sites are narrower
        channel_fractions=(1.0, 0.5),
    )
    calls = {explorer.build_point_spec: 0, explorer.train_test_split: 0, train.TrainStep: 0}

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls[fn] += 1
            return fn(*args, **kwargs)

        return wrapper

    targets = ((explorer, "build_point_spec"), (explorer, "train_test_split"), (train, "TrainStep"))
    for module, name in targets:
        monkeypatch.setattr(module, name, counted(getattr(module, name)))
    outcome = explorer.explore(
        net, grids, Constraints(min_accuracy=0.0), Priority(metrics=("accuracy",)),
        data, default_hardware_model(), EvaluationSettings(epochs=3, batch=16),
        seed=7, noise_count=4,
    )
    errors = [r.error for r in outcome.results if not r.ok]
    assert sum("n_exit must be in [1, 3], got 4" in e for e in errors) == 8
    assert sum("smaller than num_masks 32" in e for e in errors) == 4
    assert len(errors) == 12
    # 18 training keys: mcd at 3 exit counts and masksembles at 3 exit
    # counts and 2 pass counts, each at 2 channel fractions; the 6 keys with
    # 4 exits fail to build, so 12 reach the trainer
    assert len({dp.training_key() for dp in explorer.enumerate_design_points(grids)}) == 18
    assert list(calls.values()) == [18, 1, 12]


def test_explore_scores_each_point_through_metrics_score(monkeypatch):
    """explore scores the points that build and train with one
    metrics.score call per sample key, at each of its thresholds, and
    reports what it returns."""
    net = netspec.parse_network(mlp_doc())
    data = datasets.make_blobs(count=40, classes=3, dim=16, seed=8)
    grids = ExplorationGrids(
        mcd_rates=(0.25,),
        masksembles_scales=(2.0,),
        n_exits=(3, 4),  # 4 exits cannot be built
        n_passes=(2,),
        thresholds=(None, 0.9),
    )
    scored = []
    score = metrics.score

    def spy(*args, **kwargs):
        scored.append(score(*args, **kwargs))
        return scored[-1]

    monkeypatch.setattr(metrics, "score", spy)
    outcome = explorer.explore(
        net, grids, Constraints(min_accuracy=0.0), Priority(metrics=("accuracy",)),
        data, default_hardware_model(), EvaluationSettings(epochs=3, batch=16),
        seed=7, noise_count=4,
    )
    ok = [r for r in outcome.results if r.ok]
    assert len(ok) == 4 and len(scored) == 2
    for r, s in zip(ok, [s for group in scored for s in group], strict=True):
        assert (r.report.accuracy, r.report.ece, r.report.ape) == (s.accuracy, s.ece, s.ape)
        assert (s.early_exit is None) == (r.point.threshold is None)


@pytest.mark.parametrize("exit_mode", ["per_exit", "ensemble_so_far"])
def test_a_multi_threshold_grid_gives_each_point_its_own_row(exit_mode, monkeypatch):
    """Points that differ only in threshold share one metrics.score call
    per sample key, and every ledger row, serial or with --jobs 2, equals
    the point evaluated alone."""
    net = netspec.parse_network(mlp_doc())
    data = datasets.make_blobs(count=60, classes=3, dim=16, seed=8)
    hw = default_hardware_model()
    grids = ExplorationGrids(
        mcd_rates=(0.25,), masksembles_scales=(2.0,), n_exits=(3,), n_passes=(2,),
        bitwidths=(None, 8), engines=(1, 2), thresholds=(0.9, None, 0.6, 0.95),
    )
    settings_ = EvaluationSettings(epochs=5, batch=16, exit_mode=exit_mode)
    points = explorer.enumerate_design_points(grids)
    alone = [
        explorer.evaluate_design_point(dp, net, data, 8, hw, settings_, seed=7) for dp in points
    ]
    assert all(r.ok for r in alone), [r.error for r in alone]
    scored = []
    score = metrics.score
    monkeypatch.setattr(metrics, "score", lambda *a: scored.append(a[8]) or score(*a))
    rows = []
    for jobs in (1, 2):
        outcome = explorer.explore(
            net, grids, Constraints(min_accuracy=0.0), Priority(metrics=("accuracy",)),
            data, hw, settings_, seed=7, noise_count=8, jobs=jobs,
        )
        rows.append(explorer.results_to_rows(outcome.results))
    assert rows[0] == rows[1] == explorer.results_to_rows(alone)
    assert scored == [[0.9, None, 0.6, 0.95]] * 8  # 4 sample keys, twice
    early = {r["threshold"]: r.get("flops_fraction_early_exit") for r in rows[0][:8]}
    assert early[None] is None and len(set(early.values())) > 2
