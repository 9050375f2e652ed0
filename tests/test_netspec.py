import dataclasses

import pytest

from conftest import build_mcd_spec, lenet_doc, mlp_doc
from mcexit import netspec
from mcexit.dropout import DropoutConfig
from mcexit.netspec import LayerSpec, NetworkSpec, ParseError


def test_lenet_like_doc_parses_to_ten_layers():
    net = netspec.parse_network(lenet_doc())
    assert len(net.layers) == 10
    shapes = netspec.infer_shapes(net.layers, net.input_shape)
    assert shapes[-1] == (3,)
    assert shapes[2] == (4, 5, 5)  # after pool1
    assert shapes[5] == (6, 1, 1)  # after pool2


def test_layer_grammar_rejections():
    with pytest.raises(ParseError):
        netspec.parse_layer({"id": "x", "kind": "batchnorm"})
    with pytest.raises(ParseError):
        netspec.parse_layer({"id": "x", "kind": "dense", "params": {"in_features": 4}})
    with pytest.raises(ParseError):
        netspec.parse_layer({"id": "x", "kind": "relu", "params": {"window": 2}})
    with pytest.raises(ParseError):
        netspec.parse_layer(
            {"id": "x", "kind": "dense", "params": {"in_features": 4, "out_features": 2, "bias": 1}}
        )


def test_network_round_trip():
    net = netspec.parse_network(lenet_doc())
    again = netspec.parse_network(netspec.serialize_network(net))
    assert again == net


def test_save_load_round_trip(tmp_path):
    net = netspec.parse_network(mlp_doc())
    netspec.save_network(net, tmp_path / "net.json")
    assert netspec.load_network(tmp_path / "net.json") == net


class TestFlopsOf:
    def test_dense(self):
        fc = netspec.parse_layer(
            {"id": "fc", "kind": "dense", "params": {"in_features": 3, "out_features": 4}}
        )
        assert netspec.flops_of(fc, (3,)) == 24

    def test_conv(self):
        conv = netspec.parse_layer(
            {
                "id": "c",
                "kind": "conv2d",
                "params": {"in_channels": 2, "out_channels": 3, "kernel_h": 1, "kernel_w": 1},
            }
        )
        assert netspec.flops_of(conv, (2, 2, 2)) == 48

    def test_pool_free(self):
        pool = netspec.parse_layer({"id": "p", "kind": "max_pool", "params": {"window": 2}})
        assert netspec.flops_of(pool, (4, 8, 8)) == 0


class TestPlaceExits:
    def test_two_pools_give_three_exits(self):
        me = netspec.place_exits(netspec.parse_network(mlp_doc()))
        assert me.n_exit == 3
        assert [ex.attach_after for ex in me.exits] == ["p1", "p2", "r3"]
        assert me.exits[2].head_layers[0].id == "fc"

    def test_lenet_exits_and_heads(self):
        me = netspec.place_exits(netspec.parse_network(lenet_doc()))
        assert me.n_exit == 3
        # conv feature maps get the pooled template head
        assert [l.kind for l in me.exits[0].head_layers] == [
            "avg_pool",
            "flatten",
            "dense",
            "softmax",
        ]
        assert me.exits[0].head_layers[2].params["in_features"] == 4
        assert me.exits[0].head_layers[2].params["out_features"] == 3

    def test_rank1_feature_skips_spatial_template_layers(self):
        me = netspec.place_exits(netspec.parse_network(mlp_doc()))
        assert [l.kind for l in me.exits[0].head_layers] == ["dense", "softmax"]

    def test_no_pools_single_exit(self):
        net = netspec.parse_network(
            {
                "input_shape": [8],
                "layers": [
                    {"id": "d1", "kind": "dense", "params": {"in_features": 8, "out_features": 8}},
                    {"id": "r1", "kind": "relu"},
                    {"id": "fc", "kind": "dense", "params": {"in_features": 8, "out_features": 2}},
                    {"id": "sm", "kind": "softmax"},
                ],
            }
        )
        me = netspec.place_exits(net)
        assert me.n_exit == 1
        assert me.exits[0].attach_after == "r1"

    def test_pool_feeding_classifier_is_suppressed(self):
        net = netspec.parse_network(
            {
                "input_shape": [8],
                "layers": [
                    {"id": "d1", "kind": "dense", "params": {"in_features": 8, "out_features": 8}},
                    {"id": "r1", "kind": "relu"},
                    {"id": "p1", "kind": "avg_pool", "params": {"window": 2}},
                    {"id": "fc", "kind": "dense", "params": {"in_features": 4, "out_features": 2}},
                    {"id": "sm", "kind": "softmax"},
                ],
            }
        )
        me = netspec.place_exits(net)
        assert me.n_exit == 1
        assert me.exits[0].attach_after == "p1"

    def test_vgg11_like_five_pools_give_six_exits(self):
        layers = []
        channels = [(1, 2), (2, 2), (2, 4), (4, 4), (4, 4)]
        for i, (cin, cout) in enumerate(channels, start=1):
            layers.append(
                {
                    "id": f"conv{i}",
                    "kind": "conv2d",
                    "params": {
                        "in_channels": cin,
                        "out_channels": cout,
                        "kernel_h": 3,
                        "kernel_w": 3,
                        "padding": 1,
                    },
                }
            )
            layers.append({"id": f"relu{i}", "kind": "relu"})
            layers.append({"id": f"pool{i}", "kind": "max_pool", "params": {"window": 2}})
        layers += [
            {"id": "flat", "kind": "flatten"},
            {"id": "fc1", "kind": "dense", "params": {"in_features": 4, "out_features": 8}},
            {"id": "fc2", "kind": "dense", "params": {"in_features": 8, "out_features": 3}},
            {"id": "sm", "kind": "softmax"},
        ]
        net = netspec.parse_network({"input_shape": [1, 32, 32], "layers": layers})
        me = netspec.place_exits(net)
        assert me.n_exit == 6

    def test_attach_depths_strictly_increase(self):
        me = netspec.place_exits(netspec.parse_network(lenet_doc()))
        depths = [netspec.attach_depth(me, ex.attach_after) for ex in me.exits]
        assert depths == sorted(set(depths))


class TestInsertDropout:
    def test_depth_1_one_site_per_exit(self):
        me = build_mcd_spec(depth=1)
        assert [site for _, site in me.dropout_sites] == [
            "exit1/drop0",
            "exit2/drop0",
            "exit3/drop0",
        ]
        for ex in me.exits:
            kinds = [l.kind for l in ex.head_layers]
            assert kinds.count("dropout_point") == 1
            # the site sits immediately in front of the head classifier
            assert kinds[kinds.index("dropout_point") + 1] == "dense"

    def test_depth_0_rejected(self):
        net = netspec.parse_network(mlp_doc())
        me = netspec.place_exits(net)
        cfg = DropoutConfig(kind="mcd", keep_rate=0.75, seed=0)
        with pytest.raises(ValueError):
            netspec.insert_dropout(me, cfg, 0)

    def test_depth_2_spills_into_trunk(self):
        me = build_mcd_spec(depth=2)
        exit1 = me.exits[0]
        assert [l.id for l in exit1.head_layers] == [
            "exit1/drop0",
            "exit1/tail/d1",
            "exit1/tail/r1",
            "exit1/tail/p1",
            "exit1/drop1",
            "exit1/fc",
            "exit1/softmax",
        ]
        assert exit1.attach_after is None
        # later exits spill their own segments and re-attach further up
        assert me.exits[1].attach_after == "p1"
        assert [l.id for l in me.exits[1].head_layers][:4] == [
            "exit2/drop0",
            "exit2/tail/d2",
            "exit2/tail/r2",
            "exit2/tail/p2",
        ]
        assert me.exits[2].attach_after == "p2"
        # the shared trunk itself is untouched
        assert [l.id for l in me.trunk.layers] == [
            "d1",
            "r1",
            "p1",
            "d2",
            "r2",
            "p2",
            "d3",
            "r3",
        ]
        assert netspec.validate(me) == []

    def test_depth_exceeding_reachable_learnables_rejected(self):
        net = netspec.parse_network(mlp_doc())
        me = netspec.place_exits(net)
        cfg = DropoutConfig(kind="mcd", keep_rate=0.75, seed=0)
        with pytest.raises(ValueError, match="exit 1"):
            netspec.insert_dropout(me, cfg, 3)

    def test_idempotent_reinsertion(self):
        """Inserting into a spec that already has dropout is rejected, not
        stripped and redone; the plain spec still gives the same result."""
        base = netspec.place_exits(netspec.parse_network(mlp_doc()))
        cfg1 = DropoutConfig(kind="mcd", keep_rate=0.5, seed=1)
        cfg2 = DropoutConfig(kind="masksembles", num_masks=4, scale=2.0, seed=2)
        once = netspec.insert_dropout(base, cfg2, 1)
        assert netspec.insert_dropout(base, cfg2, 1) == once
        for spec in (once, netspec.insert_dropout(base, cfg1, 2)):
            with pytest.raises(ValueError, match="already has dropout"):
                netspec.insert_dropout(spec, cfg2, 1)
            with pytest.raises(ValueError, match="already has dropout"):
                netspec.insert_dropout(dataclasses.replace(spec, dropout=None), cfg2, 1)

    def test_flop_counts_include_spilled_segment(self):
        shallow = build_mcd_spec(depth=1)
        deep = build_mcd_spec(depth=2)
        from mcexit import metrics

        f1 = metrics.count_flops(shallow)
        f2 = metrics.count_flops(deep)
        assert f2.per_exit[0] > f1.per_exit[0]


class TestMultiExitSerialization:
    def test_round_trip(self):
        me = build_mcd_spec(depth=2)
        doc = netspec.serialize_multi_exit(me)
        assert netspec.parse_multi_exit(doc) == me

    def test_save_load(self, tmp_path):
        me = build_mcd_spec()
        netspec.save_multi_exit(me, tmp_path / "me.json")
        assert netspec.load_multi_exit(tmp_path / "me.json") == me

    def test_parse_rejects_incoherent_spec(self):
        me = build_mcd_spec()
        doc = netspec.serialize_multi_exit(me)
        doc["exits"][0], doc["exits"][1] = doc["exits"][1], doc["exits"][0]
        with pytest.raises(ParseError):
            netspec.parse_multi_exit(doc)

    def test_unknown_keys_rejected(self):
        doc = netspec.serialize_multi_exit(build_mcd_spec())
        doc["comment"] = "hello"
        with pytest.raises(ParseError):
            netspec.parse_multi_exit(doc)

    def test_list_fields_must_be_arrays(self):
        doc = netspec.serialize_multi_exit(build_mcd_spec())
        with pytest.raises(ParseError, match="multi-exit exits must be a JSON array, got int"):
            netspec.parse_multi_exit({**doc, "exits": 5})
        doc["exits"][0]["head_layers"] = {"id": "x"}
        with pytest.raises(ParseError, match="exit key 'head_layers' must be a JSON array, got dict"):
            netspec.parse_multi_exit(doc)


class TestValidate:
    def test_clean_spec_has_no_diagnostics(self):
        assert netspec.validate(build_mcd_spec()) == []

    def test_duplicate_id(self):
        me = build_mcd_spec()
        dup = me.exits[0].head_layers[1]
        bad_head = me.exits[0].head_layers + (dup,)
        from dataclasses import replace

        bad = replace(me, exits=(replace(me.exits[0], head_layers=bad_head),) + me.exits[1:])
        codes = [d.code for d in netspec.validate(bad)]
        assert "duplicate-id" in codes

    def test_dropout_before_first_exit_flagged(self):
        from dataclasses import replace

        me = build_mcd_spec()
        drop = LayerSpec(id="trunk/drop", kind="dropout_point")
        trunk = NetworkSpec(
            input_shape=me.trunk.input_shape, layers=(drop,) + me.trunk.layers
        )
        bad = replace(me, trunk=trunk)
        diags = [d for d in netspec.validate(bad) if d.code == "partial-dropout"]
        assert len(diags) == 1
        assert diags[0].layer_id == "trunk/drop"

    def test_exit_without_dropout_flagged(self):
        from dataclasses import replace

        me = build_mcd_spec()
        head = tuple(l for l in me.exits[0].head_layers if l.kind != "dropout_point")
        bad = replace(me, exits=(replace(me.exits[0], head_layers=head),) + me.exits[1:])
        codes = [d.code for d in netspec.validate(bad)]
        assert "exit-no-dropout" in codes

    def test_class_count_mismatch_flagged(self):
        from dataclasses import replace

        me = build_mcd_spec()
        fc = me.exits[0].head_layers[1]
        wrong = replace(fc, params={**fc.params, "out_features": 4})
        head = (me.exits[0].head_layers[0], wrong, me.exits[0].head_layers[2])
        bad = replace(me, exits=(replace(me.exits[0], head_layers=head),) + me.exits[1:])
        codes = [d.code for d in netspec.validate(bad)]
        assert "class-count" in codes

    def test_bad_attach_flagged(self):
        from dataclasses import replace

        me = build_mcd_spec()
        bad = replace(me, exits=(replace(me.exits[0], attach_after="ghost"),) + me.exits[1:])
        codes = [d.code for d in netspec.validate(bad)]
        assert codes == ["bad-attach"]

    def test_exit_order_flagged(self):
        from dataclasses import replace

        me = build_mcd_spec()
        swapped = (
            replace(me.exits[1], exit_index=1),
            replace(me.exits[0], exit_index=2),
            me.exits[2],
        )
        codes = [d.code for d in netspec.validate(replace(me, exits=swapped))]
        assert "exit-order" in codes


class TestScaleChannels:
    def test_half_widths(self):
        net = netspec.parse_network(mlp_doc())
        scaled = netspec.scale_channels(net, 0.5)
        by_id = {l.id: l for l in scaled.layers}
        assert by_id["d1"].params["out_features"] == 12
        assert by_id["d2"].params["in_features"] == 6
        assert by_id["d2"].params["out_features"] == 12
        # the classifier keeps its width
        assert by_id["fc"].params["out_features"] == 3
        netspec.infer_shapes(scaled.layers, scaled.input_shape)

    def test_conv_channels(self):
        net = netspec.parse_network(lenet_doc())
        scaled = netspec.scale_channels(net, 0.5)
        by_id = {l.id: l for l in scaled.layers}
        assert by_id["conv1"].params["out_channels"] == 2
        assert by_id["conv2"].params["in_channels"] == 2
        assert by_id["conv2"].params["out_channels"] == 3
        netspec.infer_shapes(scaled.layers, scaled.input_shape)

    def test_identity_fraction(self):
        net = netspec.parse_network(mlp_doc())
        assert netspec.scale_channels(net, 1.0) == net

    def test_zero_width_rejected(self):
        net = netspec.parse_network(mlp_doc())
        with pytest.raises(ValueError):
            netspec.scale_channels(net, 0.01)

    def test_fraction_bounds(self):
        net = netspec.parse_network(mlp_doc())
        with pytest.raises(ValueError):
            netspec.scale_channels(net, 0.0)
        with pytest.raises(ValueError):
            netspec.scale_channels(net, 1.5)


class TestKeepExits:
    def test_keeps_deepest(self):
        me = build_mcd_spec()
        kept = netspec.keep_exits(me, 2)
        assert kept.n_exit == 2
        assert [ex.attach_after for ex in kept.exits] == ["p2", "r3"]
        assert [ex.exit_index for ex in kept.exits] == [1, 2]

    def test_single_exit_is_the_final_one(self):
        me = build_mcd_spec()
        kept = netspec.keep_exits(me, 1)
        assert kept.exits[0].attach_after == "r3"

    def test_bounds(self):
        me = build_mcd_spec()
        with pytest.raises(ValueError):
            netspec.keep_exits(me, 0)
        with pytest.raises(ValueError):
            netspec.keep_exits(me, 4)
