import dataclasses
import json
from pathlib import Path

import pytest

from conftest import build_masksembles_spec, build_mcd_spec
from mcexit import emitter, inference, mapping, metrics, netspec
from mcexit.dropout import generate_masks
from mcexit.emitter import AcceleratorPlan, EmitError
from mcexit.mapping import HardwareModel
from mcexit.metrics import MetricsReport
from mcexit.runtime import QFormat

GOLDEN = Path(__file__).parent / "data" / "golden_plan.json"


def report_hw(**overrides):
    base = dict(
        ops_per_cycle_per_engine=100.0,
        clock_mhz=200.0,
        engine_cost={"dsp": 10.0, "bram": 5.0, "lut": 100.0, "ff": 200.0},
        budget={"dsp": 100.0, "bram": 50.0, "lut": 1000.0, "ff": 2000.0},
        dropout_unit_cost={"rng_lut": 7.0, "mask_rom_bram": 2.0},
    )
    base.update(overrides)
    return HardwareModel(**base)


def emit(me, n_sample, engines, hw=None, **kwargs):
    hw = hw or report_hw()
    plan = mapping.build_mapping(n_sample, engines)
    report = metrics.count_flops(me)
    latency = mapping.estimate_latency(plan, report, hw)
    resources = mapping.estimate_resources(plan, me, hw)
    return emitter.emit_plan(me, plan, hw, latency, resources, **kwargs)


def golden_plan():
    """Fully deterministic plan used to pin the on-disk format."""
    me = build_masksembles_spec(num_masks=2, scale=2.0, seed=7)
    return emit(
        me,
        n_sample=6,
        engines=2,
        qformat=QFormat(8, 3),
        design={"dropout_kind": "masksembles", "dropout_param": 2.0},
        metrics_report=MetricsReport(
            accuracy=0.875, ece=0.0625, ape=1.0, flops_fraction=0.25, n_sample=6
        ),
    )


def layer_rows(plan):
    """(segment, id, kind, placement, format) of each report layer row."""
    lines = emitter.render_report(plan).splitlines()
    rows = lines[lines.index("layers:") + 1 : lines.index("dropout units:") - 1]
    return [tuple(row.split()) for row in rows]


class TestLayerRecords:
    """The report's layer rows, walked from the network the plan holds."""

    def test_trunk_is_shared_and_heads_are_replicated(self, mcd_spec):
        rows = layer_rows(emit(mcd_spec, 6, 1))
        assert {r[3] for r in rows if r[0] == "trunk"} == {"shared"}
        for k in (1, 2, 3):
            assert {r[3] for r in rows if r[0] == f"exit{k}"} == {"replicated"}

    def test_records_cover_each_layer_once_in_order(self, mcd_spec):
        plan = emit(mcd_spec, 6, 2)
        assert plan.network == mcd_spec
        assert [r[1] for r in layer_rows(plan)] == [
            layer.id for layer in netspec.all_layers(mcd_spec)
        ]

    def test_softmax_is_exempt_from_quantization(self, mcd_spec):
        plan = emit(mcd_spec, 3, 1, qformat=QFormat(8, 3))
        assert plan.qformat == QFormat(8, 3)
        for _, _, kind, _, fmt in layer_rows(plan):
            assert fmt == ("f32" if kind == "softmax" else "q8.3")

    def test_unquantized_plan_has_no_formats(self, mcd_spec):
        plan = emit(mcd_spec, 3, 1)
        assert plan.qformat is None and plan.to_dict()["qformat"] is None
        assert {r[4] for r in layer_rows(plan)} == {"f32"}

    def test_dropout_layers_point_at_their_unit(self, mcd_spec):
        plan = emit(mcd_spec, 3, 1)
        drops = [l.id for l in netspec.all_layers(plan.network) if l.kind == "dropout_point"]
        assert drops == [u["site"] for u in plan.dropout_units]


class TestDropoutUnits:
    def test_mcd_units_describe_an_rng(self, mcd_spec):
        plan = emit(mcd_spec, 6, 1)
        assert len(plan.dropout_units) == len(mcd_spec.dropout_sites)
        assert plan.network.dropout == mcd_spec.dropout
        for unit in plan.dropout_units:
            assert set(unit) == {"site", "exit", "features", "rng"}
            assert unit["rng"] == {
                "generator": "philox4x64",
                "key": "blake2b-128(seed|sample_index|site)",
                "uniform_bits": 53,
            }

    def test_mcd_feature_counts_match_the_sites(self, mcd_spec):
        plan = emit(mcd_spec, 6, 1)
        for unit in plan.dropout_units:
            expected = inference.site_feature_count(mcd_spec, unit["exit"], unit["site"])
            assert unit["features"] == expected

    def test_masksembles_units_embed_the_mask_table(self):
        me = build_masksembles_spec(num_masks=4, scale=4.0, seed=7)
        plan = emit(me, 12, 1)
        for unit in plan.dropout_units:
            assert set(unit) == {"site", "exit", "features", "mask_select", "masks"}
            assert unit["mask_select"] == "pass_index % num_masks"
            table = generate_masks(unit["features"], 4, 4.0)
            assert unit["masks"] == [[int(v) for v in row] for row in table.masks]

    def test_no_plan_field_repeats_the_network(self):
        """The dropout config, layers and strategy live in one place each."""
        doc = golden_plan().to_dict()
        assert set(doc) == {
            "schema_version", "network", "qformat", "n_sample", "n_pass", "mapping",
            "dropout_units", "estimates", "design", "metrics",
        }
        assert doc["network"] == netspec.serialize_multi_exit(golden_plan().network)
        assert doc["qformat"] == QFormat(8, 3).to_dict()


class TestEmitPlan:
    def test_pass_count_division(self, mcd_spec):
        plan = emit(mcd_spec, 12, 2)
        assert plan.n_sample == 12
        assert plan.n_pass == 4

    def test_indivisible_samples_rejected(self, mcd_spec):
        with pytest.raises(EmitError, match="divisible"):
            emit(mcd_spec, 4, 1)

    def test_mask_budget_respected(self):
        me = build_masksembles_spec(num_masks=2, scale=2.0, seed=7)
        with pytest.raises(EmitError, match="mask"):
            emit(me, 9, 1)  # 3 passes per exit, table has 2 masks

    def test_invalid_network_rejected(self, mcd_spec):
        swapped = dataclasses.replace(
            mcd_spec, exits=(mcd_spec.exits[1], mcd_spec.exits[0], mcd_spec.exits[2])
        )
        with pytest.raises(EmitError, match="validation"):
            emit(swapped, 3, 1)

    def test_estimates_carry_the_numbers(self, mcd_spec):
        hw = report_hw()
        plan = emit(mcd_spec, 6, 2, hw=hw)
        assert plan.estimates["clock_mhz"] == 200.0
        assert plan.estimates["fits"] is True
        assert set(plan.estimates["resources"]) == set(mapping.RESOURCE_KEYS)
        assert plan.estimates["budget"]["dsp"] == 100.0

    def test_design_and_metrics_are_optional(self, mcd_spec):
        bare = emit(mcd_spec, 3, 1)
        assert bare.design is None and bare.metrics is None
        assert "design" not in bare.to_dict() and "metrics" not in bare.to_dict()
        full = emit(
            mcd_spec,
            3,
            1,
            design={"dropout_kind": "mcd"},
            metrics_report=MetricsReport(
                accuracy=0.9, ece=0.1, ape=1.0, flops_fraction=0.5, n_sample=3
            ),
        )
        assert full.to_dict()["design"] == {"dropout_kind": "mcd"}
        assert full.to_dict()["metrics"]["accuracy"] == 0.9


def saved_text(plan, path):
    emitter.save_plan(plan, path)
    return path.read_text()


class TestSerialization:
    def test_json_round_trip(self, tmp_path, mcd_spec):
        for plan in (emit(mcd_spec, 6, 2, qformat=QFormat(8, 3)), golden_plan()):
            emitter.save_plan(plan, tmp_path / "plan.json")
            assert emitter.load_plan(tmp_path / "plan.json") == plan

    def test_re_emission_is_byte_identical(self, tmp_path):
        a = saved_text(golden_plan(), tmp_path / "a.json")
        b = saved_text(golden_plan(), tmp_path / "b.json")
        assert a == b

    def test_save_load(self, tmp_path, mcd_spec):
        path = tmp_path / "plan.json"
        plan = emit(mcd_spec, 3, 1)
        emitter.save_plan(plan, path)
        assert emitter.load_plan(path) == plan
        assert path.read_text().endswith("\n")

    def test_wrong_schema_rejected(self, mcd_spec):
        doc = emit(mcd_spec, 3, 1).to_dict()
        doc["schema_version"] = 1
        with pytest.raises(EmitError, match="schema"):
            AcceleratorPlan.from_dict(doc)

    def test_network_is_read_strictly(self, mcd_spec):
        doc = emit(mcd_spec, 3, 1).to_dict()
        doc["network"]["dropout"]["rate"] = 0.25
        with pytest.raises(ValueError, match="rate"):
            AcceleratorPlan.from_dict(doc)

    @pytest.mark.parametrize(
        "key, value", [("total_bits", "8"), ("integer_bits", 3.0), ("saturating", "yes")]
    )
    def test_qformat_values_are_type_checked(self, mcd_spec, key, value):
        doc = emit(mcd_spec, 3, 1, qformat=QFormat(8, 3)).to_dict()
        doc["qformat"][key] = value
        with pytest.raises(ValueError, match=f"qformat key '{key}'"):
            AcceleratorPlan.from_dict(doc)

    def test_matches_the_golden_file(self, tmp_path):
        assert saved_text(golden_plan(), tmp_path / "plan.json") == GOLDEN.read_text()

    def test_golden_file_parses(self):
        plan = emitter.load_plan(GOLDEN)
        assert plan.mapping["strategy"] == "hybrid"
        assert plan.n_pass == 2
        assert plan.network == build_masksembles_spec(num_masks=2, scale=2.0, seed=7)
        assert json.loads(GOLDEN.read_text())["schema_version"] == emitter.SCHEMA_VERSION


class TestRenderReport:
    def test_layout_sections(self, mcd_spec):
        text = emitter.render_report(emit(mcd_spec, 6, 2, qformat=QFormat(8, 3)))
        lines = text.splitlines()
        assert lines[0] == "accelerator plan (schema 2)"
        assert lines[1] == "strategy: hybrid (2 engine(s), 3 round(s))"
        assert lines[2] == "samples per inference: 6 (3 exit(s) x 2 pass(es))"
        assert "layers:" in lines
        assert "dropout units:" in lines
        assert "resources:" in lines
        assert any(line.startswith("latency:") for line in lines)

    def test_layer_rows_are_aligned(self, mcd_spec):
        text = emitter.render_report(emit(mcd_spec, 3, 1, qformat=QFormat(8, 3)))
        assert "  trunk    d1                       dense         shared     q8.3" in text
        assert any("exit1    exit1/drop0" in line and "f32" not in line for line in text.splitlines())

    def test_mcd_pseudocode(self, mcd_spec):
        text = emitter.render_report(emit(mcd_spec, 3, 1))
        assert "uniform53(philox(key(seed=7, sample, 'exit1/drop0')))" in text
        assert "y[f] = 0 if u[f] > 0.75 else x[f] * 0.75" in text

    def test_inverted_mcd_pseudocode_scales_by_the_inverse(self):
        me = build_mcd_spec()
        me = dataclasses.replace(me, dropout=dataclasses.replace(me.dropout, inverted=True))
        text = emitter.render_report(emit(me, 3, 1))
        assert text.count("y[f] = 0 if u[f] > 0.75 else x[f] * (1 / 0.75)\n") == 3
        assert "x[f] * 0.75" not in text

    def test_masksembles_pseudocode(self):
        me = build_masksembles_spec(num_masks=4, scale=4.0, seed=7)
        text = emitter.render_report(emit(me, 12, 1))
        assert "mask rom, 4 x" in text
        assert "m = mask_rom['exit1/drop0'][pass % 4]" in text

    def test_metrics_line(self):
        text = emitter.render_report(golden_plan())
        assert "measured: accuracy=0.8750 ece=0.0625 ape=1.0000 flops_fraction=0.2500" in text

    def test_over_budget_warnings_close_the_report(self, mcd_spec):
        hw = report_hw(budget={"dsp": 5.0, "bram": 50.0, "lut": 10.0, "ff": 2000.0})
        text = emitter.render_report(emit(mcd_spec, 6, 2, hw=hw))
        tail = text.splitlines()[-2:]
        assert tail == ["WARNING: dsp over budget", "WARNING: lut over budget"]

    def test_no_warnings_when_everything_fits(self, mcd_spec):
        text = emitter.render_report(emit(mcd_spec, 6, 2))
        assert "WARNING" not in text
