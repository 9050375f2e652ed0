import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import build_mcd_spec, build_masksembles_spec
from mcexit import inference, mapping
from mcexit.mapping import RESOURCE_KEYS, HardwareModel, build_mapping, default_hardware_model
from mcexit.metrics import FlopReport


def toy_hw(opc=100.0, clock=200.0, **overrides):
    base = dict(
        ops_per_cycle_per_engine=opc,
        clock_mhz=clock,
        engine_cost={"dsp": 10.0, "bram": 5.0, "lut": 100.0, "ff": 200.0},
        budget={"dsp": 100.0, "bram": 50.0, "lut": 1000.0, "ff": 2000.0},
        dropout_unit_cost={"rng_lut": 7.0, "mask_rom_bram": 2.0},
    )
    base.update(overrides)
    return HardwareModel(**base)


class TestHardwareModel:
    def test_round_trip(self):
        hw = toy_hw()
        assert HardwareModel.from_dict(hw.to_dict()) == hw

    def test_missing_resource_key_rejected(self):
        with pytest.raises(ValueError, match="budget"):
            toy_hw(budget={"dsp": 1.0, "bram": 1.0, "lut": 1.0})

    def test_negative_cost_rejected(self):
        with pytest.raises(ValueError):
            toy_hw(engine_cost={"dsp": -1.0, "bram": 0.0, "lut": 0.0, "ff": 0.0})

    def test_nonpositive_throughput_rejected(self):
        with pytest.raises(ValueError):
            toy_hw(opc=0.0)
        with pytest.raises(ValueError):
            toy_hw(clock=-5.0)

    def test_unknown_dropout_cost_key_rejected(self):
        with pytest.raises(ValueError, match="dropout_unit_cost"):
            toy_hw(dropout_unit_cost={"alu": 1.0})

    def test_from_dict_holds_every_number_as_a_float(self):
        doc = {**toy_hw().to_dict(), "clock_mhz": 200, "budget": dict.fromkeys(RESOURCE_KEYS, 9)}
        hw = HardwareModel.from_dict(doc)
        assert repr(hw.clock_mhz) == "200.0" and hw.budget == dict.fromkeys(RESOURCE_KEYS, 9.0)
        assert all(type(v) is float for v in hw.budget.values())
        doc["dropout_unit_cost"] = {"rng_lut": True}
        with pytest.raises(ValueError, match="'dropout_unit_cost' entry 'rng_lut' must be a number"):
            HardwareModel.from_dict(doc)

    def test_from_dict_rejects_unknown_keys(self):
        doc = toy_hw().to_dict()
        doc["voltage"] = 0.9
        with pytest.raises(ValueError, match="unknown"):
            HardwareModel.from_dict(doc)

    def test_defaults_fit_one_engine(self):
        hw = default_hardware_model()
        plan = build_mapping(1, 1)
        assert mapping.estimate_resources(plan, None, hw).fits

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "hw.json"
        mapping.save_hardware_model(toy_hw(), path)
        assert mapping.load_hardware_model(path) == toy_hw()

    def test_env_var_fallback(self, tmp_path, monkeypatch):
        path = tmp_path / "hw.json"
        mapping.save_hardware_model(toy_hw(opc=64.0), path)
        monkeypatch.setenv(mapping.HARDWARE_ENV_VAR, str(path))
        assert mapping.load_hardware_model().ops_per_cycle_per_engine == 64.0

    def test_defaults_when_nothing_is_configured(self, monkeypatch):
        monkeypatch.delenv(mapping.HARDWARE_ENV_VAR, raising=False)
        assert mapping.load_hardware_model() == default_hardware_model()


class TestBuildMapping:
    def test_spatial(self):
        plan = build_mapping(4, 4)
        assert plan.strategy == "spatial"
        assert plan.rounds == 1
        assert plan.sample_assignment == ((0,), (1,), (2,), (3,))

    def test_temporal(self):
        plan = build_mapping(4, 1)
        assert plan.strategy == "temporal"
        assert plan.rounds == 4
        assert plan.sample_assignment == ((0, 1, 2, 3),)

    def test_hybrid_round_robin(self):
        plan = build_mapping(5, 2)
        assert plan.strategy == "hybrid"
        assert plan.rounds == 3
        assert plan.sample_assignment == ((0, 2, 4), (1, 3))
        assert sorted(len(a) for a in plan.sample_assignment) == [2, 3]

    def test_bounds(self):
        with pytest.raises(ValueError):
            build_mapping(0, 1)
        with pytest.raises(ValueError):
            build_mapping(4, 0)
        with pytest.raises(ValueError):
            build_mapping(4, 5)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 32), st.data())
    def test_every_sample_assigned_exactly_once(self, n_sample, data):
        engines = data.draw(st.integers(1, n_sample))
        plan = build_mapping(n_sample, engines)
        flat = sorted(s for lane in plan.sample_assignment for s in lane)
        assert flat == list(range(n_sample))


class TestEstimateLatency:
    def test_plugged_example(self):
        report = FlopReport(flop_main=10**6, per_exit=(10**5,))
        got = mapping.estimate_latency(build_mapping(4, 2), report, toy_hw())
        assert got.cycles == 12000.0
        assert got.ms == pytest.approx(12000 / (200.0 * 1e3))

    def test_spatial_latency_ignores_sample_count(self):
        report = FlopReport(flop_main=5000, per_exit=(100, 300))
        cycles = {
            n: mapping.estimate_latency(build_mapping(n, n), report, toy_hw()).cycles
            for n in (1, 2, 4, 16)
        }
        assert len(set(cycles.values())) == 1

    def test_temporal_exit_term_is_linear(self):
        report = FlopReport(flop_main=5000, per_exit=(100, 300))
        per_sample_cycles = report.flop_exit_total / len(report.per_exit) / 100.0
        previous = mapping.estimate_latency(build_mapping(1, 1), report, toy_hw()).cycles
        for n in range(2, 9):
            now = mapping.estimate_latency(build_mapping(n, 1), report, toy_hw()).cycles
            assert now - previous == pytest.approx(per_sample_cycles)
            previous = now

    def test_more_engines_never_slower(self):
        report = FlopReport(flop_main=12345, per_exit=(67, 89, 10))
        cycles = [
            mapping.estimate_latency(build_mapping(12, e), report, toy_hw()).cycles
            for e in range(1, 13)
        ]
        assert all(a >= b for a, b in zip(cycles, cycles[1:]))


class TestEstimateResources:
    def test_engine_cost_scales_linearly(self):
        hw = toy_hw()
        got = mapping.estimate_resources(build_mapping(6, 3), None, hw)
        assert got.usage == {"dsp": 30.0, "bram": 15.0, "lut": 300.0, "ff": 600.0}

    def test_mcd_sites_add_lut_only(self):
        hw = toy_hw()
        plan = build_mapping(4, 2)
        shallow = build_mcd_spec(depth=1)  # 3 dropout sites
        deep = build_mcd_spec(depth=2)  # 6 dropout sites
        bare = mapping.estimate_resources(plan, None, hw).usage
        low = mapping.estimate_resources(plan, shallow, hw).usage
        high = mapping.estimate_resources(plan, deep, hw).usage
        assert bare["lut"] < low["lut"] < high["lut"]
        assert low["lut"] - bare["lut"] == 3 * 7.0
        assert high["lut"] - bare["lut"] == 6 * 7.0
        for key in ("dsp", "bram", "ff"):
            assert bare[key] == low[key] == high[key]

    def test_masksembles_sites_add_bram_only(self):
        hw = toy_hw()
        plan = build_mapping(4, 2)
        me = build_masksembles_spec()
        bare = mapping.estimate_resources(plan, None, hw).usage
        got = mapping.estimate_resources(plan, me, hw).usage
        assert got["bram"] == bare["bram"] + 3 * 2.0
        assert got["lut"] == bare["lut"]

    def test_fits_flag(self):
        hw = toy_hw(budget={"dsp": 15.0, "bram": 50.0, "lut": 1000.0, "ff": 2000.0})
        assert mapping.estimate_resources(build_mapping(2, 1), None, hw).fits
        assert not mapping.estimate_resources(build_mapping(2, 2), None, hw).fits

    def test_usage_non_decreasing_in_engines(self):
        hw = toy_hw()
        previous = None
        for e in range(1, 9):
            usage = mapping.estimate_resources(build_mapping(8, e), None, hw).usage
            if previous is not None:
                assert all(usage[k] >= previous[k] for k in mapping.RESOURCE_KEYS)
            previous = usage


class TestParetoMappings:
    def test_single_sample_single_plan(self):
        report = FlopReport(flop_main=100, per_exit=(10,))
        frontier = mapping.pareto_mappings(1, report, toy_hw())
        assert len(frontier) == 1
        assert frontier[0][0].strategy == "spatial"

    def test_four_sample_frontier_hand_enumerated(self):
        report = FlopReport(flop_main=10**6, per_exit=(10**5,))
        frontier = mapping.pareto_mappings(4, report, toy_hw())
        # engines=3 shares the two-round latency of engines=2 but costs a
        # third engine, so it is dominated; the rest survive
        assert [p.n_engines for p, _, _ in frontier] == [4, 2, 1]
        assert [lat.cycles for _, lat, _ in frontier] == [11000.0, 12000.0, 14000.0]

    def test_extremes_survive(self):
        report = FlopReport(flop_main=7777, per_exit=(100, 200, 300))
        frontier = mapping.pareto_mappings(6, report, toy_hw())
        engines = {p.n_engines for p, _, _ in frontier}
        assert {1, 6} <= engines

    def test_sorted_by_latency(self):
        report = FlopReport(flop_main=9999, per_exit=(123, 456))
        frontier = mapping.pareto_mappings(8, report, toy_hw())
        cycles = [lat.cycles for _, lat, _ in frontier]
        assert cycles == sorted(cycles)


class TestOrderIndependence:
    def test_sample_values_do_not_depend_on_evaluation_order(
        self, mcd_spec, mcd_weights, blob_data
    ):
        # counter-based streams make pass p's numbers a pure function of
        # (seed, p, site), so any engine scheduling yields the same set
        x = blob_data.features[5]
        preds = inference.predict(mcd_spec, x, 4, mcd_weights, seed=13)
        cached = inference.run_trunk(mcd_spec, x, mcd_weights)
        for k in (3, 1, 2):
            for p in (3, 0, 2, 1):
                rows = inference.run_exit_samples(
                    cached, mcd_spec, k, p + 1, mcd_weights, 13
                )
                assert np.array_equal(rows[p], preds.samples[k - 1, p])
