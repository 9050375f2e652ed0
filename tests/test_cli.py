"""End-to-end checks for the command-line verbs.

Every test drives cli.main() in process and asserts on exit codes,
printed lines, and the files each verb writes. A module-scoped
transform -> train pipeline is shared by the read-only tests.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import conv32_doc, mlp_doc
from mcexit import (
    cli,
    datasets,
    documents,
    emitter,
    explorer,
    inference,
    mapping,
    metrics,
    netspec,
    runtime,
    train,
)
from mcexit.dropout import DropoutConfig


def write_network(root: Path) -> Path:
    path = root / "network.json"
    path.write_text(json.dumps(mlp_doc()) + "\n")
    return path


def write_hardware(root: Path, name: str = "hw.json", dsp_budget: float = 100.0) -> Path:
    doc = {
        "ops_per_cycle_per_engine": 100.0,
        "clock_mhz": 200.0,
        "engine_cost": {"dsp": 10.0, "bram": 5.0, "lut": 100.0, "ff": 200.0},
        "budget": {"dsp": dsp_budget, "bram": 50.0, "lut": 1000.0, "ff": 2000.0},
        "dropout_unit_cost": {"rng_lut": 7.0, "mask_rom_bram": 2.0},
    }
    path = root / name
    path.write_text(json.dumps(doc) + "\n")
    return path


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """Workspace holding a transformed spec and trained weights."""
    root = tmp_path_factory.mktemp("cli")
    net = write_network(root)
    rc = cli.main(
        [
            "transform",
            "--network",
            str(net),
            "--out",
            str(root / "multi_exit.json"),
            "--keep-rate",
            "0.75",
            "--seed",
            "7",
        ]
    )
    assert rc == 0
    rc = cli.main(
        [
            "train",
            "--spec",
            str(root / "multi_exit.json"),
            "--synth",
            "3,16,60",
            "--data-seed",
            "5",
            "--epochs",
            "30",
            "--seed",
            "1",
            "--out",
            str(root / "weights.json"),
        ]
    )
    assert rc == 0
    return root


class TestTransform:
    def test_writes_spec_and_reports_layout(self, tmp_path, capsys):
        net = write_network(tmp_path)
        out = tmp_path / "me.json"
        rc = cli.main(["transform", "--network", str(net), "--out", str(out)])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == f"wrote {out} (3 exit(s), 3 dropout site(s))"
        assert lines[1] == "dropout sites: exit1/drop0, exit2/drop0, exit3/drop0"
        assert lines[2] == "flop split: main=1728 per_exit=[72, 72, 96]"

        me = netspec.load_multi_exit(out)
        assert me.n_exit == 3
        assert me.dropout is not None
        assert me.dropout.kind == "mcd"
        assert me.dropout.keep_rate == 0.75

    def test_rate_flag_is_one_minus_keep(self, tmp_path):
        net = write_network(tmp_path)
        out = tmp_path / "me.json"
        rc = cli.main(
            ["transform", "--network", str(net), "--out", str(out), "--rate", "0.375"]
        )
        assert rc == 0
        assert netspec.load_multi_exit(out).dropout.keep_rate == 0.625

    def test_rate_and_keep_rate_conflict(self, tmp_path, capsys):
        net = write_network(tmp_path)
        rc = cli.main(
            [
                "transform",
                "--network",
                str(net),
                "--out",
                str(tmp_path / "me.json"),
                "--rate",
                "0.25",
                "--keep-rate",
                "0.75",
            ]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert "error: --rate and --keep-rate are mutually exclusive" in err

    def test_exit_count_override(self, tmp_path):
        net = write_network(tmp_path)
        out = tmp_path / "me.json"
        rc = cli.main(
            ["transform", "--network", str(net), "--out", str(out), "--exits", "2"]
        )
        assert rc == 0
        me = netspec.load_multi_exit(out)
        assert me.n_exit == 2
        assert [ex.exit_index for ex in me.exits] == [1, 2]

    def test_masksembles_writes_mask_table(self, tmp_path, capsys):
        net = write_network(tmp_path)
        out = tmp_path / "me.json"
        rc = cli.main(
            [
                "transform",
                "--network",
                str(net),
                "--out",
                str(out),
                "--dropout",
                "masksembles",
                "--num-masks",
                "4",
                "--scale",
                "4.0",
            ]
        )
        assert rc == 0
        masks_path = tmp_path / "me.masks.json"
        assert capsys.readouterr().out.splitlines()[0] == f"wrote {masks_path}"

        doc = json.loads(masks_path.read_text())
        assert doc["num_masks"] == 4
        assert doc["scale"] == 4.0
        assert set(doc["sites"]) == {"exit1/drop0", "exit2/drop0", "exit3/drop0"}
        for site in doc["sites"].values():
            assert len(site["masks"]) == 4
            assert all(len(row) == site["feature_count"] for row in site["masks"])
            assert all(v in (0, 1) for row in site["masks"] for v in row)

        me = netspec.load_multi_exit(out)
        assert me.mask_file == masks_path.name

    def test_masks_out_flag(self, tmp_path):
        net = write_network(tmp_path)
        masks = tmp_path / "tables.json"
        rc = cli.main(
            [
                "transform",
                "--network",
                str(net),
                "--out",
                str(tmp_path / "me.json"),
                "--dropout",
                "masksembles",
                "--masks-out",
                str(masks),
            ]
        )
        assert rc == 0
        assert masks.exists()

    def test_missing_network_file(self, tmp_path, capsys):
        rc = cli.main(
            [
                "transform",
                "--network",
                str(tmp_path / "nope.json"),
                "--out",
                str(tmp_path / "me.json"),
            ]
        )
        assert rc == 2
        assert capsys.readouterr().err.startswith("error:")


class TestTrain:
    def test_writes_manifest_and_blob(self, ws):
        manifest = ws / "weights.json"
        assert manifest.exists()
        assert (ws / "weights.bin").exists()
        store = runtime.load_weights(manifest)
        assert {"d1", "d2", "d3", "fc", "exit1/fc", "exit2/fc"} == set(store)

    def test_reports_tensor_count_and_accuracy(self, tmp_path, capsys):
        net = write_network(tmp_path)
        spec = tmp_path / "me.json"
        assert cli.main(["transform", "--network", str(net), "--out", str(spec)]) == 0
        capsys.readouterr()

        out = tmp_path / "w.json"
        rc = cli.main(
            [
                "train",
                "--spec",
                str(spec),
                "--synth",
                "3,16,40",
                "--epochs",
                "10",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        tensors = sum(len(named) for named in runtime.load_weights(out).values())
        assert lines[0] == f"wrote {out} ({tensors} tensor(s))"
        prefix = "train accuracy (no sampling, final exit): "
        assert lines[1].startswith(prefix)
        assert 0.0 <= float(lines[1][len(prefix) :]) <= 1.0

    def test_accuracy_runs_each_layer_once_over_the_dataset(self, ws, tmp_path, monkeypatch):
        calls = []
        original = runtime.forward_batch

        def spy(layer, x, *args):
            calls.append((layer.id, len(x)))
            return original(layer, x, *args)

        monkeypatch.setattr(runtime, "forward_batch", spy)
        spec = ws / "multi_exit.json"
        args = ["train", "--spec", str(spec), "--synth", "3,16,40", "--epochs", "2"]
        assert cli.main([*args, "--out", str(tmp_path / "w.json")]) == 0
        me = netspec.load_multi_exit(spec)
        final = me.exits[-1]
        depth = netspec.attach_depth(me, final.attach_after)
        path = [*me.trunk.layers[: depth + 1], *final.head_layers]
        assert calls == [(layer.id, 40) for layer in path]

    def test_requires_a_data_source(self, ws, capsys):
        rc = cli.main(
            [
                "train",
                "--spec",
                str(ws / "multi_exit.json"),
                "--out",
                str(ws / "unused.json"),
            ]
        )
        assert rc == 2
        assert "provide --dataset" in capsys.readouterr().err


@pytest.fixture(scope="module")
def eval_out(ws):
    out = ws / "report.json"
    csv = ws / "report.csv"
    rc = cli.main(
        [
            "evaluate",
            "--spec",
            str(ws / "multi_exit.json"),
            "--weights",
            str(ws / "weights.json"),
            "--synth",
            "3,16,60",
            "--data-seed",
            "5",
            "--n-pass",
            "2",
            "--seed",
            "11",
            "--noise-count",
            "8",
            "--out",
            str(out),
            "--csv",
            str(csv),
        ]
    )
    assert rc == 0
    return out, csv, json.loads(out.read_text())


class TestEvaluate:
    def test_report_fields(self, ws, eval_out):
        _, _, report = eval_out
        assert set(report) == {
            "n_exit",
            "n_pass",
            "n_sample",
            "flop_main",
            "flop_per_exit",
            "cost_single_exit",
            "cost_multi_exit",
            "reduction_rate",
            "bits",
            "flops_fraction",
            "accuracy",
            "ece",
            "ape",
        }
        assert report["n_exit"] == 3
        assert report["n_pass"] == 2
        assert report["n_sample"] == 6
        assert report["flop_main"] == 1728
        assert report["flop_per_exit"] == [72, 72, 96]
        assert report["bits"] is None

        flops = metrics.count_flops(netspec.load_multi_exit(ws / "multi_exit.json"))
        assert report["cost_single_exit"] == metrics.cost_single_exit(flops, 6)
        assert report["cost_multi_exit"] == metrics.cost_multi_exit(flops, 6, 3)
        assert report["flops_fraction"] == (
            report["cost_multi_exit"] / report["cost_single_exit"]
        )

    def test_metric_ranges(self, eval_out):
        _, _, report = eval_out
        assert 0.0 <= report["accuracy"] <= 1.0
        assert 0.0 <= report["ece"] <= 1.0
        assert report["ape"] >= 0.0

    def test_csv_mirror(self, eval_out):
        _, csv, report = eval_out
        header, row, tail = csv.read_bytes().split(b"\r\n")
        assert tail == b""
        assert header.decode() == ",".join(sorted(report))
        assert len(row.split(b",")) >= len(report)

    def test_summary_line(self, ws, eval_out, capsys):
        out = ws / "again.json"
        rc = cli.main(
            [
                "evaluate",
                "--spec",
                str(ws / "multi_exit.json"),
                "--weights",
                str(ws / "weights.json"),
                "--synth",
                "3,16,60",
                "--data-seed",
                "5",
                "--n-pass",
                "2",
                "--seed",
                "11",
                "--noise-count",
                "8",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        report = json.loads(out.read_text())
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1] == (
            f"accuracy={report['accuracy']:.4f} ece={report['ece']:.4f}"
            f" ape={report['ape']:.4f} n_sample=6"
        )

    def test_threshold_adds_early_exit_fields(self, ws):
        out = ws / "early.json"
        rc = cli.main(
            [
                "evaluate",
                "--spec",
                str(ws / "multi_exit.json"),
                "--weights",
                str(ws / "weights.json"),
                "--synth",
                "3,16,60",
                "--data-seed",
                "5",
                "--n-pass",
                "2",
                "--noise-count",
                "8",
                "--threshold",
                "0.6",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["threshold"] == 0.6
        assert report["exit_mode"] == "ensemble_so_far"
        assert 1.0 <= report["mean_exit_taken"] <= 3.0
        # Per input the trunk always runs; each visited exit adds its
        # own head flops once per pass.
        assert 1728 + 2 * 72 <= report["avg_flops_per_input"] <= 1728 + 2 * 240

    @pytest.mark.parametrize("threshold", [None, "0.6"])
    def test_scores_through_one_metrics_score_call(self, ws, tmp_path, monkeypatch, threshold):
        """evaluate predicts and scores through metrics.score, once, and
        reports what it returns."""
        scored = []
        score = metrics.score

        def spy(*args, **kwargs):
            scored.append(score(*args, **kwargs))
            return scored[-1]

        monkeypatch.setattr(metrics, "score", spy)
        out = tmp_path / "report.json"
        argv = [
            "evaluate", "--spec", str(ws / "multi_exit.json"),
            "--weights", str(ws / "weights.json"), "--synth", "3,16,60",
            "--n-pass", "2", "--noise-count", "8", "--out", str(out),
        ]
        assert cli.main(argv + (["--threshold", threshold] if threshold else [])) == 0
        report = json.loads(out.read_text())
        ((s,),) = scored  # one call, at the one threshold
        assert (report["accuracy"], report["ece"], report["ape"]) == (s.accuracy, s.ece, s.ape)
        if threshold is None:
            assert s.early_exit is None and "avg_flops_per_input" not in report
        else:
            assert report["avg_flops_per_input"] == s.early_exit.avg_flops_per_input

    def test_bits_recorded(self, ws):
        out = ws / "quant.json"
        rc = cli.main(
            [
                "evaluate",
                "--spec",
                str(ws / "multi_exit.json"),
                "--weights",
                str(ws / "weights.json"),
                "--synth",
                "3,16,30",
                "--n-pass",
                "1",
                "--noise-count",
                "4",
                "--bits",
                "8",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        assert json.loads(out.read_text())["bits"] == 8

    def test_rank_three_dataset(self, tmp_path, capsys):
        """Image inputs (12 x 3x32x32) through save_dataset and evaluate,
        on the 4-exit conv net with initialised weights."""
        me = netspec.place_exits(netspec.parse_network(conv32_doc()))
        cfg = DropoutConfig(kind="masksembles", num_masks=4, scale=2.0, seed=3)
        me = netspec.insert_dropout(me, cfg, 1)
        netspec.save_multi_exit(me, tmp_path / "multi_exit.json")
        runtime.save_weights(
            runtime.init_weights(netspec.all_layers(me), 4), tmp_path / "weights.json"
        )
        gen = np.random.Generator(np.random.Philox(key=5))
        features = gen.standard_normal((12, 3, 32, 32)).astype(np.float32)
        data = datasets.Dataset(features=features, labels=np.arange(12) % 10)
        datasets.save_dataset(data, tmp_path / "data.json")
        assert np.array_equal(datasets.load_dataset(tmp_path / "data.json").features, features)
        out = tmp_path / "report.json"
        rc = cli.main(
            [
                "evaluate",
                "--spec",
                str(tmp_path / "multi_exit.json"),
                "--weights",
                str(tmp_path / "weights.json"),
                "--dataset",
                str(tmp_path / "data.json"),
                "--n-pass",
                "2",
                "--noise-count",
                "4",
                "--out",
                str(out),
            ]
        )
        assert rc == 0, capsys.readouterr().err
        report = json.loads(out.read_text())
        assert report["n_exit"] == 4
        assert 0.0 <= report["accuracy"] <= 1.0
        assert report["ape"] >= 0.0

    def test_rank_one_noise_stats_are_plain_floats(self):
        data = datasets.make_blobs(count=30, classes=3, dim=4, seed=1)
        noise = datasets.noise_like(data, 8, 2)
        mean, std = datasets.dataset_stats(data)
        assert noise.mean == tuple(float(v) for v in mean)
        assert noise.std == tuple(float(v) for v in std)
        assert (noise.count, noise.seed) == (8, 2)

    def test_requires_a_data_source(self, ws, capsys):
        rc = cli.main(
            [
                "evaluate",
                "--spec",
                str(ws / "multi_exit.json"),
                "--weights",
                str(ws / "weights.json"),
                "--out",
                str(ws / "unused.json"),
            ]
        )
        assert rc == 2
        assert "provide --dataset" in capsys.readouterr().err

    def test_rerun_is_byte_identical(self, ws, eval_out, tmp_path):
        out, csv, _ = eval_out
        rc = cli.main(
            [
                "evaluate",
                "--spec",
                str(ws / "multi_exit.json"),
                "--weights",
                str(ws / "weights.json"),
                "--synth",
                "3,16,60",
                "--data-seed",
                "5",
                "--n-pass",
                "2",
                "--seed",
                "11",
                "--noise-count",
                "8",
                "--out",
                str(tmp_path / "report.json"),
                "--csv",
                str(tmp_path / "report.csv"),
            ]
        )
        assert rc == 0
        assert (tmp_path / "report.json").read_bytes() == out.read_bytes()
        assert (tmp_path / "report.csv").read_bytes() == csv.read_bytes()


def explore_config(root: Path, **overrides) -> Path:
    cfg = {
        "network": mlp_doc(),
        "dataset": {"blobs": {"count": 60, "classes": 3, "dim": 16, "seed": 5}},
        "grids": {
            "mcd_rates": [0.25],
            "masksembles_scales": [2.0],
            "n_exits": [2],
            "n_passes": [2],
        },
        "constraints": {"min_accuracy": 0.0},
        "priority": {"metrics": ["accuracy"]},
        "settings": {"epochs": 25},
        "seed": 3,
        "noise_count": 4,
    }
    cfg.update(overrides)
    path = root / "config.json"
    path.write_text(json.dumps(cfg) + "\n")
    return path


@pytest.fixture(scope="module")
def explore_out(ws):
    config = explore_config(ws)
    out = ws / "sweep"
    assert cli.main(["explore", "--config", str(config), "--out", str(out)]) == 0
    return out


class TestExplore:
    def test_output_files(self, explore_out):
        for name in (
            "results.csv",
            "results.json",
            "best.json",
            "best.plan.json",
            "best.plan.txt",
        ):
            assert (explore_out / name).exists()

    def test_results_csv_header(self, explore_out):
        header = (explore_out / "results.csv").read_bytes().split(b"\r\n")[0]
        assert header.decode() == ",".join(explorer.LEDGER_FIELDS)

    def test_results_json_rows(self, explore_out):
        rows = json.loads((explore_out / "results.json").read_text())
        assert len(rows) == 2
        kinds = {r["point"]["dropout_kind"] for r in rows}
        assert kinds == {"mcd", "masksembles"}
        assert all("metrics" in r and "error" not in r for r in rows)

    def test_best_json_shape(self, explore_out):
        doc = json.loads((explore_out / "best.json").read_text())
        assert set(doc) == {"best", "ranking", "optima"}
        assert doc["best"] is not None
        assert set(doc["optima"]) == {"accuracy", "ece", "ape"}
        assert len(doc["ranking"]) == 2
        assert doc["ranking"][0] == doc["best"]

    def test_best_plan_is_loadable(self, explore_out):
        plan = emitter.load_plan(explore_out / "best.plan.json")
        assert plan.schema_version == 2
        assert plan.design is not None
        assert plan.metrics is not None
        assert plan.network.dropout.kind == plan.design["dropout_kind"]
        text = (explore_out / "best.plan.txt").read_text()
        assert text.splitlines()[0] == "accelerator plan (schema 2)"

    def test_summary_lines(self, ws, tmp_path, capsys):
        config = explore_config(ws)
        rc = cli.main(
            ["explore", "--config", str(config), "--out", str(tmp_path / "sweep")]
        )
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "evaluated 2 design point(s): 2 ok, 0 failed, 2 feasible"
        assert lines[1].startswith("wrote ")
        assert lines[2].startswith("best: ")

    def test_rerun_is_byte_identical(self, ws, explore_out, tmp_path):
        config = explore_config(ws)
        again = tmp_path / "sweep"
        assert cli.main(["explore", "--config", str(config), "--out", str(again)]) == 0
        for name in ("results.csv", "results.json", "best.json", "best.plan.json"):
            assert (again / name).read_bytes() == (explore_out / name).read_bytes()

    def test_parallel_jobs_match_serial(self, ws, explore_out, tmp_path):
        config = explore_config(ws)
        out = tmp_path / "sweep"
        rc = cli.main(
            ["explore", "--config", str(config), "--out", str(out), "--jobs", "2"]
        )
        assert rc == 0
        assert (out / "results.csv").read_bytes() == (
            explore_out / "results.csv"
        ).read_bytes()

    def test_unknown_config_key(self, tmp_path, capsys):
        config = explore_config(tmp_path, bogus=1)
        rc = cli.main(["explore", "--config", str(config), "--out", str(tmp_path / "s")])
        assert rc == 2
        assert "unknown config keys: ['bogus']" in capsys.readouterr().err

    def test_dataset_config_must_name_a_source(self, tmp_path, capsys):
        config = explore_config(tmp_path, dataset={"weird": 1})
        rc = cli.main(["explore", "--config", str(config), "--out", str(tmp_path / "s")])
        assert rc == 2
        assert "dataset config needs 'path' or 'blobs'" in capsys.readouterr().err

    def test_infeasible_constraints_exit_code(self, ws, tmp_path, capsys):
        config = explore_config(
            tmp_path,
            network=str(write_network(tmp_path)),
            grids={
                "mcd_rates": [0.25],
                "masksembles_scales": [],
                "n_exits": [2],
                "n_passes": [2],
            },
            constraints={"min_accuracy": 2.0},
        )
        out = tmp_path / "sweep"
        rc = cli.main(["explore", "--config", str(config), "--out", str(out)])
        assert rc == 3
        assert "infeasible: no feasible point" in capsys.readouterr().err
        # The ledger is still written so the sweep can be inspected.
        assert json.loads((out / "best.json").read_text())["best"] is None


class TestMap:
    def test_auto_picks_the_fastest_fitting_mapping(self, ws, tmp_path, capsys):
        hw = write_hardware(tmp_path)
        out = tmp_path / "map.json"
        rc = cli.main(
            [
                "map",
                "--spec",
                str(ws / "multi_exit.json"),
                "--n-sample",
                "6",
                "--hardware",
                str(hw),
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        doc = json.loads(out.read_text())
        assert set(doc) == {
            "strategy",
            "n_sample",
            "n_engines",
            "rounds",
            "sample_assignment",
            "latency_cycles",
            "latency_ms",
            "resources",
            "fits",
        }
        assert doc["strategy"] == "spatial"
        assert doc["n_engines"] == 6
        assert doc["rounds"] == 1
        assert doc["fits"] is True
        flat = sorted(s for r in doc["sample_assignment"] for s in r)
        assert flat == list(range(6))
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1].startswith("strategy=spatial engines=6 rounds=1 cycles=18")

    def test_explicit_engines(self, ws, tmp_path, capsys):
        hw = write_hardware(tmp_path)
        out = tmp_path / "map.json"
        rc = cli.main(
            [
                "map",
                "--spec",
                str(ws / "multi_exit.json"),
                "--n-sample",
                "6",
                "--engines",
                "2",
                "--hardware",
                str(hw),
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["strategy"] == "hybrid"
        assert doc["n_engines"] == 2
        assert doc["rounds"] == 3
        line = capsys.readouterr().out.splitlines()[-1]
        assert line.startswith("strategy=hybrid engines=2 rounds=3")

    def test_pareto_file(self, ws, tmp_path):
        hw = write_hardware(tmp_path)
        pareto = tmp_path / "pareto.json"
        rc = cli.main(
            [
                "map",
                "--spec",
                str(ws / "multi_exit.json"),
                "--n-sample",
                "6",
                "--hardware",
                str(hw),
                "--out",
                str(tmp_path / "map.json"),
                "--pareto",
                str(pareto),
            ]
        )
        assert rc == 0
        frontier = json.loads(pareto.read_text())
        assert [p["n_engines"] for p in frontier] == [6, 3, 2, 1]
        cycles = [p["latency_cycles"] for p in frontier]
        assert cycles == sorted(cycles)

    def test_sample_count_must_divide(self, ws, tmp_path, capsys):
        rc = cli.main(
            [
                "map",
                "--spec",
                str(ws / "multi_exit.json"),
                "--n-sample",
                "7",
                "--out",
                str(tmp_path / "map.json"),
            ]
        )
        assert rc == 2
        assert "not divisible by the 3 exits" in capsys.readouterr().err

    def test_no_engine_count_fits(self, ws, tmp_path, capsys):
        hw = write_hardware(tmp_path, dsp_budget=5.0)
        rc = cli.main(
            [
                "map",
                "--spec",
                str(ws / "multi_exit.json"),
                "--n-sample",
                "6",
                "--hardware",
                str(hw),
                "--out",
                str(tmp_path / "map.json"),
            ]
        )
        assert rc == 3
        assert "infeasible: no engine count in 1..6 fits" in capsys.readouterr().err

    def test_explicit_engines_over_budget(self, ws, tmp_path, capsys):
        hw = write_hardware(tmp_path, dsp_budget=15.0)
        rc = cli.main(
            [
                "map",
                "--spec",
                str(ws / "multi_exit.json"),
                "--n-sample",
                "6",
                "--engines",
                "2",
                "--hardware",
                str(hw),
                "--out",
                str(tmp_path / "map.json"),
            ]
        )
        assert rc == 3
        assert "infeasible: 2 engine(s) exceed" in capsys.readouterr().err


class TestEmit:
    def test_writes_plan_and_report(self, ws, tmp_path, capsys):
        hw = write_hardware(tmp_path)
        out = tmp_path / "plan.json"
        report = tmp_path / "plan.txt"
        rc = cli.main(
            [
                "emit",
                "--spec",
                str(ws / "multi_exit.json"),
                "--n-sample",
                "6",
                "--engines",
                "2",
                "--hardware",
                str(hw),
                "--bits",
                "8",
                "--out",
                str(out),
                "--report",
                str(report),
            ]
        )
        assert rc == 0
        assert capsys.readouterr().out.splitlines() == [
            f"wrote {out}",
            f"wrote {report}",
        ]
        plan = emitter.load_plan(out)
        assert plan.schema_version == 2
        assert plan.mapping["strategy"] == "hybrid"
        assert plan.network == netspec.load_multi_exit(ws / "multi_exit.json")
        assert plan.qformat == runtime.QFormat(total_bits=8, integer_bits=3)
        lines = report.read_text().splitlines()
        assert lines[0] == "accelerator plan (schema 2)"
        assert lines[1] == "strategy: hybrid (2 engine(s), 3 round(s))"
        assert lines[2] == "samples per inference: 6 (3 exit(s) x 2 pass(es))"

    def test_metrics_embedding(self, ws, eval_out, tmp_path):
        _, _, report = eval_out
        out = tmp_path / "plan.json"
        rc = cli.main(
            [
                "emit",
                "--spec",
                str(ws / "multi_exit.json"),
                "--n-sample",
                "6",
                "--engines",
                "2",
                "--metrics",
                str(ws / "report.json"),
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["metrics"]["accuracy"] == report["accuracy"]
        assert doc["metrics"]["n_sample"] == report["n_sample"]

    def test_over_budget_warns_but_emits(self, ws, tmp_path, capsys):
        hw = write_hardware(tmp_path, dsp_budget=15.0)
        out = tmp_path / "plan.json"
        rc = cli.main(
            [
                "emit",
                "--spec",
                str(ws / "multi_exit.json"),
                "--n-sample",
                "6",
                "--engines",
                "3",
                "--hardware",
                str(hw),
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        assert out.exists()
        captured = capsys.readouterr()
        assert "warning: plan exceeds the resource budget" in captured.err

    def test_sample_count_must_divide(self, ws, tmp_path, capsys):
        rc = cli.main(
            [
                "emit",
                "--spec",
                str(ws / "multi_exit.json"),
                "--n-sample",
                "5",
                "--engines",
                "1",
                "--out",
                str(tmp_path / "plan.json"),
            ]
        )
        assert rc == 2
        assert "not divisible" in capsys.readouterr().err

    def test_rerun_is_byte_identical(self, ws, tmp_path):
        argv = [
            "emit",
            "--spec",
            str(ws / "multi_exit.json"),
            "--n-sample",
            "6",
            "--engines",
            "2",
        ]
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert cli.main(argv + ["--out", str(a)]) == 0
        assert cli.main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


REPLAY_DROPOUT = {
    "mcd-element": ["--keep-rate", "0.75", "--granularity", "element"],
    "mcd-element-inverted": ["--keep-rate", "0.75", "--granularity", "element", "--inverted"],
    "mcd-channel": ["--keep-rate", "0.5", "--granularity", "channel"],
    "mcd-channel-inverted": ["--keep-rate", "0.5", "--granularity", "channel", "--inverted"],
    "masksembles": ["--dropout", "masksembles", "--num-masks", "4", "--scale", "2.0"],
}


class TestPlanReplay:
    @pytest.mark.parametrize("dropout", sorted(REPLAY_DROPOUT))
    @pytest.mark.parametrize("doc", [mlp_doc, conv32_doc], ids=["mlp", "conv"])
    def test_the_plan_alone_reproduces_predict(self, tmp_path, doc, dropout):
        """An emitted plan holds the network and datapath format: with the
        spec and mask files deleted, predict on the plan's network gives
        the spec's bits at float and at 8 bits."""
        (tmp_path / "net.json").write_text(json.dumps(doc()))
        spec = tmp_path / "spec.json"
        argv = ["transform", "--network", str(tmp_path / "net.json"), "--out", str(spec)]
        assert cli.main(argv + ["--seed", "7"] + REPLAY_DROPOUT[dropout]) == 0
        me = netspec.load_multi_exit(spec)
        weights = runtime.init_weights(netspec.all_layers(me), seed=5)
        x = np.random.default_rng(3).normal(size=me.trunk.input_shape).astype(np.float32)
        n_sample = str(2 * me.n_exit)
        emitted = {}
        for bits in (None, 8):
            out = tmp_path / f"plan{bits}.json"
            argv = ["emit", "--spec", str(spec), "--n-sample", n_sample, "--engines", "2"]
            assert cli.main(argv + ["--out", str(out)] + (["--bits", "8"] if bits else [])) == 0
            want = inference.predict(me, x, 2, weights, 11, runtime.datapath_format(bits, 3))
            emitted[out] = want.samples
        for path in tmp_path.glob("*.json"):
            if path not in emitted:
                path.unlink()
        for out, want in emitted.items():
            plan = emitter.load_plan(out)
            got = inference.predict(plan.network, x, plan.n_pass, weights, 11, plan.qformat)
            assert got.samples.tobytes() == want.tobytes()


def _write(root: Path, name: str, text: str) -> str:
    path = root / name
    path.write_text(text)
    return str(path)


def _explore(root: Path, *missing: str, **overrides) -> list[str]:
    """explore on explore_config(root, **overrides) without the missing keys."""
    path = explore_config(root, **overrides)
    doc = json.loads(path.read_text())
    for key in missing:
        del doc[key]
    path.write_text(json.dumps(doc))
    return ["explore", "--config", str(path), "--out", str(root / "sweep")]


def _explore_file(root: Path, text: str) -> list[str]:
    return ["explore", "--config", _write(root, "broken.json", text), "--out", str(root)]


def _emit_metrics(ws: Path, root: Path, text: str) -> list[str]:
    argv = ["emit", "--spec", str(ws / "multi_exit.json"), "--n-sample", "6", "--engines", "2"]
    return argv + ["--metrics", _write(root, "m.json", text), "--out", str(root / "plan.json")]


def _transform(root: Path, text: str) -> list[str]:
    network = _write(root, "n.json", text)
    return ["transform", "--network", network, "--out", str(root / "me.json")]


def _train(ws: Path, root: Path, text: str) -> list[str]:
    return _train_on(ws, root, ["--dataset", _write(root, "d.json", text)])


def _train_on(ws: Path, root: Path, data: list[str]) -> list[str]:
    return ["train", "--spec", str(ws / "multi_exit.json"), *data, "--out", str(root / "w.json")]


def _evaluate(ws: Path, root: Path, text: str) -> list[str]:
    return _evaluate_on(ws, root, ["--dataset", _write(root, "d.json", text)])


def _evaluate_on(ws: Path, root: Path, data: list[str]) -> list[str]:
    argv = ["evaluate", "--spec", str(ws / "multi_exit.json"), "--weights", str(ws / "weights.json")]
    return argv + data + ["--out", str(root / "r.json")]


BLOBS = {"count": 60, "classes": 3, "dim": 16, "seed": 5}

# (argv from the trained workspace and a scratch dir, what the message must name)
MALFORMED = [
    pytest.param(
        lambda ws, t: _explore_file(t, '[{"a": 1}]'),
        ["config", "JSON object"],
        id="config-is-a-list",
    ),
    pytest.param(lambda ws, t: _explore(t, dataset=5), ["dataset config"], id="dataset-is-an-int"),
    pytest.param(
        lambda ws, t: _explore(t, dataset={"blobs": {**BLOBS, "zzz": 1}}),
        ["dataset blobs", "zzz"],
        id="unknown-blobs-key",
    ),
    pytest.param(
        lambda ws, t: _explore(t, settings={"bogus": 1}),
        ["settings", "bogus"],
        id="unknown-settings-key",
    ),
    pytest.param(
        lambda ws, t: _explore(t, priority={"metrics": ["accuracy"], "bogus": 2}),
        ["priority", "bogus"],
        id="unknown-priority-key",
    ),
    pytest.param(
        lambda ws, t: _explore(t, grids={"n_exits": 3}), ["grid", "n_exits"], id="grid-is-an-int"
    ),
    pytest.param(
        lambda ws, t: _emit_metrics(ws, t, "[1, 2]"), ["metrics report"], id="metrics-is-a-list"
    ),
    pytest.param(
        lambda ws, t: _transform(t, '{"input_shape": [16], "layers": [5]}'),
        ["layer", "JSON object"],
        id="layer-is-an-int",
    ),
    pytest.param(
        lambda ws, t: _train(ws, t, "[[1.0]]"), ["dataset", "JSON object"], id="dataset-is-a-list"
    ),
    pytest.param(
        lambda ws, t: _train(ws, t, '{"features": [], "labels": []}'),
        ["dataset", "d.json", "features holds no input values"],
        id="train-dataset-is-empty",
    ),
    pytest.param(
        lambda ws, t: _evaluate(ws, t, '{"features": [], "labels": []}'),
        ["dataset", "d.json", "features holds no input values"],
        id="evaluate-dataset-is-empty",
    ),
    pytest.param(
        lambda ws, t: _explore(t, "priority"), ["config", "priority"], id="config-lacks-priority"
    ),
    pytest.param(
        lambda ws, t: _explore_file(t, '{"network": '),
        ["broken.json", "not valid JSON"],
        id="config-is-not-json",
    ),
    pytest.param(
        lambda ws, t: _transform(t, '{"input_shape": [16], "layers": 5}'),
        ["network", "layers", "JSON array"],
        id="layers-is-an-int",
    ),
    pytest.param(
        lambda ws, t: _transform(t, json.dumps({**mlp_doc(), "input_shape": 16})),
        ["network", "input_shape", "JSON array"],
        id="input-shape-is-an-int",
    ),
    pytest.param(
        lambda ws, t: _explore(t, priority={"metrics": 5}),
        ["priority", "metrics", "JSON array"],
        id="priority-metrics-is-an-int",
    ),
    pytest.param(
        lambda ws, t: _explore(t, hardware={"luts": 1}),
        ["config", "hardware", "path"],
        id="hardware-is-an-object",
    ),
    pytest.param(
        lambda ws, t: _explore(t, settings={"epochs": "3"}),
        ["settings", "epochs", "integer"],
        id="settings-value-is-a-string",
    ),
    pytest.param(
        lambda ws, t: _explore(t, priority={"metrics": ["accuracy"], "tolerances": {"acuracy": 1}}),
        ["priority", "tolerances", "acuracy"],
        id="misspelt-priority-tolerance",
    ),
    pytest.param(
        lambda ws, t: _explore(t, grids={"n_passes": ["2"]}),
        ["grid", "n_passes", "integer"],
        id="grid-value-is-a-string",
    ),
    pytest.param(
        lambda ws, t: _explore(t, noise_count="4"),
        ["config", "noise_count", "integer"],
        id="noise-count-is-a-string",
    ),
    pytest.param(
        lambda ws, t: _explore(t, seed="3"), ["config", "seed", "integer"], id="seed-is-a-string"
    ),
    pytest.param(
        lambda ws, t: _explore(t, settings={"epochs": 25, "channel_mode": "slice"}),
        ["settings", "channel_mode"],
        id="settings-channel-mode-is-gone",
    ),
    pytest.param(
        lambda ws, t: _train_on(ws, t, ["--synth", "5,16,90"]),
        ["dataset labels 3, 4", "3 classes"],
        id="train-labels-past-the-class-count",
    ),
    pytest.param(
        lambda ws, t: _evaluate(ws, t, json.dumps({"features": [[0.5] * 16], "labels": [-1]})),
        ["dataset labels -1", "3 classes"],
        id="evaluate-label-is-negative",
    ),
    pytest.param(
        lambda ws, t: _evaluate_on(ws, t, ["--synth", "5,16,30"]),
        ["dataset labels 3, 4", "3 classes"],
        id="evaluate-labels-past-the-class-count",
    ),
    pytest.param(
        lambda ws, t: _evaluate_on(ws, t, ["--synth", "3,16,30", "--noise-count", "0"]),
        ["--noise-count", ">= 1"],
        id="evaluate-noise-count-is-0",
    ),
]


def _map_count(ws: Path, root: Path, verb: str, count: str) -> list[str]:
    argv = [verb, "--spec", str(ws / "multi_exit.json"), "--n-sample", count]
    if verb == "map":
        return argv + ["--out", str(root / "m.json"), "--pareto", str(root / "p.json")]
    argv += ["--engines", "2", "--out", str(root / "plan.json")]
    return argv + ["--report", str(root / "r.txt")]


# (argv from the trained workspace and a scratch dir, the flag and its value)
BAD_COUNTS = [
    pytest.param(
        lambda ws, t: _evaluate_on(ws, t, ["--synth", "3,16,30", "--n-pass", "0"]),
        "--n-pass", "0", id="evaluate-n-pass-is-0",
    ),
    pytest.param(
        lambda ws, t: _evaluate_on(ws, t, ["--synth", "3,16,30", "--n-bins", "0"]),
        "--n-bins", "0", id="evaluate-n-bins-is-0",
    ),
    pytest.param(lambda ws, t: _map_count(ws, t, "map", "0"), "--n-sample", "0", id="map-0"),
    pytest.param(lambda ws, t: _map_count(ws, t, "map", "-3"), "--n-sample", "-3", id="map-neg"),
    pytest.param(lambda ws, t: _map_count(ws, t, "emit", "0"), "--n-sample", "0", id="emit-0"),
    pytest.param(lambda ws, t: _map_count(ws, t, "emit", "-3"), "--n-sample", "-3", id="emit-neg"),
]


def _transform_ws(ws: Path, root: Path, *flags: str) -> list[str]:
    argv = ["transform", "--network", str(ws / "network.json"), "--out", str(root / "me.json")]
    return argv + list(flags)


# (argv from the trained workspace and a scratch dir, the flag or field the
# message must name)
BAD_VALUES = [
    *(
        pytest.param(
            lambda ws, t, v=v, run=run: run(ws, t, ["--synth", v]), "--synth", id=f"{verb}-{v}"
        )
        for verb, run in (("train", _train_on), ("evaluate", _evaluate_on))
        for v in ("2,16,0", "3,0,10", "1,16,30", "3,16", "3,16,x")
    ),
    *(
        pytest.param(
            lambda ws, t, v=v: _transform_ws(ws, t, "--dropout", "masksembles", "--scale", v),
            "scale",
            id=f"transform-scale-{v}",
        )
        for v in ("inf", "nan")
    ),
    *(
        pytest.param(
            lambda ws, t, v=v: _train_on(ws, t, ["--synth", "3,16,30", f"--lr={v}"]),
            "lr",
            id=f"train-lr-{v}",
        )
        for v in ("inf", "nan", "-inf")
    ),
]


class TestBadCounts:
    @pytest.mark.parametrize("argv, flag, value", BAD_COUNTS)
    def test_exits_2_naming_the_flag_and_writes_nothing(
        self, ws, tmp_path, capsys, argv, flag, value
    ):
        """A count below 1 is bad usage, not an infeasible budget."""
        rc = cli.main(argv(ws, tmp_path))
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err == f"error: {flag} must be >= 1, got {value}\n"
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv, name", BAD_VALUES)
    def test_bad_values_exit_2_naming_the_field_and_write_nothing(
        self, ws, tmp_path, capsys, argv, name
    ):
        rc = cli.main(argv(ws, tmp_path))
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err.startswith("error: ") and name in captured.err
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("verb", ["map", "emit"])
    @pytest.mark.parametrize("engines", ["0", "13"])
    def test_engines_outside_the_sample_count_exit_2_before_any_file(
        self, ws, tmp_path, capsys, verb, engines
    ):
        """--engines is checked against [1, n_sample] before map writes its
        frontier; argparse keeps the last --engines given."""
        rc = cli.main(_map_count(ws, tmp_path, verb, "12") + ["--engines", engines])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err == f"error: --engines must be in [1, 12], got {engines}\n"
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_jobs_below_1_exit_2_before_the_config_is_read(self, tmp_path, capsys, jobs):
        """The config named does not exist, so reading it first would name it."""
        argv = ["explore", "--config", str(tmp_path / "none.json"), "--out", str(tmp_path / "out")]
        rc = cli.main(argv + ["--jobs", jobs])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err == f"error: --jobs must be >= 1, got {jobs}\n"
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

    def test_noise_count_0_exits_2_before_anything_trains(self, tmp_path, capsys, monkeypatch):
        def no_training(*args):
            raise AssertionError("trained a point")

        monkeypatch.setattr(train, "train_models", no_training)
        rc = cli.main(_explore(tmp_path, noise_count=0))
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err == "error: config key 'noise_count' must be >= 1, got 0\n"
        assert captured.out == ""
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]

    def test_n_pass_past_the_masks_names_the_flag(self, tmp_path, capsys):
        inputs = tmp_path / "in"
        inputs.mkdir()
        spec, weights = inputs / "multi_exit.json", inputs / "w.json"
        argv = ["transform", "--network", str(write_network(inputs)), "--out", str(spec)]
        assert cli.main(argv + ["--dropout", "masksembles", "--num-masks", "4"]) == 0
        me = netspec.load_multi_exit(spec)
        runtime.save_weights(runtime.init_weights(netspec.all_layers(me), 1), weights)
        capsys.readouterr()
        argv = ["evaluate", "--spec", str(spec), "--weights", str(weights), "--synth", "3,16,30"]
        rc = cli.main(argv + ["--n-pass", "5", "--out", str(tmp_path / "r.json")])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err.startswith("error: --n-pass 5 exceeds the 4 available masks; ")
        assert captured.out == ""
        assert [p.name for p in tmp_path.iterdir()] == ["in"]


class TestMalformedInput:
    @pytest.mark.parametrize("argv, names", MALFORMED)
    def test_exits_2_naming_the_document_and_key(self, ws, tmp_path, capsys, argv, names):
        rc = cli.main(argv(ws, tmp_path))
        err = capsys.readouterr().err
        assert rc == 2, err
        assert "Traceback" not in err
        assert err.startswith("error: ")
        for name in names:
            assert name in err


class TestFileFormats:
    def test_every_json_file_written_is_in_the_one_format(self, ws, explore_out, tmp_path):
        """Each file the verbs and the library writers write is
        documents.dumps of its own content."""
        inputs = tmp_path / "in"
        inputs.mkdir()
        spec = ["--spec", str(ws / "multi_exit.json")]
        report = str(tmp_path / "report.json")
        for argv in (
            ["transform", "--network", str(write_network(inputs)), "--dropout", "masksembles"]
            + ["--out", str(tmp_path / "ms.json")],
            ["evaluate", *spec, "--weights", str(ws / "weights.json"), "--synth", "3,16,30"]
            + ["--n-pass", "1", "--noise-count", "4", "--out", report],
            ["map", *spec, "--n-sample", "6", "--out", str(tmp_path / "mapping.json")]
            + ["--pareto", str(tmp_path / "pareto.json")],
            ["emit", *spec, "--n-sample", "6", "--engines", "2", "--metrics", report]
            + ["--out", str(tmp_path / "plan.json")],
        ):
            assert cli.main(argv) == 0
        netspec.save_network(netspec.load_network(inputs / "network.json"), tmp_path / "net.json")
        mapping.save_hardware_model(mapping.default_hardware_model(), tmp_path / "hw.json")
        written = [ws / "multi_exit.json", ws / "weights.json"]
        written += sorted(explore_out.glob("*.json")) + sorted(tmp_path.glob("*.json"))
        assert [p.name for p in written] == [
            "multi_exit.json",
            "weights.json",
            "best.json",
            "best.plan.json",
            "results.json",
            "hw.json",
            "mapping.json",
            "ms.json",
            "ms.masks.json",
            "net.json",
            "pareto.json",
            "plan.json",
            "report.json",
        ]
        for path in written:
            text = path.read_text()
            assert text == documents.dumps(json.loads(text)), path

    def test_dataset_files_are_one_sorted_line(self, tmp_path):
        path = tmp_path / "data.json"
        datasets.save_dataset(datasets.make_blobs(count=6, classes=2, dim=2, seed=1), path)
        text = path.read_text()
        assert text == json.dumps(json.loads(text), sort_keys=True) + "\n"
        assert text.count("\n") == 1


class TestMainDispatch:
    def test_no_arguments(self, capsys):
        assert cli.main([]) == 2
        capsys.readouterr()

    def test_unknown_option(self, capsys):
        assert cli.main(["transform", "--wat"]) == 2
        capsys.readouterr()

    def test_internal_errors_return_1(self, tmp_path, monkeypatch, capsys):
        def boom(path):
            raise RuntimeError("wires crossed")

        monkeypatch.setattr(cli.netspec, "load_network", boom)
        net = write_network(tmp_path)
        rc = cli.main(
            ["transform", "--network", str(net), "--out", str(tmp_path / "me.json")]
        )
        assert rc == 1
        assert "RuntimeError: wires crossed" in capsys.readouterr().err

    def test_options_do_not_leak_between_calls(self, ws, tmp_path):
        """The parser is built once per process; an option given to one
        call must not reach the next."""
        argv = [
            "evaluate", "--spec", str(ws / "multi_exit.json"), "--weights", str(ws / "weights.json"),
            "--synth", "3,16,30", "--n-pass", "1", "--noise-count", "4",
        ]
        assert cli.main([*argv, "--bits", "8", "--out", str(tmp_path / "q8.json")]) == 0
        assert cli.main([*argv, "--out", str(tmp_path / "float.json")]) == 0
        assert json.loads((tmp_path / "q8.json").read_text())["bits"] == 8
        assert json.loads((tmp_path / "float.json").read_text())["bits"] is None

    def test_a_verb_rebound_after_a_first_call_runs(self, ws, tmp_path, monkeypatch, capsys):
        """main looks each verb's cmd_ function up in the module on every
        call, so a later rebinding (a test double, a tracing wrapper) runs."""
        argv = ["map", "--spec", str(ws / "multi_exit.json"), "--n-sample", "6"]
        assert cli.main([*argv, "--out", str(tmp_path / "first.json")]) == 0
        seen = []
        monkeypatch.setattr(cli, "cmd_map", lambda args: seen.append(args.out) or 0)
        assert cli.main([*argv, "--out", str(tmp_path / "second.json")]) == 0
        assert seen == [str(tmp_path / "second.json")]
        assert not (tmp_path / "second.json").exists()
        capsys.readouterr()

    def test_module_entry_point(self):
        # the child imports the same package as this process, installed or not
        src = str(Path(cli.__file__).resolve().parents[1])
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-m", "mcexit.cli", "--help"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("usage: mcexit")
