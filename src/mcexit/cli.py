"""Command-line front end.

Verbs: transform (insert exits + dropout into a network description),
train (fit toy weights), evaluate (accuracy / calibration / entropy /
cost for one configuration, scored by metrics.score as each explore
point is), explore (sweep the joint design space), map
(sample-to-engine mapping and Pareto frontier), emit (accelerator plan
JSON + text report).

Exit codes: 0 success, 2 bad usage or unreadable input, 3 feasible set
empty (constraints or budget unsatisfiable), 1 internal error. All file
outputs are byte-stable for identical inputs and seeds.
"""

from __future__ import annotations

import argparse
import functools
import sys
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any

import numpy as np

from . import emitter, explorer, inference, mapping, metrics, netspec, runtime, train
from .datasets import Dataset, label_error, load_dataset, make_blobs, noise_like
from .documents import fields, load, read_json, typed, write_json
from .dropout import DropoutConfig, derive_seed
from .metrics import MetricsReport

REPORT_KEYS = ("accuracy", "ece", "ape", "flops_fraction", "n_sample")  # what emit reads


class InfeasibleError(RuntimeError):
    """No design point or mapping satisfies the stated constraints."""


def _load_data(args: argparse.Namespace, me: netspec.MultiExitSpec) -> Dataset:
    """The --dataset or --synth data, whose inputs must have me's input
    shape and whose labels must each name one of the classes of me."""
    if getattr(args, "dataset", None):
        flag, data = "--dataset", load_dataset(args.dataset)
    elif getattr(args, "synth", None):
        try:
            classes, features, count = (int(p) for p in args.synth.split(","))
        except ValueError:
            raise ValueError(f"--synth takes classes,features,count, got {args.synth!r}") from None
        if classes < 2 or features < 2 or count < 1:
            raise ValueError(
                f"--synth needs classes >= 2, features >= 2 and count >= 1, got {args.synth}"
            )
        flag = "--synth"
        data = make_blobs(count=count, classes=classes, dim=features, seed=args.data_seed)
    else:
        raise ValueError("provide --dataset FILE or --synth classes,features,count")
    if data.features.shape[1:] != me.trunk.input_shape:
        raise ValueError(
            f"{flag} inputs are shaped {data.features.shape[1:]},"
            f" but the spec takes {me.trunk.input_shape}"
        )
    if (err := label_error(data, me.class_count)) is not None:
        raise err
    return data


def _add_data_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--dataset", help="labelled dataset JSON file")
    sub.add_argument("--synth", help="synthetic blobs: classes,features,count")
    sub.add_argument("--data-seed", type=int, default=0, help="synthetic data seed")


def cmd_transform(args: argparse.Namespace) -> int:
    net = netspec.load_network(args.network)
    me = netspec.place_exits(net)
    if args.exits != "auto":
        me = netspec.keep_exits(me, int(args.exits))
    if args.dropout == "mcd":
        if args.rate is not None and args.keep_rate is not None:
            raise ValueError("--rate and --keep-rate are mutually exclusive")
        if args.rate is not None:
            keep = 1.0 - args.rate
        elif args.keep_rate is not None:
            keep = args.keep_rate
        else:
            keep = 0.75
        cfg = DropoutConfig(
            kind="mcd",
            keep_rate=keep,
            granularity=args.granularity,
            inverted=args.inverted,
            seed=args.seed,
        )
    else:
        cfg = DropoutConfig(
            kind="masksembles",
            num_masks=args.num_masks,
            scale=args.scale,
            seed=args.seed,
        )
    me = netspec.insert_dropout(me, cfg, args.depth)
    if problems := netspec.validate(me):  # a transformed spec can fail only on its mask count
        raise ValueError(f"--num-masks: {problems[0]}")

    if args.dropout == "masksembles":
        masks_out = Path(args.masks_out or Path(args.out).with_suffix(".masks.json"))
        tables = inference.site_mask_sets(me)
        doc = {
            "num_masks": cfg.num_masks,
            "scale": cfg.scale,
            "sites": {
                site: {
                    "feature_count": table.feature_count,
                    "masks": [[int(v) for v in row] for row in table.masks],
                }
                for site, table in tables.items()
            },
        }
        write_json(masks_out, doc)
        me = replace(me, mask_file=masks_out.name)
        print(f"wrote {masks_out}")

    netspec.save_multi_exit(me, args.out)
    flops = metrics.count_flops(me)
    sites = [site for _, site in me.dropout_sites]
    print(f"wrote {args.out} ({me.n_exit} exit(s), {len(sites)} dropout site(s))")
    print(f"dropout sites: {', '.join(sites)}")
    print(f"flop split: main={flops.flop_main} per_exit={list(flops.per_exit)}")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    me = netspec.load_multi_exit(args.spec)
    data = _load_data(args, me)
    cfg = train.TrainConfig(lr=args.lr, epochs=args.epochs, batch=args.batch, seed=args.seed)
    weights = train.train_toy(me, data, cfg)
    runtime.save_weights(weights, args.out)

    table = inference.step_table(me)  # the final exit attaches deepest
    out = data.features
    for step in (*table.trunk, *table.heads[-1].steps):
        out = runtime.forward_batch(step, out, weights)
    acc = int(np.count_nonzero(np.argmax(out, axis=1) == data.labels)) / len(data)
    tensors = sum(len(named) for named in weights.values())
    print(f"wrote {args.out} ({tensors} tensor(s))")
    print(f"train accuracy (no sampling, final exit): {acc:.4f}")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    for flag in ("n_bins", "noise_count"):
        if getattr(args, flag) < 1:
            raise ValueError(f"--{flag.replace('_', '-')} must be >= 1, got {getattr(args, flag)}")
    me = netspec.load_multi_exit(args.spec)
    inference.check_n_pass(me, args.n_pass, "--n-pass")
    weights = runtime.load_weights(args.weights)
    data = _load_data(args, me)
    qformat = runtime.datapath_format(args.bits, args.int_bits)
    flops = metrics.count_flops(me)
    n_sample = me.n_exit * args.n_pass

    report: dict[str, Any] = {
        "n_exit": me.n_exit,
        "n_pass": args.n_pass,
        "n_sample": n_sample,
        "flop_main": flops.flop_main,
        "flop_per_exit": list(flops.per_exit),
        "cost_single_exit": metrics.cost_single_exit(flops, n_sample),
        "cost_multi_exit": metrics.cost_multi_exit(flops, n_sample, me.n_exit),
        "reduction_rate": metrics.reduction_rate(flops.alpha, n_sample, me.n_exit),
        "bits": args.bits,
    }
    report["flops_fraction"] = report["cost_multi_exit"] / report["cost_single_exit"]

    noise = noise_like(data, args.noise_count, derive_seed(args.seed, "noise"))
    (scores,) = metrics.score(
        me, weights, data, args.n_pass, args.seed, noise, flops, qformat,
        [args.threshold], args.exit_mode, args.n_bins,
    )
    if scores.early_exit is not None:
        report["threshold"] = args.threshold
        report["exit_mode"] = args.exit_mode
        report["mean_exit_taken"] = float(np.mean(scores.early_exit.exits_taken))
        report["avg_flops_per_input"] = scores.early_exit.avg_flops_per_input
    report.update(accuracy=scores.accuracy, ece=scores.ece, ape=scores.ape)

    write_json(args.out, report)
    if args.csv:
        metrics.write_csv(args.csv, [report], sorted(report))
        print(f"wrote {args.csv}")
    print(f"wrote {args.out}")
    print(
        f"accuracy={report['accuracy']:.4f} ece={report['ece']:.4f}"
        f" ape={report['ape']:.4f} n_sample={n_sample}"
    )
    return 0


def _result_doc(r: explorer.PointResult) -> dict[str, Any]:
    doc: dict[str, Any] = {"point": r.point.to_dict()}
    if r.report is not None:
        doc["metrics"] = r.report.to_dict()
    if r.latency is not None:
        doc["latency"] = {"cycles": r.latency.cycles, "ms": r.latency.ms}
    if r.resources is not None:
        doc["resources"] = r.resources
        doc["fits"] = r.fits
    if r.error is not None:
        doc["error"] = r.error
    return doc


def _config_dataset(doc: Any) -> Dataset:
    source = fields(doc, "dataset config")
    if not {"path", "blobs"} & source.keys():
        raise ValueError("dataset config needs 'path' or 'blobs'")
    fields(source, "dataset config", ("path", "blobs"))
    if "path" in source:
        return load_dataset(source["path"])
    return load(make_blobs, source["blobs"], "dataset blobs")


@dataclass(frozen=True)
class ExploreConfig:
    """An explore config file; network is a path or a network document, and
    each nested document is read by the reader of the type it fills."""

    network: Any
    dataset: Any
    constraints: Any
    priority: Any
    grids: Any = field(default_factory=dict)
    settings: Any = field(default_factory=dict)
    seed: int = 0
    noise_count: int = 64
    hardware: str | None = None

    def __post_init__(self) -> None:
        if self.noise_count < 1:
            raise ValueError(f"config key 'noise_count' must be >= 1, got {self.noise_count}")


def cmd_explore(args: argparse.Namespace) -> int:
    if args.jobs < 1:
        raise ValueError(f"--jobs must be >= 1, got {args.jobs}")
    config = load(ExploreConfig, read_json(args.config), "config")
    read = netspec.load_network if isinstance(config.network, str) else netspec.parse_network
    net = read(config.network)
    data = _config_dataset(config.dataset)
    grids = explorer.ExplorationGrids.from_dict(config.grids)
    constraints = explorer.Constraints.from_dict(config.constraints)
    priority = explorer.Priority.from_dict(config.priority)
    settings = explorer.EvaluationSettings.from_dict(config.settings)
    hw = mapping.load_hardware_model(config.hardware)
    seed = args.seed if args.seed is not None else config.seed

    outcome = explorer.explore(
        net,
        grids,
        constraints,
        priority,
        data,
        hw,
        settings,
        seed,
        noise_count=config.noise_count,
        jobs=args.jobs,
    )

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rows = explorer.results_to_rows(outcome.results)
    metrics.write_csv(out / "results.csv", rows, explorer.LEDGER_FIELDS)
    write_json(out / "results.json", [_result_doc(r) for r in outcome.results])

    optima = explorer.select_optima(outcome.results, constraints)
    best_doc = {
        "best": _result_doc(outcome.best) if outcome.best else None,
        "ranking": [_result_doc(r) for r in outcome.ranked],
        "optima": {k: (_result_doc(v) if v else None) for k, v in optima.items()},
    }
    write_json(out / "best.json", best_doc)

    if outcome.best is not None:
        accel = explorer.point_plan(outcome.best, net, hw, settings, seed)
        emitter.save_plan(accel, out / "best.plan.json")
        (out / "best.plan.txt").write_text(emitter.render_report(accel))

    ok = sum(1 for r in outcome.results if r.ok)
    print(
        f"evaluated {len(outcome.results)} design point(s):"
        f" {ok} ok, {len(outcome.results) - ok} failed,"
        f" {len(outcome.ranked)} feasible"
    )
    print(f"wrote {out / 'results.csv'}, {out / 'results.json'}, {out / 'best.json'}")
    if outcome.best is None:
        raise InfeasibleError("no feasible point: no design point satisfies the constraints")
    bp, br = outcome.best.point, outcome.best.report
    assert br is not None
    print(
        f"best: {bp.key()} accuracy={br.accuracy:.4f} ece={br.ece:.4f}"
        f" ape={br.ape:.4f} flops_fraction={br.flops_fraction:.4f}"
    )
    return 0


def _mapping_doc(
    plan: mapping.MappingPlan,
    latency: mapping.LatencyEstimate,
    res: mapping.ResourceEstimate,
) -> dict[str, Any]:
    return {
        "strategy": plan.strategy,
        "n_sample": plan.n_sample,
        "n_engines": plan.n_engines,
        "rounds": plan.rounds,
        "sample_assignment": [list(r) for r in plan.sample_assignment],
        "latency_cycles": latency.cycles,
        "latency_ms": latency.ms,
        "resources": res.usage,
        "fits": res.fits,
    }


def _sample_count(args: argparse.Namespace, me: netspec.MultiExitSpec) -> int:
    if args.n_sample < 1:
        raise ValueError(f"--n-sample must be >= 1, got {args.n_sample}")
    if args.n_sample % me.n_exit != 0:
        raise ValueError(
            f"--n-sample {args.n_sample} is not divisible by the {me.n_exit} exits"
        )
    return args.n_sample


def cmd_map(args: argparse.Namespace) -> int:
    me = netspec.load_multi_exit(args.spec)
    hw = mapping.load_hardware_model(args.hardware)
    flops = metrics.count_flops(me)
    n_sample = _sample_count(args, me)
    plan = None
    if args.engines is not None:  # checked before any file is written
        plan = mapping.build_mapping(n_sample, args.engines, "--engines")

    frontier = mapping.pareto_mappings(n_sample, flops, hw, me)
    if args.pareto:
        write_json(args.pareto, [_mapping_doc(*point) for point in frontier])
        print(f"wrote {args.pareto} ({len(frontier)} frontier point(s))")

    if plan is not None:
        latency = mapping.estimate_latency(plan, flops, hw)
        res = mapping.estimate_resources(plan, me, hw)
    else:
        fitting = [p for p in frontier if p[2].fits]
        if not fitting:
            raise InfeasibleError(
                f"no engine count in 1..{n_sample} fits the resource budget"
            )
        plan, latency, res = fitting[0]

    if not res.fits:
        raise InfeasibleError(
            f"{plan.n_engines} engine(s) exceed the resource budget"
        )
    write_json(args.out, _mapping_doc(plan, latency, res))
    print(f"wrote {args.out}")
    print(
        f"strategy={plan.strategy} engines={plan.n_engines} rounds={plan.rounds}"
        f" cycles={latency.cycles:.0f} ms={latency.ms:.6f}"
    )
    return 0


def cmd_emit(args: argparse.Namespace) -> int:
    me = netspec.load_multi_exit(args.spec)
    hw = mapping.load_hardware_model(args.hardware)
    flops = metrics.count_flops(me)
    n_sample = _sample_count(args, me)

    plan = mapping.build_mapping(n_sample, args.engines, "--engines")
    latency = mapping.estimate_latency(plan, flops, hw)
    res = mapping.estimate_resources(plan, me, hw)

    metrics_report = None
    if args.metrics:
        doc = fields(read_json(args.metrics), "metrics report", required=REPORT_KEYS)
        doc = typed(doc, "metrics report", MetricsReport)
        metrics_report = MetricsReport(**{key: doc[key] for key in REPORT_KEYS})

    accel = emitter.emit_plan(
        me,
        plan,
        hw,
        latency,
        res,
        qformat=runtime.datapath_format(args.bits, args.int_bits),
        metrics_report=metrics_report,
    )
    emitter.save_plan(accel, args.out)
    print(f"wrote {args.out}")
    if args.report:
        Path(args.report).write_text(emitter.render_report(accel))
        print(f"wrote {args.report}")
    if not res.fits:
        print("warning: plan exceeds the resource budget", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mcexit",
        description=(
            "Transform feed-forward networks into multi-exit Monte-Carlo"
            " dropout networks, evaluate them, and plan accelerator mappings."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("transform", help="insert exits and dropout into a network")
    p.add_argument("--network", required=True, help="plain network JSON")
    p.add_argument("--out", required=True, help="multi-exit network JSON to write")
    p.add_argument("--dropout", choices=("mcd", "masksembles"), default="mcd")
    p.add_argument("--keep-rate", type=float, default=None, help="mcd keep rate")
    p.add_argument("--rate", type=float, default=None, help="mcd drop rate (1 - keep)")
    p.add_argument("--granularity", choices=("channel", "element"), default=None)
    p.add_argument("--inverted", action="store_true", help="scale survivors by 1/keep_rate")
    p.add_argument("--num-masks", type=int, default=4)
    p.add_argument("--scale", type=float, default=4.0)
    p.add_argument("--depth", type=int, default=1, help="dropout sites per exit")
    p.add_argument(
        "--exits", default="auto", help="'auto' (one per pooling stage) or a count to keep"
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--masks-out", default=None, help="mask table JSON (masksembles)")

    p = sub.add_parser("train", help="train toy weights for a multi-exit network")
    p.add_argument("--spec", required=True, help="multi-exit network JSON")
    _add_data_args(p)
    p.add_argument("--lr", type=float, default=0.3)
    p.add_argument("--epochs", type=int, default=120)
    p.add_argument("--batch", type=int, default=32)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="weights manifest JSON to write")

    p = sub.add_parser("evaluate", help="score one configuration on a dataset")
    p.add_argument("--spec", required=True)
    p.add_argument("--weights", required=True)
    _add_data_args(p)
    p.add_argument("--n-pass", type=int, default=4, help="Monte-Carlo passes per exit")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--bits", type=int, choices=runtime.ALLOWED_TOTAL_BITS, default=None)
    p.add_argument("--int-bits", type=int, default=3)
    p.add_argument("--threshold", type=float, default=None, help="confidence early exit")
    p.add_argument("--exit-mode", choices=inference.EXIT_MODES, default="ensemble_so_far")
    p.add_argument("--noise-count", type=int, default=64)
    p.add_argument("--n-bins", type=int, default=15)
    p.add_argument("--out", required=True, help="report JSON to write")
    p.add_argument("--csv", default=None, help="also write a one-row CSV")

    p = sub.add_parser("explore", help="sweep the joint design space")
    p.add_argument("--config", required=True, help="exploration config JSON")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--seed", type=int, default=None, help="override the config seed")

    p = sub.add_parser("map", help="map Monte-Carlo samples onto exit engines")
    p.add_argument("--spec", required=True)
    p.add_argument("--n-sample", type=int, required=True, help="total Monte-Carlo samples")
    p.add_argument("--engines", type=int, default=None, help="fixed engine count")
    p.add_argument("--hardware", default=None, help="hardware model JSON")
    p.add_argument("--out", required=True, help="mapping JSON to write")
    p.add_argument("--pareto", default=None, help="frontier JSON to write")

    p = sub.add_parser("emit", help="emit an accelerator plan")
    p.add_argument("--spec", required=True)
    p.add_argument("--n-sample", type=int, required=True, help="total Monte-Carlo samples")
    p.add_argument("--engines", type=int, required=True)
    p.add_argument("--hardware", default=None)
    p.add_argument("--bits", type=int, choices=runtime.ALLOWED_TOTAL_BITS, default=None)
    p.add_argument("--int-bits", type=int, default=3)
    p.add_argument("--metrics", default=None, help="embed an evaluate report")
    p.add_argument("--out", required=True, help="plan JSON to write")
    p.add_argument("--report", default=None, help="plan text report to write")

    return parser


_parser = functools.cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    """Run one verb. The parser is built once per process, and the verb's
    cmd_ function is looked up in this module on each call."""
    try:
        args = _parser().parse_args(argv)
    except SystemExit as err:
        return err.code if isinstance(err.code, int) else 2
    try:
        return globals()[f"cmd_{args.command}"](args)
    except InfeasibleError as err:
        print(f"infeasible: {err}", file=sys.stderr)
        return 3
    except (ValueError, KeyError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
