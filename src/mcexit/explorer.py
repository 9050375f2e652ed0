"""Joint algorithm/hardware design-space exploration.

Enumerates the full Cartesian grid of design knobs (dropout kind and
strength, exit count, passes per exit, datapath bitwidth, channel
fraction, engine count, optional confidence threshold), evaluates every
point end to end on a toy dataset, then filters by constraints and
ranks lexicographically with tie tolerances.

A point's dropout, training, evaluation and noise seeds come from its
training key (DesignPoint.training_key): only the knobs that the network
and its trainer read. train_points is the one place that builds and
trains a network, once per training key; keys whose networks differ
only in their dropout config train together in one stacked pass, each to
the weights it would get alone. Each score key (every knob but the
engine count, which cannot change a sample) is then scored once through
metrics.score, as `mcexit evaluate` is, so points that differ only in
engines share one score and differ only in their mapping, latency and
resources. Each sample key (a score key but its threshold) scores all
its thresholds in one call, on one draw of samples and one APE. Failures
are recorded per point, never aborting a sweep.
"""

from __future__ import annotations

import functools
import itertools
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Any, Mapping, Sequence

from . import emitter, inference, mapping, metrics, netspec, runtime, train
from .datasets import Dataset, label_error, noise_like, train_test_split
from .documents import ParseError, array, field_names, fields, typed
from .dropout import DropoutConfig, derive_seed
from .mapping import HardwareModel, LatencyEstimate
from .metrics import MetricsReport
from .netspec import NetworkSpec

ALLOWED_BITWIDTHS = (4, 6, 8, 16)
ALLOWED_CHANNEL_FRACTIONS = (1.0, 0.5, 0.25, 0.125)

METRIC_NAMES = ("accuracy", "ece", "ape", "flops", "latency")
_MAXIMIZE = {"accuracy": True, "ece": False, "ape": True, "flops": False, "latency": False}
_DEFAULT_TOLERANCE = {"accuracy": 0.002, "ece": 0.001, "ape": 0.01, "flops": 0.0, "latency": 0.0}


@dataclass(frozen=True)
class DesignPoint:
    """One joint algorithm/hardware configuration.

    dropout_param is the drop rate for mcd (keep_rate = 1 - rate) and the
    mask scale for masksembles, matching how each knob is swept.
    """

    dropout_kind: str
    dropout_param: float
    n_exit: int
    n_pass: int
    bitwidth: int | None
    channel_fraction: float
    mapping_engines: int
    threshold: float | None = None

    def __post_init__(self) -> None:
        if self.dropout_kind not in ("mcd", "masksembles"):
            raise ValueError(f"unknown dropout kind {self.dropout_kind!r}")
        if self.dropout_kind == "mcd" and not 0.0 < self.dropout_param < 1.0:
            raise ValueError(f"mcd drop rate must be in (0, 1), got {self.dropout_param}")
        if self.dropout_kind == "masksembles" and self.dropout_param < 1.0:
            raise ValueError(f"mask scale must be >= 1, got {self.dropout_param}")
        if self.n_exit < 1 or self.n_pass < 1:
            raise ValueError("n_exit and n_pass must be >= 1")
        if self.bitwidth is not None and self.bitwidth not in ALLOWED_BITWIDTHS:
            raise ValueError(f"bitwidth must be one of {ALLOWED_BITWIDTHS} or None")
        if self.channel_fraction not in ALLOWED_CHANNEL_FRACTIONS:
            raise ValueError(f"channel_fraction must be one of {ALLOWED_CHANNEL_FRACTIONS}")
        if self.mapping_engines < 1:
            raise ValueError("mapping_engines must be >= 1")
        if self.threshold is not None and not 0.0 < self.threshold < 1.0:
            raise ValueError("threshold must be in (0, 1)")

    @property
    def n_sample(self) -> int:
        return self.n_exit * self.n_pass

    def key(self) -> str:
        """Canonical identity string, stable across runs."""
        return (
            f"{self.dropout_kind}:{self.dropout_param!r}:e{self.n_exit}:p{self.n_pass}"
            f":b{self.bitwidth}:c{self.channel_fraction!r}:g{self.mapping_engines}"
            f":t{self.threshold!r}"
        )

    def training_key(self) -> str:
        """What build_point_spec and the trainer read: the dropout kind
        and parameter, n_exit, channel_fraction, and n_pass only for
        masksembles, whose mask count it sets. It seeds the point's
        dropout, training, evaluation and noise."""
        passes = f":p{self.n_pass}" if self.dropout_kind == "masksembles" else ""
        return (
            f"{self.dropout_kind}:{self.dropout_param!r}:e{self.n_exit}{passes}"
            f":c{self.channel_fraction!r}"
        )

    def score_key(self) -> str:
        """Every knob but mapping_engines, which cannot change a sample:
        points with equal score keys score the same."""
        return replace(self, mapping_engines=1).key()

    def sample_key(self) -> str:
        """The score key but threshold: points that share it share samples."""
        return replace(self, mapping_engines=1, threshold=None).key()

    def to_dict(self) -> dict[str, Any]:
        return {
            "dropout_kind": self.dropout_kind,
            "dropout_param": self.dropout_param,
            "n_exit": self.n_exit,
            "n_pass": self.n_pass,
            "bitwidth": self.bitwidth,
            "channel_fraction": self.channel_fraction,
            "mapping_engines": self.mapping_engines,
            "threshold": self.threshold,
        }

    @classmethod
    def from_dict(cls, doc: Any) -> "DesignPoint":
        names = field_names(cls)
        return cls(**fields(doc, "design point", names, sorted(names - {"threshold"})))


@dataclass(frozen=True)
class ExplorationGrids:
    """Per-knob value lists; the design space is their Cartesian product.

    MCD points sweep mcd_rates, masksembles points sweep
    masksembles_scales; the two never mix within one point.
    """

    mcd_rates: tuple[float, ...] = (0.125, 0.25, 0.375, 0.5)
    masksembles_scales: tuple[float, ...] = (3.0, 4.0, 5.0, 6.0)
    n_exits: tuple[int, ...] = (1,)
    n_passes: tuple[int, ...] = (4,)
    bitwidths: tuple[int | None, ...] = (None,)
    channel_fractions: tuple[float, ...] = (1.0,)
    engines: tuple[int, ...] = (1,)
    thresholds: tuple[float | None, ...] = (None,)

    @classmethod
    def from_dict(cls, doc: Any) -> "ExplorationGrids":
        doc = typed(fields(doc, "grid", field_names(cls)), "grid", cls)
        return cls(**{k: tuple(v) for k, v in doc.items()})


def enumerate_design_points(grids: ExplorationGrids) -> list[DesignPoint]:
    """Full factorial enumeration in a fixed lexicographic knob order."""
    dropout = [("mcd", r) for r in grids.mcd_rates] + [
        ("masksembles", s) for s in grids.masksembles_scales
    ]
    axes = {
        "mcd_rates/masksembles_scales": dropout,
        "n_exits": grids.n_exits,
        "n_passes": grids.n_passes,
        "bitwidths": grids.bitwidths,
        "channel_fractions": grids.channel_fractions,
        "engines": grids.engines,
        "thresholds": grids.thresholds,
    }
    for name, axis in axes.items():
        if not axis:
            raise ValueError(f"grid {name} is empty")
    points = []
    for (kind, param), n_exit, n_pass, bits, cf, engines, thr in itertools.product(*axes.values()):
        points.append(
            DesignPoint(
                dropout_kind=kind,
                dropout_param=param,
                n_exit=n_exit,
                n_pass=n_pass,
                bitwidth=bits,
                channel_fraction=cf,
                mapping_engines=engines,
                threshold=thr,
            )
        )
    return points


@dataclass(frozen=True)
class EvaluationSettings:
    """Shared per-sweep knobs that are not part of the design space."""

    depth: int = 1
    integer_bits: int = 3
    lr: float = 0.3
    epochs: int = 120
    batch: int = 32
    test_fraction: float = 0.3
    exit_mode: str = "ensemble_so_far"
    n_bins: int = 15

    def __post_init__(self) -> None:
        if self.exit_mode not in inference.EXIT_MODES:
            raise ValueError(f"exit_mode must be one of {inference.EXIT_MODES}")

    @classmethod
    def from_dict(cls, doc: Any) -> "EvaluationSettings":
        return cls(**typed(fields(doc, "settings", field_names(cls)), "settings", cls))


@dataclass(frozen=True)
class Constraints:
    """Feasibility bounds; every field is optional but at least one must
    be active."""

    min_accuracy: float | None = None
    max_ece: float | None = None
    min_ape: float | None = None
    max_flops_fraction: float | None = None
    max_latency_ms: float | None = None
    require_fit: bool = False

    def __post_init__(self) -> None:
        active = [
            self.min_accuracy,
            self.max_ece,
            self.min_ape,
            self.max_flops_fraction,
            self.max_latency_ms,
        ]
        if all(v is None for v in active) and not self.require_fit:
            raise ValueError("at least one constraint must be active")

    @classmethod
    def from_dict(cls, doc: Any) -> "Constraints":
        return cls(**typed(fields(doc, "constraint", field_names(cls)), "constraint", cls))


@dataclass(frozen=True)
class Priority:
    """Ordered metric names compared lexicographically; values within a
    metric's tolerance of each other count as tied and fall through to
    the next metric."""

    metrics: tuple[str, ...]
    tolerances: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.metrics:
            raise ValueError("priority needs at least one metric")
        if len(set(self.metrics)) != len(self.metrics):
            raise ValueError("priority metrics must not repeat")
        unknown = set(self.metrics) - set(METRIC_NAMES)
        if unknown:
            raise ValueError(f"unknown priority metrics: {sorted(unknown)}")
        unknown = set(self.tolerances) - set(METRIC_NAMES)
        if unknown:
            raise ValueError(f"unknown priority tolerances: {sorted(unknown)}")
        for name, value in self.tolerances.items():
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ValueError(
                    f"priority tolerance {name!r} must be a number, got {type(value).__name__}"
                )
        tol = dict(_DEFAULT_TOLERANCE)
        tol.update(self.tolerances)
        object.__setattr__(self, "tolerances", tol)

    @classmethod
    def from_dict(cls, doc: Any) -> "Priority":
        doc = fields(doc, "priority", field_names(cls), ("metrics",))
        metrics = array(doc["metrics"], "priority metrics")
        if not all(isinstance(name, str) for name in metrics):
            raise ParseError(f"priority metrics must be metric names, got {metrics}")
        tolerances = fields(doc.get("tolerances", {}), "priority tolerances")
        return cls(metrics=tuple(metrics), tolerances=tolerances)


@dataclass(frozen=True)
class PointResult:
    """Everything measured (or the failure) for one design point."""

    point: DesignPoint
    report: MetricsReport | None = None
    latency: LatencyEstimate | None = None
    resources: dict[str, float] | None = None
    fits: bool | None = None
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None

    def metric(self, name: str) -> float:
        if self.report is None or self.latency is None:
            raise ValueError("metrics unavailable for a failed point")
        if name == "accuracy":
            return self.report.accuracy
        if name == "ece":
            return self.report.ece
        if name == "ape":
            return self.report.ape
        if name == "flops":
            return self.report.flops_fraction
        if name == "latency":
            return self.latency.ms
        raise ValueError(f"unknown metric {name!r}")


def build_point_spec(
    dp: DesignPoint, base_net: NetworkSpec, seed: int, settings: EvaluationSettings
) -> netspec.MultiExitSpec:
    """The dropout-ready multi-exit network a design point denotes."""
    scaled = netspec.scale_channels(base_net, dp.channel_fraction)
    me = netspec.place_exits(scaled)
    me = netspec.keep_exits(me, dp.n_exit)
    if dp.dropout_kind == "mcd":
        cfg = DropoutConfig(
            kind="mcd",
            keep_rate=1.0 - dp.dropout_param,
            seed=derive_seed(seed, "drop", dp.training_key()),
        )
    else:
        cfg = DropoutConfig(
            kind="masksembles",
            num_masks=dp.n_pass,
            scale=dp.dropout_param,
            seed=derive_seed(seed, "drop", dp.training_key()),
        )
    return netspec.insert_dropout(me, cfg, settings.depth)


@dataclass(frozen=True)
class TrainedPoint:
    """What train_points hands to scoring for one design point: the
    train/test split, and the point's built spec and weights, or the
    error that stopped it first."""

    train_data: Dataset
    test_data: Dataset
    me: netspec.MultiExitSpec | None = None
    weights: runtime.WeightStore | None = None
    error: str | None = None


def evaluate_design_point(
    dp: DesignPoint,
    base_net: NetworkSpec,
    data: Dataset,
    noise_count: int,
    hw: HardwareModel,
    settings: EvaluationSettings,
    seed: int,
    trained: TrainedPoint | None = None,
    reports: dict[str, MetricsReport] | None = None,
    thresholds: Sequence[float | None] | None = None,
) -> PointResult:
    """Score one design point end to end on the spec, split and weights
    train_points gives it; without trained, that is train_points of this
    point alone.

    reports maps score keys to the report of a point already scored on
    the same train_points output. A point whose score key is there takes
    that report; one that is not scores its sample key at each of
    thresholds (its own by default) in one metrics.score call and adds
    every report. Mapping, latency and resources are always the point's
    own. Any construction, training or scoring failure is captured in the
    result's error field so a sweep keeps going.
    """
    try:
        if trained is None:
            trained = train_points([dp], base_net, data, settings, seed)[0]
        if trained.error is not None:
            return PointResult(point=dp, error=trained.error)
        me = trained.me
        flop_report = metrics.count_flops(me)
        reports = {} if reports is None else reports
        report = reports.get(dp.score_key())
        if report is None:
            qformat = runtime.datapath_format(dp.bitwidth, settings.integer_bits)
            baseline = metrics.chain_flops(base_net.layers, base_net.input_shape)
            flops_fraction = metrics.cost_multi_exit(flop_report, dp.n_sample, dp.n_exit) / baseline

            key = dp.training_key()
            noise = noise_like(trained.train_data, noise_count, derive_seed(seed, "noise", key))
            thresholds = [dp.threshold] if thresholds is None else thresholds
            group = metrics.score(
                me, trained.weights, trained.test_data, dp.n_pass, derive_seed(seed, "eval", key),
                noise, flop_report, qformat, thresholds, settings.exit_mode, settings.n_bins,
            )
            for t, scores in zip(thresholds, group):
                early = scores.early_exit
                reports[replace(dp, threshold=t).score_key()] = MetricsReport(
                    scores.accuracy, scores.ece, scores.ape, flops_fraction, dp.n_sample,
                    None if early is None else early.avg_flops_per_input / baseline,
                )
            report = reports[dp.score_key()]

        plan = mapping.build_mapping(dp.n_sample, dp.mapping_engines)
        latency = mapping.estimate_latency(plan, flop_report, hw)
        res = mapping.estimate_resources(plan, me, hw)
        return PointResult(dp, report, latency, resources=res.usage, fits=res.fits)
    except Exception as err:  # recorded, never aborts the sweep
        return PointResult(point=dp, error=_failure(err))


def _failure(err: Exception) -> str:
    return f"{type(err).__name__}: {err}"


def _train_config(dp: DesignPoint, settings: EvaluationSettings, seed: int) -> train.TrainConfig:
    return train.TrainConfig(
        lr=settings.lr,
        epochs=settings.epochs,
        batch=settings.batch,
        seed=derive_seed(seed, "train", dp.training_key()),
    )


def train_points(
    points: Sequence[DesignPoint],
    base_net: NetworkSpec,
    data: Dataset,
    settings: EvaluationSettings,
    seed: int,
) -> list[TrainedPoint]:
    """The data split, and each point's spec and weights: the one place
    that builds and trains.

    Each training key is built and trained once, and every point that
    shares it gets that spec and those weights. Keys whose specs differ
    only in their dropout config train together in one train_models
    call, each to the weight bytes train_toy gives it alone. A key that
    cannot be built or trained gives its points its error, as does one
    whose spec has fewer classes than the labels of data name: the labels
    are checked once for each class count.
    """
    train_data, test_data = train_test_split(data, settings.test_fraction, seed)
    specs: dict[str, netspec.MultiExitSpec] = {}
    weights: dict[str, runtime.WeightStore] = {}
    errors: dict[str, str] = {}
    steps: dict[str, train.TrainStep] = {}
    groups: list[tuple[netspec.MultiExitSpec, list[str]]] = []
    labels_outside = functools.cache(lambda classes: label_error(data, classes))
    firsts: dict[str, DesignPoint] = {}
    for dp in points:
        firsts.setdefault(dp.training_key(), dp)
    for k, dp in firsts.items():
        try:
            specs[k] = build_point_spec(dp, base_net, seed, settings)
            bad_labels = labels_outside(specs[k].class_count)
            if bad_labels is not None:
                errors[k] = _failure(bad_labels)
                continue
            steps[k] = train.TrainStep(specs[k])
        except Exception as err:  # recorded, never aborts the sweep
            errors[k] = _failure(err)
            continue
        shared = replace(specs[k], dropout=None)
        members = next((m for spec, m in groups if spec == shared), None)
        if members is None:
            groups.append((shared, [k]))
        else:
            members.append(k)

    for _, members in groups:
        cfgs = [_train_config(firsts[k], settings, seed) for k in members]
        try:
            weights.update(
                zip(members, train.train_models([steps[k] for k in members], train_data, cfgs))
            )
        except Exception as err:  # recorded, never aborts the sweep
            errors.update(dict.fromkeys(members, _failure(err)))
    trained = {
        k: TrainedPoint(train_data, test_data, specs.get(k), weights.get(k), errors.get(k))
        for k in firsts
    }
    return [trained[dp.training_key()] for dp in points]


def point_plan(
    result: PointResult,
    base_net: NetworkSpec,
    hw: HardwareModel,
    settings: EvaluationSettings,
    seed: int,
) -> emitter.AcceleratorPlan:
    """The accelerator plan of an evaluated design point, from the spec,
    estimates and metrics its evaluation gave."""
    dp = result.point
    return emitter.emit_plan(
        build_point_spec(dp, base_net, seed, settings),
        mapping.build_mapping(dp.n_sample, dp.mapping_engines),
        hw,
        result.latency,
        mapping.ResourceEstimate(usage=result.resources, fits=result.fits),
        qformat=runtime.datapath_format(dp.bitwidth, settings.integer_bits),
        design=dp.to_dict(),
        metrics_report=result.report,
    )


def _satisfies(result: PointResult, constraints: Constraints) -> bool:
    r, lat = result.report, result.latency
    if r is None or lat is None:
        return False
    if constraints.min_accuracy is not None and r.accuracy < constraints.min_accuracy:
        return False
    if constraints.max_ece is not None and r.ece > constraints.max_ece:
        return False
    if constraints.min_ape is not None and r.ape < constraints.min_ape:
        return False
    if (
        constraints.max_flops_fraction is not None
        and r.flops_fraction > constraints.max_flops_fraction
    ):
        return False
    if constraints.max_latency_ms is not None and lat.ms > constraints.max_latency_ms:
        return False
    if constraints.require_fit and not result.fits:
        return False
    return True


def rank_key(result: PointResult, priority: Priority) -> tuple:
    """Sort key implementing tolerance-aware lexicographic comparison.

    Each metric is quantized to its tolerance bucket first; bucket ties
    fall through to the next metric. Raw values and the design-point key
    break any remaining ties, which keeps the order total and the sort
    deterministic.
    """
    buckets = []
    raws = []
    for name in priority.metrics:
        v = result.metric(name)
        tol = priority.tolerances.get(name, 0.0)
        bucket = round(v / tol) if tol > 0 else v
        sign = -1.0 if _MAXIMIZE[name] else 1.0
        buckets.append(sign * bucket)
        raws.append(sign * v)
    return (tuple(buckets), tuple(raws), result.point.key())


def filter_and_rank(
    results: Sequence[PointResult],
    constraints: Constraints,
    priority: Priority,
) -> tuple[list[PointResult], PointResult | None]:
    """Drop failures and constraint violations, rank the rest.

    Returns (ranked feasible points, best point or None when the feasible
    set is empty).
    """
    feasible = [r for r in results if r.ok and _satisfies(r, constraints)]
    ranked = sorted(feasible, key=lambda r: rank_key(r, priority))
    return ranked, (ranked[0] if ranked else None)


@dataclass(frozen=True)
class ExplorationOutcome:
    results: tuple[PointResult, ...]
    ranked: tuple[PointResult, ...]
    best: PointResult | None


def explore(
    base_net: NetworkSpec,
    grids: ExplorationGrids,
    constraints: Constraints,
    priority: Priority,
    data: Dataset,
    hw: HardwareModel,
    settings: EvaluationSettings,
    seed: int,
    noise_count: int = 64,
    jobs: int = 1,
) -> ExplorationOutcome:
    """Enumerate, train (train_points, once per training key), score (once
    per sample key, optionally in a thread pool), filter, rank."""
    points = enumerate_design_points(grids)
    prepared = train_points(points, base_net, data, settings, seed)
    by_sample: dict[str, list[int]] = {}
    for i, dp in enumerate(points):
        by_sample.setdefault(dp.sample_key(), []).append(i)

    def run(members: list[int]) -> list[PointResult]:
        reports: dict[str, MetricsReport] = {}  # this task's own: no two threads share it
        thresholds = list(dict.fromkeys(points[i].threshold for i in members))
        return [
            evaluate_design_point(
                points[i], base_net, data, noise_count, hw, settings, seed, prepared[i], reports,
                thresholds,
            )
            for i in members
        ]

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            scored = list(pool.map(run, by_sample.values()))
    else:
        scored = [run(members) for members in by_sample.values()]
    done = {i: r for members, rs in zip(by_sample.values(), scored) for i, r in zip(members, rs)}
    results = [done[i] for i in range(len(points))]
    ranked, best = filter_and_rank(results, constraints, priority)
    return ExplorationOutcome(results=tuple(results), ranked=tuple(ranked), best=best)


def select_optima(
    results: Sequence[PointResult],
    constraints: Constraints,
    metric_names: Sequence[str] = ("accuracy", "ece", "ape"),
) -> dict[str, PointResult | None]:
    """Single-metric champions (accuracy-, calibration-, entropy-optimal)
    from an already evaluated sweep."""
    out: dict[str, PointResult | None] = {}
    for name in metric_names:
        _, best = filter_and_rank(results, constraints, Priority(metrics=(name,)))
        out[name] = best
    return out


def results_to_rows(results: Sequence[PointResult]) -> list[dict[str, Any]]:
    """Flat ledger rows, one per design point, failures included."""
    rows = []
    for r in results:
        row: dict[str, Any] = {"status": "ok" if r.ok else "failed", **r.point.to_dict()}
        row["n_sample"] = r.point.n_sample
        if r.report is not None:
            row.update(r.report.to_dict())
        if r.latency is not None:
            row["latency_cycles"] = r.latency.cycles
            row["latency_ms"] = r.latency.ms
        if r.resources is not None:
            for k, v in r.resources.items():
                row[f"resource_{k}"] = v
            row["fits"] = r.fits
        row["error"] = r.error or ""
        rows.append(row)
    return rows


LEDGER_FIELDS = (
    "status",
    "dropout_kind",
    "dropout_param",
    "n_exit",
    "n_pass",
    "n_sample",
    "bitwidth",
    "channel_fraction",
    "mapping_engines",
    "threshold",
    "accuracy",
    "ece",
    "ape",
    "flops_fraction",
    "flops_fraction_early_exit",
    "latency_cycles",
    "latency_ms",
    "resource_dsp",
    "resource_bram",
    "resource_lut",
    "resource_ff",
    "fits",
    "error",
)
