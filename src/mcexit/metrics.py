"""Quality and cost metrics for multi-exit Monte-Carlo networks.

Covers the FLOP accounting that separates the one-shot trunk from the
per-sample exit work, the closed-form cost and reduction-rate formulas
built on that split, calibration error, and predictive-entropy scores on
Gaussian noise inputs. score is the one evaluation pipeline: the CLI's
evaluate and the explorer both predict and score through it, the
explorer at all the thresholds of one set of samples in one call.
"""

from __future__ import annotations

import csv
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Mapping, Sequence

import numpy as np

from . import inference, netspec
from .datasets import Dataset, NoiseSpec, noise_blocks
from .dropout import derive_seed
from .netspec import LayerSpec, MultiExitSpec
from .runtime import QFormat, WeightStore


@dataclass(frozen=True)
class FlopReport:
    """FLOPs split into the trunk (run once per input) and the exit heads
    (run once per Monte-Carlo sample)."""

    flop_main: int
    per_exit: tuple[int, ...]

    @property
    def flop_exit_total(self) -> int:
        return sum(self.per_exit)

    @property
    def alpha(self) -> float:
        """Exit-to-trunk cost ratio; infinite for a trunkless network."""
        if self.flop_main == 0:
            return float("inf")
        return self.flop_exit_total / self.flop_main


def chain_flops(layers: Sequence[LayerSpec], in_shape: tuple[int, ...]) -> int:
    """FLOPs of running layers one after another on an input of in_shape,
    as for the plain network the explorer measures a design point against."""
    total = 0
    for layer in layers:
        total += netspec.flops_of(layer, in_shape)
        in_shape = netspec.output_shape(layer, in_shape)
    return total


def count_flops(me: MultiExitSpec) -> FlopReport:
    """Static FLOP split of a multi-exit spec: the Step.flops of its step
    table (inference.step_table), which the executor charges a FlopCounter.

    The trunk is counted up to the deepest attach point, which is exactly
    how far the single cached pass runs. Each exit head is counted from
    its attach feature, including any trunk layers that were copied into
    the head by deep dropout insertion.
    """
    table = inference.step_table(me)
    return FlopReport(
        flop_main=sum(step.flops for step in table.trunk),
        per_exit=tuple(sum(step.flops for step in head.steps) for head in table.heads),
    )


def cost_single_exit(report: FlopReport, n_sample: int) -> int:
    """Cost of the naive scheme: every sample re-runs trunk plus exits."""
    if n_sample < 1:
        raise ValueError("n_sample must be >= 1")
    return n_sample * (report.flop_main + report.flop_exit_total)


def cost_multi_exit(report: FlopReport, n_sample: int, n_exit: int) -> float:
    """Cost with trunk caching: one trunk pass plus n_sample/n_exit passes
    of the exit heads. n_exit must divide n_sample."""
    if n_sample < 1 or n_exit < 1:
        raise ValueError("n_sample and n_exit must be >= 1")
    if n_sample % n_exit:
        raise ValueError(f"n_exit {n_exit} does not divide n_sample {n_sample}")
    return float(report.flop_main + (n_sample // n_exit) * report.flop_exit_total)


def reduction_rate(alpha: float, n_sample: int, n_exit: int) -> float:
    """Ratio of naive to cached cost, (1 + a) / (1/N_sample + a/N_exit).

    Evaluated as N_sample*N_exit*(1+a) / (N_exit + a*N_sample) so the
    a = 0 limit returns exactly n_sample; a = inf (an empty trunk) returns
    its limit, n_exit.
    """
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    if n_sample < 1 or n_exit < 1:
        raise ValueError("n_sample and n_exit must be >= 1")
    if n_exit == n_sample:
        # the ratio collapses algebraically to n_sample; skip the rounding
        return float(n_sample)
    if alpha == np.inf:
        return float(n_exit)
    return n_sample * n_exit * (1.0 + alpha) / (n_exit + alpha * n_sample)


# --------------------------------------------------------------------------
# prediction quality


def accuracy(probs: np.ndarray, labels: np.ndarray) -> float:
    probs = np.asarray(probs)
    labels = np.asarray(labels)
    if len(probs) != len(labels):
        raise ValueError("probs and labels must have equal length")
    if len(probs) == 0:
        raise ValueError("need at least one prediction")
    return float((probs.argmax(axis=1) == labels).mean())


def expected_calibration_error(
    probs: np.ndarray, labels: np.ndarray, n_bins: int = 15
) -> float:
    """Equal-width-binned gap between confidence and accuracy.

    Bin b covers [b/n_bins, (b+1)/n_bins) with the top bin closed at 1.
    Empty bins contribute nothing.
    """
    if n_bins < 1:
        raise ValueError("n_bins must be >= 1")
    probs = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(labels)
    if len(probs) != len(labels):
        raise ValueError("probs and labels must have equal length")
    if len(probs) == 0:
        raise ValueError("need at least one prediction")
    conf = probs.max(axis=1)
    correct = probs.argmax(axis=1) == labels
    bins = np.minimum((conf * n_bins).astype(np.int64), n_bins - 1)
    ece = 0.0
    for b in range(n_bins):
        mask = bins == b
        count = int(mask.sum())
        if count == 0:
            continue
        gap = abs(correct[mask].mean() - conf[mask].mean())
        ece += (count / len(probs)) * gap
    return float(ece)


def predictive_entropy(probs: np.ndarray) -> float:
    """Shannon entropy of one probability vector in nats; 0 log 0 is 0."""
    p = np.asarray(probs, dtype=np.float64)
    if np.any(p < 0):
        raise ValueError("probabilities must be non-negative")
    if abs(p.sum() - 1.0) > 1e-6:
        raise ValueError(f"probabilities must sum to 1 within 1e-6, got {p.sum()}")
    nz = p[p > 0]
    return float(-(nz * np.log(nz)).sum())


def average_predictive_entropy(
    me: MultiExitSpec,
    weights: WeightStore,
    noise: NoiseSpec,
    n_pass: int,
    qformat: QFormat | None = None,
) -> float:
    """Mean ensembled predictive entropy over Gaussian noise inputs.

    High values mean the network admits uncertainty on inputs that look
    nothing like data; each input gets its own derived sampling seed.
    The noise is drawn and scored one BLOCK_INPUTS block at a time
    (noise_blocks), and the entropies are summed in input order, so memory
    holds one block and its samples whatever the noise count.
    """
    total = 0.0
    start = 0
    for xs in noise_blocks(noise, me.trunk.input_shape, inference.BLOCK_INPUTS):
        seeds = [derive_seed(noise.seed, "mc", i) for i in range(start, start + len(xs))]
        samples = inference.dataset_samples(me, weights, xs, n_pass, seeds, qformat)
        for probs in inference.mean_samples(samples):
            total += predictive_entropy(probs)
        start += len(xs)
    return total / noise.count


@dataclass(frozen=True)
class Scores:
    """What score measures of a network on one labelled dataset."""

    accuracy: float
    ece: float
    ape: float
    early_exit: inference.EarlyExitScores | None  # None without a threshold


def score(
    me: MultiExitSpec,
    weights: WeightStore,
    data: Dataset,
    n_pass: int,
    seed: int,
    noise: NoiseSpec,
    flops: FlopReport,
    qformat: QFormat | None,
    thresholds: Sequence[float | None],
    exit_mode: str,
    n_bins: int,
) -> list[Scores]:
    """The one evaluation pipeline: per threshold, accuracy and ECE of the
    ensemble (None) or of early exit on data (input i keyed by
    inference.dataset_seeds), and APE on the noise inputs, run once. A lone
    threshold runs the real early exit; more share one draw of samples."""
    if len(thresholds) == 1 and thresholds[0] is not None:
        early = [
            inference.confidence_exit_dataset(
                me, weights, data.features, n_pass, seed, thresholds[0], exit_mode, flops, qformat
            )
        ]
    else:
        seeds = inference.dataset_seeds(seed, len(data))
        samples = inference.dataset_samples(me, weights, data.features, n_pass, seeds, qformat)
        early = [
            None if t is None else inference.early_exit_samples(samples, t, exit_mode, flops)
            for t in thresholds
        ]
    ape = average_predictive_entropy(me, weights, noise, n_pass, qformat)
    probs = [inference.mean_samples(samples) if e is None else e.probs for e in early]
    return [
        Scores(accuracy(p, data.labels), expected_calibration_error(p, data.labels, n_bins), ape, e)
        for p, e in zip(probs, early)
    ]


@dataclass(frozen=True)
class MetricsReport:
    """One design point's quality and cost summary."""

    accuracy: float
    ece: float
    ape: float
    flops_fraction: float
    n_sample: int
    flops_fraction_early_exit: float | None = None

    def to_dict(self) -> dict[str, Any]:
        """The fields that are not None: the early-exit fraction is None
        without a threshold."""
        return {k: v for k, v in asdict(self).items() if v is not None}


def write_csv(path: str | Path, rows: Sequence[Mapping[str, Any]], fields: Sequence[str]) -> None:
    """Fixed-column CSV emitter for sweep results."""
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(fields), extrasaction="ignore")
        writer.writeheader()
        for row in rows:
            writer.writerow({k: row.get(k, "") for k in fields})
