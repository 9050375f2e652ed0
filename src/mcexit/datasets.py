"""Small deterministic datasets: labelled Gaussian blobs for training and
unlabelled Gaussian noise for out-of-distribution scoring."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .documents import ParseError, field_names, fields, read_json
from .dropout import derive_seed


@dataclass(frozen=True)
class Dataset:
    features: np.ndarray  # (count, dim) float32
    labels: np.ndarray  # (count,) int64

    def __post_init__(self) -> None:
        object.__setattr__(self, "features", np.asarray(self.features, dtype=np.float32))
        object.__setattr__(self, "labels", np.asarray(self.labels, dtype=np.int64))
        if len(self.features) != len(self.labels):
            raise ValueError("features and labels must have equal length")

    @property
    def class_count(self) -> int:
        return int(self.labels.max()) + 1

    def __len__(self) -> int:
        return len(self.labels)


def label_error(data: Dataset, classes: int) -> ValueError | None:
    """The error naming every label of data outside the classes
    0..classes-1 of a spec, or None."""
    bad = np.unique(data.labels[(data.labels < 0) | (data.labels >= classes)])
    message = f"lie outside the {classes} classes 0..{classes - 1} of the spec"
    return ValueError(f"dataset labels {', '.join(map(str, bad))} {message}") if bad.size else None


@dataclass(frozen=True)
class NoiseSpec:
    """Gaussian input distribution used for out-of-distribution probing."""

    mean: float | tuple  # a scalar, or nested tuples shaped like one input
    std: float | tuple
    count: int
    seed: int

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValueError("count must be >= 1")
        std = np.asarray(self.std)
        if np.any(std < 0):
            raise ValueError("std must be non-negative")


def make_blobs(
    count: int,
    classes: int,
    dim: int = 2,
    radius: float = 4.0,
    spread: float = 0.6,
    seed: int = 0,
) -> Dataset:
    """Isotropic Gaussian clusters with centers spaced on a circle (first
    two dimensions; extra dimensions are pure noise). Labels cycle
    0..classes-1 so class counts stay balanced."""
    if classes < 2 or dim < 2:
        raise ValueError("need at least 2 classes and 2 dimensions")
    gen = np.random.Generator(np.random.Philox(key=derive_seed(seed, "blobs")))
    labels = np.arange(count, dtype=np.int64) % classes
    angles = 2.0 * math.pi * labels / classes
    centers = np.zeros((count, dim))
    centers[:, 0] = radius * np.cos(angles)
    centers[:, 1] = radius * np.sin(angles)
    features = centers + gen.normal(0.0, spread, size=(count, dim))
    order = gen.permutation(count)
    return Dataset(features=features[order].astype(np.float32), labels=labels[order])


def train_test_split(data: Dataset, test_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    if not 0.0 < test_fraction < 1.0:
        raise ValueError("test_fraction must be in (0, 1)")
    gen = np.random.Generator(np.random.Philox(key=derive_seed(seed, "split")))
    order = gen.permutation(len(data))
    n_test = max(1, int(round(test_fraction * len(data))))
    test, train = order[:n_test], order[n_test:]
    return (
        Dataset(features=data.features[train], labels=data.labels[train]),
        Dataset(features=data.features[test], labels=data.labels[test]),
    )


def dataset_stats(data: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """Per-feature mean and standard deviation of the training data."""
    return data.features.mean(axis=0), data.features.std(axis=0)


def _nested_tuple(a: np.ndarray) -> tuple:
    """a as nested tuples of Python floats, one level per axis."""
    return tuple(_nested_tuple(v) if v.ndim else float(v) for v in a)


def noise_like(data: Dataset, count: int, seed: int) -> NoiseSpec:
    """count Gaussian inputs with the per-feature mean and standard
    deviation of data, whatever the rank of its features."""
    mean, std = dataset_stats(data)
    return NoiseSpec(mean=_nested_tuple(mean), std=_nested_tuple(std), count=count, seed=seed)


def gaussian_inputs(spec: NoiseSpec, shape: tuple[int, ...]) -> np.ndarray:
    """spec.count i.i.d. Gaussian tensors of the given shape, float32."""
    gen = np.random.Generator(np.random.Philox(key=derive_seed(spec.seed, "noise")))
    mean = np.broadcast_to(np.asarray(spec.mean, dtype=np.float64), shape)
    std = np.broadcast_to(np.asarray(spec.std, dtype=np.float64), shape)
    draws = gen.standard_normal(size=(spec.count, *shape))
    return (mean + std * draws).astype(np.float32)


def save_dataset(data: Dataset, path: str | Path) -> None:
    doc = {
        "features": data.features.tolist(),
        "labels": [int(v) for v in data.labels],
    }
    Path(path).write_text(json.dumps(doc, sort_keys=True) + "\n")


def load_dataset(path: str | Path) -> Dataset:
    """A dataset file; it must hold at least one input, since the sample
    shape is read from its features."""
    doc = fields(read_json(path), "dataset", field_names(Dataset), ("features", "labels"))
    features = np.asarray(doc["features"], dtype=np.float32)
    if not features.size:
        raise ParseError(f"dataset {path}: features holds no input values")
    return Dataset(features=features, labels=np.asarray(doc["labels"], dtype=np.int64))
