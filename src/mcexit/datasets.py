"""Small deterministic datasets: labelled Gaussian blobs for training and
unlabelled Gaussian noise for out-of-distribution scoring."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

from .documents import ParseError, field_names, fields, read_json
from .dropout import derive_seed


# Inputs are drawn as noise and run through the network (inference) this
# many at a time, which bounds the memory of a dataset call; outputs do
# not depend on it, since every draw comes from one stream and every
# runtime layer is batch invariant.
BLOCK_INPUTS = 64


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


def _noise_block(
    gen: np.random.Generator, mean: np.ndarray, std: np.ndarray, count: int
) -> np.ndarray:
    """The generator's next count inputs, scaled and shifted in place in
    float64, narrowed to float32; the float64 draws die on return."""
    draws = gen.standard_normal(size=(count, *mean.shape))
    np.multiply(std, draws, out=draws)
    np.add(mean, draws, out=draws)
    return draws.astype(np.float32)


def noise_blocks(spec: NoiseSpec, shape: tuple[int, ...], block: int) -> Iterator[np.ndarray]:
    """spec.count i.i.d. Gaussian tensors of the given shape, float32, in
    consecutive blocks of block inputs. Every block comes from the one
    generator, so the blocks joined are the set drawn at once, bit for
    bit, whatever block is; memory holds one block, not the set."""
    gen = np.random.Generator(np.random.Philox(key=derive_seed(spec.seed, "noise")))
    mean = np.broadcast_to(np.asarray(spec.mean, dtype=np.float64), shape)
    std = np.broadcast_to(np.asarray(spec.std, dtype=np.float64), shape)
    for start in range(0, spec.count, block):
        yield _noise_block(gen, mean, std, min(block, spec.count - start))


def gaussian_inputs(spec: NoiseSpec, shape: tuple[int, ...]) -> np.ndarray:
    """spec.count i.i.d. Gaussian tensors of the given shape, float32,
    drawn one BLOCK_INPUTS block at a time (noise_blocks) into the result,
    so it holds the float32 set and one block's float64 draws."""
    out = np.empty((spec.count, *shape), dtype=np.float32)
    start = 0
    for block in noise_blocks(spec, shape, BLOCK_INPUTS):
        out[start : start + len(block)] = block
        start += len(block)
        del block  # so the next block is drawn without this one alive
    return out


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
