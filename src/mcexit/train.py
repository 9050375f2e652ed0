"""Desk-scale trainer for the dense subset of layer kinds.

Minimizes the sum of per-exit cross-entropy losses with plain mini-batch
gradient descent. Dropout stays active during training exactly as
configured for inference, and every random choice (init, shuffling,
dropout draws) derives from the config seed, so a rerun reproduces the
returned weights byte for byte.

Models whose specs differ only in their dropout config train together on
a leading model axis (train_models): one stacked matmul per layer serves
them all, and each model's weights are byte for byte what training it
alone gives. train_toy is the one-model call.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np

from . import netspec
from .datasets import Dataset
from .dropout import derive_seed, generate_masks, keyed_generator
from .netspec import LayerSpec, MultiExitSpec
from .runtime import WeightStore, init_weights, read_only

SUPPORTED_KINDS = ("dense", "relu", "softmax", "flatten", "max_pool", "avg_pool", "dropout_point")


class TrainingError(RuntimeError):
    """Raised when a spec uses layers the toy trainer cannot differentiate."""


@dataclass(frozen=True)
class TrainConfig:
    lr: float
    epochs: int
    batch: int
    seed: int

    def __post_init__(self) -> None:
        if not 0 <= self.lr < np.inf:
            raise ValueError(f"lr must be finite and >= 0, got {self.lr}")
        if self.epochs < 1 or self.batch < 1:
            raise ValueError("epochs and batch must be >= 1")


def _check_trainable(me: MultiExitSpec) -> None:
    if len(me.trunk.input_shape) != 1:
        raise TrainingError("the toy trainer handles rank-1 inputs only")
    layers = netspec.all_layers(me)
    for layer in layers:
        if layer.kind not in SUPPORTED_KINDS:
            raise TrainingError(
                f"layer {layer.id!r}: kind {layer.kind!r} is outside the trainable dense subset"
            )
    if len({layer.id for layer in layers}) != len(layers):
        raise TrainingError("layer ids must be unique")
    for ex in me.exits:
        if ex.head_layers[-1].kind != "softmax":
            raise TrainingError(f"exit {ex.exit_index} head must end in softmax")
        if any(l.kind == "softmax" for l in ex.head_layers[:-1]):
            raise TrainingError("softmax is only supported as the terminal head layer")
    if any(l.kind == "softmax" for l in me.trunk.layers):
        raise TrainingError("softmax is only supported as the terminal head layer")


class _Pool:
    """A rank-1 pooling layer at the width the trainer feeds it. Its
    arrays are (batch, width) for one model, (models, batch, width) for a
    group."""

    def __init__(self, layer: LayerSpec, width: int) -> None:
        win = layer.params["window"]
        if not isinstance(win, int):
            raise TrainingError(f"layer {layer.id!r}: only integer pooling windows are trainable")
        self.is_max = layer.kind == "max_pool"
        self.window, self.stride, self.width = win, layer.params["stride"], width
        count = (width - win) // self.stride + 1
        self.starts = np.arange(count) * self.stride
        self.index = self.starts[:, None] + np.arange(win)
        # tap j of every window: one tap's windows never share an input
        stop = self.stride * (count - 1) + 1
        self.taps = [slice(j, j + stop, self.stride) for j in range(win)]

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        if self.is_max:
            windows = x[..., self.index]
            return np.maximum.reduce(windows, axis=-1), windows.argmax(axis=-1)
        if self.window >= 8 and x.shape[-2] == 1:
            # Taps add one after another below, as numpy sums the gathered
            # windows of a batch. The contiguous windows of a lone row it
            # sums pairwise from 8 taps on, and a model's batch of one has
            # kept that order since before groups: in a group, a
            # contiguous copy gives each model its own pairwise sums.
            total = np.add.reduce(np.ascontiguousarray(x[..., self.index]), axis=-1)
        else:
            total = x[..., self.taps[0]]
            for tap in self.taps[1:]:
                total = total + x[..., tap]
        return total / self.window, None

    def backward(self, grad: np.ndarray, arg: np.ndarray | None) -> np.ndarray:
        out = np.zeros((*grad.shape[:-1], self.width), dtype=grad.dtype)
        if self.is_max:
            rows = np.indices(grad.shape[:-1], sparse=True)
            at = (*(r[..., None] for r in rows), self.starts + arg)
            if self.stride < self.window:
                np.add.at(out, at, grad)  # overlapping windows can pick one input twice
            else:
                out[at] += grad
            return out
        share = grad / grad.dtype.type(self.window)
        for tap in self.taps:  # taps add in window order
            out[..., tap] += share
        return out


class TrainStep:
    """What every batch of one spec needs, worked out once: the class
    count, the trunk layers the batch runs, each pool's geometry and index
    arrays, each dropout site's width, and for masksembles each site's
    mask table as float32. Building one checks that the spec is
    trainable."""

    def __init__(self, me: MultiExitSpec) -> None:
        _check_trainable(me)
        self.me = me
        self.eye = np.eye(me.class_count, dtype=np.float32)  # one-hot rows by label
        self.trunk = me.trunk.layers[: netspec.deepest_attach(me) + 1]
        self.pools: dict[str, _Pool] = {}
        self.sites: dict[str, int] = {}
        shape = me.trunk.input_shape
        shapes: dict[str | None, tuple[int, ...]] = {None: shape}
        for layer in self.trunk:
            shape = shapes[layer.id] = self._shape_after(layer, shape)
        for ex in me.exits:
            shape = shapes[ex.attach_after]
            for layer in ex.head_layers[:-1]:
                if layer.kind == "dropout_point":
                    self.sites[layer.id] = int(shape[0])
                shape = self._shape_after(layer, shape)
        cfg = me.dropout
        self.tables: dict[str, np.ndarray] = {}
        if cfg is not None and cfg.kind == "masksembles":
            self.tables = {
                site: generate_masks(f, cfg.num_masks, cfg.scale).masks.astype(np.float32)
                for site, f in self.sites.items()
            }

    def _shape_after(self, layer: LayerSpec, shape: tuple[int, ...]) -> tuple[int, ...]:
        if layer.kind in ("max_pool", "avg_pool"):
            self.pools[layer.id] = _Pool(layer, shape[0])
        return netspec.output_shape(layer, shape)


def _forward_layer(
    layer: LayerSpec,
    x: np.ndarray,
    weights: WeightStore,
    draws: Mapping[str, np.ndarray],
    pools: Mapping[str, _Pool],
) -> tuple[np.ndarray, object]:
    """Batched forward for one layer; returns (output, backward context)."""
    kind = layer.kind
    if kind == "dense":
        w, b = weights[layer.id]["weights"], weights[layer.id]["bias"]
        out = x @ w.swapaxes(-1, -2)
        out += b[..., None, :]
        return out, x
    if kind == "relu":
        return np.maximum(x, 0), x
    if kind == "flatten":
        return x, None
    if kind == "dropout_point":
        mult = draws[layer.id]
        return x * mult, mult
    return pools[layer.id].forward(x)


def _backward_layer(
    layer: LayerSpec,
    grad: np.ndarray,
    ctx: object,
    weights: WeightStore,
    grads: dict[str, dict[str, np.ndarray]],
    pools: Mapping[str, _Pool],
    need_input: bool,
) -> np.ndarray | None:
    """Puts the layer's weight gradients in grads and returns the gradient
    at its input, or None when need_input is false."""
    kind = layer.kind
    if kind == "dense":
        grads[layer.id] = {
            "weights": grad.swapaxes(-1, -2) @ ctx,
            "bias": np.add.reduce(grad, axis=-2),
        }
        return grad @ weights[layer.id]["weights"] if need_input else None
    if not need_input:
        return None
    if kind == "relu":
        return grad * (ctx > 0)
    if kind == "flatten":
        return grad
    if kind == "dropout_point":
        return grad * ctx
    return pools[layer.id].backward(grad, ctx)


def make_dropout_draws(
    step: TrainStep, batch_size: int, epoch_positions: np.ndarray, seed: int
) -> dict[str, np.ndarray]:
    """One dropout realization per site of step's spec for a whole batch.

    MCD draws a fresh scaled Bernoulli multiplier for every example;
    masksembles assigns example j the mask (epoch position of j) modulo
    num_masks, cycling through the table deterministically.
    """
    cfg = step.me.dropout
    if cfg is None:
        return {}
    if cfg.kind == "masksembles":
        rows = np.asarray(epoch_positions) % cfg.num_masks
        return {site_id: table[rows] for site_id, table in step.tables.items()}
    scale = np.float32((1.0 / cfg.keep_rate) if cfg.inverted else cfg.keep_rate)
    draws: dict[str, np.ndarray] = {}
    for site_id, f in step.sites.items():
        u = keyed_generator(derive_seed(seed, "train-drop", site_id)).random((batch_size, f))
        draws[site_id] = (u <= cfg.keep_rate).astype(np.float32) * scale
    return draws


def loss_and_grads(
    step: TrainStep,
    weights: WeightStore,
    x: np.ndarray,
    y: np.ndarray,
    draws: Mapping[str, np.ndarray],
) -> tuple[float, dict[str, dict[str, np.ndarray]]]:
    """Summed per-exit cross-entropy of step's spec and its analytic
    gradients.

    The dropout realization is supplied explicitly so the loss is a
    deterministic, differentiable function of the weights; that is what
    makes finite-difference checks of these gradients meaningful.

    x of shape (batch, features) is one model. A group of models that
    train together passes x of shape (models, batch, features), with y,
    the draws and every weight stacked on the same leading axis; the loss
    is then an array of one loss per model and the gradients are stacked.
    """
    pools = step.pools
    x = np.asarray(x)
    y = np.asarray(y)
    batch = x.shape[-2]
    onehot = step.eye[y].astype(x.dtype, copy=False)

    trunk_ctx: list[object] = []
    trunk_acts: dict[str | None, np.ndarray] = {None: x}
    cur = x
    for layer in step.trunk:
        cur, ctx = _forward_layer(layer, cur, weights, draws, pools)
        trunk_ctx.append(ctx)
        trunk_acts[layer.id] = cur

    grads: dict[str, dict[str, np.ndarray]] = {}
    attach_grads: dict[str | None, np.ndarray] = {}
    total_loss = np.zeros(x.shape[:-2])[()]  # float64, one per model
    for ex in step.me.exits:
        tape: list[tuple[LayerSpec, object]] = []
        h = trunk_acts[ex.attach_after]
        for layer in ex.head_layers[:-1]:
            h, ctx = _forward_layer(layer, h, weights, draws, pools)
            tape.append((layer, ctx))
        # fused softmax + cross-entropy on the terminal layer
        shifted = h - np.maximum.reduce(h, axis=-1, keepdims=True)
        logz = shifted - np.log(np.add.reduce(np.exp(shifted), axis=-1, keepdims=True))
        total_loss = total_loss - np.add.reduce(onehot * logz, axis=(-2, -1)) / batch
        g = (np.exp(logz) - onehot) / x.dtype.type(batch)
        for pos in range(len(tape) - 1, -1, -1):
            layer, ctx = tape[pos]
            need_input = pos > 0 or ex.attach_after is not None
            g = _backward_layer(layer, g, ctx, weights, grads, pools, need_input)
        if g is not None:
            prev = attach_grads.get(ex.attach_after)
            attach_grads[ex.attach_after] = g if prev is None else prev + g

    g = None
    for pos in range(len(step.trunk) - 1, -1, -1):
        layer = step.trunk[pos]
        arriving = attach_grads.get(layer.id)
        if arriving is not None:
            g = arriving if g is None else g + arriving
        if g is None:
            continue
        # the first layer's input gradient would be the data's: nothing uses it
        g = _backward_layer(layer, g, trunk_ctx[pos], weights, grads, pools, pos > 0)
    return (float(total_loss) if x.ndim == 2 else total_loss), grads


def _stack(arrays: Sequence[np.ndarray]) -> np.ndarray:
    """The arrays on a leading model axis, which a lone model goes without."""
    return arrays[0] if len(arrays) == 1 else np.stack(arrays)


def train_models(
    steps: Sequence[TrainStep], data: Dataset, cfgs: Sequence[TrainConfig]
) -> list[WeightStore]:
    """Train one model per (step, cfg) pair together and return each
    one's float32 weights in read-only arrays, byte for byte what
    train_toy gives it alone.

    The steps' specs must be the same apart from their dropout configs,
    and the configs the same apart from their seeds. Each model keeps its
    own init, shuffle and dropout draws. The forward pass, backward pass
    and update of a batch run once for the whole group, on arrays with a
    leading model axis.
    """
    if not steps or len(steps) != len(cfgs):
        raise ValueError(f"{len(steps)} specs for {len(cfgs)} train configs")
    shared = replace(steps[0].me, dropout=None)
    if any(replace(s.me, dropout=None) != shared for s in steps[1:]):
        raise ValueError("models that train together must differ only in their dropout config")
    epochs, batch = cfgs[0].epochs, cfgs[0].batch
    if any((c.lr, c.epochs, c.batch) != (cfgs[0].lr, epochs, batch) for c in cfgs):
        raise ValueError("models that train together must share lr, epochs and batch")
    lr = np.float32(cfgs[0].lr)

    models = list(zip(steps, cfgs))
    stores = [init_weights(netspec.all_layers(s.me), c.seed) for s, c in models]
    # the updates below write in place, so a lone model must not keep its
    # read-only init arrays (a group's np.stack has copied them already)
    weights = {
        lid: {name: np.array(_stack([s[lid][name] for s in stores])) for name in named}
        for lid, named in stores[0].items()
    }
    x_all = np.asarray(data.features, dtype=np.float32)
    y_all = np.asarray(data.labels)
    n = len(x_all)
    positions = np.arange(n)
    for epoch in range(epochs):
        order = _stack(
            [keyed_generator(derive_seed(c.seed, "shuffle", epoch)).permutation(n) for c in cfgs]
        )
        for start in range(0, n, batch):
            take = order[..., start : start + batch]
            at = positions[start : start + batch]
            per_model = [
                make_dropout_draws(s, len(at), at, derive_seed(c.seed, "epoch", epoch, "batch", start))
                for s, c in models
            ]
            draws = {site: _stack([d[site] for d in per_model]) for site in per_model[0]}
            _, grads = loss_and_grads(steps[0], weights, x_all[take], y_all[take], draws)
            for lid, named in grads.items():
                for name, g in named.items():
                    weights[lid][name] -= lr * g
    if len(steps) == 1:
        return [read_only(weights)]
    per_model = [
        {lid: {name: t[m].copy() for name, t in named.items()} for lid, named in weights.items()}
        for m in range(len(steps))
    ]
    return [read_only(store) for store in per_model]


def train_toy(me: MultiExitSpec, data: Dataset, cfg: TrainConfig) -> WeightStore:
    """Train and return float32 weights in read-only arrays; same seed,
    same bytes out: the one-model call of train_models."""
    return train_models([TrainStep(me)], data, [cfg])[0]
