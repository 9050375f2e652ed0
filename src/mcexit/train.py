"""Desk-scale trainer for the dense subset of layer kinds.

Minimizes the sum of per-exit cross-entropy losses with plain mini-batch
gradient descent. Dropout stays active during training exactly as
configured for inference, and every random choice (init, shuffling,
dropout draws) derives from the config seed, so a rerun reproduces the
returned weights byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from . import netspec
from .datasets import Dataset
from .dropout import derive_seed, generate_masks, keyed_generator
from .netspec import LayerSpec, MultiExitSpec
from .runtime import WeightStore, init_weights

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
        if self.lr < 0:
            raise ValueError("lr must be >= 0")
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
    """A rank-1 pooling layer at the width the trainer feeds it."""

    def __init__(self, layer: LayerSpec, width: int) -> None:
        win = layer.params["window"]
        if not isinstance(win, int):
            raise TrainingError(f"layer {layer.id!r}: only integer pooling windows are trainable")
        self.is_max = layer.kind == "max_pool"
        self.window, self.stride, self.width = win, layer.params["stride"], width
        self.count = (width - win) // self.stride + 1
        self.starts = np.arange(self.count) * self.stride
        self.index = self.starts[:, None] + np.arange(win)

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        # A gather, not a reshape view. numpy lays the gathered windows out
        # batch axis innermost and reduces them tap after tap, which is the
        # faster here; a view of the rows is summed pairwise from 8 taps on,
        # which would change the trained bytes.
        windows = x[:, self.index]
        if self.is_max:
            return np.maximum.reduce(windows, axis=2), windows.argmax(axis=2)
        return np.add.reduce(windows, axis=2, dtype=x.dtype) / self.window, None

    def backward(self, grad: np.ndarray, arg: np.ndarray | None) -> np.ndarray:
        out = np.zeros((len(grad), self.width), dtype=grad.dtype)
        if self.is_max:
            at = (np.arange(len(grad))[:, None], self.starts + arg)
            if self.stride < self.window:
                np.add.at(out, at, grad)  # overlapping windows can pick one input twice
            else:
                out[at] += grad
            return out
        share = grad / grad.dtype.type(self.window)
        stop = self.stride * (self.count - 1) + 1
        for j in range(self.window):
            # one tap's windows never share an input; taps add in window order
            out[:, j : j + stop : self.stride] += share
        return out


class TrainStep:
    """What every batch of one spec needs, worked out once: the class
    count, the trunk layers the batch runs, each pool's geometry and index
    arrays, each dropout site's width, and for masksembles each site's
    mask table as float32. Building one checks that the spec is
    trainable."""

    def __init__(self, me: MultiExitSpec) -> None:
        _check_trainable(me)
        self.classes = me.class_count
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
        return x @ w.T + b, x
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
        grads[layer.id] = {"weights": grad.T @ ctx, "bias": np.add.reduce(grad, axis=0)}
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
    me: MultiExitSpec,
    batch_size: int,
    epoch_positions: np.ndarray,
    seed: int,
    *,
    step: TrainStep | None = None,
) -> dict[str, np.ndarray]:
    """One dropout realization per site for a whole batch.

    MCD draws a fresh scaled Bernoulli multiplier for every example;
    masksembles assigns example j the mask (epoch position of j) modulo
    num_masks, cycling through the table deterministically. A `step`
    built from `me` saves working out the site widths again.
    """
    cfg = me.dropout
    if cfg is None:
        return {}
    step = step if step is not None else TrainStep(me)
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
    me: MultiExitSpec,
    weights: WeightStore,
    x: np.ndarray,
    y: np.ndarray,
    draws: Mapping[str, np.ndarray],
    *,
    step: TrainStep | None = None,
) -> tuple[float, dict[str, dict[str, np.ndarray]]]:
    """Summed per-exit cross-entropy and its analytic gradients.

    The dropout realization is supplied explicitly so the loss is a
    deterministic, differentiable function of the weights; that is what
    makes finite-difference checks of these gradients meaningful. A
    `step` built from `me` saves checking and measuring the spec again.
    """
    step = step if step is not None else TrainStep(me)
    pools = step.pools
    x = np.asarray(x)
    y = np.asarray(y)
    batch = x.shape[0]
    onehot = np.zeros((batch, step.classes), dtype=x.dtype)
    onehot[np.arange(batch), y] = 1

    trunk_ctx: list[object] = []
    trunk_acts: dict[str | None, np.ndarray] = {None: x}
    cur = x
    for layer in step.trunk:
        cur, ctx = _forward_layer(layer, cur, weights, draws, pools)
        trunk_ctx.append(ctx)
        trunk_acts[layer.id] = cur

    grads: dict[str, dict[str, np.ndarray]] = {}
    attach_grads: dict[str | None, np.ndarray] = {}
    total_loss = 0.0
    for ex in me.exits:
        tape: list[tuple[LayerSpec, object]] = []
        h = trunk_acts[ex.attach_after]
        for layer in ex.head_layers[:-1]:
            h, ctx = _forward_layer(layer, h, weights, draws, pools)
            tape.append((layer, ctx))
        # fused softmax + cross-entropy on the terminal layer
        shifted = h - np.maximum.reduce(h, axis=1, keepdims=True)
        logz = shifted - np.log(np.add.reduce(np.exp(shifted), axis=1, keepdims=True))
        total_loss += float(-(onehot * logz).sum() / batch)
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
    return total_loss, grads


def train_toy(me: MultiExitSpec, data: Dataset, cfg: TrainConfig) -> WeightStore:
    """Train and return float32 weights; same seed, same bytes out.

    The spec is checked and measured once per call (TrainStep); each batch
    only draws its dropout, runs its forward and backward pass and updates
    the weights.
    """
    step = TrainStep(me)
    weights = init_weights(netspec.all_layers(me), cfg.seed)
    x_all = np.asarray(data.features, dtype=np.float32)
    y_all = np.asarray(data.labels)
    n = len(x_all)
    lr = np.float32(cfg.lr)
    for epoch in range(cfg.epochs):
        order = keyed_generator(derive_seed(cfg.seed, "shuffle", epoch)).permutation(n)
        for start in range(0, n, cfg.batch):
            take = order[start : start + cfg.batch]
            draws = make_dropout_draws(
                me,
                len(take),
                epoch_positions=np.arange(start, start + len(take)),
                seed=derive_seed(cfg.seed, "epoch", epoch, "batch", start),
                step=step,
            )
            _, grads = loss_and_grads(me, weights, x_all[take], y_all[take], draws, step=step)
            for lid, named in grads.items():
                for name, g in named.items():
                    weights[lid][name] -= lr * g
    return weights
