"""Monte-Carlo execution of a multi-exit network.

The deterministic trunk runs once per input and its activations are
cached at every exit attach point; each exit head then re-runs n_pass
times from its cached feature with fresh dropout realizations. Early
exit advances the trunk exit by exit, so it runs only as deep as each
input goes. All inputs x passes of a head run as one batch through the
batch-invariant runtime. Random draws come from counter-based streams
keyed by (seed, pass, layer id), so results do not depend on evaluation
order or on batching.

On a fixed-point datapath each value is quantized once, where it leaves
the grid: the executor tracks whether the current activation is on the
grid. The network input is not; the output of every layer run with the
qformat is, except softmax. A grid-preserving layer
(runtime.GRID_PRESERVING_KINDS) keeps an on-grid input on the grid and
runs unquantized, and so, on a saturating format, does masksembles
masking. MC-dropout scaling leaves the grid and is requantized. Every
skipped requantization would have mapped each value to its own bits.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

import numpy as np

from . import netspec, runtime
from .documents import fields
from .dropout import (
    DropoutConfig,
    MaskSet,
    config_digest,
    derive_seed,
    generate_masks,
    masksembles_forward_batch,
    mcd_forward_batch,
    stream_keys,
)
from .netspec import MultiExitSpec
from .runtime import FlopCounter, QFormat, WeightStore

if TYPE_CHECKING:
    from .metrics import FlopReport

EXIT_MODES = ("per_exit", "ensemble_so_far")

CachedFeatures = dict  # attach-point layer id (or None for the input) -> activation


@dataclass
class PredictionSet:
    """All per-exit, per-pass probability vectors for one input."""

    samples: np.ndarray  # (n_exit, n_pass, class_count) float64
    n_exit: int
    n_pass: int
    class_count: int

    def __post_init__(self) -> None:
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.shape != (self.n_exit, self.n_pass, self.class_count):
            raise ValueError(
                f"samples shape {self.samples.shape} does not match "
                f"({self.n_exit}, {self.n_pass}, {self.class_count})"
            )
        sums = self.samples.sum(axis=2)
        if not np.all(np.abs(sums - 1.0) <= 1e-6):
            raise ValueError("every stored probability vector must sum to 1 within 1e-6")

    @property
    def n_sample(self) -> int:
        return self.n_exit * self.n_pass

    def to_dict(self, seed: int | None = None, config: DropoutConfig | None = None) -> dict:
        out: dict[str, Any] = {
            "n_exit": self.n_exit,
            "n_pass": self.n_pass,
            "class_count": self.class_count,
            "samples": self.samples.reshape(-1).tolist(),  # row-major
        }
        if seed is not None:
            out["seed"] = int(seed)
        if config is not None:
            out["dropout_config_digest"] = config_digest(config)
        return out

    @classmethod
    def from_dict(cls, doc: Any) -> "PredictionSet":
        keys = ("n_exit", "n_pass", "class_count", "samples", "seed", "dropout_config_digest")
        doc = fields(doc, "prediction set", keys, keys[:4])
        n_exit, n_pass, classes = int(doc["n_exit"]), int(doc["n_pass"]), int(doc["class_count"])
        samples = np.asarray(doc["samples"], dtype=np.float64).reshape(n_exit, n_pass, classes)
        return cls(samples=samples, n_exit=n_exit, n_pass=n_pass, class_count=classes)

    def to_json(self, seed: int | None = None, config: DropoutConfig | None = None) -> str:
        return json.dumps(self.to_dict(seed=seed, config=config), sort_keys=True)


@dataclass(frozen=True)
class ExitDecision:
    """Outcome of confidence-based early exiting for one input."""

    probs: np.ndarray
    exit_taken: int
    confidence: float
    mode: str


def site_feature_count(me: MultiExitSpec, exit_index: int, site_id: str) -> int:
    """Width of the masked axis at a dropout site (channels for rank-3)."""
    ex = me.exits[exit_index - 1]
    shape = netspec.attach_shape(me, ex.attach_after)
    for layer in ex.head_layers:
        if layer.id == site_id:
            return int(shape[0])
        shape = netspec.output_shape(layer, shape)
    raise ValueError(f"no dropout site {site_id!r} in exit {exit_index}")


def site_mask_sets(me: MultiExitSpec) -> dict[str, MaskSet]:
    """Deterministic mask tables for every masksembles dropout site."""
    cfg = me.dropout
    if cfg is None or cfg.kind != "masksembles":
        return {}
    tables: dict[str, MaskSet] = {}
    for exit_index, site_id in me.dropout_sites:
        f = site_feature_count(me, exit_index, site_id)
        tables[site_id] = generate_masks(f, cfg.num_masks, cfg.scale)
    return tables


# Inputs run through the network this many at a time, which bounds the
# activation memory of a dataset call; outputs do not depend on it, since
# every runtime layer is batch invariant.
BLOCK_INPUTS = 64


def _grid_step(
    kind: str, on_grid: bool, qformat: QFormat | None
) -> tuple[QFormat | None, bool]:
    """The qformat to run a layer of this kind with, given whether its
    input is on the grid, and whether its output is."""
    if qformat is None:
        return None, False
    if kind == "dropout_point":  # forward_batch runs it as an identity
        return qformat, on_grid
    if on_grid and kind in runtime.GRID_PRESERVING_KINDS:
        return None, True
    return qformat, kind != "softmax"


def _on_grid(me: MultiExitSpec, attach_after: str | None, qformat: QFormat | None) -> bool:
    """Whether the trunk leaves its activation after attach_after (None is
    the network input) on the grid of qformat."""
    on_grid = False
    if attach_after is not None and qformat is not None:
        for layer in me.trunk.layers:
            _, on_grid = _grid_step(layer.kind, on_grid, qformat)
            if layer.id == attach_after:
                break
    return on_grid


def _trunk(
    me: MultiExitSpec,
    cached: CachedFeatures,
    depth: int,
    stop: int,
    weights: WeightStore,
    qformat: QFormat | None,
    flop_counter: FlopCounter | None,
) -> int:
    """Advance a batch through the trunk from position depth to position
    stop (-1 is the network input), adding every attach-point activation
    passed on the way to cached. cached holds the batch's activation at
    depth, under that layer's id (None for the input), and every cached
    activation keeps the leading batch axis. Returns the depth reached."""
    if stop <= depth:
        return depth
    layers = me.trunk.layers
    wanted = {ex.attach_after for ex in me.exits}
    start = layers[depth].id if depth >= 0 else None
    x = cached[start]
    on_grid = _on_grid(me, start, qformat)
    for layer in layers[depth + 1 : stop + 1]:
        q, on_grid = _grid_step(layer.kind, on_grid, qformat)
        x = runtime.forward_batch(layer, x, weights, q, flop_counter)
        if layer.id in wanted:
            cached[layer.id] = x
    return stop


def run_trunk(
    me: MultiExitSpec,
    x: np.ndarray,
    weights: WeightStore,
    qformat: QFormat | None = None,
    flop_counter: FlopCounter | None = None,
) -> CachedFeatures:
    """One deterministic pass of the shared trunk, no dropout evaluated.

    Executes only as deep as the deepest attach point and captures the
    activation at every exit attach point.
    """
    cached: CachedFeatures = {None: np.asarray(x, dtype=np.float32)[None]}
    _trunk(me, cached, -1, netspec.deepest_attach(me), weights, qformat, flop_counter)
    return {ex.attach_after: cached[ex.attach_after][0] for ex in me.exits}


def _head(
    me: MultiExitSpec,
    exit_index: int,
    features: np.ndarray,
    on_grid: bool,
    seeds: list[int],
    passes: list[int],
    weights: WeightStore,
    qformat: QFormat | None,
    flop_counter: FlopCounter | None,
) -> np.ndarray:
    """Run one exit head on a batch of cached features, which are on the
    grid of qformat if on_grid. Row r is pass passes[r] of the input
    sampled with seeds[r]; returns one float64 probability vector per
    row."""
    cfg = me.dropout
    x = features
    for layer in me.exits[exit_index - 1].head_layers:
        if layer.kind != "dropout_point":
            q, on_grid = _grid_step(layer.kind, on_grid, qformat)
            x = runtime.forward_batch(layer, x, weights, q, flop_counter)
            continue
        if cfg is None:
            raise ValueError("spec has dropout sites but no dropout config")
        if cfg.kind == "mcd":
            keys = stream_keys(seeds, passes, layer.id)
            x = mcd_forward_batch(x, cfg.keep_rate, cfg.granularity, keys, cfg.inverted)
            on_grid = False
        else:
            masks = generate_masks(x.shape[1], cfg.num_masks, cfg.scale)
            x = masksembles_forward_batch(x, passes, masks)
            # a 0/1 mask keeps grid values, but turns a negative one into
            # -0.0, which wraparound requantizes to +0.0
            on_grid = on_grid and qformat.saturating
        if qformat is not None and not on_grid:
            x = runtime.quantize(x, qformat, in_place=True)  # the sampler's new array
            on_grid = True
    return np.asarray(x, dtype=np.float64)


def _check_n_pass(me: MultiExitSpec, n_pass: int) -> None:
    if n_pass < 1:
        raise ValueError(f"n_pass must be >= 1, got {n_pass}")
    cfg = me.dropout
    if cfg is not None and cfg.kind == "masksembles" and n_pass > cfg.num_masks:
        raise ValueError(
            f"n_pass {n_pass} exceeds the {cfg.num_masks} available masks; "
            f"each pass consumes one distinct mask"
        )


def _exit_samples(
    me: MultiExitSpec,
    cached: CachedFeatures,
    exit_index: int,
    n_pass: int,
    seeds: list[int],
    weights: WeightStore,
    qformat: QFormat | None,
    flop_counter: FlopCounter | None,
    from_trunk: bool = True,
) -> np.ndarray:
    """n_pass samples of one exit for every input of a batched cache, all
    in one head batch: (inputs, n_pass, class_count). from_trunk says the
    cache holds _trunk's activations on the datapath of qformat."""
    attach_after = me.exits[exit_index - 1].attach_after
    feature = cached[attach_after]
    n = len(feature)
    rows = _head(
        me,
        exit_index,
        np.repeat(feature, n_pass, axis=0),
        from_trunk and _on_grid(me, attach_after, qformat),
        [s for s in seeds for _ in range(n_pass)],
        list(range(n_pass)) * n,
        weights,
        qformat,
        flop_counter,
    )
    return rows.reshape(n, n_pass, rows.shape[-1])


def run_exit_samples(
    cached: CachedFeatures,
    me: MultiExitSpec,
    exit_index: int,
    n_pass: int,
    weights: WeightStore,
    seed: int,
    qformat: QFormat | None = None,
    flop_counter: FlopCounter | None = None,
) -> np.ndarray:
    """n_pass stochastic forward passes of one exit head from its cached
    feature. Returns the float64 probability vectors, one row per pass."""
    if not 1 <= exit_index <= me.n_exit:
        raise ValueError(f"exit_index must be in [1, {me.n_exit}], got {exit_index}")
    _check_n_pass(me, n_pass)
    ex = me.exits[exit_index - 1]
    if ex.attach_after not in cached:
        raise KeyError(f"no cached feature for attach point {ex.attach_after!r}")
    one = {ex.attach_after: np.asarray(cached[ex.attach_after])[None]}
    # a caller's cache may come from another datapath, so requantize it
    return _exit_samples(
        me, one, exit_index, n_pass, [seed], weights, qformat, flop_counter, from_trunk=False
    )[0]


def _samples(
    me: MultiExitSpec,
    inputs: np.ndarray,
    n_pass: int,
    seeds: list[int],
    weights: WeightStore,
    qformat: QFormat | None,
    flop_counter: FlopCounter | None = None,
) -> np.ndarray:
    """Every exit's n_pass samples for a batch of inputs:
    (inputs, n_exit, n_pass, class_count)."""
    _check_n_pass(me, n_pass)
    cached: CachedFeatures = {None: np.asarray(inputs, dtype=np.float32)}
    _trunk(me, cached, -1, netspec.deepest_attach(me), weights, qformat, flop_counter)
    per_exit = [
        _exit_samples(me, cached, k, n_pass, seeds, weights, qformat, flop_counter)
        for k in range(1, me.n_exit + 1)
    ]
    return np.stack(per_exit, axis=1)


def predict(
    me: MultiExitSpec,
    x: np.ndarray,
    n_pass: int,
    weights: WeightStore,
    seed: int | None = None,
    qformat: QFormat | None = None,
    flop_counter: FlopCounter | None = None,
) -> PredictionSet:
    """Full Monte-Carlo prediction: one trunk pass, n_pass head passes per
    exit, n_exit * n_pass probability vectors in total."""
    if seed is None:
        seed = me.dropout.seed if me.dropout is not None else 0
    x = np.asarray(x, dtype=np.float32)[None]
    samples = _samples(me, x, n_pass, [seed], weights, qformat, flop_counter)[0]
    return PredictionSet(
        samples=samples,
        n_exit=me.n_exit,
        n_pass=n_pass,
        class_count=samples.shape[2],
    )


def _mean_samples(samples: np.ndarray) -> np.ndarray:
    """Mean probability vector over the (exit, pass) axes of samples
    shaped (..., exits, passes, class_count). One reduction shape for a
    single input and for a batch, so their rows agree bit for bit."""
    *lead, exits, passes, classes = samples.shape
    return samples.reshape(*lead, exits * passes, classes).mean(axis=-2)


def ensemble(preds: PredictionSet, upto_exit: int | None = None) -> np.ndarray:
    """Mean probability vector over all passes of exits 1..upto_exit."""
    upto = preds.n_exit if upto_exit is None else upto_exit
    if not 1 <= upto <= preds.n_exit:
        raise ValueError(f"upto_exit must be in [1, {preds.n_exit}], got {upto}")
    return _mean_samples(preds.samples[:upto])


def _confidence_exits(
    me: MultiExitSpec,
    inputs: np.ndarray,
    threshold: float,
    mode: str,
    weights: WeightStore,
    n_pass: int,
    seeds: list[int],
    qformat: QFormat | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """confidence_exit for a batch of inputs. Before exit k's head, the
    trunk advances to exit k's attach point on the inputs that are still
    undecided, and the head runs once on them, so an input that exits at
    k never runs a trunk layer past that point. Returns the probabilities,
    the exit taken and the confidence of every input."""
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must be in (0, 1), got {threshold}")
    if mode not in EXIT_MODES:
        raise ValueError(f"mode must be one of {EXIT_MODES}")
    _check_n_pass(me, n_pass)
    n = len(inputs)
    cached: CachedFeatures = {None: np.asarray(inputs, dtype=np.float32)}
    depth = -1
    live: np.ndarray | None = None  # rows still undecided, once some have decided
    history: np.ndarray | None = None  # their samples so far, for ensemble_so_far
    for k, ex in enumerate(me.exits, 1):
        stop = netspec.attach_depth(me, ex.attach_after)
        depth = _trunk(me, cached, depth, stop, weights, qformat, None)
        samples = _exit_samples(me, cached, k, n_pass, seeds, weights, qformat, None)
        if mode == "ensemble_so_far":
            history = samples if history is None else np.concatenate([history, samples], axis=1)
            samples = history
        # the ufuncs that samples.mean and p.max call, without their wrappers
        p = np.add.reduce(samples, axis=1) / samples.shape[1]
        c = np.maximum.reduce(p, axis=1)
        done = c >= threshold
        if k == me.n_exit:
            done[:] = True  # the final exit always answers
        n_done = np.count_nonzero(done)
        if live is None and n_done == n:  # every input answers at this exit
            return p, np.full(n, k, dtype=np.int64), c
        if not n_done:
            continue
        if live is None:
            live = np.arange(n)
            probs = np.empty((n, p.shape[1]))
            taken = np.zeros(n, dtype=np.int64)
            confidence = np.empty(n)
        rows = live[done]
        probs[rows] = p[done]
        taken[rows] = k
        confidence[rows] = c[done]
        if n_done == len(live):
            break
        keep = ~done
        live = live[keep]
        seeds = [s for s, kept in zip(seeds, keep) if kept]
        # later exits read only the activation at depth, this exit's feature
        cached = {ex.attach_after: cached[ex.attach_after][keep]}
        if history is not None:
            history = history[keep]
    return probs, taken, confidence


def confidence_exit(
    me: MultiExitSpec,
    x: np.ndarray,
    threshold: float,
    mode: str,
    weights: WeightStore,
    n_pass: int,
    seed: int | None = None,
    qformat: QFormat | None = None,
) -> ExitDecision:
    """Evaluate exits shallow-to-deep and stop at the first whose averaged
    prediction reaches the confidence threshold; the final exit always
    answers. Deeper heads are never executed once an exit fires, and the
    trunk runs only as far as the attach point of the exit that answers.

    mode "per_exit" scores each exit's own average; "ensemble_so_far"
    scores the running ensemble of all exits up to the current one.
    """
    if seed is None:
        seed = me.dropout.seed if me.dropout is not None else 0
    x = np.asarray(x, dtype=np.float32)[None]
    probs, taken, confidence = _confidence_exits(
        me, x, threshold, mode, weights, n_pass, [seed], qformat
    )
    return ExitDecision(
        probs=probs[0], exit_taken=int(taken[0]), confidence=float(confidence[0]), mode=mode
    )


def dataset_seeds(seed: int, count: int) -> list[int]:
    """Independent per-input sampling seeds derived from one base seed."""
    return [derive_seed(seed, "input", i) for i in range(count)]


def _blocks(count: int) -> list[slice]:
    """Consecutive input blocks; an empty dataset is one empty block."""
    return [slice(a, a + BLOCK_INPUTS) for a in range(0, max(count, 1), BLOCK_INPUTS)]


def ensemble_rows(
    me: MultiExitSpec,
    weights: WeightStore,
    inputs: np.ndarray,
    n_pass: int,
    seeds: list[int],
    qformat: QFormat | None = None,
) -> np.ndarray:
    """Full-ensemble probabilities, one row per input, input i sampled
    with seeds[i]: row i equals ensemble(predict(inputs[i], seed=seeds[i]))."""
    inputs = np.asarray(inputs, dtype=np.float32)
    if len(seeds) != len(inputs):
        raise ValueError(f"{len(seeds)} seeds for {len(inputs)} inputs")
    rows = [
        _mean_samples(_samples(me, inputs[b], n_pass, seeds[b], weights, qformat))
        for b in _blocks(len(inputs))
    ]
    return np.concatenate(rows)


def ensemble_dataset(
    me: MultiExitSpec,
    weights: WeightStore,
    inputs: np.ndarray,
    n_pass: int,
    seed: int,
    qformat: QFormat | None = None,
) -> np.ndarray:
    """Full-ensemble probabilities for a batch of inputs, one row each."""
    return ensemble_rows(me, weights, inputs, n_pass, dataset_seeds(seed, len(inputs)), qformat)


@dataclass(frozen=True)
class EarlyExitScores:
    """confidence_exit over a dataset, with the FLOPs each input spent."""

    probs: np.ndarray  # (inputs, class_count)
    exits_taken: np.ndarray  # (inputs,) int64
    avg_flops_per_input: float  # mean of flop_main + n_pass * head FLOPs of exits run


def confidence_exit_dataset(
    me: MultiExitSpec,
    weights: WeightStore,
    inputs: np.ndarray,
    n_pass: int,
    seed: int,
    threshold: float,
    mode: str,
    flops: FlopReport,
    qformat: QFormat | None = None,
) -> EarlyExitScores:
    """confidence_exit on every input, input i sampled with
    dataset_seeds(seed, len(inputs))[i], and the early-exit FLOP
    accounting of flops (metrics.count_flops of me) over the exits run.
    That is the modelled cost: it charges the whole flop_main, even though
    the trunk stops at the attach point of the exit that answers."""
    inputs = np.asarray(inputs, dtype=np.float32)
    seeds = dataset_seeds(seed, len(inputs))
    parts = [
        _confidence_exits(me, inputs[b], threshold, mode, weights, n_pass, seeds[b], qformat)
        for b in _blocks(len(inputs))
    ]
    probs = np.concatenate([p for p, _, _ in parts])
    taken = np.concatenate([t for _, t, _ in parts])
    spent = [flops.flop_main + n_pass * sum(flops.per_exit[:k]) for k in taken]
    return EarlyExitScores(
        probs=probs, exits_taken=taken, avg_flops_per_input=float(np.mean(spent))
    )
