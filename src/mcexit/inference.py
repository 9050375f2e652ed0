"""Monte-Carlo execution of a multi-exit network.

The deterministic trunk runs once per input and its activations are
cached at every exit attach point; each exit head then re-runs n_pass
times from its cached feature with fresh dropout realizations. Early
exit advances the trunk exit by exit, so it runs only as deep as each
input goes. All inputs x passes of a head run as one batch through the
batch-invariant runtime. Random draws come from counter-based streams
keyed by (seed, pass, layer id), so results do not depend on evaluation
order or on batching.

A spec's step table (_table), resolved on its first call and kept on the
spec, holds everything that depends on the spec alone: each layer's
runtime.Step, attach depths, grid flags and mask tables. A call checks
its input shape against it and then runs only the kernels.

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
from typing import TYPE_CHECKING, Any, NamedTuple

import numpy as np

from . import netspec, runtime
from .documents import fields
from .dropout import (
    DropoutConfig,
    MaskSet,
    config_digest,
    derive_seed,
    generate_masks,
    masksembles_passes,
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
        sums = np.add.reduce(self.samples, axis=2)
        if not (np.abs(sums - 1.0) <= 1e-6).all():
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
    for step in _table(me, me.trunk.input_shape).heads[exit_index - 1].steps:
        if step.id == site_id:
            return int(step.out_shape[0])  # a dropout point's shape is its input's
    raise ValueError(f"no dropout site {site_id!r} in exit {exit_index}")


def site_mask_sets(me: MultiExitSpec) -> dict[str, MaskSet]:
    """Deterministic mask tables for every masksembles dropout site."""
    heads = _table(me, me.trunk.input_shape).heads
    return {s.id: m for h in heads for s, m in zip(h.steps, h.masks) if m is not None}


# Inputs run through the network this many at a time, which bounds the
# activation memory of a dataset call; outputs do not depend on it, since
# every runtime layer is batch invariant.
BLOCK_INPUTS = 64


def _grid_walk(kinds: list[str], on_grid: bool, sample_keeps_grid: bool | None) -> tuple:
    """Follow a fixed-point datapath through layers of these kinds: per layer,
    whether it runs with the qformat (a site: whether its sample is requantized)
    and whether its output is on the grid. A site keeps an on-grid input on
    the grid if sample_keeps_grid; None makes sites identities, as in a trunk."""
    runs, grid = [], []
    for kind in kinds:
        if kind == "dropout_point":
            run = sample_keeps_grid is not None and not (on_grid and sample_keeps_grid)
            on_grid = on_grid or run
        elif on_grid and kind in runtime.GRID_PRESERVING_KINDS:
            run = False
        else:
            run, on_grid = True, kind != "softmax"
        runs.append(run)
        grid.append(on_grid)
    return tuple(runs), tuple(grid)


class _Head(NamedTuple):
    """An exit head resolved for features of in_shape: its steps, each
    masksembles site's mask table (else None), and _grid_walk's runs for
    features [from the trunk or not, on a saturating format or not]."""

    in_shape: tuple[int, ...]
    steps: tuple[runtime.Step, ...]
    masks: tuple[MaskSet | None, ...]
    runs: dict[tuple[bool, bool], tuple[bool, ...]]


class _Table(NamedTuple):
    """A spec's step table for one input shape: the trunk's steps as deep
    as the deepest attach point and their runs from _grid_walk, and each
    exit's attach depth and head."""

    trunk: tuple[runtime.Step, ...]
    runs: tuple[bool, ...]
    attach: tuple[int, ...]
    heads: tuple[_Head, ...]


def _chain(layers, shape: tuple[int, ...]) -> tuple[runtime.Step, ...]:
    steps: list[runtime.Step] = []
    for layer in layers:
        steps.append(runtime.resolve(layer, shape))
        shape = steps[-1].out_shape
    return tuple(steps)


def _resolve_head(me: MultiExitSpec, exit_index: int, shape: tuple, on_grid: bool = False) -> _Head:
    cfg = me.dropout
    masked = cfg is not None and cfg.kind == "masksembles"
    steps = _chain(me.exits[exit_index - 1].head_layers, shape)
    sites = [masked and s.kind == "dropout_point" for s in steps]
    masks = tuple(
        generate_masks(s.out_shape[0], cfg.num_masks, cfg.scale) if site else None
        for s, site in zip(steps, sites)
    )
    # a 0/1 mask keeps grid values, but turns a negative one into -0.0,
    # which wraparound requantizes to +0.0
    kinds, tf = [s.kind for s in steps], (False, True)
    runs = {(t, s): _grid_walk(kinds, t and on_grid, masked and s)[0] for t in tf for s in tf}
    return _Head(shape, steps, masks, runs)


def _resolve(me: MultiExitSpec, input_shape: tuple[int, ...]) -> _Table:
    attach = tuple(netspec.attach_depth(me, ex.attach_after) for ex in me.exits)
    trunk = _chain(me.trunk.layers[: max(attach) + 1], input_shape)
    runs, on_grid = _grid_walk([s.kind for s in trunk], False, None)
    shapes, on_grid = [input_shape, *(s.out_shape for s in trunk)], (False, *on_grid)
    heads = [_resolve_head(me, k, shapes[a + 1], on_grid[a + 1]) for k, a in enumerate(attach, 1)]
    return _Table(trunk, runs, attach, tuple(heads))


def _table(me: MultiExitSpec, input_shape: tuple[int, ...]) -> _Table:
    """me's step table for inputs of input_shape: its own input shape's is
    resolved once and kept on the spec, unseen by equality, serialization
    and replace; another's is resolved per call, raising as a misfit would."""
    if input_shape != me.trunk.input_shape:
        return _resolve(me, input_shape)
    table = me.__dict__.get("_table")
    if table is None:
        table = _resolve(me, input_shape)
        object.__setattr__(me, "_table", table)
    return table


def _trunk(
    table: _Table,
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
    x = cached[table.trunk[depth].id if depth >= 0 else None]
    for i in range(depth + 1, stop + 1):
        q = qformat if table.runs[i] else None
        x = runtime.forward_batch(table.trunk[i], x, weights, q, flop_counter)
        if i in table.attach:
            cached[table.trunk[i].id] = x
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
    table = _table(me, cached[None].shape[1:])
    _trunk(table, cached, -1, len(table.trunk) - 1, weights, qformat, flop_counter)
    return {ex.attach_after: cached[ex.attach_after][0] for ex in me.exits}


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
    head: _Head,
    feature: np.ndarray,
    n_pass: int,
    seeds: list[int],
    weights: WeightStore,
    qformat: QFormat | None,
    flop_counter: FlopCounter | None,
    from_trunk: bool = True,
) -> np.ndarray:
    """n_pass samples of one exit head for each of a batch of features,
    input i sampled with seeds[i], all in one head batch: (inputs, n_pass,
    class_count) float64. from_trunk says the features are _trunk's on the
    datapath of qformat."""
    cfg = me.dropout
    runs = head.runs[from_trunk, qformat is not None and qformat.saturating]
    x = np.repeat(feature, n_pass, axis=0)  # row i * n_pass + p is pass p of input i
    for step, mask, run in zip(head.steps, head.masks, runs):
        if step.kind != "dropout_point":
            x = runtime.forward_batch(step, x, weights, qformat if run else None, flop_counter)
            continue
        if cfg is None:
            raise ValueError("spec has dropout sites but no dropout config")
        if cfg.kind == "mcd":
            rows = [s for s in seeds for _ in range(n_pass)]
            keys = stream_keys(rows, list(range(n_pass)) * len(seeds), step.id)
            x = mcd_forward_batch(x, cfg.keep_rate, cfg.granularity, keys, cfg.inverted)
        else:  # _check_n_pass keeps every pass within the table
            x = masksembles_passes(x, n_pass, mask)
        if run and qformat is not None:
            x = runtime.quantize(x, qformat, in_place=True)  # the sampler's new array
    return np.asarray(x, dtype=np.float64).reshape(len(feature), n_pass, x.shape[-1])


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
    feature = np.asarray(cached[ex.attach_after])[None]
    head = _table(me, me.trunk.input_shape).heads[exit_index - 1]
    if feature.shape[1:] != head.in_shape:
        head = _resolve_head(me, exit_index, feature.shape[1:])
    # a caller's cache may come from another datapath, so requantize it
    return _exit_samples(
        me, head, feature, n_pass, [seed], weights, qformat, flop_counter, from_trunk=False
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
    table = _table(me, cached[None].shape[1:])
    _trunk(table, cached, -1, len(table.trunk) - 1, weights, qformat, flop_counter)
    per_exit = [
        _exit_samples(me, h, cached[ex.attach_after], n_pass, seeds, weights, qformat, flop_counter)
        for ex, h in zip(me.exits, table.heads)
    ]
    return np.concatenate([s[:, None] for s in per_exit], axis=1)


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
    table = _table(me, cached[None].shape[1:])
    depth = -1
    live: np.ndarray | None = None  # rows still undecided, once some have decided
    history: np.ndarray | None = None  # their samples so far, for ensemble_so_far
    for k, (ex, head, stop) in enumerate(zip(me.exits, table.heads, table.attach), 1):
        depth = _trunk(table, cached, depth, stop, weights, qformat, None)
        feature = cached[ex.attach_after]
        samples = _exit_samples(me, head, feature, n_pass, seeds, weights, qformat, None)
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
