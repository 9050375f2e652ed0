"""Monte-Carlo execution of a multi-exit network.

The deterministic trunk runs once per input and its activations are
cached at every exit attach point; each exit head then re-runs n_pass
times from its cached feature with fresh dropout realizations. Early
exit advances the trunk exit by exit, so it runs only as deep as each
input goes; early_exit_samples applies its rule to samples drawn once.
All inputs x passes of a head run as one batch through the
batch-invariant runtime. Random draws come from counter-based streams
keyed by (seed, pass, layer id), so results do not depend on evaluation
order or on batching. A call hashes each input seed's key prefix once
for all its MC-dropout sites (dropout.stream_prefixes). Every head stops
before its terminal softmax: predict and the dataset calls run one
softmax over all exits' logits, early exit one per exit it decides at.

A spec's step table (step_table), resolved on its first call and kept on
the spec, holds everything that depends on the spec alone: each layer's
runtime.Step, attach depths, grid flags, mask tables and each MC-dropout
site's key suffixes. A call checks its input shape against it and then
runs only the kernels. The trainer, the FLOP model and the emitted plan
read the same table.

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

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, NamedTuple

import numpy as np

from . import netspec, runtime
from .datasets import BLOCK_INPUTS
from .dropout import (
    MaskSet,
    derive_seed,
    generate_masks,
    masksembles_passes,
    mcd_passes,
    stream_prefixes,
    stream_suffixes,
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


@dataclass(frozen=True)
class ExitDecision:
    """Outcome of confidence-based early exiting for one input."""

    probs: np.ndarray
    exit_taken: int
    confidence: float
    mode: str


def site_feature_count(me: MultiExitSpec, exit_index: int, site_id: str) -> int:
    """Width of the masked axis at a dropout site (channels for rank-3)."""
    for step in step_table(me).heads[exit_index - 1].steps:
        if step.id == site_id:
            return int(step.out_shape[0])  # a dropout point's shape is its input's
    raise ValueError(f"no dropout site {site_id!r} in exit {exit_index}")


def site_mask_sets(me: MultiExitSpec) -> dict[str, MaskSet]:
    """Deterministic mask tables for every masksembles dropout site."""
    heads = step_table(me).heads
    return {s.id: m for h in heads for s, m in zip(h.steps, h.masks) if m is not None}


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
    masksembles site's mask table (else None), each MC-dropout site's
    stream_suffixes by n_pass, filled as calls need them (else None), and
    _grid_walk's runs for features [from the trunk or not, on a saturating
    format or not]."""

    in_shape: tuple[int, ...]
    steps: tuple[runtime.Step, ...]
    masks: tuple[MaskSet | None, ...]
    suffixes: tuple[dict[int, tuple[bytes, ...]] | None, ...]
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
    if not steps or steps[-1].kind != "softmax":  # a spec built without netspec.validate
        raise ValueError(f"exit {exit_index} head must end in softmax")
    sites = [masked and s.kind == "dropout_point" for s in steps]
    masks = tuple(
        generate_masks(s.out_shape[0], cfg.num_masks, cfg.scale) if site else None
        for s, site in zip(steps, sites)
    )
    drawn = cfg is not None and cfg.kind == "mcd"
    suffixes = tuple({} if drawn and s.kind == "dropout_point" else None for s in steps)
    # a 0/1 mask keeps grid values, but turns a negative one into -0.0,
    # which wraparound requantizes to +0.0
    kinds, tf = [s.kind for s in steps], (False, True)
    runs = {(t, s): _grid_walk(kinds, t and on_grid, masked and s)[0] for t in tf for s in tf}
    return _Head(shape, steps, masks, suffixes, runs)


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


def step_table(me: MultiExitSpec) -> _Table:
    """me's step table for its own input shape, resolved on the first
    inference, training or FLOP-count call and kept on the spec."""
    return _table(me, me.trunk.input_shape)


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


def check_n_pass(me: MultiExitSpec, n_pass: int, name: str = "n_pass") -> None:
    """Reject a pass count me cannot run; the error calls it name."""
    if n_pass < 1:
        raise ValueError(f"{name} must be >= 1, got {n_pass}")
    cfg = me.dropout
    if cfg is not None and cfg.kind == "masksembles" and n_pass > cfg.num_masks:
        raise ValueError(
            f"{name} {n_pass} exceeds the {cfg.num_masks} available masks; "
            f"each pass consumes one distinct mask"
        )


def _prefixes(me: MultiExitSpec, seeds: list[int]) -> list:
    """The stream_prefixes of the inputs' seeds that every MC-dropout site
    of a call shares; a spec without MC dropout draws no keys."""
    cfg = me.dropout
    return stream_prefixes(seeds) if cfg is not None and cfg.kind == "mcd" else []


def _logits(
    me: MultiExitSpec,
    head: _Head,
    feature: np.ndarray,
    n_pass: int,
    prefixes: list,
    weights: WeightStore,
    qformat: QFormat | None,
    flop_counter: FlopCounter | None,
    from_trunk: bool = True,
) -> np.ndarray:
    """n_pass samples of one exit head for each of a batch of features, all
    in one head batch, up to the head's terminal softmax (which netspec
    requires): (inputs * n_pass, class_count), row i * n_pass + p pass p of
    input i, drawn with prefixes[i]. from_trunk says the features are
    _trunk's on the datapath of qformat."""
    cfg = me.dropout
    runs = head.runs[from_trunk, qformat is not None and qformat.saturating]
    x = np.repeat(feature, n_pass, axis=0)
    for step, mask, tails, run in zip(head.steps[:-1], head.masks, head.suffixes, runs):
        if step.kind != "dropout_point":
            x = runtime.forward_batch(step, x, weights, qformat if run else None, flop_counter)
            continue
        if cfg is None:
            raise ValueError("spec has dropout sites but no dropout config")
        if cfg.kind == "mcd":
            suffixes = tails.get(n_pass)
            if suffixes is None:  # threads that race here store equal tuples
                suffixes = tails[n_pass] = stream_suffixes(n_pass, step.id)
            x = mcd_passes(x, cfg.keep_rate, cfg.granularity, prefixes, suffixes, cfg.inverted)
        else:  # check_n_pass keeps every pass within the table
            x = masksembles_passes(x, n_pass, mask)
        if run and qformat is not None:
            x = runtime.quantize(x, qformat, in_place=True)  # the sampler's new array
    return x


def _probabilities(logits: np.ndarray) -> np.ndarray:
    """The terminal softmax of logits, which a fixed-point datapath leaves
    unquantized, as float64."""
    return np.asarray(runtime.softmax(logits), dtype=np.float64)


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
    check_n_pass(me, n_pass)
    ex = me.exits[exit_index - 1]
    if ex.attach_after not in cached:
        raise KeyError(f"no cached feature for attach point {ex.attach_after!r}")
    feature = np.asarray(cached[ex.attach_after])[None]
    head = step_table(me).heads[exit_index - 1]
    if feature.shape[1:] != head.in_shape:
        head = _resolve_head(me, exit_index, feature.shape[1:])
    # a caller's cache may come from another datapath, so requantize it
    x = _logits(
        me, head, feature, n_pass, _prefixes(me, [seed]), weights, qformat, flop_counter, False
    )
    return _probabilities(x)


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
    (inputs, n_exit, n_pass, class_count), all exits' logits through one
    softmax."""
    check_n_pass(me, n_pass)
    cached: CachedFeatures = {None: np.asarray(inputs, dtype=np.float32)}
    table = _table(me, cached[None].shape[1:])
    _trunk(table, cached, -1, len(table.trunk) - 1, weights, qformat, flop_counter)
    prefixes = _prefixes(me, seeds)
    logits = [
        _logits(me, h, cached[ex.attach_after], n_pass, prefixes, weights, qformat, flop_counter)
        for ex, h in zip(me.exits, table.heads)
    ]
    shape = (len(inputs), n_pass, logits[0].shape[-1])
    return _probabilities(np.stack([x.reshape(shape) for x in logits], axis=1))


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


def mean_samples(samples: np.ndarray) -> np.ndarray:
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
    return mean_samples(preds.samples[:upto])


def _early_exit(
    exit_samples: Callable[..., np.ndarray], n_exit: int, threshold: float, mode: str
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The early-exit rule: an input answers, with its probabilities, exit
    and confidence, at the first exit whose own mean (per_exit) or running
    mean (ensemble_so_far) reaches threshold in its top class, else at exit
    n_exit. exit_samples(k, live, keep) gives exit k's samples
    (rows, n_pass, class_count) of the undecided inputs: at indices live,
    the rows keep masks of its last call's (None: all, for either)."""
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must be in (0, 1), got {threshold}")
    if mode not in EXIT_MODES:
        raise ValueError(f"mode must be one of {EXIT_MODES}")
    live = history = keep = None  # undecided rows once some decide, their samples, the last mask
    for k in range(1, n_exit + 1):
        samples, keep = exit_samples(k, live, keep), None
        if mode == "ensemble_so_far":
            history = samples if history is None else np.concatenate([history, samples], axis=1)
            samples = history
        # the ufuncs that samples.mean and p.max call, without their wrappers
        p = np.add.reduce(samples, axis=1) / samples.shape[1]
        c = np.maximum.reduce(p, axis=1)
        done = c >= threshold
        if k == n_exit:
            done[:] = True  # the final exit always answers
        n_done = np.count_nonzero(done)
        if live is None and n_done == len(p):  # every input answers at this exit
            return p, np.full(n_done, k, dtype=np.int64), c
        if not n_done:
            continue
        if live is None:
            live, taken = np.arange(len(p)), np.zeros(len(p), np.int64)
            probs, confidence = np.empty_like(p), np.empty_like(c)
        rows = live[done]
        probs[rows], taken[rows], confidence[rows] = p[done], k, c[done]
        if n_done == len(live):
            break
        keep = ~done
        live, history = live[keep], None if history is None else history[keep]
    return probs, taken, confidence


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
    """confidence_exit for a batch, by _early_exit: before exit k's head
    runs once on the undecided inputs, the trunk advances to its attach
    point on them alone, so an input that exits at k runs no trunk layer past it."""
    check_n_pass(me, n_pass)
    cached: CachedFeatures = {None: np.asarray(inputs, dtype=np.float32)}
    table = _table(me, cached[None].shape[1:])
    prefixes = _prefixes(me, seeds)
    depth = -1

    def exit_samples(k: int, _, keep: np.ndarray | None) -> np.ndarray:
        nonlocal cached, prefixes, depth
        if keep is not None:
            prefixes = [h for h, kept in zip(prefixes, keep) if kept]
            before = me.exits[k - 2].attach_after  # later exits read only its feature
            cached = {before: cached[before][keep]}
        depth = _trunk(table, cached, depth, table.attach[k - 1], weights, qformat, None)
        feature = cached[me.exits[k - 1].attach_after]
        x = _logits(me, table.heads[k - 1], feature, n_pass, prefixes, weights, qformat, None)
        return _probabilities(x).reshape(len(feature), n_pass, x.shape[-1])

    return _early_exit(exit_samples, me.n_exit, threshold, mode)


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


def dataset_samples(
    me: MultiExitSpec,
    weights: WeightStore,
    inputs: np.ndarray,
    n_pass: int,
    seeds: list[int],
    qformat: QFormat | None = None,
) -> np.ndarray:
    """Every exit's samples, (inputs, n_exit, n_pass, class_count), run
    BLOCK_INPUTS inputs at a time: row i is predict(inputs[i], seeds[i])'s."""
    if len(seeds) != len(inputs):
        raise ValueError(f"{len(seeds)} seeds for {len(inputs)} inputs")
    blocks = [
        _samples(me, inputs[b], n_pass, seeds[b], weights, qformat) for b in _blocks(len(inputs))
    ]
    return np.concatenate(blocks)


def ensemble_dataset(
    me: MultiExitSpec,
    weights: WeightStore,
    inputs: np.ndarray,
    n_pass: int,
    seed: int,
    qformat: QFormat | None = None,
) -> np.ndarray:
    """Full-ensemble probabilities for a batch of inputs, one row each."""
    seeds = dataset_seeds(seed, len(inputs))
    return mean_samples(dataset_samples(me, weights, inputs, n_pass, seeds, qformat))


@dataclass(frozen=True)
class EarlyExitScores:
    """confidence_exit over a dataset, with the FLOPs each input spent."""

    probs: np.ndarray  # (inputs, class_count)
    exits_taken: np.ndarray  # (inputs,) int64
    avg_flops_per_input: float  # mean of flop_main + n_pass * head FLOPs of exits run


def _charged(probs: np.ndarray, taken: np.ndarray, n_pass: int, flops: FlopReport):
    """EarlyExitScores of these answers; zero inputs spend 0.0 FLOPs."""
    spent = [flops.flop_main + n_pass * sum(flops.per_exit[:k]) for k in taken]
    return EarlyExitScores(probs, taken, float(np.mean(spent)) if spent else 0.0)


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
    the trunk stops at the attach point of the exit that answers. Zero
    inputs spend 0.0 FLOPs on average."""
    inputs = np.asarray(inputs, dtype=np.float32)
    seeds = dataset_seeds(seed, len(inputs))
    parts = [
        _confidence_exits(me, inputs[b], threshold, mode, weights, n_pass, seeds[b], qformat)
        for b in _blocks(len(inputs))
    ]
    probs, taken, _ = (np.concatenate(columns) for columns in zip(*parts))
    return _charged(probs, taken, n_pass, flops)


def early_exit_samples(
    samples: np.ndarray, threshold: float, mode: str, flops: FlopReport
) -> EarlyExitScores:
    """The early-exit rule applied to dataset_samples' samples: bit for bit
    confidence_exit_dataset on the same inputs and seeds, with no head run."""
    def exit_samples(k: int, live: np.ndarray | None, _) -> np.ndarray:
        return samples[:, k - 1] if live is None else samples[live, k - 1]

    probs, taken, _ = _early_exit(exit_samples, samples.shape[1], threshold, mode)
    return _charged(probs, taken, samples.shape[2], flops)
