"""Deterministic, batch-invariant tensor runtime.

Executes layers on float32 arrays, a batch of samples at a time,
optionally passing weights and activations through a saturating
fixed-point quantizer to mimic a narrow hardware datapath. Every layer
kind is one kernel; resolve binds a layer's kernel to its geometry for
one input shape, once, in a Step, which a step table (see inference)
keeps and forward_batch runs. forward_batch quantizes whatever it runs
with a qformat; the inference executor runs a layer of
GRID_PRESERVING_KINDS without one when its input is already on the grid.
Also owns weight initialization and the manifest-plus-blob weights file
format.

Every weight store this module and the trainer return holds read-only
arrays, and the fixed-point codes of a read-only weight array are worked
out once per format and kept until the array dies. A caller's writable
array is quantized again on every call, so its codes are never stale.
"""

from __future__ import annotations

import functools
import math
import weakref
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, NamedTuple

import numpy as np

from . import netspec
from .documents import fields, load, read_json, write_json
from .dropout import derive_seed, keyed_generator
from .netspec import LayerSpec, ShapeMismatchError

ALLOWED_TOTAL_BITS = (4, 6, 8, 16)
QUANT_MODES = ("round_to_nearest_even", "truncate")
# Layer kinds that select, compare with zero or reshape but do no
# arithmetic: an input on a fixed-point grid leaves them on that grid, so
# requantizing their output cannot change a bit.
GRID_PRESERVING_KINDS = frozenset({"relu", "max_pool", "flatten"})

WeightStore = dict[str, dict[str, np.ndarray]]


@dataclass(frozen=True)
class QFormat:
    """Signed fixed-point format: total_bits wide with integer_bits of
    integer range (sign included), the rest fractional."""

    total_bits: int
    integer_bits: int
    mode: str = "round_to_nearest_even"
    saturating: bool = True

    def __post_init__(self) -> None:
        if self.total_bits not in ALLOWED_TOTAL_BITS:
            raise ValueError(f"total_bits must be one of {ALLOWED_TOTAL_BITS}")
        if not 1 <= self.integer_bits <= self.total_bits:
            raise ValueError("integer_bits must lie in [1, total_bits]")
        if self.mode not in QUANT_MODES:
            raise ValueError(f"mode must be one of {QUANT_MODES}")
        # quantize's constants, worked out once per format; not fields, so
        # equality, hashing and to_dict see only the four above
        frac_bits = self.total_bits - self.integer_bits
        object.__setattr__(self, "_scale", 2.0**frac_bits)
        object.__setattr__(self, "_step", 2.0**-frac_bits)
        object.__setattr__(self, "_lo", -(2 ** (self.total_bits - 1)))
        object.__setattr__(self, "_hi", 2 ** (self.total_bits - 1) - 1)
        object.__setattr__(self, "_span", 2**self.total_bits)

    @property
    def step(self) -> float:
        return self._step

    @property
    def max_value(self) -> float:
        return self._hi * self._step

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, doc: Any) -> "QFormat":
        return load(cls, doc, "qformat")


def datapath_format(bits: int | None, integer_bits: int) -> QFormat | None:
    """The format of a bits-wide datapath, or None for float; integer_bits
    is clamped to the width."""
    if bits is None:
        return None
    return QFormat(total_bits=bits, integer_bits=min(integer_bits, bits))


def quantize(x: np.ndarray | float, q: QFormat, *, in_place: bool = False) -> np.ndarray | float:
    """Snap values onto the fixed-point grid of q.

    Round-to-nearest-even or truncation toward negative infinity, then
    saturation at the representable range (or two's-complement wraparound
    when saturating is off). Idempotent: grid values map to themselves.
    Scales by 2**frac_bits and back by step, both exact powers of two,
    with the constants q worked out once. Works in place on one new array,
    so x itself is never written to; with in_place, a float array x itself
    holds the result, which suits only an array that nothing else reads.
    Float arrays keep their dtype; anything else is quantized as float64.
    """
    floating = isinstance(x, np.ndarray) and x.dtype.kind == "f"
    arr = np.asarray(x, dtype=None if floating else np.float64)
    scalar = arr.ndim == 0
    # a non-float x was converted to the new array arr
    codes = np.multiply(arr, q._scale, out=arr if in_place or not floating else np.empty_like(arr))
    if q.mode == "round_to_nearest_even":
        np.rint(codes, out=codes)
    else:
        np.floor(codes, out=codes)
    if q.saturating:
        np.maximum(codes, q._lo, out=codes)
        np.minimum(codes, q._hi, out=codes)
    else:
        codes -= q._lo
        np.mod(codes, q._span, out=codes)
        codes += q._lo
    codes *= q._step
    return codes.item() if scalar else codes


class FlopCounter:
    """Mutable tally of the multiply-accumulate work actually executed."""

    def __init__(self) -> None:
        self.total = 0

    def add(self, flops: int) -> None:
        self.total += int(flops)


# --------------------------------------------------------------------------
# layer execution


class Step(NamedTuple):
    """A layer resolved for one input shape: the kernel that runs it on a
    batch, its geometry bound, and its output shape, expected weight shape
    (None without weights) and per-sample FLOPs. It holds no weights."""

    id: str
    kind: str
    kernel: Callable[..., np.ndarray]
    out_shape: tuple[int, ...]
    weight_shape: tuple[int, ...] | None
    flops: int


def resolve(layer: LayerSpec, in_shape: tuple[int, ...]) -> Step:
    """layer's Step for samples of in_shape; raises ShapeMismatchError
    naming the layer when they do not fit."""
    out_shape = netspec.output_shape(layer, in_shape)
    kind, p = layer.kind, layer.params
    weight_shape = _weight_shape(layer) if kind in netspec.LEARNABLE_KINDS else None
    if kind == "dense":
        kernel = lambda x, w, b: np.matmul(w, x[..., None])[..., 0] + b
    elif kind == "conv2d":
        kernel = functools.partial(_conv2d, stride=p["stride"], padding=p["padding"])
    elif kind in netspec.POOL_KINDS:
        kernel = _pool(layer, in_shape, out_shape)
    elif kind == "relu":
        kernel = lambda x: np.maximum(x, x.dtype.type(0))
    elif kind == "softmax":
        kernel = softmax
    elif kind == "flatten":
        kernel = lambda x: x.reshape(len(x), *out_shape)
    else:  # dropout_point: an identity here, its sampling belongs to the caller
        kernel = lambda x: x
    return Step(layer.id, kind, kernel, out_shape, weight_shape, netspec.flops_of(layer, in_shape))


def _conv2d(x: np.ndarray, w: np.ndarray, b: np.ndarray, stride: int, padding: int) -> np.ndarray:
    """conv2d of a batch (B, C, H, W): one stacked matmul per kernel tap,
    the taps added in order into one accumulator.

    Both matmul operands are C-contiguous, so numpy runs one sgemm per
    row with the M, N and K of a single sample, and every row has the bits
    it has alone. One im2col gemm over all taps would sum in another order.
    """
    n, cin, h, wi = x.shape
    cout, _, kh, kw = w.shape
    if padding:
        padded = np.zeros((n, cin, h + 2 * padding, wi + 2 * padding), dtype=x.dtype)
        padded[:, :, padding : padding + h, padding : padding + wi] = x
        x = padded
    hout = (h + 2 * padding - kh) // stride + 1
    wout = (wi + 2 * padding - kw) // stride + 1
    # taps[i, j] is w[:, :, i, j], a copy: a view of w would keep w alive
    taps = _derived(w, "taps", lambda a: np.array(a.transpose(2, 3, 0, 1), order="C"))
    patch = np.empty((n, cin, hout, wout), dtype=x.dtype)
    cols = patch.reshape(n, cin, hout * wout)
    prod = np.empty((n, cout, hout * wout), dtype=np.result_type(w, x))
    acc = np.zeros((n, cout, hout * wout), dtype=x.dtype)
    for i in range(kh):
        for j in range(kw):
            patch[...] = x[:, :, i : i + stride * hout : stride, j : j + stride * wout : stride]
            acc += np.matmul(taps[i, j], cols, out=prod)
    return acc.reshape(n, cout, hout, wout) + b[:, None, None]


def _pool(
    layer: LayerSpec, in_shape: tuple[int, ...], out_shape: tuple[int, ...]
) -> Callable[[np.ndarray], np.ndarray]:
    """The kernel of a pooling layer on samples of in_shape."""
    stride, is_max = layer.params["stride"], layer.kind == "max_pool"
    win = netspec._pool_window(layer, in_shape)
    if len(in_shape) == 1:
        n = out_shape[0]
        if stride == win[0]:
            windows = lambda x: x[:, : n * stride].reshape(len(x), n, stride)
            if is_max:
                return lambda x: np.maximum.reduce(windows(x), axis=2)
            return lambda x: np.add.reduce(windows(x), axis=2, dtype=x.dtype) / win[0]
        # numpy sums a gathered window of 8 taps or more pairwise for one
        # row but one tap after another for a batch: add tap slices instead
        taps = [(..., slice(t, t + stride * n, stride)) for t in range(win[0])]
        return lambda x: _reduce_taps([x[t] for t in taps], is_max)
    (kh, kw), (hout, wout) = win, out_shape[1:]
    if hout == wout == 1:  # one window per channel, as in a global pool
        if is_max:
            return lambda x: np.maximum.reduce(_stacked(x, kh, kw), axis=0)[..., None, None]
        if math.prod(out_shape) > 1:
            # numpy adds stacked taps one after another for every output
            # element, for one sample and for a batch alike
            return lambda x: (
                np.add.reduce(_stacked(x, kh, kw), axis=0, dtype=x.dtype) / x.dtype.type(kh * kw)
            ).astype(x.dtype, copy=False)[..., None, None]
        # one output element per sample: numpy adds its taps pairwise, which
        # a batch would turn into one after another, so stay per sample
        one = lambda a: _stacked(a, kh, kw).mean(axis=0, dtype=a.dtype).reshape(out_shape)
        return lambda x: np.array([one(a) for a in x]).reshape(len(x), *out_shape).astype(x.dtype)
    taps = [
        (..., slice(i, i + stride * hout, stride), slice(j, j + stride * wout, stride))
        for i in range(kh)
        for j in range(kw)
    ]
    return lambda x: _reduce_taps([x[t] for t in taps], is_max)


def _stacked(x: np.ndarray, kh: int, kw: int) -> np.ndarray:
    """The taps of every channel's first kh x kw window, stacked along a
    new leading axis with one copy: (taps, ..., C)."""
    axes = (x.ndim - 2, x.ndim - 1, *range(x.ndim - 2))
    return np.ascontiguousarray(x[..., :kh, :kw].transpose(axes)).reshape(kh * kw, *x.shape[:-2])


def _reduce_taps(views: list[np.ndarray], is_max: bool) -> np.ndarray:
    """The tap views one after another, as numpy reduces stacked taps over
    axis 0: max starts from the first tap, a sum from its identity +0.0."""
    if is_max:
        out = views[0].copy()
        for view in views[1:]:
            np.maximum(out, view, out=out)
        return out
    out = np.zeros_like(views[0])
    for view in views:
        out += view
    return out / len(views)


def softmax(x: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, so a batch of logit rows maps row by row."""
    # the ufuncs that x.max and e.sum call, without their method wrappers
    e = np.exp(x - np.maximum.reduce(x, axis=-1, keepdims=True))
    return e / np.add.reduce(e, axis=-1, keepdims=True, dtype=x.dtype)


# Values worked out from read-only weight arrays: id(array) -> (weak ref
# to it, {format: codes, "taps": conv2d's tap-major copy}). An entry leaves
# when its array dies, so a reused id never finds stale values.
_weight_codes: dict[int, tuple[weakref.ref, dict[Any, np.ndarray]]] = {}


def _unchanging(a: np.ndarray) -> bool:
    """Whether no write can reach the values of a: a and every array it
    is a view of are read-only, and the last of them owns its memory
    rather than some other object's buffer."""
    while isinstance(a, np.ndarray):
        if a.flags.writeable:
            return False
        a = a.base
    return a is None


def _derived(a: np.ndarray, what: Any, make: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """make(a), a new array, worked out once per what for an unchanging
    array and on every call for any other, whose values may have changed."""
    if not _unchanging(a):
        return make(a)
    key = id(a)
    entry = _weight_codes.get(key)
    if entry is None or entry[0]() is not a:
        # the callback holds the dict itself: interpreter shutdown sets the
        # module global to None before it frees the arrays still alive
        forget = lambda _, key=key, codes=_weight_codes: codes.pop(key, None)
        entry = (weakref.ref(a, forget), {})
        _weight_codes[key] = entry
    out = entry[1].get(what)
    if out is None:
        out = entry[1][what] = make(a)
        out.flags.writeable = False  # every call with a shares it
    return out


def _layer_params(
    step: Step, weights: WeightStore | None, qformat: QFormat | None
) -> tuple[np.ndarray, np.ndarray]:
    """A learnable layer's weights and bias, as fixed-point codes with a
    qformat: read-only arrays are quantized once per format, a caller's
    writable ones on every call."""
    if weights is None or step.id not in weights:
        raise KeyError(f"no weights for layer {step.id!r}")
    w = weights[step.id]["weights"]
    b = weights[step.id]["bias"]
    if w.shape != step.weight_shape:
        raise ShapeMismatchError(
            f"layer {step.id!r}: weight shape {w.shape} does not match params"
        )
    if qformat is not None:
        w = _derived(w, qformat, functools.partial(quantize, q=qformat))
        b = _derived(b, qformat, functools.partial(quantize, q=qformat))
    return w, b


def forward_batch(
    layer: LayerSpec | Step,
    x: np.ndarray,
    weights: WeightStore | None = None,
    qformat: QFormat | None = None,
    flop_counter: FlopCounter | None = None,
) -> np.ndarray:
    """Run one layer on a stack of samples along a leading batch axis:
    a LayerSpec is resolved for the samples of x, a Step runs as it is.

    Batch invariant: every output row is bit-identical to running that
    row alone, whatever it is batched with. Dense layers therefore run as
    one gemv per row (a stacked matmul) and never as one gemm over the
    batch, whose blocking changes the summation order with the batch
    size; conv2d runs one stacked matmul per kernel tap (see _conv2d).

    With a qformat, the weights are used as fixed-point codes, which a
    read-only weight array has worked out once per format (see
    _layer_params), and the output activation is quantized afterward, in
    place when the layer built a new array; softmax outputs are exempt so
    probability vectors keep summing to one. dropout_point layers are an
    identity here; their stochastic realization belongs to the caller. A
    flop_counter is charged the per-sample FLOPs per row.
    """
    if not isinstance(layer, Step):
        x = np.asarray(x)
        layer = resolve(layer, x.shape[1:])  # shape check, raises with layer id
    if flop_counter is not None:
        flop_counter.add(len(x) * layer.flops)
    if layer.weight_shape is None:
        out = layer.kernel(x)
    else:
        out = layer.kernel(x, *_layer_params(layer, weights, qformat))
    if qformat is None or layer.kind in ("softmax", "dropout_point"):
        return out
    # out is new, but flatten's is a view of x
    return quantize(out, qformat, in_place=layer.kind != "flatten")


def forward(
    layer: LayerSpec,
    x: np.ndarray,
    weights: WeightStore | None = None,
    qformat: QFormat | None = None,
    flop_counter: FlopCounter | None = None,
) -> np.ndarray:
    """Run one layer on a single unbatched sample: the batch-of-1 case
    of forward_batch."""
    return forward_batch(layer, np.asarray(x)[None], weights, qformat, flop_counter)[0]


# --------------------------------------------------------------------------
# weight initialization


def read_only(store: WeightStore) -> WeightStore:
    """Mark every array of store read-only, as in each store mcexit
    returns, so that its fixed-point codes are worked out once per format;
    returns store."""
    for named in store.values():
        for arr in named.values():
            arr.flags.writeable = False
    return store


def _weight_shape(layer: LayerSpec) -> tuple[int, ...]:
    if layer.kind == "dense":
        return (layer.params["out_features"], layer.params["in_features"])
    p = layer.params
    return (p["out_channels"], p["in_channels"], p["kernel_h"], p["kernel_w"])


def init_weights(layers: Iterable[LayerSpec], seed: int) -> WeightStore:
    """Uniform(-a, a) init with a = sqrt(6 / (fan_in + fan_out)), float32,
    in read-only arrays.

    Each layer draws from its own stream keyed by (seed, layer id), so
    the values do not depend on enumeration order.
    """
    store: WeightStore = {}
    for layer in layers:
        if layer.kind not in netspec.LEARNABLE_KINDS:
            continue
        shape = _weight_shape(layer)  # (out, in, kernel...): fans count kernel taps
        fan_in, fan_out = math.prod(shape[1:]), shape[0] * math.prod(shape[2:])
        bound = math.sqrt(6.0 / (fan_in + fan_out))
        gen = keyed_generator(derive_seed(seed, "init", layer.id))
        w = gen.uniform(-bound, bound, size=shape).astype(np.float32)
        b = np.zeros(shape[0], dtype=np.float32)
        store[layer.id] = {"weights": w, "bias": b}
    return read_only(store)


def zero_weights(layers: Iterable[LayerSpec]) -> WeightStore:
    store: WeightStore = {}
    for layer in layers:
        if layer.kind not in netspec.LEARNABLE_KINDS:
            continue
        store[layer.id] = {
            "weights": np.zeros(_weight_shape(layer), dtype=np.float32),
            "bias": np.zeros(_weight_shape(layer)[0], dtype=np.float32),
        }
    return read_only(store)


# --------------------------------------------------------------------------
# weights file format: JSON manifest plus little-endian float32 blob


@dataclass(frozen=True)
class _Tensor:
    """One manifest entry: a tensor and where its bytes sit in the blob."""

    layer_id: str
    tensor_name: str
    shape: tuple[int, ...]
    dtype: str
    offset: int
    length: int


def save_weights(store: WeightStore, manifest_path: str | Path) -> None:
    """Write a manifest listing every tensor and one concatenated blob of
    little-endian float32 data, row-major, in manifest order."""
    manifest_path = Path(manifest_path)
    blob_path = manifest_path.with_suffix(".bin")
    tensors = []
    chunks = []
    offset = 0
    for layer_id, named in store.items():
        for name, arr in named.items():
            data = np.ascontiguousarray(arr, dtype="<f4").tobytes()
            tensors.append(asdict(_Tensor(layer_id, name, arr.shape, "f32le", offset, len(data))))
            chunks.append(data)
            offset += len(data)
    manifest = {"format": "weights", "version": 1, "blob": blob_path.name, "tensors": tensors}
    write_json(manifest_path, manifest)
    blob_path.write_bytes(b"".join(chunks))


def load_weights(manifest_path: str | Path) -> WeightStore:
    """Read a manifest+blob pair back into read-only arrays; rejects
    offset or length mismatches and a tensor that holds NaN or infinity."""
    manifest_path = Path(manifest_path)
    keys = ("format", "version", "blob", "tensors")
    manifest = fields(read_json(manifest_path), "manifest", keys, ("blob", "tensors"))
    blob = (manifest_path.parent / manifest["blob"]).read_bytes()
    store: WeightStore = {}
    expected_offset = 0
    for entry in manifest["tensors"]:
        t = load(_Tensor, entry, "manifest tensor")
        name, offset, length = f"tensor {t.layer_id}/{t.tensor_name}", t.offset, t.length
        if t.dtype != "f32le":
            raise ValueError(f"unsupported dtype {t.dtype!r}")
        if offset != expected_offset:
            raise ValueError(
                f"{name}: offset {offset} does not continue the previous tensor at {expected_offset}"
            )
        if length != 4 * math.prod(t.shape):
            raise ValueError(f"{name}: length {length} does not match shape {t.shape}")
        if offset + length > len(blob):
            raise ValueError("manifest addresses bytes beyond the end of the blob")
        arr = np.frombuffer(blob[offset : offset + length], dtype="<f4").reshape(t.shape)
        if not np.isfinite(arr).all():
            raise ValueError(f"{name} holds a NaN or infinite value")
        store.setdefault(t.layer_id, {})[t.tensor_name] = arr.astype(np.float32, copy=True)
        expected_offset = offset + length
    if expected_offset != len(blob):
        raise ValueError(
            f"blob holds {len(blob)} bytes but the manifest accounts for {expected_offset}"
        )
    return read_only(store)
