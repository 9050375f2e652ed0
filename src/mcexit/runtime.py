"""Deterministic, batch-invariant tensor runtime.

Executes layer chains on float32 arrays, one sample or a batch of
samples at a time, optionally passing weights and activations through a
saturating fixed-point quantizer to mimic a narrow hardware datapath.
forward_batch quantizes whatever it runs with a qformat; it is the caller
(the inference executor) that runs a layer of GRID_PRESERVING_KINDS
without one when its input is already on the grid. Also owns weight
initialization and the manifest-plus-blob weights file format.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable

import numpy as np

from . import netspec
from .documents import field_names, fields, read_json, write_json
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

    @property
    def frac_bits(self) -> int:
        return self.total_bits - self.integer_bits

    @property
    def step(self) -> float:
        return 2.0 ** -self.frac_bits

    @property
    def max_value(self) -> float:
        return (2 ** (self.total_bits - 1) - 1) * self.step

    def to_dict(self) -> dict[str, Any]:
        return {
            "total_bits": self.total_bits,
            "integer_bits": self.integer_bits,
            "mode": self.mode,
            "saturating": self.saturating,
        }

    @classmethod
    def from_dict(cls, doc: Any) -> "QFormat":
        return cls(**fields(doc, "qformat", field_names(cls), ("total_bits", "integer_bits")))


def datapath_format(bits: int | None, integer_bits: int) -> QFormat | None:
    """The format of a bits-wide datapath, or None for float; integer_bits
    is clamped to the width."""
    if bits is None:
        return None
    return QFormat(total_bits=bits, integer_bits=min(integer_bits, bits))


def quantize(x: np.ndarray | float, q: QFormat) -> np.ndarray | float:
    """Snap values onto the fixed-point grid of q.

    Round-to-nearest-even or truncation toward negative infinity, then
    saturation at the representable range (or two's-complement wraparound
    when saturating is off). Idempotent: grid values map to themselves.
    Scales by 2**frac_bits and back by step, both exact powers of two, and
    works in place on one new array, so x itself is never written to.
    Float arrays keep their dtype; anything else is quantized as float64.
    """
    floating = isinstance(x, np.ndarray) and x.dtype.kind == "f"
    arr = np.asarray(x, dtype=None if floating else np.float64)
    scalar = arr.ndim == 0
    codes = np.multiply(arr, arr.dtype.type(2.0**q.frac_bits), out=np.empty_like(arr))
    if q.mode == "round_to_nearest_even":
        np.rint(codes, out=codes)
    else:
        np.floor(codes, out=codes)
    lo, hi = -(2 ** (q.total_bits - 1)), 2 ** (q.total_bits - 1) - 1
    if q.saturating:
        np.maximum(codes, lo, out=codes)
        np.minimum(codes, hi, out=codes)
    else:
        codes -= lo
        np.mod(codes, 2**q.total_bits, out=codes)
        codes += lo
    codes *= arr.dtype.type(q.step)
    return codes.item() if scalar else codes


class FlopCounter:
    """Mutable tally of the multiply-accumulate work actually executed."""

    def __init__(self) -> None:
        self.total = 0

    def add(self, flops: int) -> None:
        self.total += int(flops)


# --------------------------------------------------------------------------
# layer execution


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
    taps = np.ascontiguousarray(w.transpose(2, 3, 0, 1))  # taps[i, j] is w[:, :, i, j]
    patch = np.empty((n, cin, hout, wout), dtype=x.dtype)
    cols = patch.reshape(n, cin, hout * wout)
    prod = np.empty((n, cout, hout * wout), dtype=np.result_type(w, x))
    acc = np.zeros((n, cout, hout * wout), dtype=x.dtype)
    for i in range(kh):
        for j in range(kw):
            patch[...] = x[:, :, i : i + stride * hout : stride, j : j + stride * wout : stride]
            acc += np.matmul(taps[i, j], cols, out=prod)
    return acc.reshape(n, cout, hout, wout) + b[:, None, None]


def _per_row(fn, x: np.ndarray, out_shape: tuple[int, ...]) -> np.ndarray:
    """Apply a single-sample function to every row of a batch."""
    rows = [fn(row) for row in x]
    return np.array(rows) if rows else np.empty((0, *out_shape), dtype=x.dtype)


def _pool(x: np.ndarray, layer: LayerSpec, out_shape: tuple[int, ...]) -> np.ndarray:
    stride = layer.params["stride"]
    win = netspec._pool_window(layer, x.shape[1:])
    is_max = layer.kind == "max_pool"
    if x.ndim == 2:
        n = out_shape[0]
        if stride != win[0]:
            # numpy sums a gathered window of 8 taps or more pairwise for one
            # row but one tap after another for a batch: add tap slices instead
            return _reduce_taps([x[:, t : t + stride * n : stride] for t in range(win[0])], is_max)
        windows = x[:, : n * stride].reshape(len(x), n, stride)
        if is_max:
            return np.maximum.reduce(windows, axis=2)
        return np.add.reduce(windows, axis=2, dtype=x.dtype) / win[0]
    kh, kw = win
    hout, wout = out_shape[1:]
    if hout == wout == 1:
        # one window per channel, as in a global pool: its taps stacked along
        # a new leading axis with one copy, (taps, ..., C, 1, 1)

        def stacked(a: np.ndarray) -> np.ndarray:
            taps = np.moveaxis(a[..., :kh, :kw], (-2, -1), (0, 1))
            return np.ascontiguousarray(taps).reshape(kh * kw, *a.shape[:-2], 1, 1)

        if is_max:
            return stacked(x).max(axis=0)
        if math.prod(out_shape) > 1:
            # numpy adds stacked taps one after another for every output
            # element, for one sample and for a batch alike
            return stacked(x).mean(axis=0, dtype=x.dtype)
        # one output element per sample: numpy adds its taps pairwise, which
        # a batch would turn into one after another, so stay per sample
        return _per_row(lambda a: stacked(a).mean(axis=0, dtype=a.dtype), x, out_shape)
    views = [
        x[..., i : i + stride * hout : stride, j : j + stride * wout : stride]
        for i in range(kh)
        for j in range(kw)
    ]
    return _reduce_taps(views, is_max)


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


def _layer_params(
    layer: LayerSpec, weights: WeightStore | None, qformat: QFormat | None
) -> tuple[np.ndarray, np.ndarray]:
    if weights is None or layer.id not in weights:
        raise KeyError(f"no weights for layer {layer.id!r}")
    w = weights[layer.id]["weights"]
    b = weights[layer.id]["bias"]
    if w.shape != _weight_shape(layer):
        raise ShapeMismatchError(
            f"layer {layer.id!r}: weight shape {w.shape} does not match params"
        )
    if qformat is not None:
        w = quantize(w, qformat)
        b = quantize(b, qformat)
    return w, b


def forward_batch(
    layer: LayerSpec,
    x: np.ndarray,
    weights: WeightStore | None = None,
    qformat: QFormat | None = None,
    flop_counter: FlopCounter | None = None,
) -> np.ndarray:
    """Run one layer on a stack of samples along a leading batch axis.

    Batch invariant: every output row is bit-identical to running that
    row alone, whatever it is batched with. Dense layers therefore run as
    one gemv per row (a stacked matmul) and never as one gemm over the
    batch, whose blocking changes the summation order with the batch
    size. conv2d loops over the rows.

    With a qformat, weights are quantized once per call before use and
    the output activation is quantized afterward; softmax outputs are
    exempt so probability vectors keep summing to one. dropout_point
    layers are an identity here; their stochastic realization belongs to
    the caller. A flop_counter is charged the per-sample FLOPs per row.
    """
    x = np.asarray(x)
    out_shape = netspec.output_shape(layer, x.shape[1:])  # shape check, raises with layer id
    if flop_counter is not None:
        flop_counter.add(len(x) * netspec.flops_of(layer, x.shape[1:]))
    kind = layer.kind
    if kind == "dense":
        w, b = _layer_params(layer, weights, qformat)
        out = np.matmul(w, x[..., None])[..., 0] + b
    elif kind == "conv2d":
        w, b = _layer_params(layer, weights, qformat)
        out = _conv2d(x, w, b, layer.params["stride"], layer.params["padding"])
    elif kind in ("max_pool", "avg_pool"):
        out = _pool(x, layer, out_shape)
    elif kind == "relu":
        out = np.maximum(x, x.dtype.type(0))
    elif kind == "softmax":
        return softmax(x)
    elif kind == "flatten":
        out = x.reshape(len(x), *out_shape)
    else:  # dropout_point
        out = x
    if qformat is not None and kind != "dropout_point":
        out = quantize(out, qformat)
    return out


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


def run_layers(
    layers: Iterable[LayerSpec],
    x: np.ndarray,
    weights: WeightStore | None = None,
    qformat: QFormat | None = None,
    flop_counter: FlopCounter | None = None,
) -> np.ndarray:
    for layer in layers:
        x = forward(layer, x, weights, qformat, flop_counter)
    return x


# --------------------------------------------------------------------------
# weight initialization and channel slicing


def _fans(layer: LayerSpec) -> tuple[int, int]:
    if layer.kind == "dense":
        return layer.params["in_features"], layer.params["out_features"]
    p = layer.params
    rf = p["kernel_h"] * p["kernel_w"]
    return p["in_channels"] * rf, p["out_channels"] * rf


def _weight_shape(layer: LayerSpec) -> tuple[int, ...]:
    if layer.kind == "dense":
        return (layer.params["out_features"], layer.params["in_features"])
    p = layer.params
    return (p["out_channels"], p["in_channels"], p["kernel_h"], p["kernel_w"])


def init_weights(layers: Iterable[LayerSpec], seed: int) -> WeightStore:
    """Uniform(-a, a) init with a = sqrt(6 / (fan_in + fan_out)), float32.

    Each layer draws from its own stream keyed by (seed, layer id), so
    the values do not depend on enumeration order.
    """
    store: WeightStore = {}
    for layer in layers:
        if layer.kind not in netspec.LEARNABLE_KINDS:
            continue
        fan_in, fan_out = _fans(layer)
        bound = math.sqrt(6.0 / (fan_in + fan_out))
        gen = keyed_generator(derive_seed(seed, "init", layer.id))
        w = gen.uniform(-bound, bound, size=_weight_shape(layer)).astype(np.float32)
        b = np.zeros(_weight_shape(layer)[0], dtype=np.float32)
        store[layer.id] = {"weights": w, "bias": b}
    return store


def zero_weights(layers: Iterable[LayerSpec]) -> WeightStore:
    store: WeightStore = {}
    for layer in layers:
        if layer.kind not in netspec.LEARNABLE_KINDS:
            continue
        store[layer.id] = {
            "weights": np.zeros(_weight_shape(layer), dtype=np.float32),
            "bias": np.zeros(_weight_shape(layer)[0], dtype=np.float32),
        }
    return store


def slice_weights(
    store: WeightStore, old_layers: Iterable[LayerSpec], new_layers: Iterable[LayerSpec]
) -> WeightStore:
    """Adapt trained weights to a channel-scaled twin of the same network
    by keeping the leading channels/features of every tensor."""
    out: WeightStore = {}
    for old, new in zip(old_layers, new_layers):
        if old.id != new.id or old.kind != new.kind:
            raise ValueError(f"layer mismatch: {old.id!r}/{old.kind} vs {new.id!r}/{new.kind}")
        if new.kind not in netspec.LEARNABLE_KINDS:
            continue
        w = store[old.id]["weights"]
        b = store[old.id]["bias"]
        shape = _weight_shape(new)
        if new.kind == "dense":
            out[new.id] = {
                "weights": np.ascontiguousarray(w[: shape[0], : shape[1]]),
                "bias": np.ascontiguousarray(b[: shape[0]]),
            }
        else:
            out[new.id] = {
                "weights": np.ascontiguousarray(w[: shape[0], : shape[1], :, :]),
                "bias": np.ascontiguousarray(b[: shape[0]]),
            }
    return out


# --------------------------------------------------------------------------
# weights file format: JSON manifest plus little-endian float32 blob


_MANIFEST_KEYS = ("format", "version", "blob", "tensors")
_TENSOR_KEYS = ("layer_id", "tensor_name", "shape", "dtype", "offset", "length")


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
            tensors.append(
                {
                    "layer_id": layer_id,
                    "tensor_name": name,
                    "shape": list(arr.shape),
                    "dtype": "f32le",
                    "offset": offset,
                    "length": len(data),
                }
            )
            chunks.append(data)
            offset += len(data)
    manifest = {"format": "weights", "version": 1, "blob": blob_path.name, "tensors": tensors}
    write_json(manifest_path, manifest)
    blob_path.write_bytes(b"".join(chunks))


def load_weights(manifest_path: str | Path) -> WeightStore:
    """Read a manifest+blob pair back; rejects offset or length mismatches."""
    manifest_path = Path(manifest_path)
    manifest = fields(read_json(manifest_path), "manifest", _MANIFEST_KEYS, ("blob", "tensors"))
    blob = (manifest_path.parent / manifest["blob"]).read_bytes()
    store: WeightStore = {}
    expected_offset = 0
    for entry in manifest["tensors"]:
        entry = fields(entry, "manifest tensor", _TENSOR_KEYS, _TENSOR_KEYS)
        if entry["dtype"] != "f32le":
            raise ValueError(f"unsupported dtype {entry['dtype']!r}")
        shape = tuple(entry["shape"])
        length = int(entry["length"])
        offset = int(entry["offset"])
        if offset != expected_offset:
            raise ValueError(
                f"tensor {entry['layer_id']}/{entry['tensor_name']}: offset {offset} "
                f"does not continue the previous tensor at {expected_offset}"
            )
        if length != 4 * math.prod(shape):
            raise ValueError(
                f"tensor {entry['layer_id']}/{entry['tensor_name']}: length {length} "
                f"does not match shape {shape}"
            )
        if offset + length > len(blob):
            raise ValueError("manifest addresses bytes beyond the end of the blob")
        arr = np.frombuffer(blob[offset : offset + length], dtype="<f4").reshape(shape)
        store.setdefault(entry["layer_id"], {})[entry["tensor_name"]] = arr.astype(
            np.float32, copy=True
        )
        expected_offset = offset + length
    if expected_offset != len(blob):
        raise ValueError(
            f"blob holds {len(blob)} bytes but the manifest accounts for {expected_offset}"
        )
    return store
