"""Stochastic layers used at the exits: Monte-Carlo dropout and fixed
pre-generated binary masks, plus the counter-based random streams that
make sampling order-independent and reproducible.
"""

from __future__ import annotations

import functools
import hashlib
import json
import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

import numpy as np

from .documents import field_names, fields

DROPOUT_KINDS = ("mcd", "masksembles")
GRANULARITIES = ("element", "channel")


def derive_seed(seed: int, *parts: Any) -> int:
    """Mix a base seed with arbitrary labels into a stable 64-bit seed.

    Uses blake2b so the derivation is identical across platforms and
    process restarts (unlike the builtin salted hash()).
    """
    h = hashlib.blake2b(digest_size=8)
    h.update(str(int(seed)).encode())
    for part in parts:
        h.update(b"|")
        h.update(str(part).encode())
    return int.from_bytes(h.digest(), "little")


@dataclass(frozen=True)
class DropoutConfig:
    """Configuration for the stochastic exit layers.

    kind "mcd" draws a fresh Bernoulli mask per pass and scales the
    survivors by keep_rate (set inverted=True for 1/keep_rate scaling).
    kind "masksembles" indexes into a fixed deterministic mask table,
    one mask per pass.
    """

    kind: str
    keep_rate: float | None = None
    granularity: str | None = None
    num_masks: int | None = None
    scale: float | None = None
    seed: int = 0
    inverted: bool = False

    def __post_init__(self) -> None:
        if self.kind not in DROPOUT_KINDS:
            raise ValueError(f"unknown dropout kind {self.kind!r}")
        if self.kind == "mcd":
            if self.keep_rate is None:
                raise ValueError("mcd config requires keep_rate")
            if not 0.0 < self.keep_rate <= 1.0:
                raise ValueError(f"keep_rate must be in (0, 1], got {self.keep_rate}")
            if self.granularity is None:
                object.__setattr__(self, "granularity", "channel")
            if self.granularity not in GRANULARITIES:
                raise ValueError(f"unknown granularity {self.granularity!r}")
            if self.num_masks is not None or self.scale is not None:
                raise ValueError("num_masks/scale are masksembles fields, not mcd")
        else:
            if self.num_masks is None or self.scale is None:
                raise ValueError("masksembles config requires num_masks and scale")
            if self.num_masks < 1:
                raise ValueError(f"num_masks must be >= 1, got {self.num_masks}")
            if self.scale < 1.0:
                raise ValueError(f"scale must be >= 1, got {self.scale}")
            if self.keep_rate is not None or self.granularity is not None:
                raise ValueError("keep_rate/granularity are mcd fields, not masksembles")
            if self.inverted:
                raise ValueError("inverted scaling only applies to mcd")

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {"kind": self.kind, "seed": self.seed}
        if self.kind == "mcd":
            out.update(
                keep_rate=self.keep_rate,
                granularity=self.granularity,
                inverted=self.inverted,
            )
        else:
            out.update(num_masks=self.num_masks, scale=self.scale)
        return out

    @classmethod
    def from_dict(cls, doc: Any) -> "DropoutConfig":
        return cls(**fields(doc, "dropout config", field_names(cls), ("kind",)))


def config_digest(cfg: DropoutConfig) -> str:
    """Stable hex digest of a dropout configuration, for provenance fields."""
    blob = json.dumps(cfg.to_dict(), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def stream_key(seed: int, sample_index: int, layer_id: str) -> int:
    """The 128-bit Philox key of the stream (seed, sample_index, layer_id):
    blake2b-128 of "seed|sample_index|layer_id", read little-endian."""
    digest = hashlib.blake2b(
        f"{int(seed)}|{int(sample_index)}|{layer_id}".encode(), digest_size=16
    ).digest()
    return int.from_bytes(digest, "little")


def stream_keys(seeds: Sequence[int], passes: Sequence[int], layer_id: str) -> list[int]:
    """stream_key(seeds[r], passes[r], layer_id) for every row r.

    blake2b reads its input as a stream, so each distinct seed's "seed|"
    prefix is hashed once and that state copied for every row, and each
    distinct "pass|layer_id" suffix is encoded once.
    """
    if len(seeds) != len(passes):
        raise ValueError(f"{len(seeds)} seeds for {len(passes)} passes")
    heads: dict[Any, Any] = {}
    tails: dict[Any, bytes] = {}
    keys = []
    for seed, sample_index in zip(seeds, passes):
        head = heads.get(seed)
        if head is None:
            head = heads[seed] = hashlib.blake2b(f"{int(seed)}|".encode(), digest_size=16)
        tail = tails.get(sample_index)
        if tail is None:
            tail = tails[sample_index] = f"{int(sample_index)}|{layer_id}".encode()
        h = head.copy()
        h.update(tail)
        keys.append(int.from_bytes(h.digest(), "little"))
    return keys


class RngStream:
    """Counter-based uniform stream keyed by (seed, sample_index, layer_id).

    Each (seed, sample_index, layer_id) triple owns an independent Philox
    stream, so draws for one sample/layer never depend on whether other
    samples were drawn first or in what order. Uniforms take the 53 high
    bits of the generator output into [0, 1).
    """

    def __init__(self, seed: int, sample_index: int, layer_id: str) -> None:
        self.seed = int(seed)
        self.sample_index = int(sample_index)
        self.layer_id = str(layer_id)
        self.counter = 0
        key = stream_key(self.seed, self.sample_index, self.layer_id)
        self._gen = np.random.Generator(np.random.Philox(key=key))

    def uniform(self, shape: tuple[int, ...] | int) -> np.ndarray:
        u = self._gen.random(shape)
        self.counter += int(u.size)
        return u

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RngStream(seed={self.seed}, sample_index={self.sample_index}, "
            f"layer_id={self.layer_id!r}, counter={self.counter})"
        )


_WORD = (1 << 64) - 1


_THREAD = threading.local()


def _rekeyer() -> Callable[[int], np.random.Generator]:
    """This thread's re-keying function, built on the thread's first draw.

    One Philox generator per thread is re-keyed through the public state
    setter. That skips the OS-entropy SeedSequence every new Philox draws
    (13-16 us each), and no generator state is shared across threads. The
    state is a fresh Philox's, held in plain lists, which the setter reads
    faster than arrays: counter and buffer at zero, the buffer empty
    (buffer_pos 4) and no uint32 half left over. Only the two key words
    change between streams.
    """
    try:
        return _THREAD.rekey
    except AttributeError:
        pass
    bitgen = np.random.Philox(key=0)
    gen = np.random.Generator(bitgen)
    words = [0, 0]
    fresh = {
        "bit_generator": "Philox",
        "state": {"counter": [0] * 4, "key": words},
        "buffer": [0] * 4,
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }

    def rekey(key: int) -> np.random.Generator:
        words[0], words[1] = key & _WORD, key >> 64
        bitgen.state = fresh
        return gen

    _THREAD.rekey = rekey
    return rekey


def keyed_generator(key: int) -> np.random.Generator:
    """This thread's generator at the start of the stream with Philox key
    `key`: the bits of np.random.Generator(np.random.Philox(key=key)). It
    is valid until the thread's next keyed_generator or stream_uniforms
    call."""
    return _rekeyer()(key)


def stream_uniforms(keys: Sequence[int], shape: tuple[int, ...]) -> np.ndarray:
    """Row r holds the first uniforms of the stream with Philox key
    keys[r], bit for bit what RngStream(...).uniform(shape) returns for
    the triple that stream_key maps to keys[r]. Every row re-keys the
    thread's one generator (see keyed_generator)."""
    rekey = _rekeyer()
    out = np.empty((len(keys), *shape))
    for row, key in zip(out, keys):
        rekey(key).random(out=row)
    return out


def _draw_shape(shape: tuple[int, ...], granularity: str) -> tuple[int, ...]:
    """Uniforms one sample of the given shape needs: one per element, or
    one per leading-axis channel of a rank-3 tensor."""
    if granularity == "channel" and len(shape) == 3:
        return (shape[0], 1, 1)
    return shape


def _check_mcd(keep_rate: float, granularity: str) -> None:
    if not 0.0 < keep_rate <= 1.0:
        raise ValueError(f"keep_rate must be in (0, 1], got {keep_rate}")
    if granularity not in GRANULARITIES:
        raise ValueError(f"unknown granularity {granularity!r}")


def _drop(x: np.ndarray, u: np.ndarray, keep_rate: float, inverted: bool) -> np.ndarray:
    scale = (1.0 / keep_rate) if inverted else keep_rate
    out = np.where(u > keep_rate, x.dtype.type(0), x * scale)
    return out.astype(x.dtype, copy=False)


def mcd_forward(
    x: np.ndarray,
    keep_rate: float,
    granularity: str,
    rng: RngStream,
    inverted: bool = False,
) -> np.ndarray:
    """One Monte-Carlo dropout realization.

    Elements whose uniform draw exceeds keep_rate are zeroed; survivors
    are multiplied by keep_rate (or 1/keep_rate when inverted). Channel
    granularity draws one uniform per leading-axis channel of a rank-3
    tensor so a whole feature map survives or dies together; on rank-1
    tensors it coincides with element granularity.
    """
    _check_mcd(keep_rate, granularity)
    x = np.asarray(x)
    return _drop(x, rng.uniform(_draw_shape(x.shape, granularity)), keep_rate, inverted)


def mcd_forward_batch(
    x: np.ndarray,
    keep_rate: float,
    granularity: str,
    keys: Sequence[int],
    inverted: bool = False,
) -> np.ndarray:
    """Monte-Carlo dropout on a batch: row r is mcd_forward of x[r] with a
    fresh stream whose stream_key is keys[r]."""
    _check_mcd(keep_rate, granularity)
    x = np.asarray(x)
    if len(keys) != len(x):
        raise ValueError(f"{len(keys)} stream keys for {len(x)} rows")
    u = stream_uniforms(keys, _draw_shape(x.shape[1:], granularity))
    return _drop(x, u, keep_rate, inverted)


@dataclass(frozen=True, eq=False)
class MaskSet:
    """A fixed table of binary masks; row index selects the ensemble member."""

    masks: np.ndarray
    feature_count: int
    scale: float

    def __post_init__(self) -> None:
        m = np.asarray(self.masks, dtype=np.uint8)
        if m.ndim != 2:
            raise ValueError("masks must be a 2-d table")
        if m.shape[1] != self.feature_count:
            raise ValueError("mask width must equal feature_count")
        if not np.all((m == 0) | (m == 1)):
            raise ValueError("masks must be binary")
        if np.any(m.sum(axis=1) < 1):
            raise ValueError("every mask needs at least one surviving feature")
        m.flags.writeable = False
        object.__setattr__(self, "masks", m)

    @property
    def num_masks(self) -> int:
        return int(self.masks.shape[0])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MaskSet):
            return NotImplemented
        return (
            self.feature_count == other.feature_count
            and self.scale == other.scale
            and np.array_equal(self.masks, other.masks)
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "feature_count": self.feature_count,
            "num_masks": self.num_masks,
            "scale": self.scale,
            "masks": self.masks.tolist(),
        }

    @classmethod
    def from_dict(cls, doc: Any) -> "MaskSet":
        allowed = ("feature_count", "num_masks", "scale", "masks")
        doc = fields(doc, "mask set", allowed, ("feature_count", "scale", "masks"))
        masks = np.asarray(doc["masks"], dtype=np.uint8)
        if "num_masks" in doc and int(doc["num_masks"]) != masks.shape[0]:
            raise ValueError("num_masks disagrees with mask table height")
        return cls(masks=masks, feature_count=int(doc["feature_count"]), scale=float(doc["scale"]))


def generate_masks(feature_count: int, num_masks: int, scale: float) -> MaskSet:
    """Build the deterministic overlapping-window mask table.

    Every mask keeps k = min(F, round(scale * F / N)) features; mask i is
    the cyclic contiguous window of length k starting at offset
    round(i * F / N). The construction needs no seed, gives every mask an
    equal population count, and overlaps grow with scale until scale >= N
    saturates all masks to all-ones. Tables are built once per
    (feature_count, num_masks, scale) and shared: a MaskSet is frozen and
    its table read-only.
    """
    if feature_count < 1 or num_masks < 1:
        raise ValueError("feature_count and num_masks must be >= 1")
    if feature_count < num_masks:
        raise ValueError(
            f"feature_count {feature_count} smaller than num_masks {num_masks}"
        )
    if scale < 1.0:
        raise ValueError(f"scale must be >= 1, got {scale}")
    return _mask_table(int(feature_count), int(num_masks), float(scale))


@functools.lru_cache(maxsize=256)
def _mask_table(f: int, n: int, scale: float) -> MaskSet:
    k = min(f, int(round(scale * f / n)))
    table = np.zeros((n, f), dtype=np.uint8)
    for i in range(n):
        start = int(round(i * f / n))
        idx = (start + np.arange(k)) % f
        table[i, idx] = 1
    return MaskSet(masks=table, feature_count=f, scale=scale)


def masksembles_forward(x: np.ndarray, mask_index: int, masks: MaskSet) -> np.ndarray:
    """Apply one fixed mask: survivors pass through unscaled, the rest are zero.

    Rank-3 inputs are masked per channel (the mask broadcasts over the
    spatial axes); rank-1 inputs are masked per element.
    """
    return masksembles_forward_batch(np.asarray(x)[None], [mask_index], masks)[0]


def masksembles_forward_batch(
    x: np.ndarray, mask_indices: Sequence[int], masks: MaskSet
) -> np.ndarray:
    """masksembles_forward on a batch: row r gets mask mask_indices[r]."""
    idx = np.asarray(mask_indices, dtype=np.int64)
    bad = idx[(idx < 0) | (idx >= masks.num_masks)]
    if bad.size:
        raise ValueError(
            f"mask_index {int(bad[0])} out of range for {masks.num_masks} masks"
        )
    x = np.asarray(x)
    if len(idx) != len(x):
        raise ValueError(f"{len(idx)} mask indices for {len(x)} rows")
    rows = masks.masks[idx]
    if x.ndim == 4:
        if x.shape[1] != masks.feature_count:
            raise ValueError(
                f"mask width {masks.feature_count} does not match channel count {x.shape[1]}"
            )
        mult = rows[:, :, None, None]
    elif x.ndim == 2:
        if x.shape[1] != masks.feature_count:
            raise ValueError(
                f"mask width {masks.feature_count} does not match feature count {x.shape[1]}"
            )
        mult = rows
    else:
        raise ValueError(f"masksembles expects rank-1 or rank-3 input, got rank {x.ndim - 1}")
    return (x * mult).astype(x.dtype, copy=False)


def masksembles_passes(x: np.ndarray, n_pass: int, masks: MaskSet) -> np.ndarray:
    """masksembles_forward_batch of input-major rows, row i * n_pass + p
    taking mask p (p < masks.num_masks), as one broadcast multiply."""
    rows = masks.masks[:n_pass].reshape(n_pass, -1, *(1,) * (x.ndim - 2))
    out = x.reshape(len(x) // n_pass, n_pass, *x.shape[1:]) * rows
    return out.astype(x.dtype, copy=False).reshape(x.shape)
