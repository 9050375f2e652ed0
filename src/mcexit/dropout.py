"""Stochastic layers used at the exits: Monte-Carlo dropout and fixed
pre-generated binary masks, plus the counter-based random streams that
make sampling order-independent and reproducible.

Each (seed, pass, site) triple owns a Philox stream keyed by stream_key,
the blake2b-128 digest of "seed|pass|site". A Monte-Carlo call hashes
each input seed's "seed|" prefix once (stream_prefixes), a site keeps
its "pass|site" suffixes (stream_suffixes), and site_uniforms fills all
of a site's rows in one loop: per row it finishes the key on a copy of
the prefix and re-keys the calling thread's one Philox generator.
"""

from __future__ import annotations

import functools
import hashlib
import struct
import threading
from dataclasses import dataclass
from typing import Any, Sequence

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
            if not 1.0 <= self.scale < np.inf:
                raise ValueError(f"scale must be finite and >= 1, got {self.scale}")
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


def stream_key(seed: int, sample_index: int, layer_id: str) -> int:
    """The 128-bit Philox key of the stream (seed, sample_index, layer_id):
    blake2b-128 of "seed|sample_index|layer_id", read little-endian."""
    digest = hashlib.blake2b(
        f"{int(seed)}|{int(sample_index)}|{layer_id}".encode(), digest_size=16
    ).digest()
    return int.from_bytes(digest, "little")


def stream_prefixes(seeds: Sequence[int]) -> list[Any]:
    """Each seed's blake2b-128 state after "seed|", the start of stream_key's
    input that all the seed's streams share: a copy of it that goes on to
    read a stream_suffixes text digests to that stream's key."""
    return [hashlib.blake2b(f"{int(seed)}|".encode(), digest_size=16) for seed in seeds]


def stream_suffixes(n_pass: int, layer_id: str) -> tuple[bytes, ...]:
    """The rest of stream_key's input, "pass|layer_id", for passes 0..n_pass-1."""
    return tuple(f"{p}|{layer_id}".encode() for p in range(n_pass))


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
_KEY_WORDS = struct.Struct("<QQ")  # a 16-byte stream_key digest as Philox's two key words


def _philox() -> tuple[np.random.Philox, np.random.Generator, dict[str, Any]]:
    """This thread's Philox bit generator, a Generator on it and the state
    that re-keys it, built on the thread's first draw.

    One Philox generator per thread is re-keyed through the public state
    setter. That skips the OS-entropy SeedSequence every new Philox draws
    (13-16 us each), and no generator state is shared across threads. The
    state is a fresh Philox's, held in plain lists and tuples, which the
    setter reads faster than arrays: counter and buffer at zero, the buffer
    empty (buffer_pos 4) and no uint32 half left over. Only the two key
    words, state["state"]["key"], change between streams.
    """
    try:
        return _THREAD.philox
    except AttributeError:
        pass
    bitgen = np.random.Philox(key=0)
    fresh = {
        "bit_generator": "Philox",
        "state": {"counter": [0] * 4, "key": (0, 0)},
        "buffer": [0] * 4,
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    _THREAD.philox = bitgen, np.random.Generator(bitgen), fresh
    return _THREAD.philox


def keyed_generator(key: int) -> np.random.Generator:
    """This thread's generator at the start of the stream with Philox key
    `key`: the bits of np.random.Generator(np.random.Philox(key=key)). It
    is valid until the thread's next draw through this module."""
    bitgen, gen, fresh = _philox()
    fresh["state"]["key"] = (key & _WORD, key >> 64)
    bitgen.state = fresh
    return gen


def site_uniforms(
    prefixes: Sequence[Any], suffixes: Sequence[bytes], shape: tuple[int, ...]
) -> np.ndarray:
    """One dropout site's uniforms, rows input-major: row i * len(suffixes)
    + p holds the first uniforms of the stream keyed by the digest of
    prefixes[i] after it reads suffixes[p], which for stream_prefixes(seeds)
    and stream_suffixes(n_pass, layer_id) is RngStream(seeds[i], p,
    layer_id). One loop derives each key and re-keys the thread's
    generator in place, with no Python call per row."""
    bitgen, gen, fresh = _philox()
    state, random, words = fresh["state"], gen.random, _KEY_WORDS.unpack
    out = np.empty((len(prefixes) * len(suffixes), *shape))
    rows = iter(out)
    for prefix in prefixes:
        for suffix in suffixes:
            h = prefix.copy()
            h.update(suffix)
            state["key"] = words(h.digest())
            bitgen.state = fresh
            random(out=next(rows))
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


def mcd_passes(
    x: np.ndarray,
    keep_rate: float,
    granularity: str,
    prefixes: Sequence[Any],
    suffixes: Sequence[bytes],
    inverted: bool = False,
) -> np.ndarray:
    """mcd_forward of input-major rows, row i * len(suffixes) + p drawn
    from the stream that site_uniforms gives it."""
    u = site_uniforms(prefixes, suffixes, _draw_shape(x.shape[1:], granularity))
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
    index = int(mask_index)
    if not 0 <= index < masks.num_masks:
        raise ValueError(f"mask_index {index} out of range for {masks.num_masks} masks")
    x = np.asarray(x)
    if x.ndim not in (1, 3):
        raise ValueError(f"masksembles expects rank-1 or rank-3 input, got rank {x.ndim}")
    if x.shape[0] != masks.feature_count:
        axis = "channel" if x.ndim == 3 else "feature"
        raise ValueError(
            f"mask width {masks.feature_count} does not match {axis} count {x.shape[0]}"
        )
    mask = masks.masks[index]
    return (x * (mask[:, None, None] if x.ndim == 3 else mask)).astype(x.dtype, copy=False)


def masksembles_passes(x: np.ndarray, n_pass: int, masks: MaskSet) -> np.ndarray:
    """masksembles_forward of input-major rows, row i * n_pass + p taking
    mask p (p < masks.num_masks), as one broadcast multiply."""
    rows = masks.masks[:n_pass].reshape(n_pass, -1, *(1,) * (x.ndim - 2))
    out = x.reshape(len(x) // n_pass, n_pass, *x.shape[1:]) * rows
    return out.astype(x.dtype, copy=False).reshape(x.shape)
