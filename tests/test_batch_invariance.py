"""Batch invariance of the runtime executor and of the batched dropout
draws: a row's bits never depend on the rows it is batched with.

The reference is the single-sample layer code that ran one input at a
time before the executor took a batch axis, so these tests also pin the
arithmetic every stored prediction was made with.
"""

import numpy as np
import pytest

from mcexit import netspec, runtime
from mcexit.dropout import (
    RngStream,
    generate_masks,
    masksembles_forward,
    masksembles_forward_batch,
    mcd_forward,
    mcd_forward_batch,
    stream_key,
    stream_uniforms,
)
from mcexit.runtime import QFormat, quantize

BATCHES = (1, 3, 17)
QFORMATS = (None, QFormat(8, 3))


def reference_forward(layer, x, weights=None, qformat=None):
    """One layer on one sample, written without a batch axis."""
    kind, p = layer.kind, layer.params
    if kind in ("dense", "conv2d"):
        w, b = weights[layer.id]["weights"], weights[layer.id]["bias"]
        if qformat is not None:
            w, b = quantize(w, qformat), quantize(b, qformat)
    if kind == "dense":
        out = w @ x + b
    elif kind == "conv2d":
        if p["padding"]:
            pad = p["padding"]
            x = np.pad(x, ((0, 0), (pad, pad), (pad, pad)))
        cout, _, kh, kw = w.shape
        s = p["stride"]
        hout = (x.shape[1] - kh) // s + 1
        wout = (x.shape[2] - kw) // s + 1
        acc = np.zeros((cout, hout, wout), dtype=x.dtype)
        for i in range(kh):
            for j in range(kw):
                patch = x[:, i : i + s * hout : s, j : j + s * wout : s]
                acc += np.tensordot(w[:, :, i, j], patch, axes=(1, 0))
        out = acc + b[:, None, None]
    elif kind in ("max_pool", "avg_pool"):
        s = p["stride"]
        win = netspec._pool_window(layer, x.shape)
        if x.ndim == 1:
            n = (x.shape[0] - win[0]) // s + 1
            if s == win[0]:
                windows = x[np.arange(n)[:, None] * s + np.arange(win[0])[None, :]]
                reduce_axis = 1
            else:
                # windows that overlap or leave gaps: the tap slices stacked,
                # so their sum runs one tap after another in tap order
                windows = np.stack([x[t : t + s * n : s] for t in range(win[0])])
                reduce_axis = 0
        else:
            hout = (x.shape[1] - win[0]) // s + 1
            wout = (x.shape[2] - win[1]) // s + 1
            windows = np.stack(
                [
                    x[:, i : i + s * hout : s, j : j + s * wout : s]
                    for i in range(win[0])
                    for j in range(win[1])
                ]
            )
            reduce_axis = 0
        if kind == "max_pool":
            out = windows.max(axis=reduce_axis)
        else:
            out = windows.mean(axis=reduce_axis, dtype=x.dtype)
    elif kind == "relu":
        out = np.maximum(x, x.dtype.type(0))
    elif kind == "softmax":
        e = np.exp(x - x.max())
        return e / e.sum(dtype=x.dtype)
    elif kind == "flatten":
        out = x.reshape(-1)
    if qformat is not None:
        out = quantize(out, qformat)
    return out


def conv(cin, cout, k, stride=1, padding=0):
    kh, kw = (k, k) if isinstance(k, int) else k
    params = {
        "in_channels": cin,
        "out_channels": cout,
        "kernel_h": kh,
        "kernel_w": kw,
        "stride": stride,
        "padding": padding,
    }
    return {"id": "c", "kind": "conv2d", "params": params}


# (layer document, per-sample input shape)
LAYERS = [
    ({"id": "d", "kind": "dense", "params": {"in_features": 16, "out_features": 24}}, (16,)),
    ({"id": "d", "kind": "dense", "params": {"in_features": 512, "out_features": 64}}, (512,)),
    (conv(3, 4, 3, padding=1), (3, 8, 8)),
    (conv(2, 3, 3, stride=2), (2, 7, 6)),
    # the three conv stages of the benchmark's 3x32x32 net, large enough to
    # reach the larger sgemm paths of the BLAS
    (conv(3, 16, 3, padding=1), (3, 32, 32)),
    (conv(16, 32, 3, padding=1), (16, 16, 16)),
    (conv(32, 32, 3, padding=1), (32, 8, 8)),
    (conv(1, 4, 3), (1, 12, 12)),
    (conv(3, 5, (2, 3), padding=1), (3, 7, 9)),
    (conv(4, 6, 3, stride=2, padding=1), (4, 9, 7)),
    ({"id": "p", "kind": "max_pool", "params": {"window": 2}}, (12,)),
    ({"id": "p", "kind": "avg_pool", "params": {"window": 2}}, (24,)),
    ({"id": "p", "kind": "avg_pool", "params": {"window": 3, "stride": 1}}, (10,)),
    # windows that do not tile the input
    ({"id": "p", "kind": "max_pool", "params": {"window": 2}}, (13,)),
    ({"id": "p", "kind": "avg_pool", "params": {"window": 2}}, (13,)),
    # overlapping windows of 8 taps or more, which numpy sums pairwise over
    # one gathered row but one after another over a batch
    ({"id": "p", "kind": "avg_pool", "params": {"window": 9, "stride": 4}}, (64,)),
    ({"id": "p", "kind": "avg_pool", "params": {"window": 8, "stride": 3}}, (64,)),
    ({"id": "p", "kind": "max_pool", "params": {"window": 3, "stride": 2}}, (3, 8, 8)),
    ({"id": "p", "kind": "avg_pool", "params": {"window": 3, "stride": 2}}, (3, 8, 8)),
    ({"id": "p", "kind": "max_pool", "params": {"window": 2}}, (4, 8, 8)),
    ({"id": "p", "kind": "avg_pool", "params": {"window": 2}}, (4, 8, 8)),
    ({"id": "p", "kind": "max_pool", "params": {"window": "global"}}, (5, 6, 6)),
    ({"id": "p", "kind": "avg_pool", "params": {"window": "global"}}, (16, 16, 16)),
    # one output element per sample, the case numpy sums pairwise
    ({"id": "p", "kind": "avg_pool", "params": {"window": "global"}}, (1, 16, 16)),
    ({"id": "r", "kind": "relu"}, (3, 5, 5)),
    ({"id": "f", "kind": "flatten"}, (3, 4, 4)),
    ({"id": "s", "kind": "softmax"}, (10,)),
]
LAYER_IDS = [f"{d['kind']}-{'x'.join(map(str, s))}" for d, s in LAYERS]


@pytest.mark.parametrize("qformat", QFORMATS, ids=["float", "q8_3"])
@pytest.mark.parametrize("batch", BATCHES)
@pytest.mark.parametrize("doc,shape", LAYERS, ids=LAYER_IDS)
def test_batched_rows_equal_single_samples(doc, shape, batch, qformat):
    layer = netspec.parse_layer(doc)
    weights = runtime.init_weights([layer], seed=3)
    gen = np.random.Generator(np.random.Philox(key=batch))
    x = (2.0 * gen.standard_normal((batch, *shape))).astype(np.float32)
    out = runtime.forward_batch(layer, x, weights, qformat)
    for row, sample in zip(out, x):
        single = runtime.forward(layer, sample, weights, qformat)
        assert single.dtype == row.dtype == np.float32
        assert np.array_equal(row, single)
        assert np.array_equal(row, reference_forward(layer, sample, weights, qformat))


@pytest.mark.parametrize("doc,shape", LAYERS, ids=LAYER_IDS)
def test_signed_zeros_keep_their_bits(doc, shape):
    """Rows compared as bytes on inputs holding +0.0 and -0.0, so a
    reduction that starts from another value than the reference's shows."""
    layer = netspec.parse_layer(doc)
    weights = runtime.init_weights([layer], seed=3)
    gen = np.random.Generator(np.random.Philox(key=5))
    x = gen.standard_normal((4, *shape)).astype(np.float32)
    x[gen.random(x.shape) < 0.3] = -0.0
    x[gen.random(x.shape) < 0.1] = 0.0
    out = runtime.forward_batch(layer, x, weights)
    for row, sample in zip(out, x):
        assert row.tobytes() == reference_forward(layer, sample, weights).tobytes()


def test_flops_are_charged_per_row():
    layer = netspec.parse_layer(LAYERS[0][0])
    counter = runtime.FlopCounter()
    runtime.forward_batch(
        layer, np.ones((5, 16), np.float32), runtime.init_weights([layer], 0), flop_counter=counter
    )
    assert counter.total == 5 * netspec.flops_of(layer, (16,))


@pytest.mark.parametrize("doc,shape", LAYERS, ids=LAYER_IDS)
def test_empty_batch_keeps_the_sample_shape(doc, shape):
    layer = netspec.parse_layer(doc)
    x = np.zeros((0, *shape), np.float32)
    out = runtime.forward_batch(layer, x, runtime.init_weights([layer], 0))
    assert out.shape == (0, *netspec.output_shape(layer, shape))


class TestBatchedDraws:
    ROWS = [(seed, p) for seed in (0, 7, 2**63 + 5) for p in range(3)]

    @pytest.mark.parametrize("shape", [(12,), (4, 1, 1), (2, 3, 5)])
    def test_uniforms_match_rng_streams(self, shape):
        keys = [stream_key(seed, p, "exit1/drop0") for seed, p in self.ROWS]
        u = stream_uniforms(keys, shape)
        for row, (seed, p) in zip(u, self.ROWS):
            assert np.array_equal(row, RngStream(seed, p, "exit1/drop0").uniform(shape))

    @pytest.mark.parametrize("inverted", [False, True])
    @pytest.mark.parametrize("granularity", ["element", "channel"])
    @pytest.mark.parametrize("shape", [(12,), (4, 3, 3)])
    def test_mcd_rows_match_single_draws(self, shape, granularity, inverted):
        gen = np.random.Generator(np.random.Philox(key=1))
        x = gen.standard_normal((len(self.ROWS), *shape)).astype(np.float32)
        keys = [stream_key(seed, p, "site") for seed, p in self.ROWS]
        out = mcd_forward_batch(x, 0.5, granularity, keys, inverted)
        for row, sample, (seed, p) in zip(out, x, self.ROWS):
            stream = RngStream(seed, p, "site")
            expected = mcd_forward(sample, 0.5, granularity, stream, inverted)
            assert row.dtype == expected.dtype
            assert np.array_equal(row, expected)

    def test_mcd_needs_one_key_per_row(self):
        with pytest.raises(ValueError, match="keys"):
            mcd_forward_batch(np.ones((3, 4), np.float32), 0.5, "element", [1, 2])

    @pytest.mark.parametrize("shape", [(12,), (12, 2, 2)])
    def test_masksembles_rows_match_single_masks(self, shape):
        table = generate_masks(12, 4, 2.0)
        passes = [0, 3, 1, 1, 2]
        x = np.arange(len(passes) * np.prod(shape), dtype=np.float32).reshape(len(passes), *shape)
        out = masksembles_forward_batch(x, passes, table)
        for row, sample, p in zip(out, x, passes):
            assert np.array_equal(row, masksembles_forward(sample, p, table))

    def test_masksembles_rejects_a_bad_index(self):
        table = generate_masks(4, 2, 1.0)
        with pytest.raises(ValueError, match="mask_index 2 out of range"):
            masksembles_forward_batch(np.ones((2, 4), np.float32), [0, 2], table)
