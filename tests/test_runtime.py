import dataclasses
import gc
import json
import os
import subprocess
import sys
import textwrap
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import build_mcd_spec, rng
from mcexit import netspec, runtime, train
from mcexit.runtime import FlopCounter, QFormat, quantize


def layer(doc):
    return netspec.parse_layer(doc)


def reference_quantize(x, q):
    """A frozen copy of the quantizer as it was before it worked in place:
    divide by the step, round, np.clip (or wrap) and multiply back, each
    step making a new array."""
    arr = np.asarray(x, dtype=np.float64 if not isinstance(x, np.ndarray) else None)
    scalar = arr.ndim == 0
    step = arr.dtype.type(q.step)
    codes = arr / step
    if q.mode == "round_to_nearest_even":
        codes = np.rint(codes)
    else:
        codes = np.floor(codes)
    lo, hi = -(2 ** (q.total_bits - 1)), 2 ** (q.total_bits - 1) - 1
    if q.saturating:
        codes = np.clip(codes, lo, hi)
    else:
        codes = np.mod(codes - lo, 2**q.total_bits) + lo
    out = np.asarray(codes * step, dtype=arr.dtype)
    return out.item() if scalar else out


@st.composite
def qformats(draw):
    bits = draw(st.sampled_from(runtime.ALLOWED_TOTAL_BITS))
    return QFormat(
        bits,
        draw(st.integers(1, bits)),
        mode=draw(st.sampled_from(runtime.QUANT_MODES)),
        saturating=draw(st.booleans()),
    )


SPECIAL_VALUES = [0.0, -0.0, 5e-324, -5e-324, 1e-45, -1e-45, 1e-40, -1e-40, 1e-310,
                  np.inf, -np.inf, np.nan, 1e30, -1e30, 3e38, -3e38, 1e300, -1e300]


@st.composite
def quantizer_inputs(draw):
    """float32 or float64 arrays of any rank up to 3, 0-d included, whose
    values mix signed zeros, subnormals, infinities, NaN and magnitudes far
    outside every format's range with ordinary floats."""
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    width = 32 if dtype is np.float32 else 64
    values = st.one_of(
        st.sampled_from(SPECIAL_VALUES),
        st.floats(width=width),
        st.floats(-300, 300, width=width),
    )
    shape = draw(hnp.array_shapes(min_dims=0, max_dims=3, max_side=5))
    with np.errstate(over="ignore"):  # 1e300 and 3e38 overflow float32 to inf
        return draw(hnp.arrays(dtype, shape, elements=values.map(dtype)))


class TestQuantize:
    def test_frozen_example_q8_1(self):
        # 7 fractional bits: round(0.3 * 128) = 38, 38/128 = 0.296875
        assert quantize(0.3, QFormat(8, 1)) == 0.296875

    def test_frozen_example_saturation_q4_4(self):
        # integer-only 4-bit signed format tops out at 7
        assert quantize(100.0, QFormat(4, 4)) == 7.0

    def test_negative_saturation(self):
        assert quantize(-100.0, QFormat(4, 4)) == -8.0

    def test_round_half_to_even(self):
        q = QFormat(8, 8)  # step 1.0
        assert quantize(0.5, q) == 0.0
        assert quantize(1.5, q) == 2.0
        assert quantize(2.5, q) == 2.0

    def test_truncate_floors(self):
        q = QFormat(8, 8, mode="truncate")
        assert quantize(1.9, q) == 1.0
        assert quantize(-0.1, q) == -1.0

    def test_wraparound(self):
        q = QFormat(4, 4, saturating=False)
        # code 8 wraps to -8 in 4-bit two's complement
        assert quantize(8.0, q) == -8.0
        assert quantize(9.0, q) == -7.0

    def test_scalar_in_scalar_out(self):
        out = quantize(0.3, QFormat(8, 1))
        assert isinstance(out, float)

    def test_array_preserves_f32(self):
        x = np.array([0.3, -0.7], dtype=np.float32)
        out = quantize(x, QFormat(8, 1))
        assert out.dtype == np.float32

    def test_softmax_range_survives_8_1(self):
        probs = np.array([0.1, 0.2, 0.7], dtype=np.float32)
        out = quantize(probs, QFormat(8, 1))
        assert np.all(np.abs(out - probs) <= 2 ** -7)

    @given(st.floats(-1000, 1000, allow_nan=False))
    @settings(max_examples=200, deadline=None)
    def test_idempotent(self, v):
        for q in (QFormat(8, 3), QFormat(4, 2, mode="truncate"), QFormat(16, 5)):
            once = quantize(v, q)
            assert quantize(once, q) == once

    @given(st.floats(-3.9, 3.9, allow_nan=False))
    @settings(max_examples=200, deadline=None)
    def test_rne_error_bound_inside_range(self, v):
        q = QFormat(8, 3)  # representable range covers [-4, 3.96875]
        assert abs(quantize(v, q) - v) <= q.step / 2

    @given(quantizer_inputs(), qformats())
    @settings(max_examples=200, deadline=None)
    def test_bits_equal_the_frozen_reference(self, x, q):
        before = x.copy()
        with np.errstate(all="ignore"):
            out = quantize(x, q)
            ref = reference_quantize(x, q)
        assert x.tobytes() == before.tobytes()  # the input is never written to
        if x.ndim == 0:  # a 0-d array comes back as a Python float
            assert type(out) is type(ref) is float
            out, ref = np.float64(out), np.float64(ref)
        else:
            assert out.dtype == ref.dtype == x.dtype and out.shape == ref.shape
        uint = np.uint32 if out.dtype == np.float32 else np.uint64
        assert np.array_equal(out.view(uint), ref.view(uint))

    @given(st.one_of(st.sampled_from(SPECIAL_VALUES), st.floats()), qformats())
    @settings(max_examples=200, deadline=None)
    def test_python_scalars_equal_the_frozen_reference(self, v, q):
        with np.errstate(all="ignore"):
            out, ref = quantize(v, q), reference_quantize(v, q)
        assert type(out) is float
        assert np.float64(out).view(np.uint64) == np.float64(ref).view(np.uint64)

    def test_integer_arrays_quantize_as_float64(self):
        q = QFormat(8, 3)
        out = quantize(np.array([1, -2, 9]), q)
        assert out.dtype == np.float64
        assert out.tolist() == [1.0, -2.0, q.max_value]

    def test_invalid_formats(self):
        with pytest.raises(ValueError):
            QFormat(5, 2)
        with pytest.raises(ValueError):
            QFormat(8, 0)
        with pytest.raises(ValueError):
            QFormat(8, 9)
        with pytest.raises(ValueError):
            QFormat(8, 3, mode="stochastic")


class TestConv2d:
    def test_1x1_hand_multiply(self):
        conv = layer(
            {
                "id": "c",
                "kind": "conv2d",
                "params": {
                    "in_channels": 1,
                    "out_channels": 1,
                    "kernel_h": 1,
                    "kernel_w": 1,
                },
            }
        )
        x = np.array([[[1.0, 2.0], [3.0, 4.0]]], dtype=np.float32)
        weights = {
            "c": {
                "weights": np.full((1, 1, 1, 1), 3.0, dtype=np.float32),
                "bias": np.zeros(1, dtype=np.float32),
            }
        }
        out = runtime.forward(conv, x, weights)
        np.testing.assert_array_equal(out, np.array([[[3.0, 6.0], [9.0, 12.0]]], np.float32))

    def test_matches_brute_force_loops(self):
        rng = np.random.Generator(np.random.Philox(key=11))
        cin, cout, kh, kw, h, w = 3, 4, 3, 2, 6, 5
        stride, padding = 2, 1
        conv = layer(
            {
                "id": "c",
                "kind": "conv2d",
                "params": {
                    "in_channels": cin,
                    "out_channels": cout,
                    "kernel_h": kh,
                    "kernel_w": kw,
                    "stride": stride,
                    "padding": padding,
                },
            }
        )
        x = rng.normal(size=(cin, h, w)).astype(np.float32)
        weight = rng.normal(size=(cout, cin, kh, kw)).astype(np.float32)
        bias = rng.normal(size=cout).astype(np.float32)
        out = runtime.forward(conv, x, {"c": {"weights": weight, "bias": bias}})

        padded = np.zeros((cin, h + 2 * padding, w + 2 * padding), dtype=np.float64)
        padded[:, padding : padding + h, padding : padding + w] = x
        hout = (h + 2 * padding - kh) // stride + 1
        wout = (w + 2 * padding - kw) // stride + 1
        expected = np.zeros((cout, hout, wout))
        for co in range(cout):
            for i in range(hout):
                for j in range(wout):
                    patch = padded[:, i * stride : i * stride + kh, j * stride : j * stride + kw]
                    expected[co, i, j] = (patch * weight[co]).sum() + bias[co]
        np.testing.assert_allclose(out, expected.astype(np.float32), rtol=1e-5, atol=1e-5)


class TestPoolingAndShape:
    def test_max_pool_rank1(self):
        pool = layer({"id": "p", "kind": "max_pool", "params": {"window": 2}})
        out = runtime.forward(pool, np.array([1.0, 5.0, 2.0, 3.0], dtype=np.float32))
        np.testing.assert_array_equal(out, np.array([5.0, 3.0], np.float32))

    def test_avg_pool_rank3(self):
        pool = layer({"id": "p", "kind": "avg_pool", "params": {"window": 2}})
        x = np.arange(16, dtype=np.float32).reshape(1, 4, 4)
        out = runtime.forward(pool, x)
        np.testing.assert_array_equal(out, np.array([[[2.5, 4.5], [10.5, 12.5]]], np.float32))

    def test_global_pool(self):
        pool = layer({"id": "p", "kind": "avg_pool", "params": {"window": "global"}})
        x = np.arange(8, dtype=np.float32).reshape(2, 2, 2)
        out = runtime.forward(pool, x)
        np.testing.assert_array_equal(out, np.array([[[1.5]], [[5.5]]], np.float32))

    def test_shape_mismatch_names_layer(self):
        dense = layer(
            {"id": "fc7", "kind": "dense", "params": {"in_features": 4, "out_features": 2}}
        )
        with pytest.raises(netspec.ShapeMismatchError, match="fc7"):
            runtime.forward(dense, np.ones(5, dtype=np.float32), runtime.init_weights([dense], 0))

    def test_weight_shape_validated(self):
        dense = layer(
            {"id": "fc", "kind": "dense", "params": {"in_features": 4, "out_features": 2}}
        )
        bad = {"fc": {"weights": np.zeros((3, 4), np.float32), "bias": np.zeros(2, np.float32)}}
        with pytest.raises(ValueError, match="fc"):
            runtime.forward(dense, np.ones(4, dtype=np.float32), bad)


class TestFlopCounting:
    def test_dense_3_to_4_counts_24(self):
        dense = layer(
            {"id": "fc", "kind": "dense", "params": {"in_features": 3, "out_features": 4}}
        )
        counter = FlopCounter()
        runtime.forward(dense, np.ones(3, np.float32), runtime.init_weights([dense], 0), flop_counter=counter)
        assert counter.total == 24

    def test_1x1_conv_counts_48(self):
        conv = layer(
            {
                "id": "c",
                "kind": "conv2d",
                "params": {"in_channels": 2, "out_channels": 3, "kernel_h": 1, "kernel_w": 1},
            }
        )
        counter = FlopCounter()
        runtime.forward(
            conv, np.ones((2, 2, 2), np.float32), runtime.init_weights([conv], 0), flop_counter=counter
        )
        assert counter.total == 48

    def test_relu_and_pool_are_free(self):
        counter = FlopCounter()
        runtime.forward(layer({"id": "r", "kind": "relu"}), np.ones(4, np.float32), flop_counter=counter)
        runtime.forward(
            layer({"id": "p", "kind": "max_pool", "params": {"window": 2}}),
            np.ones(4, np.float32),
            flop_counter=counter,
        )
        assert counter.total == 0


class TestQuantizedForward:
    def test_softmax_output_not_quantized(self):
        sm = layer({"id": "sm", "kind": "softmax"})
        x = np.array([0.31, 0.41, 0.59], dtype=np.float32)
        out = runtime.forward(sm, x, qformat=QFormat(4, 2))
        assert out.sum() == pytest.approx(1.0, abs=1e-6)

    def test_activation_quantized_after_layer(self):
        relu = layer({"id": "r", "kind": "relu"})
        q = QFormat(8, 1)
        out = runtime.forward(relu, np.array([0.3], dtype=np.float32), qformat=q)
        assert out[0] == np.float32(0.296875)

    def test_weights_quantized_before_use(self):
        dense = layer(
            {"id": "fc", "kind": "dense", "params": {"in_features": 1, "out_features": 1}}
        )
        weights = {
            "fc": {"weights": np.array([[0.3]], np.float32), "bias": np.zeros(1, np.float32)}
        }
        out = runtime.forward(dense, np.ones(1, np.float32), weights, qformat=QFormat(8, 1))
        # 0.3 snaps to 0.296875 before the multiply
        assert out[0] == np.float32(0.296875)


class TestWeightStore:
    def test_init_deterministic_and_bounded(self):
        net = netspec.parse_network(
            {
                "input_shape": [6],
                "layers": [
                    {
                        "id": "fc",
                        "kind": "dense",
                        "params": {"in_features": 6, "out_features": 4},
                    }
                ],
            }
        )
        a = runtime.init_weights(net.layers, 5)
        b = runtime.init_weights(net.layers, 5)
        np.testing.assert_array_equal(a["fc"]["weights"], b["fc"]["weights"])
        limit = np.sqrt(6 / (6 + 4))
        assert np.all(np.abs(a["fc"]["weights"]) <= limit)
        np.testing.assert_array_equal(a["fc"]["bias"], np.zeros(4, np.float32))
        assert not np.array_equal(
            a["fc"]["weights"], runtime.init_weights(net.layers, 6)["fc"]["weights"]
        )

    def test_save_load_round_trip(self, tmp_path):
        layers = [
            layer({"id": "fc", "kind": "dense", "params": {"in_features": 3, "out_features": 2}})
        ]
        store = runtime.init_weights(layers, 9)
        path = tmp_path / "w.json"
        runtime.save_weights(store, path)
        loaded = runtime.load_weights(path)
        assert set(loaded) == {"fc"}
        np.testing.assert_array_equal(loaded["fc"]["weights"], store["fc"]["weights"])
        np.testing.assert_array_equal(loaded["fc"]["bias"], store["fc"]["bias"])

    def test_truncated_blob_rejected(self, tmp_path):
        layers = [
            layer({"id": "fc", "kind": "dense", "params": {"in_features": 3, "out_features": 2}})
        ]
        runtime.save_weights(runtime.init_weights(layers, 9), tmp_path / "w.json")
        blob = tmp_path / "w.bin"
        blob.write_bytes(blob.read_bytes()[:-4])
        with pytest.raises(ValueError):
            runtime.load_weights(tmp_path / "w.json")

    def test_manifest_length_mismatch_rejected(self, tmp_path):
        layers = [
            layer({"id": "fc", "kind": "dense", "params": {"in_features": 3, "out_features": 2}})
        ]
        runtime.save_weights(runtime.init_weights(layers, 9), tmp_path / "w.json")
        doc = json.loads((tmp_path / "w.json").read_text())
        doc["tensors"][0]["length"] += 4
        (tmp_path / "w.json").write_text(json.dumps(doc))
        with pytest.raises(ValueError):
            runtime.load_weights(tmp_path / "w.json")

    def test_unknown_dtype_rejected(self, tmp_path):
        layers = [
            layer({"id": "fc", "kind": "dense", "params": {"in_features": 3, "out_features": 2}})
        ]
        runtime.save_weights(runtime.init_weights(layers, 9), tmp_path / "w.json")
        doc = json.loads((tmp_path / "w.json").read_text())
        doc["tensors"][0]["dtype"] = "f64le"
        (tmp_path / "w.json").write_text(json.dumps(doc))
        with pytest.raises(ValueError):
            runtime.load_weights(tmp_path / "w.json")

    def test_zero_weights_give_uniform_softmax(self):
        layers = [
            layer({"id": "fc", "kind": "dense", "params": {"in_features": 5, "out_features": 4}}),
            layer({"id": "sm", "kind": "softmax"}),
        ]
        weights = runtime.zero_weights(layers)
        out = runtime.forward(layers[1], runtime.forward(layers[0], np.ones(5, np.float32), weights))
        np.testing.assert_allclose(out, np.full(4, 0.25, np.float32), atol=1e-7)

    def test_16_bit_near_lossless_on_activations(self):
        x = np.linspace(-2, 2, 64).astype(np.float32)
        out = quantize(x, QFormat(16, 3))
        assert np.max(np.abs(out - x)) <= 2 ** -13


DENSE = {"id": "fc", "kind": "dense", "params": {"in_features": 6, "out_features": 5}}
CONV = {
    "id": "cv",
    "kind": "conv2d",
    "params": {"in_channels": 2, "out_channels": 3, "kernel_h": 3, "kernel_w": 3, "padding": 1},
}
# every width, rounding and overflow rule, at integer_bits 3
CODE_FORMATS = [
    QFormat(bits, 3, mode=mode, saturating=saturating)
    for bits in runtime.ALLOWED_TOTAL_BITS
    for mode in runtime.QUANT_MODES
    for saturating in (True, False)
]


def writable(store):
    """A copy of store in writable arrays, which quantize on every call."""
    return {lid: {name: a.copy() for name, a in named.items()} for lid, named in store.items()}


def wide_store(doc, seed):
    """Read-only weights and bias for one layer, normal with standard
    deviation 4, so that every format saturates or wraps some of them."""
    lay = layer(doc)
    shapes = {name: a.shape for name, a in runtime.init_weights([lay], 0)[lay.id].items()}
    gen = rng(seed)
    named = {name: gen.normal(0, 4, shape).astype(np.float32) for name, shape in shapes.items()}
    return lay, runtime.read_only({lay.id: named})


def batch_for(lay, seed):
    shape = (4, 6) if lay.kind == "dense" else (4, 2, 5, 5)
    return rng(seed).normal(0, 2, shape).astype(np.float32)


class TestWeightCodes:
    """A read-only weight array quantizes once per format, to the bits
    quantize gives it on every call; any other array quantizes on every
    call."""

    @pytest.mark.parametrize("doc", [DENSE, CONV], ids=["dense", "conv2d"])
    def test_codes_equal_quantize_on_every_call(self, doc):
        lay, store = wide_store(doc, 1)
        x = batch_for(lay, 2)
        per_call = {q: runtime.forward_batch(lay, x, writable(store), q) for q in CODE_FORMATS}
        step = runtime.resolve(lay, x.shape[1:])
        # every format on one store: the first round works the codes out,
        # the second reuses them
        for _ in range(2):
            for q in CODE_FORMATS:
                w, b = runtime._layer_params(step, store, q)
                for codes, name in ((w, "weights"), (b, "bias")):
                    ref = quantize(store[lay.id][name], q)
                    assert np.array_equal(codes.view(np.uint32), ref.view(np.uint32)), (q, name)
                    assert not codes.flags.writeable
                out = runtime.forward_batch(lay, x, store, q)
                assert np.array_equal(out.view(np.uint32), per_call[q].view(np.uint32)), q
        assert runtime._layer_params(step, store, q)[0] is w

    def test_a_replaced_array_gives_its_own_codes(self):
        lay, store = wide_store(DENSE, 1)
        x, q = batch_for(lay, 2), QFormat(8, 3)
        before = runtime.forward_batch(lay, x, store, q)
        store[lay.id]["weights"] = wide_store(DENSE, 3)[1][lay.id]["weights"]
        after = runtime.forward_batch(lay, x, store, q)
        assert np.array_equal(after, runtime.forward_batch(lay, x, writable(store), q))
        assert not np.array_equal(after, before)

    @pytest.mark.parametrize("held", ["writable", "read-only-view", "read-only-over-a-buffer"])
    def test_a_changed_writable_array_changes_the_output(self, held):
        lay, store = wide_store(DENSE, 1)
        store = writable(store)
        x, q = batch_for(lay, 2), QFormat(8, 3)
        w = store[lay.id]["weights"]
        # read-only in the last two cases, but a write to w still reaches it
        if held == "read-only-over-a-buffer":
            buf = bytearray(w.tobytes())
            w = np.frombuffer(buf, dtype=np.float32).reshape(w.shape)
            ro = np.frombuffer(buf, dtype=np.float32)
            ro.flags.writeable = False
            store[lay.id]["weights"] = ro.reshape(w.shape)
        elif held == "read-only-view":
            store[lay.id]["weights"] = w.view()
            store[lay.id]["weights"].flags.writeable = False
        before = runtime.forward_batch(lay, x, store, q)
        w *= 0.5
        after = runtime.forward_batch(lay, x, store, q)
        assert not np.array_equal(after, before)
        assert np.array_equal(after, runtime.forward_batch(lay, x, writable(store), q))

    @pytest.mark.parametrize(
        "doc",
        [
            DENSE,
            CONV,
            {"id": "r", "kind": "relu"},
            {"id": "mp", "kind": "max_pool", "params": {"window": 2}},
            {"id": "ap", "kind": "avg_pool", "params": {"window": 2}},
            {"id": "f", "kind": "flatten"},
            {"id": "dp", "kind": "dropout_point"},
        ],
        ids=lambda doc: doc["kind"],
    )
    def test_a_quantized_layer_never_writes_its_input(self, doc):
        lay = layer(doc)
        store = wide_store(doc, 1)[1] if lay.kind in netspec.LEARNABLE_KINDS else None
        x = batch_for(lay, 2) if store else rng(2).normal(0, 2, (4, 2, 6, 6)).astype(np.float32)
        before = x.copy()
        runtime.forward_batch(lay, x, store, QFormat(8, 3))
        assert x.tobytes() == before.tobytes()

    def test_every_store_producer_returns_read_only_arrays(self, tmp_path, blob_split):
        me = build_mcd_spec()
        layers = netspec.all_layers(me)
        init = runtime.init_weights(layers, 1)
        runtime.save_weights(init, tmp_path / "w.json")
        cfg = train.TrainConfig(lr=0.1, epochs=1, batch=32, seed=1)
        step = train.TrainStep(me)
        stores = {
            "init_weights": init,
            "zero_weights": runtime.zero_weights(layers),
            "load_weights": runtime.load_weights(tmp_path / "w.json"),
            "train_toy": train.train_toy(me, blob_split[0], cfg),
            "train_models": train.train_models(
                [step, step], blob_split[0], [cfg, dataclasses.replace(cfg, seed=2)]
            )[1],
        }
        for name, store in stores.items():
            for named in store.values():
                for a in named.values():
                    assert not a.flags.writeable, name
                    assert runtime._unchanging(a), name  # so its codes are worked out once
                    with pytest.raises(ValueError, match="read-only"):
                        a += 1

    def test_codes_die_with_their_store(self):
        lay, store = wide_store(CONV, 1)
        x = batch_for(lay, 2)
        for q in (QFormat(8, 3), QFormat(4, 2)):
            runtime.forward_batch(lay, x, store, q)
        keys = [id(a) for a in store[lay.id].values()]
        codes = [weakref.ref(c) for key in keys for c in runtime._weight_codes[key][1].values()]
        assert len(codes) == 4
        del store
        gc.collect()
        assert all(ref() is None for ref in codes)
        assert not set(keys) & set(runtime._weight_codes)

    def test_codes_alive_at_interpreter_exit_leave_quietly(self):
        """A program that holds a conv net's weights in a module global until
        exit frees them while shutdown tears down mcexit.runtime, and so
        runs each array's cleanup after the module's globals are gone; a
        gc callback keeps the collector busy through that teardown."""
        here = Path(__file__).resolve().parent
        code = textwrap.dedent(
            """
            import gc
            import numpy as np
            from conftest import lenet_doc
            from mcexit import inference, netspec, runtime
            from mcexit.dropout import DropoutConfig
            from mcexit.runtime import QFormat

            me = netspec.place_exits(netspec.parse_network(lenet_doc()))
            cfg = DropoutConfig(kind="masksembles", num_masks=4, scale=2.0)
            me = netspec.insert_dropout(me, cfg, 1)
            WEIGHTS = runtime.init_weights(netspec.all_layers(me), 0)
            x = np.zeros((1, 12, 12), np.float32)
            inference.predict(me, x, 4, WEIGHTS, qformat=QFormat(8, 3))
            gc.callbacks.append(lambda *args: None)
            """
        )
        env = {"PYTHONPATH": os.pathsep.join([str(here.parent / "src"), str(here)]), "PATH": ""}
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
        assert out.returncode == 0, out.stderr
        assert out.stderr == ""

    def test_a_format_is_its_four_fields(self):
        q = QFormat(8, 3)
        assert q == QFormat.from_dict(q.to_dict()) and hash(q) == hash(QFormat(8, 3))
        assert repr(q) == "QFormat(total_bits=8, integer_bits=3, mode='round_to_nearest_even', saturating=True)"
        wide = dataclasses.replace(q, total_bits=16)
        assert (wide.step, wide.max_value) == (2.0**-13, 32767 * 2.0**-13)
