"""The step-table executor against a frozen copy of the executor it
replaced, which walked the spec on every call: it re-inferred each layer's
shape, re-walked the fixed-point grid from the input, indexed the
masksembles table per row and ran a global pool through np.moveaxis and
np.mean. Every output must keep that executor's bytes. Also: a spec is
resolved once, importing the package resolves nothing, and bad input
raises what it raised before.
"""

import dataclasses
import math
import subprocess
import sys
import textwrap
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import mcexit
from conftest import mlp_doc, rng
from mcexit import dropout, inference, netspec, runtime
from mcexit.dropout import DropoutConfig, RngStream, generate_masks, mcd_forward
from mcexit.netspec import ExitSpec, LayerSpec, MultiExitSpec
from mcexit.runtime import QFormat

# --------------------------------------------------------------------------
# Frozen reference: the executor before the step table


def ref_global_pool(x, kh, kw, is_max, out_shape):
    """A pool with one window per channel: its taps stacked by np.moveaxis
    and one copy, then reduced by .max or .mean; one output value per
    sample stays per sample."""

    def stacked(a):
        taps = np.moveaxis(a[..., :kh, :kw], (-2, -1), (0, 1))
        return np.ascontiguousarray(taps).reshape(kh * kw, *a.shape[:-2], 1, 1)

    if is_max:
        return stacked(x).max(axis=0)
    if math.prod(out_shape) > 1:
        return stacked(x).mean(axis=0, dtype=x.dtype)
    rows = [stacked(a).mean(axis=0, dtype=a.dtype) for a in x]
    return np.array(rows) if rows else np.empty((0, *out_shape), dtype=x.dtype)


def ref_masksembles(x, mask_indices, masks):
    """Row r times mask mask_indices[r], by indexing the table per row."""
    rows = masks.masks[np.asarray(mask_indices, dtype=np.int64)]
    mult = rows[:, :, None, None] if x.ndim == 4 else rows
    return (x * mult).astype(x.dtype, copy=False)


def ref_layer(layer, x, weights, q):
    out_shape = netspec.output_shape(layer, x.shape[1:])
    if layer.kind in netspec.POOL_KINDS and out_shape[1:] == (1, 1):
        kh, kw = netspec._pool_window(layer, x.shape[1:])
        out = ref_global_pool(x, kh, kw, layer.kind == "max_pool", out_shape)
        return out if q is None else runtime.quantize(out, q)
    return runtime.forward_batch(layer, x, weights, q)


def ref_grid_step(kind, on_grid, q):
    if q is None:
        return None, False
    if kind == "dropout_point":
        return q, on_grid
    if on_grid and kind in runtime.GRID_PRESERVING_KINDS:
        return None, True
    return q, kind != "softmax"


def ref_on_grid(me, attach_after, q):
    on_grid = False
    if attach_after is not None and q is not None:
        for layer in me.trunk.layers:
            _, on_grid = ref_grid_step(layer.kind, on_grid, q)
            if layer.id == attach_after:
                break
    return on_grid


def ref_trunk(me, cached, depth, stop, weights, q):
    if stop <= depth:
        return depth
    layers = me.trunk.layers
    wanted = {ex.attach_after for ex in me.exits}
    start = layers[depth].id if depth >= 0 else None
    x = cached[start]
    on_grid = ref_on_grid(me, start, q)
    for layer in layers[depth + 1 : stop + 1]:
        lq, on_grid = ref_grid_step(layer.kind, on_grid, q)
        x = ref_layer(layer, x, weights, lq)
        if layer.id in wanted:
            cached[layer.id] = x
    return stop


def ref_head(me, exit_index, x, on_grid, seeds, passes, weights, q):
    cfg = me.dropout
    for layer in me.exits[exit_index - 1].head_layers:
        if layer.kind != "dropout_point":
            lq, on_grid = ref_grid_step(layer.kind, on_grid, q)
            x = ref_layer(layer, x, weights, lq)
            continue
        if cfg.kind == "mcd":
            drawn = np.empty_like(x)
            for r, (seed, p) in enumerate(zip(seeds, passes)):
                rng = RngStream(seed, p, layer.id)
                drawn[r] = mcd_forward(x[r], cfg.keep_rate, cfg.granularity, rng, cfg.inverted)
            x = drawn
            on_grid = False
        else:
            x = ref_masksembles(x, passes, generate_masks(x.shape[1], cfg.num_masks, cfg.scale))
            on_grid = on_grid and q.saturating
        if q is not None and not on_grid:
            x = runtime.quantize(x, q)
            on_grid = True
    return np.asarray(x, dtype=np.float64)


def ref_exit_samples(me, cached, k, n_pass, seeds, weights, q, from_trunk=True):
    attach_after = me.exits[k - 1].attach_after
    feature = cached[attach_after]
    n = len(feature)
    rows = ref_head(
        me,
        k,
        np.repeat(feature, n_pass, axis=0),
        from_trunk and ref_on_grid(me, attach_after, q),
        [s for s in seeds for _ in range(n_pass)],
        list(range(n_pass)) * n,
        weights,
        q,
    )
    return rows.reshape(n, n_pass, rows.shape[-1])


def ref_samples(me, inputs, n_pass, seeds, weights, q):
    cached = {None: np.asarray(inputs, dtype=np.float32)}
    deepest = max(netspec.attach_depth(me, ex.attach_after) for ex in me.exits)
    ref_trunk(me, cached, -1, deepest, weights, q)
    per_exit = [
        ref_exit_samples(me, cached, k, n_pass, seeds, weights, q) for k in range(1, me.n_exit + 1)
    ]
    return np.stack(per_exit, axis=1)


def ref_confidence_exit(me, x, threshold, mode, weights, n_pass, seed, q):
    """(probabilities, exit taken, confidence) of one input: the trunk
    advances exit by exit and the first exit that clears the threshold,
    or the last, answers."""
    cached = {None: np.asarray(x, dtype=np.float32)[None]}
    depth, history = -1, None
    for k, ex in enumerate(me.exits, 1):
        depth = ref_trunk(me, cached, depth, netspec.attach_depth(me, ex.attach_after), weights, q)
        samples = ref_exit_samples(me, cached, k, n_pass, [seed], weights, q)
        if mode == "ensemble_so_far":
            history = samples if history is None else np.concatenate([history, samples], axis=1)
            samples = history
        p = np.add.reduce(samples, axis=1) / samples.shape[1]
        c = np.maximum.reduce(p, axis=1)
        if c[0] >= threshold or k == me.n_exit:
            return p[0], k, c[0]


# --------------------------------------------------------------------------
# cases


def conv_spec(cfg):
    """A conv net built exit by exit: exit 1 samples a rank-3 feature
    before a 1x1 conv and again after a global average pool, exit 2 samples
    before a global max pool, exit 3 is the dense classifier."""
    trunk = netspec.parse_network(
        {
            "input_shape": [2, 8, 8],
            "layers": [
                {"id": "c1", "kind": "conv2d", "params": conv_params(2, 4, 3)},
                {"id": "r1", "kind": "relu"},
                {"id": "p1", "kind": "max_pool", "params": {"window": 2}},
                {"id": "c2", "kind": "conv2d", "params": conv_params(4, 6, 3)},
                {"id": "r2", "kind": "relu"},
                {"id": "p2", "kind": "avg_pool", "params": {"window": 2}},
                {"id": "flat", "kind": "flatten"},
            ],
        }
    )

    def head(k, *docs):
        return tuple(netspec.parse_layer(dict(doc, id=f"exit{k}/{doc['id']}")) for doc in docs)

    def dense(fan_in):
        return {"id": "fc", "kind": "dense", "params": {"in_features": fan_in, "out_features": 5}}

    def gap(kind):
        return {"id": "gap", "kind": kind, "params": {"window": "global"}}

    drop = {"id": "d", "kind": "dropout_point"}
    flat = {"id": "f", "kind": "flatten"}
    sm = {"id": "sm", "kind": "softmax"}
    conv = {"id": "hc", "kind": "conv2d", "params": conv_params(4, 4, 1)}
    first = (drop, conv, {"id": "hr", "kind": "relu"}, gap("avg_pool"), flat)
    exits = (
        ExitSpec(1, "p1", head(1, *first, dict(drop, id="d2"), dense(4), sm)),
        ExitSpec(2, "p2", head(2, drop, gap("max_pool"), flat, dense(6), sm)),
        ExitSpec(3, "flat", head(3, drop, dense(24), sm)),
    )
    me = MultiExitSpec(trunk=trunk, exits=exits, dropout=cfg)
    assert netspec.validate(me) == []
    return me


def conv_params(cin, cout, k):
    pad = k // 2
    return {"in_channels": cin, "out_channels": cout, "kernel_h": k, "kernel_w": k, "padding": pad}


def mlp_spec(cfg):
    return netspec.insert_dropout(netspec.place_exits(netspec.parse_network(mlp_doc())), cfg, 1)


MCD = {
    "mcd_element": DropoutConfig(kind="mcd", keep_rate=0.75, granularity="element", seed=3),
    "mcd_channel": DropoutConfig(kind="mcd", keep_rate=0.75, granularity="channel", seed=3),
    "mcd_inverted": DropoutConfig(kind="mcd", keep_rate=0.5, inverted=True, seed=3),
}
# dropout case -> (config, n_pass); masksembles runs with passes below and
# equal to its 4 masks
DROPOUT = {
    **{name: (cfg, 3) for name, cfg in MCD.items()},
    "masks_below": (DropoutConfig(kind="masksembles", num_masks=4, scale=2.0, seed=3), 3),
    "masks_equal": (DropoutConfig(kind="masksembles", num_masks=4, scale=2.0, seed=3), 4),
}
FORMATS = [None] + [
    QFormat(bits, min(3, bits), saturating=saturating)
    for bits in runtime.ALLOWED_TOTAL_BITS
    for saturating in (True, False)
]


def fmt_id(q):
    return "float" if q is None else f"q{q.total_bits}_{'sat' if q.saturating else 'wrap'}"


def case(net, dropout_case):
    cfg, n_pass = DROPOUT[dropout_case]
    me = (conv_spec if net == "conv" else mlp_spec)(cfg)
    weights = runtime.init_weights(netspec.all_layers(me), 11)
    inputs = (2 * rng(13).standard_normal((3, *me.trunk.input_shape))).astype(np.float32)
    return me, weights, inputs, n_pass


def same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# --------------------------------------------------------------------------
# the executor keeps the reference's bytes


@pytest.mark.parametrize("q", FORMATS, ids=fmt_id)
@pytest.mark.parametrize("dropout_case", list(DROPOUT))
@pytest.mark.parametrize("net", ["mlp", "conv"])
def test_every_output_keeps_the_reference_bytes(net, dropout_case, q):
    me, weights, inputs, n_pass = case(net, dropout_case)
    seeds = inference.dataset_seeds(6, len(inputs))
    refs = [ref_samples(me, x[None], n_pass, [s], weights, q)[0] for x, s in zip(inputs, seeds)]
    for x, s, ref in zip(inputs, seeds, refs):
        assert same_bytes(inference.predict(me, x, n_pass, weights, s, q).samples, ref)
    rows = inference.ensemble_dataset(me, weights, inputs, n_pass, 6, q)
    ref_rows = inference.mean_samples(ref_samples(me, inputs, n_pass, seeds, weights, q))
    assert same_bytes(rows, ref_rows)
    for mode in inference.EXIT_MODES:
        # the median exit-1 confidence, so some inputs go on past exit 1
        threshold = float(np.median([ref[0].mean(axis=0).max() for ref in refs]))
        threshold = min(max(threshold, 1e-6), 1 - 1e-6)
        for x, s in zip(inputs, seeds):
            d = inference.confidence_exit(me, x, threshold, mode, weights, n_pass, s, q)
            p, k, c = ref_confidence_exit(me, x, threshold, mode, weights, n_pass, s, q)
            assert d.exit_taken == k and same_bytes(d.probs, p) and same_bytes(d.confidence, c)
    # a caller's float cache, requantized at the head
    cached = inference.run_trunk(me, inputs[0], weights)
    for k, ex in enumerate(me.exits, 1):
        one = {ex.attach_after: cached[ex.attach_after][None]}
        ref = ref_exit_samples(me, one, k, n_pass, [seeds[0]], weights, q, from_trunk=False)[0]
        rows = inference.run_exit_samples(cached, me, k, n_pass, weights, seeds[0], q)
        assert same_bytes(rows, ref)


# float32 values with both zeros, subnormals, both infinities and NaN
SPECIAL = [0.0, -0.0, 1e-45, -1e-45, 3e-39, -3e-39, np.inf, -np.inf, np.nan, 1.5, -2.25, 3e38]
VALUES = st.one_of(st.sampled_from(SPECIAL), st.floats(width=32))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_pools_with_one_window_per_channel_keep_the_reference_bytes(data):
    rows, c, h, w = (data.draw(st.integers(lo, hi)) for lo, hi in ((0, 4), (1, 5), (1, 6), (1, 6)))
    kind = data.draw(st.sampled_from(["avg_pool", "max_pool"]))
    if data.draw(st.booleans()):
        params = {"window": "global"}
    else:  # a window the stride lets fit only once
        params = {"window": [data.draw(st.integers(1, h)), data.draw(st.integers(1, w))]}
        params["stride"] = max(h, w)
    layer = netspec.normalize_layer(LayerSpec(id="p", kind=kind, params=params))
    x = data.draw(hnp.arrays(np.float32, (rows, c, h, w), elements=VALUES))
    kh, kw = netspec._pool_window(layer, (c, h, w))
    with np.errstate(all="ignore"):
        ref = ref_global_pool(x, kh, kw, kind == "max_pool", (c, 1, 1))
        assert same_bytes(runtime.forward_batch(layer, x), ref)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_masksembles_passes_keep_the_reference_bytes(data):
    num_masks = data.draw(st.integers(1, 4))
    n_pass = data.draw(st.integers(1, num_masks))
    inputs = data.draw(st.integers(0, 3))
    width = data.draw(st.integers(num_masks, 7))
    shape = (width, data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3)))
    shape = shape if data.draw(st.booleans()) else shape[:1]
    masks = generate_masks(width, num_masks, data.draw(st.sampled_from([1.0, 1.5, 2.0, 8.0])))
    x = data.draw(hnp.arrays(np.float32, (inputs * n_pass, *shape), elements=VALUES))
    with np.errstate(all="ignore"):
        ref = ref_masksembles(x, list(range(n_pass)) * inputs, masks)
        assert same_bytes(dropout.masksembles_passes(x, n_pass, masks), ref)


# --------------------------------------------------------------------------
# the spec is resolved once


SPIED = (netspec.output_shape, netspec.infer_shapes, netspec._trunk_index, dropout.generate_masks)


def spy_on_resolution(monkeypatch):
    """Count calls of SPIED under every name the package binds them to."""
    counts = Counter()
    modules = [sys.modules[name] for name in sorted(sys.modules) if name.startswith("mcexit.")]
    for fn in SPIED:

        def counted(*args, fn=fn, **kwargs):
            counts[fn.__name__] += 1
            return fn(*args, **kwargs)

        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, counted)
    return counts


@pytest.mark.parametrize("net, dropout_case", [("mlp", "mcd_channel"), ("conv", "masks_equal")])
def test_one_predict_resolves_the_spec_for_every_later_call(net, dropout_case, monkeypatch):
    me, weights, inputs, n_pass = case(net, dropout_case)
    inference.predict(me, inputs[0], n_pass, weights, 1)
    counts = spy_on_resolution(monkeypatch)
    for q in (None, QFormat(8, 3), QFormat(6, 2, saturating=False)):
        inference.predict(me, inputs[1], n_pass, weights, 2, q)
        for mode in inference.EXIT_MODES:
            inference.confidence_exit(me, inputs[2], 0.5, mode, weights, n_pass, 3, q)
        inference.ensemble_dataset(me, weights, inputs, n_pass, 4, q)
    assert not counts
    # a spec made with dataclasses.replace has no table until its own first call
    other = dataclasses.replace(me)
    assert "_table" not in vars(other)
    inference.predict(other, inputs[0], n_pass, weights, 1)
    assert counts["output_shape"] > 0
    assert inference._table(other, other.trunk.input_shape) is not inference._table(
        me, me.trunk.input_shape
    )


def test_the_table_leaves_equality_and_serialization_alone(tmp_path):
    me, weights, inputs, n_pass = case("mlp", "mcd_element")
    fresh = netspec.parse_multi_exit(netspec.serialize_multi_exit(me))
    inference.predict(me, inputs[0], n_pass, weights, 1)
    assert "_table" in vars(me) and "_table" not in vars(fresh)
    assert me == fresh and repr(me) == repr(fresh)
    assert netspec.serialize_multi_exit(me) == netspec.serialize_multi_exit(fresh)
    netspec.save_multi_exit(me, tmp_path / "a.json")
    netspec.save_multi_exit(fresh, tmp_path / "b.json")
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_bad_input_raises_as_before():
    """The exception types and messages the executor raised before the
    step table, on a spec's first call and on a later one."""
    me, weights, inputs, n_pass = case("mlp", "mcd_element")
    x = inputs[0]

    def dropped(lid):
        return {k: v for k, v in weights.items() if k != lid}

    def misshapen(lid):
        bad = {"weights": np.zeros((3, 3), np.float32), "bias": weights[lid]["bias"]}
        return {**weights, lid: bad}

    for _ in range(2):
        with pytest.raises(netspec.ShapeMismatchError) as err:
            inference.predict(me, x[:15], n_pass, weights)
        assert str(err.value) == "layer 'd1': expects 16 features, got 15"
        with pytest.raises(netspec.ShapeMismatchError) as err:
            inference.predict(me, x.reshape(2, 8), n_pass, weights)
        assert str(err.value) == "layer 'd1': dense expects a rank-1 input, got (2, 8)"
        for lid in ("d1", "exit2/fc"):
            with pytest.raises(KeyError) as err:
                inference.predict(me, x, n_pass, dropped(lid))
            assert err.value.args == (f"no weights for layer {lid!r}",)
            with pytest.raises(netspec.ShapeMismatchError) as err:
                inference.predict(me, x, n_pass, misshapen(lid))
            assert str(err.value) == f"layer {lid!r}: weight shape (3, 3) does not match params"
        inference.predict(me, x, n_pass, weights)  # the table exists from here on


def test_import_loads_no_rng_and_resolves_no_spec():
    """Importing the package neither loads numpy.random, whose generators
    cost start-up memory, nor resolves a step table."""
    src = Path(mcexit.__file__).resolve().parent
    code = textwrap.dedent(
        f"""
        import sys
        called = set()

        def hook(frame, event, arg):
            if event == "call" and frame.f_code.co_filename.startswith({str(src)!r}):
                called.add(frame.f_code.co_name)

        sys.setprofile(hook)
        import mcexit
        sys.setprofile(None)
        print("numpy.random" in sys.modules)
        print(sorted(called & {{"resolve", "_resolve", "_resolve_head", "_chain", "_table"}}))
        """
    )
    env = {"PYTHONPATH": str(src.parent), "PATH": ""}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split("\n")[:2] == ["False", "[]"]
