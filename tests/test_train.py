import dataclasses

import numpy as np
import pytest

from conftest import build_masksembles_spec, build_mcd_spec, mlp_doc
from mcexit import datasets, netspec, runtime, train
from mcexit.dropout import DropoutConfig, derive_seed, generate_masks
from mcexit.inference import site_feature_count


def tiny_spec(seed=0, kind="mcd", depth=1):
    net = netspec.parse_network(
        {
            "input_shape": [5],
            "layers": [
                {"id": "d1", "kind": "dense", "params": {"in_features": 5, "out_features": 6}},
                {"id": "r1", "kind": "relu"},
                {"id": "p1", "kind": "avg_pool", "params": {"window": 2}},
                {"id": "d2", "kind": "dense", "params": {"in_features": 3, "out_features": 4}},
                {"id": "r2", "kind": "relu"},
                {"id": "fc", "kind": "dense", "params": {"in_features": 4, "out_features": 2}},
                {"id": "sm", "kind": "softmax"},
            ],
        }
    )
    me = netspec.place_exits(net)
    if kind == "mcd":
        cfg = DropoutConfig(kind="mcd", keep_rate=0.75, seed=seed)
    else:
        cfg = DropoutConfig(kind="masksembles", num_masks=2, scale=2.0, seed=seed)
    return netspec.insert_dropout(me, cfg, depth)


def to_float64(store):
    return {
        lid: {name: t.astype(np.float64) for name, t in named.items()}
        for lid, named in store.items()
    }


def numeric_grad(step, weights, x, y, draws, lid, name, idx, eps=1e-6):
    w = {k: {n: t.copy() for n, t in v.items()} for k, v in weights.items()}
    w[lid][name][idx] += eps
    hi, _ = train.loss_and_grads(step, w, x, y, draws)
    w[lid][name][idx] -= 2 * eps
    lo, _ = train.loss_and_grads(step, w, x, y, draws)
    return (hi - lo) / (2 * eps)


def check_gradients(me, seed, batch=6):
    gen = np.random.Generator(np.random.Philox(key=seed))
    dim = me.trunk.input_shape[0]
    x = gen.normal(size=(batch, dim))
    y = gen.integers(0, me.class_count, size=batch)
    weights = to_float64(runtime.init_weights(netspec.all_layers(me), seed))
    # Freshly initialized biases are exactly zero, which parks relu inputs
    # on the kink whenever an example's features all die upstream; central
    # differences straddle the kink there and disagree with any subgradient.
    # Jittering the biases moves the check to a smooth point.
    for named in weights.values():
        named["bias"] += gen.uniform(0.1, 0.4, size=named["bias"].shape) * gen.choice(
            [-1.0, 1.0], size=named["bias"].shape
        )
    step = train.TrainStep(me)
    draws = train.make_dropout_draws(step, batch, np.arange(batch), seed)
    draws = {k: v.astype(np.float64) for k, v in draws.items()}

    _, grads = train.loss_and_grads(step, weights, x, y, draws)
    worst = 0.0
    for lid, named in grads.items():
        for name, g in named.items():
            flat = g.reshape(-1)
            probe = gen.choice(flat.size, size=min(6, flat.size), replace=False)
            for k in probe:
                idx = np.unravel_index(k, g.shape)
                num = numeric_grad(step, weights, x, y, draws, lid, name, idx)
                denom = max(abs(num), abs(flat[k]), 1e-4)
                worst = max(worst, abs(num - flat[k]) / denom)
    return worst


class TestGradients:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_mcd_gradients_match_central_differences(self, seed):
        assert check_gradients(tiny_spec(seed=seed), seed) <= 1e-4

    def test_masksembles_gradients_match(self):
        assert check_gradients(tiny_spec(seed=3, kind="masksembles"), 3) <= 1e-4

    def test_spilled_dropout_gradients_match(self):
        assert check_gradients(tiny_spec(seed=4, depth=2), 4) <= 1e-4

    def test_full_mlp_gradients_match(self):
        assert check_gradients(build_mcd_spec(seed=5), 5) <= 1e-4


class TestTrainToy:
    def test_lr_zero_leaves_init_untouched(self, blob_split):
        tr, _ = blob_split
        me = build_mcd_spec()
        cfg = train.TrainConfig(lr=0.0, epochs=2, batch=32, seed=11)
        trained = train.train_toy(me, tr, cfg)
        init = runtime.init_weights(netspec.all_layers(me), 11)
        for lid in init:
            for name in init[lid]:
                np.testing.assert_array_equal(trained[lid][name], init[lid][name])

    def test_deterministic(self, blob_split):
        tr, _ = blob_split
        me = build_mcd_spec()
        cfg = train.TrainConfig(lr=0.2, epochs=5, batch=32, seed=12)
        a = train.train_toy(me, tr, cfg)
        b = train.train_toy(me, tr, cfg)
        for lid in a:
            for name in a[lid]:
                np.testing.assert_array_equal(a[lid][name], b[lid][name])

    def test_weights_stay_float32(self, blob_split):
        tr, _ = blob_split
        me = build_mcd_spec()
        out = train.train_toy(me, tr, train.TrainConfig(lr=0.2, epochs=2, batch=32, seed=1))
        assert all(t.dtype == np.float32 for named in out.values() for t in named.values())

    def test_separable_blobs_reach_095(self):
        data = datasets.make_blobs(count=200, classes=2, dim=2, seed=5)
        net = netspec.parse_network(
            {
                "input_shape": [2],
                "layers": [
                    {
                        "id": "d1",
                        "kind": "dense",
                        "params": {"in_features": 2, "out_features": 8},
                    },
                    {"id": "r1", "kind": "relu"},
                    {"id": "fc", "kind": "dense", "params": {"in_features": 8, "out_features": 2}},
                    {"id": "sm", "kind": "softmax"},
                ],
            }
        )
        me = netspec.place_exits(net)
        me = netspec.insert_dropout(me, DropoutConfig(kind="mcd", keep_rate=0.875, seed=0), 1)
        weights = train.train_toy(me, data, train.TrainConfig(lr=0.3, epochs=200, batch=32, seed=0))
        out = data.features
        for layer in [*me.trunk.layers, *me.exits[-1].head_layers]:
            out = runtime.forward_batch(layer, out, weights)
        assert np.count_nonzero(np.argmax(out, axis=1) == data.labels) / len(data) >= 0.95

    def test_masksembles_trains(self, blob_split):
        tr, _ = blob_split
        me = build_masksembles_spec()
        out = train.train_toy(me, tr, train.TrainConfig(lr=0.3, epochs=10, batch=32, seed=2))
        assert set(out) == {l.id for l in netspec.all_layers(me) if l.kind == "dense"}

    def test_duplicate_layer_ids_rejected(self, blob_split):
        """Each layer's gradient is stored, not summed, so ids must be unique."""
        me = build_mcd_spec()
        ex = me.exits[0]
        clash = dataclasses.replace(ex.head_layers[1], id=me.exits[1].head_layers[1].id)
        head = (ex.head_layers[0], clash, *ex.head_layers[2:])
        first = dataclasses.replace(ex, head_layers=head)
        me = dataclasses.replace(me, exits=(first, *me.exits[1:]))
        with pytest.raises(train.TrainingError, match="unique"):
            train.train_toy(me, blob_split[0], train.TrainConfig(lr=0.1, epochs=1, batch=8, seed=0))

    def test_rank3_input_rejected(self):
        from conftest import lenet_doc

        me = netspec.place_exits(netspec.parse_network(lenet_doc()))
        me = netspec.insert_dropout(me, DropoutConfig(kind="mcd", keep_rate=0.75, seed=0), 1)
        data = datasets.make_blobs(count=10, classes=3, dim=4, seed=0)
        with pytest.raises(train.TrainingError):
            train.train_toy(me, data, train.TrainConfig(lr=0.1, epochs=1, batch=4, seed=0))


class TestDropoutDraws:
    def test_mcd_values_are_zero_or_scale(self):
        me = tiny_spec(seed=6)
        draws = train.make_dropout_draws(train.TrainStep(me), 8, np.arange(8), 6)
        for arr in draws.values():
            assert set(np.unique(arr)) <= {np.float32(0.0), np.float32(0.75)}

    def test_masksembles_rows_cycle_through_table(self):
        me = tiny_spec(seed=7, kind="masksembles")
        draws = train.make_dropout_draws(train.TrainStep(me), 4, np.arange(4), 7)
        for arr in draws.values():
            np.testing.assert_array_equal(arr[0], arr[2])
            np.testing.assert_array_equal(arr[1], arr[3])

    def test_deterministic_per_seed(self):
        me = tiny_spec(seed=8)
        a = train.make_dropout_draws(train.TrainStep(me), 4, np.arange(4), 8)
        b = train.make_dropout_draws(train.TrainStep(me), 4, np.arange(4), 8)
        for k in a:
            np.testing.assert_array_equal(a[k], b[k])


# --------------------------------------------------------------------------
# Frozen reference: the trainer as it was when every batch checked the spec,
# inferred its shapes, built its pool indices and a new Philox per dropout
# site, and scattered pool gradients with np.add.at. train_toy must give the
# same weight bytes.


def _ref_init(me, seed):
    store = {}
    for layer in netspec.all_layers(me):
        if layer.kind != "dense":
            continue
        fan_in, fan_out = layer.params["in_features"], layer.params["out_features"]
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        gen = np.random.Generator(np.random.Philox(key=derive_seed(seed, "init", layer.id)))
        w = gen.uniform(-bound, bound, size=(fan_out, fan_in)).astype(np.float32)
        store[layer.id] = {"weights": w, "bias": np.zeros(fan_out, dtype=np.float32)}
    return store


def _ref_pool_indices(layer, width):
    win, stride = layer.params["window"], layer.params["stride"]
    n = (width - win) // stride + 1
    return np.arange(n)[:, None] * stride + np.arange(win)[None, :]


def _ref_forward_layer(layer, x, weights, draws):
    kind = layer.kind
    if kind == "dense":
        w, b = weights[layer.id]["weights"], weights[layer.id]["bias"]
        return x @ w.T + b, x
    if kind == "relu":
        return np.maximum(x, 0), x
    if kind == "flatten":
        return x, None
    if kind == "dropout_point":
        mult = draws[layer.id]
        return x * mult, mult
    idx = _ref_pool_indices(layer, x.shape[1])
    windows = x[:, idx]
    if kind == "max_pool":
        arg = windows.argmax(axis=2)
        return windows.max(axis=2), (idx, arg, x.shape[1])
    return windows.mean(axis=2, dtype=x.dtype), (idx, None, x.shape[1])


def _ref_backward_layer(layer, grad, ctx, weights, grads):
    kind = layer.kind
    if kind == "dense":
        x = ctx
        w = weights[layer.id]["weights"]
        g = grads.setdefault(layer.id, {})
        g["weights"] = g.get("weights", 0) + grad.T @ x
        g["bias"] = g.get("bias", 0) + grad.sum(axis=0)
        return grad @ w
    if kind == "relu":
        return grad * (ctx > 0)
    if kind == "flatten":
        return grad
    if kind == "dropout_point":
        return grad * ctx
    idx, arg, width = ctx
    out = np.zeros((grad.shape[0], width), dtype=grad.dtype)
    rows = np.arange(grad.shape[0])[:, None]
    if kind == "max_pool":
        chosen = idx[np.arange(idx.shape[0])[None, :], arg]
        np.add.at(out, (rows, chosen), grad)
    else:
        win = idx.shape[1]
        share = grad / grad.dtype.type(win)
        for j in range(win):
            np.add.at(out, (rows, idx[None, :, j]), share)
    return out


def _ref_dropout_draws(me, batch_size, epoch_positions, seed):
    cfg = me.dropout
    draws = {}
    for exit_index, site_id in me.dropout_sites:
        f = site_feature_count(me, exit_index, site_id)
        if cfg.kind == "mcd":
            gen = np.random.Generator(
                np.random.Philox(key=derive_seed(seed, "train-drop", site_id))
            )
            u = gen.random((batch_size, f))
            scale = (1.0 / cfg.keep_rate) if cfg.inverted else cfg.keep_rate
            draws[site_id] = np.where(u > cfg.keep_rate, 0.0, scale).astype(np.float32)
        else:
            table = generate_masks(f, cfg.num_masks, cfg.scale)
            rows = epoch_positions % cfg.num_masks
            draws[site_id] = table.masks[rows].astype(np.float32)
    return draws


def _ref_grads(me, weights, x, y, draws):
    batch = x.shape[0]
    onehot = np.zeros((batch, me.class_count), dtype=x.dtype)
    onehot[np.arange(batch), y] = 1
    trunk_tape, acts, cur = [], {None: x}, x
    for layer in me.trunk.layers[: netspec.deepest_attach(me) + 1]:
        cur, ctx = _ref_forward_layer(layer, cur, weights, draws)
        trunk_tape.append((layer, ctx))
        acts[layer.id] = cur
    grads, attach_grads = {}, {}
    for ex in me.exits:
        tape, h = [], acts[ex.attach_after]
        for layer in ex.head_layers[:-1]:
            h, ctx = _ref_forward_layer(layer, h, weights, draws)
            tape.append((layer, ctx))
        shifted = h - h.max(axis=1, keepdims=True)
        logz = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        g = (np.exp(logz) - onehot) / x.dtype.type(batch)
        for layer, ctx in reversed(tape):
            g = _ref_backward_layer(layer, g, ctx, weights, grads)
        prev = attach_grads.get(ex.attach_after)
        attach_grads[ex.attach_after] = g if prev is None else prev + g
    g = None
    for layer, ctx in reversed(trunk_tape):
        arriving = attach_grads.get(layer.id)
        if arriving is not None:
            g = arriving if g is None else g + arriving
        if g is not None:
            g = _ref_backward_layer(layer, g, ctx, weights, grads)
    return grads


def _ref_train_toy(me, data, cfg):
    weights = _ref_init(me, cfg.seed)
    x_all = np.asarray(data.features, dtype=np.float32)
    y_all = np.asarray(data.labels)
    n = len(x_all)
    lr = np.float32(cfg.lr)
    for epoch in range(cfg.epochs):
        gen = np.random.Generator(np.random.Philox(key=derive_seed(cfg.seed, "shuffle", epoch)))
        order = gen.permutation(n)
        for start in range(0, n, cfg.batch):
            take = order[start : start + cfg.batch]
            draws = _ref_dropout_draws(
                me,
                len(take),
                np.arange(start, start + len(take)),
                derive_seed(cfg.seed, "epoch", epoch, "batch", start),
            )
            grads = _ref_grads(me, weights, x_all[take], y_all[take], draws)
            for lid, named in grads.items():
                for name, g in named.items():
                    weights[lid][name] = weights[lid][name] - lr * g.astype(np.float32)
    return weights


def pooled_spec(pool, window, stride, dropout, depth):
    """The 16-feature MLP with its two pools set to (pool, window, stride)."""
    params = {"window": window} if stride is None else {"window": window, "stride": stride}
    step = window if stride is None else stride

    def dense(lid, fan_in, fan_out):
        params = {"in_features": fan_in, "out_features": fan_out}
        return {"id": lid, "kind": "dense", "params": params}

    net = netspec.parse_network(
        {
            "input_shape": [16],
            "layers": [
                dense("d1", 16, 24),
                {"id": "r1", "kind": "relu"},
                {"id": "p1", "kind": pool, "params": dict(params)},
                dense("d2", (24 - window) // step + 1, 20),
                {"id": "r2", "kind": "relu"},
                {"id": "p2", "kind": pool, "params": dict(params)},
                dense("d3", (20 - window) // step + 1, 8),
                {"id": "r3", "kind": "relu"},
                dense("fc", 8, 3),
                {"id": "sm", "kind": "softmax"},
            ],
        }
    )
    return netspec.insert_dropout(netspec.place_exits(net), dropout, depth)


POOLS = {
    "avg2": ("avg_pool", 2, None),
    "avg3-stride1": ("avg_pool", 3, 1),
    "avg3-stride2": ("avg_pool", 3, 2),
    "avg3-stride3": ("avg_pool", 3, 3),
    "avg2-stride3": ("avg_pool", 2, 3),
    "max2-stride1": ("max_pool", 2, 1),
    "max3-stride2": ("max_pool", 3, 2),
    "max2": ("max_pool", 2, None),
}
DROPOUTS = {
    "mcd-channel": DropoutConfig(kind="mcd", keep_rate=0.75, seed=1),
    "mcd-element": DropoutConfig(kind="mcd", keep_rate=0.6, granularity="element", seed=2),
    "mcd-inverted": DropoutConfig(kind="mcd", keep_rate=0.5, inverted=True, seed=3),
    "masksembles": DropoutConfig(kind="masksembles", num_masks=4, scale=2.0, seed=4),
}


def weight_bytes(store):
    return {(lid, name): t.tobytes() for lid, named in store.items() for name, t in named.items()}


class TestFrozenReference:
    # 45 inputs in batches of 16 leave a ragged last batch of 13
    DATA = datasets.make_blobs(count=45, classes=3, dim=16, seed=5)

    @pytest.mark.parametrize("depth", [1, 2])
    @pytest.mark.parametrize("dropout", DROPOUTS.values(), ids=DROPOUTS.keys())
    @pytest.mark.parametrize("pool", POOLS.values(), ids=POOLS.keys())
    def test_train_toy_gives_the_reference_bytes(self, pool, dropout, depth):
        me = pooled_spec(*pool, dropout, depth)
        cfg = train.TrainConfig(lr=0.3, epochs=3, batch=16, seed=9)
        got = weight_bytes(train.train_toy(me, self.DATA, cfg))
        assert got == weight_bytes(_ref_train_toy(me, self.DATA, cfg))

    @pytest.mark.parametrize("pool", ["avg_pool", "max_pool"])
    @pytest.mark.parametrize("stride", [None, 4])
    def test_wide_windows_and_a_batch_of_one(self, pool, stride):
        """numpy sums 9 gathered taps one after another over a batch, but
        pairwise over a batch of one: the trainer keeps both."""
        data = datasets.make_blobs(count=33, classes=3, dim=16, seed=6)
        me = pooled_spec(pool, 9, stride, DROPOUTS["mcd-element"], 1)
        cfg = train.TrainConfig(lr=0.3, epochs=2, batch=16, seed=4)
        got = weight_bytes(train.train_toy(me, data, cfg))
        assert got == weight_bytes(_ref_train_toy(me, data, cfg))

    @pytest.mark.parametrize("dropout", DROPOUTS.values(), ids=DROPOUTS.keys())
    def test_dropout_draws_match_the_reference(self, dropout):
        me = pooled_spec("avg_pool", 3, 2, dropout, 2)
        positions = np.arange(16, 29)
        got = train.make_dropout_draws(train.TrainStep(me), 13, positions, 77)
        want = _ref_dropout_draws(me, 13, positions, 77)
        assert list(got) == list(want)
        for site in want:
            assert got[site].dtype == np.float32
            assert got[site].tobytes() == want[site].tobytes()

    def test_readme_mlp_gives_the_reference_bytes(self, blob_split):
        tr, _ = blob_split
        me = build_mcd_spec()
        cfg = train.TrainConfig(lr=0.3, epochs=4, batch=32, seed=1)
        got = weight_bytes(train.train_toy(me, tr, cfg))
        assert got == weight_bytes(_ref_train_toy(me, tr, cfg))


class TestTrainModels:
    """A group trained together gives each model the bytes the frozen
    reference gives it alone."""

    DATA = TestFrozenReference.DATA  # 45 inputs, a ragged last batch of 13
    CFG = train.TrainConfig(lr=0.3, epochs=3, batch=16, seed=0)

    def check_group(self, mes, data, cfgs):
        got = train.train_models([train.TrainStep(me) for me in mes], data, cfgs)
        assert len(got) == len(mes)
        for me, cfg, weights in zip(mes, cfgs, got):
            assert weight_bytes(weights) == weight_bytes(_ref_train_toy(me, data, cfg))

    @pytest.mark.parametrize("depth", [1, 2])
    @pytest.mark.parametrize("pool", ["avg3-stride2", "max2-stride1"])
    def test_every_dropout_kind_in_one_group(self, pool, depth):
        mes = [pooled_spec(*POOLS[pool], d, depth) for d in DROPOUTS.values()]
        cfgs = [dataclasses.replace(self.CFG, seed=11 + i) for i in range(len(mes))]
        self.check_group(mes, self.DATA, cfgs)

    @pytest.mark.parametrize("pool", ["avg_pool", "max_pool"])
    @pytest.mark.parametrize("stride", [4, 9])
    def test_wide_windows_and_a_batch_of_one(self, pool, stride):
        """A lone model sums a 9-tap window of its batch of one pairwise;
        in the group it must too."""
        data = datasets.make_blobs(count=33, classes=3, dim=16, seed=6)
        dropouts = [
            DROPOUTS["mcd-channel"],
            DROPOUTS["mcd-element"],
            DROPOUTS["mcd-inverted"],
            DropoutConfig(kind="masksembles", num_masks=2, scale=2.0, seed=5),
        ]
        mes = [pooled_spec(pool, 9, stride, d, 1) for d in dropouts]
        cfgs = [dataclasses.replace(self.CFG, seed=4 + i) for i in range(len(mes))]
        self.check_group(mes, data, cfgs)

    def test_stacked_loss_and_grads_match_each_model_alone(self):
        mes = [pooled_spec("avg_pool", 3, 2, d, 2) for d in DROPOUTS.values()]
        steps = [train.TrainStep(me) for me in mes]
        stores = [runtime.init_weights(netspec.all_layers(me), 20 + i) for i, me in enumerate(mes)]
        gen = np.random.Generator(np.random.Philox(key=3))
        x = gen.normal(size=(len(mes), 7, 16)).astype(np.float32)
        y = gen.integers(0, 3, size=(len(mes), 7))
        draws = [train.make_dropout_draws(s, 7, np.arange(7), 30 + i) for i, s in enumerate(steps)]
        stacked = {
            lid: {name: np.stack([s[lid][name] for s in stores]) for name in named}
            for lid, named in stores[0].items()
        }
        loss, grads = train.loss_and_grads(
            steps[0], stacked, x, y, {site: np.stack([d[site] for d in draws]) for site in draws[0]}
        )
        assert loss.shape == (len(mes),)
        for m, (step, store, d) in enumerate(zip(steps, stores, draws)):
            alone_loss, alone = train.loss_and_grads(step, store, x[m], y[m], d)
            assert isinstance(alone_loss, float)
            assert loss[m] == alone_loss
            assert {k: {n: g[m].tobytes() for n, g in v.items()} for k, v in grads.items()} == {
                k: {n: g.tobytes() for n, g in v.items()} for k, v in alone.items()
            }

    def test_models_must_share_their_structure(self):
        same = pooled_spec("avg_pool", 2, None, DROPOUTS["mcd-channel"], 1)
        deeper = pooled_spec("avg_pool", 2, None, DROPOUTS["mcd-channel"], 2)
        with pytest.raises(ValueError, match="dropout config"):
            train.train_models(
                [train.TrainStep(same), train.TrainStep(deeper)], self.DATA, [self.CFG, self.CFG]
            )
        longer = train.TrainConfig(lr=0.3, epochs=4, batch=16, seed=1)
        with pytest.raises(ValueError, match="lr, epochs and batch"):
            train.train_models(
                [train.TrainStep(same), train.TrainStep(same)], self.DATA, [self.CFG, longer]
            )
