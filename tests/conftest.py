import numpy as np
import pytest

from mcexit import datasets, netspec, train
from mcexit.dropout import DropoutConfig


def mlp_doc(dim: int = 16, classes: int = 3) -> dict:
    """An MLP trunk with two pooling stages, so exit placement finds three
    exits (after each pool, plus the original classifier)."""
    return {
        "input_shape": [dim],
        "layers": [
            {"id": "d1", "kind": "dense", "params": {"in_features": dim, "out_features": 24}},
            {"id": "r1", "kind": "relu"},
            {"id": "p1", "kind": "avg_pool", "params": {"window": 2}},
            {"id": "d2", "kind": "dense", "params": {"in_features": 12, "out_features": 24}},
            {"id": "r2", "kind": "relu"},
            {"id": "p2", "kind": "avg_pool", "params": {"window": 2}},
            {"id": "d3", "kind": "dense", "params": {"in_features": 12, "out_features": 16}},
            {"id": "r3", "kind": "relu"},
            {"id": "fc", "kind": "dense", "params": {"in_features": 16, "out_features": classes}},
            {"id": "sm", "kind": "softmax"},
        ],
    }


def conv32_doc() -> dict:
    """3x32x32 input, three conv(3x3, pad 1)+relu+max_pool stages of
    16/32/32 channels, then dense 512->64->10: four exits."""
    layers: list[dict] = []
    cin = 3
    for i, cout in enumerate((16, 32, 32), start=1):
        conv = {"in_channels": cin, "out_channels": cout, "kernel_h": 3, "kernel_w": 3}
        layers += [
            {"id": f"conv{i}", "kind": "conv2d", "params": {**conv, "padding": 1}},
            {"id": f"relu{i}", "kind": "relu"},
            {"id": f"pool{i}", "kind": "max_pool", "params": {"window": 2}},
        ]
        cin = cout
    layers += [
        {"id": "flat", "kind": "flatten"},
        {"id": "fc1", "kind": "dense", "params": {"in_features": 512, "out_features": 64}},
        {"id": "relu4", "kind": "relu"},
        {"id": "fc2", "kind": "dense", "params": {"in_features": 64, "out_features": 10}},
        {"id": "sm", "kind": "softmax"},
    ]
    return {"input_shape": [3, 32, 32], "layers": layers}


def lenet_doc() -> dict:
    """Conv/pool/conv/pool/dense stack in the classic image-classifier
    shape, 10 layers."""
    return {
        "input_shape": [1, 12, 12],
        "layers": [
            {
                "id": "conv1",
                "kind": "conv2d",
                "params": {"in_channels": 1, "out_channels": 4, "kernel_h": 3, "kernel_w": 3},
            },
            {"id": "relu1", "kind": "relu"},
            {"id": "pool1", "kind": "max_pool", "params": {"window": 2}},
            {
                "id": "conv2",
                "kind": "conv2d",
                "params": {"in_channels": 4, "out_channels": 6, "kernel_h": 3, "kernel_w": 3},
            },
            {"id": "relu2", "kind": "relu"},
            {"id": "pool2", "kind": "max_pool", "params": {"window": 3}},
            {"id": "flat", "kind": "flatten"},
            {"id": "fc1", "kind": "dense", "params": {"in_features": 6, "out_features": 8}},
            {"id": "fc2", "kind": "dense", "params": {"in_features": 8, "out_features": 3}},
            {"id": "sm", "kind": "softmax"},
        ],
    }


def build_mcd_spec(keep_rate: float = 0.75, seed: int = 7, depth: int = 1, classes: int = 3):
    net = netspec.parse_network(mlp_doc(classes=classes))
    me = netspec.place_exits(net)
    cfg = DropoutConfig(kind="mcd", keep_rate=keep_rate, seed=seed)
    return netspec.insert_dropout(me, cfg, depth)


def build_masksembles_spec(num_masks: int = 4, scale: float = 4.0, seed: int = 7):
    net = netspec.parse_network(mlp_doc())
    me = netspec.place_exits(net)
    cfg = DropoutConfig(kind="masksembles", num_masks=num_masks, scale=scale, seed=seed)
    return netspec.insert_dropout(me, cfg, 1)


@pytest.fixture(scope="session")
def blob_data():
    return datasets.make_blobs(count=240, classes=3, dim=16, seed=1)


@pytest.fixture(scope="session")
def blob_split(blob_data):
    return datasets.train_test_split(blob_data, 0.25, seed=2)


@pytest.fixture(scope="session")
def mcd_spec():
    return build_mcd_spec()


@pytest.fixture(scope="session")
def masksembles_spec():
    return build_masksembles_spec()


@pytest.fixture(scope="session")
def mcd_weights(mcd_spec, blob_split):
    tr, _ = blob_split
    cfg = train.TrainConfig(lr=0.3, epochs=60, batch=32, seed=3)
    return train.train_toy(mcd_spec, tr, cfg)


@pytest.fixture(scope="session")
def masksembles_weights(masksembles_spec, blob_split):
    tr, _ = blob_split
    cfg = train.TrainConfig(lr=0.3, epochs=60, batch=32, seed=3)
    return train.train_toy(masksembles_spec, tr, cfg)


def rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed))
