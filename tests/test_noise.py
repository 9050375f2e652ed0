"""Gaussian noise inputs and APE, drawn and scored one block at a time.

Frozen copies of the all-at-once gaussian_inputs and
average_predictive_entropy are the byte oracles: blocking the draws must
change no bit of the noise set or of the score. The memory tests pin the
point of blocking, a peak that does not grow with the noise count.
"""

import tracemalloc

import numpy as np
import pytest

from conftest import build_masksembles_spec, build_mcd_spec, conv32_doc
from mcexit import datasets, inference, metrics, netspec, runtime
from mcexit.datasets import NoiseSpec
from mcexit.dropout import DropoutConfig, derive_seed

MIB = 2**20


def frozen_gaussian_inputs(spec: NoiseSpec, shape: tuple[int, ...]) -> np.ndarray:
    """The whole noise set drawn, scaled and narrowed at once."""
    gen = np.random.Generator(np.random.Philox(key=derive_seed(spec.seed, "noise")))
    mean = np.broadcast_to(np.asarray(spec.mean, dtype=np.float64), shape)
    std = np.broadcast_to(np.asarray(spec.std, dtype=np.float64), shape)
    draws = gen.standard_normal(size=(spec.count, *shape))
    return (mean + std * draws).astype(np.float32)


def frozen_ape(me, weights, noise, n_pass, qformat=None) -> float:
    """APE over the whole noise set and all its samples at once."""
    xs = frozen_gaussian_inputs(noise, me.trunk.input_shape)
    seeds = [derive_seed(noise.seed, "mc", i) for i in range(len(xs))]
    samples = inference.dataset_samples(me, weights, xs, n_pass, seeds, qformat)
    total = 0.0
    for probs in inference.mean_samples(samples):
        total += metrics.predictive_entropy(probs)
    return total / len(xs)


def per_feature(shape: tuple[int, ...], offset: float, step: float, zero_first: bool) -> tuple:
    """Nested tuples shaped like one input; the first value is 0 if asked,
    to cover std 0 on one feature."""
    values = offset + step * np.arange(int(np.prod(shape)), dtype=np.float64)
    if zero_first:
        values[0] = 0.0
    return datasets._nested_tuple(values.reshape(shape))


SHAPES = [(16,), (3, 4, 5)]
COUNTS = [1, 63, 64, 65, 200]


class TestGaussianInputs:
    @pytest.mark.parametrize("shape", SHAPES, ids=["rank1", "rank3"])
    @pytest.mark.parametrize("count", COUNTS)
    @pytest.mark.parametrize(
        "stats",
        [
            lambda shape: (0.0, 1.0),
            lambda shape: (0.5, 2.0),
            lambda shape: (-1.25, 0.0),
            lambda shape: (
                per_feature(shape, -2.0, 0.25, zero_first=False),
                per_feature(shape, 0.1, 0.3, zero_first=True),
            ),
        ],
        ids=["standard", "scalar", "std0", "per-feature"],
    )
    def test_equals_the_set_drawn_at_once(self, shape, count, stats):
        mean, std = stats(shape)
        spec = NoiseSpec(mean=mean, std=std, count=count, seed=13)
        got = datasets.gaussian_inputs(spec, shape)
        want = frozen_gaussian_inputs(spec, shape)
        assert got.dtype == want.dtype == np.float32
        assert got.shape == want.shape == (count, *shape)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "count, sizes", [(1, [1]), (64, [64]), (65, [64, 1]), (200, [64, 64, 64, 8])]
    )
    def test_blocks_are_block_inputs_long_and_join_to_the_set(self, count, sizes):
        spec = NoiseSpec(mean=0.5, std=2.0, count=count, seed=4)
        blocks = list(datasets.noise_blocks(spec, (16,), inference.BLOCK_INPUTS))
        assert [len(b) for b in blocks] == sizes
        assert all(b.dtype == np.float32 for b in blocks)
        assert np.concatenate(blocks).tobytes() == frozen_gaussian_inputs(spec, (16,)).tobytes()

    @pytest.mark.parametrize("block, sizes", [(1, [1] * 11), (3, [3, 3, 3, 2]), (11, [11])])
    def test_block_size_does_not_move_a_bit(self, block, sizes):
        spec = NoiseSpec(mean=0.0, std=1.0, count=11, seed=2)
        blocks = list(datasets.noise_blocks(spec, (3, 4, 5), block))
        assert [len(b) for b in blocks] == sizes
        want = frozen_gaussian_inputs(spec, (3, 4, 5)).tobytes()
        assert np.concatenate(blocks).tobytes() == want

    def test_peak_is_the_output_plus_about_two_float64_blocks(self):
        shape = (3, 32, 32)
        spec = NoiseSpec(mean=0.0, std=1.0, count=200, seed=3)
        block64 = datasets.BLOCK_INPUTS * int(np.prod(shape)) * 8
        datasets.gaussian_inputs(NoiseSpec(0.0, 1.0, 1, 3), shape)  # numpy.random's lazy import
        tracemalloc.start()
        try:
            out = datasets.gaussian_inputs(spec, shape)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= out.nbytes + 2 * block64, (peak / MIB, out.nbytes / MIB)


def conv_masks_spec():
    """The 3x32x32, four-exit masksembles conv net, initialised weights."""
    me = netspec.place_exits(netspec.parse_network(conv32_doc()))
    cfg = DropoutConfig(kind="masksembles", num_masks=4, scale=2.0, seed=5)
    me = netspec.insert_dropout(me, cfg, 1)
    return me, runtime.init_weights(netspec.all_layers(me), 6)


class TestAveragePredictiveEntropy:
    @pytest.mark.parametrize("bits", [None, 8], ids=["float", "q8"])
    @pytest.mark.parametrize(
        "kind, count",
        [("mcd", 1), ("mcd", 130), ("masksembles", 64), ("masksembles", 130)],
    )
    def test_equals_the_score_of_the_set_at_once(self, kind, count, bits):
        me = build_mcd_spec() if kind == "mcd" else build_masksembles_spec()
        weights = runtime.init_weights(netspec.all_layers(me), 2)
        q = runtime.datapath_format(bits, 3)
        noise = NoiseSpec(mean=0.25, std=1.5, count=count, seed=21)
        got = metrics.average_predictive_entropy(me, weights, noise, 3, q)
        assert got == frozen_ape(me, weights, noise, 3, q)

    def test_block_size_does_not_move_a_bit(self, mcd_spec, mcd_weights, monkeypatch):
        noise = NoiseSpec(mean=0.0, std=1.0, count=10, seed=5)
        want = frozen_ape(mcd_spec, mcd_weights, noise, 2)
        monkeypatch.setattr(inference, "BLOCK_INPUTS", 3)
        assert metrics.average_predictive_entropy(mcd_spec, mcd_weights, noise, 2) == want

    def test_conv_peak_does_not_grow_with_the_noise_count(self):
        me, weights = conv_masks_spec()
        metrics.average_predictive_entropy(me, weights, NoiseSpec(0.0, 1.0, 2, 3), 4)  # step table
        peaks = {}
        for count in (64, 640, 1000):
            tracemalloc.start()
            try:
                metrics.average_predictive_entropy(me, weights, NoiseSpec(0.0, 1.0, count, 3), 4)
                peaks[count] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[640] <= 1.2 * peaks[64], {n: p / MIB for n, p in peaks.items()}
        assert peaks[1000] <= 1.2 * peaks[64], {n: p / MIB for n, p in peaks.items()}
        assert peaks[1000] <= 20 * MIB, peaks[1000] / MIB
