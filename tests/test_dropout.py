import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcexit.dropout import (
    DropoutConfig,
    MaskSet,
    RngStream,
    config_digest,
    derive_seed,
    generate_masks,
    keyed_generator,
    masksembles_forward,
    mcd_forward,
    stream_key,
    stream_keys,
    stream_uniforms,
)


class TestDeriveSeed:
    def test_stable(self):
        assert derive_seed(7, "a", 1) == derive_seed(7, "a", 1)

    def test_distinct_parts_distinct_seeds(self):
        seen = {derive_seed(7), derive_seed(7, "a"), derive_seed(7, "a", 0), derive_seed(8, "a")}
        assert len(seen) == 4

    def test_fits_in_64_bits(self):
        assert 0 <= derive_seed(2**63, "x") < 2**64


class TestDropoutConfig:
    def test_mcd_round_trip(self):
        cfg = DropoutConfig(kind="mcd", keep_rate=0.75, seed=3)
        assert DropoutConfig.from_dict(cfg.to_dict()) == cfg

    def test_masksembles_round_trip(self):
        cfg = DropoutConfig(kind="masksembles", num_masks=4, scale=2.0, seed=3)
        assert DropoutConfig.from_dict(cfg.to_dict()) == cfg

    def test_mcd_defaults_channel_granularity(self):
        assert DropoutConfig(kind="mcd", keep_rate=0.5, seed=0).granularity == "channel"

    @pytest.mark.parametrize("keep", [0.0, -0.1, 1.5])
    def test_bad_keep_rate(self, keep):
        with pytest.raises(ValueError):
            DropoutConfig(kind="mcd", keep_rate=keep, seed=0)

    def test_cross_field_rejection(self):
        with pytest.raises(ValueError):
            DropoutConfig(kind="mcd", keep_rate=0.5, num_masks=4, seed=0)
        with pytest.raises(ValueError):
            DropoutConfig(kind="masksembles", num_masks=4, scale=2.0, keep_rate=0.5, seed=0)

    def test_inverted_is_mcd_only(self):
        with pytest.raises(ValueError):
            DropoutConfig(kind="masksembles", num_masks=4, scale=2.0, inverted=True, seed=0)

    def test_unknown_dict_key_rejected(self):
        doc = DropoutConfig(kind="mcd", keep_rate=0.5, seed=0).to_dict()
        doc["typo"] = 1
        with pytest.raises(ValueError):
            DropoutConfig.from_dict(doc)

    def test_digest_tracks_fields(self):
        a = DropoutConfig(kind="mcd", keep_rate=0.5, seed=0)
        b = DropoutConfig(kind="mcd", keep_rate=0.5, seed=1)
        assert config_digest(a) != config_digest(b)
        assert config_digest(a) == config_digest(DropoutConfig.from_dict(a.to_dict()))


class TestRngStream:
    def test_order_independence(self):
        first = RngStream(5, 0, "exit1/drop0").uniform(8)
        # drawing for a different sample in between must not disturb it
        RngStream(5, 1, "exit1/drop0").uniform(1000)
        second = RngStream(5, 0, "exit1/drop0").uniform(8)
        np.testing.assert_array_equal(first, second)

    def test_streams_differ_by_key(self):
        a = RngStream(5, 0, "exit1/drop0").uniform(8)
        b = RngStream(5, 1, "exit1/drop0").uniform(8)
        c = RngStream(5, 0, "exit2/drop0").uniform(8)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_counter_advances(self):
        stream = RngStream(5, 0, "x")
        stream.uniform((2, 3))
        assert stream.counter == 6

    @given(st.integers(0, 2**32), st.integers(0, 31))
    @settings(max_examples=50, deadline=None)
    def test_uniforms_in_unit_interval(self, seed, sample):
        u = RngStream(seed, sample, "site").uniform(64)
        assert np.all(u >= 0.0) and np.all(u < 1.0)


class TestKeyedGenerators:
    def test_keyed_generator_is_a_fresh_philox(self):
        for key in (0, 7, derive_seed(3, "shuffle", 1), stream_key(5, 2, "exit1/drop0")):
            fresh = [np.random.Generator(np.random.Philox(key=key)) for _ in range(2)]
            np.testing.assert_array_equal(keyed_generator(key).random(9), fresh[0].random(9))
            np.testing.assert_array_equal(
                keyed_generator(key).permutation(11), fresh[1].permutation(11)
            )

    def test_stream_keys_equal_each_stream_key(self):
        # negative and full 64-bit seeds, repeated out of order and mixed
        # with numpy integers, against passes out of order
        seeds = [-3, 2**64 - 1, 7, -3, np.int64(7), 2**63, -(2**63), 2**64 - 1, 0]
        passes = [5, 0, 3, 1, 2, 0, 4, 9, np.int64(2)]
        for site in ("exit1/drop0", "exit2/drop1", "sortie-é/drop0", "出口/drop0"):
            want = [stream_key(seed, p, site) for seed, p in zip(seeds, passes)]
            assert stream_keys(seeds, passes, site) == want
        assert stream_keys([], [], "site") == []

    def test_stream_keys_need_one_pass_per_seed(self):
        with pytest.raises(ValueError, match="2 seeds for 1 passes"):
            stream_keys([1, 2], [0], "site")

    KEYS = (0, 1, 2**64, 2**128 - 1, stream_key(5, 2, "exit1/drop0"))

    def test_rekey_after_a_stream_stopped_mid_block(self):
        for key in self.KEYS:
            previous = keyed_generator(key ^ 1)
            previous.random(5)  # one word into Philox's second 4-word block
            assert previous.bit_generator.state["buffer_pos"] == 1
            fresh = np.random.Generator(np.random.Philox(key=key))
            np.testing.assert_array_equal(keyed_generator(key).random(9), fresh.random(9))

    def test_rekey_after_an_odd_number_of_uint32_draws(self):
        for key in self.KEYS:
            previous = keyed_generator(key ^ 1)
            previous.integers(0, 2**32, size=3, dtype=np.uint32)  # keeps a half word
            assert previous.bit_generator.state["has_uint32"] == 1
            fresh = np.random.Generator(np.random.Philox(key=key))
            np.testing.assert_array_equal(
                keyed_generator(key).integers(0, 2**32, size=5, dtype=np.uint32),
                fresh.integers(0, 2**32, size=5, dtype=np.uint32),
            )

    def test_each_thread_has_its_own_generator(self):
        mine = keyed_generator(1)
        theirs = []
        worker = threading.Thread(target=lambda: theirs.append(keyed_generator(1)))
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
        assert theirs[0] is not mine

    def test_rows_unchanged_when_threads_draw_at_once(self):
        """Four threads (more than the cores of a small host), switched as
        often as the interpreter allows, each draw the same rows in their
        own order; a generator shared across threads would mix streams."""
        keys = [stream_key(9, i, f"exit{i % 3}/drop0") for i in range(48)]
        expected = np.stack(
            [RngStream(9, i, f"exit{i % 3}/drop0").uniform((4, 5)) for i in range(48)]
        )
        orders = [np.roll(np.arange(48), 11 * who) for who in range(4)]
        start = threading.Barrier(len(orders))
        results: dict[int, list[np.ndarray]] = {who: [] for who in range(len(orders))}

        def draw(who: int) -> None:
            start.wait(timeout=10)
            for _ in range(40):
                results[who].append(stream_uniforms([keys[i] for i in orders[who]], (4, 5)))

        workers = [threading.Thread(target=draw, args=(who,)) for who in range(len(orders))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(w.is_alive() for w in workers)
        for who, order in enumerate(orders):
            assert len(results[who]) == 40
            for out in results[who]:
                np.testing.assert_array_equal(out, expected[order])


class TestMcdForward:
    def test_keep_rate_one_is_identity(self):
        x = np.arange(16, dtype=np.float32)
        out = mcd_forward(x, 1.0, "element", RngStream(0, 0, "s"))
        np.testing.assert_array_equal(out, x)

    def test_survivors_scaled_by_keep_rate(self):
        x = np.ones(10_000, dtype=np.float32)
        out = mcd_forward(x, 0.75, "element", RngStream(1, 0, "s"))
        survivors = out[out != 0]
        assert survivors.size > 0
        np.testing.assert_array_equal(survivors, np.float32(0.75))

    def test_keep_fraction_within_3_sigma(self):
        n = 100_000
        x = np.ones(n, dtype=np.float32)
        for keep in (0.5, 0.625, 0.75, 0.875):
            out = mcd_forward(x, keep, "element", RngStream(2, 0, "s"))
            frac = np.count_nonzero(out) / n
            sigma = np.sqrt(keep * (1 - keep) / n)
            assert abs(frac - keep) <= 3 * sigma

    def test_inverted_scaling(self):
        x = np.ones(1000, dtype=np.float32)
        out = mcd_forward(x, 0.5, "element", RngStream(3, 0, "s"), inverted=True)
        survivors = out[out != 0]
        np.testing.assert_array_equal(survivors, np.float32(2.0))

    def test_channel_granularity_shares_fate(self):
        x = np.ones((6, 4, 4), dtype=np.float32)
        out = mcd_forward(x, 0.5, "channel", RngStream(4, 0, "s"))
        for c in range(6):
            plane = out[c]
            assert np.all(plane == 0) or np.all(plane == np.float32(0.5))

    def test_element_granularity_mixes_within_channel(self):
        x = np.ones((4, 8, 8), dtype=np.float32)
        out = mcd_forward(x, 0.5, "element", RngStream(5, 0, "s"))
        mixed = any(
            0 < np.count_nonzero(out[c]) < out[c].size for c in range(4)
        )
        assert mixed

    def test_deterministic_given_stream(self):
        x = np.linspace(-1, 1, 32, dtype=np.float32)
        a = mcd_forward(x, 0.5, "element", RngStream(6, 3, "s"))
        b = mcd_forward(x, 0.5, "element", RngStream(6, 3, "s"))
        np.testing.assert_array_equal(a, b)

    def test_preserves_dtype(self):
        x = np.ones(8, dtype=np.float32)
        assert mcd_forward(x, 0.5, "element", RngStream(7, 0, "s")).dtype == np.float32


class TestGenerateMasks:
    def test_f8_n4_scale1_is_disjoint_cover(self):
        ms = generate_masks(8, 4, 1.0)
        assert ms.masks.shape == (4, 8)
        np.testing.assert_array_equal(ms.masks.sum(axis=0), np.ones(8, dtype=np.uint64))
        np.testing.assert_array_equal(ms.masks.sum(axis=1), np.full(4, 2, dtype=np.uint64))

    def test_f8_n4_scale2_windows(self):
        ms = generate_masks(8, 4, 2.0)
        expected = np.array(
            [
                [1, 1, 1, 1, 0, 0, 0, 0],
                [0, 0, 1, 1, 1, 1, 0, 0],
                [0, 0, 0, 0, 1, 1, 1, 1],
                [1, 1, 0, 0, 0, 0, 1, 1],
            ],
            dtype=np.uint8,
        )
        np.testing.assert_array_equal(ms.masks, expected)

    def test_f8_n4_scale2_adjacent_jaccard_one_third(self):
        m = generate_masks(8, 4, 2.0).masks.astype(bool)
        for i in range(4):
            a, b = m[i], m[(i + 1) % 4]
            jac = np.logical_and(a, b).sum() / np.logical_or(a, b).sum()
            assert jac == pytest.approx(1 / 3)

    def test_f8_n4_scale4_saturates_to_all_ones(self):
        ms = generate_masks(8, 4, 4.0)
        np.testing.assert_array_equal(ms.masks, np.ones((4, 8), dtype=np.uint8))

    def test_deterministic(self):
        assert generate_masks(16, 4, 3.0) == generate_masks(16, 4, 3.0)

    def test_one_shared_read_only_table_per_arguments(self):
        a, b = generate_masks(16, 4, 3.0), generate_masks(np.int64(16), 4, 3)
        assert a == b and a is b
        assert a.scale == 3.0 and isinstance(a.scale, float)
        assert not a.masks.flags.writeable
        with pytest.raises(ValueError):
            a.masks[0, 0] = 1 - a.masks[0, 0]
        assert generate_masks(16, 4, 2.0) != a

    def test_requires_enough_features(self):
        with pytest.raises(ValueError):
            generate_masks(3, 4, 1.0)

    @pytest.mark.parametrize("fn", [(8, 4), (16, 4), (12, 3)])
    def test_overlap_monotone_in_scale(self, fn):
        f, n = fn

        def mean_overlap(scale):
            m = generate_masks(f, n, scale).masks.astype(np.int64)
            total = 0
            pairs = 0
            for i in range(n):
                for j in range(i + 1, n):
                    total += int(np.minimum(m[i], m[j]).sum())
                    pairs += 1
            return total / pairs

        overlaps = [mean_overlap(s) for s in (1.0, 2.0, 3.0, 4.0)]
        assert all(a <= b for a, b in zip(overlaps, overlaps[1:]))

    @given(
        st.integers(4, 64),
        st.integers(2, 6),
        st.floats(1.0, 8.0, allow_nan=False),
    )
    @settings(max_examples=80, deadline=None)
    def test_popcounts_equal_and_positive(self, f, n, scale):
        if f < n:
            f = n
        ms = generate_masks(f, n, scale)
        pops = ms.masks.sum(axis=1)
        assert pops.min() >= 1
        assert pops.min() == pops.max()


class TestMasksemblesForward:
    def test_hand_example(self):
        ms = MaskSet(
            masks=np.array([[1, 0, 0, 1]], dtype=np.uint8), feature_count=4, scale=1.0
        )
        x = np.array([1, 2, 3, 4], dtype=np.float32)
        np.testing.assert_array_equal(
            masksembles_forward(x, 0, ms), np.array([1, 0, 0, 4], dtype=np.float32)
        )

    def test_no_rescaling(self):
        ms = generate_masks(8, 4, 2.0)
        x = np.full(8, 3.0, dtype=np.float32)
        out = masksembles_forward(x, 1, ms)
        assert set(np.unique(out)) <= {np.float32(0.0), np.float32(3.0)}

    def test_rank3_broadcasts_over_channels(self):
        ms = generate_masks(4, 2, 1.0)
        x = np.ones((4, 3, 3), dtype=np.float32)
        out = masksembles_forward(x, 0, ms)
        for c in range(4):
            expected = float(ms.masks[0, c])
            assert np.all(out[c] == np.float32(expected))

    def test_mask_index_bounds(self):
        ms = generate_masks(8, 4, 1.0)
        with pytest.raises(ValueError):
            masksembles_forward(np.ones(8, dtype=np.float32), 4, ms)

    def test_feature_mismatch_rejected(self):
        ms = generate_masks(8, 4, 1.0)
        with pytest.raises(ValueError):
            masksembles_forward(np.ones(6, dtype=np.float32), 0, ms)

    def test_mask_set_round_trip(self):
        ms = generate_masks(12, 3, 2.0)
        assert MaskSet.from_dict(ms.to_dict()) == ms
