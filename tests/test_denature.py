"""Redaction methods: pixelation, blur, keyed scramble, and the policy
that decides who gets obscured."""

import hashlib
from collections import Counter

import numpy as np
import pytest

from faceveil import denature
from faceveil.denature import (
    MAX_BLUR_SIGMA,
    Blur,
    Pixelate,
    RedactionPolicy,
    Scramble,
    apply_policy,
    denature_regions,
    descramble_regions,
    expand_box,
    gaussian_kernel,
    parse_method,
)
from faceveil.errors import ConfigError


def rand_frame(rng, h=32, w=32):
    return rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8)


class TestParseMethod:
    def test_defaults(self):
        assert parse_method("pixelate") == Pixelate(8)
        assert parse_method("blur") == Blur(2.5)

    def test_arguments(self):
        assert parse_method("pixelate:4") == Pixelate(4)
        assert parse_method("blur:1.5") == Blur(1.5)
        assert parse_method("scramble:00ff") == Scramble(b"\x00\xff")

    @pytest.mark.parametrize(
        "text",
        ["mosaic", "scramble", "scramble:zz", "pixelate:x", "pixelate:0", "blur:0"],
    )
    def test_rejects(self, text):
        with pytest.raises(ConfigError):
            parse_method(text)

    def test_blur_sigma_bounded(self):
        assert parse_method(f"blur:{MAX_BLUR_SIGMA}") == Blur(MAX_BLUR_SIGMA)
        for text in ("blur:inf", "blur:nan", "blur:1e300", f"blur:{MAX_BLUR_SIGMA * 1.01}"):
            with pytest.raises(ConfigError, match="sigma"):
                parse_method(text)

    def test_method_validation(self):
        with pytest.raises(ConfigError):
            Pixelate(0)
        with pytest.raises(ConfigError):
            Blur(-1.0)
        with pytest.raises(ConfigError):
            Scramble(b"")


class TestPixelate:
    def test_hand_example_block2(self):
        base = np.arange(16, dtype=np.uint8).reshape(4, 4)
        frame = np.stack([base] * 3, axis=2)
        out = denature_regions(frame, [(0, 0, 4, 4)], Pixelate(2))
        want = np.array(
            [[2, 2, 4, 4], [2, 2, 4, 4], [10, 10, 12, 12], [10, 10, 12, 12]], dtype=np.uint8
        )
        for c in range(3):
            np.testing.assert_array_equal(out[:, :, c], want)

    def test_block_one_is_identity(self):
        rng = np.random.default_rng(0)
        frame = rand_frame(rng)
        out = denature_regions(frame, [(0, 0, 32, 32)], Pixelate(1))
        np.testing.assert_array_equal(out, frame)

    def test_idempotent(self):
        rng = np.random.default_rng(1)
        frame = rand_frame(rng, 21, 17)  # ragged tiles included
        box = (2, 3, 15, 19)
        once = denature_regions(frame, [box], Pixelate(4))
        twice = denature_regions(once, [box], Pixelate(4))
        np.testing.assert_array_equal(once, twice)

    def test_tiles_are_constant(self):
        rng = np.random.default_rng(2)
        frame = rand_frame(rng, 16, 16)
        out = denature_regions(frame, [(0, 0, 16, 16)], Pixelate(8))
        for ys in (slice(0, 8), slice(8, 16)):
            for xs in (slice(0, 8), slice(8, 16)):
                tile = out[ys, xs]
                assert (tile == tile[0, 0]).all()

    def test_outside_untouched(self):
        rng = np.random.default_rng(3)
        frame = rand_frame(rng)
        box = (8, 8, 24, 24)
        out = denature_regions(frame, [box], Pixelate(4))
        mask = np.ones((32, 32), dtype=bool)
        mask[8:24, 8:24] = False
        np.testing.assert_array_equal(out[mask], frame[mask])


class TestBlur:
    def test_kernel_radius_and_normalization(self):
        k = gaussian_kernel(1.0)
        assert k.size == 2 * 3 + 1  # radius ceil(3 sigma)
        assert k.sum() == pytest.approx(1.0)
        assert k[3] == k.max()
        np.testing.assert_allclose(k, k[::-1])

    def test_constant_region_unchanged(self):
        frame = np.full((20, 20, 3), 77, dtype=np.uint8)
        out = denature_regions(frame, [(0, 0, 20, 20)], Blur(2.0))
        np.testing.assert_array_equal(out, frame)

    def test_impulse_spreads_like_separable_kernel(self):
        frame = np.zeros((15, 15, 3), dtype=np.uint8)
        frame[7, 7] = 255
        out = denature_regions(frame, [(0, 0, 15, 15)], Blur(1.0))
        k = gaussian_kernel(1.0)
        assert out[7, 7, 0] == int(np.rint(255.0 * k[3] * k[3]))
        assert out[7, 8, 0] == int(np.rint(255.0 * k[3] * k[4]))
        np.testing.assert_array_equal(out[7, 8], out[7, 6])
        np.testing.assert_array_equal(out[8, 7], out[6, 7])

    def test_blur_smooths_variance(self):
        rng = np.random.default_rng(4)
        frame = rand_frame(rng, 24, 24)
        out = denature_regions(frame, [(0, 0, 24, 24)], Blur(2.5))
        assert out.astype(float).var() < frame.astype(float).var() / 4

    def test_outside_untouched(self):
        rng = np.random.default_rng(5)
        frame = rand_frame(rng)
        out = denature_regions(frame, [(10, 10, 20, 20)], Blur(1.5))
        mask = np.ones((32, 32), dtype=bool)
        mask[10:20, 10:20] = False
        np.testing.assert_array_equal(out[mask], frame[mask])


class TestScramble:
    def test_round_trip_bit_exact(self):
        rng = np.random.default_rng(6)
        frame = rand_frame(rng)
        box = (4, 6, 27, 30)
        scrambled = denature_regions(frame, [box], Scramble(b"secret"))
        assert not np.array_equal(scrambled, frame)
        restored = descramble_regions(scrambled, [box], b"secret")
        np.testing.assert_array_equal(restored, frame)

    def test_round_trip_box_over_256x256(self):
        rng = np.random.default_rng(16)
        frame = rand_frame(rng, 270, 266)
        box = (3, 5, 261, 265)
        scrambled = denature_regions(frame, [box], Scramble(b"wide"))
        assert not np.array_equal(scrambled[5:265, 3:261], frame[5:265, 3:261])
        np.testing.assert_array_equal(scrambled[:5], frame[:5])
        np.testing.assert_array_equal(descramble_regions(scrambled, [box], b"wide"), frame)

    def test_wrong_key_does_not_restore(self):
        rng = np.random.default_rng(7)
        frame = rand_frame(rng)
        box = (0, 0, 32, 32)
        scrambled = denature_regions(frame, [box], Scramble(b"right"))
        wrong = descramble_regions(scrambled, [box], b"wrong")
        assert not np.array_equal(wrong, frame)

    def test_different_keys_differ(self):
        rng = np.random.default_rng(8)
        frame = rand_frame(rng)
        box = (0, 0, 16, 16)
        a = denature_regions(frame, [box], Scramble(b"key-a"))
        b = denature_regions(frame, [box], Scramble(b"key-b"))
        assert not np.array_equal(a, b)

    def test_deterministic(self):
        rng = np.random.default_rng(9)
        frame = rand_frame(rng)
        box = (1, 2, 13, 14)
        np.testing.assert_array_equal(
            denature_regions(frame, [box], Scramble(b"k")),
            denature_regions(frame, [box], Scramble(b"k")),
        )

    @pytest.mark.parametrize(
        "h, w", [(2, 2), (23, 17), (1, 257), (257, 256)], ids=["2x2", "23x17", "1x257", "257x256"]
    )
    def test_matches_specified_keystream_v2(self, h, w):
        # independent re-derivation: SHAKE-256(len(key) as LE u64 | key |
        # "scramble2|HxWx3"); its first 8 bytes per pixel are LE u64 sort
        # keys, sorted with ties by pixel index into the permutation, and
        # its next 3 bytes per pixel XOR the shuffled pixel bytes
        key = b"vector"
        n = h * w
        frame = (np.arange(n * 3) % 256).astype(np.uint8).reshape(h, w, 3)
        seed = len(key).to_bytes(8, "little") + key + f"scramble2|{h}x{w}x3".encode()
        stream = hashlib.shake_256(seed).digest(11 * n)
        sort_keys = [int.from_bytes(stream[8 * i : 8 * i + 8], "little") for i in range(n)]
        perm = sorted(range(n), key=lambda i: (sort_keys[i], i))
        shuffled = frame.reshape(n, 3)[perm].reshape(-1)
        want = (shuffled ^ np.frombuffer(stream[8 * n :], dtype=np.uint8)).reshape(h, w, 3)

        got = denature_regions(frame, [(0, 0, w, h)], Scramble(key))
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(descramble_regions(got, [(0, 0, w, h)], key), frame)

    @pytest.mark.parametrize("version", [0, 1, 3])
    def test_unknown_version_rejected(self, version):
        frame = np.zeros((4, 4, 3), dtype=np.uint8)
        with pytest.raises(ConfigError, match="scramble version"):
            descramble_regions(frame, [(0, 0, 4, 4)], b"k", version=version)

    @pytest.mark.parametrize("key", [b"", "k"], ids=["empty", "str"])
    def test_bad_descramble_key_rejected(self, key):
        # the key Scramble would refuse to write with is refused to read with
        frame = np.zeros((4, 4, 3), dtype=np.uint8)
        with pytest.raises(ConfigError, match="scramble key"):
            descramble_regions(frame, [(0, 0, 4, 4)], key)

    @staticmethod
    def _shuffled_ids(ids, key):
        # a region and a zero region of the same shape share the keystream,
        # so XORing their outputs cancels the pad and leaves the shuffle
        h, w = ids.shape[:2]
        frame = np.concatenate([ids, np.zeros_like(ids)], axis=1)
        out = denature_regions(frame, [(0, 0, w, h), (w, 0, 2 * w, h)], Scramble(key))
        return (out[:, :w] ^ out[:, w:]).reshape(h * w, 3).astype(np.int64)

    @pytest.mark.parametrize("h, w", [(1, 1), (1, 300), (300, 1), (257, 256)])
    def test_pixels_move_by_a_permutation(self, h, w):
        n = h * w
        ids = np.arange(n)
        region = np.stack([ids & 255, (ids >> 8) & 255, ids >> 16], axis=-1)
        got = self._shuffled_ids(region.astype(np.uint8).reshape(h, w, 3), b"perm")
        np.testing.assert_array_equal(np.sort(got[:, 0] | got[:, 1] << 8 | got[:, 2] << 16), ids)

    def test_orderings_of_2x2_uniform(self):
        # 2400 keys, 100 expected per ordering of the 4 pixels
        ids = np.arange(4, dtype=np.uint8).reshape(2, 2, 1).repeat(3, axis=2)
        counts = Counter(
            tuple(self._shuffled_ids(ids, b"order%d" % k)[:, 0]) for k in range(2400)
        )
        assert len(counts) == 24
        chi2 = sum((c - 100) ** 2 / 100 for c in counts.values())
        assert chi2 < 49.73  # 0.999 quantile of chi-square with 23 dof

    def test_tied_sort_keys_break_by_pixel_index(self, monkeypatch):
        # ties never occur in practice, so feed keys with many: i % 5
        n = 64 * 64
        sort_keys = (np.arange(n, dtype="<u8") % 5).tobytes()

        class Stream:
            def __init__(self, seed):
                pass

            def digest(self, size):
                return sort_keys + bytes(size - len(sort_keys))

        monkeypatch.setattr(denature.hashlib, "shake_256", Stream)
        frame = rand_frame(np.random.default_rng(5), 64, 64)
        out = denature_regions(frame, [(0, 0, 64, 64)], Scramble(b"k"))
        perm = sorted(range(n), key=lambda i: (i % 5, i))
        np.testing.assert_array_equal(out.reshape(n, 3), frame.reshape(n, 3)[perm])

    def test_constant_region_histogram_uniform(self):
        frame = np.full((32, 32, 3), 128, dtype=np.uint8)
        out = denature_regions(frame, [(0, 0, 32, 32)], Scramble(b"flat"))
        counts = np.bincount(out.reshape(-1), minlength=256)
        expected = out.size / 256.0
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert chi2 < 340.0  # 255 dof; flat XOR keystream sits near 255

    def test_overlapping_boxes_round_trip(self):
        rng = np.random.default_rng(10)
        frame = rand_frame(rng)
        boxes = [(0, 0, 20, 20), (10, 10, 30, 30)]
        scrambled = denature_regions(frame, boxes, Scramble(b"pile"))
        restored = descramble_regions(scrambled, boxes, b"pile")
        np.testing.assert_array_equal(restored, frame)

    def test_box_clipped_to_frame(self):
        rng = np.random.default_rng(11)
        frame = rand_frame(rng, 16, 16)
        scrambled = denature_regions(frame, [(-5, -5, 8, 8)], Scramble(b"edge"))
        assert not np.array_equal(scrambled[:8, :8], frame[:8, :8])
        np.testing.assert_array_equal(scrambled[8:, :], frame[8:, :])
        restored = descramble_regions(scrambled, [(-5, -5, 8, 8)], b"edge")
        np.testing.assert_array_equal(restored, frame)

    def test_box_fully_outside_is_noop(self):
        rng = np.random.default_rng(12)
        frame = rand_frame(rng, 8, 8)
        out = denature_regions(frame, [(50, 50, 60, 60)], Scramble(b"k"))
        np.testing.assert_array_equal(out, frame)


class TestDenatureRegions:
    def test_returns_copy(self):
        frame = np.zeros((8, 8, 3), dtype=np.uint8)
        out = denature_regions(frame, [], Pixelate(2))
        assert out is not frame
        np.testing.assert_array_equal(out, frame)

    def test_rejects_non_uint8(self):
        with pytest.raises(ConfigError):
            denature_regions(np.zeros((8, 8, 3), dtype=np.float32), [], Pixelate(2))

    def test_rejects_four_channels(self):
        with pytest.raises(ConfigError, match="H,W,3"):
            denature_regions(np.zeros((8, 8, 4), dtype=np.uint8), [(0, 0, 4, 4)], Pixelate(2))

    def test_rejects_unknown_method(self):
        with pytest.raises(ConfigError):
            denature_regions(np.zeros((8, 8, 3), dtype=np.uint8), [(0, 0, 4, 4)], "pixelate")


class TestExpandBox:
    def test_growth_about_center(self):
        assert expand_box((10, 10, 30, 50), 0.1) == (9.0, 8.0, 31.0, 52.0)

    def test_zero_fraction_identity(self):
        assert expand_box((1, 2, 3, 4), 0.0) == (1.0, 2.0, 3.0, 4.0)


class TestOverflowingBox:
    def test_huge_expansion_redacts_and_descrambles(self):
        frame = rand_frame(np.random.default_rng(32), 12, 16)
        policy = RedactionPolicy(box_expansion=1e308)
        faces = [((4, 4, 8, 8), "child", 0.9, False)]
        out, log = apply_policy(frame, faces, policy, Scramble(b"k"))
        assert log[0]["box"] == [0.0, 0.0, 16.0, 12.0]  # the grown box clamped to the frame
        whole = denature_regions(frame, [(0, 0, 16, 12)], Scramble(b"k"))
        np.testing.assert_array_equal(out, whole)
        restored = descramble_regions(out, [entry["box"] for entry in log], b"k")
        np.testing.assert_array_equal(restored, frame)


class TestRedactionPolicy:
    def test_defaults(self):
        policy = RedactionPolicy()
        assert policy.labels == frozenset({"child"})
        assert policy.box_expansion == 0.1

    def test_labels_coerced_to_frozenset(self):
        assert RedactionPolicy(labels=["adult"]).labels == frozenset({"adult"})

    def test_unknown_label_rejected(self):
        with pytest.raises(ConfigError):
            RedactionPolicy(labels={"minor"})

    def test_negative_expansion_rejected(self):
        with pytest.raises(ConfigError):
            RedactionPolicy(box_expansion=-0.5)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_expansion_rejected(self, value):
        with pytest.raises(ConfigError, match="finite"):
            RedactionPolicy(box_expansion=value)

    def test_empty_labels_allowed(self):
        assert RedactionPolicy(labels=frozenset()).labels == frozenset()


class TestApplyPolicy:
    def test_no_faces(self):
        rng = np.random.default_rng(13)
        frame = rand_frame(rng)
        out, log = apply_policy(frame, [], RedactionPolicy(), Pixelate(4))
        assert out is not frame
        np.testing.assert_array_equal(out, frame)
        assert log == []

    def test_only_policy_labels_redacted(self):
        rng = np.random.default_rng(14)
        frame = rand_frame(rng, 40, 40)
        faces = [((2, 2, 18, 18), "child", 0.9, False), ((22, 22, 38, 38), "adult", 0.8, False)]
        policy = RedactionPolicy(box_expansion=0.0)
        out, log = apply_policy(frame, faces, policy, Scramble(b"k"))
        assert not np.array_equal(out[2:18, 2:18], frame[2:18, 2:18])
        np.testing.assert_array_equal(out[22:38, 22:38], frame[22:38, 22:38])
        assert [e["index"] for e in log] == [0]
        assert log[0]["reason"] == "label"
        assert log[0]["label"] == "child"

    def test_both_labels(self):
        rng = np.random.default_rng(15)
        frame = rand_frame(rng, 40, 40)
        faces = [((2, 2, 18, 18), "child", 0.0, False), ((22, 22, 38, 38), "adult", 0.0, False)]
        policy = RedactionPolicy(labels={"child", "adult"}, box_expansion=0.0)
        out, log = apply_policy(frame, faces, policy, Pixelate(8))
        assert len(log) == 2
        assert not np.array_equal(out[22:38, 22:38], frame[22:38, 22:38])

    def test_tie_redaction_toggle(self):
        rng = np.random.default_rng(16)
        frame = rand_frame(rng, 30, 30)
        faces = [((5, 5, 25, 25), "adult", 0.0, True)]  # tie on the boundary
        out, log = apply_policy(frame, faces, RedactionPolicy(box_expansion=0.0), Pixelate(4))
        assert log and log[0]["reason"] == "tie"
        assert not np.array_equal(out, frame)

    def test_unlabeled_face_untouched(self):
        rng = np.random.default_rng(17)
        frame = rand_frame(rng)
        faces = [((0, 0, 16, 16), None, 0.0, False)]
        out, log = apply_policy(frame, faces, RedactionPolicy(), Pixelate(2))
        assert log == []
        np.testing.assert_array_equal(out, frame)

    def test_box_expansion_applied(self):
        rng = np.random.default_rng(18)
        frame = rand_frame(rng, 40, 40)
        faces = [((10, 10, 30, 30), "child", 0.0, False)]
        policy = RedactionPolicy(box_expansion=0.5)  # grows to (5, 5, 35, 35)
        out, log = apply_policy(frame, faces, policy, Scramble(b"grow"))
        assert log[0]["box"] == [5.0, 5.0, 35.0, 35.0]
        assert not np.array_equal(out[5:10, 5:35], frame[5:10, 5:35])

    @pytest.mark.parametrize("eps", [0.0003, -0.0003])
    def test_logged_boxes_descramble_bit_exact(self, eps):
        # edges a hair off the pixel grid: rounding the logged box to 3
        # decimals would move floor/ceil by a whole pixel
        rng = np.random.default_rng(21)
        frame = rand_frame(rng, 40, 40)
        box = (6 + eps, 7 - eps, 27 + eps, 30 - eps)
        policy = RedactionPolicy(box_expansion=0.0)
        out, log = apply_policy(frame, [(box, "child", 0.9, False)], policy, Scramble(b"exact"))
        assert log[0]["box"] == list(box)
        np.testing.assert_array_equal(out, denature_regions(frame, [box], Scramble(b"exact")))
        logged = [e["box"] for e in log]
        np.testing.assert_array_equal(descramble_regions(out, logged, b"exact"), frame)

    def test_descending_score_application_order(self):
        rng = np.random.default_rng(19)
        frame = rand_frame(rng, 30, 30)
        faces = [
            ((0, 0, 20, 20), "child", 0.2, False),
            ((10, 10, 30, 30), "child", 0.7, False),
        ]
        policy = RedactionPolicy(box_expansion=0.0)
        out, log = apply_policy(frame, faces, policy, Scramble(b"order"))
        want = denature_regions(
            frame, [(10, 10, 30, 30), (0, 0, 20, 20)], Scramble(b"order")
        )
        np.testing.assert_array_equal(out, want)
        assert [e["index"] for e in log] == [1, 0]

    def test_deterministic(self):
        rng = np.random.default_rng(20)
        frame = rand_frame(rng)
        faces = [((0, 0, 16, 16), "child", 0.5, False), ((8, 8, 28, 28), "child", 0.5, False)]
        a, _ = apply_policy(frame, faces, RedactionPolicy(), Blur(1.5))
        b, _ = apply_policy(frame, faces, RedactionPolicy(), Blur(1.5))
        np.testing.assert_array_equal(a, b)
