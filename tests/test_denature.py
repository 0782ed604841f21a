"""Redaction methods: pixelation, blur, keyed scramble, and the policy
that decides who gets obscured."""

import hashlib

import numpy as np
import pytest

from faceveil.denature import (
    Blur,
    Pixelate,
    RedactionPolicy,
    Scramble,
    apply_policy,
    blur_region,
    denature_regions,
    descramble_regions,
    expand_box,
    gaussian_kernel,
    parse_method,
    pixelate_region,
    scramble_region,
    unscramble_region,
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
        out = pixelate_region(frame, (0, 0, 4, 4), block=2)
        want = np.array(
            [[2, 2, 4, 4], [2, 2, 4, 4], [10, 10, 12, 12], [10, 10, 12, 12]], dtype=np.uint8
        )
        for c in range(3):
            np.testing.assert_array_equal(out[:, :, c], want)

    def test_block_one_is_identity(self):
        rng = np.random.default_rng(0)
        frame = rand_frame(rng)
        out = pixelate_region(frame, (0, 0, 32, 32), block=1)
        np.testing.assert_array_equal(out, frame)

    def test_idempotent(self):
        rng = np.random.default_rng(1)
        frame = rand_frame(rng, 21, 17)  # ragged tiles included
        box = (2, 3, 15, 19)
        once = pixelate_region(frame, box, block=4)
        twice = pixelate_region(once, box, block=4)
        np.testing.assert_array_equal(once, twice)

    def test_tiles_are_constant(self):
        rng = np.random.default_rng(2)
        frame = rand_frame(rng, 16, 16)
        out = pixelate_region(frame, (0, 0, 16, 16), block=8)
        for ys in (slice(0, 8), slice(8, 16)):
            for xs in (slice(0, 8), slice(8, 16)):
                tile = out[ys, xs]
                assert (tile == tile[0, 0]).all()

    def test_outside_untouched(self):
        rng = np.random.default_rng(3)
        frame = rand_frame(rng)
        box = (8, 8, 24, 24)
        out = pixelate_region(frame, box, block=4)
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
        out = blur_region(frame, (0, 0, 20, 20), sigma=2.0)
        np.testing.assert_array_equal(out, frame)

    def test_impulse_spreads_like_separable_kernel(self):
        frame = np.zeros((15, 15, 3), dtype=np.uint8)
        frame[7, 7] = 255
        out = blur_region(frame, (0, 0, 15, 15), sigma=1.0)
        k = gaussian_kernel(1.0)
        assert out[7, 7, 0] == int(np.rint(255.0 * k[3] * k[3]))
        assert out[7, 8, 0] == int(np.rint(255.0 * k[3] * k[4]))
        np.testing.assert_array_equal(out[7, 8], out[7, 6])
        np.testing.assert_array_equal(out[8, 7], out[6, 7])

    def test_blur_smooths_variance(self):
        rng = np.random.default_rng(4)
        frame = rand_frame(rng, 24, 24)
        out = blur_region(frame, (0, 0, 24, 24), sigma=2.5)
        assert out.astype(float).var() < frame.astype(float).var() / 4

    def test_outside_untouched(self):
        rng = np.random.default_rng(5)
        frame = rand_frame(rng)
        out = blur_region(frame, (10, 10, 20, 20), sigma=1.5)
        mask = np.ones((32, 32), dtype=bool)
        mask[10:20, 10:20] = False
        np.testing.assert_array_equal(out[mask], frame[mask])


class TestScramble:
    def test_round_trip_bit_exact(self):
        rng = np.random.default_rng(6)
        frame = rand_frame(rng)
        box = (4, 6, 27, 30)
        scrambled = scramble_region(frame, box, b"secret")
        assert not np.array_equal(scrambled, frame)
        restored = unscramble_region(scrambled, box, b"secret")
        np.testing.assert_array_equal(restored, frame)

    def test_round_trip_box_over_256x256(self):
        # the top 260 * 258 - 65536 draws of this box are 3 bytes wide
        rng = np.random.default_rng(16)
        frame = rand_frame(rng, 270, 266)
        box = (3, 5, 261, 265)
        scrambled = scramble_region(frame, box, b"wide")
        assert not np.array_equal(scrambled[5:265, 3:261], frame[5:265, 3:261])
        np.testing.assert_array_equal(scrambled[:5], frame[:5])
        np.testing.assert_array_equal(unscramble_region(scrambled, box, b"wide"), frame)

    def test_wrong_key_does_not_restore(self):
        rng = np.random.default_rng(7)
        frame = rand_frame(rng)
        box = (0, 0, 32, 32)
        scrambled = scramble_region(frame, box, b"right")
        wrong = unscramble_region(scrambled, box, b"wrong")
        assert not np.array_equal(wrong, frame)

    def test_different_keys_differ(self):
        rng = np.random.default_rng(8)
        frame = rand_frame(rng)
        box = (0, 0, 16, 16)
        a = scramble_region(frame, box, b"key-a")
        b = scramble_region(frame, box, b"key-b")
        assert not np.array_equal(a, b)

    def test_deterministic(self):
        rng = np.random.default_rng(9)
        frame = rand_frame(rng)
        box = (1, 2, 13, 14)
        np.testing.assert_array_equal(
            scramble_region(frame, box, b"k"), scramble_region(frame, box, b"k")
        )

    @pytest.mark.parametrize(
        "h, w",
        [(2, 2), (23, 17), (16, 16), (1, 257), (257, 256)],
        ids=["2x2", "23x17", "16x16", "1x257", "257x256"],
    )
    def test_matches_specified_keystream(self, h, w):
        # independent re-derivation: SHA-256(key | tag | LE u64 counter)
        # keystream, Fisher-Yates permutation by rejection-sampled bytes,
        # then XOR of the shuffled pixel bytes; 23x17 spans 37 pad blocks
        # and draws 2-byte indices, 16x16 draws only 1-byte indices, 1x257
        # one 2-byte draw then 1-byte draws, and 257x256 3-byte draws for
        # its top 256 indices
        key = b"vector"
        frame = (np.arange(h * w * 3) % 256).astype(np.uint8).reshape(h, w, 3)

        def stream(tag):
            counter = 0
            while True:
                block = hashlib.sha256(
                    key + b"|" + tag + b"|" + counter.to_bytes(8, "little")
                ).digest()
                counter += 1
                yield from block

        def randint(gen, bound):
            nbytes = max(1, (int(bound - 1).bit_length() + 7) // 8)
            limit = (256**nbytes // bound) * bound
            while True:
                r = int.from_bytes(bytes(next(gen) for _ in range(nbytes)), "little")
                if r < limit:
                    return r % bound

        perm_gen = stream(b"perm|%dx%d" % (h, w))
        perm = list(range(h * w))
        for i in range(h * w - 1, 0, -1):
            j = randint(perm_gen, i + 1)
            perm[i], perm[j] = perm[j], perm[i]
        shuffled = frame.reshape(h * w, 3)[perm].reshape(-1)
        xor_gen = stream(b"xor|%dx%d" % (h, w))
        pad = bytes(next(xor_gen) for _ in range(shuffled.size))
        want = (shuffled ^ np.frombuffer(pad, dtype=np.uint8)).reshape(h, w, 3)

        got = scramble_region(frame, (0, 0, w, h), key)
        np.testing.assert_array_equal(got, want)

    def test_constant_region_histogram_uniform(self):
        frame = np.full((32, 32, 3), 128, dtype=np.uint8)
        out = scramble_region(frame, (0, 0, 32, 32), b"flat")
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
        scrambled = scramble_region(frame, (-5, -5, 8, 8), b"edge")
        assert not np.array_equal(scrambled[:8, :8], frame[:8, :8])
        np.testing.assert_array_equal(scrambled[8:, :], frame[8:, :])
        restored = unscramble_region(scrambled, (-5, -5, 8, 8), b"edge")
        np.testing.assert_array_equal(restored, frame)

    def test_box_fully_outside_is_noop(self):
        rng = np.random.default_rng(12)
        frame = rand_frame(rng, 8, 8)
        out = scramble_region(frame, (50, 50, 60, 60), b"k")
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

    def test_rejects_unknown_method(self):
        with pytest.raises(ConfigError):
            denature_regions(np.zeros((8, 8, 3), dtype=np.uint8), [(0, 0, 4, 4)], "pixelate")


class TestExpandBox:
    def test_growth_about_center(self):
        assert expand_box((10, 10, 30, 50), 0.1) == (9.0, 8.0, 31.0, 52.0)

    def test_zero_fraction_identity(self):
        assert expand_box((1, 2, 3, 4), 0.0) == (1.0, 2.0, 3.0, 4.0)


class TestRedactionPolicy:
    def test_defaults(self):
        policy = RedactionPolicy()
        assert policy.labels == frozenset({"child"})
        assert policy.redact_on_tie is True
        assert policy.box_expansion == 0.1

    def test_labels_coerced_to_frozenset(self):
        assert RedactionPolicy(labels=["adult"]).labels == frozenset({"adult"})

    def test_unknown_label_rejected(self):
        with pytest.raises(ConfigError):
            RedactionPolicy(labels={"minor"})

    def test_negative_expansion_rejected(self):
        with pytest.raises(ConfigError):
            RedactionPolicy(box_expansion=-0.5)

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
        faces = [((2, 2, 18, 18), "child", 0.9), ((22, 22, 38, 38), "adult", 0.8)]
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
        faces = [((2, 2, 18, 18), "child"), ((22, 22, 38, 38), "adult")]
        policy = RedactionPolicy(labels={"child", "adult"}, box_expansion=0.0)
        out, log = apply_policy(frame, faces, policy, Pixelate(8))
        assert len(log) == 2
        assert not np.array_equal(out[22:38, 22:38], frame[22:38, 22:38])

    def test_tie_redaction_toggle(self):
        rng = np.random.default_rng(16)
        frame = rand_frame(rng, 30, 30)
        faces = [((5, 5, 25, 25), "adult", 0.0, True)]  # tie on the boundary
        on = RedactionPolicy(redact_on_tie=True, box_expansion=0.0)
        out, log = apply_policy(frame, faces, on, Pixelate(4))
        assert log and log[0]["reason"] == "tie"
        assert not np.array_equal(out, frame)
        off = RedactionPolicy(redact_on_tie=False, box_expansion=0.0)
        out2, log2 = apply_policy(frame, faces, off, Pixelate(4))
        assert log2 == []
        np.testing.assert_array_equal(out2, frame)

    def test_unlabeled_face_untouched(self):
        rng = np.random.default_rng(17)
        frame = rand_frame(rng)
        out, log = apply_policy(frame, [((0, 0, 16, 16), None)], RedactionPolicy(), Pixelate(2))
        assert log == []
        np.testing.assert_array_equal(out, frame)

    def test_box_expansion_applied(self):
        rng = np.random.default_rng(18)
        frame = rand_frame(rng, 40, 40)
        faces = [((10, 10, 30, 30), "child")]
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
        out, log = apply_policy(frame, [(box, "child", 0.9)], policy, Scramble(b"exact"))
        assert log[0]["box"] == list(box)
        np.testing.assert_array_equal(out, denature_regions(frame, [box], Scramble(b"exact")))
        logged = [e["box"] for e in log]
        np.testing.assert_array_equal(descramble_regions(out, logged, b"exact"), frame)

    def test_descending_score_application_order(self):
        rng = np.random.default_rng(19)
        frame = rand_frame(rng, 30, 30)
        faces = [
            ((0, 0, 20, 20), "child", 0.2),
            ((10, 10, 30, 30), "child", 0.7),
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
        faces = [((0, 0, 16, 16), "child", 0.5), ((8, 8, 28, 28), "child", 0.5)]
        a, _ = apply_policy(frame, faces, RedactionPolicy(), Blur(1.5))
        b, _ = apply_policy(frame, faces, RedactionPolicy(), Blur(1.5))
        np.testing.assert_array_equal(a, b)
