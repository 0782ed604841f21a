"""Chip extraction, pixel normalization and the embedding contract."""

import numpy as np
import pytest

from faceveil.denature import expand_box
from faceveil.detect import Detection, FaceBox
from faceveil.embed import CHIP_SIZE, FaceChip, align_crop, embed_chip
from faceveil.errors import ConfigError, DegenerateInputError, InvariantError
from faceveil.image import normalize_pixels
from faceveil.models import embedding_net
from faceveil.synth import make_face_chip


class TestNormalize:
    def test_midpoint_maps_to_zero(self):
        assert normalize_pixels(np.array([127.5]))[0] == 0.0

    def test_endpoints(self):
        out = normalize_pixels(np.array([0.0, 255.0]))
        assert out[0] == np.float32(-0.99609375)
        assert out[1] == np.float32(0.99609375)

    def test_dtype_float32(self):
        assert normalize_pixels(np.zeros((3, 2, 2), dtype=np.uint8)).dtype == np.float32


class TestFaceChip:
    def test_holds_normalized_pixels(self):
        chip = FaceChip(np.zeros((3, 8, 8), dtype=np.float32), (0, 0, 8, 8))
        assert chip.pixels.shape == (3, 8, 8)

    def test_wrong_shape_rejected(self):
        with pytest.raises(ConfigError):
            FaceChip(np.zeros((8, 8, 3), dtype=np.float32), (0, 0, 8, 8))

    def test_raw_pixels_rejected(self):
        with pytest.raises(InvariantError):
            FaceChip(np.full((3, 8, 8), 200.0, dtype=np.float32), (0, 0, 8, 8))


class TestAlignCrop:
    def test_default_size_and_range(self):
        img = np.full((3, 200, 200), 255.0, dtype=np.float32)
        chip = align_crop(img, (20, 20, 180, 180))
        assert chip.pixels.shape == (3, CHIP_SIZE, CHIP_SIZE)
        np.testing.assert_allclose(chip.pixels, np.float32(0.99609375))

    def test_accepts_facebox_and_detection(self):
        img = np.random.default_rng(0).uniform(0, 255, size=(3, 50, 50)).astype(np.float32)
        box = FaceBox(5.0, 5.0, 45.0, 45.0, 0.9)
        from_tuple = align_crop(img, (5.0, 5.0, 45.0, 45.0), 32)
        from_box = align_crop(img, box, 32)
        from_det = align_crop(img, Detection(box), 32)
        np.testing.assert_array_equal(from_tuple.pixels, from_box.pixels)
        np.testing.assert_array_equal(from_box.pixels, from_det.pixels)
        assert from_box.box == (5.0, 5.0, 45.0, 45.0)

    def test_margin_expands_box(self):
        img = np.zeros((3, 100, 100), dtype=np.float32)
        img[:, 40:60, 40:60] = 255.0
        tight = align_crop(img, (40, 40, 60, 60), 20)
        loose = align_crop(img, expand_box((40, 40, 60, 60), 1.0), 20)
        assert loose.box == (30.0, 30.0, 70.0, 70.0)
        # the loose chip sees background, the tight one does not
        assert tight.pixels.min() > 0.9
        assert loose.pixels.min() < 0.0

    def test_degenerate_box_raises(self):
        img = np.zeros((3, 50, 50), dtype=np.float32)
        with pytest.raises(DegenerateInputError):
            align_crop(img, (10, 10, 10, 30), 32)
        with pytest.raises(DegenerateInputError):
            align_crop(img, (200, 200, 240, 240), 32)


@pytest.fixture(scope="module")
def small_net():
    net = embedding_net(32)
    weights = net.init_weights(np.random.default_rng(40))
    return net, weights


class TestEmbedChip:
    def test_requires_facechip(self, small_net):
        _, weights = small_net
        with pytest.raises(ConfigError):
            embed_chip(np.zeros((3, 32, 32), dtype=np.float32), weights)

    def test_unit_norm_float32_128d(self, small_net):
        _, weights = small_net
        rng = np.random.default_rng(41)
        chip = FaceChip(normalize_pixels(make_face_chip(rng, "child", 32)), (0, 0, 32, 32))
        emb = embed_chip(chip, weights)
        assert emb.shape == (128,)
        assert emb.dtype == np.float32
        assert abs(float(np.linalg.norm(emb.astype(np.float64))) - 1.0) <= 1e-6

    def test_deterministic(self, small_net):
        _, weights = small_net
        rng = np.random.default_rng(42)
        chip = FaceChip(normalize_pixels(make_face_chip(rng, "adult", 32)), (0, 0, 32, 32))
        np.testing.assert_array_equal(
            embed_chip(chip, weights), embed_chip(chip, weights)
        )

    def test_zero_weights_degenerate_embedding(self, small_net):
        _, weights = small_net
        dead = {name: np.zeros_like(w) for name, w in weights.items()}
        chip = FaceChip(np.zeros((3, 32, 32), dtype=np.float32), (0, 0, 32, 32))
        with pytest.raises(DegenerateInputError):
            embed_chip(chip, dead)

    def test_nan_chip_fails_closed(self, small_net):
        _, weights = small_net
        pixels = np.zeros((3, 32, 32), dtype=np.float32)
        pixels[0, 5, 5] = np.nan
        with pytest.raises(InvariantError):
            embed_chip(FaceChip(pixels, (0, 0, 32, 32)), weights)

    def test_distance_identity_on_unit_vectors(self, small_net):
        # squared distance between unit vectors is 2 - 2 dot
        _, weights = small_net
        rng = np.random.default_rng(43)
        chips = [
            FaceChip(normalize_pixels(make_face_chip(rng, lb, 32)), (0, 0, 32, 32))
            for lb in ("child", "adult")
        ]
        a, b = (embed_chip(c, weights).astype(np.float64) for c in chips)
        d2 = float(np.sum((a - b) ** 2))
        na, nb = float(a @ a), float(b @ b)
        assert d2 == pytest.approx(na + nb - 2.0 * float(a @ b), abs=1e-12)
        # with both norms pinned to 1 the practical form holds to float32 accuracy
        assert d2 == pytest.approx(2.0 - 2.0 * float(a @ b), abs=1e-5)

    def test_embedder_built_once_per_size(self):
        assert embedding_net(32) is embedding_net(32)
        assert embedding_net(32) is not embedding_net(48)

    def test_infer_net_from_chip_size(self, small_net):
        _, weights = small_net
        rng = np.random.default_rng(44)
        chip = FaceChip(normalize_pixels(make_face_chip(rng, "child", 32)), (0, 0, 32, 32))
        emb = embed_chip(chip, weights)  # shared net for pixels.shape
        assert emb.shape == (128,)
