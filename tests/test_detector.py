"""Cascade detector: pyramid, proposal scan, NMS, box refinement,
crop geometry, refinement stages and the end-to-end path."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from faceveil.detect import (
    PAIR_BLOCK,
    Detection,
    DetectorConfig,
    FaceBox,
    _decode_landmarks,
    build_pyramid,
    detect_faces,
    nms,
    pnet_scan,
    pyramid_scales,
    refine_boxes,
    refinement_stage,
    scan_proposals,
)
from faceveil.errors import ConfigError, DegenerateInputError, InvariantError
from faceveil.image import (
    bilinear_resize,
    box_in_image,
    crop_resize,
    crop_resize_batch,
    normalize_pixels,
)
from faceveil.models import detector_nets
from faceveil.synth import box_iou, make_portrait


class TestPyramid:
    def test_12px_image_single_scale(self):
        assert pyramid_scales(12, 12, min_face_size=12) == [1.0]

    def test_240px_default_schedule(self):
        scales = pyramid_scales(240, 240, 20)
        assert len(scales) == 8
        assert scales[0] == pytest.approx(0.6)
        for k, s in enumerate(scales):
            assert s == pytest.approx(0.6 * 0.709**k)
        assert 240 * scales[-1] >= 12.0
        assert 240 * scales[-1] * 0.709 < 12.0

    def test_short_side_governs(self):
        assert pyramid_scales(1000, 25, 20) == pytest.approx([0.6])
        assert pyramid_scales(25, 1000, 20) == pytest.approx([0.6])

    def test_image_below_window_empty(self):
        assert pyramid_scales(11, 500, 20) == []

    def test_build_pyramid_levels(self):
        rng = np.random.default_rng(0)
        img = rng.uniform(0, 255, size=(3, 100, 60)).astype(np.float32)
        levels = build_pyramid(img)
        scales = pyramid_scales(100, 60, DetectorConfig().min_face_size)
        assert [s for s, _ in levels] == pytest.approx(scales)
        for s, lv in levels:
            assert lv.shape == (3, int(np.ceil(100 * s)), int(np.ceil(60 * s)))
        # largest first, strictly shrinking
        assert all(a[0] > b[0] for a, b in zip(levels, levels[1:]))

    def test_constant_image_stays_constant(self):
        img = np.full((3, 50, 50), 37.0, dtype=np.float32)
        for _, lv in build_pyramid(img):
            np.testing.assert_array_equal(lv, 37.0)

    def test_no_scale_fits_is_degenerate(self):
        with pytest.raises(DegenerateInputError):
            build_pyramid(np.zeros((3, 8, 8), dtype=np.float32))

    def test_wrong_layout_rejected(self):
        with pytest.raises(ConfigError):
            build_pyramid(np.zeros((50, 50, 3), dtype=np.float32))


class TestDetectorConfig:
    def test_defaults_valid(self):
        cfg = DetectorConfig()
        assert cfg.min_face_size == 20
        assert cfg.thresholds == (0.85, 0.8, 0.9)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"min_face_size": 11},
            {"min_face_size": 0},
            {"thresholds": (-0.1, 0.5, 0.5)},
            {"thresholds": (0.5, 0.5)},
            {"thresholds": (0.5, 0.5, 1.5)},
        ],
    )
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            DetectorConfig(**kwargs)


class TestScanProposals:
    def test_nothing_over_threshold(self):
        prob = np.zeros((2, 3, 3))
        boxes, scores, offsets = scan_proposals(prob, np.zeros((4, 3, 3)), 1.0, 0.5)
        assert boxes.shape == (0, 4)
        assert scores.shape == (0,)
        assert offsets.shape == (0, 4)

    def test_origin_cell_scale_one(self):
        prob = np.zeros((2, 1, 1))
        prob[1, 0, 0] = 0.9
        boxes, scores, _ = scan_proposals(prob, np.zeros((4, 1, 1)), 1.0, 0.5)
        np.testing.assert_array_equal(boxes, [[0, 0, 12, 12]])
        assert scores[0] == pytest.approx(0.9)

    def test_cell_mapping_with_scale(self):
        prob = np.zeros((2, 4, 5))
        prob[1, 2, 3] = 0.8
        boxes, _, _ = scan_proposals(prob, np.zeros((4, 4, 5)), 0.5, 0.5)
        np.testing.assert_array_equal(boxes, [[12, 8, 36, 32]])

    def test_threshold_is_inclusive(self):
        prob = np.zeros((2, 1, 1))
        prob[1] = 0.6
        boxes, _, _ = scan_proposals(prob, np.zeros((4, 1, 1)), 1.0, 0.6)
        assert boxes.shape == (1, 4)

    def test_offsets_follow_their_cells(self):
        prob = np.zeros((2, 2, 2))
        prob[1, 0, 1] = 0.9
        prob[1, 1, 0] = 0.7
        reg = np.arange(16, dtype=float).reshape(4, 2, 2)
        _, scores, offsets = scan_proposals(prob, reg, 1.0, 0.5)
        # rows come out in scan order (row-major over the map)
        np.testing.assert_allclose(scores, [0.9, 0.7])
        np.testing.assert_allclose(offsets[0], reg[:, 0, 1])
        np.testing.assert_allclose(offsets[1], reg[:, 1, 0])


class TestNms:
    def test_empty(self):
        assert nms(np.zeros((0, 4)), np.zeros(0), 0.5).size == 0

    def test_single_box(self):
        keep = nms([[0, 0, 10, 10]], [0.7], 0.5)
        np.testing.assert_array_equal(keep, [0])

    def test_duplicate_boxes_suppressed(self):
        boxes = [[0, 0, 10, 10], [0, 0, 10, 10]]
        np.testing.assert_array_equal(nms(boxes, [0.9, 0.8], 0.5), [0])

    def test_tie_keeps_lower_index(self):
        boxes = [[0, 0, 10, 10], [100, 100, 110, 110]]
        np.testing.assert_array_equal(nms(boxes, [0.5, 0.5], 0.3), [0, 1])
        np.testing.assert_array_equal(nms([[0, 0, 10, 10]] * 2, [0.5, 0.5], 0.3), [0])

    def test_disjoint_boxes_sorted_by_score(self):
        boxes = [[0, 0, 1, 1], [10, 10, 11, 11], [20, 20, 21, 21]]
        np.testing.assert_array_equal(nms(boxes, [0.1, 0.9, 0.5], 0.5), [1, 2, 0])

    def test_min_mode_suppresses_contained_box(self):
        big = [0, 0, 100, 100]
        small = [10, 10, 20, 20]  # IoU 0.01, containment 1.0
        assert list(nms([big, small], [0.9, 0.8], 0.5, mode="union")) == [0, 1]
        assert list(nms([big, small], [0.9, 0.8], 0.5, mode="min")) == [0]

    def test_bad_mode_and_shapes(self):
        with pytest.raises(ConfigError):
            nms([[0, 0, 1, 1]], [0.5], 0.5, mode="avg")
        with pytest.raises(ConfigError):
            nms([[0, 0, 1, 1]], [0.5, 0.6], 0.5)

    @pytest.mark.parametrize("threshold", [-0.1, 1.01, float("nan")])
    def test_threshold_outside_unit_interval_rejected(self, threshold):
        # only boxes that overlap in x are scored, which is exact only if a
        # zero overlap never suppresses; a negative cut would drop disjoint boxes
        boxes = [[0, 0, 10, 10], [20, 20, 30, 30]]
        for mode in ("union", "min"):
            with pytest.raises(ConfigError):
                nms(boxes, [0.9, 0.8], threshold, mode=mode)

    @pytest.mark.parametrize("threshold", [0.0, 1.0])
    def test_threshold_ends_are_exact(self, threshold):
        # at 0 any positive overlap suppresses and touching edges do not; at
        # 1 only a duplicate box could, and overlap 1.0 does not exceed it
        boxes = [[0, 0, 10, 10], [10, 0, 20, 10], [5, 5, 15, 15], [0, 0, 10, 10]]
        scores = [0.9, 0.8, 0.7, 0.6]
        for mode in ("union", "min"):
            want = oracles.nms_brute(boxes, scores, threshold, mode)
            assert list(nms(boxes, scores, threshold, mode=mode)) == want
        assert list(nms(boxes, scores, 0.0)) == [0, 1]
        assert list(nms(boxes, scores, 1.0)) == [0, 1, 2, 3]

    def test_matches_brute_force(self):
        rng = np.random.default_rng(12)
        for _ in range(150):
            n = int(rng.integers(1, 40))
            corners = rng.integers(0, 12, size=(n, 2)).astype(float)
            sides = rng.integers(1, 10, size=(n, 2)).astype(float)
            boxes = np.concatenate([corners, corners + sides], axis=1)
            scores = rng.integers(0, 8, size=n) / 8.0  # coarse grid forces ties
            thr = float(rng.choice([0.2, 0.4, 0.6]))
            mode = "min" if rng.integers(2) else "union"
            got = list(nms(boxes, scores, thr, mode=mode))
            want = oracles.nms_brute(boxes.tolist(), scores.tolist(), thr, mode)
            assert got == want

    @pytest.mark.parametrize("mode", ["union", "min"])
    def test_level_zero_grid_matches_brute_force(self, mode):
        # P-Net scale: a dense 24x18 grid of equal 12 px boxes at stride 2, as
        # one pyramid level proposes them, with coarse tied scores, shared x1
        # values and touching edges; its x-overlapping pairs fill several passes
        side, cols, rows = 12.0, 24, 18
        jj, ii = np.meshgrid(np.arange(cols), np.arange(rows))
        x1, y1 = 2.0 * jj.ravel(), 2.0 * ii.ravel()
        boxes = np.stack([x1, y1, x1 + side, y1 + side], axis=1)
        scores = np.random.default_rng(14).integers(0, 6, size=len(boxes)) / 6.0
        pairs = (np.count_nonzero(np.abs(x1[:, None] - x1) < side) - len(x1)) // 2
        assert len(boxes) == 432 and pairs > 2 * PAIR_BLOCK
        for thr in (0.0, 0.3, 0.5, 0.7):
            got = list(nms(boxes, scores, thr, mode=mode))
            assert got == oracles.nms_brute(boxes.tolist(), scores.tolist(), thr, mode), thr

    def test_kept_set_properties(self):
        rng = np.random.default_rng(13)
        boxes = np.concatenate([rng.uniform(0, 50, (30, 2)), rng.uniform(51, 99, (30, 2))], axis=1)
        scores = rng.uniform(size=30)
        keep = nms(boxes, scores, 0.4)
        assert len(set(keep.tolist())) == len(keep)
        assert list(scores[keep]) == sorted(scores[keep], reverse=True)
        for a in range(len(keep)):
            for b in range(a + 1, len(keep)):
                ov = oracles._overlap(tuple(boxes[keep[a]]), tuple(boxes[keep[b]]), "union")
                assert ov <= 0.4


class TestRefineBoxes:
    def test_zero_offsets_keep_square(self):
        out, keep = refine_boxes([[0, 0, 10, 10]], [[0, 0, 0, 0]])
        np.testing.assert_allclose(out, [[0, 0, 10, 10]])
        assert (~keep).sum() == 0

    def test_uniform_offset_shifts(self):
        out, _ = refine_boxes([[0, 0, 10, 10]], [[0.1, 0.1, 0.1, 0.1]])
        np.testing.assert_allclose(out, [[1, 1, 11, 11]])

    def test_rectangle_squared_about_center(self):
        out, _ = refine_boxes([[0, 0, 10, 20]], [[0, 0, 0, 0]])
        np.testing.assert_allclose(out, [[-5, 0, 15, 20]])

    def test_collapsed_box_dropped_and_counted(self):
        boxes = [[0, 0, 10, 10], [0, 0, 10, 10]]
        offsets = [[0, 0, 0, 0], [1.0, 0, -1.0, 0]]  # second collapses to w<0
        out, keep = refine_boxes(boxes, offsets)
        assert out.shape == (1, 4)
        assert (~keep).sum() == 1
        assert keep.tolist() == [True, False]

    def test_shape_mismatch(self):
        with pytest.raises(ConfigError):
            refine_boxes([[0, 0, 1, 1]], [[0, 0, 0]])

    def test_empty_input(self):
        out, keep = refine_boxes(np.zeros((0, 4)), np.zeros((0, 4)))
        assert out.shape == (0, 4)
        assert (~keep).sum() == 0

    def test_runaway_edge_fails_closed(self):
        # 10 px * 1e15 puts the right edge past MAX_BOX_EDGE: broken weights
        with pytest.raises(InvariantError, match="refined box edge past"):
            refine_boxes([[0, 0, 10, 10]], [[0, 0, 1e15, 0]])


class TestCropGeometry:
    def test_bilinear_identity(self):
        rng = np.random.default_rng(1)
        img = rng.uniform(0, 255, size=(3, 9, 7))
        np.testing.assert_allclose(bilinear_resize(img, 9, 7), img)

    def test_bilinear_constant_any_size(self):
        img = np.full((1, 3, 3), 200.0, dtype=np.float32)
        np.testing.assert_array_equal(bilinear_resize(img, 7, 5), 200.0)

    def test_bilinear_ramp_hand_values(self):
        img = np.array([[[0.0, 255.0]]])
        out = bilinear_resize(img, 1, 4)
        np.testing.assert_allclose(out[0, 0], [0.0, 63.75, 191.25, 255.0])

    def test_bilinear_matches_pointwise_oracle(self):
        rng = np.random.default_rng(2)
        img = rng.uniform(0, 255, size=(2, 5, 8))
        out_h, out_w = 11, 3
        got = bilinear_resize(img, out_h, out_w)
        for ch in range(2):
            for i in range(out_h):
                for j in range(out_w):
                    sy = (i + 0.5) * (5 / out_h) - 0.5
                    sx = (j + 0.5) * (8 / out_w) - 0.5
                    want = oracles.bilinear_point(img, ch, sy, sx)
                    assert got[ch, i, j] == pytest.approx(want, abs=1e-9)

    def test_crop_identity(self):
        rng = np.random.default_rng(3)
        img = rng.uniform(0, 255, size=(3, 6, 6))
        np.testing.assert_allclose(crop_resize(img, (0, 0, 6, 6), 6), img)

    def test_crop_edges_round_half_up(self):
        img = np.arange(16, dtype=np.float32).reshape(1, 4, 4)
        out = crop_resize(img, (0.5, 0.5, 2.5, 2.5), 2)
        np.testing.assert_allclose(out, img[:, 1:3, 1:3])

    def test_crop_pads_zeros_outside(self):
        img = np.full((1, 4, 4), 255.0, dtype=np.float32)
        out = crop_resize(img, (-2, -2, 2, 2), 4)
        np.testing.assert_array_equal(out[0, :2, :], 0.0)
        np.testing.assert_array_equal(out[0, :, :2], 0.0)
        np.testing.assert_array_equal(out[0, 2:, 2:], 255.0)

    def test_empty_box_degenerate(self):
        img = np.zeros((3, 4, 4))
        with pytest.raises(DegenerateInputError):
            crop_resize(img, (2, 2, 2, 3), 4)

    def test_box_fully_outside_degenerate(self):
        img = np.zeros((3, 4, 4))
        with pytest.raises(DegenerateInputError):
            crop_resize(img, (10, 10, 14, 14), 4)
        with pytest.raises(DegenerateInputError):
            crop_resize(img, (-8, 0, -4, 4), 4)

    @pytest.mark.parametrize("out_h, out_w", [(24, 24), (48, 48), (5, 5), (7, 13)])
    def test_batch_gather_matches_pointwise_oracle(self, out_h, out_w):
        img = np.random.default_rng(7).uniform(0, 255, size=(3, 30, 40))
        boxes = [
            (-6.4, 5.0, 10.6, 21.0),  # crosses the left border
            (30.5, 8.2, 47.1, 24.9),  # right
            (12.0, -9.5, 26.0, 4.5),  # top
            (14.3, 22.7, 29.6, 37.4),  # bottom
            (-5.0, -5.0, 45.0, 35.0),  # all four
            (-20.0, 26.0, 1.0, 47.0),  # one corner pixel inside
            (3.5, 4.5, 19.5, 12.5),  # inside, half-pixel edges, not square
            (39.0, 29.0, 40.0, 30.0),  # the last pixel alone
        ]
        got = crop_resize_batch(img, boxes, out_h, out_w)
        assert got.shape == (3, out_h, out_w, len(boxes)) and got.dtype == np.float64
        for n, box in enumerate(boxes):
            want = oracles.crop_resize_direct(img, box, out_h, out_w)
            np.testing.assert_allclose(got[..., n], want, rtol=0, atol=1e-9)
        got32 = crop_resize_batch(img.astype(np.float32), boxes, out_h, out_w)
        assert got32.dtype == np.float32

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_batch_gather_property_against_oracle(self, data):
        h, w = data.draw(st.integers(1, 9)), data.draw(st.integers(1, 9))
        img = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).uniform(
            0, 255, size=(2, h, w))
        edge = st.floats(-12.0, 12.0, allow_nan=False, allow_infinity=False)
        side = st.floats(0.5, 16.0, allow_nan=False, allow_infinity=False)
        boxes = []
        for _ in range(data.draw(st.integers(1, 3))):
            x1, y1 = data.draw(edge), data.draw(edge)
            boxes.append((x1, y1, x1 + data.draw(side), y1 + data.draw(side)))
        assume(box_in_image(boxes, h, w).all())
        out_h, out_w = data.draw(st.integers(1, 10)), data.draw(st.integers(1, 10))
        got = crop_resize_batch(img, boxes, out_h, out_w)
        for n, box in enumerate(boxes):
            want = oracles.crop_resize_direct(img, box, out_h, out_w)
            np.testing.assert_allclose(got[..., n], want, rtol=0, atol=1e-9)

    def test_batch_gather_rejects_outside_box(self):
        img = np.zeros((3, 4, 4), dtype=np.float32)
        with pytest.raises(DegenerateInputError):
            crop_resize_batch(img, [(0, 0, 4, 4), (10, 10, 14, 14)], 4, 4)


@pytest.fixture(scope="module")
def rnet_weights():
    nets = detector_nets()
    rng = np.random.default_rng(21)
    return nets, {
        name: w for net in nets.values() for name, w in net.init_weights(rng).items()
    }


class TestRefinementStage:
    def test_unknown_stage(self, rnet_weights):
        nets, weights = rnet_weights
        with pytest.raises(ConfigError):
            refinement_stage("qnet", np.zeros((3, 40, 40)), np.zeros((0, 4)), weights, 0.5)

    def test_empty_candidates(self, rnet_weights):
        nets, weights = rnet_weights
        img = np.zeros((3, 40, 40))
        boxes, scores, offsets, pts = refinement_stage("rnet", img, np.zeros((0, 4)), weights, 0.5)
        assert boxes.shape == (0, 4) and scores.shape == (0,) and offsets.shape == (0, 4)
        assert pts is None
        _, _, _, pts = refinement_stage("onet", img, np.zeros((0, 4)), weights, 0.5)
        assert pts.shape == (0, 5, 2)

    def test_impossible_threshold_filters_all(self, rnet_weights):
        nets, weights = rnet_weights
        img = np.random.default_rng(4).uniform(0, 255, size=(3, 40, 40))
        boxes, scores, _, _ = refinement_stage(
            "rnet", img, [[5, 5, 25, 25]], weights, 2.0
        )
        assert boxes.shape == (0, 4)

    def test_threshold_zero_keeps_inside_boxes(self, rnet_weights):
        nets, weights = rnet_weights
        img = np.random.default_rng(5).uniform(0, 255, size=(3, 40, 40))
        cands = [[5, 5, 25, 25], [0, 0, 20, 20]]
        boxes, scores, offsets, _ = refinement_stage(
            "rnet", img, cands, weights, 0.0
        )
        np.testing.assert_allclose(boxes, cands)  # survivors are pre-refine boxes
        assert np.all((scores >= 0) & (scores <= 1))
        assert offsets.shape == (2, 4)

    def test_box_off_frame_dropped_without_error(self, rnet_weights):
        nets, weights = rnet_weights
        img = np.zeros((3, 40, 40))
        boxes, _, _, _ = refinement_stage(
            "rnet", img, [[-30, -30, -10, -10]], weights, 0.0
        )
        assert boxes.shape == (0, 4)

    def test_onet_reports_landmarks_in_frame_coords(self, rnet_weights):
        nets, weights = rnet_weights
        img = np.random.default_rng(6).uniform(0, 255, size=(3, 60, 60))
        boxes, _, _, pts = refinement_stage(
            "onet", img, [[10, 10, 40, 40]], weights, 0.0
        )
        assert pts.shape == (len(boxes), 5, 2)

    @pytest.mark.parametrize("stage,n", [("rnet", 0), ("rnet", 1), ("rnet", 60),
                                         ("onet", 0), ("onet", 1), ("onet", 11)])
    def test_batched_matches_per_crop_forwards(self, toy_weights, stage, n):
        nets = detector_nets()
        size = {"rnet": 24, "onet": 48}[stage]
        rng = np.random.default_rng(8)
        img, _, _ = make_portrait(rng, "child", 80)
        corner = rng.uniform(-10, 70, size=(n, 2))
        side = rng.uniform(8, 40, size=(n, 1))
        cands = np.concatenate([corner, corner + side], axis=1)
        if n > 1:
            assert n > nets[stage].batch_block  # spans more than one block
        boxes, scores, offsets, pts = refinement_stage(
            stage, img, cands, toy_weights, 0.0
        )
        np.testing.assert_array_equal(boxes, cands)
        assert scores.shape == (n,) and offsets.shape == (n, 4)
        for i, box in enumerate(cands):
            chip = normalize_pixels(crop_resize(img, box, size))
            heads = {h: y[:, 0] for h, y in nets[stage].forward(toy_weights, chip[..., None]).items()}
            assert abs(scores[i] - heads["prob"][1]) <= 1e-5
            np.testing.assert_allclose(offsets[i], heads["box"], rtol=0, atol=1e-4)
            if stage == "onet":
                want = _decode_landmarks(heads["landmarks"][None], box[None])[0]
                side_len = box[2] - box[0]
                np.testing.assert_allclose(pts[i], want, rtol=0, atol=1e-4 * side_len)

    def test_landmark_decode_example(self):
        pts = _decode_landmarks(np.full((1, 10), 0.5), np.array([[10.0, 10.0, 30.0, 30.0]]))
        np.testing.assert_allclose(pts[0], np.full((5, 2), 20.0))

    def test_landmark_decode_uses_box_extent(self):
        raw = np.array([[0.0, 0.0] + [1.0, 1.0] * 4])
        pts = _decode_landmarks(raw, np.array([[4.0, 6.0, 14.0, 26.0]]))
        np.testing.assert_allclose(pts[0, 0], [4.0, 6.0])
        np.testing.assert_allclose(pts[0, 1], [14.0, 26.0])


class TestDetectFaces:
    def test_tiny_image_returns_empty(self, toy_weights):
        assert detect_faces(np.zeros((3, 8, 8), dtype=np.float32), toy_weights) == []

    def test_blank_image_impossible_threshold(self, toy_weights):
        cfg = DetectorConfig(thresholds=(1.0, 1.0, 1.0))
        img = np.full((3, 64, 64), 128.0, dtype=np.float32)
        assert detect_faces(img, toy_weights, cfg) == []

    def test_finds_synthetic_portrait(self, toy_weights):
        rng = np.random.default_rng(30)
        hits = 0
        for _ in range(5):
            img, gt_box, _ = make_portrait(rng, "child", 64)
            dets = detect_faces(img, toy_weights)
            if dets and box_iou(
                (dets[0].box.x1, dets[0].box.y1, dets[0].box.x2, dets[0].box.y2), gt_box
            ) >= 0.3:
                hits += 1
        assert hits >= 4

    def test_detection_structure(self, toy_weights):
        rng = np.random.default_rng(31)
        img, _, _ = make_portrait(rng, "adult", 64)
        dets = detect_faces(img, toy_weights)
        assert dets
        det = dets[0]
        assert isinstance(det, Detection)
        assert isinstance(det.box, FaceBox)
        assert 0.0 <= det.box.score <= 1.0
        assert det.box.width > 0 and det.box.height > 0
        assert det.landmarks is not None and len(det.landmarks) == 5
        # scores come out best first
        scores = [d.box.score for d in dets]
        assert scores == sorted(scores, reverse=True)

    def test_deterministic_and_pure(self, toy_weights):
        rng = np.random.default_rng(32)
        img, _, _ = make_portrait(rng, "child", 64)
        before = img.copy()
        a = detect_faces(img, toy_weights)
        b = detect_faces(img, toy_weights)
        np.testing.assert_array_equal(img, before)
        assert len(a) == len(b)
        for da, db in zip(a, b):
            assert da == db

    @pytest.mark.parametrize("tensor", ["pnet.conv1.w", "rnet.fc1.w"])
    def test_non_finite_weights_fail_closed(self, toy_weights, tensor):
        rng = np.random.default_rng(31)
        img, _, _ = make_portrait(rng, "adult", 64)
        assert detect_faces(img, toy_weights)
        weights = dict(toy_weights)
        weights[tensor] = toy_weights[tensor].copy()
        weights[tensor].flat[0] = np.nan
        with pytest.raises(InvariantError):
            detect_faces(img, weights)
