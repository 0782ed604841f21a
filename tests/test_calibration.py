"""The cascade's score cuts on multi-face scenes: a leak gate over the
whole pipeline, and the margin the default cuts were calibrated with.

Scenes are placed as the benchmark's frame workloads place them (a
street camera with 0-3 small faces, a close-range camera with two large
ones), but every frame draws a fresh background from its own seed.

The default cuts were chosen on CALIBRATION_SEEDS, disjoint from the
gate's seeds: a face survives a stage when its best candidate does, so
per stage each cut is the largest multiple of 0.05 that lies at least
MARGIN below the lowest best-candidate score of any truth face.
"""

import numpy as np

from faceveil.denature import RedactionPolicy, _clip_box
from faceveil.detect import (
    DetectorConfig,
    _stage1,
    _stage2,
    build_pyramid,
    pnet_scan,
    refinement_stage,
)
from faceveil.image import to_planar
from faceveil.models import CHIP_SIZE
from faceveil.pipeline import Pipeline, PipelineConfig
from faceveil.recognize import CHILD
from faceveil.synth import CLOSEUP, STREET, box_iou, make_scene, scene_plan

IOU_MATCH = 0.5  # a truth face is covered by a box that overlaps it this much
MARGIN = 0.05  # least gap between each stage's cut and its lowest truth-face score


def scenes(seeds):
    """(layout, frame, truth) per seed, in ``scene_plan`` order, each scene
    drawn from a generator of its own seed."""
    out = []
    for i, seed in enumerate(seeds):
        layout, n_faces = scene_plan(i)
        out.append((layout, *make_scene(np.random.default_rng(seed), layout, n_faces)))
    return out


GATE_SEEDS = range(6001, 6017)
CALIBRATION_SEEDS = range(5001, 5401)  # tier-1 re-checks the first 16


def covered(box, boxes):
    return any(box_iou(box, b) >= IOU_MATCH for b in boxes)


def exposed_pixels(ellipse, boxes, height, width):
    """How many pixels ``draw_face`` painted in the ellipse lie outside every box,
    each box clipped to whole pixels as the redaction clips it."""
    cx, cy, rx, ry = ellipse
    yy, xx = np.mgrid[0:height, 0:width]
    face = ((xx - cx) / rx) ** 2 + ((yy - cy) / ry) ** 2 <= 1.0
    for box in boxes:
        x1, y1, x2, y2 = _clip_box(box, height, width)
        face[y1:y2, x1:x2] = False
    return int(face.sum())


def test_no_protected_face_leaks(toy_weights, gallery20):
    pipes = {
        layout: Pipeline(toy_weights, gallery20, PipelineConfig(
            detector=DetectorConfig(min_face_size=layout.min_face),
            chip_size=CHIP_SIZE,
            policy=RedactionPolicy(labels=frozenset({CHILD})),
            emit_timing=False,
        ))
        for layout in (STREET, CLOSEUP)
    }
    protected = missed = leaked = 0
    exposed = []  # (seed, pixels) of each child face not wholly redacted
    for seed, (layout, frame, truth) in zip(GATE_SEEDS, scenes(GATE_SEEDS)):
        _, report = pipes[layout].process_frame(frame)
        found = [face["box"] for face in report["faces"]]
        redacted = [item["box"] for item in report["redactions"]]
        missed += sum(not covered(box, found) for box, *_ in truth)
        for box, label, ellipse in truth:
            if label == CHILD:
                protected += 1
                leaked += not covered(box, redacted)
                n = exposed_pixels(ellipse, redacted, *frame.shape[:2])
                if n:
                    exposed.append((seed, n))
    assert protected >= 10
    assert (missed, leaked) == (0, 0)
    assert exposed == []


def best_match(truth_box, boxes, scores):
    """Highest score among candidates at IoU >= IOU_MATCH with the truth box; 0 if none."""
    return max((s for b, s in zip(boxes.tolist(), scores.tolist())
                if box_iou(truth_box, b) >= IOU_MATCH), default=0.0)


def lowest_best_scores(weights, seeds, cuts=DetectorConfig().thresholds):
    """Per stage, the lowest best-candidate score of any truth face in ``scenes(seeds)``.

    Stage 1 scores every proposal-net cell; stages 2 and 3 score what
    reaches them under the given cuts, the defaults unless told.  Over
    all CALIBRATION_SEEDS this is the calibration itself (calibrate.py).
    """
    lowest = [1.0, 1.0, 1.0]
    for layout, frame, truth in scenes(seeds):
        cfg = DetectorConfig(min_face_size=layout.min_face, thresholds=cuts)
        img = to_planar(frame)
        cells = [pnet_scan(level, weights, 0.0)[:2] for level in build_pyramid(img, cfg)]
        rnet_in = _stage1(img, weights, cfg)
        onet_in = _stage2(img, rnet_in, weights, cfg)
        stages = (
            (np.concatenate([b for b, _ in cells]), np.concatenate([s for _, s in cells])),
            refinement_stage("rnet", img, rnet_in, weights, 0.0)[:2],
            refinement_stage("onet", img, onet_in, weights, 0.0)[:2],
        )
        for k, (boxes, scores) in enumerate(stages):
            for box, *_ in truth:
                lowest[k] = min(lowest[k], best_match(box, boxes, scores))
    return lowest


def test_default_cuts_keep_their_margin(toy_weights):
    # new weights move the scores: re-calibrate when this fails, rather
    # than let a face whose best candidate falls under a cut leak silently
    lowest = lowest_best_scores(toy_weights, CALIBRATION_SEEDS[:16])
    cuts = DetectorConfig().thresholds
    assert all(low >= cut + MARGIN for low, cut in zip(lowest, cuts)), (lowest, cuts)


def test_refinement_funnel_stays_narrow(toy_weights):
    # R-Net and O-Net train on P-Net's own false positives, so R-Net
    # passes few background windows on to O-Net, the costliest stage
    passed = {STREET: [], CLOSEUP: []}
    for layout, frame, _ in scenes(GATE_SEEDS):
        cfg = DetectorConfig(min_face_size=layout.min_face)
        img = to_planar(frame)
        onet_in = _stage2(img, _stage1(img, toy_weights, cfg), toy_weights, cfg)
        passed[layout].append(len(onet_in))
    means = {layout.height: float(np.mean(n)) for layout, n in passed.items()}
    assert all(mean <= 16 for mean in means.values()), means
