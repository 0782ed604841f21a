"""Three-stage cascaded face detector.

Stage 1 scans an image pyramid with the fully convolutional proposal
net, stages 2 and 3 rescore square crops of the surviving candidates.
Boxes travel through the cascade as float64 arrays of (x1, y1, x2, y2)
in original-frame pixel coordinates with exclusive right/bottom edges;
the dataclasses below are the public face of the results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DegenerateInputError, InvariantError
from .image import bilinear_resize, box_in_image, crop_resize_batch, normalize_pixels
from .models import detector_nets

CELL = 12  # proposal-net receptive field
STRIDE = 2  # effective stride of the proposal net (one 2x2/2 pool)


@dataclass(frozen=True)
class FaceBox:
    x1: float
    y1: float
    x2: float
    y2: float
    score: float

    @property
    def width(self):
        return self.x2 - self.x1

    @property
    def height(self):
        return self.y2 - self.y1


@dataclass(frozen=True)
class Detection:
    box: FaceBox
    landmarks: tuple | None = None  # five (x, y) pairs or None


@dataclass(frozen=True)
class DetectorConfig:
    min_face_size: int = 20
    scale_factor: float = 0.709
    # face-score cut per stage
    thresholds: tuple = (0.6, 0.7, 0.7)
    # overlap cuts: within one pyramid level, across levels, after stage 2,
    # after stage 3 (the last one uses min-overlap instead of IoU)
    nms_per_scale: float = 0.5
    nms_stage1: float = 0.7
    nms_stage2: float = 0.7
    nms_stage3: float = 0.7

    def __post_init__(self):
        if self.min_face_size < CELL:
            raise ConfigError(f"min_face_size must be >= {CELL}, got {self.min_face_size}")
        if not 0.0 < self.scale_factor < 1.0:
            raise ConfigError(f"scale_factor must be in (0, 1), got {self.scale_factor}")
        if len(self.thresholds) != 3 or any(not 0.0 <= t <= 1.0 for t in self.thresholds):
            raise ConfigError(f"need three score thresholds in [0, 1], got {self.thresholds}")
        for name in ("nms_per_scale", "nms_stage1", "nms_stage2", "nms_stage3"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1], got {v}")


def pyramid_scales(height, width, min_face_size=20, scale_factor=0.709):
    """Scales s_k = (12 / min_face) * factor^k while the short side stays >= 12."""
    if min(height, width) < CELL:
        return []
    base = CELL / float(min_face_size)
    short = min(height, width)
    scales = []
    k = 0
    while short * base * scale_factor**k >= CELL:
        scales.append(base * scale_factor**k)
        k += 1
    return scales


def _level_sizes(height, width, scale):
    return max(1, math.ceil(height * scale)), max(1, math.ceil(width * scale))


def build_pyramid(img, config=None):
    """Bilinear rescalings of a (3, H, W) image, one per detector scale.

    Returns a list of (scale, resized image) pairs, largest scale first.
    Raises DegenerateInputError when no 12x12 window can fit at any scale,
    i.e. no face of the configured minimum size is possible.
    """
    cfg = config or DetectorConfig()
    img = np.asarray(img, dtype=np.float32)
    if img.ndim != 3 or img.shape[0] != 3:
        raise ConfigError(f"expected (3,H,W) image, got shape {img.shape}")
    _, h, w = img.shape
    scales = pyramid_scales(h, w, cfg.min_face_size, cfg.scale_factor)
    if not scales:
        raise DegenerateInputError(
            f"no {CELL}x{CELL} window fits a {h}x{w} image at min_face_size "
            f"{cfg.min_face_size}; no face detectable"
        )
    levels = []
    for scale in scales:
        lh, lw = _level_sizes(h, w, scale)
        levels.append((scale, bilinear_resize(img, lh, lw)))
    return levels


def scan_proposals(prob_map, reg_map, scale, threshold):
    """Turn a dense proposal-net response into candidate boxes.

    Cell (i, j) of the map corresponds to the 12x12 window whose corner
    sits at (2j, 2i) in level coordinates; edges map back to the original
    frame with floor((coord) / scale).  Returns (boxes (N, 4), scores (N,),
    offsets (N, 4)).
    """
    scores = np.asarray(prob_map, dtype=np.float64)[1]
    reg = np.asarray(reg_map, dtype=np.float64)
    ii, jj = np.nonzero(scores >= threshold)
    if ii.size == 0:
        return np.zeros((0, 4)), np.zeros(0), np.zeros((0, 4))
    boxes = np.stack(
        [
            np.floor(jj * STRIDE / scale),
            np.floor(ii * STRIDE / scale),
            np.floor((jj * STRIDE + CELL) / scale),
            np.floor((ii * STRIDE + CELL) / scale),
        ],
        axis=1,
    )
    return boxes, scores[ii, jj], reg[:, ii, jj].T.copy()


def nms(boxes, scores, threshold, mode="union"):
    """Greedy non-maximum suppression; returns kept indices, best first.

    Ties in score keep the lower original index.  A candidate is dropped
    when its overlap with an already-kept box exceeds the threshold;
    "union" is IoU, "min" divides by the smaller box area.
    """
    if mode not in ("union", "min"):
        raise ConfigError(f"unknown overlap mode {mode!r}")
    boxes = np.asarray(boxes, dtype=np.float64)
    scores = np.asarray(scores, dtype=np.float64)
    if boxes.shape[0] != scores.shape[0]:
        raise ConfigError(f"{boxes.shape[0]} boxes vs {scores.shape[0]} scores")
    if boxes.shape[0] == 0:
        return np.zeros(0, dtype=np.int64)
    x1, y1, x2, y2 = boxes.T
    area = np.maximum(0.0, x2 - x1) * np.maximum(0.0, y2 - y1)
    order = np.argsort(-scores, kind="stable")
    keep = []
    while order.size:
        i = order[0]
        keep.append(int(i))
        rest = order[1:]
        iw = np.maximum(0.0, np.minimum(x2[i], x2[rest]) - np.maximum(x1[i], x1[rest]))
        ih = np.maximum(0.0, np.minimum(y2[i], y2[rest]) - np.maximum(y1[i], y1[rest]))
        inter = iw * ih
        if mode == "union":
            denom = area[i] + area[rest] - inter
        else:
            denom = np.minimum(area[i], area[rest])
        overlap = np.where(denom > 0.0, inter / np.where(denom > 0.0, denom, 1.0), 0.0)
        order = rest[overlap <= threshold]
    return np.asarray(keep, dtype=np.int64)


def refine_boxes(boxes, offsets):
    """Apply per-box offsets, then grow each box to a centered square.

    Offsets are in box-size units: x1' = x1 + dx1 * w, and so on.  Boxes
    whose width or height is not positive after the shift are dropped;
    returns (squared boxes of the survivors, boolean keep mask over the
    input rows).
    """
    boxes = np.asarray(boxes, dtype=np.float64)
    offsets = np.asarray(offsets, dtype=np.float64)
    if boxes.shape != offsets.shape or boxes.shape[1:] != (4,):
        raise ConfigError(f"boxes {boxes.shape} vs offsets {offsets.shape}")
    w = boxes[:, 2] - boxes[:, 0]
    h = boxes[:, 3] - boxes[:, 1]
    shifted = boxes + offsets * np.stack([w, h, w, h], axis=1)
    nw = shifted[:, 2] - shifted[:, 0]
    nh = shifted[:, 3] - shifted[:, 1]
    keep = (nw > 0.0) & (nh > 0.0)
    shifted, nw, nh = shifted[keep], nw[keep], nh[keep]
    side = np.maximum(nw, nh)
    cx = (shifted[:, 0] + shifted[:, 2]) / 2.0
    cy = (shifted[:, 1] + shifted[:, 3]) / 2.0
    out = np.stack([cx - side / 2.0, cy - side / 2.0, cx + side / 2.0, cy + side / 2.0], axis=1)
    return out, keep


def pnet_scan(level, weights, threshold):
    """Dense proposal scan of one pyramid level.

    ``level`` is a (scale, image) pair from build_pyramid.  Normalizes the
    pixels, runs the fully convolutional proposal net and maps every cell
    with face probability >= threshold back to original-frame coordinates.
    Returns (boxes (N, 4), scores (N,), offsets (N, 4)).
    """
    scale, img = level
    net = detector_nets()["pnet"]
    heads = net.forward(weights, normalize_pixels(np.asarray(img, dtype=np.float32))[None])
    _require_finite(net.name, heads)
    return scan_proposals(heads["prob"][0], heads["box"][0], scale, threshold)


def _stage1(img, weights, cfg):
    all_boxes, all_scores, all_offsets = [], [], []
    for level in build_pyramid(img, cfg):
        boxes, scores, offsets = pnet_scan(level, weights, cfg.thresholds[0])
        if boxes.shape[0] == 0:
            continue
        keep = nms(boxes, scores, cfg.nms_per_scale, mode="union")
        all_boxes.append(boxes[keep])
        all_scores.append(scores[keep])
        all_offsets.append(offsets[keep])
    if not all_boxes:
        return np.zeros((0, 4))
    boxes = np.concatenate(all_boxes)
    scores = np.concatenate(all_scores)
    offsets = np.concatenate(all_offsets)
    keep = nms(boxes, scores, cfg.nms_stage1, mode="union")
    return refine_boxes(boxes[keep], offsets[keep])[0]


def _require_finite(net_name, heads):
    # fail closed: a NaN or infinite head scores below every threshold, so
    # the frame would pass on with its faces unredacted
    for head, y in heads.items():
        if not np.isfinite(y).all():
            raise InvariantError(f"{net_name}: non-finite {head!r} output; check the weights")


def _forward_blocks(net, weights, img, boxes, size):
    """Crop and run a fixed-size net over boxes, ``net.batch_block`` at a time.

    Each block is cut in one gather and run in one forward, which keeps
    the crops, like the im2col buffers, bounded by the block size.
    Returns each head with one row per box.
    """
    parts = []
    for start in range(0, boxes.shape[0], net.batch_block):
        crops = crop_resize_batch(img, boxes[start : start + net.batch_block], size)
        heads = net.forward(weights, normalize_pixels(crops).transpose(1, 0, 2, 3))
        _require_finite(net.name, heads)
        parts.append(heads)
    return {head: np.concatenate([p[head] for p in parts]) for head in parts[0]}


_STAGE_SIZES = {"rnet": 24, "onet": 48}


def refinement_stage(stage, img, boxes, weights, threshold):
    """Rescore candidate boxes with the 24x24 or 48x48 refinement net.

    Crops and scores the candidates in memory-bounded blocks, keeps those
    whose face score reaches the threshold and returns (boxes, scores,
    offsets, landmarks) where the boxes are the surviving candidates (not
    yet refined).  Landmarks are decoded to frame coordinates for the
    "onet" stage and None otherwise.  A non-finite net output raises
    InvariantError.
    """
    if stage not in _STAGE_SIZES:
        raise ConfigError(f"unknown refinement stage {stage!r}")
    net = detector_nets()[stage]
    boxes = np.asarray(boxes, dtype=np.float64).reshape(-1, 4)
    # boxes regressed fully off the frame hold no pixels; drop them
    _, h, w = np.asarray(img).shape
    boxes = boxes[box_in_image(boxes, h, w)]
    if boxes.shape[0] == 0:
        pts = np.zeros((0, 5, 2)) if stage == "onet" else None
        return np.zeros((0, 4)), np.zeros(0), np.zeros((0, 4)), pts
    heads = _forward_blocks(net, weights, img, boxes, _STAGE_SIZES[stage])
    scores = heads["prob"][:, 1].astype(np.float64)
    offsets = heads["box"].astype(np.float64)
    ok = scores >= threshold
    boxes, scores, offsets = boxes[ok], scores[ok], offsets[ok]
    pts = None
    if stage == "onet":
        pts = _decode_landmarks(heads["landmarks"][ok], boxes)
    return boxes, scores, offsets, pts


def _stage2(img, boxes, weights, cfg):
    boxes, scores, offsets, _ = refinement_stage("rnet", img, boxes, weights, cfg.thresholds[1])
    if boxes.shape[0] == 0:
        return boxes
    keep = nms(boxes, scores, cfg.nms_stage2, mode="union")
    return refine_boxes(boxes[keep], offsets[keep])[0]


def _decode_landmarks(raw, boxes):
    """Unit-box (x, y) pairs -> frame coordinates of the crop box."""
    raw = np.asarray(raw, dtype=np.float64).reshape(-1, 5, 2)
    w = (boxes[:, 2] - boxes[:, 0])[:, None]
    h = (boxes[:, 3] - boxes[:, 1])[:, None]
    pts = np.empty_like(raw)
    pts[:, :, 0] = boxes[:, 0, None] + raw[:, :, 0] * w
    pts[:, :, 1] = boxes[:, 1, None] + raw[:, :, 1] * h
    return pts


def _clamp_landmarks(pts, boxes):
    # sanity bound: landmarks stay inside the box grown 1.5x about its center
    cx = (boxes[:, 0] + boxes[:, 2])[:, None] / 2.0
    cy = (boxes[:, 1] + boxes[:, 3])[:, None] / 2.0
    hw = (boxes[:, 2] - boxes[:, 0])[:, None] * 0.75
    hh = (boxes[:, 3] - boxes[:, 1])[:, None] * 0.75
    pts = pts.copy()
    pts[:, :, 0] = np.clip(pts[:, :, 0], cx - hw, cx + hw)
    pts[:, :, 1] = np.clip(pts[:, :, 1], cy - hh, cy + hh)
    return pts


def _stage3(img, boxes, weights, cfg):
    boxes, scores, offsets, pts = refinement_stage("onet", img, boxes, weights, cfg.thresholds[2])
    if boxes.shape[0] == 0:
        return np.zeros((0, 4)), np.zeros(0), np.zeros((0, 5, 2))
    refined, ok = refine_boxes(boxes, offsets)
    scores, pts = scores[ok], _clamp_landmarks(pts[ok], refined)
    keep = nms(refined, scores, cfg.nms_stage3, mode="min")
    return refined[keep], scores[keep], pts[keep]


def detect_faces(img, weights, config=None):
    """Run the full cascade on a (3, H, W) float image with 0..255 values.

    Returns a list of Detection sorted by descending score; each carries
    five landmark points.  An empty list means no stage kept a candidate;
    a stage net that outputs NaN or infinity raises InvariantError instead.
    """
    cfg = config or DetectorConfig()
    img = np.asarray(img, dtype=np.float32)
    if img.ndim != 3 or img.shape[0] != 3:
        raise ConfigError(f"expected (3,H,W) image, got shape {img.shape}")

    try:
        boxes = _stage1(img, weights, cfg)
    except DegenerateInputError:
        # image too small for any pyramid level: nothing detectable
        return []
    if boxes.shape[0] == 0:
        return []
    boxes = _stage2(img, boxes, weights, cfg)
    if boxes.shape[0] == 0:
        return []
    boxes, scores, pts = _stage3(img, boxes, weights, cfg)

    dets = []
    for box, score, lmk in zip(boxes, scores, pts):
        face = FaceBox(float(box[0]), float(box[1]), float(box[2]), float(box[3]), float(score))
        marks = tuple((float(x), float(y)) for x, y in lmk)
        dets.append(Detection(face, marks))
    return dets
