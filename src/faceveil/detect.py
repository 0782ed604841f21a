"""Three-stage cascaded face detector.

Stage 1 scans an image pyramid with the fully convolutional proposal
net, stages 2 and 3 rescore square crops of the surviving candidates.
Boxes travel through the cascade as float64 arrays of (x1, y1, x2, y2)
in original-frame pixel coordinates with exclusive right/bottom edges;
the dataclasses below are the public face of the results.  The pyramid
step (SCALE_FACTOR) and the four overlap cuts are fixed, as in the
reference MTCNN cascade: IoU 0.5 within one pyramid level, then IoU 0.7
across levels and after stage 2, and min-overlap 0.7 after stage 3.
The three score cuts are not: their defaults are calibrated for the toy
weights trained from the default seeds on this pyramid, and other
weights need cuts of their own.
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
SCALE_FACTOR = 0.709  # side ratio of neighbouring pyramid levels
NMS_PER_SCALE = 0.5  # IoU cut within one pyramid level
NMS_STAGE1 = 0.7  # IoU cut across pyramid levels
NMS_STAGE2 = 0.7  # IoU cut after stage 2
NMS_STAGE3 = 0.7  # min-overlap cut after stage 3
PAIR_BLOCK = 1 << 14  # candidate box pairs scored per vectorized pass of nms
MAX_BOX_EDGE = 2.0**53  # px; past it float64 skips integers, so no box edge rounds to a pixel


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
    # face-score cut per stage, calibrated (tests/calibrate.py) for the toy
    # weights from the default seeds, whose R-Net and O-Net trained on
    # P-Net's false positives: each sits at least 0.05 below the lowest
    # score that any face of 400 synthetic scenes reached at that stage,
    # and held 0.05 on 400 held-out ones.  MTCNN's cuts for its own
    # weights were (0.6, 0.7, 0.7).
    thresholds: tuple = (0.85, 0.8, 0.9)

    def __post_init__(self):
        if self.min_face_size < CELL:
            raise ConfigError(f"min_face_size must be >= {CELL}, got {self.min_face_size}")
        if len(self.thresholds) != 3 or any(not 0.0 <= t <= 1.0 for t in self.thresholds):
            raise ConfigError(f"need three score thresholds in [0, 1], got {self.thresholds}")


def pyramid_scales(height, width, min_face_size):
    """Scales s_k = (12 / min_face) * SCALE_FACTOR^k while the short side stays >= 12."""
    if min(height, width) < CELL:
        return []
    base = CELL / float(min_face_size)
    short = min(height, width)
    scales = []
    k = 0
    while short * base * SCALE_FACTOR**k >= CELL:
        scales.append(base * SCALE_FACTOR**k)
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
    scales = pyramid_scales(h, w, cfg.min_face_size)
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
    when its overlap with an already-kept box exceeds the threshold, which
    must lie in [0, 1]; "union" is IoU, "min" divides by the smaller box
    area.  Boxes that do not overlap in x have overlap 0, which never
    exceeds such a threshold, so only pairs that do are scored: sorted by
    x1, each box meets the successors whose x1 lies before its x2, in
    vectorized passes of at most PAIR_BLOCK pairs.  The greedy walk then
    follows the score order over each kept box's list of neighbours past
    the threshold.
    """
    if mode not in ("union", "min"):
        raise ConfigError(f"unknown overlap mode {mode!r}")
    if not 0.0 <= threshold <= 1.0:
        raise ConfigError(f"overlap threshold must lie in [0, 1], got {threshold}")
    boxes = np.asarray(boxes, dtype=np.float64)
    scores = np.asarray(scores, dtype=np.float64)
    if boxes.shape[0] != scores.shape[0]:
        raise ConfigError(f"{boxes.shape[0]} boxes vs {scores.shape[0]} scores")
    n = boxes.shape[0]
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    by_x = np.argsort(boxes[:, 0], kind="stable")
    x1, y1, x2, y2 = boxes[by_x].T  # in x1 order, so pair positions index them directly
    area = np.maximum(0.0, x2 - x1) * np.maximum(0.0, y2 - y1)
    # position p overlaps in x at most positions p + 1 .. p + count[p]
    count = np.maximum(np.searchsorted(x1, x2, side="left") - np.arange(n) - 1, 0)
    ends = np.cumsum(count)
    firsts = ends - count
    near_a, near_b = [], []  # pairs past the threshold
    p0 = 0
    while p0 < n and firsts[p0] < ends[-1]:
        # the positions from p0 whose pairs fit one pass, and at least one
        p1 = max(p0 + 1, int(np.searchsorted(ends, firsts[p0] + PAIR_BLOCK, side="right")))
        a = np.repeat(np.arange(p0, p1), count[p0:p1])
        b = a + 1 + np.arange(firsts[p0], ends[p1 - 1]) - firsts[a]
        # pairs apart in y have overlap 0 too; score the rest
        ih = np.minimum(y2[a], y2[b]) - np.maximum(y1[a], y1[b])
        rows = ih > 0.0
        a, b, ih = a[rows], b[rows], ih[rows]
        iw = np.maximum(0.0, np.minimum(x2[a], x2[b]) - np.maximum(x1[a], x1[b]))
        inter = iw * ih
        if mode == "union":
            denom = area[a] + area[b] - inter
        else:
            denom = np.minimum(area[a], area[b])
        overlap = np.where(denom > 0.0, inter / np.where(denom > 0.0, denom, 1.0), 0.0)
        hit = overlap > threshold
        near_a.append(by_x[a[hit]])
        near_b.append(by_x[b[hit]])
        p0 = p1
    # each box's neighbours, grouped by box: dst[bounds[i]:bounds[i + 1]]
    src = np.concatenate(near_a + near_b + [by_x[:0]])
    dst = np.concatenate(near_b + near_a + [by_x[:0]])[np.argsort(src, kind="stable")]
    bounds = np.concatenate([[0], np.cumsum(np.bincount(src, minlength=n))]).tolist()
    gone = np.zeros(n, dtype=bool)
    keep = []
    for i in np.argsort(-scores, kind="stable").tolist():
        if not gone[i]:
            keep.append(i)
            gone[dst[bounds[i] : bounds[i + 1]]] = True
    return np.asarray(keep, dtype=np.int64)


def refine_boxes(boxes, offsets):
    """Apply per-box offsets, then grow each box to a centered square.

    Offsets are in box-size units: x1' = x1 + dx1 * w, and so on.  Boxes
    whose width or height is not positive after the shift are dropped;
    returns (squared boxes of the survivors, boolean keep mask over the
    input rows).  An edge that is not finite or lies past MAX_BOX_EDGE
    comes only from broken weights and raises InvariantError.
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
    if not (np.abs(out) <= MAX_BOX_EDGE).all():
        # fail closed, as _require_finite does: such a box can be neither
        # cropped nor redacted
        raise InvariantError(f"refined box edge past {MAX_BOX_EDGE:.3g} px; check the weights")
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
    heads = net.forward(weights, normalize_pixels(np.asarray(img, dtype=np.float32))[..., None])
    _require_finite(net.name, heads)
    return scan_proposals(heads["prob"][..., 0], heads["box"][..., 0], scale, threshold)


def _stage1(img, weights, cfg):
    kept = []  # (boxes, scores, offsets) of each level that proposed any
    for level in build_pyramid(img, cfg):
        boxes, scores, offsets = pnet_scan(level, weights, cfg.thresholds[0])
        if boxes.shape[0] == 0:
            continue
        keep = nms(boxes, scores, NMS_PER_SCALE, mode="union")
        kept.append((boxes[keep], scores[keep], offsets[keep]))
    if not kept:
        return np.zeros((0, 4))
    boxes, scores, offsets = (np.concatenate(parts) for parts in zip(*kept))
    keep = nms(boxes, scores, NMS_STAGE1, mode="union")
    return refine_boxes(boxes[keep], offsets[keep])[0]


def _require_finite(net_name, heads):
    # fail closed: a NaN or infinite head scores below every threshold, so
    # the frame would pass on with its faces unredacted
    for head, y in heads.items():
        if not np.isfinite(y).all():
            raise InvariantError(f"{net_name}: non-finite {head!r} output; check the weights")


def _forward_blocks(net, weights, img, boxes):
    """Crop boxes to a fixed-size net's input and run it, ``net.batch_block`` at a time.

    Each block is cut in one gather, straight into the nets' batch-last
    layout, and run in one forward, which keeps the crops, like every
    layer output, bounded by the block size.  Returns each head with one
    row per box.
    """
    _, size_h, size_w = net.input_shape
    parts = []
    for start in range(0, boxes.shape[0], net.batch_block):
        crops = crop_resize_batch(img, boxes[start : start + net.batch_block], size_h, size_w)
        heads = net.forward(weights, normalize_pixels(crops))
        _require_finite(net.name, heads)
        parts.append(heads)
    return {head: np.concatenate([p[head] for p in parts], axis=1).T for head in parts[0]}


def refinement_stage(stage, img, boxes, weights, threshold):
    """Rescore candidate boxes with the 24x24 or 48x48 refinement net.

    Crops and scores the candidates in memory-bounded blocks, keeps those
    whose face score reaches the threshold and returns (boxes, scores,
    offsets, landmarks) where the boxes are the surviving candidates (not
    yet refined).  Landmarks are decoded to frame coordinates for the
    "onet" stage and None otherwise.  A non-finite net output raises
    InvariantError.
    """
    if stage not in ("rnet", "onet"):
        raise ConfigError(f"unknown refinement stage {stage!r}")
    net = detector_nets()[stage]
    boxes = np.asarray(boxes, dtype=np.float64).reshape(-1, 4)
    # boxes regressed fully off the frame hold no pixels; drop them
    _, h, w = np.asarray(img).shape
    boxes = boxes[box_in_image(boxes, h, w)]
    if boxes.shape[0] == 0:
        pts = np.zeros((0, 5, 2)) if stage == "onet" else None
        return np.zeros((0, 4)), np.zeros(0), np.zeros((0, 4)), pts
    heads = _forward_blocks(net, weights, img, boxes)
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
    keep = nms(boxes, scores, NMS_STAGE2, mode="union")
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
    keep = nms(refined, scores, NMS_STAGE3, mode="min")
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
