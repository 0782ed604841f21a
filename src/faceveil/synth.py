"""Seeded synthetic faces for the toy training tasks and end-to-end tests.

A "face" is a filled ellipse with eye dots, a nose dot and a mouth bar
on a smooth textured background.  Children get a warm skin tint, adults
a cool one; that color gap is the signal the toy classifier learns.
All generators take an explicit numpy Generator, so identical seeds give
identical data.  Images are (3, H, W) float32 with 0..255 values.
Cascade-stage patches come from ``make_det_batch`` as stacked arrays of
images, labels, box targets and landmark targets, one row per patch.
Whole multi-face frames come from ``make_scene`` for a camera ``Layout``
(``STREET`` or ``CLOSEUP``), and ``scene_plan`` mixes the two the way
the calibration scenes and the trainer's negative mining do.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .image import bilinear_resize, crop_resize, to_frame
from .models import CHIP_SIZE
from .recognize import ADULT, CHILD

CHILD_BASE = (228.0, 168.0, 142.0)  # warm
ADULT_BASE = (148.0, 166.0, 214.0)  # cool
EYE_COLOR = (35.0, 30.0, 30.0)
MOUTH_COLOR = (130.0, 48.0, 48.0)


def _tint(rng, label):
    base = np.array(CHILD_BASE if label == CHILD else ADULT_BASE)
    return np.clip(base + rng.uniform(-18.0, 18.0, size=3), 0.0, 255.0)


def textured_background(rng, height, width):
    coarse = rng.uniform(55.0, 200.0, size=(3, 4, 4)).astype(np.float32)
    img = bilinear_resize(coarse, height, width)
    img = img + rng.normal(0.0, 6.0, size=img.shape)
    return np.clip(img, 0.0, 255.0).astype(np.float32)


def _disc(img, cx, cy, r, color):
    _, h, w = img.shape
    yy, xx = np.mgrid[0:h, 0:w]
    mask = (xx - cx) ** 2 + (yy - cy) ** 2 <= r * r
    for ch in range(3):
        img[ch][mask] = color[ch]


def _hbar(img, x1, x2, y, half_thick, color):
    _, h, w = img.shape
    yy, xx = np.mgrid[0:h, 0:w]
    mask = (np.abs(yy - y) <= half_thick) & (xx >= x1) & (xx <= x2)
    for ch in range(3):
        img[ch][mask] = color[ch]


def draw_face(img, cx, cy, rx, ry, tint, rng):
    """Paint one face in place; returns its five landmark points.

    Landmark order is left eye, right eye, nose, left mouth corner,
    right mouth corner, each an (x, y) pair in image coordinates.
    """
    _, h, w = img.shape
    yy, xx = np.mgrid[0:h, 0:w]
    ex = (xx - cx) / rx
    ey = (yy - cy) / ry
    mask = ex * ex + ey * ey <= 1.0
    shade = 1.0 - 0.22 * np.clip(ey, -1.0, 1.0)  # forehead brighter than chin
    for ch in range(3):
        vals = np.clip(tint[ch] * shade + rng.normal(0.0, 3.0, size=(h, w)), 0.0, 255.0)
        img[ch][mask] = vals[mask]

    eye_y = cy - 0.35 * ry
    eye_dx = 0.45 * rx
    eye_r = max(0.8, 0.13 * rx)
    left_eye, right_eye = (cx - eye_dx, eye_y), (cx + eye_dx, eye_y)
    _disc(img, *left_eye, eye_r, EYE_COLOR)
    _disc(img, *right_eye, eye_r, EYE_COLOR)
    nose = (cx, cy + 0.12 * ry)
    _disc(img, *nose, max(0.6, 0.09 * rx), tuple(v * 0.75 for v in tint))
    mouth_y = cy + 0.55 * ry
    mouth_dx = 0.38 * rx
    _hbar(img, cx - mouth_dx, cx + mouth_dx, mouth_y, max(0.6, 0.07 * ry), MOUTH_COLOR)
    return [left_eye, right_eye, nose, (cx - mouth_dx, mouth_y), (cx + mouth_dx, mouth_y)]


def box_iou(a, b):
    iw = max(0.0, min(a[2], b[2]) - max(a[0], b[0]))
    ih = max(0.0, min(a[3], b[3]) - max(a[1], b[1]))
    inter = iw * ih
    union = (a[2] - a[0]) * (a[3] - a[1]) + (b[2] - b[0]) * (b[3] - b[1]) - inter
    return inter / union if union > 0 else 0.0


def make_det_sample(rng, size, positive):
    """One (3, s, s) training patch for a cascade stage.

    Returns (image, label, box target, landmark target): the image is
    float32 0..255, the label 1 for a face and 0 for background, the box
    target (4,) offsets and the landmark target (10,) (x, y) pairs, both
    in crop-box units and zero for background.
    """
    s = int(size)
    canvas = textured_background(rng, 2 * s, 2 * s)
    if not positive:
        b = s * rng.uniform(0.8, 1.2)
        bx = rng.uniform(0.0, 2 * s - b)
        by = rng.uniform(0.0, 2 * s - b)
        patch = crop_resize(canvas, (bx, by, bx + b, by + b), s)
        return patch.astype(np.float32), 0, np.zeros(4, np.float32), np.zeros(10, np.float32)

    ry = s * rng.uniform(0.42, 0.55)
    rx = ry * rng.uniform(0.70, 0.85)
    cx = s + rng.uniform(-0.1, 0.1) * s
    cy = s + rng.uniform(-0.1, 0.1) * s
    label = CHILD if rng.random() < 0.5 else ADULT
    pts = draw_face(canvas, cx, cy, rx, ry, _tint(rng, label), rng)
    gt = (cx - ry, cy - ry, cx + ry, cy + ry)  # square box around the ellipse

    # jitter the crop box around the truth, keep IoU >= 0.65
    gt_side = 2.0 * ry
    box = gt
    for _ in range(20):
        b = gt_side * rng.uniform(0.85, 1.15)
        jx = rng.uniform(-0.12, 0.12) * gt_side
        jy = rng.uniform(-0.12, 0.12) * gt_side
        cand = (cx + jx - b / 2.0, cy + jy - b / 2.0, cx + jx + b / 2.0, cy + jy + b / 2.0)
        if box_iou(cand, gt) >= 0.65:
            box = cand
            break
    bw = box[2] - box[0]
    offsets = np.array(
        [
            (gt[0] - box[0]) / bw,
            (gt[1] - box[1]) / bw,
            (gt[2] - box[2]) / bw,
            (gt[3] - box[3]) / bw,
        ],
        dtype=np.float32,
    )
    lmk = np.array(
        [(v - box[axis]) / bw for x, y in pts for axis, v in ((0, x), (1, y))],
        dtype=np.float32,
    )
    patch = crop_resize(canvas, box, s)
    return patch.astype(np.float32), 1, offsets, lmk


def _is_face(i, n):
    """Whether patch i of n is a face: it lies in the first half, rounded up,
    of its block of 100, so a partial last block splits evenly too."""
    start = i - i % 100
    return i - start < (min(100, n - start) + 1) // 2


def make_det_batch(rng, size, n):
    """n patches in shuffled order: ceil-half of each block of 100 are faces.

    So n patches hold n // 2 background rows.  Returns the stacked
    make_det_sample columns: images (n, 3, s, s) float32, labels (n,),
    box targets (n, 4) and landmark targets (n, 10).
    """
    samples = [make_det_sample(rng, size, _is_face(i, n)) for i in range(n)]
    order = rng.permutation(n)
    return tuple(np.stack(column)[order] for column in zip(*samples))


@dataclass(frozen=True)
class Layout:
    """A fixed camera: frame size, face half-height range and the detector's min face."""

    height: int
    width: int
    radius: tuple  # (low, high) of the face half-height
    min_face: int


STREET = Layout(240, 320, (14.0, 52.8), 20)
CLOSEUP = Layout(480, 640, (90.0, 110.0), 80)


def scene_plan(i):
    """(layout, face count) of scene i of a mixed sequence: every fourth
    scene is a two-face close-up, the street scenes between them cycle
    through 0-3 faces."""
    if i % 4 == 3:
        return CLOSEUP, 2
    return STREET, (i - i // 4) % 4


def make_scene(rng, layout, n_faces):
    """(uint8 HWC frame, [(truth box, label, (cx, cy, rx, ry) of the drawn ellipse)]).

    Faces alternate child/adult on a fresh background.  Each gets 60
    tries at a spot whose box overlaps every placed one at IoU < 0.02,
    and is left out if none fits.
    """
    img = textured_background(rng, layout.height, layout.width)
    placed = []
    for j in range(n_faces):
        label = CHILD if j % 2 == 0 else ADULT
        tint = _tint(rng, label)
        for _ in range(60):
            ry = rng.uniform(*layout.radius)
            rx = ry * rng.uniform(0.72, 0.85)
            cx = rng.uniform(ry + 2.0, layout.width - ry - 2.0)
            cy = rng.uniform(ry + 2.0, layout.height - ry - 2.0)
            box = (cx - ry, cy - ry, cx + ry, cy + ry)
            if all(box_iou(box, b) < 0.02 for b, *_ in placed):
                draw_face(img, cx, cy, rx, ry, tint, rng)
                placed.append((box, label, (cx, cy, rx, ry)))
                break
    return to_frame(img), placed


def make_face_chip(rng, label, size=CHIP_SIZE):
    """A single centered face filling most of a chip."""
    s = int(size)
    img = textured_background(rng, s, s)
    ry = s * rng.uniform(0.40, 0.48)
    rx = ry * rng.uniform(0.72, 0.85)
    cx = s / 2.0 + rng.uniform(-0.04, 0.04) * s
    cy = s / 2.0 + rng.uniform(-0.04, 0.04) * s
    draw_face(img, cx, cy, rx, ry, _tint(rng, label), rng)
    return img


def make_portrait(rng, label, size=64):
    """A frame dominated by one face; returns (image, gt_box, label)."""
    s = int(size)
    img = textured_background(rng, s, s)
    ry = s * rng.uniform(0.38, 0.44)
    rx = ry * rng.uniform(0.72, 0.85)
    cx = s / 2.0 + rng.uniform(-0.03, 0.03) * s
    cy = s / 2.0 + rng.uniform(-0.03, 0.03) * s
    draw_face(img, cx, cy, rx, ry, _tint(rng, label), rng)
    return img, (cx - ry, cy - ry, cx + ry, cy + ry), label
