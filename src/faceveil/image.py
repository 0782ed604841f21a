"""Image geometry helpers shared by the detector and the embedder.

Planar float arrays (channels, height, width) carry pixel values in
0..255 through the geometry stages; normalization to the network input
range happens last, in one place.  Every resize and crop (pyramid
levels, refinement crops, face chips, synthetic textures) is one
bilinear gather, ``crop_resize_batch``; ``bilinear_resize`` and
``crop_resize`` are that kernel on the whole image and on one box.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, DegenerateInputError


def to_planar(frame):
    """(H, W, C) uint8 frame -> (C, H, W) float32, values unchanged."""
    frame = np.asarray(frame)
    if frame.ndim != 3:
        raise ConfigError(f"expected (H,W,C) frame, got shape {frame.shape}")
    return np.ascontiguousarray(frame.transpose(2, 0, 1).astype(np.float32))


def _chw(img):
    img = np.asarray(img)
    if img.ndim != 3:
        raise ConfigError(f"expected (C,H,W) image, got shape {img.shape}")
    return img


def to_frame(img):
    """(C, H, W) float -> (H, W, C) uint8 with round-and-clamp."""
    out = np.clip(np.rint(_chw(img)), 0, 255).astype(np.uint8)
    return np.ascontiguousarray(out.transpose(1, 2, 0))


def normalize_pixels(img):
    """Map 0..255 pixel values to roughly -1..1: (v - 127.5) / 128."""
    return (np.asarray(img, dtype=np.float32) - np.float32(127.5)) / np.float32(128.0)


def _taps(n, out):
    """Bilinear taps of ``out`` samples over ``n`` source pixels.

    Sample centers follow src = (dst + 0.5) * (n / out) - 0.5; returns
    (i0, i1, t) with src between pixels i0 and i1 (clamped to 0..n-1) at
    fraction t.  ``n`` is an (N, 1) array of sizes for (N, out) taps.
    """
    src = (np.arange(out, dtype=np.float64) + 0.5) * (n / out) - 0.5
    base = np.floor(src)
    i = base.astype(np.int64)
    return np.clip(i, 0, n - 1), np.clip(i + 1, 0, n - 1), src - base


def bilinear_resize(img, out_h, out_w):
    """Resize a whole (C, H, W) image: ``crop_resize_batch`` of its full box."""
    _, h, w = _chw(img).shape
    return crop_resize_batch(img, [(0, 0, w, h)], out_h, out_w)[..., 0]


def crop_resize(img, box, out_size):
    """Cut one box from a (C, H, W) image, resized square: ``crop_resize_batch`` of one box."""
    return crop_resize_batch(img, [box], out_size, out_size)[..., 0]


def _round_boxes(boxes):
    """Box edges rounded to integers half up, by floor(v + 0.5)."""
    return np.floor(np.asarray(boxes, dtype=np.float64) + 0.5).astype(np.int64)


def box_in_image(boxes, height, width):
    """Which (N, 4) boxes keep at least one pixel of the image after rounding."""
    x1, y1, x2, y2 = _round_boxes(boxes).reshape(-1, 4).T
    return (x2 - x1 >= 1) & (y2 - y1 >= 1) & (x2 > 0) & (y2 > 0) & (x1 < width) & (y1 < height)


def crop_resize_batch(img, boxes, out_h, out_w):
    """Bilinear samples of N boxes of a (C, H, W) image; returns (C, out_h, out_w, N).

    The package's one resampling rule.  Box edges are rounded half up
    (``_round_boxes``); a box that is empty or holds no pixel of the
    image raises DegenerateInputError (``box_in_image``).  Output pixel
    (i, j) samples the box at src = (dst + 0.5) * (box side / out side)
    - 0.5, between taps clamped to the box (``_taps``); a tap outside
    the image reads zero, so boxes may cross any border.  Each bilinear
    corner is one gather straight from the image (a C-contiguous image
    is never copied), and the lerp v0 + t * (v1 - v0) keeps a constant
    region bit-for-bit constant.  Float32 input gives float32 output, in
    the batch-last layout that ``faceveil.nn`` networks take.
    """
    img = _chw(img)
    out_h, out_w = int(out_h), int(out_w)
    if out_h < 1 or out_w < 1:
        raise ConfigError(f"output size must be >= 1, got {out_h}x{out_w}")
    c, h, w = img.shape
    boxes = np.asarray(boxes, dtype=np.float64).reshape(-1, 4)
    ok = box_in_image(boxes, h, w)
    if not ok.all():
        bad = _round_boxes(boxes[~ok][0]).tolist()
        raise DegenerateInputError(f"crop box {bad} is empty or lies outside the {h}x{w} image")
    x1, y1, x2, y2 = _round_boxes(boxes).T
    dtype = np.result_type(img.dtype, np.float32)
    pixels = img.reshape(c, h * w)
    # taps are (out, N): the batch varies fastest, as in the output
    r0, r1, ty = (t.T for t in _taps((y2 - y1)[:, None], out_h))
    c0, c1, tx = (t.T for t in _taps((x2 - x1)[:, None], out_w))
    ty = ty.astype(dtype)[:, None, :]  # (out_h, 1, N): varies down the rows
    tx = tx.astype(dtype)[None, :, :]  # (1, out_w, N): varies along the columns

    def corner(rows, cols):
        rows = rows + y1
        cols = cols + x1
        flat = np.clip(rows, 0, h - 1)[:, None, :] * w + np.clip(cols, 0, w - 1)[None, :, :]
        v = pixels.take(flat, axis=1).astype(dtype, copy=False)
        off_rows, off_cols = (rows < 0) | (rows >= h), (cols < 0) | (cols >= w)
        if off_rows.any() or off_cols.any():
            np.copyto(v, 0, where=off_rows[:, None, :] | off_cols[None, :, :])
        return v

    # v00 + t * (v01 - v00) along the columns, then down the rows, in place
    top, step = corner(r0, c0), corner(r0, c1)
    step -= top
    step *= tx
    top += step
    bot, step = corner(r1, c0), corner(r1, c1)
    step -= bot
    step *= tx
    bot += step
    bot -= top
    bot *= ty
    top += bot
    return top
