"""Image geometry helpers shared by the detector and the embedder.

Planar float arrays (channels, height, width) carry pixel values in
0..255 through the geometry stages; normalization to the network input
range happens last, in one place.
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


def to_frame(img):
    """(C, H, W) float -> (H, W, C) uint8 with round-and-clamp."""
    img = np.asarray(img)
    if img.ndim != 3:
        raise ConfigError(f"expected (C,H,W) image, got shape {img.shape}")
    out = np.clip(np.rint(img), 0, 255).astype(np.uint8)
    return np.ascontiguousarray(out.transpose(1, 2, 0))


def normalize_pixels(img):
    """Map 0..255 pixel values to roughly -1..1: (v - 127.5) / 128."""
    return ((np.asarray(img, dtype=np.float32) - np.float32(127.5)) / np.float32(128.0)).astype(
        np.float32
    )


def _taps(n, out):
    """Bilinear taps of ``out`` samples over ``n`` source pixels.

    Sample centers follow src = (dst + 0.5) * (n / out) - 0.5; returns
    (i0, i1, t) with src between pixels i0 and i1 (clamped to 0..n-1) at
    fraction t.  ``n`` may be an (N, 1) array of sizes for (N, out) taps.
    """
    src = (np.arange(out, dtype=np.float64) + 0.5) * (n / out) - 0.5
    base = np.floor(src)
    i = base.astype(np.int64)
    return np.clip(i, 0, n - 1), np.clip(i + 1, 0, n - 1), src - base


def bilinear_resize(img, out_h, out_w):
    """Resize a (C, H, W) image with bilinear interpolation.

    Sample centers follow the half-pixel convention
    src = (dst + 0.5) * (in / out) - 0.5 and edge pixels are replicated
    outside the grid.  Interpolation uses the lerp form v0 + t * (v1 - v0)
    so a constant image stays bit-for-bit constant at any output size.
    """
    img = np.asarray(img)
    if img.ndim != 3:
        raise ConfigError(f"expected (C,H,W) image, got shape {img.shape}")
    out_h, out_w = int(out_h), int(out_w)
    if out_h < 1 or out_w < 1:
        raise ConfigError(f"output size must be >= 1, got {out_h}x{out_w}")
    _, h, w = img.shape
    work = img.astype(np.result_type(img.dtype, np.float32), copy=False)

    y0, y1, ty = _taps(h, out_h)
    x0, x1, tx = _taps(w, out_w)
    ty = ty.astype(work.dtype)[:, None]
    tx = tx.astype(work.dtype)[None, :]

    r0 = y0[:, None]
    r1 = y1[:, None]
    c0 = x0[None, :]
    c1 = x1[None, :]
    v00 = work[:, r0, c0]
    v01 = work[:, r0, c1]
    v10 = work[:, r1, c0]
    v11 = work[:, r1, c1]
    top = v00 + tx * (v01 - v00)
    bot = v10 + tx * (v11 - v10)
    return top + ty * (bot - top)


def crop_resize(img, box, out_size):
    """Cut an axis-aligned box from a (C, H, W) image and resize it square.

    Box edges are rounded to the nearest integer (half away from zero).
    The part of the box outside the image is filled with zeros before
    resizing, so boxes may extend past any border, but a box entirely
    outside the image is an error.
    """
    img = np.asarray(img)
    if img.ndim != 3:
        raise ConfigError(f"expected (C,H,W) image, got shape {img.shape}")
    c, h, w = img.shape
    x1, y1, x2, y2 = (int(np.floor(v + 0.5)) for v in box)
    bw, bh = x2 - x1, y2 - y1
    if bw < 1 or bh < 1:
        raise DegenerateInputError(f"empty crop box {(x1, y1, x2, y2)}")
    if x2 <= 0 or y2 <= 0 or x1 >= w or y1 >= h:
        raise DegenerateInputError(f"crop box {(x1, y1, x2, y2)} lies outside the {h}x{w} image")
    dtype = np.result_type(img.dtype, np.float32)
    patch = np.zeros((c, bh, bw), dtype=dtype)
    sy1, sy2 = max(y1, 0), min(y2, h)
    sx1, sx2 = max(x1, 0), min(x2, w)
    if sy1 < sy2 and sx1 < sx2:
        patch[:, sy1 - y1 : sy2 - y1, sx1 - x1 : sx2 - x1] = img[:, sy1:sy2, sx1:sx2]
    return bilinear_resize(patch, out_size, out_size)


def _round_boxes(boxes):
    """Box edges rounded to integers by floor(v + 0.5), as crop_resize does."""
    return np.floor(np.asarray(boxes, dtype=np.float64) + 0.5).astype(np.int64)


def box_in_image(boxes, height, width):
    """Which (N, 4) boxes keep at least one pixel of the image after rounding."""
    x1, y1, x2, y2 = _round_boxes(boxes).reshape(-1, 4).T
    return (x2 - x1 >= 1) & (y2 - y1 >= 1) & (x2 > 0) & (y2 > 0) & (x1 < width) & (y1 < height)


def crop_resize_batch(img, boxes, out_size):
    """``crop_resize`` of N boxes at once; returns (C, N, out_size, out_size).

    Bit-identical to N crop_resize calls, without cutting patches: each
    bilinear corner is one gather straight from the image, and taps that
    fall outside it read zero, as crop_resize's zero-filled patch does.
    A C-contiguous image is never copied.  Every box must pass
    ``box_in_image``.
    """
    img = np.asarray(img)
    if img.ndim != 3:
        raise ConfigError(f"expected (C,H,W) image, got shape {img.shape}")
    c, h, w = img.shape
    boxes = np.asarray(boxes, dtype=np.float64).reshape(-1, 4)
    if not box_in_image(boxes, h, w).all():
        raise DegenerateInputError(f"a crop box is empty or lies outside the {h}x{w} image")
    x1, y1, x2, y2 = _round_boxes(boxes).T
    dtype = np.result_type(img.dtype, np.float32)
    pixels = img.reshape(c, h * w)
    r0, r1, ty = _taps((y2 - y1)[:, None], out_size)
    c0, c1, tx = _taps((x2 - x1)[:, None], out_size)
    ty = ty.astype(dtype)[:, :, None]  # (N, S, 1): varies down the rows
    tx = tx.astype(dtype)[:, None, :]  # (N, 1, S): varies along the columns

    def corner(rows, cols):
        rows = rows + y1[:, None]
        cols = cols + x1[:, None]
        flat = np.clip(rows, 0, h - 1)[:, :, None] * w + np.clip(cols, 0, w - 1)[:, None, :]
        v = pixels.take(flat, axis=1).astype(dtype, copy=False)
        outside = ((rows < 0) | (rows >= h))[:, :, None] | ((cols < 0) | (cols >= w))[:, None, :]
        if outside.any():
            np.copyto(v, 0, where=outside)
        return v

    # v00 + t * (v01 - v00), as in bilinear_resize, worked in place
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
