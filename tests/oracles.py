"""Independent reference implementations the tests compare against.

Everything here is written the dumbest possible way, on purpose: plain
loops and scalar math, no shared helpers with the package.  If a test
disagrees with one of these, the package is wrong.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from faceveil.errors import DataError


def conv2d_direct(x, w, b, stride, padding):
    """Six-nested-loop cross-correlation."""
    cin, h, wd = x.shape
    cout, cin2, kh, kw = w.shape
    assert cin == cin2
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (wd + 2 * padding - kw) // stride + 1
    padded = np.zeros((cin, h + 2 * padding, wd + 2 * padding), dtype=np.float64)
    padded[:, padding : padding + h, padding : padding + wd] = x
    out = np.zeros((cout, oh, ow), dtype=np.float64)
    for co in range(cout):
        for oy in range(oh):
            for ox in range(ow):
                acc = float(b[co])
                for ci in range(cin):
                    for ky in range(kh):
                        for kx in range(kw):
                            acc += float(padded[ci, oy * stride + ky, ox * stride + kx]) * float(
                                w[co, ci, ky, kx]
                            )
                out[co, oy, ox] = acc
    return out


def conv2d_backward_direct(x, w, dy, stride, padding):
    """Gradients of conv2d_direct wrt input, weight and bias, one product at a time."""
    cin, h, wd = x.shape
    cout, _, kh, kw = w.shape
    _, oh, ow = dy.shape
    padded = np.zeros((cin, h + 2 * padding, wd + 2 * padding), dtype=np.float64)
    padded[:, padding : padding + h, padding : padding + wd] = x
    dpadded = np.zeros_like(padded)
    dw = np.zeros((cout, cin, kh, kw), dtype=np.float64)
    db = np.zeros(cout, dtype=np.float64)
    for co in range(cout):
        for oy in range(oh):
            for ox in range(ow):
                g = float(dy[co, oy, ox])
                db[co] += g
                for ci in range(cin):
                    for ky in range(kh):
                        for kx in range(kw):
                            py, px = oy * stride + ky, ox * stride + kx
                            dw[co, ci, ky, kx] += g * float(padded[ci, py, px])
                            dpadded[ci, py, px] += g * float(w[co, ci, ky, kx])
    return dpadded[:, padding : padding + h, padding : padding + wd], dw, db


def maxpool_direct(x, kernel, stride):
    """Ceil-mode window scan; truncated border windows allowed."""
    c, h, w = x.shape
    oh = max(0, -(-(h - kernel) // stride)) + 1
    ow = max(0, -(-(w - kernel) // stride)) + 1
    out = np.empty((c, oh, ow), dtype=x.dtype)
    for ch in range(c):
        for oy in range(oh):
            for ox in range(ow):
                ys, xs = oy * stride, ox * stride
                window = x[ch, ys : min(ys + kernel, h), xs : min(xs + kernel, w)]
                out[ch, oy, ox] = window.max()
    return out


def _overlap(a, b, mode):
    ax1, ay1, ax2, ay2 = a
    bx1, by1, bx2, by2 = b
    iw = min(ax2, bx2) - max(ax1, bx1)
    ih = min(ay2, by2) - max(ay1, by1)
    if iw <= 0.0 or ih <= 0.0:
        return 0.0
    inter = iw * ih
    area_a = max(0.0, ax2 - ax1) * max(0.0, ay2 - ay1)
    area_b = max(0.0, bx2 - bx1) * max(0.0, by2 - by1)
    denom = min(area_a, area_b) if mode == "min" else area_a + area_b - inter
    return inter / denom if denom > 0.0 else 0.0


def nms_brute(boxes, scores, threshold, mode):
    """Greedy NMS as an explicit list algorithm, ties to lower index."""
    remaining = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    kept = []
    while remaining:
        best = remaining.pop(0)
        kept.append(best)
        survivors = []
        for i in remaining:
            ov = _overlap(tuple(boxes[best]), tuple(boxes[i]), mode)
            if ov <= threshold:
                survivors.append(i)
        remaining = survivors
    return kept


def auc_pairwise(scores, labels, positive="child"):
    """Probability a positive outscores a negative; ties count half."""
    pos = [s for s, lb in zip(scores, labels) if lb == positive]
    neg = [s for s, lb in zip(scores, labels) if lb != positive]
    assert pos and neg
    total = 0.0
    for sp in pos:
        for sn in neg:
            if sp > sn:
                total += 1.0
            elif sp == sn:
                total += 0.5
    return total / (len(pos) * len(neg))


def select_triplets_brute(embeddings, labels):
    """Exhaustive semi-hard selection, scanning negatives in index order."""
    emb = [list(map(float, row)) for row in embeddings]
    n = len(emb)

    def d2(i, j):
        return sum((a - b) ** 2 for a, b in zip(emb[i], emb[j]))

    out = []
    for a in range(n):
        negatives = [i for i in range(n) if labels[i] != labels[a]]
        if not negatives:
            continue
        for p in range(n):
            if p == a or labels[p] != labels[a]:
                continue
            d_ap = d2(a, p)
            best, best_d = None, math.inf
            for ni in negatives:  # semi-hard: closest strictly beyond d_ap
                d_an = d2(a, ni)
                if d_an > d_ap and d_an < best_d:
                    best, best_d = ni, d_an
            if best is None:  # fall back to the hardest negative
                for ni in negatives:
                    d_an = d2(a, ni)
                    if d_an < best_d:
                        best, best_d = ni, d_an
            out.append((a, p, best))
    return out


def classify_nearest(embedding, gallery_labels, gallery_vectors, threshold=0.0):
    """Exhaustive nearest-neighbor child/adult call."""
    d_child = math.inf
    d_adult = math.inf
    for lb, vec in zip(gallery_labels, gallery_vectors):
        d = math.sqrt(sum((float(e) - float(v)) ** 2 for e, v in zip(embedding, vec)))
        if lb == "child":
            d_child = min(d_child, d)
        else:
            d_adult = min(d_adult, d)
    return "child" if d_adult - d_child > threshold else "adult"


def bilinear_point(img, ch, sy, sx):
    """Sample one point with clamp-to-edge bilinear interpolation."""
    _, h, w = img.shape
    y0, x0 = math.floor(sy), math.floor(sx)
    ty, tx = sy - y0, sx - x0

    def at(y, x):
        return float(img[ch, min(max(y, 0), h - 1), min(max(x, 0), w - 1)])

    top = at(y0, x0) + tx * (at(y0, x0 + 1) - at(y0, x0))
    bot = at(y0 + 1, x0) + tx * (at(y0 + 1, x0 + 1) - at(y0 + 1, x0))
    return top + ty * (bot - top)


def crop_resize_direct(img, box, out_h, out_w):
    """Crop one box and resize it, point by point, in float64.

    Edges are rounded half up, the box's pixels outside the image are
    zero, and each output pixel samples the box with ``bilinear_point``
    at its half-pixel center.
    """
    c, h, w = img.shape
    x1, y1, x2, y2 = (math.floor(v + 0.5) for v in box)
    patch = np.zeros((c, y2 - y1, x2 - x1))
    for y in range(y1, y2):
        for x in range(x1, x2):
            if 0 <= y < h and 0 <= x < w:
                patch[:, y - y1, x - x1] = img[:, y, x]
    out = np.empty((c, out_h, out_w))
    for ch in range(c):
        for i in range(out_h):
            for j in range(out_w):
                sy = (i + 0.5) * ((y2 - y1) / out_h) - 0.5
                sx = (j + 0.5) * ((x2 - x1) / out_w) - 0.5
                out[ch, i, j] = bilinear_point(patch, ch, sy, sx)
    return out


_PPM_WS = b" \t\r\n\v\f"


def _ppm_token(buf, off, what):
    # skip whitespace and '#' comments (comment runs to end of line)
    n = len(buf)
    while True:
        while off < n and buf[off] in _PPM_WS:
            off += 1
        if off < n and buf[off : off + 1] == b"#":
            while off < n and buf[off] != 0x0A:
                off += 1
            continue
        break
    start = off
    while off < n and buf[off] not in _PPM_WS and buf[off : off + 1] != b"#":
        off += 1
    if start == off:
        raise DataError(f"truncated PPM header: missing {what}")
    return buf[start:off], off


def _ppm_frame(buf, off):
    magic, off = _ppm_token(buf, off, "magic")
    if magic != b"P6":
        raise DataError(f"not a binary PPM image (magic {magic!r})")
    dims = []
    for what in ("width", "height", "maxval"):
        tok, off = _ppm_token(buf, off, what)
        try:
            dims.append(int(tok))
        except ValueError:
            raise DataError(f"PPM {what} is not a number: {tok!r}") from None
    w, h, maxval = dims
    if w < 1 or h < 1:
        raise DataError(f"PPM size {w}x{h} out of range")
    if maxval != 255:
        raise DataError(f"unsupported PPM maxval {maxval}, only 255 is handled")
    off += 1  # exactly one whitespace byte separates the header from the raster
    end = off + 3 * w * h
    if end > len(buf):
        raise DataError(f"PPM raster truncated: need {end - off} bytes, have {max(0, len(buf) - off)}")
    frame = np.frombuffer(buf[off:end], dtype=np.uint8).reshape(h, w, 3)
    return frame.copy(), end


def ppm_frames_whole_buffer(path):
    """Multi-image P6 reader that parses the whole file from one buffer."""
    with open(path, "rb") as f:
        buf = f.read()
    off = 0
    got_any = False
    while True:
        while off < len(buf) and buf[off] in _PPM_WS:
            off += 1
        if off >= len(buf):
            break
        frame, off = _ppm_frame(buf, off)
        got_any = True
        yield frame
    if not got_any:
        raise DataError(f"{path}: no PPM frames found")


def mprw_bytes(tensors):
    """An MPRW file's bytes, laid out field by field with no value checks.

    ``save_weights`` refuses non-finite tensors; this writes them anyway,
    so tests can forge the files ``load_weights`` must refuse.
    """
    out = b"MPRW" + struct.pack("<II", 1, len(tensors))
    for name, values in tensors.items():
        values = np.asarray(values, dtype="<f4")
        raw = name.encode("utf-8")
        out += struct.pack("<H", len(raw)) + raw + struct.pack("<B", values.ndim)
        out += struct.pack(f"<{values.ndim}I", *values.shape)
        out += b"".join(struct.pack("<f", float(v)) for v in values.reshape(-1))
    return out
